"""Configuration resolution: defaults, file merging, command-line
overrides, validation messages, and object builders."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from fhnlse import Grid, HartreeKernel, PhysicsParams, SolveOptions, gaussian
from fhnlse.config import (
    DEFAULTS,
    apply_overrides,
    grid_from,
    kernel_from,
    load_config,
    params_from,
    solve_options_from,
    validate_config,
)
from fhnlse.snapshots import write_field


class TestLoadConfig:
    def test_readme_lists_the_defaults(self):
        """The ``jsonc`` block of README.md, its ``//`` comments stripped,
        is ``DEFAULTS``."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        assert json.loads(re.sub(r"//[^\n]*", "", block)) == DEFAULTS

    def test_defaults_resolve_to_the_reference_setup(self):
        cfg = load_config()
        assert cfg["physics"] == {"alpha": 0.6, "gamma": 0.5, "d": 2}
        assert cfg["grid"] == {"n": 64, "L": 40.0}
        assert cfg["solver"]["q"] == 3.0

    def test_returns_an_independent_copy(self):
        a = load_config()
        a["grid"]["n"] = 8
        assert DEFAULTS["grid"]["n"] == 64
        assert load_config()["grid"]["n"] == 64

    def test_file_values_override_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid": {"n": 32}, "solver": {"q": 2.0}}))
        cfg = load_config(path)
        assert cfg["grid"] == {"n": 32, "L": 40.0}
        assert cfg["solver"]["q"] == 2.0
        assert cfg["physics"]["alpha"] == 0.6

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)

    def test_non_object_file_raises(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config(path)

    def test_unknown_section_raises(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mesh": {"n": 32}}))
        with pytest.raises(ValueError, match="mesh"):
            load_config(path)

    def test_unknown_key_raises_with_dotted_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid": {"points": 32}}))
        with pytest.raises(ValueError, match="grid.points"):
            load_config(path)

    def test_non_object_section_raises(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid": 5}))
        with pytest.raises(ValueError, match="^config section grid must be an object$"):
            load_config(path)


class TestOverrides:
    def test_values_parse_as_json(self):
        cfg = apply_overrides(
            load_config(),
            ["grid.n=32", "dynamics.planeWaveMode=[0,2]", "solver.residTol=2.5e-7"],
        )
        assert cfg["grid"]["n"] == 32
        assert cfg["dynamics"]["planeWaveMode"] == [0, 2]
        assert cfg["solver"]["residTol"] == 2.5e-7

    def test_unparseable_values_stay_strings(self):
        cfg = apply_overrides(load_config(), ["solver.init=warm/ground_state"])
        assert cfg["solver"]["init"] == "warm/ground_state"

    def test_leaves_its_input_unchanged(self):
        base = load_config()
        before = json.dumps(base)
        cfg = apply_overrides(base, ["grid.n=32", "dynamics.planeWaveMode=[0,2]"])
        assert json.dumps(base) == before
        assert (cfg["grid"]["n"], cfg["dynamics"]["planeWaveMode"]) == (32, [0, 2])

    def test_malformed_overrides_raise(self):
        base = load_config()
        with pytest.raises(ValueError, match="section.key=value"):
            apply_overrides(base, ["grid.n"])
        with pytest.raises(ValueError, match="section.key"):
            apply_overrides(base, ["grid.n.m=1"])
        with pytest.raises(ValueError, match="unknown config section"):
            apply_overrides(base, ["mesh.n=1"])
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(base, ["grid.points=1"])


class TestValidation:
    def _cfg(self, **patches):
        cfg = load_config()
        for dotted, value in patches.items():
            section, key = dotted.split("__")
            cfg[section][key] = value
        return cfg

    def test_gamma_at_twice_alpha_names_the_constraint(self):
        cfg = self._cfg(physics__gamma=1.2)
        with pytest.raises(ValueError, match="2\\*alpha"):
            validate_config(cfg)

    def test_grid_constraint_messages(self):
        with pytest.raises(ValueError, match="power of two"):
            validate_config(self._cfg(grid__n=31))
        with pytest.raises(ValueError, match="grid.L must be a positive finite real number"):
            validate_config(self._cfg(grid__L=-1.0))

    def test_solver_and_dynamics_ranges(self):
        with pytest.raises(ValueError, match="solver.q"):
            validate_config(self._cfg(solver__q=0.0))
        with pytest.raises(ValueError, match="maxIter"):
            validate_config(self._cfg(solver__maxIter=0))
        with pytest.raises(ValueError, match="dynamics.dt"):
            validate_config(self._cfg(dynamics__dt=-1e-3))
        for section in ("dynamics", "stability"):
            with pytest.raises(
                ValueError,
                match=re.escape(f"{section}.T must be a nonnegative finite real number (got -1)"),
            ):
                validate_config(self._cfg(**{f"{section}__T": -1}))
        with pytest.raises(ValueError, match="planeWaveMode"):
            validate_config(self._cfg(dynamics__planeWaveMode="x"))
        with pytest.raises(ValueError, match="snapshotStride"):
            validate_config(self._cfg(stability__snapshotStride=0))
        with pytest.raises(ValueError, match="stability.delta"):
            validate_config(self._cfg(stability__delta=-0.1))
        with pytest.raises(ValueError, match="rearrange.count"):
            validate_config(self._cfg(rearrange__count=0))
        for section in ("stability", "rearrange"):
            with pytest.raises(ValueError, match=f"{section}.seed must be >= 0"):
                validate_config(self._cfg(**{f"{section}__seed": -1}))
        with pytest.raises(ValueError, match="output.formats"):
            validate_config(self._cfg(output__formats=["xml"]))

    @pytest.mark.parametrize("section", ["dynamics", "stability"])
    def test_step_count_must_be_finite(self, section):
        cfg = self._cfg(**{f"{section}__T": 1e300, f"{section}__dt": 1e-300})
        with pytest.raises(ValueError, match=f"{section}.T / {section}.dt must be finite"):
            validate_config(cfg)
        validate_config(self._cfg(**{f"{section}__T": 1e300, f"{section}__dt": 1.0}))

    @pytest.mark.parametrize("d", [1, 3])
    def test_plane_wave_mode_must_match_d_only_for_a_plane_wave_start(self, d):
        """The default mode [1, 0] has two components: a plane-wave start in
        d = 1 or 3 rejects it, and every other start ignores it."""
        for init in ("groundstate", "gaussian", "some/snapshot"):
            validate_config(self._cfg(physics__d=d, dynamics__init=init))
        with pytest.raises(
            ValueError,
            match=rf"dynamics.planeWaveMode must have {d} components \(got \(1, 0\)\)",
        ):
            validate_config(self._cfg(physics__d=d, dynamics__init="planeWave"))
        validate_config(
            self._cfg(physics__d=d, dynamics__init="planeWave", dynamics__planeWaveMode=[1] * d)
        )

    def test_delta_zero_is_allowed(self):
        validate_config(self._cfg(stability__delta=0.0))


class TestBuilders:
    def test_builders_map_the_reference_configuration(self):
        cfg = load_config()
        assert params_from(cfg) == PhysicsParams(alpha=0.6, gamma=0.5, d=2)
        assert grid_from(cfg) == Grid(d=2, n=64, L=40.0)
        kernel = kernel_from(cfg)
        assert isinstance(kernel, HartreeKernel)
        assert kernel.gamma == 0.5
        assert kernel.grid == Grid(d=2, n=64, L=40.0)

    def test_solve_options_builder(self, tmp_path):
        cfg = load_config()
        start = gaussian(grid_from(cfg), width=3.0)
        base = tmp_path / "warm" / "ground_state"
        write_field(base, start, 0.6, 0.5)
        cfg["solver"].update({"q": 2.0, "maxIter": 100, "init": str(base), "residTol": 1e-8})
        opts = solve_options_from(cfg)
        assert (opts.q, opts.max_iter, opts.resid_tol) == (2.0, 100, 1e-8)
        assert opts.init.grid == start.grid
        assert np.array_equal(opts.init.values, start.values)

    def test_solve_options_defaults_are_the_configured_defaults(self):
        """``minimize`` without options solves the reference problem of the
        CLI and of ``verify``."""
        assert SolveOptions() == solve_options_from(load_config())
