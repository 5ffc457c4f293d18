"""End-to-end command-line behavior: outputs on disk, exit codes for every
failure class, analytic cross-checks, deliberate fault injection, and
byte-for-byte reproducibility of results."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fhnlse.cli as cli_module
import fhnlse.kernel as kernel_module
from fhnlse import (
    Grid,
    HartreeKernel,
    PhysicsParams,
    gaussian,
    h_alpha_norm,
    lagrange_multiplier,
    plane_wave,
    read_field,
    write_field,
)
from fhnlse.cli import main
from fhnlse.config import DEFAULTS
from fhnlse.fields import with_mass
from test_snapshots import REJECTED_HEADERS, RUN_ALPHA, RUN_GAMMA, RUN_GRID

# exit codes: 0 success, 1 check failed, 2 invalid input,
# 3 no convergence, 4 non-finite values
SMALL = ["--set", "grid.n=16", "--set", "grid.L=12.0"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(args):
    return main(list(args))


def record_solves(monkeypatch) -> list:
    """Make the CLI's ``minimize`` append each ground state it returns to the
    returned list."""
    solved = []
    real = cli_module.minimize

    def recording(*args):
        solved.append(real(*args))
        return solved[-1]

    monkeypatch.setattr(cli_module, "minimize", recording)
    return solved


class TestGroundstateCommand:
    def test_writes_summary_convergence_table_and_manifest(self, tmp_path, capsys):
        code = run(["groundstate", *SMALL, "--output-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["E"] < 0.0
        assert summary["params"] == {"d": 2, "n": 16, "L": 12.0}
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "iteration,energy,residual,step,backtracks"
        assert len(lines) == summary["iterations"] + 2  # header + initial state
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(len(rows)))
        assert rows[0][3:] == ["0.0", "0"]  # the start takes no step
        assert all(float(row[3]) > 0.0 and int(row[4]) >= 0 for row in rows[1:])
        assert float(rows[-1][1]) == summary["E"]
        assert float(rows[-1][2]) == summary["residual"]
        assert "ground state" in capsys.readouterr().out

    def test_summary_reports_the_run(self, tmp_path, monkeypatch):
        solved = record_solves(monkeypatch)
        assert run(["groundstate", *SMALL, "--output-dir", str(tmp_path)]) == 0
        (gs,) = solved
        s = json.loads((tmp_path / "summary.json").read_text())
        assert s["q"] == 3.0
        assert s["converged"] is True
        assert s["E"] == gs.energy
        assert s["seam_ratio"] == gs.seam_ratio
        assert s["peak_over_mean"] == gs.peak_over_mean
        assert s["params"] == {"d": 2, "n": 16, "L": 12.0}

    def test_output_directory_defaults_to_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["groundstate", *SMALL]) == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_manifest_records_the_run_but_not_the_directory(self, tmp_path):
        code = run(["groundstate", *SMALL, "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "groundstate"
        assert manifest["config"]["grid"]["n"] == 16
        assert "directory" not in manifest["config"]["output"]

    def test_snapshot_format_writes_the_state(self, tmp_path):
        code = run(
            [
                "groundstate", *SMALL,
                "--set", 'output.formats=["json","snapshots"]',
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert json.loads((tmp_path / "ground_state.json").read_text())["label"] == "ground_state"
        # raises unless the header holds the run's grid and exponents
        read_field(tmp_path / "ground_state", Grid(d=2, n=16, L=12.0), 0.6, 0.5)
        assert not (tmp_path / "convergence.csv").exists()

    def test_iteration_cap_exits_3_but_still_writes_the_partial_summary(
        self, tmp_path, capsys
    ):
        code = run(
            ["groundstate", *SMALL, "--set", "solver.maxIter=1",
             "--output-dir", str(tmp_path)]
        )
        assert code == 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is False
        assert "error" in capsys.readouterr().err

    def test_non_finite_start_exits_4_and_writes_nothing(self, tmp_path, capsys):
        """At q = 1e300 the start's Hartree pairing overflows, so its energy
        is -inf and its residual NaN: the solver aborts at the start, which
        the message numbers 0 as convergence.csv would, and the command
        writes no file."""
        out = tmp_path / "d"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["groundstate", *SMALL, "--set", "solver.q=1e300", "--output-dir", str(out)])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: non-finite diagnostics at iteration 0 (energy=-inf, residual=nan)\n"
        )
        assert not out.exists()

    def test_non_finite_start_prints_only_the_error_line(self, tmp_path):
        """Run as a program, with Python's default warning filters, the
        aborted solve writes its one ``error:`` line to stderr and no NumPy
        floating-point warning."""
        out = tmp_path / "d"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fhnlse.cli", "groundstate", *SMALL,
             "--set", "solver.q=1e300", "--output-dir", str(out)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 4
        assert proc.stderr == (
            "error: non-finite diagnostics at iteration 0 (energy=-inf, residual=nan)\n"
        )
        assert not out.exists()

    def test_two_runs_produce_identical_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["groundstate", *SMALL, "--output-dir", str(tmp_path / sub)]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["convergence.csv", "manifest.json", "summary.json"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestInvalidInput:
    def test_no_command_exits_2(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_gamma_at_twice_alpha_exits_2_naming_the_constraint(self, tmp_path, capsys):
        code = run(
            ["groundstate", *SMALL, "--set", "physics.gamma=1.2",
             "--output-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "2*alpha" in err

    @pytest.mark.parametrize(
        "setting",
        [
            "solver.maxIter=null",
            "solver.maxIter=2.7",
            "grid.n=null",
            "grid.L=null",
            "physics.d=null",
            "physics.alpha=null",
            "solver.seed=null",  # deleted key: rejected as unknown
            "solver.init=5",
            "solver.init=null",
            "stability.seed=null",
            "dynamics.snapshotStride=null",
            "rearrange.count=null",
            "rearrange.seed=true",
            "dynamics.init=5",
            "dynamics.planeWaveMode=[true,0]",
            "dynamics.sign=true",  # deleted key: rejected as unknown
            "grid.L=Infinity",
            "stability.delta=NaN",
            "dynamics.T=Infinity",
            "solver.stallTol=NaN",  # deleted key: rejected as unknown
            "solver.tau0=0.5",  # deleted key: rejected as unknown
            "dynamics.hartree=false",  # deleted key: rejected as unknown
            "solver.initWidth=2.5",  # deleted key: rejected as unknown
            "output.directory=elsewhere",  # deleted key: rejected as unknown
            "stability.seed=-1",
            "rearrange.seed=-1",
        ],
    )
    def test_malformed_value_exits_2_naming_the_key(self, setting, tmp_path, capsys):
        code = run(["groundstate", *SMALL, "--set", setting, "--output-dir", str(tmp_path)])
        assert code == 2
        key = setting.split("=")[0]
        errors = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") and key in line for line in errors)
        deleted = (
            "solver.seed", "dynamics.sign", "solver.stallTol", "solver.tau0",
            "dynamics.hartree", "solver.initWidth", "output.directory",
        )
        if key in deleted:
            assert f"error: unknown config key: {key}" in errors

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("L", ["1e300", "1e200", "1e-200", "1e-300"])
    def test_unrepresentable_box_exits_2(self, d, L, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["groundstate", "--set", f"physics.d={d}", "--set", "grid.n=8",
             "--set", f"grid.L={L}", "--output-dir", str(out)]
        )
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: L = ") for line in errors)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, L",
        [
            pytest.param(command, L, id=command + suffix)
            for L, suffix in (("1e100", ""), ("1e-100", "-underflow"))
            for command in ("rearrange-test", "groundstate", "evolve")
        ],
    )
    def test_box_whose_squared_cell_volume_overflows_exits_2(
        self, command, L, tmp_path, capsys
    ):
        """On 8^2 with L = 1e100 the cell volume is finite but its square,
        the weight of the triple pairing and of the direct Hartree sum, is
        not; with L = 1e-100 the cell volume is positive but its square
        underflows to 0.  Every command rejects the box, not only the one
        that squares it."""
        out = tmp_path / "out"
        code = run(
            [command, "--set", "grid.n=8", "--set", f"grid.L={L}",
             "--set", "dynamics.init=gaussian", "--set", "rearrange.count=2",
             "--output-dir", str(out)]
        )
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        prefix = f"error: L = {float(L)} is out of range"
        assert any(line.startswith(prefix) for line in errors)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "stability"])
    def test_overflowing_step_count_exits_2_before_any_solve(
        self, command, tmp_path, capsys, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("the configuration should have been rejected")

        monkeypatch.setattr(cli_module, "kernel_from", unreachable)
        section = "dynamics" if command == "evolve" else "stability"
        out = tmp_path / "out"
        code = run(
            [command, "--set", "grid.n=8", "--set", "grid.L=10.0",
             "--set", "dynamics.init=gaussian",
             "--set", f"{section}.T=1e300", "--set", f"{section}.dt=1e-300",
             "--output-dir", str(out)]
        )
        assert code == 2
        assert f"error: {section}.T / {section}.dt must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_plane_wave_mode_of_the_wrong_length_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = run(
            ["evolve", *SMALL, "--set", "dynamics.init=planeWave",
             "--set", "dynamics.planeWaveMode=[1]", "--output-dir", str(out)]
        )
        assert code == 2
        assert (
            "error: dynamics.planeWaveMode must have 2 components (got (1,))"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_plane_wave_mode_is_rejected_before_the_kernel_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        """The configuration is rejected as it loads: a kernel build that
        raises something other than a ValueError would escape ``main``."""

        def no_kernel(cfg):
            raise AssertionError("the kernel was built")

        monkeypatch.setattr(cli_module, "kernel_from", no_kernel)
        out = tmp_path / "d"
        code = run(
            ["evolve", "--set", "grid.n=256", "--set", "dynamics.init=planeWave",
             "--set", "dynamics.planeWaveMode=[1]", "--output-dir", str(out)]
        )
        assert code == 2
        assert (
            "error: dynamics.planeWaveMode must have 2 components (got (1,))"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        code = run(["groundstate", "--config", str(tmp_path / "none.json")])
        assert code == 2

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        code = run(["groundstate", "--set", "grid.points=3", "--output-dir", str(tmp_path)])
        assert code == 2
        assert "grid.points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, message",
        [("mesh", "n", "unknown config section: mesh"),
         ("grid", "points", "unknown config key: grid.points")],
    )
    def test_config_file_and_override_reject_alike(
        self, section, key, message, tmp_path, capsys
    ):
        """A config file and ``--set`` go through one merge: one message."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: {key: 1}}))
        errors = []
        for source in (["--config", str(path)], ["--set", f"{section}.{key}=1"]):
            code = run(["groundstate", *SMALL, *source, "--output-dir", str(tmp_path / "out")])
            assert code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: {message}\n"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("solver", "tau0", 0.5),
            ("solver", "stallTol", 1e-11),
            ("dynamics", "sign", 1),
            ("dynamics", "hartree", False),
            ("solver", "initWidth", 2.5),
            ("output", "directory", "elsewhere"),
        ],
    )
    def test_deleted_key_in_a_config_file_exits_2(self, section, key, value, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: {key: value}}))
        code = run(["groundstate", *SMALL, "--config", str(path), "--output-dir", str(tmp_path)])
        assert code == 2
        assert f"error: unknown config key: {section}.{key}" in capsys.readouterr().err

    def test_problem_too_large_for_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 16.0 GiB for an array")

        monkeypatch.setattr(cli_module, "kernel_from", exhausted)
        code = run(["groundstate", *SMALL, "--output-dir", str(tmp_path)])
        assert code == 2
        assert "error: Unable to allocate" in capsys.readouterr().err

    def test_missing_snapshot_initial_state_exits_2(self, tmp_path):
        code = run(
            ["evolve", *SMALL, "--set", f'dynamics.init="{tmp_path / "nope"}"',
             "--set", "dynamics.T=0.01", "--output-dir", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("key", ["dynamics.init", "solver.init"])
    @pytest.mark.parametrize("text, tail", REJECTED_HEADERS)
    def test_malformed_snapshot_header_exits_2_naming_the_file(
        self, key, text, tail, tmp_path, capsys
    ):
        _, header = write_field(
            tmp_path / "start", gaussian(RUN_GRID), alpha=RUN_ALPHA, gamma=RUN_GAMMA
        )
        header.write_text(text)
        code = run(
            ["groundstate" if key == "solver.init" else "evolve",
             "--set", f"physics.d={RUN_GRID.d}", "--set", f"grid.n={RUN_GRID.n}",
             "--set", f"grid.L={RUN_GRID.L}", "--set", f"physics.alpha={RUN_ALPHA}",
             "--set", f"physics.gamma={RUN_GAMMA}",
             "--set", f'{key}="{tmp_path / "start"}"', "--set", "dynamics.T=0.01",
             "--output-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert f"error: snapshot header {header}{tail}" in capsys.readouterr().err


class TestOutputFormats:
    """``manifest.json`` is written whatever ``output.formats`` holds; every
    other file belongs to one format (README, "Output files")."""

    FILES = {
        "groundstate": {
            "json": ["summary.json"],
            "csv": ["convergence.csv"],
            "snapshots": ["ground_state.f64", "ground_state.json"],
        },
        "evolve": {
            "json": ["conservation.json"],
            "csv": ["series.csv"],
            "snapshots": ["final_state.f64", "final_state.json"],
        },
        "stability": {"json": ["report.json"], "csv": ["distance_series.csv"]},
        "rearrange-test": {"json": ["rearrange.json"]},
        "verify": {"json": ["verify_report.json"]},
    }
    ARGS = {
        "groundstate": SMALL,
        "evolve": [*SMALL, "--set", 'dynamics.init="gaussian"', "--set", "dynamics.T=0.01"],
        "stability": [*SMALL, "--set", "stability.T=0.01"],
        "rearrange-test": [*SMALL, "--set", "rearrange.count=2"],
        "verify": ["--only", "gradient"],
    }

    @pytest.mark.parametrize(
        "formats", [[], ["json"], ["csv"], ["snapshots"], ["json", "csv", "snapshots"]]
    )
    @pytest.mark.parametrize("command", list(FILES))
    def test_directory_holds_the_manifest_and_the_files_of_each_format(
        self, command, formats, tmp_path, capsys
    ):
        code = run(
            [command, *self.ARGS[command], "--set", f"output.formats={json.dumps(formats)}",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        expected = ["manifest.json"]
        expected += [name for fmt in formats for name in self.FILES[command].get(fmt, [])]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)


class TestOutputDirectory:
    """The first file a command writes makes its output directory, so a
    command that exits 2 on its input leaves no directory behind."""

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    def test_rejected_command_makes_no_directory(self, command, tmp_path):
        rejected = {
            "verify": ["verify", "--set", "grid.n=16"],
            "evolve": ["evolve", *SMALL, "--set", f'dynamics.init="{tmp_path / "nope"}"',
                       "--set", "dynamics.T=0.01"],
        }[command]
        out = tmp_path / "d"
        assert run([*rejected, "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_successful_run_makes_a_nested_directory(self, tmp_path):
        out = tmp_path / "a" / "b"
        code = run(
            ["rearrange-test", *SMALL, "--set", "rearrange.count=2", "--output-dir", str(out)]
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "rearrange.json"]


class TestEvolveCommand:
    def test_plane_wave_matches_the_analytic_solution(self, tmp_path):
        """A plane wave is a standing wave of the Hartree flow: it evolves by
        the phase ``exp(i omega T)``, ``omega`` its Lagrange multiplier."""
        T = 0.1
        code = run(
            [
                "evolve", *SMALL,
                "--set", 'dynamics.init="planeWave"',
                "--set", "dynamics.planeWaveMode=[1,0]",
                "--set", f"dynamics.T={T}",
                "--set", 'output.formats=["json","csv","snapshots"]',
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        grid = Grid(d=2, n=16, L=12.0)
        final = read_field(tmp_path / "final_state", grid, 0.6, 0.5)
        psi0 = with_mass(plane_wave(grid, (1, 0)), DEFAULTS["solver"]["q"])
        p = PhysicsParams(alpha=0.6, gamma=0.5, d=2)
        omega = lagrange_multiplier(psi0, p, HartreeKernel(grid, 0.5))
        expected = np.exp(1j * omega * T) * psi0.values
        assert np.max(np.abs(final.values - expected)) < 1e-10
        report = json.loads((tmp_path / "conservation.json").read_text())
        assert report["massDrift"] < 1e-12

    def test_conservation_report_and_series_for_the_default_initial_state(self, tmp_path):
        code = run(
            ["evolve", *SMALL, "--set", "dynamics.T=0.05",
             "--set", "dynamics.snapshotStride=10", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "conservation.json").read_text())
        assert report["steps"] == 50
        assert report["massDrift"] < 1e-12
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "time,mass,energy"
        assert len(lines) == 7  # header, t=0, then every 10th of 50 steps

    def test_zero_mass_snapshot_reports_finite_drifts(self, tmp_path):
        """A zero field conserves mass exactly; the report must stay valid
        JSON (no ``NaN`` from 0/0)."""

        def reject(constant):
            raise ValueError(f"conservation.json holds {constant}")

        grid = Grid(d=2, n=16, L=12.0)
        write_field(tmp_path / "zero", gaussian(grid) * 0.0, alpha=0.6, gamma=0.5)
        code = run(
            ["evolve", *SMALL, "--set", f'dynamics.init="{tmp_path / "zero"}"',
             "--set", "dynamics.T=0.01", "--output-dir", str(tmp_path / "out")]
        )
        assert code == 0
        text = (tmp_path / "out" / "conservation.json").read_text()
        report = json.loads(text, parse_constant=reject)
        assert report["massDrift"] == 0.0
        assert report["energyDrift"] == 0.0

    def test_gaussian_initial_state_runs(self, tmp_path):
        code = run(
            ["evolve", *SMALL, "--set", 'dynamics.init="gaussian"',
             "--set", "dynamics.T=0.01", "--output-dir", str(tmp_path)]
        )
        assert code == 0

    def test_snapshot_initial_state_round_trips(self, tmp_path):
        grid = Grid(d=2, n=16, L=12.0)
        start = gaussian(grid, width=2.0, mass=1.0)
        write_field(tmp_path / "start", start, alpha=0.6, gamma=0.5)
        code = run(
            ["evolve", *SMALL, "--set", f'dynamics.init="{tmp_path / "start"}"',
             "--set", "dynamics.T=0.01", "--output-dir", str(tmp_path / "out")]
        )
        assert code == 0


class TestStabilityCommand:
    def test_writes_report_and_distance_series(self, tmp_path):
        code = run(
            [
                "stability", *SMALL,
                "--set", "stability.T=0.2",
                "--set", "stability.snapshotStride=50",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["delta"] == 0.01
        assert report["supDistance"] <= 0.1
        assert len(report["distances"]) == len(report["times"])
        lines = (tmp_path / "distance_series.csv").read_text().splitlines()
        assert lines[0] == "time,distance"
        assert len(lines) == len(report["times"]) + 1

    def test_report_carries_the_ground_state_it_solved(self, tmp_path, monkeypatch):
        solved = record_solves(monkeypatch)
        code = run(
            ["stability", *SMALL, "--set", "stability.T=0.05", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        (gs,) = solved
        report = json.loads((tmp_path / "report.json").read_text())
        assert list(report) == [
            "delta", "seed", "T", "dt", "stride", "supDistance", "massDrift",
            "energyDrift", "groundEnergy", "groundOmega", "groundResidual",
            "groundNorm", "times", "distances",
        ]
        ground = (report["groundEnergy"], report["groundOmega"], report["groundResidual"])
        assert ground == (gs.energy, gs.omega, gs.residual)
        assert report["groundNorm"] == h_alpha_norm(gs.g, 0.6)

    def test_unconverged_ground_state_exits_3(self, tmp_path, capsys):
        code = run(
            ["stability", *SMALL, "--set", "solver.maxIter=1", "--set", "stability.T=0.01",
             "--output-dir", str(tmp_path)]
        )
        assert code == 3
        assert "error: stability_run: ground-state solve stopped" in capsys.readouterr().err


class TestRunRecord:
    """A run's record is its files, its stdout and its exit code: the CLI
    has no log and no option that turns one on."""

    def test_a_run_leaves_the_root_logger_without_a_handler(self, tmp_path):
        """Run in a fresh process, since pytest's log capture puts handlers
        on the root logger of this one."""
        out = tmp_path / "d"
        script = (
            "import logging, sys\n"
            "from fhnlse.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, logging.getLogger().handlers)\n"
        )
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "rearrange-test", "--set", "grid.n=8",
             "--set", "grid.L=10.0", "--set", "rearrange.count=2", "--output-dir", str(out)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.stdout.splitlines()[-1] == "0 []"
        assert proc.stderr == ""

    def test_two_calls_of_a_process_keep_their_own_overrides(self, tmp_path):
        """Nothing of one ``main`` call's parsing reaches the next: each of
        two runs' manifests holds only its own overrides."""
        argvs = {
            "a": ["--set", "grid.n=8", "--set", "grid.L=10.0", "--set", "rearrange.count=2"],
            "b": ["--set", "grid.n=16", "--set", "rearrange.seed=5", "--set", "rearrange.count=3"],
        }
        for name, overrides in argvs.items():
            assert run(["rearrange-test", *overrides, "--output-dir", str(tmp_path / name)]) == 0
        configs = {
            name: json.loads((tmp_path / name / "manifest.json").read_text())["config"]
            for name in argvs
        }
        assert configs["a"]["grid"] == {"n": 8, "L": 10.0}
        assert configs["a"]["rearrange"] == {"count": 2, "seed": DEFAULTS["rearrange"]["seed"]}
        assert configs["b"]["grid"] == {"n": 16, "L": DEFAULTS["grid"]["L"]}
        assert configs["b"]["rearrange"] == {"count": 3, "seed": 5}

    @pytest.mark.parametrize("command", list(cli_module._COMMANDS))
    def test_verbose_is_not_an_option(self, command, tmp_path, capsys):
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            run([command, "--verbose", "--output-dir", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err
        assert not out.exists()


class TestRearrangeCommand:
    def test_random_population_passes(self, tmp_path, capsys):
        code = run(
            ["rearrange-test", *SMALL, "--set", "rearrange.count=5",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "rearrange.json").read_text())
        assert report["pass"] is True
        assert report["fields"] == 5
        assert report["worstSeminormExcess"] <= 1e-9
        assert "PASS" in capsys.readouterr().out


class TestVerifyCommand:
    def test_single_check_passes_and_writes_the_report(self, tmp_path, capsys):
        code = run(
            ["verify", "--level", "quick", "--only", "gradient",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] gradient-pairing" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] == report["total"] == 1

    def test_config_value_it_does_not_read_exits_2(self, tmp_path, capsys):
        """The checks run on the built-in reference instance, so a value
        outside ``output`` that differs from it is refused, not echoed into
        the manifest."""
        code = run(
            ["verify", "--level", "quick", "--only", "gradient",
             "--set", "physics.alpha=0.9", "--set", "grid.n=16",
             "--output-dir", str(tmp_path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert (
            "error: verify runs on the built-in defaults and does not read physics.alpha"
            in captured.err
        )
        assert "[PASS]" not in captured.out
        assert not (tmp_path / "manifest.json").exists()

    def test_output_formats_are_read(self, tmp_path):
        code = run(
            ["verify", "--level", "quick", "--only", "gradient",
             "--set", 'output.formats=["json"]', "--output-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "verify_report.json").exists()

    def test_broken_kernel_transform_is_caught(self, tmp_path, monkeypatch, capsys):
        """Doubling the kernel spectrum desynchronizes the fast pairing from
        the direct double sum; the consistency check must notice and the
        command must exit nonzero."""
        real = kernel_module.kernel_spectrum
        monkeypatch.setattr(
            kernel_module, "kernel_spectrum", lambda samples: 2.0 * real(samples)
        )
        code = run(
            ["verify", "--level", "quick", "--only", "hartree",
             "--output-dir", str(tmp_path)]
        )
        assert code == 1
        assert "[FAIL] hartree-oracle-equivalence" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] < report["total"]

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = run(
            ["verify", "--level", "full", "--only", "stability", "--seed", "-1",
             "--output-dir", str(tmp_path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "error: seed must be >= 0 (got -1)" in captured.err
        assert "[FAIL]" not in captured.out
