"""The verification runner itself: check table, filtering, and the
progress callback.  The individual checks are exercised one-per-criterion in
test_acceptance.py."""

import itertools
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fhnlse.cli as cli_module
import fhnlse.dynamics as dynamics_module
import fhnlse.rearrange as rearrange_module
import fhnlse.stability as stability_module
import fhnlse.verify as verify_module
from fhnlse.cli import main
from fhnlse.fields import Field
from fhnlse.kernel import HartreeKernel
from fhnlse.spectral import EnergyTerms
from fhnlse.verify import (
    CHECKS,
    CheckResult,
    VerifyContext,
    check_conservation,
    check_euler_lagrange,
    check_gradient_pairing,
    check_groundstate_convergence,
    check_hartree_oracle,
    check_radial_symmetry,
    check_rearrangement_suite,
    check_reproducibility,
    check_scaling_slope,
    check_stability_sweep,
    check_standing_wave,
    check_subadditivity,
    format_detail,
    run_checks,
)
from fhnlse.groundstate import ScalingResult, ScalingRow


class TestCheckTable:
    def test_twelve_checks_in_report_order(self):
        assert list(CHECKS) == [
            "hartree-oracle-equivalence",
            "gradient-pairing",
            "groundstate-convergence",
            "euler-lagrange-residual",
            "radial-symmetry",
            "mass-scaling-slope",
            "subadditivity",
            "rearrangement-suite",
            "conservation",
            "standing-wave-orbit",
            "stability-sweep",
            "reproducibility",
        ]

    def test_quick_subset(self):
        assert [name for name, (_, quick) in CHECKS.items() if quick] == [
            "hartree-oracle-equivalence",
            "gradient-pairing",
            "rearrangement-suite",
            "conservation",
        ]


class TestCheckResult:
    def test_numpy_verdict_becomes_a_json_serializable_bool(self):
        result = CheckResult(name="x", passed=np.float64(1.0) < 2.0, detail="")
        assert type(result.passed) is bool
        assert json.loads(json.dumps({"passed": result.passed})) == {"passed": True}


class TestRunChecks:
    def test_invalid_level_raises(self):
        with pytest.raises(ValueError, match="level"):
            run_checks(level="exhaustive")

    def test_unmatched_filter_raises(self):
        with pytest.raises(ValueError, match="no check name"):
            run_checks(level="quick", only="zzz-not-a-check")

    def test_filter_matching_only_a_full_check_names_the_level(self):
        with pytest.raises(
            ValueError, match="no check name contains 'stability' at level 'quick'"
        ):
            run_checks(level="quick", only="stability")

    def test_filtered_quick_run_reports_through_the_callback(self):
        seen: list[CheckResult] = []
        results = run_checks(level="quick", only="gradient", progress=seen.append)
        assert [r.name for r in results] == ["gradient-pairing"]
        assert results[0].passed, results[0].detail
        assert results[0].seconds >= 0.0
        assert seen == results

    def test_a_crashed_check_is_a_failed_check(self, monkeypatch, tmp_path, capsys):
        """A check that raises is reported as failed, with the exception as
        its detail, and fails the ``verify`` command, whose report is still
        written."""

        def crash(ctx, level):
            raise RuntimeError("planted")

        monkeypatch.setitem(CHECKS, "gradient-pairing", (crash, True))
        detail = "raised RuntimeError('planted')"
        (result,) = run_checks("quick", only="gradient-pairing")
        assert (result.name, result.passed, result.detail) == ("gradient-pairing", False, detail)
        code = main(["verify", "--only", "gradient-pairing", "--output-dir", str(tmp_path)])
        assert code == 1
        assert f"[FAIL] gradient-pairing: {detail}" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert (report["passed"], report["total"]) == (0, 1)
        assert report["checks"] == [
            {"name": "gradient-pairing", "passed": False, "detail": detail, "values": {}}
        ]


def nan_direct_sum(monkeypatch):
    monkeypatch.setattr(verify_module, "hartree_direct", lambda u, kernel: float("nan"))


def nan_gradient(monkeypatch):
    monkeypatch.setattr(
        verify_module,
        "energy_gradient",
        lambda u, p, kernel: Field(u.grid, np.full(u.grid.shape, np.nan)),
    )


class TestCheckRecord:
    """A check states each number once, in ``values``: its detail is
    formatted from them, and ``verify_report.json`` carries them as they
    are."""

    def test_the_formatter(self):
        values = {"x": 1.234567, "tol": 1e-6, "n": 32, "ok": True,
                  "xs": [0.5, 2.0, float("nan")], "names": ["a.csv"], "empty": []}
        assert format_detail(values) == (
            "x=1.235, tol=1e-06, n=32, ok=True, xs=[0.5, 2, nan], names=[a.csv], empty=[]"
        )

    @staticmethod
    def verify_records(monkeypatch, tmp_path, argv):
        """Run ``verify`` with ``argv``; return each check's result beside
        its entry in the written report."""
        results = []

        def recording(**kwargs):
            results.extend(run_checks(**kwargs))
            return results

        monkeypatch.setattr(cli_module, "run_checks", recording)
        main(["verify", *argv, "--output-dir", str(tmp_path)])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert len(report["checks"]) == len(results) > 0
        return zip(results, report["checks"])

    @staticmethod
    def assert_one_record(result, entry):
        assert result.values
        assert result.detail == format_detail(result.values)
        json.dumps(result.values)
        assert entry.keys() == {"name", "passed", "detail", "values"}
        assert (entry["name"], entry["passed"], entry["detail"]) == (
            result.name, result.passed, result.detail
        )
        # assert_equal compares nested dicts and lists and takes NaN to equal NaN
        np.testing.assert_equal(entry["values"], result.values)

    def test_every_quick_check(self, monkeypatch, tmp_path):
        records = list(self.verify_records(monkeypatch, tmp_path, ["--level", "quick"]))
        assert [result.name for result, _ in records] == [
            name for name, (_, quick) in CHECKS.items() if quick
        ]
        for result, entry in records:
            assert result.passed, result.detail
            self.assert_one_record(result, entry)

    @pytest.mark.parametrize(
        "plant, only, key",
        [(nan_direct_sum, "hartree", "max_rel_err"), (nan_gradient, "gradient", "max_rel_err")],
    )
    def test_a_nan_value(self, monkeypatch, tmp_path, plant, only, key):
        plant(monkeypatch)
        (record,) = self.verify_records(monkeypatch, tmp_path, ["--only", only])
        result, entry = record
        assert not result.passed
        assert np.isnan(entry["values"][key])
        assert f"{key}=nan" in result.detail
        self.assert_one_record(result, entry)


class TestSolverTolerance:
    @pytest.mark.parametrize(
        "check", [check_euler_lagrange, check_groundstate_convergence]
    )
    def test_the_thresholds_follow_the_solver(self, check, kernel32, ground32):
        """A check of the solver's residual holds it to the tolerance the
        context solves to: the 32^2 ground state, solved to 1e-6, fails a
        context whose solve options ask for 1e-8."""
        ctx = VerifyContext(seed=1)
        ctx.solve_options = replace(ctx.solve_options, resid_tol=1e-8)
        ctx.kernel, ctx.ground = kernel32, ground32
        result = check(ctx, "full")
        assert result.values["tol"] == 1e-8
        assert 1e-8 < result.values["residual"] < 1e-6
        assert not result.passed


class TestRearrangementVerdict:
    def test_excess_above_the_slack_fails_the_command_and_the_check(
        self, tmp_path, monkeypatch
    ):
        """A pairing excess just above the sweep's slack must fail both the
        ``rearrange-test`` command and the ``rearrangement-suite`` check,
        which read the one verdict of ``rearrangement_sweep``.  The excess is
        put into the pairings of every block of triples the sweep tests: a
        triple that is not its own rearrangement is given the pairing of its
        rearrangement, raised by the excess."""
        real = rearrange_module._triple_product
        excess = 2 * rearrange_module.SweepResult.slack

        def inflated(f, g, h, grid):
            ranked = [rearrange_module._rearranged(x, grid) for x in (f, g, h)]
            rhs = real(*ranked, grid)
            if all(np.array_equal(x, y) for x, y in zip((f, g, h), ranked)):
                return rhs
            return rhs + excess * np.abs(rhs)

        monkeypatch.setattr(rearrange_module, "_triple_product", inflated)
        code = main(
            ["rearrange-test", "--set", "grid.n=16", "--set", "grid.L=12.0",
             "--set", "rearrange.count=3", "--output-dir", str(tmp_path)]
        )
        assert code == 1
        report = json.loads((tmp_path / "rearrange.json").read_text())
        assert report["pass"] is False
        assert report["worstPairingExcess"] > report["slack"]
        result = check_rearrangement_suite(VerifyContext(seed=1), "quick")
        assert result.name == "rearrangement-suite"
        assert not result.passed
        assert result.values["worst_riesz_excess"] > result.values["slack"]

    def test_nan_excesses_fail_the_command(self, tmp_path, monkeypatch):
        """With every triple pairing 0, as when a squared cell volume
        underflows (a box that ``Grid`` now rejects), every pairing excess is
        0/0 = NaN.  A NaN excess fails the sweep: a reduction that drops NaNs
        would report a worst excess of -inf and pass."""
        real = rearrange_module._triple_product
        monkeypatch.setattr(
            rearrange_module, "_triple_product", lambda f, g, h, grid: 0.0 * real(f, g, h, grid)
        )
        with np.errstate(all="ignore"):
            code = main(
                ["rearrange-test", "--set", "grid.n=16", "--set", "grid.L=12.0",
                 "--set", "rearrange.count=2", "--output-dir", str(tmp_path)]
            )
        assert code == 1
        report = json.loads((tmp_path / "rearrange.json").read_text())
        assert report["pass"] is False
        assert np.isnan(report["worstPairingExcess"])


class TestHartreeOracle:
    def test_a_corrupted_production_pairing_fails_the_oracle(self, monkeypatch):
        """The oracle reads the pairing ``EnergyTerms`` forms for ``energy``
        and the solver, so doubling it there must fail the check."""
        real_init = EnergyTerms.__init__

        def doubled(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self.pairing *= 2.0

        monkeypatch.setattr(EnergyTerms, "__init__", doubled)
        result = check_hartree_oracle(VerifyContext(seed=1), "quick")
        assert not result.passed
        assert result.values["max_rel_err"] == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_a_nan_direct_sum_fails_the_oracle(self, monkeypatch):
        """A NaN relative error fails the check: it is not dropped in favour
        of the finite ones."""
        nan_direct_sum(monkeypatch)
        result = check_hartree_oracle(VerifyContext(seed=1), "quick")
        assert not result.passed
        assert np.isnan(result.values["max_rel_err"])


class TestGradientPairing:
    def test_a_nan_gradient_fails_the_check(self, monkeypatch):
        """A NaN relative error fails the check: it is not dropped in favour
        of the finite ones."""
        nan_gradient(monkeypatch)
        result = check_gradient_pairing(VerifyContext(seed=1), "quick")
        assert not result.passed
        assert np.isnan(result.values["max_rel_err"])


class TestScalingSlope:
    @pytest.mark.parametrize("slope, passed", [(2.0, True), (19.0 / 7.0, False)])
    def test_target_is_the_cached_exponent(self, slope, passed):
        """The slope is measured against the scaling result's own exponent,
        not the one of the reference exponents."""
        ctx = VerifyContext(seed=1)
        rows = [
            ScalingRow(lam=lam, q=3.0 * lam, L=40.0, energy=-(lam**slope), converged=True,
                       residual=1e-7, iterations=10)
            for lam in (0.5, 1.0, 2.0, 4.0)
        ]
        ctx.scaling = ScalingResult(exponent=2.0, slope=slope, rows=rows)
        result = check_scaling_slope(ctx, "full")
        assert result.passed is passed
        assert result.values["target"] == 2.0


class TestGroundstateConvergence:
    def test_the_flat_unit_mass_state_fails(self):
        """At q = 1 the reference box's solve converges to the box-filling
        constant state; the check must reject it for being flat, though the
        solve itself converged."""
        ctx = VerifyContext(seed=1)
        ctx.solve_options = replace(ctx.solve_options, q=1.0)
        result = check_groundstate_convergence(ctx, "full")
        gs = ctx.ground
        assert gs.converged and gs.residual < 1e-6 and gs.energy < 0.0
        assert not result.passed
        assert abs(result.values["drop"]) < 1e-9
        assert result.values["peak_over_mean"] < 1.001


class TestPlantedDefects:
    """Each check must fail on the defect it exists to catch."""

    @staticmethod
    def plant_blended_step(monkeypatch, eps):
        """Blend a Lie step into the flow's Strang step: a linear step of
        ``(1 + eps) h / 2``, the full nonlinear step, then a linear step of
        ``(1 - eps) h / 2``.  ``eps = 0`` is Strang and ``eps = 1`` is Lie
        (a full linear step, then a full nonlinear one); ``eps`` adds an
        energy error first order in dt."""

        def blended(values, mult, kernel, T, dt, stride):
            n = max(int(np.ceil(T / dt - 1e-9)), 1 if T > 0 else 0)
            h = T / max(n, 1)
            axes = tuple(range(-kernel.grid.d, 0))
            opening = np.exp(0.5j * (1.0 + eps) * h * mult)
            closing = np.exp(0.5j * (1.0 - eps) * h * mult)
            psi = values.copy()
            for k in range(1, n + 1):
                psi = np.fft.ifftn(opening * np.fft.fftn(psi, axes=axes), axes=axes)
                psi *= np.exp(-1j * h * kernel.convolve_density(np.abs(psi) ** 2))
                psi = np.fft.ifftn(closing * np.fft.fftn(psi, axes=axes), axes=axes)
                if k % stride == 0 or k == n:
                    yield k, (T if k == n else k * h), psi.copy()

        monkeypatch.setattr(dynamics_module, "_strang", blended)

    @pytest.mark.parametrize(
        "eps, passed",
        [(1.0, False), (2.7e-5, True), (3.1e-5, False), (-7e-5, True), (-9e-5, False)],
    )
    def test_a_first_order_splitting_fails_conservation(self, monkeypatch, eps, passed):
        """A Lie step (eps = 1) has an energy error first order in dt, so
        halving dt halves it: a factor of 2, outside the Strang band [3, 5].
        Unplanted the factor reads 3.991.  A small eps > 0 first cancels the
        Strang error at dt and the factor rises, through 5 near eps* =
        +2.94e-5 (2.7e-5 reads 4.885, 3.1e-5 reads 5.087); an eps < 0 makes
        it fall, through 3 at eps* = -8.707e-5 (-7e-5 reads 3.109, -9e-5
        reads 2.982).  Near +2.94e-5 the factor is jagged at the 1e-2 level
        (2.937e-5 reads 5.010, 2.938e-5 reads 4.999), so each crossing is
        bracketed by inputs at least 5% away from it."""
        self.plant_blended_step(monkeypatch, eps)
        result = check_conservation(VerifyContext(seed=1), "quick")
        assert result.passed is passed
        assert result.values["mass_drift"] < 1e-10
        if eps == 1.0:
            assert result.values["factor"] == pytest.approx(2.0, abs=0.1)

    @staticmethod
    def plant_scaled_flow(monkeypatch, factor):
        """Scale the Hartree kernel in the flow alone: the flow is handed a
        kernel whose convolution is multiplied by ``factor``, and the solve
        is left as it is."""
        real = dynamics_module._strang

        def scaled_flow(values, mult, kernel, T, dt, stride):
            def scaled(rho, out=None, *, scale=1.0, work=None):
                potential = kernel.convolve_density(rho, out=out, scale=scale, work=work)
                return np.multiply(potential, factor, out=out)

            rescaled = SimpleNamespace(grid=kernel.grid, convolve_density=scaled)
            return real(values, mult, rescaled, T, dt, stride)

        monkeypatch.setattr(dynamics_module, "_strang", scaled_flow)

    @classmethod
    def plant_repulsive_flow(cls, monkeypatch):
        """Flip the Hartree sign in the flow alone (a factor of -1, which
        negates exactly)."""
        cls.plant_scaled_flow(monkeypatch, -1.0)

    def test_a_repulsive_flow_fails_the_standing_wave_orbit(self, monkeypatch):
        """With the Hartree sign flipped in the flow alone, the solver's
        minimizer is no standing wave of the flow and leaves its orbit: the
        check reads a max distance of 3.2 over T = 10, against the tolerance
        2.1e-3."""
        self.plant_repulsive_flow(monkeypatch)
        result = check_standing_wave(VerifyContext(seed=1), "full")
        assert not result.passed
        assert result.values["max_distance"] >= 10 * result.values["tol"]

    @pytest.mark.parametrize("eps, passed", [(3.7e-4, True), (4.5e-4, False)])
    def test_a_flow_kernel_scaled_by_one_plus_eps_fails_the_standing_wave_orbit(
        self, monkeypatch, eps, passed
    ):
        """With the kernel scaled by ``1 + eps`` in the flow alone, the
        minimizer drifts off its orbit by about 5.2 eps in H^alpha over the
        check's T = 10.  The smallest eps caught is eps* = 4.090e-4, where
        the max distance reaches the tolerance 2.123e-3: 3.7e-4 reads
        1.92e-3 and passes, 4.5e-4 reads 2.34e-3 and fails."""
        self.plant_scaled_flow(monkeypatch, 1.0 + eps)
        result = check_standing_wave(VerifyContext(seed=1), "full")
        assert result.passed is passed
        assert result.values["max_distance"] == pytest.approx(5.2 * eps, rel=0.05)

    @pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
    def test_a_repulsive_flow_fails_the_stability_sweep(self, monkeypatch, planted):
        """The sweep's runs are cut from T = 20 to T = 1.  Clean, the sup
        distances are about delta (4.0e-2, 2.0e-2 and 1.0e-2) and the check
        passes.  With the Hartree sign flipped in the flow alone, every
        perturbed state leaves the orbit by about 1.63 whatever its delta:
        the sups (1.6278, 1.6271, 1.6269) still do not increase, so the
        bound 10 * 1e-2 = 0.1 is the clause that fails.  Over the check's
        own T = 20 both clauses fail (3.2526, 3.2529, 3.2530)."""
        real = verify_module.stability_run

        def short_run(*args, **kwargs):
            return real(*args, **{**kwargs, "T": 1.0})

        monkeypatch.setattr(verify_module, "stability_run", short_run)
        if planted:
            self.plant_repulsive_flow(monkeypatch)
        result = check_stability_sweep(VerifyContext(seed=1), "full")
        sups, bound = result.values["sups"], result.values["bound"]
        assert result.passed is not planted
        if planted:
            assert result.values["monotone"]
            assert sups[-1] >= 10 * bound
        else:
            assert sups == pytest.approx([4e-2, 2e-2, 1e-2], rel=0.05)

    @pytest.mark.parametrize("offset, passed", [(1e-3, False), (8.60e-7, True), (8.78e-7, False)])
    def test_an_offset_multiplier_fails_the_euler_lagrange_residual(
        self, monkeypatch, offset, passed
    ):
        """The residual r = G(g) - omega g is orthogonal to g, so an omega
        off by ``offset`` reads |G - (omega + offset) g| / |g| =
        hypot(r0, offset), with r0 the clean residual (4.891e-7), against
        the tolerance 1e-6.  The smallest offset caught is
        eps* = sqrt(tol^2 - r0^2) = 8.722e-7: 8.60e-7 reads 9.894e-7 and
        passes, 8.78e-7 reads 1.0050e-6 and fails, and 1e-3 reads 1e-3."""
        ctx = VerifyContext(seed=1)
        r0 = check_euler_lagrange(ctx, "full").values["residual"]
        real = verify_module.lagrange_multiplier
        monkeypatch.setattr(
            verify_module, "lagrange_multiplier", lambda u, p, kernel: real(u, p, kernel) + offset
        )
        result = check_euler_lagrange(ctx, "full")
        assert result.passed is passed
        assert result.values["residual"] == pytest.approx(np.hypot(r0, offset), rel=1e-9, abs=0)

    def test_an_unseeded_perturbation_fails_reproducibility(self, monkeypatch):
        """Noise drawn from fresh seeds on every call, as an unseeded draw
        would be, makes the two ``stability`` runs differ in every file that
        follows the perturbed state."""
        real = stability_module.band_limited_noise
        fresh = itertools.count(10_000)
        monkeypatch.setattr(
            stability_module,
            "band_limited_noise",
            lambda grid, seeds, keep: real(grid, [next(fresh) for _ in seeds], keep),
        )
        result = check_reproducibility(VerifyContext(seed=1), "full")
        assert not result.passed
        assert result.values["mismatches"] == ["distance_series.csv", "report.json"]

    def test_a_failed_run_fails_reproducibility_with_its_exit_code(self, monkeypatch):
        """A ``stability`` run that exits nonzero ends the check at once and
        records the exit code in place of the file comparison."""
        monkeypatch.setattr(cli_module, "main", lambda argv: 2)
        result = check_reproducibility(VerifyContext(seed=1), "full")
        assert (result.passed, result.values) == (False, {"exit_code": 2})

    def test_a_repulsive_interaction_fails_subadditivity(self, monkeypatch):
        """With the Hartree term's sign flipped the interaction repels, the
        minimizer of every mass is the flat state and E(q) = c q^2 > 0, so
        E(q/2) + E(q/2) = E(q) / 2: the margin is -E(q) / 2, which is
        E_flat(q) / 2 for the attractive E_flat of ``groundstate-convergence``."""
        real = HartreeKernel.convolve_density

        def repulsive(self, rho, out=None, *, scale=1.0, work=None):
            return real(self, rho, out=out, scale=-scale, work=work)  # exactly -potential

        monkeypatch.setattr(HartreeKernel, "convolve_density", repulsive)
        ctx = VerifyContext(seed=1)
        result = check_subadditivity(ctx, "full")
        assert not result.passed
        flat = verify_module._flat_energy(ctx.kernel, ctx.solve_options.q)
        assert result.values["margin"] == pytest.approx(0.5 * flat, rel=1e-6)

    @pytest.mark.parametrize(
        "stretch, passed", [(1.0, True), (1.00055, True), (1.00065, False), (1.2, False)]
    )
    def test_an_anisotropic_ground_state_fails_radial_symmetry(
        self, monkeypatch, stretch, passed
    ):
        """The ground state handed to the check is stretched by ``stretch``
        along the first axis and shrunk by it along the second, by linear
        interpolation: its level sets are ellipses, which no lattice shift
        of its rearrangement matches.  Stretched by 1.2 it reads a distance
        of 0.47 against the tolerance 2.1e-3 (an isotropic stretch by 1.2,
        whose error is only the interpolation's, reads 2.7e-3); unstretched
        it passes, at 5.7e-4.  The smallest stretch caught is 1 + 5.96e-4,
        where the distance reaches the tolerance, 2.123e-3: 1.00055 reads
        1.97e-3 and passes, 1.00065 reads 2.30e-3 and fails."""
        real = verify_module.minimize

        def stretched_minimize(p, kernel, opts):
            gs = real(p, kernel, opts)
            coords = kernel.grid.axis_coords
            values = gs.g.values.real
            for axis, factor in enumerate((stretch, 1.0 / stretch)):
                values = np.apply_along_axis(
                    lambda line: np.interp(coords / factor, coords, line), axis, values
                )
            return replace(gs, g=Field(kernel.grid, values))

        monkeypatch.setattr(verify_module, "minimize", stretched_minimize)
        result = check_radial_symmetry(VerifyContext(seed=1), "full")
        assert result.passed is passed
        assert result.values["min_magnitude"] > 0.0
        if stretch == 1.2:
            assert result.values["distance"] > 10 * result.values["tol"]
