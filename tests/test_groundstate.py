"""Constrained minimization: convergence and optimality diagnostics,
closed-form critical points, orbit alignment, mass-scaling and
subadditivity experiments, initialization robustness, and failure modes."""

import numpy as np
import pytest

import fhnlse.grid as grid_module
import fhnlse.groundstate as groundstate_module
import fhnlse.kernel as kernel_module
from fhnlse import (
    Field,
    Grid,
    HartreeKernel,
    NonConvergenceError,
    NumericalAbort,
    PhysicsParams,
    SolveOptions,
    align,
    energy,
    energy_gradient,
    gaussian,
    h_alpha_norm,
    lagrange_multiplier,
    mass,
    minimize,
    orbit_distance,
    random_band_limited,
    require_converged,
    scaling_experiment,
    scaling_exponent,
    subadditivity_check,
    symmetric_rearrange,
    write_field,
)
from fhnlse.groundstate import _TAU0, _descent, _initial_fields
from fhnlse.snapshots import read_field
from fhnlse.spectral import HalfSpectrumTerms

ALPHA = 0.6
GAMMA = 0.5


def kernel_mean(kernel: HartreeKernel) -> float:
    g = kernel.grid
    return float(np.sum(kernel.samples)) * g.cell_volume / g.L**g.d


class TestMinimizeDiagnostics:
    def test_converges_with_negative_energy(self, ground32):
        assert ground32.converged
        assert ground32.stop_reason == "residual"
        assert ground32.residual < 1e-6
        assert ground32.energy < 0.0

    def test_returned_state_is_real(self, ground32):
        assert ground32.g.values.dtype == np.complex128
        assert not np.any(ground32.g.values.imag)

    def test_returned_state_sits_on_the_mass_sphere(self, ground32):
        assert mass(ground32.g) == pytest.approx(ground32.q, rel=1e-12, abs=0)

    def test_reported_multiplier_matches_recomputation(
        self, ground32, ref_params, kernel32
    ):
        omega = lagrange_multiplier(ground32.g, ref_params, kernel32)
        assert ground32.omega == pytest.approx(omega, rel=1e-10, abs=0)

    def test_euler_lagrange_residual_recomputed_from_scratch(
        self, ground32, ref_params, kernel32
    ):
        g = ground32.g
        omega = lagrange_multiplier(g, ref_params, kernel32)
        grad = energy_gradient(g, ref_params, kernel32)
        resid = Field(g.grid, grad.values - omega * g.values)
        rel = np.sqrt(mass(resid) / mass(g))
        assert rel < 1e-6

    def test_energy_history_is_monotone_nonincreasing(self, ground32):
        hist = ground32.energy_history
        assert hist is not None
        assert np.all(np.diff(hist) <= 1e-15)
        assert hist[-1] < hist[0]
        assert len(ground32.residual_history) == len(hist)

    def test_step_history_follows_the_backtracking_rule(self, ground32):
        """The first trial step is _TAU0, a backtrack halves it, and each
        next trial is 1.2x the accepted step, with no cap at _TAU0."""
        steps, backtracks = ground32.step_history, ground32.backtrack_history
        assert len(steps) == len(backtracks) == len(ground32.energy_history)
        assert steps[0] == 0.0 and backtracks[0] == 0
        trial = _TAU0
        for step, halvings in zip(steps[1:], backtracks[1:]):
            assert step == pytest.approx(trial * 0.5**halvings, rel=1e-12, abs=0)
            trial = 1.2 * step
        assert steps.max() > _TAU0

    def test_history_suppressed_on_request(self, ref_params):
        grid = Grid(d=2, n=16, L=12.0)
        kernel = HartreeKernel(grid, GAMMA)
        gs = minimize(ref_params, kernel, SolveOptions(q=1.0, keep_history=False))
        assert gs.energy_history is None
        assert gs.residual_history is None
        assert gs.step_history is None
        assert gs.backtrack_history is None

    def test_reports_the_seam_ratio_and_peak_over_mean(self, ref_params):
        """At unit mass on a moderate box the minimizer spreads over the whole
        box, so its magnitude at the seam equals its peak and its box average;
        at q = 3 it localizes on the same box."""
        grid = Grid(d=2, n=16, L=12.0)
        kernel = HartreeKernel(grid, GAMMA)
        flat = minimize(ref_params, kernel, SolveOptions(q=1.0))
        assert flat.seam_ratio == pytest.approx(1.0, abs=1e-4)
        assert flat.peak_over_mean == pytest.approx(1.0, abs=1e-4)
        localized = minimize(ref_params, kernel, SolveOptions(q=3.0))
        assert localized.seam_ratio < 0.2
        assert localized.peak_over_mean > 4.0
        vals = np.abs(localized.g.values)
        peak, seam = vals.max(), max(vals[0, :].max(), vals[:, 0].max())
        assert localized.seam_ratio == pytest.approx(seam / peak, rel=1e-14, abs=0)
        assert localized.peak_over_mean == pytest.approx(peak / vals.mean(), rel=1e-14, abs=0)


class TestPinnedSolves:
    """Localized q = 3 minimizers in d = 1, 2, 3 from the centred Gaussian
    start: the energies are those of the plain projected-gradient solver
    this one replaced, and the iteration count is that of the
    preconditioned direction (the plain direction took 35 to 262)."""

    @pytest.mark.parametrize(
        "d, n, L, expected",
        [
            (2, 64, 40.0, -1.092818852867142),
            (1, 64, 40.0, -4.2140143577092255),
            (3, 16, 12.0, -0.9786812770364094),
        ],
    )
    def test_energy_and_iterations(self, d, n, L, expected):
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        kernel = HartreeKernel(Grid(d=d, n=n, L=L), GAMMA)
        gs = minimize(p, kernel, SolveOptions(q=3.0, keep_history=False))
        assert gs.converged
        assert gs.iterations <= 60
        assert gs.energy == pytest.approx(expected, rel=1e-8, abs=0)


@pytest.fixture(scope="module")
def localized(ref_params):
    """The q = 3 minimizer on the 64^2, L = 40 box, with its kernel."""
    kernel = HartreeKernel(Grid(d=2, n=64, L=40.0), GAMMA)
    return minimize(ref_params, kernel, SolveOptions(q=3.0)), kernel


class TestFusedBookkeeping:
    """The energy, frequency and residual the solver reports were formed
    from the returned field's own transform and potential."""

    @pytest.mark.parametrize("max_iter", [3, 40000])
    def test_reported_values_match_a_fresh_evaluation(self, ref_params, localized, max_iter):
        _, kernel = localized
        gs = minimize(ref_params, kernel, SolveOptions(q=3.0, max_iter=max_iter))
        g = gs.g
        omega = lagrange_multiplier(g, ref_params, kernel)
        resid = Field(g.grid, energy_gradient(g, ref_params, kernel).values - omega * g.values)
        assert gs.energy == pytest.approx(energy(g, ref_params, kernel), rel=1e-12, abs=0)
        assert gs.omega == pytest.approx(omega, rel=1e-12, abs=0)
        # formed from the carried half spectrum, whose drift from the field's
        # own transform puts the converged residual 3.3e-10 relative off
        assert gs.residual == pytest.approx(np.sqrt(mass(resid) / mass(g)), rel=1e-8, abs=0)
        # the returned iterate is the accepted one with the smallest residual
        best = int(np.argmin(gs.residual_history))
        assert gs.energy_history[best] == gs.energy
        assert gs.residual_history[best] == gs.residual

    @pytest.mark.parametrize("which", ["random", "ground"])
    def test_direction_is_a_tangent_descent_direction(self, ref_params, localized, which):
        ground, kernel = localized
        field = random_band_limited(kernel.grid, seed=3) if which == "random" else ground.g
        u = field.values.real.copy()
        terms = HalfSpectrumTerms(u, np.fft.rfftn(u), ref_params, kernel)
        _, _, d, d_hat = _descent(terms, shift_floor=1e-3)
        assert d.dtype == np.float64
        assert abs(np.vdot(u, d)) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(d)
        gradient = energy_gradient(Field(kernel.grid, u), ref_params, kernel).values
        assert np.vdot(gradient.real, d) > 0.0
        exact = np.fft.rfftn(d)
        assert np.linalg.norm(d_hat - exact) <= 1e-12 * np.linalg.norm(exact)


def count_calls(monkeypatch, owner, names) -> dict:
    """Replace each ``owner.<name>`` by a wrapper that counts its calls."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return counts


NUMPY_TRANSFORMS = ("fftn", "ifftn", "fft", "ifft", "rfftn", "irfftn", "rfft", "irfft")


def count_real_pair(monkeypatch) -> tuple[dict, list]:
    """Count the calls of the real pair ``kernel.rfft_passes`` /
    ``irfft_passes`` and of the density convolution, and list every
    ``numpy.fft`` transform or per-axis pass called from outside the pair.

    Inside the pair the complex 1-D passes act on half spectra: they are
    part of a real transform, not a transform of a complex field."""
    counts = count_calls(monkeypatch, HartreeKernel, ("convolve_density",))
    counts.update(rfft_passes=0, irfft_passes=0)
    depth = [0]
    stray: list[str] = []

    def pair(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def watched(name, fn):
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                stray.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("rfft_passes", "irfft_passes"):
        original = getattr(kernel_module, name)
        for module in (kernel_module, groundstate_module):
            monkeypatch.setattr(module, name, pair(name, original))
    for name in NUMPY_TRANSFORMS:
        monkeypatch.setattr(np.fft, name, watched(name, getattr(np.fft, name)))
    # the per-axis passes call NumPy's pocketfft gufuncs through this binding
    for name, gufunc in grid_module._POCKETFFT.items():
        monkeypatch.setitem(grid_module._POCKETFFT, name, watched(name, gufunc))
    return counts, stray


class TestTransformCount:
    """The solver's fields are real and it carries the iterate's half
    spectrum: past the kernel build it makes no transform outside the real
    pair, no complex transform of a field in particular.  The start costs
    one forward real transform, every energy evaluation (start and trials)
    the real pair of its density convolution, and every accepted iterate,
    the start included, one more real pair; every trial goes through one
    :func:`energy` call."""

    @pytest.mark.parametrize("d, n, L", [(1, 64, 40.0), (2, 32, 25.0), (3, 16, 12.0)])
    def test_one_real_pair_per_iteration_and_no_complex_transform(
        self, d, n, L, monkeypatch
    ):
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        kernel = HartreeKernel(Grid(d=d, n=n, L=L), GAMMA)  # its build makes one fftn
        counts, stray = count_real_pair(monkeypatch)
        gs = minimize(p, kernel, SolveOptions(q=3.0))
        assert gs.converged
        assert stray == []
        evals = 1 + gs.iterations + int(np.sum(gs.backtrack_history))
        descents = 1 + gs.iterations
        assert counts["convolve_density"] == evals
        assert counts["rfft_passes"] == 1 + evals + descents
        assert counts["irfft_passes"] == evals + descents

    def test_every_trial_is_an_energy_call(self, ref_params, kernel32, monkeypatch):
        counts = count_calls(monkeypatch, groundstate_module, ("energy",))
        gs = minimize(ref_params, kernel32, SolveOptions(q=3.0, keep_history=True))
        assert counts["energy"] == 1 + gs.iterations + int(np.sum(gs.backtrack_history))


class TestClosedFormCriticalPoint:
    def test_constant_state_satisfies_the_optimality_system_exactly(
        self, ref_params, box32, kernel32
    ):
        q = 1.0
        flat = Field(box32, np.full(box32.shape, np.sqrt(q) / box32.L, dtype=complex))
        omega = lagrange_multiplier(flat, ref_params, kernel32)
        assert omega == pytest.approx(-q * kernel_mean(kernel32), rel=1e-12, abs=0)
        grad = energy_gradient(flat, ref_params, kernel32)
        resid = Field(box32, grad.values - omega * flat.values)
        assert np.sqrt(mass(resid)) < 1e-12


class TestAlign:
    def test_recovers_a_planted_shift_and_phase(self):
        grid = Grid(d=2, n=32, L=20.0)
        g = gaussian(grid, width=2.0, mass=1.0)
        planted = np.exp(0.7j) * np.roll(g.values, shift=(3, 30), axis=(0, 1))
        res = align(Field(grid, planted), g, ALPHA)
        assert res.shift == (3, -2)
        assert res.phase == pytest.approx(0.7, abs=1e-10)
        assert res.distance < 1e-10 * h_alpha_norm(g, ALPHA)

    def test_distance_bounded_by_perturbation_size(self, ground32):
        grid = ground32.g.grid
        rng = np.random.default_rng(5)
        noise = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        noise = noise * (1.0 / h_alpha_norm(noise, ALPHA))
        delta = 0.03
        f = Field(grid, ground32.g.values + delta * noise.values)
        res = align(f, ground32.g, ALPHA)
        assert res.distance <= delta * (1.0 + 1e-10)

    def test_identical_fields_have_zero_distance(self, ground32):
        res = align(ground32.g, ground32.g, ALPHA)
        assert res.shift == (0, 0)
        assert res.distance < 1e-12


class TestScalingLaw:
    def test_exponent_closed_forms(self):
        assert scaling_exponent(0.6, 0.5) == pytest.approx(19.0 / 7.0, rel=1e-12, abs=0)
        assert scaling_exponent(0.5, 0.5) == pytest.approx(3.0, rel=1e-12, abs=0)

    def test_exponent_rejects_supercritical_exponents(self):
        with pytest.raises(ValueError, match="2\\*alpha"):
            scaling_exponent(0.5, 1.0)

    def test_experiment_recovers_the_exponent(self, ref_params, kernel32):
        res = scaling_experiment(ref_params, kernel32, base_q=1.0, lambdas=(0.5, 1.0, 2.0))
        assert all(r.converged for r in res.rows)
        assert res.slope == pytest.approx(res.exponent, rel=1e-3, abs=0)

    def test_rows_use_the_rescaled_boxes(self, ref_params, kernel32, box32):
        res = scaling_experiment(ref_params, kernel32, base_q=1.0, lambdas=(1.0, 2.0))
        power = -1.0 / (2.0 * ALPHA - GAMMA)
        assert res.rows[0].L == box32.L
        assert res.rows[1].L == pytest.approx(box32.L * 2.0**power, rel=1e-12, abs=0)
        assert res.rows[0].energy == res.base_energy
        assert res.rows[1].q == 2.0

    def test_rejects_nonpositive_masses(self, ref_params, kernel32):
        with pytest.raises(ValueError, match="positive"):
            scaling_experiment(ref_params, kernel32, base_q=0.0)
        with pytest.raises(ValueError, match="positive"):
            scaling_experiment(ref_params, kernel32, base_q=1.0, lambdas=(1.0, -2.0))


class TestSubadditivity:
    def test_half_masses_cost_more_than_the_whole(self, ref_params, kernel32):
        res = subadditivity_check(ref_params, kernel32, 0.5, 0.5)
        assert res.all_converged
        assert res.margin > 0.0
        assert res.energy_q1 + res.energy_q2 - res.energy_sum_mass == pytest.approx(
            res.margin, rel=1e-12, abs=0
        )
        assert res.states[0].energy == res.energy_q1
        assert res.states[2].q == 1.0

    def test_rejects_nonpositive_masses(self, ref_params, kernel32):
        with pytest.raises(ValueError, match="positive"):
            subadditivity_check(ref_params, kernel32, 0.0, 1.0)


class TestInitialization:
    def test_minimizer_independent_of_initialization(self, ref_params, kernel32, box32):
        translated = np.roll(gaussian(box32, width=3.0).values, (5, -9), axis=(0, 1))
        options = [
            SolveOptions(q=3.0, init=gaussian(box32, width=2.0)),
            SolveOptions(q=3.0, init=gaussian(box32, width=5.0)),
            SolveOptions(q=3.0, init=Field(box32, translated)),
        ]
        states = [minimize(ref_params, kernel32, o) for o in options]
        assert all(s.converged for s in states)
        ref = states[0]
        norm = h_alpha_norm(ref.g, ALPHA)
        for other in states[1:]:
            assert orbit_distance(other.g, ref.g, ALPHA) < 1e-4 * norm

    @pytest.mark.parametrize("d, n, L", [(1, 64, 40.0), (2, 32, 25.0), (3, 16, 12.0)])
    def test_gaussian_start_maps_to_itself(self, d, n, L):
        grid = Grid(d=d, n=n, L=L)
        (start,) = _initial_fields(grid, SolveOptions(q=3.0))
        assert np.array_equal(start, gaussian(grid, mass=3.0).values)

    def test_lattice_translated_start_returns_the_centred_minimizer(
        self, ref_params, kernel32, box32
    ):
        """The start map keeps only magnitudes: a lattice translate of a real
        start gives the centred start's minimizer bit for bit, and with a
        phase as well its minimizer to roundoff."""
        opts = SolveOptions(q=3.0, init=gaussian(box32, width=3.0))
        centred = minimize(ref_params, kernel32, opts)
        translated = np.roll(gaussian(box32, width=3.0).values, (5, -9), axis=(0, 1))
        for phase, tol in ((0.0, 0.0), (0.7, 1e-12)):
            start = Field(box32, np.exp(1j * phase) * translated)
            gs = minimize(ref_params, kernel32, SolveOptions(q=3.0, init=start))
            assert gs.converged
            peak = np.max(np.abs(centred.g.values))
            assert np.max(np.abs(gs.g.values - centred.g.values)) <= tol * peak
        centre = np.unravel_index(np.argmax(np.abs(centred.g.values)), box32.shape)
        assert centre == (box32.n // 2,) * box32.d

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_complex_band_limited_start_converges(self, ref_params, localized, seed):
        """A complex noise start reaches the Gaussian-started minimizer, centred,
        within 100 iterations; unmapped, the soft lattice translation mode
        kept such starts 2e-7 to 1.2e-6 above it after 3,000."""
        ground, kernel = localized
        start = random_band_limited(kernel.grid, seed=seed)
        gs = minimize(ref_params, kernel, SolveOptions(q=3.0, init=start, max_iter=100))
        assert gs.converged
        assert gs.energy == pytest.approx(ground.energy, rel=1e-8, abs=0)
        gap = Field(kernel.grid, gs.g.values - ground.g.values)
        assert h_alpha_norm(gap, ALPHA) <= 1e-5 * h_alpha_norm(ground.g, ALPHA)

    def test_field_initialization(self, ref_params, kernel32, box32):
        start = gaussian(box32, width=3.0, mass=1.0)
        gs = minimize(ref_params, kernel32, SolveOptions(q=1.0, init=start))
        assert gs.converged

    def test_snapshot_initialization_restarts_quickly(
        self, ref_params, kernel32, box32, ground32, tmp_path
    ):
        base = tmp_path / "warm_start"
        write_field(base, ground32.g, ALPHA, GAMMA)
        start = read_field(base, box32, ALPHA, GAMMA)
        gs = minimize(ref_params, kernel32, SolveOptions(q=3.0, init=start))
        assert gs.converged
        assert gs.iterations < ground32.iterations // 2

    def test_converged_snapshot_restarts_in_zero_iterations(
        self, ref_params, localized, tmp_path
    ):
        """The solver's own minimizer is even and centred but not exactly its
        own rearrangement; the start map keeps it, so a warm start from it
        is already converged and returns it to roundoff."""
        ground, kernel = localized
        base = tmp_path / "warm_start"
        write_field(base, ground.g, ALPHA, GAMMA)
        start = read_field(base, kernel.grid, ALPHA, GAMMA)
        gs = minimize(ref_params, kernel, SolveOptions(q=3.0, init=start))
        assert gs.converged and gs.iterations == 0
        peak = np.max(np.abs(ground.g.values))
        assert np.max(np.abs(gs.g.values - ground.g.values)) <= 1e-13 * peak
        assert gs.energy == pytest.approx(ground.energy, rel=1e-14, abs=0)

    def test_rejects_field_on_a_different_grid(self, ref_params, kernel32):
        other = gaussian(Grid(d=2, n=16, L=25.0), width=3.0, mass=1.0)
        with pytest.raises(ValueError, match="different grid"):
            minimize(ref_params, kernel32, SolveOptions(q=1.0, init=other))

    def test_rejects_unrecognized_initializer(self, ref_params, kernel32, ground32, tmp_path):
        """A start is a Field or None: a snapshot path is read by the caller."""
        base = tmp_path / "warm_start"
        write_field(base, ground32.g, ALPHA, GAMMA)
        for init in (42, str(base), base):
            with pytest.raises(ValueError, match="unrecognized init"):
                minimize(ref_params, kernel32, SolveOptions(q=1.0, init=init))


class TestConcentratedBranch:
    def test_large_mass_minimizer_is_localized_positive_and_radial(self, ref_params):
        """At mass 4 on a compact box the minimizer beats the constant state,
        stays strictly positive (up to a global phase), decays at the seam,
        and matches its own symmetric-decreasing rearrangement."""
        grid = Grid(d=2, n=32, L=15.0)
        kernel = HartreeKernel(grid, GAMMA)
        gs = minimize(ref_params, kernel, SolveOptions(q=4.0))
        assert gs.converged
        flat_energy = -0.25 * 4.0**2 * kernel_mean(kernel)
        assert gs.energy < flat_energy - 0.1
        vals = gs.g.values
        peak = float(np.max(np.abs(vals)))
        # global phase is fixed by the real positive initialization
        assert np.max(np.abs(vals.imag)) < 1e-10 * peak
        assert np.min(vals.real) > 0.0
        seam = max(float(np.max(np.abs(vals[0, :]))), float(np.max(np.abs(vals[:, 0]))))
        assert seam < 1e-2 * peak
        mags = Field(grid, np.abs(vals))
        res = align(mags, symmetric_rearrange(gs.g), ALPHA)
        assert res.distance < 5e-3 * h_alpha_norm(gs.g, ALPHA)


class TestFailureModes:
    def test_iteration_cap_reports_nonconvergence(self, ref_params, kernel32):
        gs = minimize(ref_params, kernel32, SolveOptions(q=1.0, max_iter=1))
        assert not gs.converged
        assert gs.stop_reason == "max_iter"
        with pytest.raises(NonConvergenceError, match="max_iter"):
            require_converged(gs)

    def test_require_converged_passes_through_good_states(self, ground32):
        assert require_converged(ground32) is ground32

    def test_non_finite_initial_state_aborts(self, ref_params, kernel32, box32):
        bad = np.ones(box32.shape, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(NumericalAbort):
            minimize(ref_params, kernel32, SolveOptions(q=1.0, init=Field(box32, bad)))

    def test_option_validation(self):
        with pytest.raises(ValueError, match="q"):
            SolveOptions(q=0.0).validate()
        with pytest.raises(ValueError, match="max_iter"):
            SolveOptions(max_iter=0).validate()
        with pytest.raises(ValueError, match="resid_tol"):
            SolveOptions(resid_tol=0.0).validate()

    def test_rejects_mismatched_kernel(self, ref_params, box32):
        wrong_gamma = HartreeKernel(box32, 0.4)
        with pytest.raises(ValueError, match="gamma"):
            minimize(ref_params, wrong_gamma)
        wrong_d = HartreeKernel(Grid(d=1, n=32, L=25.0), GAMMA)
        with pytest.raises(ValueError, match="dimension"):
            minimize(ref_params, wrong_d)
