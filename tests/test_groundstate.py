"""Constrained minimization: convergence and optimality diagnostics,
closed-form critical points, orbit alignment, mass-scaling and
subadditivity experiments, initialization robustness, and failure modes."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import fhnlse.grid as grid_module
import fhnlse.groundstate as groundstate_module
import fhnlse.kernel as kernel_module
import fhnlse.spectral as spectral_module
from fhnlse import (
    Field,
    Grid,
    GroundState,
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
    random_band_limited,
    require_converged,
    scaling_experiment,
    subadditivity_check,
    symmetric_rearrange,
    write_field,
)
from fhnlse.groundstate import _TAU0, _descent, _initial_fields, _reflect
from fhnlse.snapshots import read_field
from fhnlse.spectral import EnergyTerms

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

    def test_history_has_a_row_per_accepted_iterate(self, ground32):
        history = ground32.history
        assert history.dtype.names == ("energy", "residual", "step", "backtracks")
        assert history["backtracks"].dtype.kind == "i"
        assert len(history) == ground32.iterations + 1
        assert history["residual"][-1] == ground32.residual

    def test_a_trial_is_accepted_within_the_nonmonotone_window(
        self, ref_params, kernel32, ground32, monkeypatch
    ):
        """A trial is accepted exactly when its energy is finite and at most
        the largest of the last 10 accepted energies, the start included
        (Grippo, Lampariello & Lucidi 1986).  Replaying that rule on every
        energy the solve evaluates gives its history row for row, with the
        rejected trials as backtracks.  On this solve some accepted
        energies rise, which the monotone rule would have rejected, and the
        solve still ends below its start."""
        evaluated = []
        real = groundstate_module.energy

        def recording(*args, **kwargs):
            e, terms = real(*args, **kwargs)
            evaluated.append(e)
            return e, terms

        monkeypatch.setattr(groundstate_module, "energy", recording)
        gs = minimize(ref_params, kernel32, SolveOptions(q=3.0))
        np.testing.assert_array_equal(gs.history, ground32.history)
        # the default start has one candidate, evaluated first
        assert len(_initial_fields(ref_params, kernel32.grid, SolveOptions(q=3.0))) == 1
        accepted, backtracks, rejected = [evaluated[0]], [0], 0
        for e in evaluated[1:]:
            if np.isfinite(e) and e <= max(accepted[-10:]):
                accepted.append(e)
                backtracks.append(rejected)
                rejected = 0
            else:
                rejected += 1
        assert rejected == 0  # the solve stopped on an accepted iterate
        assert accepted == list(gs.history["energy"])
        assert backtracks == list(gs.history["backtracks"])
        assert np.any(np.diff(accepted) > 0)
        assert accepted[-1] < accepted[0]

    @pytest.mark.parametrize(
        "d, n, L, wide_start, fallbacks",
        # from the L/8 Gaussian, 13 times wider than w* = 0.37, the 1-D solve
        # starts where <s, y> <= 0 and falls back four times
        [
            pytest.param(2, 32, 25.0, False, False, id="2d-32"),
            pytest.param(1, 64, 40.0, True, True, id="1d-64"),
            pytest.param(1, 64, 40.0, False, False, id="1d-64-optimal-width"),
        ],
    )
    def test_step_history_follows_the_backtracking_rule(
        self, d, n, L, wide_start, fallbacks, monkeypatch
    ):
        """The first trial step is _TAU0, a backtrack halves it, and each
        next trial is the Barzilai-Borwein step <s, P^-1 s> / <s, y> of the
        last accepted move, s = u_new - u_old and y = r_new - r_old, with
        P^-1 = shift + |k|^(2 alpha) at the new iterate; or 1.2x the accepted
        step where <s, y> <= 0.  The reference below forms both inner
        products in real space and on the full spectrum, from the iterates
        alone."""
        iterates = []
        real = groundstate_module._descent

        def recording(terms, shift_floor, *work):
            iterates.append(terms.u.copy())  # the solver reuses its arrays
            return real(terms, shift_floor, *work)

        monkeypatch.setattr(groundstate_module, "_descent", recording)
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        kernel = HartreeKernel(Grid(d=d, n=n, L=L), GAMMA)
        init = gaussian(kernel.grid) if wide_start else None
        gs = minimize(p, kernel, SolveOptions(q=3.0, init=init))
        assert gs.converged
        grid = kernel.grid
        multiplier = grid.fractional_multiplier(ALPHA)
        shift_floor = (2.0 * np.pi / grid.L) ** (2.0 * ALPHA)

        def residual(u):
            field = Field(grid, u)
            omega = lagrange_multiplier(field, p, kernel)
            return energy_gradient(field, p, kernel).values.real - omega * u, omega

        steps, backtracks = gs.history["step"], gs.history["backtracks"]
        assert steps[0] == 0.0 and backtracks[0] == 0
        assert len(iterates) == len(steps)
        trial, rule = _TAU0, []
        r_old, _ = residual(iterates[0])
        for k in range(1, len(steps)):
            # the solver's BB step comes from carried half spectra, which puts
            # it up to 3e-12 relative off this one
            assert steps[k] == pytest.approx(trial * 0.5 ** backtracks[k], rel=1e-9, abs=0)
            s = iterates[k] - iterates[k - 1]
            r_new, omega = residual(iterates[k])
            s_y = float(np.sum(s * (r_new - r_old)))
            metric = max(abs(omega), shift_floor) + multiplier
            s_s = float(np.sum(metric * np.abs(np.fft.fftn(s)) ** 2)) / grid.size
            rule.append("bb" if s_y > 0.0 else "fallback")
            trial = s_s / s_y if s_y > 0.0 else 1.2 * steps[k]
            r_old = r_new
        assert rule.count("bb") > len(rule) // 2
        assert ("fallback" in rule) is fallbacks
        assert steps.max() > _TAU0

    @pytest.mark.parametrize("factor, stalls", [(1 + 1e-9, True), (1 - 1e-9, False)])
    def test_a_move_below_the_stall_tolerance_stops_the_solve(
        self, ref_params, kernel32, monkeypatch, factor, stalls
    ):
        """The solver forms the relative move |u_new - u_old| / |u_old| of
        each accepted step by Parseval from half spectra.  With _STALL_TOL
        just above the real-space move of the first step the solve stops
        there with "stalled"; just below it, the solve goes past that
        iterate."""
        iterates = []
        real = groundstate_module._descent

        def recording(terms, shift_floor, *work):
            iterates.append(terms.u.copy())  # the solver reuses its arrays
            return real(terms, shift_floor, *work)

        monkeypatch.setattr(groundstate_module, "_descent", recording)
        minimize(ref_params, kernel32, SolveOptions(q=3.0, max_iter=1))
        start, first = iterates[:2]
        move = np.linalg.norm(first - start) / np.linalg.norm(start)
        monkeypatch.setattr(groundstate_module, "_STALL_TOL", move * factor)
        gs = minimize(ref_params, kernel32, SolveOptions(q=3.0))
        if stalls:
            assert gs.stop_reason == "stalled" and gs.iterations == 1
        else:
            assert gs.iterations > 1

    def test_history_suppressed_on_request(self, ref_params):
        grid = Grid(d=2, n=16, L=12.0)
        kernel = HartreeKernel(grid, GAMMA)
        gs = minimize(ref_params, kernel, SolveOptions(q=1.0, keep_history=False))
        assert gs.history is None

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

    def test_profile_is_derived_from_g(self):
        """A state built by hand: peak 9 at the centre, 1 elsewhere, so the
        seam holds 1 and the box average is 72/64."""
        grid = Grid(d=2, n=8, L=8.0)
        vals = -np.ones(grid.shape)
        vals[4, 4] = -9.0
        gs = GroundState(
            g=Field(grid, vals), q=1.0, energy=0.0, omega=0.0, residual=0.0,
            iterations=0, stop_reason="residual",
        )
        assert gs.seam_ratio == 1.0 / 9.0
        assert gs.peak_over_mean == 8.0
        gs.g = Field(grid, np.ones(grid.shape))
        assert (gs.seam_ratio, gs.peak_over_mean) == (1.0, 1.0)


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
        best = int(np.argmin(gs.history["residual"]))
        assert gs.history["energy"][best] == gs.energy
        assert gs.history["residual"][best] == gs.residual

    @pytest.mark.parametrize("which", ["random", "ground"])
    def test_direction_is_a_tangent_descent_direction(self, ref_params, localized, which):
        ground, kernel = localized
        field = random_band_limited(kernel.grid, seed=3) if which == "random" else ground.g
        u = field.values.real.copy()
        terms = EnergyTerms(u, ref_params, kernel, u_hat=np.fft.rfftn(u))
        out = (np.empty_like(u), *(np.empty_like(terms.u_hat) for _ in range(3)))
        _, _, d, d_hat, _, _ = _descent(terms, 1e-3, out, np.empty_like(terms.u_hat))
        assert d.dtype == np.float64
        assert abs(np.vdot(u, d)) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(d)
        gradient = energy_gradient(Field(kernel.grid, u), ref_params, kernel).values
        assert np.vdot(gradient.real, d) > 0.0
        exact = np.fft.rfftn(d)
        assert np.linalg.norm(d_hat - exact) <= 1e-12 * np.linalg.norm(exact)


class TestReflect:
    """``_reflect`` gathers by cached negated indices; pinned bit for bit to
    the roll of the flip it replaced, which the even part of a start and the
    Hermitian edges of every residual were formed with."""

    @staticmethod
    def reference(a, axes):
        return np.roll(np.flip(a, axes), 1, axes)

    @staticmethod
    def draw(shape, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a.flat[0] = complex(-0.0, np.nan)  # signed zero and NaN keep their bits
        return a

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fields(self, d):
        a = self.draw((8,) * d, d)
        axes = tuple(range(d))
        for values in (a, a.real.copy()):
            reflected = _reflect(values, axes)
            assert reflected.dtype == values.dtype
            assert reflected.tobytes() == self.reference(values, axes).tobytes()

    @pytest.mark.parametrize(
        "shape", [(8, 5), (16, 9), (8, 8, 5), (7, 5), (5, 7, 3), (9, 9, 9)]
    )
    def test_half_spectrum_edges(self, shape):
        """The zero and Nyquist columns of a half spectrum, reflected along
        the leading axes, on odd lengths as well as the lattice's."""
        x_hat = self.draw(shape, len(shape))
        edges = x_hat[..., :: shape[-1] - 1]
        axes = tuple(range(len(shape) - 1))
        assert _reflect(edges, axes).tobytes() == self.reference(edges, axes).tobytes()


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
    """Count the calls of the real pair ``grid._rfftn`` / ``_irfftn`` and of
    the density convolution, and list every ``numpy.fft`` transform or
    per-axis pass called from outside the pair.

    Inside the pair the complex 1-D passes act on half spectra: they are
    part of a real transform, not a transform of a complex field."""
    counts = count_calls(monkeypatch, HartreeKernel, ("convolve_density",))
    counts.update(_rfftn=0, _irfftn=0)
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

    for name in ("_rfftn", "_irfftn"):
        original = getattr(grid_module, name)
        for module in (kernel_module, spectral_module, groundstate_module):
            if hasattr(module, name):
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
        evals = 1 + gs.iterations + int(np.sum(gs.history["backtracks"]))
        descents = 1 + gs.iterations
        assert counts["convolve_density"] == evals
        assert counts["_rfftn"] == 1 + evals + descents
        assert counts["_irfftn"] == evals + descents

    def test_every_trial_is_an_energy_call(self, ref_params, kernel32, monkeypatch):
        counts = count_calls(monkeypatch, groundstate_module, ("energy",))
        gs = minimize(ref_params, kernel32, SolveOptions(q=3.0, keep_history=True))
        assert counts["energy"] == 1 + gs.iterations + int(np.sum(gs.history["backtracks"]))


def traced_peak(solve) -> int:
    """The peak of the memory ``tracemalloc`` traces while ``solve()`` runs."""
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkArrays:
    """A solve works in arrays made once, which its iterates reuse: its
    memory does not grow with its iterations, an iterate allocates no field
    of its own, the best iterate outlives the reuse of its slot, and the
    returned field is the caller's alone."""

    def test_a_solves_traced_peak_does_not_grow_with_its_iterations(self, ref_params, localized):
        """A 64^2 solve stopped at 4 iterates and one that runs 16 to
        convergence peak within an eighth of a field (4 KiB) of each other:
        what differs is Python's and NumPy's small bookkeeping, about 1.4
        KiB here.  An array kept per iterate would add a field, 32 KiB, for
        each of the 12 further iterates."""
        _, kernel = localized

        def peak(max_iter):
            opts = SolveOptions(q=3.0, max_iter=max_iter, keep_history=False)
            return traced_peak(lambda: minimize(ref_params, kernel, opts))

        peak(40)  # the grid's cached weights and NumPy's first-call caches
        assert abs(peak(40) - peak(4)) < kernel.grid.size * 8 // 8

    def test_the_benchmarks_128_solve_peaks_at_most_13_1_fields(self, ref_params):
        """The 128^2 solve of the benchmark's ``groundstate`` workload, from
        the L/8 Gaussian shifted as its seed 1 shifts it, peaks at or below
        13.1 fields (1,678 KiB), its traced peak when every iterate made new
        arrays; with the work arrays it peaks at 12.1 fields here."""
        grid = Grid(d=2, n=128, L=40.0)
        kernel = HartreeKernel(grid, GAMMA)
        shift = tuple(int(s) for s in np.random.default_rng(1).integers(0, grid.n, size=2))
        init = Field(grid, np.roll(gaussian(grid).values, shift, axis=(0, 1)))
        opts = SolveOptions(q=3.0, init=init, keep_history=False)
        gs = minimize(ref_params, kernel, opts)  # warm the caches
        assert gs.converged
        assert traced_peak(lambda: minimize(ref_params, kernel, opts)) <= 13.1 * grid.size * 8

    @pytest.mark.parametrize(
        "d, n, L",
        [pytest.param(1, 4096, 40.0, id="1d"), pytest.param(2, 64, 40.0, id="2d"),
         pytest.param(3, 16, 40.0, id="3d")],
    )
    def test_an_iterate_allocates_no_field(self, d, n, L, monkeypatch):
        """From one descent to the next (the step, its trials and its
        acceptance) the traced peak rises less than 4 KiB above the memory
        traced when the descent began, NumPy's and Python's bookkeeping,
        plus in d >= 2 the buffer NumPy makes for a product with the
        Hermitian weights, which broadcast along the leading axes: at most
        NumPy's buffer size of complex values.  Each grid's field is 32
        KiB; when every iterate made new arrays, the rise was several
        fields.  Iterates 0 to 4 lower the residual, so no trial overwrites
        the best iterate, which would be copied."""
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        kernel = HartreeKernel(Grid(d=d, n=n, L=L), GAMMA)
        opts = SolveOptions(q=3.0, max_iter=5)
        minimize(p, kernel, opts)
        marks = []
        real = groundstate_module._descent

        def traced(*args):
            marks.append(tracemalloc.get_traced_memory())  # (current, peak since the last)
            tracemalloc.reset_peak()
            return real(*args)

        monkeypatch.setattr(groundstate_module, "_descent", traced)
        tracemalloc.start()
        try:
            gs = minimize(p, kernel, opts)
        finally:
            tracemalloc.stop()
        assert gs.iterations == 5 and np.all(np.diff(gs.history["residual"][:5]) < 0)
        half_size = kernel.grid.size // n * (n // 2 + 1)
        buffered = 0 if d == 1 else min(half_size, np.getbufsize()) * 16
        rise = [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]
        assert len(rise) == 5 and max(rise) < buffered + 4096

    def test_the_best_iterate_survives_the_reuse_of_its_slot(self, ref_params, localized):
        """On the 64^2 box the residual rises at iterates 11 and 12, so a
        solve stopped at 12 returns iterate 10, whose slot the trials of
        iterate 12 overwrite: it comes back bit for bit as the solve stopped
        at 10 returns it, with its own energy, residual and omega."""
        _, kernel = localized
        stopped = minimize(ref_params, kernel, SolveOptions(q=3.0, max_iter=12))
        best = int(np.argmin(stopped.history["residual"]))
        assert stopped.stop_reason == "max_iter" and best == 10
        at_best = minimize(ref_params, kernel, SolveOptions(q=3.0, max_iter=best))
        assert at_best.g.values.tobytes() == stopped.g.values.tobytes()
        row = stopped.history[best]
        assert (stopped.energy, stopped.residual) == (row["energy"], row["residual"])
        assert (at_best.energy, at_best.residual) == (row["energy"], row["residual"])
        assert stopped.omega == at_best.omega

    def test_a_returned_field_shares_no_memory_with_a_later_solve(
        self, ref_params, kernel32, monkeypatch
    ):
        """The returned field is a new array: no work array of its own
        solve or of a later one on the same grid is, or overlaps, it, and
        the later solve leaves its values as they were."""
        arrays = []
        real = groundstate_module._descent

        def recording(terms, shift_floor, out, scratch):
            arrays.extend([terms.u, terms.u_hat, terms.potential, *out, scratch])
            return real(terms, shift_floor, out, scratch)

        monkeypatch.setattr(groundstate_module, "_descent", recording)
        first = minimize(ref_params, kernel32, SolveOptions(q=3.0))
        values = first.g.values.copy()
        later = minimize(ref_params, kernel32, SolveOptions(q=3.0))
        assert later.iterations > 0
        assert not any(np.shares_memory(first.g.values, a) for a in [*arrays, later.g.values])
        assert first.g.values.tobytes() == values.tobytes()


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
        for alpha, sigma in [(0.6, 19.0 / 7.0), (0.5, 3.0)]:
            p = PhysicsParams(alpha=alpha, gamma=0.5, d=2)
            assert p.scaling_exponent == pytest.approx(sigma, rel=1e-12, abs=0)

    def test_experiment_recovers_the_exponent(self, ref_params, kernel32):
        res = scaling_experiment(ref_params, kernel32, base_q=1.0, lambdas=(0.5, 1.0, 2.0))
        assert all(r.converged for r in res.rows)
        assert res.slope == pytest.approx(res.exponent, rel=1e-3, abs=0)

    def test_rows_use_the_rescaled_boxes(self, ref_params, kernel32, box32, monkeypatch):
        builds = count_calls(monkeypatch, groundstate_module, ("HartreeKernel",))
        res = scaling_experiment(ref_params, kernel32, base_q=1.0, lambdas=(1.0, 2.0))
        # the lam = 1 row solves on the given kernel, the other on a new one
        assert builds["HartreeKernel"] == 1
        power = -1.0 / (2.0 * ALPHA - GAMMA)
        assert res.rows[0].L == box32.L
        assert res.rows[1].L == pytest.approx(box32.L * 2.0**power, rel=1e-12, abs=0)
        assert [r.q for r in res.rows] == [1.0, 2.0]
        direct = minimize(ref_params, kernel32, SolveOptions(q=1.0, keep_history=False))
        assert res.rows[0].energy == direct.energy
        assert res.rows[0].iterations == direct.iterations

    def test_each_lambda_is_solved_once(self, ref_params, kernel32, monkeypatch):
        counts = count_calls(monkeypatch, groundstate_module, ("minimize",))
        res = scaling_experiment(ref_params, kernel32, base_q=1.0, lambdas=(0.5, 2.0))
        assert counts["minimize"] == 2
        assert [r.lam for r in res.rows] == [0.5, 2.0]

    def test_rejects_nonpositive_masses(self, ref_params, kernel32):
        with pytest.raises(ValueError, match="positive"):
            scaling_experiment(ref_params, kernel32, base_q=0.0)
        with pytest.raises(ValueError, match="positive"):
            scaling_experiment(ref_params, kernel32, base_q=1.0, lambdas=(1.0, -2.0))

    def test_rejects_a_start_before_any_solve(self, ref_params, kernel32, ground32, monkeypatch):
        # a start fits one box only, and every row but lam = 1 has its own box
        counts = count_calls(monkeypatch, groundstate_module, ("minimize",))
        with pytest.raises(ValueError, match="starts each row from its own box's Gaussian"):
            scaling_experiment(ref_params, kernel32, base_q=3.0, opts=SolveOptions(init=ground32.g))
        assert counts["minimize"] == 0


class TestSubadditivity:
    def test_half_masses_cost_more_than_the_whole(self, ref_params, kernel32):
        res = subadditivity_check(ref_params, kernel32, 0.5, 0.5)
        assert res.all_converged
        assert res.margin > 0.0
        gs1, gs2, gs12 = res.states
        assert res.margin == gs1.energy + gs2.energy - gs12.energy
        assert [gs.q for gs in res.states] == [0.5, 0.5, 1.0]

    def test_all_converged_follows_the_states(self, ref_params, kernel32):
        res = subadditivity_check(ref_params, kernel32, 0.5, 0.5, SolveOptions(max_iter=1))
        assert not any(gs.converged for gs in res.states)
        assert not res.all_converged

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
            assert align(other.g, ref.g, ALPHA).distance < 1e-4 * norm

    @pytest.mark.parametrize("d, n, L", [(1, 64, 40.0), (2, 32, 25.0), (3, 16, 12.0)])
    def test_gaussian_start_maps_to_itself(self, d, n, L):
        """The default start is the Gaussian of width min(w*, L/8) at mass
        q, bit for bit: it is its own even rearrangement."""
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        grid = Grid(d=d, n=n, L=L)
        (start,) = _initial_fields(p, grid, SolveOptions(q=3.0))
        width = min(p.gaussian_width(3.0), L / 8)
        assert np.array_equal(start, gaussian(grid, width, mass=3.0).values)

    @pytest.mark.parametrize(
        "d, n, L, q",
        [(1, 128, 40.0, 1.0), (2, 64, 40.0, 3.0), (3, 16, 12.0, 6.0)],
    )
    def test_optimal_width_is_near_the_lattice_argmin(self, d, n, L, q):
        """w* minimizes the continuum Gaussian's energy in closed form; the
        lattice energy of the Gaussians of mass q is least within 10% of it
        (1.597 against 1.64 on 64^2, within the scan's 1% steps)."""
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        grid = Grid(d=d, n=n, L=L)
        kernel = HartreeKernel(grid, GAMMA)
        w_star = p.gaussian_width(q)
        assert grid.h < w_star < L / 8
        widths = w_star * np.geomspace(0.5, 2.0, 71)
        energies = [energy(gaussian(grid, w, mass=q), p, kernel) for w in widths]
        best = int(np.argmin(energies))
        assert 0 < best < len(widths) - 1  # an interior minimum
        assert widths[best] == pytest.approx(w_star, rel=0.1)

    def test_optimal_width_closed_form(self):
        """w* = (2 alpha A / (gamma B q))^(1 / (2 alpha - gamma)); in d = 2,
        A = alpha Gamma(alpha) / 2 and B = 2^(-gamma/2) Gamma(1 - gamma/2) / 4;
        the width scales as q^(-width_exponent) and is inf past overflow and
        0 past underflow."""
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=2)
        a = ALPHA * math.gamma(ALPHA) / 2
        b = 2 ** (-GAMMA / 2) * math.gamma(1 - GAMMA / 2) / 4
        expected = (2 * ALPHA * a / (GAMMA * b * 3.0)) ** (1 / (2 * ALPHA - GAMMA))
        assert p.gaussian_width(3.0) == pytest.approx(expected, rel=1e-14, abs=0)
        assert p.gaussian_width(3.0 * 7.5) == pytest.approx(
            expected * 7.5**-p.width_exponent, rel=1e-14, abs=0
        )
        assert p.gaussian_width(1e-300) == math.inf
        assert p.gaussian_width(1e300) == 0.0
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="q must be a positive finite real number"):
                p.gaussian_width(bad)

    @pytest.mark.parametrize(
        "d, n, L, q", [(2, 16, 12.0, 1.0), (2, 64, 40.0, 1.2), (1, 64, 40.0, 0.4)]
    )
    def test_a_start_wider_than_the_box_default_is_the_old_start(self, d, n, L, q):
        """Where w* >= L/8 the start is the L/8 Gaussian bit for bit, and
        the solve is the one from that Gaussian given as init."""
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        kernel = HartreeKernel(Grid(d=d, n=n, L=L), GAMMA)
        assert p.gaussian_width(q) >= L / 8
        (start,) = _initial_fields(p, kernel.grid, SolveOptions(q=q))
        assert np.array_equal(start, gaussian(kernel.grid, mass=q).values)
        default = minimize(p, kernel, SolveOptions(q=q))
        given = minimize(p, kernel, SolveOptions(q=q, init=gaussian(kernel.grid)))
        np.testing.assert_array_equal(default.history, given.history)
        assert np.array_equal(default.g.values, given.g.values)

    def test_an_underflowed_width_starts_from_the_lattice_delta(self, ref_params, box32):
        """At q = 1e300 w* underflows to 0; the floored width keeps the start
        finite, all its mass on the centre site."""
        (start,) = _initial_fields(ref_params, box32, SolveOptions(q=1e300))
        centre = (box32.n // 2,) * box32.d
        assert start[centre] == pytest.approx(math.sqrt(1e300 / box32.cell_volume), rel=1e-15)
        assert np.count_nonzero(start) == 1

    def test_scaling_rows_start_alike_in_lattice_units(self, ref_params, box32):
        """Each scaling row is the base problem rescaled, mass by lam and
        length by lam^-width_exponent, and so is its start: the rows' starts
        agree site by site up to amplitude."""
        profiles = []
        for lam in (0.5, 1.0, 2.0, 4.0):
            grid = Grid(d=2, n=box32.n, L=box32.L * lam**-ref_params.width_exponent)
            (start,) = _initial_fields(ref_params, grid, SolveOptions(q=3.0 * lam))
            profiles.append(start / start.max())
        for profile in profiles[1:]:
            np.testing.assert_allclose(profile, profiles[0], rtol=1e-12, atol=1e-14)

    # (d, n, L, q): the energy and iterations of the solve from the L/8
    # Gaussian start, which the width min(w*, L/8) replaced: flat states
    # (q = 1 on 16^2, 1.2 on 64^2), localized ones through q = 100, and the
    # d = 3, q = 3.5 state on 32^3 that lies above the flat one, which the
    # new start reaches too
    PANEL = [
        ((2, 16, 12.0, 1.0), -0.12730378297202036, 14),
        ((2, 64, 40.0, 1.2), -0.10059996899724165, 46),
        ((2, 64, 40.0, 3.0), -1.0928188528681133, 23),
        ((2, 64, 40.0, 30.0), -428.6834040938512, 23),
        ((2, 64, 40.0, 100.0), -5336.168697176102, 22),
        ((1, 64, 40.0, 1.0), -0.19470568811351668, 18),
        ((1, 64, 40.0, 3.0), -4.214014357709463, 18),
        ((3, 16, 12.0, 3.5), -1.3320939604115893, 24),
        ((3, 32, 20.0, 3.5), -1.0172565159671836, 31),
        ((3, 32, 20.0, 6.0), -4.293687798728436, 26),
    ]

    @pytest.mark.parametrize("case, old_energy, old_iterations", PANEL)
    def test_panel_reaches_the_old_energies_in_no_more_iterations(
        self, case, old_energy, old_iterations
    ):
        d, n, L, q = case
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        kernel = HartreeKernel(Grid(d=d, n=n, L=L), GAMMA)
        gs = minimize(p, kernel, SolveOptions(q=q, keep_history=False))
        assert gs.converged
        assert gs.energy == pytest.approx(old_energy, rel=1e-10, abs=0)
        assert gs.iterations <= old_iterations

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

    def test_a_cap_met_by_a_converging_iterate_reports_the_residual(
        self, ref_params, kernel32, ground32
    ):
        """With max_iter equal to the iterations the solve needs, its last
        allowed iterate meets the tolerance: the stop is the residual's."""
        gs = minimize(ref_params, kernel32, SolveOptions(q=3.0, max_iter=ground32.iterations))
        assert gs.stop_reason == "residual"
        assert gs.converged
        assert (gs.iterations, gs.energy) == (ground32.iterations, ground32.energy)
        np.testing.assert_array_equal(gs.history, ground32.history)

    def test_a_step_no_backtrack_accepts_stops_at_the_start(
        self, ref_params, kernel32, monkeypatch
    ):
        """With a first trial of 1e3 and one trial per step, no trial from
        the start lowers the energy: the solve stops with
        "backtracking_floor" and returns the start, whose history row takes
        no step: the Gaussian of width w* = 1.596."""
        monkeypatch.setattr(groundstate_module, "_MAX_BACKTRACKS", 1)
        monkeypatch.setattr(groundstate_module, "_TAU0", 1e3)
        opts = SolveOptions(q=3.0)
        gs = minimize(ref_params, kernel32, opts)
        assert gs.stop_reason == "backtracking_floor"
        assert not gs.converged
        assert gs.iterations == 0
        assert gs.history.tolist() == [(gs.energy, gs.residual, 0.0, 0)]
        assert gs.residual == pytest.approx(0.1599, abs=1e-4)
        (start,) = _initial_fields(ref_params, kernel32.grid, opts)
        np.testing.assert_array_equal(gs.g.values, start)

    def test_require_converged_passes_through_good_states(self, ground32):
        assert require_converged(ground32) is ground32

    def test_non_finite_initial_state_aborts(self, ref_params, kernel32, box32):
        bad = np.ones(box32.shape, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(NumericalAbort):
            minimize(ref_params, kernel32, SolveOptions(q=1.0, init=Field(box32, bad)))

    @pytest.mark.parametrize(
        "name, value",
        [("q", 0.0), ("q", float("inf")), ("q", True), ("q", np.True_),
         ("max_iter", 0), ("max_iter", 2.5), ("max_iter", 40000.0), ("max_iter", float("inf")),
         ("max_iter", True),
         ("resid_tol", 0.0), ("resid_tol", float("inf")), ("resid_tol", True)],
    )
    def test_option_validation(self, name, value):
        """A fractional or infinite cap is never reached, a bool is no
        count or mass or tolerance (though True == 1), q = inf aborts
        mid-solve and resid_tol = inf accepts the start: each is refused
        when the options are made, so no solve can be handed them."""
        with pytest.raises(ValueError, match=name):
            SolveOptions(**{name: value})

    def test_options_are_frozen(self):
        opts = SolveOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.q = 1.0

    def test_replace_checks_the_new_options(self):
        """``dataclasses.replace`` makes new options, checked as any are:
        the per-mass solves of the experiments get no unchecked mass."""
        with pytest.raises(ValueError, match="q"):
            dataclasses.replace(SolveOptions(), q=-1.0)

    def test_rejects_mismatched_kernel(self, ref_params, box32):
        wrong_gamma = HartreeKernel(box32, 0.4)
        with pytest.raises(ValueError, match="gamma"):
            minimize(ref_params, wrong_gamma)
        wrong_d = HartreeKernel(Grid(d=1, n=32, L=25.0), GAMMA)
        with pytest.raises(ValueError, match="dimension"):
            minimize(ref_params, wrong_d)

    def test_mismatched_kernel_is_refused_before_any_descent(
        self, ref_params, box32, monkeypatch
    ):
        """The start's energy checks the pair, before the first descent."""

        def no_descent(*args):
            raise AssertionError("descent ran before the pair was checked")

        monkeypatch.setattr(groundstate_module, "_descent", no_descent)
        with pytest.raises(ValueError, match="gamma"):
            minimize(ref_params, HartreeKernel(box32, 0.4))
