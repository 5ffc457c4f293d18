"""Split-step evolution: exact solutions, conservation, symmetry
covariances, time reversal, second-order accuracy, and bookkeeping."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import fhnlse.dynamics as dynamics_module
from fhnlse import (
    Field,
    Grid,
    HartreeKernel,
    NumericalAbort,
    PhysicsParams,
    Trajectory,
    evolve,
    lagrange_multiplier,
    mass,
    plane_wave,
    random_band_limited,
)
from fhnlse.dynamics import _strang, _unit_phase

ALPHA = 0.6
GAMMA = 0.5
P2 = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=2)


def _box(n=32, L=25.0, d=2):
    grid = Grid(d=d, n=n, L=L)
    return grid, HartreeKernel(grid, GAMMA)


def _real_space_strang(psi0, p, kernel, T, dt, stride):
    """Reference composition with every substep taken in real space: each of
    the ``ceil(T/dt)`` equal steps of ``h = T/total`` is ``ifftn(half
    fftn)``, the nonlinear phase with a complex-FFT convolution, and
    ``ifftn(half fftn)`` again.  Returns the recorded times, the recorded
    values and the step count."""
    grid = psi0.grid
    mult = grid.k_squared**p.alpha
    total = int(np.ceil(T / dt - 1e-9))
    h = T / total
    half = np.exp(0.5j * h * mult)

    def one_step(vals):
        out = np.fft.ifftn(half * np.fft.fftn(vals))
        rho = np.abs(out) ** 2
        pot = np.fft.ifftn(np.fft.fftn(rho) * kernel.spectrum).real * grid.cell_volume
        out = out * np.exp(-1j * h * pot)
        return np.fft.ifftn(half * np.fft.fftn(out))

    vals = psi0.values.copy()
    times, snaps = [0.0], [vals]
    for k in range(1, total + 1):
        vals = one_step(vals)
        if k % stride == 0 or k == total:
            times.append(T if k == total else k * h)
            snaps.append(vals)
    return np.asarray(times), snaps, total


class TestExactSolutions:
    def test_plane_wave_with_interaction_is_a_standing_wave(self):
        """A normalized plane wave is a critical point, so it evolves by the
        pure phase exp(i omega t) with omega its Lagrange multiplier; both
        split substeps are exact on it."""
        grid, kernel = _box()
        pw = plane_wave(grid, (2, -1))
        psi0 = pw * float(np.sqrt(1.7 / mass(pw)))
        omega = lagrange_multiplier(psi0, P2, kernel)
        T = 0.5
        traj = evolve(psi0, P2, kernel, T=T, dt=1e-3, stride=500)
        expected = np.exp(1j * omega * T) * psi0.values
        assert np.max(np.abs(traj.final.values - expected)) < 1e-12

    def test_constant_state_is_a_standing_wave(self):
        grid, kernel = _box()
        flat = Field(grid, np.full(grid.shape, 1.0 / grid.L, dtype=complex))
        omega = lagrange_multiplier(flat, P2, kernel)
        T = 0.3
        traj = evolve(flat, P2, kernel, T=T, dt=1e-3, stride=300)
        expected = np.exp(1j * omega * T) * flat.values
        assert np.max(np.abs(traj.final.values - expected)) < 1e-12


class TestConservation:
    def test_mass_conserved_to_roundoff(self):
        grid, kernel = _box()
        psi0 = random_band_limited(grid, seed=3) * 2.0
        traj = evolve(psi0, P2, kernel, T=1.0, dt=1e-3, stride=100)
        assert traj.mass_drift < 1e-12

    def test_energy_error_shrinks_fourfold_when_dt_halves(self):
        grid, kernel = _box()
        psi0 = random_band_limited(grid, seed=3) * 2.0  # mass 4: strongly nonlinear
        coarse = evolve(psi0, P2, kernel, T=1.0, dt=2e-3, stride=5)
        fine = evolve(psi0, P2, kernel, T=1.0, dt=1e-3, stride=10)
        factor = coarse.energy_drift / fine.energy_drift
        assert 3.0 <= factor <= 5.0


class TestSymmetries:
    def test_time_reversal_recovers_the_initial_state(self):
        """The flow runs backward by conjugation: evolving the conjugate of
        the final state and conjugating the result returns the start."""
        grid, kernel = _box()
        psi0 = random_band_limited(grid, seed=3) * 2.0
        forward = evolve(psi0, P2, kernel, T=1.0, dt=1e-3, stride=1000)
        reversed_final = Field(grid, np.conj(forward.final.values))
        back = evolve(reversed_final, P2, kernel, T=1.0, dt=1e-3, stride=1000)
        err = np.max(np.abs(np.conj(back.final.values) - psi0.values))
        assert err < 1e-9

    def test_global_phase_commutes_with_the_flow(self):
        grid, kernel = _box()
        psi0 = random_band_limited(grid, seed=6)
        a = evolve(psi0, P2, kernel, T=0.2, dt=1e-3, stride=200)
        rotated = Field(grid, np.exp(0.9j) * psi0.values)
        b = evolve(rotated, P2, kernel, T=0.2, dt=1e-3, stride=200)
        expected = np.exp(0.9j) * a.final.values
        assert np.max(np.abs(b.final.values - expected)) < 1e-12

    def test_lattice_translation_commutes_with_the_flow(self):
        grid, kernel = _box()
        psi0 = random_band_limited(grid, seed=7)
        a = evolve(psi0, P2, kernel, T=0.2, dt=1e-3, stride=200)
        shifted = Field(grid, np.roll(psi0.values, shift=(5, -3), axis=(0, 1)))
        b = evolve(shifted, P2, kernel, T=0.2, dt=1e-3, stride=200)
        expected = np.roll(a.final.values, shift=(5, -3), axis=(0, 1))
        assert np.max(np.abs(b.final.values - expected)) < 1e-12


class TestAgainstRealSpaceComposition:
    """The loop's per-axis passes run in one axis order; only d = 3 has an
    axis between the first and the last, so every dimension is checked."""

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize(
        "d, n, L", [(1, 32, 25.0), (2, 32, 25.0), (3, 16, 12.0)], ids=["d1", "d2", "d3"]
    )
    def test_fourier_resident_loop_matches_the_real_space_steps(self, d, n, L, stride):
        grid, kernel = _box(n=n, L=L, d=d)
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        psi0 = random_band_limited(grid, seed=16) * 2.0  # mass 4: strongly nonlinear
        dt = 1e-2
        T = 23.4 * dt  # 24 equal steps of T/24
        times, snaps, total = _real_space_strang(psi0, p, kernel, T, dt, stride)
        observed = []
        traj = evolve(psi0, p, kernel, T=T, dt=dt, stride=stride, observe=observed.append)
        assert traj.steps == total == 24
        assert np.array_equal(traj.times, times)
        assert len(observed) == len(snaps)
        for got, want in zip(observed, snaps):
            assert np.max(np.abs(got.values - want)) < 1e-12
        assert traj.final is observed[-1]


def _allocating_unit_phase(theta):
    """The half-angle phase ``exp(i theta)`` as the loop formed it with fresh
    temporaries: the reference for :func:`_allocating_strang`."""
    t = np.tan(0.5 * theta)
    t_sq = t * t
    inv = 1.0 + t_sq
    np.reciprocal(inv, out=inv)
    out = np.empty(theta.shape, dtype=complex)
    np.subtract(1.0, t_sq, out=out.real)
    out.real *= inv
    t += t
    np.multiply(t, inv, out=out.imag)
    return out


def _allocating_strang(values, mult, kernel, T, dt, stride):
    """The Fourier-resident loop as it stood before its work arrays, through
    public ``numpy.fft`` n-D calls (which make the same 1-D passes in the
    same order) and with fresh temporaries every step; yields ``(k, t,
    values)`` like :func:`fhnlse.dynamics._strang`."""
    n = max(int(np.ceil(T / dt - 1e-9)), 1 if T > 0 else 0)
    h = T / max(n, 1)
    half = _allocating_unit_phase(0.5 * h * mult)
    reopen = half / values.size
    merged = _allocating_unit_phase(h * mult) / values.size
    psi_hat = np.fft.fftn(values)
    psi_hat *= reopen
    for k in range(1, n + 1):
        vals = np.fft.ifftn(psi_hat, norm="forward")
        rho = vals.real**2
        rho += vals.imag**2
        rho_hat = np.fft.rfftn(rho) * kernel._half_spectrum
        pot = np.fft.irfftn(rho_hat, s=rho.shape, axes=range(rho.ndim), norm="forward")
        pot *= -h
        vals *= _allocating_unit_phase(pot)
        psi_hat = np.fft.fftn(vals)
        if k % stride == 0 or k == n:
            psi_hat *= half
            yield k, (T if k == n else k * h), np.fft.ifftn(psi_hat)
            psi_hat *= reopen
        else:
            psi_hat *= merged


class TestAgainstTheAllocatingLoop:
    """The loop with its work arrays and its passes through NumPy's pocketfft
    gufuncs gives the very bits of the allocating loop on public
    ``numpy.fft``, at every recorded state."""

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize(
        "d, n, L", [(1, 32, 25.0), (2, 32, 25.0), (3, 16, 12.0)], ids=["d1", "d2", "d3"]
    )
    def test_every_recorded_state_is_bitwise_the_allocating_loops(self, d, n, L, stride):
        grid, kernel = _box(n=n, L=L, d=d)
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        psi0 = random_band_limited(grid, seed=16) * 2.0  # mass 4: strongly nonlinear
        dt = 1e-2
        T = 23.4 * dt  # 24 equal steps of T/24
        mult = grid.fractional_multiplier(ALPHA)
        reference = list(_allocating_strang(psi0.values, mult, kernel, T, dt, stride))
        observed = []
        traj = evolve(psi0, p, kernel, T=T, dt=dt, stride=stride, observe=observed.append)
        assert traj.times.tolist() == [0.0] + [t for _, t, _ in reference]
        assert np.array_equal(observed[0].values, psi0.values)
        assert len(observed) == 1 + len(reference) == 2 + (24 - 1) // stride
        for got, (_, _, want) in zip(observed[1:], reference):
            assert np.array_equal(got.values, want)


class TestStacks:
    """A stack ``(B, *grid.shape)`` through the loop evolves each field as if
    it ran alone: the folded ``1/N`` is the grid's, not the stack's."""

    @pytest.mark.parametrize(
        "d, n, L", [(1, 32, 25.0), (2, 32, 25.0), (3, 8, 10.0)], ids=["d1", "d2", "d3"]
    )
    def test_each_slice_is_bitwise_its_single_field_run(self, d, n, L):
        grid, kernel = _box(n=n, L=L, d=d)
        mult = grid.fractional_multiplier(ALPHA)
        stack = np.stack([(random_band_limited(grid, seed=s) * 2.0).values for s in (3, 4)])
        T, dt, stride = 0.5, 1e-2, 10  # 50 steps, 5 records
        runs = [list(_strang(v, mult, kernel, T, dt, stride)) for v in stack]
        stacked = list(_strang(stack, mult, kernel, T, dt, stride))
        assert len(stacked) == 5
        for k, (step, t, values) in enumerate(stacked):
            assert values.shape == stack.shape
            for b, run in enumerate(runs):
                assert (step, t) == run[k][:2]
                assert np.array_equal(values[b], run[k][2])


class TestUnitPhase:
    def test_matches_cos_and_sin_and_is_unimodular(self):
        theta = np.concatenate(
            [np.linspace(-1e4, 1e4, 200_001), [np.pi, -np.pi, np.pi / 2, -np.pi / 2]]
        )
        phase = _unit_phase(0.5 * theta)
        assert np.max(np.abs(phase - (np.cos(theta) + 1j * np.sin(theta)))) <= 5e-16
        assert np.max(np.abs(np.abs(phase) - 1.0)) <= 5e-16

    def test_non_finite_angles_give_nan(self):
        with np.errstate(invalid="ignore"):
            phase = _unit_phase(np.array([np.nan, np.inf, -np.inf]))
            given_work = _unit_phase(np.array([np.nan, np.inf, -np.inf]), work=np.empty((2, 3)))
        assert np.all(np.isnan(phase))
        assert np.all(np.isnan(given_work))

    def test_writes_the_same_phase_into_out(self):
        half_theta = np.linspace(-3.0, 3.0, 101)
        out = np.empty(101, dtype=complex)
        assert _unit_phase(half_theta.copy(), out=out) is out
        assert np.array_equal(out, _unit_phase(half_theta.copy()))

    def test_is_bitwise_the_allocating_formula_over_the_angle_range(self):
        theta = np.linspace(-1e4, 1e4, 200_001)
        phase = _unit_phase(0.5 * theta, work=np.empty((2, theta.size)))
        assert np.array_equal(phase, _allocating_unit_phase(theta))

    @pytest.mark.parametrize("shape", [(64,), (32, 32), (8, 16, 16)], ids=["d1", "d2", "d3"])
    def test_is_bitwise_the_allocating_formula_on_lattice_shapes(self, shape):
        """The per-step call: the angle and the work pair are lattice-shaped."""
        theta = np.random.default_rng(19).uniform(-50.0, 50.0, shape)
        phase = _unit_phase(0.5 * theta, out=np.empty(shape, dtype=complex),
                            work=np.empty((2, *shape)))
        assert np.array_equal(phase, _allocating_unit_phase(theta))

    def test_reused_work_and_out_give_the_same_bits(self):
        """Whatever a first call left in ``work`` and ``out``, a second call
        on the same angles writes the same phase."""
        theta = np.random.default_rng(20).uniform(-50.0, 50.0, (16, 16))
        out = np.empty((16, 16), dtype=complex)
        work = np.empty((2, 16, 16))
        first = _unit_phase(0.5 * theta, out=out, work=work).copy()
        _unit_phase(np.full((16, 16), 0.3), out=out, work=work)  # other angles between
        assert _unit_phase(0.5 * theta, out=out, work=work) is out
        assert np.array_equal(out, first)
        assert np.array_equal(first, _allocating_unit_phase(theta))


class TestBookkeeping:
    def test_records_initial_strided_and_final_instants(self):
        grid, kernel = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=9)
        dt = 1e-3
        observed = []
        traj = evolve(psi0, P2, kernel, T=10 * dt, dt=dt, stride=3, observe=observed.append)
        assert np.allclose(traj.times, np.array([0, 3, 6, 9, 10]) * dt, atol=1e-15)
        assert traj.steps == 10
        assert len(observed) == len(traj.times)
        assert len(traj.mass_series) == len(traj.times)
        assert len(traj.energy_series) == len(traj.times)

    def test_mass_series_is_the_mass_of_each_recorded_state(self):
        """The mass comes from the energy evaluation's own density, with the
        very bits of :func:`mass`."""
        grid, kernel = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=21) * 2.0
        observed = []
        traj = evolve(psi0, P2, kernel, T=10e-3, dt=1e-3, stride=3, observe=observed.append)
        assert traj.mass_series.tolist() == [mass(s) for s in observed]

    def test_a_numpy_integer_stride_is_accepted(self):
        grid, kernel = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=9)
        traj = evolve(psi0, P2, kernel, T=10e-3, dt=1e-3, stride=np.int64(3))
        assert traj.times.size == 5

    def test_stride_one_records_every_step(self):
        grid, kernel = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=10)
        traj = evolve(psi0, P2, kernel, T=10e-3, dt=1e-3, stride=1)
        assert len(traj.times) == 11

    def test_partial_final_step_lands_exactly_on_T(self):
        grid, kernel = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=11)
        dt = 1e-3
        T = 10.5 * dt
        traj = evolve(psi0, P2, kernel, T=T, dt=dt, stride=5)
        assert traj.steps == 11  # equal steps of T/11, not 10 of dt and a shorter one
        assert np.array_equal(traj.times, np.array([0, 5, 10, 11]) * (T / 11))
        assert traj.times[-1] == T
        assert traj.mass_drift < 1e-12

    def test_zero_horizon_returns_the_initial_state(self):
        grid, kernel = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=12)
        traj = evolve(psi0, P2, kernel, T=0.0, dt=1e-3)
        assert len(traj.times) == 1
        assert np.array_equal(traj.final.values, psi0.values)
        assert (traj.mass_drift, traj.energy_drift) == (0.0, 0.0)

    def test_horizon_far_below_dt_takes_one_step(self):
        """A positive ``T`` that ``T/dt`` rounds to no steps still ends at ``T``."""
        grid, kernel = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=13)
        traj = evolve(psi0, P2, kernel, T=1e-12, dt=1e-3)
        assert traj.steps == 1
        assert traj.times.tolist() == [0.0, 1e-12]
        assert not np.array_equal(traj.final.values, psi0.values)

    def test_memory_does_not_grow_with_the_number_of_records(self):
        """Recorded states are handed on, not kept: 401 records of a 32^2
        state would hold 6.3 MiB, against 2 records at stride 400."""
        grid, kernel = _box()
        psi0 = random_band_limited(grid, seed=17)
        evolve(psi0, P2, kernel, T=1e-3, dt=1e-3)  # build the cached multipliers

        def peak(stride):
            tracemalloc.start()
            try:
                evolve(psi0, P2, kernel, T=0.4, dt=1e-3, stride=stride)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1) - peak(400) < 2**20

    def test_a_runs_traced_peak_does_not_grow_with_its_steps(self):
        """A 32^2 run of 200 steps peaks exactly where one of 10 does: no
        step keeps anything for the next."""
        grid, kernel = _box()
        psi0 = random_band_limited(grid, seed=19)
        mult = grid.fractional_multiplier(ALPHA)

        def peak(steps):
            tracemalloc.start()
            try:
                for _ in _strang(psi0.values, mult, kernel, T=steps * 1e-3, dt=1e-3, stride=steps):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # NumPy's and pocketfft's first-call caches
        assert peak(10) == peak(200)

    def test_a_step_between_records_allocates_nothing(self):
        """From one convolution to the next, a 32^2 run's traced peak rises
        less than 4 KiB above the memory traced when the convolution began:
        no array is allocated, and what remains is the transient memory of
        NumPy's ufunc and gufunc calls (1.5 KiB here) and the instrument's
        own marks.  A half spectrum allocated per step (32 x 17 complex
        values) would add 8.5 KiB."""
        grid, kernel = _box()
        psi0 = random_band_limited(grid, seed=19)
        mult = grid.fractional_multiplier(ALPHA)
        marks = []

        def traced(rho, out=None, *, scale=1.0, work=None):
            marks.append(tracemalloc.get_traced_memory())  # (current, peak since the last)
            tracemalloc.reset_peak()
            return kernel.convolve_density(rho, out=out, scale=scale, work=work)

        watched = SimpleNamespace(grid=grid, convolve_density=traced)
        tracemalloc.start()
        try:
            for _ in _strang(psi0.values, mult, watched, T=0.05, dt=1e-3, stride=50):
                pass
        finally:
            tracemalloc.stop()
        assert len(marks) == 50
        rise = [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]
        assert max(rise) < 4096

    def test_energy_drift_is_absolute_when_the_initial_energy_is_zero(self):
        """With E(0) = 0 the drift is the largest |E(t)|, not 0/0."""
        traj = Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            final=Field(Grid(d=1, n=8, L=1.0), np.zeros(8)),
            mass_series=np.ones(3),
            energy_series=np.array([0.0, 0.0, -3e-14]),
            steps=2,
        )
        assert traj.energy_drift == 3e-14

    def test_mass_drift_is_absolute_when_the_initial_mass_is_zero(self):
        """With M(0) = 0 the drift is the largest M(t), not 0/0."""
        traj = Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            final=Field(Grid(d=1, n=8, L=1.0), np.zeros(8)),
            mass_series=np.array([0.0, 0.0, 2e-30]),
            energy_series=np.zeros(3),
            steps=2,
        )
        assert traj.mass_drift == 2e-30
        assert traj.energy_drift == 0.0


class TestValidationAndAborts:
    def test_rejects_bad_arguments(self):
        grid, kernel = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=14)
        with pytest.raises(ValueError, match="dt"):
            evolve(psi0, P2, kernel, T=1.0, dt=0.0)
        with pytest.raises(ValueError, match="T"):
            evolve(psi0, P2, kernel, T=-1.0, dt=1e-3)
        with pytest.raises(ValueError, match="stride"):
            evolve(psi0, P2, kernel, T=1.0, dt=1e-3, stride=0)
        for bad in (2.5, 1.5, 3.0, True):
            with pytest.raises(ValueError, match="stride must be an integer"):
                evolve(psi0, P2, kernel, T=1e-2, dt=1e-3, stride=bad)
        with pytest.raises(ValueError, match="dt"):
            evolve(psi0, P2, kernel, T=1.0, dt=-1e-3)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="T must be a nonnegative finite real number"):
                evolve(psi0, P2, kernel, T=bad, dt=1e-3)
            with pytest.raises(ValueError, match="dt must be a positive finite real number"):
                evolve(psi0, P2, kernel, T=1.0, dt=bad)
        # a bool is no time, though True == 1: T = dt = True was one step
        for T, dt in ((True, 1e-3), (1.0, True), (True, True), (np.True_, 1e-3)):
            with pytest.raises(
                ValueError, match="must be a (positive|nonnegative) finite real number"
            ):
                evolve(psi0, P2, kernel, T=T, dt=dt)
        # a finite T and dt whose step count T/dt overflows
        for T, dt in ((1e300, 1e-300), (np.float64(1e300), np.float64(1e-300))):
            with pytest.raises(ValueError, match="T / dt must be finite"):
                evolve(psi0, P2, kernel, T=T, dt=dt)

    def test_rejects_mismatched_kernel(self):
        grid, _ = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=15)
        wrong_gamma = HartreeKernel(grid, 0.4)
        with pytest.raises(ValueError, match="gamma"):
            evolve(psi0, P2, wrong_gamma, T=1e-3, dt=1e-3)
        other_grid = HartreeKernel(Grid(d=2, n=16, L=13.0), GAMMA)
        with pytest.raises(ValueError, match="different grids"):
            evolve(psi0, P2, other_grid, T=1e-3, dt=1e-3)
        one_d = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=1)
        with pytest.raises(ValueError, match="dimension"):
            evolve(psi0, one_d, HartreeKernel(grid, GAMMA), T=1e-3, dt=1e-3)

    def test_mismatched_kernel_is_refused_before_any_step(self, monkeypatch):
        """The energy of the t = 0 record checks the pair, before the first step."""

        def no_steps(*args):
            raise AssertionError("a step ran before the pair was checked")
            yield

        monkeypatch.setattr(dynamics_module, "_strang", no_steps)
        grid, _ = _box(n=16, L=12.0)
        other_grid = HartreeKernel(Grid(d=2, n=16, L=13.0), GAMMA)
        with pytest.raises(ValueError, match="different grids"):
            evolve(random_band_limited(grid, seed=15), P2, other_grid, T=1e-3, dt=1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_aborts(self):
        grid, kernel = _box(n=16, L=12.0)
        bad = np.ones(grid.shape, dtype=complex)
        bad[3, 3] = np.inf
        with pytest.raises(NumericalAbort, match=r"non-finite state at step 1 \("):
            evolve(Field(grid, bad), P2, kernel, T=1e-2, dt=1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_bad_step_aborts_at_that_step(self, monkeypatch):
        """A NaN potential in the third step's convolution aborts that step:
        the work arrays reused from step to step cannot carry the earlier,
        finite values over it."""
        grid, kernel = _box(n=16, L=12.0)
        psi0 = random_band_limited(grid, seed=18)
        convolve = HartreeKernel.convolve_density
        calls = [0]

        def poisoned(self, rho, out=None, *, scale=1.0, work=None):
            calls[0] += 1
            pot = convolve(self, rho, out=out, scale=scale, work=work)
            if calls[0] == 3:
                pot[...] = np.nan
            return pot

        monkeypatch.setattr(HartreeKernel, "convolve_density", poisoned)
        mult = grid.fractional_multiplier(ALPHA)
        recorded = []
        with pytest.raises(NumericalAbort, match=r"non-finite state at step 3 \("):
            for k, _, vals in _strang(psi0.values, mult, kernel, T=1e-2, dt=1e-3, stride=1):
                recorded.append(k)
                assert np.all(np.isfinite(vals))
        assert recorded == [1, 2]
        assert calls[0] == 3
