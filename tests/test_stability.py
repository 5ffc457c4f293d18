"""Perturbation construction, orbit distance, and the perturb-and-evolve
experiment: exact perturbation size, determinism, and bounded response."""

import numpy as np
import pytest

from fhnlse import (
    Field,
    NonConvergenceError,
    SolveOptions,
    align,
    evolve,
    h_alpha_norm,
    minimize,
    perturb,
    random_band_limited,
    stability_run,
)
from fhnlse.fields import band_limited_noise
from fhnlse.stability import NOISE_KEEP_FRACTION

ALPHA = 0.6


class TestPerturb:
    def test_injected_perturbation_has_exactly_the_requested_size(self, ground32):
        g = ground32.g
        for delta in (1e-1, 1e-2, 1e-4):
            psi = perturb(g, ALPHA, delta, seed=3)
            noise = Field(g.grid, psi.values - g.values)
            assert h_alpha_norm(noise, ALPHA) == pytest.approx(delta, rel=1e-12, abs=0)

    def test_zero_size_returns_the_state_unchanged(self, ground32):
        psi = perturb(ground32.g, ALPHA, 0.0, seed=3)
        assert np.array_equal(psi.values, ground32.g.values)

    def test_deterministic_in_the_seed(self, ground32):
        a = perturb(ground32.g, ALPHA, 1e-2, seed=5)
        b = perturb(ground32.g, ALPHA, 1e-2, seed=5)
        c = perturb(ground32.g, ALPHA, 1e-2, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_noise_is_band_limited(self, ground32):
        g = ground32.g
        n = g.grid.n
        noise_hat = np.fft.fftn(perturb(g, ALPHA, 1e-2, seed=4).values - g.values)
        m = np.abs(np.fft.fftfreq(n) * n)
        cutoff = NOISE_KEEP_FRACTION * (n / 2.0)
        high = m > cutoff
        for axis, view in ((0, (n, 1)), (1, (1, n))):
            mask = np.broadcast_to(high.reshape(view), (n, n))
            assert np.max(np.abs(noise_hat[mask])) < 1e-12

    def test_noise_is_the_shared_band_limited_generator(self, ground32):
        grid = ground32.g.grid
        zero = Field(grid, np.zeros(grid.shape))
        w = Field(grid, band_limited_noise(grid, [7], NOISE_KEEP_FRACTION)[0])
        expected = w.values / h_alpha_norm(w, ALPHA)
        assert np.max(np.abs(perturb(zero, ALPHA, 1.0, seed=7).values - expected)) < 1e-14

    def test_rejects_negative_size(self, ground32):
        for bad in (-1e-3, np.inf, np.nan, True):
            with pytest.raises(ValueError, match="delta"):
                perturb(ground32.g, ALPHA, bad, seed=1)


class TestOrbitDistance:
    def test_never_exceeds_the_plain_distance(self, ground32):
        g = ground32.g
        for seed in range(5):
            other = random_band_limited(g.grid, seed=60 + seed)
            plain = h_alpha_norm(Field(g.grid, other.values - g.values), ALPHA)
            assert align(other, g, ALPHA).distance <= plain * (1.0 + 1e-12)

    def test_vanishes_on_the_orbit(self, ground32):
        g = ground32.g
        moved = Field(g.grid, np.exp(1.1j) * np.roll(g.values, shift=(4, -6), axis=(0, 1)))
        assert align(moved, g, ALPHA).distance < 1e-10


class TestStabilityRun:
    def test_report_invariants(self, ref_params, kernel32, ground32):
        delta = 1e-2
        report = stability_run(
            ref_params, kernel32, delta=delta, T=0.5, dt=1e-3, seed=1, stride=100,
            ground=ground32,
        )
        assert report.times[0] == 0.0
        assert report.distances[0] <= delta * (1.0 + 1e-9)
        assert report.sup_distance == np.max(report.distances)
        assert report.sup_distance <= 10 * delta
        assert report.mass_drift < 1e-12

    def test_two_runs_are_bitwise_identical(self, ref_params, kernel32, ground32):
        kwargs = dict(delta=1e-2, T=0.3, dt=1e-3, seed=2, stride=100, ground=ground32)
        a = stability_run(ref_params, kernel32, **kwargs)
        b = stability_run(ref_params, kernel32, **kwargs)
        assert np.array_equal(a.distances, b.distances)
        assert a.sup_distance == b.sup_distance

    def test_distances_are_those_of_the_recorded_states(self, ref_params, kernel32, ground32):
        """Measuring each distance as its state is recorded gives, bit for
        bit, the distances of the states a plain evolution records."""
        kwargs = dict(T=0.3, dt=1e-3, stride=100)
        report = stability_run(
            ref_params, kernel32, delta=1e-2, seed=2, ground=ground32, **kwargs
        )
        psi0 = perturb(ground32.g, ALPHA, 1e-2, seed=2)
        states = []
        traj = evolve(psi0, ref_params, kernel32, observe=states.append, **kwargs)
        expected = [align(psi, ground32.g, ALPHA).distance for psi in states]
        assert np.array_equal(report.times, traj.times)
        assert np.array_equal(report.distances, expected)

    def test_response_scales_linearly_with_the_perturbation(
        self, ref_params, kernel32, ground32
    ):
        big = stability_run(
            ref_params, kernel32, delta=2e-2, T=0.5, dt=1e-3, seed=1, stride=100,
            ground=ground32,
        )
        small = stability_run(
            ref_params, kernel32, delta=1e-2, T=0.5, dt=1e-3, seed=1, stride=100,
            ground=ground32,
        )
        ratio = small.sup_distance / big.sup_distance
        assert 0.3 <= ratio <= 0.9

    def test_unperturbed_state_stays_on_the_orbit(self, ref_params, kernel32, ground32):
        report = stability_run(
            ref_params, kernel32, delta=0.0, T=0.2, dt=1e-3, stride=50, ground=ground32,
        )
        assert report.sup_distance < 1e-5

    def test_requires_a_converged_ground_state(self, ref_params, kernel32):
        ground = minimize(ref_params, kernel32, SolveOptions(max_iter=1))
        with pytest.raises(NonConvergenceError, match="stability_run"):
            stability_run(ref_params, kernel32, delta=1e-2, T=0.1, dt=1e-3, ground=ground)
