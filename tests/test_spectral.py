"""Spectral operators and energy functionals: eigenvalue and closed-form
oracles, Parseval and adjointness identities, and the exact two-parameter
rescaling of all functionals."""

import numpy as np
import pytest

from fhnlse import (
    Field,
    Grid,
    HartreeKernel,
    PhysicsParams,
    energy,
    energy_gradient,
    gaussian,
    h_alpha_norm,
    lagrange_multiplier,
    mass,
    plane_wave,
    random_band_limited,
)
from fhnlse.fields import _abs_sq, with_mass
from fhnlse.grid import _fftn
from fhnlse.spectral import EnergyTerms, HalfSpectrumTerms, SpectrumTerms, sobolev_seminorm_sq

ALPHA = 0.6
GAMMA = 0.5


def kernel_mean(kernel: HartreeKernel) -> float:
    """Box average of the sampled kernel: sum K * cell_volume / L^d."""
    g = kernel.grid
    return float(np.sum(kernel.samples)) * g.cell_volume / g.L**g.d


class TestAbsSquare:
    def test_a_real_array_squares_bit_for_bit_as_its_complex_cast(self):
        """``_abs_sq`` squares a real array where it takes ``np.abs(x) ** 2``
        of a complex one; on the complex cast of the same samples the two
        agree bit for bit, extremes included."""
        rng = np.random.default_rng(5)
        x = np.concatenate([
            rng.standard_normal(64) * 10.0 ** rng.integers(-160, 160, 64),
            [0.0, -0.0, 5e-324, -1e-200, 1e200, np.inf, -np.inf, np.nan],
        ])
        with np.errstate(over="ignore", under="ignore"):
            sq = _abs_sq(x)
            cast = _abs_sq(x.astype(np.complex128))
        assert sq.dtype == np.float64 and not np.shares_memory(sq, x)
        assert cast.dtype == np.float64
        assert sq.tobytes() == cast.tobytes()


def frac_laplacian(u: Field, alpha: float) -> Field:
    """``(-Lap)^alpha u``, the first term of ``energy_gradient``.

    ``alpha = 1`` lies outside what ``PhysicsParams`` admits, so there the
    grid's multiplier is applied by FFT directly.
    """
    grid = u.grid
    if alpha == 1.0:
        mult = grid.fractional_multiplier(1.0)
        return Field(grid, np.fft.ifftn(mult * np.fft.fftn(u.values)))
    terms = EnergyTerms(u, PhysicsParams(alpha, GAMMA, grid.d), HartreeKernel(grid, GAMMA))
    return Field(grid, np.fft.ifftn(terms.multiplier * terms.u_hat))


class TestFractionalLaplacian:
    @pytest.mark.parametrize("mode", [(1, 0), (0, 3), (2, -5), (-7, 4)])
    def test_plane_waves_are_eigenvectors(self, mode):
        grid = Grid(d=2, n=32, L=17.0)
        u = plane_wave(grid, mode)
        k_sq = sum((2.0 * np.pi * m / grid.L) ** 2 for m in mode)
        eig = k_sq**ALPHA
        out = frac_laplacian(u, ALPHA)
        assert np.allclose(out.values, eig * u.values, rtol=1e-12, atol=1e-12 * eig)

    @pytest.mark.parametrize("d", [1, 2])
    def test_alpha_one_matches_analytic_gaussian_laplacian(self, d):
        grid = Grid(d=d, n=64, L=20.0)
        w = 1.2
        u = gaussian(grid, width=w)
        out = frac_laplacian(u, 1.0)
        rsq = grid.point_distance**2
        expected = u.values * (d / w**2 - rsq / w**4)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_annihilates_constants(self):
        grid = Grid(d=2, n=16, L=10.0)
        u = Field(grid, np.full(grid.shape, 2.0 + 1.0j))
        out = frac_laplacian(u, ALPHA)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_self_adjoint_in_l2(self):
        grid = Grid(d=2, n=16, L=10.0)
        u = random_band_limited(grid, seed=1)
        v = random_band_limited(grid, seed=2)
        left = np.vdot(frac_laplacian(u, ALPHA).values, v.values)
        right = np.vdot(u.values, frac_laplacian(v, ALPHA).values)
        assert abs(left - right) < 1e-12 * abs(left)


class TestNormsAndIdentities:
    def test_gaussian_mass_closed_form(self):
        # integral of exp(-r^2/w^2) over the plane is pi w^2; periodic tails
        # are below roundoff at this box size
        grid = Grid(d=2, n=64, L=20.0)
        u = gaussian(grid, width=1.0)
        assert mass(u) == pytest.approx(np.pi, rel=1e-12, abs=0)

    @pytest.mark.parametrize("q", [-1.0, np.nan, np.inf])
    def test_a_negative_or_non_finite_target_mass_is_refused(self, q):
        """Such a target has no field: refused, not turned into NaNs."""
        grid = Grid(d=2, n=16, L=10.0)
        with pytest.raises(ValueError, match="q must be a nonnegative finite real number"):
            with_mass(gaussian(grid), q)
        with pytest.raises(ValueError, match="mass must be a nonnegative finite real number"):
            gaussian(grid, mass=q)

    def test_a_zero_target_mass_gives_the_zero_field(self):
        u = with_mass(gaussian(Grid(d=2, n=16, L=10.0)), 0.0)
        assert not np.any(u.values)

    def test_parseval_mass_identity(self):
        grid = Grid(d=2, n=32, L=13.0)
        u = random_band_limited(grid, seed=3)
        uhat = np.fft.fftn(u.values)
        spectral_mass = float(
            np.sum(np.abs(uhat) ** 2) * grid.cell_volume / grid.size
        )
        assert spectral_mass == pytest.approx(mass(u), rel=1e-12, abs=0)

    def test_h_alpha_norm_decomposes_into_mass_plus_seminorm(self):
        grid = Grid(d=2, n=32, L=13.0)
        u = random_band_limited(grid, seed=4)
        total = h_alpha_norm(u, ALPHA) ** 2
        assert total == pytest.approx(mass(u) + sobolev_seminorm_sq(u, ALPHA), rel=1e-13, abs=0)

    def test_seminorm_invariant_under_shift_and_phase(self):
        grid = Grid(d=2, n=32, L=13.0)
        u = random_band_limited(grid, seed=5)
        s = sobolev_seminorm_sq(u, ALPHA)
        shifted = Field(grid, np.roll(u.values, shift=(4, -7), axis=(0, 1)))
        rotated = Field(grid, np.exp(1.3j) * u.values)
        assert sobolev_seminorm_sq(shifted, ALPHA) == pytest.approx(s, rel=1e-12, abs=0)
        assert sobolev_seminorm_sq(rotated, ALPHA) == pytest.approx(s, rel=1e-12, abs=0)

    def test_plane_wave_h_alpha_norm_closed_form(self):
        grid = Grid(d=2, n=32, L=17.0)
        u = plane_wave(grid, (2, 1))
        k_sq = (2.0 * np.pi / grid.L) ** 2 * 5.0
        expected = np.sqrt((1.0 + k_sq**ALPHA) * grid.L**2)
        assert h_alpha_norm(u, ALPHA) == pytest.approx(expected, rel=1e-12, abs=0)


class TestEnergyFunctionals:
    def _setup(self, n=32, L=25.0):
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=2)
        grid = Grid(d=2, n=n, L=L)
        return p, grid, HartreeKernel(grid, GAMMA)

    def test_plane_wave_energy_and_multiplier_closed_form(self):
        p, grid, kernel = self._setup()
        q = 1.7
        pw = plane_wave(grid, (2, -1))
        u = pw * float(np.sqrt(q / mass(pw)))
        k_sq = (2.0 * np.pi / grid.L) ** 2 * 5.0
        mean_k = kernel_mean(kernel)
        expected_energy = 0.5 * k_sq**ALPHA * q - 0.25 * q**2 * mean_k
        expected_omega = k_sq**ALPHA - q * mean_k
        assert energy(u, p, kernel) == pytest.approx(expected_energy, rel=1e-12, abs=0)
        assert lagrange_multiplier(u, p, kernel) == pytest.approx(expected_omega, rel=1e-12, abs=0)

    def test_constant_state_energy_is_quarter_q_squared_kernel_mean(self):
        p, grid, kernel = self._setup()
        q = 1.0
        u = Field(grid, np.full(grid.shape, np.sqrt(q) / grid.L, dtype=complex))
        expected = -0.25 * q**2 * kernel_mean(kernel)
        assert energy(u, p, kernel) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_gradient_matches_finite_difference_directional_derivative(self):
        p, grid, kernel = self._setup(n=16, L=12.0)
        eps = 1e-5
        for rep in range(3):
            u = random_band_limited(grid, seed=20 + rep)
            v = random_band_limited(grid, seed=120 + rep)
            plus = Field(grid, u.values + eps * v.values)
            minus = Field(grid, u.values - eps * v.values)
            fd = (energy(plus, p, kernel) - energy(minus, p, kernel)) / (2.0 * eps)
            pairing = float(
                np.real(np.sum(np.conj(energy_gradient(u, p, kernel).values) * v.values))
                * grid.cell_volume
            )
            assert fd == pytest.approx(pairing, rel=1e-6, abs=0)

    def test_multiplier_consistent_with_gradient_pairing(self):
        p, grid, kernel = self._setup(n=16, L=12.0)
        u = random_band_limited(grid, seed=31)
        grad = energy_gradient(u, p, kernel)
        pairing = float(np.real(np.sum(np.conj(grad.values) * u.values)) * grid.cell_volume)
        assert lagrange_multiplier(u, p, kernel) == pytest.approx(
            pairing / mass(u), rel=1e-12, abs=0
        )

    def test_energy_terms_carry_the_same_field_values(self):
        p, grid, kernel = self._setup(n=16, L=12.0)
        u = random_band_limited(grid, seed=7)
        terms = EnergyTerms(u, p, kernel)
        assert terms.energy == energy(u, p, kernel)
        assert terms.omega == lagrange_multiplier(u, p, kernel)

    @pytest.mark.parametrize("d, n, L", [(1, 64, 40.0), (2, 16, 12.0), (3, 8, 8.0)])
    def test_half_spectrum_terms_match_energy_terms(self, d, n, L):
        """The energy, frequency and potential of a real field formed from
        its half spectrum are those :class:`EnergyTerms` forms from its full
        complex DFT, and :func:`energy` forms the former when given the half
        spectrum."""
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        grid = Grid(d=d, n=n, L=L)
        kernel = HartreeKernel(grid, GAMMA)
        u = random_band_limited(grid, seed=4).values.real.copy()
        e, half = energy(u, p, kernel, u_hat=np.fft.rfftn(u), with_terms=True)
        full = EnergyTerms(Field(grid, u), p, kernel)
        assert isinstance(half, HalfSpectrumTerms) and e == half.energy
        assert half.energy == pytest.approx(full.energy, rel=1e-13, abs=0)
        assert half.omega == pytest.approx(full.omega, rel=1e-13, abs=0)
        assert np.array_equal(half.potential, full.potential)

    @pytest.mark.parametrize("d, n, L", [(1, 64, 40.0), (2, 16, 12.0), (3, 8, 8.0)])
    def test_spectrum_terms_match_energy_terms(self, d, n, L):
        """Given a field's full spectrum, :func:`energy` forms
        :class:`SpectrumTerms`: the seminorm and the mass have the bits of
        :class:`EnergyTerms`' and :func:`mass`, the pairing (by Parseval over
        the density's half spectrum) and the energy agree to roundoff, and a
        stack, with or without work arrays, gives each field's bits."""
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        grid = Grid(d=d, n=n, L=L)
        kernel = HartreeKernel(grid, GAMMA)
        fields = [random_band_limited(grid, seed=s) * 1.5 for s in (4, 5)]
        singles = []
        for u in fields:
            e, terms = energy(u.values, p, kernel, u_hat=_fftn(u.values, d), with_terms=True)
            full = EnergyTerms(u, p, kernel)
            assert isinstance(terms, SpectrumTerms) and e == terms.energy
            assert terms.seminorm_sq == full.seminorm_sq
            assert terms.mass == mass(u)
            assert terms.pairing == pytest.approx(full.pairing, rel=1e-13, abs=0)
            assert e == pytest.approx(full.energy, rel=1e-13, abs=0)
            singles.append((terms.mass, e))
        stack = np.stack([u.values for u in fields])
        rho_hat = np.empty(stack.shape[:-1] + (n // 2 + 1,), dtype=complex)
        for work in (None, (np.empty(stack.shape), rho_hat)):
            e, terms = energy(stack, p, kernel, u_hat=_fftn(stack, d), with_terms=True, work=work)
            assert list(zip(terms.mass.tolist(), e.tolist())) == singles

    def test_spectrum_terms_of_a_real_field(self):
        """A real field's full spectrum serves as well as a complex one's."""
        p, grid, kernel = self._setup(n=16, L=12.0)
        u = random_band_limited(grid, seed=6).values.real.copy()
        e = energy(u, p, kernel, u_hat=_fftn(u, grid.d))
        assert e == pytest.approx(energy(Field(grid, u), p, kernel), rel=1e-13, abs=0)

    def test_rejects_mismatched_kernel_exponent(self):
        p, grid, _ = self._setup(n=16, L=12.0)
        wrong = HartreeKernel(grid, 0.4)
        u = random_band_limited(grid, seed=1)
        with pytest.raises(ValueError, match="gamma"):
            energy(u, p, wrong)

    def test_rejects_mismatched_dimension(self):
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=1)
        grid = Grid(d=2, n=16, L=12.0)
        kernel = HartreeKernel(grid, GAMMA)
        u = random_band_limited(grid, seed=1)
        with pytest.raises(ValueError, match="d="):
            energy(u, p, kernel)

    def test_multiplier_rejects_zero_field(self):
        p, grid, kernel = self._setup(n=16, L=12.0)
        zero = Field(grid, np.zeros(grid.shape, dtype=complex))
        with pytest.raises(ValueError, match="zero field"):
            lagrange_multiplier(zero, p, kernel)


class TestExactRescaling:
    def test_all_three_functionals_scale_exactly(self):
        """Re-reading one sample array on a box shrunk by mu realizes the
        continuum rescaling exactly on the lattice: mass picks up mu^d,
        the seminorm mu^(d-2 alpha), and the interaction mu^(2d-gamma)."""
        mu, c = 0.37, 2.3
        base = Grid(d=2, n=32, L=20.0)
        small = Grid(d=2, n=32, L=20.0 * mu)
        k_base = HartreeKernel(base, GAMMA)
        k_small = HartreeKernel(small, GAMMA)
        u = random_band_limited(base, seed=9)
        v = Field(small, c * u.values)
        assert mass(v) == pytest.approx(c**2 * mu**2 * mass(u), rel=1e-13, abs=0)
        assert sobolev_seminorm_sq(v, ALPHA) == pytest.approx(
            c**2 * mu ** (2.0 - 2.0 * ALPHA) * sobolev_seminorm_sq(u, ALPHA), rel=1e-13, abs=0
        )
        p = PhysicsParams(ALPHA, GAMMA, 2)
        assert EnergyTerms(v, p, k_small).pairing == pytest.approx(
            c**4 * mu ** (4.0 - GAMMA) * EnergyTerms(u, p, k_base).pairing, rel=1e-13, abs=0
        )
