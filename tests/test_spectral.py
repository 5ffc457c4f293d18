"""Spectral operators and energy functionals: eigenvalue and closed-form
oracles, Parseval and adjointness identities, the exact two-parameter
rescaling of all functionals, and every evaluation route against a
reference copy of the arithmetic it had before the routes shared one
class."""

import math

import numpy as np
import pytest

import fhnlse.rearrange as rearrange_module

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
from fhnlse.fields import _RANDOM_KEEP_FRACTION, _abs_sq, _unit_mass, band_limited_noise, with_mass
from fhnlse.grid import _fftn, _rfftn
from fhnlse.rearrange import rearrangement_sweep
from fhnlse.spectral import EnergyTerms, _half_spectrum, sobolev_seminorm_sq

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
    return Field(grid, np.fft.ifftn(grid.fractional_multiplier(alpha) * terms.u_hat))


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
        complex DFT, and :func:`energy` forms the former, through the
        potential, when given the half spectrum."""
        p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
        grid = Grid(d=d, n=n, L=L)
        kernel = HartreeKernel(grid, GAMMA)
        u = random_band_limited(grid, seed=4).values.real.copy()
        e, half = energy(u, p, kernel, u_hat=np.fft.rfftn(u), with_terms=True)
        full = EnergyTerms(Field(grid, u), p, kernel)
        assert half.potential is not None and e == half.energy
        assert half.energy == pytest.approx(full.energy, rel=1e-13, abs=0)
        assert half.omega == pytest.approx(full.omega, rel=1e-13, abs=0)
        assert np.array_equal(half.potential, full.potential)

    @pytest.mark.parametrize("d, n, L", [(1, 64, 40.0), (2, 16, 12.0), (3, 8, 8.0)])
    def test_spectrum_terms_match_energy_terms(self, d, n, L):
        """Given a field's full spectrum, :func:`energy` forms its terms
        without a potential: the seminorm and the mass have the bits of
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
            assert terms.potential is None and e == terms.energy
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

    def test_rejects_samples_without_their_spectrum(self):
        p, grid, kernel = self._setup(n=16, L=12.0)
        u = random_band_limited(grid, seed=1)
        with pytest.raises(TypeError, match="a Field alone, or samples with their spectrum u_hat"):
            energy(u.values, p, kernel)

    def test_rejects_a_field_with_a_spectrum(self):
        p, grid, kernel = self._setup(n=16, L=12.0)
        u = random_band_limited(grid, seed=1)
        with pytest.raises(TypeError, match="a Field alone, or samples with their spectrum u_hat"):
            energy(u, p, kernel, u_hat=_fftn(u.values, grid.d))

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


# ---------------------------------------------------------------------------
# every route against a reference copy of its earlier arithmetic: the terms
# of a Field, of samples with a full spectrum (one field or a stack) and of
# a real field with its half spectrum, and the seminorm of a stack of
# samples, each as its own class or function formed them


def _ref_seminorm_sq(values, grid, alpha):
    """The seminorm of each field of the stack of samples ``values``."""
    uhat = _fftn(values, grid.d)
    weighted = grid.fractional_multiplier(alpha) * np.abs(uhat) ** 2
    return weighted.reshape(len(values), -1).sum(axis=1) * (grid.cell_volume / grid.size)


def _ref_density_terms(values, kernel):
    """``(potential, pairing, mass)`` through the potential."""
    rho = _abs_sq(values)
    cell_volume = kernel.grid.cell_volume
    total = float(rho.sum() * cell_volume)
    potential = kernel.convolve_density(rho)
    pairing = float(np.multiply(rho, potential, out=rho).sum() * cell_volume)
    return potential, pairing, total


def _ref_field_terms(u, kernel, alpha):
    """``(seminorm, mass, pairing, potential)`` of a Field."""
    grid = u.grid
    multiplier = grid.fractional_multiplier(alpha)
    u_hat = _fftn(u.values, grid.d)
    potential, pairing, total = _ref_density_terms(u.values, kernel)
    seminorm = float(np.sum(multiplier * np.abs(u_hat) ** 2) * (grid.cell_volume / grid.size))
    return seminorm, total, pairing, potential


def _ref_spectrum_terms(u, u_hat, kernel, alpha):
    """``(seminorm, mass, pairing, None)`` of samples with their full
    spectrum, one value per field of a stack."""
    grid = kernel.grid
    fields = u.shape[: u.ndim - grid.d] + (-1,)
    weighted = np.multiply(_abs_sq(u_hat), grid.fractional_multiplier(alpha))
    seminorm = weighted.reshape(fields).sum(axis=-1) * (grid.cell_volume / grid.size)
    rho = _abs_sq(u)
    total = rho.reshape(fields).sum(axis=-1) * grid.cell_volume
    rho_hat = _rfftn(rho, grid.d)
    pairing = kernel.half_spectrum_pairing(rho_hat, rho_hat.view(np.float64))
    return seminorm, total, pairing, None


def _ref_half_terms(u, u_hat, kernel, alpha):
    """``(seminorm, mass, pairing, potential)`` of a real field with its
    half spectrum."""
    potential, pairing, total = _ref_density_terms(u, kernel)
    seminorm = float(np.vdot(u_hat, _half_spectrum(kernel.grid, alpha)[2] * u_hat).real)
    return seminorm, total, pairing, potential


def _bytes(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _assert_terms_are(terms, e, ref):
    seminorm, total, pairing, potential = ref
    assert _bytes(terms.seminorm_sq) == _bytes(seminorm)
    assert _bytes(terms.mass) == _bytes(total)
    assert _bytes(terms.pairing) == _bytes(pairing)
    assert _bytes(e) == _bytes(terms.energy) == _bytes(0.5 * seminorm - 0.25 * pairing)
    if potential is None:
        assert terms.potential is None
    else:
        assert terms.potential.tobytes() == potential.tobytes()


ROUTE_GRIDS = [
    pytest.param(Grid(d=1, n=64, L=40.0), id="1d"),
    pytest.param(Grid(d=2, n=16, L=12.0), id="2d"),
    pytest.param(Grid(d=3, n=8, L=8.0), id="3d"),
]


def _route_samples(grid):
    """The samples of a complex field of ``grid`` and a real array of their
    real parts (a Field holds either as complex)."""
    u = random_band_limited(grid, seed=11).values * 1.3
    return {"complex": u, "real": u.real.copy()}


class TestRoutesAreTheReference:
    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("grid", ROUTE_GRIDS)
    def test_a_field(self, grid, kind):
        """A Field's terms, through the potential, and the frequency and
        gradient read from them."""
        kernel = HartreeKernel(grid, GAMMA)
        p = PhysicsParams(ALPHA, GAMMA, grid.d)
        u = Field(grid, _route_samples(grid)[kind])
        e, terms = energy(u, p, kernel, with_terms=True)
        ref = _ref_field_terms(u, kernel, ALPHA)
        _assert_terms_are(terms, e, ref)
        seminorm, total, pairing, potential = ref
        assert _bytes(lagrange_multiplier(u, p, kernel)) == _bytes((seminorm - pairing) / total)
        kinetic = np.fft.ifftn(grid.fractional_multiplier(ALPHA) * _fftn(u.values, grid.d))
        assert energy_gradient(u, p, kernel).values.tobytes() == (
            kinetic - potential * u.values
        ).tobytes()

    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("grid", ROUTE_GRIDS)
    def test_samples_with_their_full_spectrum(self, grid, kind):
        """One field's terms by Parseval over the density's half spectrum."""
        kernel = HartreeKernel(grid, GAMMA)
        p = PhysicsParams(ALPHA, GAMMA, grid.d)
        u = _route_samples(grid)[kind]
        u_hat = _fftn(u, grid.d)
        e, terms = energy(u, p, kernel, u_hat=u_hat, with_terms=True)
        assert terms.u is u and terms.u_hat is u_hat
        _assert_terms_are(terms, e, _ref_spectrum_terms(u, u_hat, kernel, ALPHA))

    @pytest.mark.parametrize("with_work", [False, True])
    @pytest.mark.parametrize("grid", ROUTE_GRIDS)
    def test_a_stack_with_its_full_spectrum(self, grid, with_work):
        """A two-field stack's terms, one per field, in new arrays or in the
        caller's ``work``."""
        kernel = HartreeKernel(grid, GAMMA)
        p = PhysicsParams(ALPHA, GAMMA, grid.d)
        stack = np.stack(list(_route_samples(grid).values())).astype(complex)
        u_hat = _fftn(stack, grid.d)
        work = None
        if with_work:
            half = stack.shape[:-1] + (grid.n // 2 + 1,)
            work = (np.empty(stack.shape), np.empty(half, dtype=complex))
        e, terms = energy(stack, p, kernel, u_hat=u_hat, with_terms=True, work=work)
        assert e.shape == terms.mass.shape == (2,)
        _assert_terms_are(terms, e, _ref_spectrum_terms(stack, u_hat, kernel, ALPHA))

    @pytest.mark.parametrize("with_work", [False, True])
    @pytest.mark.parametrize("grid", ROUTE_GRIDS)
    def test_a_real_field_with_its_half_spectrum(self, grid, with_work):
        """The solver's terms, through the potential, in new arrays or in the
        caller's ``out`` and ``work``."""
        kernel = HartreeKernel(grid, GAMMA)
        p = PhysicsParams(ALPHA, GAMMA, grid.d)
        u = _route_samples(grid)["real"]
        u_hat = _rfftn(u, grid.d)
        out = work = None
        if with_work:
            out = np.empty(u.shape)
            work = (np.empty(u.shape), np.empty_like(u_hat))
        e, terms = energy(u, p, kernel, u_hat=u_hat, with_terms=True, out=out, work=work)
        assert out is None or terms.potential is out
        _assert_terms_are(terms, e, _ref_half_terms(u, u_hat, kernel, ALPHA))

    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("grid", ROUTE_GRIDS)
    def test_seminorm_and_h_alpha_norm(self, grid, kind):
        u = Field(grid, _route_samples(grid)[kind])
        seminorm = _ref_seminorm_sq(u.values[None], grid, ALPHA)[0]
        assert _bytes(sobolev_seminorm_sq(u, ALPHA)) == _bytes(seminorm)
        assert _bytes(h_alpha_norm(u, ALPHA)) == _bytes(math.sqrt(mass(u) + float(seminorm)))

    @pytest.mark.parametrize(
        "grid",
        [
            pytest.param(Grid(d=1, n=64, L=40.0), id="1d-64"),
            pytest.param(Grid(d=2, n=32, L=20.0), id="2d-32"),  # blocks of 4 fields
            pytest.param(Grid(d=2, n=64, L=40.0), id="2d-64"),  # blocks of 1
            pytest.param(Grid(d=3, n=8, L=10.0), id="3d-8"),
        ],
    )
    def test_rearrangement_sweep_excess_lists(self, monkeypatch, grid):
        """The sweep's seminorm excesses, read from the lists it takes the
        maximum of, are those of the reference seminorm on its blocks."""
        count, seed = 6, 40
        lists = []

        class MaxSpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def max(values):
                lists.append(list(values))
                return np.max(values)

        monkeypatch.setattr(rearrange_module, "np", MaxSpy())
        result = rearrangement_sweep(grid, ALPHA, count, seed, pair_seed=500)
        monkeypatch.undo()
        seminorm_excess, pairing_excess = lists
        assert len(seminorm_excess) == len(pairing_excess) == count
        block = max(1, rearrange_module._BLOCK_BYTES // (16 * grid.size))
        reference = []
        for start in range(0, count, block):
            seeds = [seed + r for r in range(start, min(start + block, count))]
            u = _unit_mass(
                band_limited_noise(grid, seeds, _RANDOM_KEEP_FRACTION), grid.cell_volume
            )
            s_in = np.sqrt(_ref_seminorm_sq(u, grid, ALPHA))
            s_out = np.sqrt(_ref_seminorm_sq(rearrange_module._rearranged(u, grid), grid, ALPHA))
            reference += ((s_out - s_in) / s_in).tolist()
        assert _bytes(seminorm_excess) == _bytes(reference)
        assert _bytes(result.worst_seminorm) == _bytes(max(reference))
        assert _bytes(result.worst_pairing) == _bytes(max(pairing_excess))
