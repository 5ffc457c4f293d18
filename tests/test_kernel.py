"""Interaction kernel: origin-cell regularization against independent
quadrature oracles, hand-computed pairings, the direct double sum against
its pair-by-pair definition, and equivalence of the pairing ``EnergyTerms``
forms with the direct double sum."""

import numpy as np
import pytest
from scipy import integrate

from fhnlse import (
    Field,
    Grid,
    HartreeKernel,
    PhysicsParams,
    hartree_direct,
    random_band_limited,
)
from fhnlse import grid as grid_module
from fhnlse import kernel as kernel_module
from fhnlse.grid import _irfftn, _rfftn
from fhnlse.kernel import DIRECT_SITE_LIMIT, kernel_spectrum, origin_cell_average
from fhnlse.spectral import EnergyTerms


def terms(u: Field, kernel: HartreeKernel) -> EnergyTerms:
    """``EnergyTerms`` of ``u``: the pairing and potential that ``energy`` and
    the solver read (``alpha`` enters neither)."""
    return EnergyTerms(u, PhysicsParams(0.6, kernel.gamma, kernel.grid.d), kernel)


def _pair_by_pair(u: Field, kernel: HartreeKernel) -> float:
    """The pairing by its definition, ``cell_volume^2 * sum_{x,y} rho(x)
    K(x - y) rho(y)``: gathers the sample of every site pair from integer
    index arithmetic, a block of sites at a time."""
    grid = u.grid
    n, d = grid.n, grid.d
    rho = (np.abs(u.values) ** 2).ravel()
    ksamples = kernel.samples.ravel()
    idx = np.indices(grid.shape).reshape(d, grid.size)  # per-axis index of each site
    strides = np.array([n ** (d - 1 - a) for a in range(d)])
    total = 0.0
    block = 256  # sites per pass: the index matrix holds d * block * N entries
    for start in range(0, grid.size, block):
        sl = slice(start, min(start + block, grid.size))
        diff = (idx[:, sl, None] - idx[:, None, :]) % n  # (d, b, N)
        flat = np.tensordot(strides, diff, axes=1)  # (b, N) sample indices
        total += float(rho[sl] @ (ksamples[flat] @ rho))
    return total * grid.cell_volume**2


def _three_sites(grid: Grid) -> Field:
    """Density on three scattered sites, with unequal weights and phases."""
    vals = np.zeros(grid.shape, dtype=complex)
    sites = np.random.default_rng(100 * grid.d + grid.n).choice(grid.size, 3, replace=False)
    vals.flat[sites] = [1.5, 0.5j, -0.8 + 0.3j]
    return Field(grid, vals)


# ---------------------------------------------------------------------------
# Independent quadrature oracles for the average of |x|^(-gamma) over the
# unit cell.  None of them share machinery with the implementation: d=1 uses
# adaptive quadrature with a declared interior singularity, d=2 reduces the
# square to a smooth 1-D integral in polar coordinates, and d=3 nests that
# reduction inside an outer 1-D quadrature over the third axis.


def _oracle_1d(gamma: float) -> float:
    val, _ = integrate.quad(
        lambda x: abs(x) ** (-gamma), -0.5, 0.5, points=[0.0], limit=200
    )
    return val


def _oracle_2d(gamma: float) -> float:
    # 8 * int_0^{pi/4} int_0^{1/(2 cos t)} r^(1-gamma) dr dt, radial part closed form
    val, _ = integrate.quad(
        lambda t: (2.0 * np.cos(t)) ** (gamma - 2.0),
        0.0,
        np.pi / 4.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    return 8.0 / (2.0 - gamma) * val


def _oracle_3d(gamma: float) -> float:
    # slice by z: the square cross-section integral of (rho^2+z^2)^(-gamma/2)
    # reduces to a smooth theta integral exactly as in 2-D
    def cross_section(z: float) -> float:
        def integrand(t: float) -> float:
            a = 1.0 / (4.0 * np.cos(t) ** 2) + z * z
            return a ** ((2.0 - gamma) / 2.0) - (z * z) ** ((2.0 - gamma) / 2.0)

        val, _ = integrate.quad(
            integrand, 0.0, np.pi / 4.0, epsabs=1e-13, epsrel=1e-12, limit=200
        )
        return 8.0 / (2.0 - gamma) * val

    val, _ = integrate.quad(cross_section, 0.0, 0.5, epsabs=1e-12, epsrel=1e-11, limit=400)
    return 2.0 * val


class TestOriginCellAverage:
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 0.9])
    def test_matches_1d_quadrature_oracle(self, gamma):
        oracle = _oracle_1d(gamma)
        assert origin_cell_average(1, gamma) == pytest.approx(oracle, rel=1e-10, abs=0)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0, 1.5, 1.9])
    def test_matches_2d_polar_oracle(self, gamma):
        oracle = _oracle_2d(gamma)
        assert origin_cell_average(2, gamma) == pytest.approx(oracle, rel=1e-12, abs=0)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
    def test_matches_3d_nested_oracle(self, gamma):
        oracle = _oracle_3d(gamma)
        assert origin_cell_average(3, gamma) == pytest.approx(oracle, rel=1e-10, abs=0)

    def test_rejects_gamma_outside_integrable_range(self):
        with pytest.raises(ValueError, match="integrability"):
            origin_cell_average(2, 2.0)
        with pytest.raises(ValueError, match="integrability"):
            origin_cell_average(1, 0.0)


class TestKernelSamples:
    def test_off_origin_samples_are_min_image_power_law(self):
        grid = Grid(d=1, n=16, L=8.0)
        kernel = HartreeKernel(grid, 0.5)
        # displacement layout: index m holds |m*h|^(-gamma) for small m
        assert kernel.samples[3] == pytest.approx((3 * grid.h) ** -0.5, rel=1e-15, abs=0)
        # aliased index n-1 is displacement -h
        assert kernel.samples[15] == pytest.approx(grid.h**-0.5, rel=1e-15, abs=0)

    def test_origin_sample_scales_like_h_to_minus_gamma(self):
        gamma = 0.5
        a = HartreeKernel(Grid(d=2, n=16, L=8.0), gamma)
        b = HartreeKernel(Grid(d=2, n=16, L=16.0), gamma)
        ratio = a.samples[0, 0] / b.samples[0, 0]
        expected = (a.grid.h / b.grid.h) ** (-gamma)
        assert ratio == pytest.approx(expected, rel=1e-14, abs=0)
        assert a.samples[0, 0] == pytest.approx(
            origin_cell_average(2, gamma) * a.grid.h ** (-gamma), rel=1e-14, abs=0
        )

    def test_samples_and_spectrum_are_frozen(self):
        kernel = HartreeKernel(Grid(d=1, n=8, L=4.0), 0.5)
        with pytest.raises(ValueError):
            kernel.samples[0] = 1.0
        with pytest.raises(ValueError):
            kernel.spectrum[0] = 1.0

    def test_half_spectrum_is_frozen(self):
        """Every convolution reads the cached half spectrum, so a caller's
        in-place write must raise instead of corrupting the later ones."""
        kernel = HartreeKernel(Grid(d=2, n=8, L=4.0), 0.5)
        with pytest.raises(ValueError):
            kernel._half_spectrum[0, 0] = 1.0
        with pytest.raises(ValueError):
            kernel._half_spectrum *= 2.0
        assert kernel._half_spectrum.dtype == np.complex128
        assert not np.any(kernel._half_spectrum.imag)

    def test_spectrum_zero_mode_is_sample_sum(self):
        kernel = HartreeKernel(Grid(d=2, n=16, L=8.0), 0.5)
        assert kernel.spectrum[0, 0] == pytest.approx(np.sum(kernel.samples), rel=1e-13, abs=0)

    def test_rejects_gamma_outside_range(self):
        grid = Grid(d=2, n=16, L=8.0)
        with pytest.raises(ValueError, match="gamma"):
            HartreeKernel(grid, 2.0)
        with pytest.raises(ValueError, match="gamma"):
            HartreeKernel(grid, 0.0)

    def test_spectrum_transform_rejects_uneven_samples(self):
        asymmetric = np.zeros(8)
        asymmetric[1] = 1.0  # no matching value at index -1
        with pytest.raises(ValueError, match="imaginary"):
            kernel_spectrum(asymmetric)


class TestHartreePairings:
    def test_two_site_pairing_matches_hand_sum(self):
        """Place density on two sites and expand the double sum by hand."""
        grid = Grid(d=1, n=8, L=4.0)
        kernel = HartreeKernel(grid, 0.5)
        vals = np.zeros(8, dtype=complex)
        vals[2] = 1.5
        vals[6] = 0.5j  # magnitude matters, phase must not
        u = Field(grid, vals)
        rho_a, rho_b = 1.5**2, 0.5**2
        k0 = kernel.samples[0]
        k_sep = kernel.samples[(2 - 6) % 8]
        hand = (rho_a**2 + rho_b**2) * k0 + 2.0 * rho_a * rho_b * k_sep
        hand *= grid.cell_volume**2
        assert terms(u, kernel).pairing == pytest.approx(hand, rel=1e-13, abs=0)
        assert hartree_direct(u, kernel) == pytest.approx(hand, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "grid",
        [Grid(d=1, n=64, L=40.0), Grid(d=2, n=16, L=20.0), Grid(d=3, n=8, L=10.0)],
        ids=["d1", "d2", "d3"],
    )
    def test_fast_path_matches_direct_double_sum(self, grid):
        kernel = HartreeKernel(grid, 0.5)
        for rep in range(4):
            u = random_band_limited(grid, seed=50 + rep)
            fast = terms(u, kernel).pairing
            direct = hartree_direct(u, kernel)
            assert fast == pytest.approx(direct, rel=1e-10, abs=0)

    @pytest.mark.parametrize(
        "grid",
        [
            Grid(d=1, n=64, L=40.0),
            Grid(d=2, n=16, L=20.0),
            Grid(d=2, n=32, L=40.0),
            Grid(d=3, n=8, L=10.0),
        ],
        ids=["d1-n64", "d2-n16", "d2-n32", "d3-n8"],
    )
    def test_half_spectrum_pairing_matches_the_potential_pairing_and_the_direct_sum(
        self, grid
    ):
        """The pairing by Parseval over the density's half spectrum, which the
        evolution's records use, agrees with the pairing ``density_terms``
        forms from the potential and with the direct double sum, within the
        oracle check's 1e-10; for a stack it gives each field's, bit for bit,
        and a given ``work`` array gives the same bits."""
        kernel = HartreeKernel(grid, 0.5)
        fields = [random_band_limited(grid, seed=70 + rep) * 1.7 for rep in range(3)]
        densities = np.stack([np.abs(u.values) ** 2 for u in fields])
        pairings = []
        for u, rho in zip(fields, densities):
            pairing = kernel.half_spectrum_pairing(_rfftn(rho, grid.d))
            assert pairing == pytest.approx(terms(u, kernel).pairing, rel=1e-10, abs=0)
            assert pairing == pytest.approx(hartree_direct(u, kernel), rel=1e-10, abs=0)
            pairings.append(pairing)
        rho_hat = _rfftn(densities, grid.d)
        work = np.empty(rho_hat.view(np.float64).shape)
        assert kernel.half_spectrum_pairing(rho_hat).tolist() == pairings
        assert kernel.half_spectrum_pairing(rho_hat, work).tolist() == pairings

    def test_half_spectrum_pairing_weights_are_frozen(self):
        kernel = HartreeKernel(Grid(d=2, n=8, L=4.0), 0.5)
        with pytest.raises(ValueError):
            kernel._pairing_weights[0] = 1.0

    @pytest.mark.parametrize(
        "grid",
        [
            Grid(d=1, n=64, L=40.0),
            Grid(d=2, n=16, L=20.0),
            Grid(d=2, n=32, L=40.0),
            Grid(d=3, n=8, L=10.0),
        ],
        ids=["d1-n64", "d2-n16", "d2-n32", "d3-n8"],
    )
    def test_direct_sum_matches_pair_by_pair_definition(self, grid):
        kernel = HartreeKernel(grid, 0.5)
        fields = [random_band_limited(grid, seed=60 + rep) for rep in range(3)]
        for u in fields + [_three_sites(grid)]:
            assert hartree_direct(u, kernel) == pytest.approx(
                _pair_by_pair(u, kernel), rel=1e-13, abs=0
            )

    @pytest.mark.parametrize(
        "grid", [Grid(d=2, n=16, L=20.0), Grid(d=3, n=8, L=10.0)], ids=["d2", "d3"]
    )
    def test_direct_sum_runs_no_fft(self, grid, monkeypatch):
        """The oracle must not share a transform with the path it checks."""
        kernel = HartreeKernel(grid, 0.5)
        u = random_band_limited(grid, seed=24)
        expected = _pair_by_pair(u, kernel)

        def refuse(*args, **kwargs):
            raise AssertionError("the direct sum called numpy.fft")

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        # the per-axis passes call NumPy's pocketfft gufuncs through this binding
        for name in grid_module._POCKETFFT:
            monkeypatch.setitem(grid_module._POCKETFFT, name, refuse)
        assert hartree_direct(u, kernel) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "grid",
        [Grid(d=1, n=4096, L=40.0), Grid(d=2, n=64, L=40.0), Grid(d=3, n=16, L=10.0)],
        ids=["d1", "d2", "d3"],
    )
    def test_direct_path_accepts_a_grid_at_the_limit(self, grid):
        assert grid.size == DIRECT_SITE_LIMIT
        kernel = HartreeKernel(grid, 0.5)
        u = random_band_limited(grid, seed=25)
        assert hartree_direct(u, kernel) == pytest.approx(
            terms(u, kernel).pairing, rel=1e-10, abs=0
        )

    def test_direct_path_refuses_large_grids(self):
        grid = Grid(d=2, n=128, L=40.0)
        kernel = HartreeKernel(grid, 0.5)
        u = random_band_limited(grid, seed=1)
        assert grid.size > DIRECT_SITE_LIMIT
        with pytest.raises(ValueError, match=str(DIRECT_SITE_LIMIT)):
            hartree_direct(u, kernel)

    def test_pairing_is_positive_for_nonzero_fields(self):
        grid = Grid(d=2, n=16, L=10.0)
        kernel = HartreeKernel(grid, 0.5)
        for rep in range(3):
            u = random_band_limited(grid, seed=80 + rep)
            assert terms(u, kernel).pairing > 0.0

    def test_convolving_a_lattice_delta_reproduces_the_samples(self):
        grid = Grid(d=2, n=16, L=8.0)
        kernel = HartreeKernel(grid, 0.5)
        delta = np.zeros(grid.shape)
        delta[0, 0] = 1.0
        conv = kernel.convolve_density(delta)
        assert np.allclose(conv, kernel.samples * grid.cell_volume, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "grid",
        [Grid(d=1, n=64, L=40.0), Grid(d=2, n=32, L=20.0), Grid(d=3, n=16, L=10.0)],
        ids=["d1", "d2", "d3"],
    )
    def test_real_fft_convolution_matches_full_complex_fft(self, grid):
        kernel = HartreeKernel(grid, 0.5)
        rho = np.abs(random_band_limited(grid, seed=21).values) ** 2
        full = np.fft.ifftn(np.fft.fftn(rho) * kernel.spectrum).real * grid.cell_volume
        conv = kernel.convolve_density(rho)
        assert conv.shape == grid.shape
        assert np.isrealobj(conv)
        assert np.max(np.abs(conv - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize(
        "grid",
        [Grid(d=1, n=64, L=40.0), Grid(d=2, n=32, L=20.0), Grid(d=3, n=16, L=10.0)],
        ids=["d1", "d2", "d3"],
    )
    def test_per_axis_passes_equal_the_normalized_real_pair_bitwise(self, grid):
        """The unnormalized 1-D passes with the 1/N folded into the spectrum
        give the very bits of NumPy's ``rfftn``/``irfftn`` pair with its own
        per-pass scaling: the axis order is NumPy's, and N is a power of
        two."""
        kernel = HartreeKernel(grid, 0.5)
        rho = np.abs(random_band_limited(grid, seed=23).values) ** 2
        axes = tuple(range(grid.d))
        # the cell volume meets the spectrum before rho_hat, as in the cached factor
        half = kernel.spectrum[..., : grid.n // 2 + 1] * grid.cell_volume
        normalized = np.fft.irfftn(np.fft.rfftn(rho, axes=axes) * half, s=grid.shape, axes=axes)
        assert np.array_equal(kernel.convolve_density(rho), normalized)

    @pytest.mark.parametrize(
        "grid",
        [Grid(d=1, n=64, L=40.0), Grid(d=2, n=32, L=20.0), Grid(d=3, n=16, L=10.0)],
        ids=["d1", "d2", "d3"],
    )
    @pytest.mark.parametrize("norm", ["backward", "forward"])
    @pytest.mark.parametrize("with_out", [False, True], ids=["new", "out"])
    def test_real_passes_equal_rfftn_and_irfftn_bitwise(self, grid, norm, with_out):
        """The passes through NumPy's pocketfft gufuncs give the very bits of
        the public n-D real pair, the inverse into a given array or a new
        one; ``scaled`` is the backward norm, unscaled the forward one."""
        x = np.random.default_rng(6).standard_normal(grid.shape)
        expected_hat = np.fft.rfftn(x)
        x_hat = _rfftn(x, grid.d)
        assert np.array_equal(x_hat, expected_hat)
        expected = np.fft.irfftn(x_hat, s=grid.shape, axes=range(grid.d), norm=norm)
        out = np.empty(grid.shape) if with_out else None
        back = _irfftn(x_hat, grid.d, grid.n, out=out, scaled=norm == "backward")
        assert np.array_equal(back, expected)
        if with_out:
            assert back is out

    @pytest.mark.parametrize(
        "grid",
        [Grid(d=1, n=64, L=40.0), Grid(d=2, n=32, L=20.0), Grid(d=3, n=16, L=10.0)],
        ids=["d1", "d2", "d3"],
    )
    def test_convolution_into_a_given_array(self, grid):
        kernel = HartreeKernel(grid, 0.5)
        rho = np.abs(random_band_limited(grid, seed=26).values) ** 2
        expected = kernel.convolve_density(rho)
        buf = np.empty(grid.shape)
        assert kernel.convolve_density(rho, out=buf) is buf
        assert np.array_equal(buf, expected)
        # the density's own array may take its potential
        assert kernel.convolve_density(rho, out=rho) is rho
        assert np.array_equal(rho, expected)

    @pytest.mark.parametrize(
        "grid",
        [Grid(d=1, n=64, L=40.0), Grid(d=2, n=32, L=20.0), Grid(d=3, n=16, L=10.0)],
        ids=["d1", "d2", "d3"],
    )
    def test_stack_convolution_is_each_fields_bitwise(self, grid):
        """The pair runs over the trailing axes, so a ``(B, *grid.shape)``
        stack convolves field by field, into a new array or a given one."""
        kernel = HartreeKernel(grid, 0.5)
        stack = np.stack(
            [np.abs(random_band_limited(grid, seed=40 + r).values) ** 2 for r in range(3)]
        )
        expected = np.stack([kernel.convolve_density(rho) for rho in stack])
        assert np.array_equal(kernel.convolve_density(stack), expected)
        buf = np.empty(stack.shape)
        assert kernel.convolve_density(stack, out=buf) is buf
        assert np.array_equal(buf, expected)

    @pytest.mark.parametrize(
        "grid",
        [Grid(d=1, n=64, L=40.0), Grid(d=2, n=32, L=20.0), Grid(d=3, n=16, L=10.0)],
        ids=["d1", "d2", "d3"],
    )
    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    def test_scaled_convolution_in_place_is_bitwise_the_scaled_potential(self, grid, stack):
        """``scale`` is the factor of the inverse's last pass, applied after
        it, so ``convolve_density(rho, out=rho, scale=s, work=w)`` is bit for
        bit ``s * convolve_density(rho)``; the half spectrum ``w`` is reused
        from call to call, as the Strang loop reuses it.  None of the scales
        is a power of two, so scaling the density before the transform
        instead would change bits."""
        kernel = HartreeKernel(grid, 0.5)
        lead = (3,) if stack else ()
        work = np.empty(lead + grid.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
        for seed, scale in enumerate((-0.5e-3, -0.37, 3.1)):
            rho = np.abs(np.stack(
                [random_band_limited(grid, seed=60 + 3 * seed + r).values for r in range(3)]
            )) ** 2
            rho = rho if stack else rho[0]
            expected = scale * kernel.convolve_density(rho)
            assert kernel.convolve_density(rho, out=rho, scale=scale, work=work) is rho
            assert rho.tobytes() == expected.tobytes()

    def test_doubled_spectrum_desynchronizes_the_fast_pairing(self, monkeypatch):
        """The fast path must read ``spectrum`` as built by ``kernel_spectrum``,
        so a broken transform shows up against the direct double sum."""
        grid = Grid(d=2, n=16, L=20.0)
        u = random_band_limited(grid, seed=22)
        real = kernel_module.kernel_spectrum
        monkeypatch.setattr(kernel_module, "kernel_spectrum", lambda s: 2.0 * real(s))
        kernel = HartreeKernel(grid, 0.5)
        fast = terms(u, kernel).pairing
        assert fast == pytest.approx(2.0 * hartree_direct(u, kernel), rel=1e-10, abs=0)

    def test_potential_is_translation_covariant(self):
        grid = Grid(d=2, n=16, L=10.0)
        kernel = HartreeKernel(grid, 0.5)
        u = random_band_limited(grid, seed=7)
        shifted = Field(grid, np.roll(u.values, shift=(3, -5), axis=(0, 1)))
        pot_shifted = terms(shifted, kernel).potential
        expected = np.roll(terms(u, kernel).potential, shift=(3, -5), axis=(0, 1))
        assert np.allclose(pot_shifted, expected, rtol=1e-12, atol=1e-12)

    def test_rejects_field_from_another_grid(self):
        kernel = HartreeKernel(Grid(d=2, n=16, L=10.0), 0.5)
        u = random_band_limited(Grid(d=2, n=16, L=12.0), seed=1)
        with pytest.raises(ValueError, match="different grids"):
            terms(u, kernel)
        with pytest.raises(ValueError, match="different grids"):
            hartree_direct(u, kernel)
