"""Grid geometry, wavenumber layout, and parameter validation."""

import numpy as np
import pytest

from fhnlse import Grid, PhysicsParams
from fhnlse.grid import _dft_trailing


class TestGridGeometry:
    def test_scalar_geometry(self):
        grid = Grid(d=2, n=32, L=16.0)
        assert grid.shape == (32, 32)
        assert grid.size == 1024
        assert grid.h == 0.5
        assert grid.cell_volume == 0.25

    def test_coords_start_at_minus_half_L_with_origin_on_lattice(self):
        grid = Grid(d=1, n=16, L=8.0)
        assert grid.axis_coords[0] == -4.0
        assert grid.axis_coords[grid.n // 2] == 0.0
        assert np.allclose(np.diff(grid.axis_coords), grid.h)

    def test_wavenumbers_are_2pi_m_over_L_aliased(self):
        grid = Grid(d=1, n=16, L=8.0)
        k = grid.axis_wavenumbers
        assert k[0] == 0.0
        assert k[1] == pytest.approx(2.0 * np.pi / grid.L, rel=1e-15, abs=0)
        # aliased ordering: index n/2 holds the most negative mode -n/2
        assert k[grid.n // 2] == pytest.approx(-np.pi * grid.n / grid.L, rel=1e-15, abs=0)
        m = np.fft.fftfreq(grid.n) * grid.n
        assert np.allclose(k, 2.0 * np.pi * m / grid.L, rtol=1e-15, atol=0.0)

    def test_k_squared_zero_mode_and_symmetry(self):
        grid = Grid(d=2, n=16, L=10.0)
        ksq = grid.k_squared
        assert ksq[0, 0] == 0.0
        # |k|^2 is even under index negation (mod n)
        flipped = np.roll(ksq[::-1, ::-1], shift=(1, 1), axis=(0, 1))
        assert np.array_equal(ksq, flipped)

    def test_fractional_multiplier_alpha_one_matches_k_squared(self):
        grid = Grid(d=2, n=16, L=10.0)
        assert np.allclose(
            grid.fractional_multiplier(1.0), grid.k_squared, rtol=1e-14, atol=0.0
        )

    def test_fractional_multiplier_zero_mode_is_zero(self):
        grid = Grid(d=3, n=8, L=5.0)
        mult = grid.fractional_multiplier(0.6)
        assert mult[0, 0, 0] == 0.0
        assert np.all(mult >= 0.0)

    def test_fractional_multiplier_rejects_nonpositive_alpha(self):
        grid = Grid(d=1, n=8, L=1.0)
        with pytest.raises(ValueError, match="alpha"):
            grid.fractional_multiplier(0.0)
        with pytest.raises(ValueError, match="alpha"):
            grid.fractional_multiplier(-0.3)

    def test_fractional_multiplier_is_cached_read_only_per_alpha(self):
        grid = Grid(d=2, n=16, L=10.0)
        mult = grid.fractional_multiplier(0.6)
        assert grid.fractional_multiplier(0.6) is mult
        assert not mult.flags.writeable
        with pytest.raises(ValueError):
            mult[1, 1] = 0.0
        other = grid.fractional_multiplier(0.7)
        assert other is not mult
        assert np.array_equal(other, grid.k_squared**0.7)
        assert np.array_equal(mult, grid.k_squared**0.6)
        with pytest.raises(ValueError, match="alpha"):
            grid.fractional_multiplier(0.0)

    def test_point_distance_vanishes_at_center(self):
        grid = Grid(d=2, n=16, L=10.0)
        assert grid.point_distance[8, 8] == 0.0
        assert np.min(grid.point_distance) == 0.0

    def test_offset_distance_zero_at_origin_and_min_image_bounded(self):
        grid = Grid(d=2, n=16, L=10.0)
        dist = grid.offset_distance
        assert dist[0, 0] == 0.0
        assert np.max(dist) <= np.sqrt(2.0) * grid.L / 2.0 + 1e-12

    def test_lattice_arrays_are_frozen(self):
        grid = Grid(d=1, n=8, L=4.0)
        for arr in (grid.axis_coords, grid.axis_wavenumbers, grid.k_squared):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_grids_compare_and_hash_by_value(self):
        a = Grid(d=2, n=32, L=25.0)
        b = Grid(d=2, n=32, L=25.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Grid(d=2, n=32, L=26.0)


class TestTrailingTransforms:
    """``_dft_trailing`` runs its passes through NumPy's pocketfft gufuncs
    and gives the very bits of the public n-D transforms."""

    @pytest.mark.parametrize(
        "grid",
        [Grid(d=1, n=64, L=40.0), Grid(d=2, n=16, L=10.0), Grid(d=3, n=8, L=5.0)],
        ids=["d1", "d2", "d3"],
    )
    def test_equals_fftn_and_ifftn_over_the_trailing_axes_bitwise(self, grid):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal(
            (3,) + grid.shape
        )
        axes = tuple(range(1, grid.d + 1))
        forward = _dft_trailing(stack.copy(), grid)
        assert np.array_equal(forward, np.fft.fftn(stack, axes=axes))
        inverse = _dft_trailing(stack.copy(), grid, inverse=True)
        assert np.array_equal(inverse, np.fft.ifftn(stack, axes=axes))

    def test_transforms_in_place(self):
        grid = Grid(d=2, n=8, L=4.0)
        a = np.ones((2,) + grid.shape, dtype=complex)
        assert _dft_trailing(a, grid) is a


class TestGridValidation:
    @pytest.mark.parametrize("d", [0, 4, -1])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(ValueError, match="d must be"):
            Grid(d=d, n=16, L=1.0)

    @pytest.mark.parametrize("n", [12, 4, 0, 7, 100])
    def test_rejects_bad_point_count(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(d=1, n=n, L=1.0)

    def test_accepts_minimum_point_count(self):
        assert Grid(d=1, n=8, L=1.0).n == 8

    @pytest.mark.parametrize("L", [0.0, -2.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_non_finite_length(self, L):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            Grid(d=1, n=8, L=L)


class TestPhysicsParams:
    def test_reference_parameters_are_admissible(self):
        p = PhysicsParams(alpha=0.6, gamma=0.5, d=2)
        assert (p.alpha, p.gamma, p.d) == (0.6, 0.5, 2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
    def test_rejects_alpha_outside_open_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            PhysicsParams(alpha=alpha, gamma=0.1, d=2)

    def test_rejects_gamma_at_twice_alpha_naming_the_constraint(self):
        with pytest.raises(ValueError, match="2\\*alpha"):
            PhysicsParams(alpha=0.6, gamma=1.2, d=2)

    def test_rejects_gamma_above_twice_alpha(self):
        with pytest.raises(ValueError, match="mass-subcritical"):
            PhysicsParams(alpha=0.5, gamma=1.1, d=2)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            PhysicsParams(alpha=0.6, gamma=0.0, d=2)

    def test_rejects_gamma_at_or_above_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            PhysicsParams(alpha=0.9, gamma=1.0, d=1)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="d must be"):
            PhysicsParams(alpha=0.6, gamma=0.5, d=5)
