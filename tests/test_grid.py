"""Grid geometry, wavenumber layout, and parameter validation."""

import copy
import re

import numpy as np
import pytest

from fhnlse import (
    Grid,
    HartreeKernel,
    PhysicsParams,
    SolveOptions,
    energy_gradient,
    evolve,
    gaussian,
    minimize,
    perturb,
    random_band_limited,
    scaling_experiment,
    stability_run,
    subadditivity_check,
)
from fhnlse.config import DEFAULTS, validate_config
from fhnlse.fields import band_limited_noise, with_mass
from fhnlse.grid import _fftn, _ifftn
from fhnlse.rearrange import rearrangement_sweep


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


STACK_GRIDS = pytest.mark.parametrize(
    "grid",
    [Grid(d=1, n=64, L=40.0), Grid(d=2, n=16, L=10.0), Grid(d=3, n=8, L=5.0)],
    ids=["d1", "d2", "d3"],
)


class TestTrailingTransforms:
    """``_fftn`` and ``_ifftn`` run their passes through NumPy's pocketfft
    gufuncs and give the very bits of the public n-D transforms."""

    @STACK_GRIDS
    def test_equals_fftn_and_ifftn_over_the_trailing_axes_bitwise(self, grid):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal(
            (3,) + grid.shape
        )
        axes = tuple(range(1, grid.d + 1))
        forward = _fftn(stack.copy(), grid.d)
        assert np.array_equal(forward, np.fft.fftn(stack, axes=axes))
        inverse = _ifftn(stack.copy(), grid.d)
        assert np.array_equal(inverse, np.fft.ifftn(stack, axes=axes))

    @STACK_GRIDS
    def test_real_stacks_equal_fftn_and_ifftn_bitwise(self, grid):
        """A real stack goes to the complex gufunc as it is, without a
        complex copy; the gufunc's cast gives the very bits of NumPy's."""
        stack = np.random.default_rng(7).standard_normal((3,) + grid.shape)
        axes = tuple(range(1, grid.d + 1))
        assert np.array_equal(_fftn(stack, grid.d), np.fft.fftn(stack, axes=axes))
        assert np.array_equal(_ifftn(stack, grid.d), np.fft.ifftn(stack, axes=axes))
        assert np.array_equal(
            _ifftn(stack, grid.d, scaled=False),
            np.fft.ifftn(stack, axes=axes, norm="forward"),
        )

    def test_transforms_in_place(self):
        grid = Grid(d=2, n=8, L=4.0)
        a = np.ones((2,) + grid.shape, dtype=complex)
        assert _fftn(a, grid.d, out=a) is a
        assert _ifftn(a, grid.d, out=a) is a


class TestOnePath:
    """Every DFT of the package goes through the helpers of ``grid``: with
    every ``numpy.fft`` transform refused, the kernel build, the gradient,
    the solver, the Strang loop with its orbit alignment, the rearrangement
    sweep and the noise of a perturbation all still run."""

    @pytest.mark.parametrize("d, n, L", [(1, 64, 40.0), (2, 32, 25.0), (3, 16, 12.0)])
    def test_runs_with_every_numpy_fft_transform_refused(self, d, n, L, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a numpy.fft transform was called")

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn",
                     "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft"):
            monkeypatch.setattr(np.fft, name, refuse)
        grid = Grid(d=d, n=n, L=L)
        p = PhysicsParams(alpha=0.6, gamma=0.5, d=d)
        kernel = HartreeKernel(grid, p.gamma)
        gradient = energy_gradient(random_band_limited(grid, seed=3), p, kernel)
        assert np.all(np.isfinite(gradient.values))
        gs = minimize(p, kernel, SolveOptions(q=3.0))
        assert gs.converged
        report = stability_run(p, kernel, 1e-2, T=0.02, dt=1e-2, stride=1, ground=gs)
        assert np.all(np.isfinite(report.distances))
        assert rearrangement_sweep(grid, p.alpha, 3, 1, 2).passed
        assert np.all(np.isfinite(perturb(gs.g, p.alpha, 1e-2, seed=4).values))


class TestGridValidation:
    @pytest.mark.parametrize("d", [0, 4, -1, 2.0, True])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(ValueError, match="d must be"):
            Grid(d=d, n=16, L=1.0)

    @pytest.mark.parametrize("n", [12, 4, 0, 7, 100, 16.0])
    def test_rejects_bad_point_count(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(d=1, n=n, L=1.0)

    def test_accepts_minimum_point_count(self):
        assert Grid(d=1, n=8, L=1.0).n == 8

    def test_accepts_numpy_integers(self):
        assert Grid(d=np.int64(2), n=np.int32(16), L=1.0).shape == (16, 16)

    @pytest.mark.parametrize("L", [0.0, -2.0, float("inf"), float("nan"), True, np.True_])
    def test_rejects_nonpositive_or_non_finite_length(self, L):
        """A bool is no length, though True == 1."""
        with pytest.raises(ValueError, match="L must be a positive finite real number"):
            Grid(d=1, n=8, L=L)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("L", [1e300, 1e200, 1e-200, 1e-300])
    def test_rejects_a_length_whose_geometry_is_not_representable(self, d, L):
        """The cell volume, L^2 or the largest |k|^2 overflows, or the cell
        volume underflows to 0: a ValueError naming L, not an OverflowError
        or NaN masses later."""
        with pytest.raises(ValueError, match=re.escape(f"L = {L} is out of range")):
            Grid(d=d, n=8, L=L)

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_a_length_whose_squared_cell_volume_overflows(self, d):
        """The cell volume is finite, but its square, which weights the triple
        pairing and the direct Hartree sum, is not."""
        L = 1e100
        h = L / 8
        assert h**d < np.inf
        with pytest.raises(ValueError, match=re.escape(f"L = {L} is out of range")):
            Grid(d=d, n=8, L=L)

    @pytest.mark.parametrize("d, L", [(2, 1e-100), (3, 1e-60), (2, 1.0e-80), (3, 9.3e-54)])
    def test_rejects_a_length_whose_squared_cell_volume_underflows(self, d, L):
        """The cell volume is positive, but its square, which weights the
        triple pairing and the direct Hartree sum, underflows to 0, where
        every pairing would be 0 and its excess 0/0."""
        h = np.float64(L) / 8
        with np.errstate(under="ignore"):
            assert h**d > 0 and (h**d) ** 2 == 0
        with pytest.raises(ValueError, match=re.escape(f"L = {L} is out of range")):
            Grid(d=d, n=8, L=L)

    @pytest.mark.parametrize("d, L", [(1, 1e-150), (2, 1.01e-80), (3, 9.31e-54)])
    def test_accepts_a_small_length_whose_squared_cell_volume_is_positive(self, d, L):
        grid = Grid(d=d, n=8, L=L)
        assert grid.cell_volume**2 > 0
        assert np.all(np.isfinite(grid.k_squared))

    @pytest.mark.parametrize("d, L", [(1, 1e100), (2, 1e50), (3, 1e50)])
    def test_accepts_a_large_but_representable_length(self, d, L):
        grid = Grid(d=d, n=8, L=L)
        assert 0 < grid.cell_volume**2 < np.inf
        assert np.all(np.isfinite(grid.k_squared))


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

    def test_rejects_a_bool_gamma(self):
        """True == 1 lies in (0, 2 alpha) and below d = 2, but is no exponent."""
        with pytest.raises(ValueError, match="gamma must satisfy"):
            PhysicsParams(alpha=0.6, gamma=True, d=2)

    def test_rejects_gamma_at_or_above_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            PhysicsParams(alpha=0.9, gamma=1.0, d=1)

    def test_rejects_bad_dimension(self):
        """A float or bool dimension is refused, as ``Grid`` refuses it,
        although ``2.0 == 2`` and ``True == 1``."""
        for d in (5, 2.0, True):
            with pytest.raises(ValueError, match="d must be"):
                PhysicsParams(alpha=0.6, gamma=0.5, d=d)


_G = Grid(d=2, n=16, L=10.0)
_P = PhysicsParams(alpha=0.6, gamma=0.5, d=2)
_K = HartreeKernel(_G, 0.5)
_U = gaussian(_G)

# every real argument that grid._check_real guards: the call that takes it,
# its name as the message gives it, a call passing ``x`` to it, and a value
# below its bound
_REAL_ARGUMENTS = [
    ("Grid", "L", lambda x: Grid(d=2, n=16, L=x), 0.0),
    ("fractional_multiplier", "alpha", lambda x: _G.fractional_multiplier(x), 0.0),
    ("gaussian_width", "q", lambda x: _P.gaussian_width(x), 0.0),
    ("SolveOptions", "q", lambda x: SolveOptions(q=x), 0.0),
    ("SolveOptions", "resid_tol", lambda x: SolveOptions(resid_tol=x), 0.0),
    ("scaling_experiment", "base_q", lambda x: scaling_experiment(_P, _K, base_q=x), 0.0),
    ("scaling_experiment", "lambdas[1]",
     lambda x: scaling_experiment(_P, _K, 1.0, lambdas=(1.0, x)), 0.0),
    ("subadditivity_check", "q1", lambda x: subadditivity_check(_P, _K, x, 1.0), 0.0),
    ("subadditivity_check", "q2", lambda x: subadditivity_check(_P, _K, 1.0, x), 0.0),
    ("evolve", "dt", lambda x: evolve(_U, _P, _K, T=1.0, dt=x), 0.0),
    ("evolve", "T", lambda x: evolve(_U, _P, _K, T=x, dt=1e-3), -1.0),
    ("perturb", "delta", lambda x: perturb(_U, 0.6, x, seed=1), -1.0),
    ("gaussian", "width", lambda x: gaussian(_G, width=x), 0.0),
    ("gaussian", "mass", lambda x: gaussian(_G, mass=x), -1.0),
    ("with_mass", "q", lambda x: with_mass(_U, x), -1.0),
    ("band_limited_noise", "keep_fraction", lambda x: band_limited_noise(_G, [1], x), 0.0),
] + [
    ("config", f"{section}.{key}", lambda x, s=section, k=key: validate_config(_with(s, k, x)),
     below)
    for section, key, below in [
        ("physics", "alpha", 0.0),
        ("physics", "gamma", 0.0),
        ("grid", "L", 0.0),
        ("solver", "q", 0.0),
        ("solver", "residTol", 0.0),
        ("dynamics", "T", -1.0),
        ("dynamics", "dt", 0.0),
        ("stability", "T", -1.0),
        ("stability", "dt", 0.0),
        ("stability", "delta", -1.0),
    ]
]


def _with(section, key, value):
    cfg = copy.deepcopy(DEFAULTS)
    cfg[section][key] = value
    return cfg


@pytest.mark.parametrize(
    "name, call, below",
    [a[1:] for a in _REAL_ARGUMENTS],
    ids=[f"{where}-{name.replace('[1]', '')}" for where, name, _, _ in _REAL_ARGUMENTS],
)
@pytest.mark.parametrize(
    "bad", ["below", True, np.True_, np.nan, np.inf, -np.inf, 10**400],
    ids=["below", "True", "np.True_", "nan", "inf", "-inf", "int-beyond-float"],
)
def test_a_real_argument_is_a_finite_real_number_within_its_bound(name, call, below, bad):
    """One rule for every real argument: a bool, a non-finite value, an int
    beyond the float range or a value below the bound raises a ValueError
    whose message starts with the argument's name (``section.key`` in a
    configuration)."""
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        call(below if bad == "below" else bad)


def test_a_checked_real_argument_keeps_its_type():
    opts = SolveOptions(q=3, resid_tol=np.float32(1e-6))
    assert type(opts.q) is int and type(opts.resid_tol) is np.float32
