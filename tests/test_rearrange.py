"""Symmetric-decreasing rearrangement: exact permutation properties,
seminorm contraction, and the triple-convolution inequality, including
strict cases and randomized property checks; the blocked sweep against a
field-by-field reference, and its memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fhnlse import Field, Grid, gaussian, random_band_limited, symmetric_rearrange
from fhnlse import rearrange as rearrange_module
from fhnlse.fields import (
    _RANDOM_KEEP_FRACTION,
    _unit_mass,
    band_limited_noise,
    mass,
    with_mass,
)
from fhnlse.rearrange import (
    SweepResult,
    _rearranged,
    _triple_product,
    radial_order,
    rearrangement_sweep,
)
from fhnlse.spectral import sobolev_seminorm_sq
from fhnlse.stability import NOISE_KEEP_FRACTION, perturb

ALPHA = 0.6


def two_bumps(grid: Grid, separation: float, width: float = 1.5) -> Field:
    """Gaussians of mass 1/2 each, centered at -+separation/2 on the first axis."""
    coords = np.meshgrid(*[grid.axis_coords] * grid.d, indexing="ij")

    def bump(center: float) -> Field:
        rsq = (coords[0] - center) ** 2 + sum(x**2 for x in coords[1:])
        return with_mass(Field(grid, np.exp(-rsq / (2.0 * width * width))), 0.5)

    left, right = bump(-separation / 2.0), bump(separation / 2.0)
    return Field(grid, left.values + right.values)


def nonneg(grid: Grid, seed: int) -> np.ndarray:
    """The real nonnegative unit-mass noise that the sweep pairs."""
    noise = band_limited_noise(grid, [seed], _RANDOM_KEEP_FRACTION)
    return _unit_mass(np.abs(noise.real), grid.cell_volume)[0]


def pairings(f: np.ndarray, g: np.ndarray, h: np.ndarray, grid: Grid) -> tuple[float, float]:
    """The triple pairing of the real fields ``f``, ``g``, ``h`` and that of
    their rearrangements, each through the sweep's helpers on a stack of one."""
    triple = [x[None] for x in (f, g, h)]
    lhs = _triple_product(*triple, grid)[0]
    rhs = _triple_product(*(_rearranged(x, grid) for x in triple), grid)[0]
    return float(lhs), float(rhs)


class TestRadialOrder:
    def test_is_a_permutation_starting_at_the_origin(self):
        grid = Grid(d=2, n=16, L=10.0)
        order = radial_order(grid)
        assert sorted(order) == list(range(grid.size))
        origin_flat = (grid.n // 2) * grid.n + grid.n // 2
        assert order[0] == origin_flat

    def test_distances_nondecreasing_along_the_order(self):
        grid = Grid(d=2, n=16, L=10.0)
        order = radial_order(grid)
        dist = grid.point_distance.ravel()[order]
        assert np.all(np.diff(dist) >= 0.0)

    def test_ties_resolved_by_index_tuple(self):
        grid = Grid(d=1, n=8, L=8.0)
        order = radial_order(grid)
        # distance 1 is shared by indices 3 and 5; the smaller index wins
        assert list(order[:3]) == [4, 3, 5]


class TestRearrangeExactProperties:
    def test_idempotent_bitwise(self):
        grid = Grid(d=2, n=32, L=20.0)
        u = random_band_limited(grid, seed=11)
        once = symmetric_rearrange(u)
        twice = symmetric_rearrange(once)
        assert np.array_equal(once.values, twice.values)

    def test_output_is_real_nonnegative_and_decreasing_along_order(self):
        grid = Grid(d=2, n=16, L=10.0)
        u = random_band_limited(grid, seed=12)
        out = symmetric_rearrange(u)
        assert np.max(np.abs(out.values.imag)) == 0.0
        assert np.min(out.values.real) >= 0.0
        along = out.values.real.ravel()[radial_order(grid)]
        assert np.all(np.diff(along) <= 0.0)

    def test_preserves_the_multiset_of_magnitudes(self):
        grid = Grid(d=2, n=32, L=20.0)
        for rep in range(5):
            u = random_band_limited(grid, seed=40 + rep)
            out = symmetric_rearrange(u)
            assert np.array_equal(
                np.sort(np.abs(u.values).ravel()), np.sort(out.values.real.ravel())
            )

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_preserves_lattice_p_norms(self, p):
        grid = Grid(d=2, n=16, L=10.0)
        u = random_band_limited(grid, seed=13)
        out = symmetric_rearrange(u)
        before = np.linalg.norm(np.abs(u.values).ravel(), ord=p)
        after = np.linalg.norm(out.values.real.ravel(), ord=p)
        assert after == pytest.approx(before, rel=1e-13, abs=0)

    def test_depends_only_on_magnitudes(self):
        grid = Grid(d=2, n=16, L=10.0)
        u = random_band_limited(grid, seed=14)
        rotated = Field(grid, np.exp(0.9j) * u.values)
        a = symmetric_rearrange(u)
        b = symmetric_rearrange(rotated)
        assert np.allclose(a.values, b.values, rtol=1e-14, atol=1e-16)


class TestSeminormContraction:
    def test_never_increases_over_random_population(self):
        grid = Grid(d=2, n=32, L=20.0)
        for rep in range(30):
            u = random_band_limited(grid, seed=500 + rep)
            s_in = np.sqrt(sobolev_seminorm_sq(u, ALPHA))
            s_out = np.sqrt(sobolev_seminorm_sq(symmetric_rearrange(u), ALPHA))
            assert s_out <= s_in * (1.0 + 1e-9)

    def test_strictly_decreases_for_separated_bumps(self):
        grid = Grid(d=2, n=32, L=20.0)
        u = two_bumps(grid, separation=10.0)
        s_in = np.sqrt(sobolev_seminorm_sq(u, ALPHA))
        s_out = np.sqrt(sobolev_seminorm_sq(symmetric_rearrange(u), ALPHA))
        assert (s_in - s_out) / s_in > 0.1


class TestRieszPairing:
    def test_rearranged_inputs_are_a_fixed_point(self):
        grid = Grid(d=2, n=16, L=10.0)
        f = symmetric_rearrange(Field(grid, nonneg(grid, 31))).values.real
        lhs, rhs = pairings(f, f, f, grid)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=0)

    def test_rearrangement_never_decreases_the_pairing(self):
        grid = Grid(d=2, n=32, L=20.0)
        for rep in range(30):
            f, g, h = (nonneg(grid, 700 + 3 * rep + i) for i in range(3))
            lhs, rhs = pairings(f, g, h, grid)
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_strict_gain_for_separated_bumps(self):
        grid = Grid(d=2, n=32, L=20.0)
        u = two_bumps(grid, separation=10.0).values.real
        lhs, rhs = pairings(u, u, u, grid)
        assert (rhs - lhs) / rhs > 0.1


def _unit_noise(n: int, seed: int, keep: float, real_part: bool) -> Field:
    """Unit-mass noise on the 1-D box of n points, complex or the magnitude
    of its real part."""
    grid = Grid(d=1, n=n, L=10.0)
    noise = band_limited_noise(grid, [seed], keep)
    return Field(grid, _unit_mass(np.abs(noise.real) if real_part else noise, grid.cell_volume)[0])


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.sampled_from([8, 16]),
    keep=st.sampled_from([_RANDOM_KEEP_FRACTION, NOISE_KEEP_FRACTION, 1.0]),
    real_part=st.booleans(),
)
def test_rearrange_properties_hold_for_arbitrary_fields(seed, n, keep, real_part):
    """The multiset and idempotence hold on every input.  The seminorm
    contraction is asserted at n = 16, where no input of this strategy
    breaks it (the worst excess is -1.0e-4); at n = 8 the lattice breaks it
    for 26 of the strategy's 120,012 inputs (see the next test)."""
    u = _unit_noise(n, seed, keep, real_part)
    out = symmetric_rearrange(u)
    assert np.array_equal(
        np.sort(np.abs(u.values).ravel()), np.sort(out.values.real.ravel())
    )
    assert np.array_equal(out.values, symmetric_rearrange(out).values)
    if n == 16:
        s_in = sobolev_seminorm_sq(u, ALPHA)
        s_out = sobolev_seminorm_sq(out, ALPHA)
        assert s_out <= s_in * (1.0 + 1e-9) + 1e-15


def test_rearranging_eight_sites_can_grow_the_seminorm():
    """A measured lattice effect, not a defect: the discrete Polya-Szego
    inequality fails on 8 sites.  The magnitude of the real part of the
    2/3-band noise of seed 2174 grows in squared seminorm by 4.76% under
    rearrangement; over the whole strategy above, 26 inputs fail, all at
    n = 8 and all real parts."""
    u = _unit_noise(8, 2174, NOISE_KEEP_FRACTION, real_part=True)
    out = symmetric_rearrange(u)
    excess = sobolev_seminorm_sq(out, ALPHA) / sobolev_seminorm_sq(u, ALPHA) - 1.0
    assert excess > 0.04


# The reference: one field at a time, through the n-D transforms and
# whole-array sums.  The blocked helpers act on the trailing axes of a stack
# one row at a time, so they must reproduce these bit for bit.


def _noise_ref(grid: Grid, seed: int, keep_fraction: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    m = np.fft.fftfreq(grid.n) * grid.n
    keep = np.abs(m) <= keep_fraction * (grid.n / 2.0)
    for axis in range(grid.d):
        view = [1] * grid.d
        view[axis] = grid.n
        coeff = coeff * keep.reshape(view)
    return np.fft.ifftn(coeff)


def _random_ref(grid: Grid, seed: int, kind: str = "complex") -> np.ndarray:
    vals = _noise_ref(grid, seed, 1.0 / 3.0)
    if kind == "nonneg":
        vals = np.abs(vals.real).astype(np.complex128)
    return vals / np.sqrt(np.sum(np.abs(vals) ** 2) * grid.cell_volume)


def _rearrange_ref(vals: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.empty(grid.size)
    out[radial_order(grid)] = np.sort(np.abs(vals).ravel())[::-1]
    return out.reshape(grid.shape).astype(np.complex128)


def _seminorm_ref(vals: np.ndarray, grid: Grid, alpha: float) -> float:
    weighted = grid.fractional_multiplier(alpha) * np.abs(np.fft.fftn(vals)) ** 2
    return float(np.sum(weighted) * (grid.cell_volume / grid.size))


def _triple_ref(f: np.ndarray, g: np.ndarray, h: np.ndarray, grid: Grid) -> float:
    shift = (-(grid.n // 2),) * grid.d
    g_disp = np.roll(g, shift=shift, axis=tuple(range(grid.d)))
    conv = np.fft.ifftn(np.fft.fftn(g_disp) * np.fft.fftn(h)).real
    return float(np.sum(f * conv)) * grid.cell_volume**2


def _riesz_ref(f, g, h, grid: Grid) -> tuple[float, float]:
    lhs = _triple_ref(f.real, g.real, h.real, grid)
    rhs = _triple_ref(*(_rearrange_ref(x, grid).real for x in (f, g, h)), grid)
    return lhs, rhs


def _sweep_field_by_field(grid, alpha, count, seed, pair_seed) -> SweepResult:
    changed = []
    worst_seminorm = -np.inf
    for r in range(count):
        u = _random_ref(grid, seed + r)
        out = _rearrange_ref(u, grid)
        if not np.array_equal(np.sort(np.abs(u).ravel()), np.sort(out.real.ravel())):
            changed.append(seed + r)
        s_in = np.sqrt(_seminorm_ref(u, grid, alpha))
        s_out = np.sqrt(_seminorm_ref(out, grid, alpha))
        worst_seminorm = max(worst_seminorm, (s_out - s_in) / s_in)
    worst_pairing = -np.inf
    for r in range(count):
        triple = (_random_ref(grid, pair_seed + 3 * r + i, "nonneg") for i in range(3))
        lhs, rhs = _riesz_ref(*triple, grid)
        worst_pairing = max(worst_pairing, (lhs - rhs) / abs(rhs))
    return SweepResult(changed, float(worst_seminorm), float(worst_pairing))


REFERENCE_GRIDS = [Grid(d=1, n=64, L=20.0), Grid(d=2, n=32, L=20.0), Grid(d=3, n=8, L=10.0)]


class TestBlockedAgainstFieldByField:
    @pytest.mark.parametrize(
        "d, n, L, count",
        [(1, 64, 20.0, 100), *((2, 32, 20.0, c) for c in (1, 3, 30, 100)), (3, 8, 10.0, 30)],
    )
    def test_sweep_is_bitwise_the_reference(self, d, n, L, count):
        """Counts 1, 3, 30 and 100 on 32^2 leave a partial last block."""
        grid = Grid(d=d, n=n, L=L)
        assert rearrangement_sweep(grid, ALPHA, count, 5, 10_005) == _sweep_field_by_field(
            grid, ALPHA, count, 5, 10_005
        )

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS)
    def test_per_field_functions_are_bitwise_the_reference(self, grid):
        for seed in range(3):
            for keep in (1.0 / 3.0, NOISE_KEEP_FRACTION, 1.0):
                # each slice of a stacked draw is bitwise its seed drawn alone
                pair = band_limited_noise(grid, [seed, seed + 10], keep)
                assert pair.shape == (2, *grid.shape)
                for noise, s in zip(pair, (seed, seed + 10)):
                    alone = band_limited_noise(grid, [s], keep)[0].tobytes()
                    assert noise.tobytes() == alone == _noise_ref(grid, s, keep).tobytes()
            assert nonneg(grid, seed).dtype == np.float64  # drawn real, not cast to complex
            draws = {
                "complex": random_band_limited(grid, seed),
                "nonneg": Field(grid, nonneg(grid, seed)),
            }
            for kind, u in draws.items():
                assert u.values.tobytes() == _random_ref(grid, seed, kind).tobytes()
                out = symmetric_rearrange(u)
                assert out.values.tobytes() == _rearrange_ref(u.values, grid).tobytes()
                for field in (u, out):
                    assert sobolev_seminorm_sq(field, ALPHA) == _seminorm_ref(
                        field.values, grid, ALPHA
                    )
            triple = [nonneg(grid, 3 * seed + i) for i in range(3)]
            assert pairings(*triple, grid) == _riesz_ref(*triple, grid)

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS)
    def test_perturb_is_bitwise_the_reference(self, grid):
        g = gaussian(grid, mass=1.0)
        w = _noise_ref(grid, 4, NOISE_KEEP_FRACTION)
        w = w * (1.0 / np.sqrt(mass(Field(grid, w)) + _seminorm_ref(w, grid, ALPHA)))
        expected = g.values + 0.01 * w
        assert perturb(g, ALPHA, 0.01, seed=4).values.tobytes() == expected.tobytes()


def test_sweep_memory_does_not_grow_with_the_count():
    """Blocks bound the sweep's memory: an unblocked sweep of 400 fields on
    32^2 would peak about 64 MiB above one of 4."""
    grid = Grid(d=2, n=32, L=20.0)
    rearrangement_sweep(grid, ALPHA, 1, 1, 2)  # caches the grid's tables

    def peak(count: int) -> int:
        tracemalloc.start()
        try:
            rearrangement_sweep(grid, ALPHA, count, 1, 10_001)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) - peak(4) < 2**20


@pytest.mark.parametrize("count", [0, -5])
def test_sweep_of_no_fields_is_refused(count):
    """A sweep of no fields tests nothing, so it must not pass."""
    with pytest.raises(ValueError, match="count"):
        rearrangement_sweep(Grid(d=2, n=16, L=10.0), ALPHA, count, 1, 2)


@pytest.mark.parametrize("count", [True, 2.5])
def test_a_sweep_count_must_be_an_integer(count):
    """A bool or a fractional count is not a number of fields."""
    with pytest.raises(ValueError, match=r"^count must be an integer >= 1 \(got "):
        rearrangement_sweep(Grid(d=2, n=16, L=10.0), ALPHA, count, 1, 2)


def test_a_layout_that_is_not_a_permutation_changes_every_field(monkeypatch):
    """The multiset check is made once per sweep, on the one site map that
    lays out every field: a map that puts one sorted magnitude on two sites
    and drops another fails every field of the sweep."""
    grid = Grid(d=2, n=16, L=10.0)
    source = rearrange_module._radial_source(grid).copy()
    source[source == 0] = 1
    monkeypatch.setattr(rearrange_module, "_radial_source", lambda g: source)
    sweep = rearrangement_sweep(grid, ALPHA, 6, 40, 50)
    assert sweep.changed == list(range(40, 46))
    assert not sweep.passed
