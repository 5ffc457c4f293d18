"""Symmetric-decreasing rearrangement: exact permutation properties,
seminorm contraction, and the triple-convolution inequality, including
strict cases and randomized property checks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fhnlse import (
    Field,
    Grid,
    radial_order,
    random_band_limited,
    riesz_check,
    sobolev_seminorm_sq,
    symmetric_rearrange,
)
from fhnlse.fields import with_mass

ALPHA = 0.6


def two_bumps(grid: Grid, separation: float, width: float = 1.5) -> Field:
    """Gaussians of mass 1/2 each, centered at -+separation/2 on the first axis."""
    coords = np.meshgrid(*[grid.axis_coords] * grid.d, indexing="ij")

    def bump(center: float) -> Field:
        rsq = (coords[0] - center) ** 2 + sum(x**2 for x in coords[1:])
        return with_mass(Field(grid, np.exp(-rsq / (2.0 * width * width))), 0.5)

    left, right = bump(-separation / 2.0), bump(separation / 2.0)
    return Field(grid, left.values + right.values)


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
        f = symmetric_rearrange(random_band_limited(grid, seed=31, kind="nonneg"))
        lhs, rhs = riesz_check(f, f, f)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=0)

    def test_rearrangement_never_decreases_the_pairing(self):
        grid = Grid(d=2, n=32, L=20.0)
        for rep in range(30):
            f = random_band_limited(grid, seed=700 + 3 * rep, kind="nonneg")
            g = random_band_limited(grid, seed=701 + 3 * rep, kind="nonneg")
            h = random_band_limited(grid, seed=702 + 3 * rep, kind="nonneg")
            lhs, rhs = riesz_check(f, g, h)
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_strict_gain_for_separated_bumps(self):
        grid = Grid(d=2, n=32, L=20.0)
        u = two_bumps(grid, separation=10.0)
        lhs, rhs = riesz_check(u, u, u)
        assert (rhs - lhs) / rhs > 0.1

    def test_rejects_complex_or_negative_inputs(self):
        grid = Grid(d=2, n=16, L=10.0)
        good = random_band_limited(grid, seed=41, kind="nonneg")
        complex_field = random_band_limited(grid, seed=42)
        negative = Field(grid, -good.values)
        with pytest.raises(ValueError, match="nonnegative"):
            riesz_check(complex_field, good, good)
        with pytest.raises(ValueError, match="nonnegative"):
            riesz_check(good, negative, good)

    def test_rejects_mismatched_grids(self):
        a = random_band_limited(Grid(d=2, n=16, L=10.0), seed=1, kind="nonneg")
        b = random_band_limited(Grid(d=2, n=16, L=12.0), seed=1, kind="nonneg")
        with pytest.raises(ValueError, match="different grids"):
            riesz_check(a, b, a)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.sampled_from([8, 16]),
    kind=st.sampled_from(["complex", "nonneg"]),
)
def test_rearrange_properties_hold_for_arbitrary_fields(seed, n, kind):
    grid = Grid(d=1, n=n, L=10.0)
    u = random_band_limited(grid, seed=seed, kind=kind)
    out = symmetric_rearrange(u)
    assert np.array_equal(
        np.sort(np.abs(u.values).ravel()), np.sort(out.values.real.ravel())
    )
    assert np.array_equal(out.values, symmetric_rearrange(out).values)
    s_in = sobolev_seminorm_sq(u, ALPHA)
    s_out = sobolev_seminorm_sq(out, ALPHA)
    assert s_out <= s_in * (1.0 + 1e-9) + 1e-15
