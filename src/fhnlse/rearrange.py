"""Discrete symmetric-decreasing rearrangement and related functionals.

The lattice analogue of symmetric-decreasing rearrangement sorts the field
magnitudes in decreasing order and lays them out along the *radial order*:
lattice sites sorted by minimum-image distance to the origin, with exact
ties broken lexicographically by index tuple.  The result depends only on
the multiset of magnitudes, is idempotent, and preserves every lattice
l^p norm exactly (it is a permutation of ``|u|``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .fields import Field, random_band_limited
from .grid import Grid
from .spectral import sobolev_seminorm_sq

__all__ = [
    "radial_order",
    "symmetric_rearrange",
    "riesz_check",
    "rearrangement_sweep",
    "SweepResult",
]


@lru_cache(maxsize=None)
def radial_order(grid: Grid) -> np.ndarray:
    """Flat site indices sorted by (min-image distance to origin, index tuple).

    The distance uses the centered coordinates, whose origin is the lattice
    point at index ``n//2`` per axis; the lexicographic tie-break makes the
    order fully deterministic.
    """
    dist = grid.point_distance.ravel()
    idx = np.indices(grid.shape).reshape(grid.d, grid.size)
    # np.lexsort sorts by the last key first: distance is primary, then the
    # index tuple in lexicographic order.
    keys = tuple(idx[a] for a in reversed(range(grid.d))) + (dist,)
    order = np.lexsort(keys)
    order.flags.writeable = False
    return order


def symmetric_rearrange(u: Field) -> Field:
    """Magnitudes of ``u`` sorted decreasingly along the radial order.

    Returns a real nonnegative field (stored as complex, zero imaginary
    part).  Applying the map twice reproduces the first output exactly.
    """
    order = radial_order(u.grid)
    mags = np.sort(np.abs(u.values).ravel())[::-1]
    out = np.empty(u.grid.size)
    out[order] = mags
    return Field(u.grid, out.reshape(u.grid.shape))


def _to_displacement_layout(vals: np.ndarray) -> np.ndarray:
    """Re-index a centered-layout array by displacement: entry ``m`` becomes
    the value at position ``m*h`` (aliased)."""
    n = vals.shape[0]
    return np.roll(vals, shift=(-(n // 2),) * vals.ndim, axis=tuple(range(vals.ndim)))


def _triple_product(f: np.ndarray, g: np.ndarray, h: np.ndarray, grid: Grid) -> float:
    """``sum_x sum_y f(x) g(x - y) h(y) cell_volume^2`` on the torus."""
    g_disp = _to_displacement_layout(g)
    conv = np.fft.ifftn(np.fft.fftn(g_disp) * np.fft.fftn(h)).real
    return float(np.sum(f * conv)) * grid.cell_volume**2


def riesz_check(f: Field, g: Field, h: Field) -> tuple[float, float]:
    """Triple convolution pairing before and after rearrangement.

    Returns ``(lhs, rhs)`` with ``lhs = sum f(x) g(x-y) h(y)`` and ``rhs``
    the same pairing with every factor replaced by its symmetric-decreasing
    rearrangement.  Inputs must be real nonnegative fields on one grid.
    """
    f._check_same_grid(g)
    f._check_same_grid(h)
    arrays = []
    for name, field in (("f", f), ("g", g), ("h", h)):
        vals = field.values
        if np.max(np.abs(vals.imag)) != 0.0 or np.min(vals.real) < 0.0:
            raise ValueError(f"riesz_check requires real nonnegative fields ({name} is not)")
        arrays.append(vals.real)
    grid = f.grid
    lhs = _triple_product(arrays[0], arrays[1], arrays[2], grid)
    stars = [symmetric_rearrange(x).values.real for x in (f, g, h)]
    rhs = _triple_product(stars[0], stars[1], stars[2], grid)
    return lhs, rhs


@dataclass(frozen=True)
class SweepResult:
    """Outcome of :func:`rearrangement_sweep`.

    ``changed`` lists the seeds whose magnitude multiset changed;
    ``worst_seminorm`` is the worst relative seminorm excess
    ``(s_out - s_in) / s_in`` and ``worst_pairing`` the worst relative
    pairing excess ``(lhs - rhs) / |rhs|``.  Both excesses are negative when
    the inequalities hold strictly; the sweep passes when no multiset
    changed and neither excess exceeds ``slack``.
    """

    slack: ClassVar[float] = 1e-9  # roundoff allowance on either excess

    changed: list[int]
    worst_seminorm: float
    worst_pairing: float

    @property
    def passed(self) -> bool:
        return (
            not self.changed
            and self.worst_seminorm <= self.slack
            and self.worst_pairing <= self.slack
        )


def rearrangement_sweep(
    grid: Grid, alpha: float, count: int, seed: int, pair_seed: int
) -> SweepResult:
    """Test the rearrangement inequalities on ``count`` random fields.

    Fields with seeds ``seed + r`` must keep their magnitude multiset and
    must not grow in the H^alpha-dot seminorm under rearrangement; the
    nonnegative triples with seeds ``pair_seed + 3r + (0, 1, 2)`` must not
    lose triple pairing.
    """
    changed = []
    worst_seminorm = -np.inf
    for r in range(count):
        u = random_band_limited(grid, seed=seed + r)
        out = symmetric_rearrange(u)
        if not np.array_equal(
            np.sort(np.abs(u.values).ravel()), np.sort(out.values.real.ravel())
        ):
            changed.append(seed + r)
        s_in = np.sqrt(sobolev_seminorm_sq(u, alpha))
        s_out = np.sqrt(sobolev_seminorm_sq(out, alpha))
        worst_seminorm = max(worst_seminorm, (s_out - s_in) / s_in)
    worst_pairing = -np.inf
    for r in range(count):
        f, g, h = (
            random_band_limited(grid, seed=pair_seed + 3 * r + i, kind="nonneg")
            for i in range(3)
        )
        lhs, rhs = riesz_check(f, g, h)
        worst_pairing = max(worst_pairing, (lhs - rhs) / abs(rhs))
    return SweepResult(changed, float(worst_seminorm), float(worst_pairing))
