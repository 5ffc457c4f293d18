"""Discrete symmetric-decreasing rearrangement and related functionals.

The lattice analogue of symmetric-decreasing rearrangement sorts the field
magnitudes in decreasing order and lays them out along the *radial order*:
lattice sites sorted by minimum-image distance to the origin, with exact
ties broken lexicographically by index tuple.  The result depends only on
the multiset of magnitudes, is idempotent, and preserves every lattice
l^p norm exactly (it is a permutation of ``|u|``).

Every piece works on a stack of fields of shape ``(B, n, ..., n)``, with
each operation over the trailing ``d`` axes: the one noise draw,
:func:`~fhnlse.fields.band_limited_noise`, and the unit-mass normalisation
of its fields or of the magnitudes of their real parts, the rearrangement,
the seminorm (:mod:`fhnlse.spectral`) and the triple pairing.  The
per-field functions are their batch-of-one callers.  Each field still
draws from its own ``default_rng(seed)``, and NumPy's 1-D transforms,
sorts and row sums act on every row alike, so a slice of a stack is bit
for bit the field computed alone.

:func:`rearrangement_sweep` draws and tests its fields ``B =
max(1, _BLOCK_BYTES // (16 * grid.size))`` at a time: one call per step for
a block instead of one per field, with memory bounded by the block, not the
count.  The multiset check runs once per sweep, not per field: every field
is laid out through one site map, so it checks that the map is a
permutation.  An unblocked sweep of 100 fields on 32^2 peaks about 16 MiB higher.
The 64 KiB budget gives B = 4 on 32^2 and B = 1 from 64^2 up.  Measured on
a 2-CPU Xeon with NumPy 2.4.6, by budget: the sweep's CPU time as a
fraction of the field-by-field sweep's (medians of 8 interleaved runs),
and the extra peak RSS of a ``checks`` benchmark process, whose sweeps are
32^2 (medians of 3):

=======  ==========  =========  ==========  ==========  =======
budget   32^2 x100   32^2 x30   64^2 x100   128^2 x20   RSS MiB
=======  ==========  =========  ==========  ==========  =======
16 KiB   1.02        0.92       1.01        0.82        +0.0
32 KiB   0.72        0.68       0.96        0.85        -0.1
64 KiB   0.55        0.56       0.94        0.87        +0.4
128 KiB  0.55        0.45       0.88        0.93        +1.0
256 KiB  0.51        0.47       0.77        0.91        +2.4
=======  ==========  =========  ==========  ==========  =======

Past 64 KiB the 32^2 sweeps gain little and the RSS grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .fields import _RANDOM_KEEP_FRACTION, Field, _unit_mass, band_limited_noise
from .grid import Grid, _fftn, _frozen, _ifftn, _is_int
from .spectral import _seminorm_sq

__all__ = [
    "symmetric_rearrange",
    "rearrangement_sweep",
    "SweepResult",
]

# Bytes of complex samples per block of the sweep: one block holds
# ``_BLOCK_BYTES // (16 * grid.size)`` fields, at least one.
_BLOCK_BYTES = 64 * 1024


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
    return _frozen(np.lexsort(keys))


@lru_cache(maxsize=None)
def _radial_source(grid: Grid) -> np.ndarray:
    """For each flat site, the index in the increasing sort of a field's
    magnitudes that the rearrangement puts there: the site
    ``radial_order(grid)[j]`` takes the ``j``-th largest, at ``size - 1 - j``."""
    source = np.empty(grid.size, dtype=np.intp)
    source[radial_order(grid)] = np.arange(grid.size - 1, -1, -1)
    return _frozen(source)


def _rearranged(values: np.ndarray, grid: Grid) -> np.ndarray:
    """The rearrangement of each field of the stack ``values`` (shape
    ``(B, *grid.shape)``, real or complex): a real array of that shape."""
    mags = np.sort(np.abs(values).reshape(len(values), -1), axis=1)
    return mags.take(_radial_source(grid), axis=1).reshape(values.shape)


def symmetric_rearrange(u: Field) -> Field:
    """Magnitudes of ``u`` sorted decreasingly along the radial order.

    Returns a real nonnegative field (stored as complex, zero imaginary
    part).  Applying the map twice reproduces the first output exactly.
    """
    return Field(u.grid, _rearranged(u.values[None], u.grid)[0])


def _triple_product(f: np.ndarray, g: np.ndarray, h: np.ndarray, grid: Grid) -> np.ndarray:
    """``sum_x sum_y f(x) g(x - y) h(y) cell_volume^2`` on the torus, for each
    field of the real stacks ``f``, ``g``, ``h`` (shape ``(B, *grid.shape)``).

    ``g`` is first re-indexed by displacement: entry ``m`` becomes the value
    at position ``m*h`` (aliased), the centered layout rolled by ``n//2``.
    """
    d = grid.d
    g_disp = np.roll(g, -(grid.n // 2), axis=tuple(range(-d, 0)))
    conv = _fftn(g_disp, d)
    conv *= _fftn(h, d)
    _ifftn(conv, d, out=conv)
    return (f * conv.real).reshape(len(f), -1).sum(axis=1) * grid.cell_volume**2


@dataclass(frozen=True)
class SweepResult:
    """Outcome of :func:`rearrangement_sweep`.

    ``changed`` lists the seeds whose magnitude multiset changed;
    ``worst_seminorm`` is the worst relative seminorm excess
    ``(s_out - s_in) / s_in`` and ``worst_pairing`` the worst relative
    pairing excess ``(lhs - rhs) / |rhs|``, with ``lhs`` the triple pairing
    of a nonnegative triple and ``rhs`` that of its rearrangement.  Both
    excesses are negative when the inequalities hold strictly; the sweep
    passes when no multiset changed and neither excess exceeds ``slack``.
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
    lose triple pairing.  The fields are drawn and tested in blocks of
    indices ``r`` (see the module docstring); the result does not depend on
    the block size.  A ``count`` other than an integer >= 1 raises
    ValueError: a sweep of no fields tests nothing.
    """
    if not _is_int(count) or count < 1:
        raise ValueError(f"count must be an integer >= 1 (got {count})")
    block = max(1, _BLOCK_BYTES // (16 * grid.size))
    # the multiset check: every field is laid out through the one site map
    # _radial_source, so each keeps its magnitudes exactly if that map is a
    # permutation, and otherwise every field counts as changed
    source = _radial_source(grid)
    if np.array_equal(np.sort(source), np.arange(grid.size)):
        changed = []
    else:
        changed = [seed + r for r in range(count)]
    seminorm_excess = []
    pairing_excess = []
    for start in range(0, count, block):
        rs = range(start, min(start + block, count))
        u = _unit_mass(
            band_limited_noise(grid, [seed + r for r in rs], _RANDOM_KEEP_FRACTION),
            grid.cell_volume,
        )
        out = _rearranged(u, grid)
        s_in = np.sqrt(_seminorm_sq(_fftn(u, grid.d), grid, alpha))
        s_out = np.sqrt(_seminorm_sq(_fftn(out, grid.d), grid, alpha))
        seminorm_excess += ((s_out - s_in) / s_in).tolist()
        del u, out  # freed before the triples are drawn: a lower peak
        triple = [
            _unit_mass(
                np.abs(band_limited_noise(grid, seeds, _RANDOM_KEEP_FRACTION).real),
                grid.cell_volume,
            )
            for seeds in ([pair_seed + 3 * r + i for r in rs] for i in range(3))
        ]
        lhs = _triple_product(*triple, grid)
        rhs = _triple_product(*(_rearranged(x, grid) for x in triple), grid)
        pairing_excess += ((lhs - rhs) / np.abs(rhs)).tolist()
    # np.max propagates a NaN excess, which then fails the sweep; max() would drop it
    return SweepResult(
        changed, float(np.max(seminorm_excess)), float(np.max(pairing_excess))
    )
