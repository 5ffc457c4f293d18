"""Complex scalar fields on a periodic grid, plus standard constructors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbort
from .grid import Grid, _axis_sum, _ifftn

__all__ = [
    "Field",
    "mass",
    "with_mass",
    "gaussian",
    "plane_wave",
    "band_limited_noise",
    "random_band_limited",
]


@dataclass
class Field:
    """A complex-valued sample array bound to its grid.

    ``values`` has shape ``grid.shape`` (row-major over axes) and dtype
    complex128.  A field times a number is the scaled field.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if vals.dtype != np.complex128:
            vals = vals.astype(np.complex128)
        self.values = np.ascontiguousarray(vals)

    def _check_same_grid(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __mul__(self, factor) -> "Field":
        """The field scaled by the number ``factor``."""
        return Field(self.grid, self.values * factor)


def _abs_sq(values: np.ndarray) -> np.ndarray:
    """``np.abs(values) ** 2``, a new real array; for a real ``values`` it is
    the one call ``np.square(values)``, bit for bit the same."""
    if values.dtype.kind == "f":
        return np.square(values)
    return np.abs(values) ** 2


def mass(u: Field) -> float:
    """``sum |u|^2 * cell_volume`` (squared L^2 norm)."""
    return float(np.sum(_abs_sq(u.values)) * u.grid.cell_volume)


def _mass_factor(values: np.ndarray, cell_volume: float, q: float) -> float:
    """``sqrt(q / m)`` for the mass ``m = sum |values|^2 * cell_volume``, real
    or complex: the factor that puts the samples on the mass sphere ``q``; a
    zero or non-finite mass raises :class:`NumericalAbort`."""
    m = float(np.sum(_abs_sq(values)) * cell_volume)
    if m == 0.0 or not math.isfinite(m):
        raise NumericalAbort(f"cannot rescale field with mass {m} to mass {q}")
    return math.sqrt(q / m)


def with_mass(u: Field, q: float) -> Field:
    """``u`` rescaled so that ``mass(u) == q``.  A negative or non-finite
    ``q`` raises ValueError; a zero or non-finite mass of ``u`` raises
    :class:`NumericalAbort`."""
    if not 0.0 <= q < np.inf:
        raise ValueError(f"target mass must be nonnegative and finite (got {q})")
    return u * _mass_factor(u.values, u.grid.cell_volume, q)


def gaussian(grid: Grid, width: float | None = None, mass: float | None = None) -> Field:
    """Real Gaussian bump ``exp(-|x|^2 / (2 width^2))`` centered at the
    coordinate origin (the box center).

    ``width`` defaults to ``L/8``.  If ``mass`` is given the result is
    rescaled to it by :func:`with_mass`.
    """
    w = grid.L / 8.0 if width is None else float(width)
    if not w > 0:
        raise ValueError(f"width must be positive (got {w})")
    rsq = _axis_sum([grid.axis_coords**2] * grid.d, grid.shape)
    vals = np.exp(-rsq / (2.0 * w * w)).astype(np.complex128)
    field = Field(grid, vals)
    return field if mass is None else with_mass(field, mass)


def plane_wave(grid: Grid, mode: tuple[int, ...]) -> Field:
    """Lattice plane wave ``exp(i k . x)`` with ``k = 2*pi*mode/L``.

    ``mode`` has one integer per axis; modes are aliased modulo ``n``, so
    distinct waves correspond to components in ``-n/2 .. n/2 - 1``.
    """
    m = tuple(int(c) for c in mode)
    if len(m) != grid.d:
        raise ValueError("mode must have one integer per axis")
    phase = _axis_sum(
        [(2.0 * np.pi * m[axis] / grid.L) * grid.axis_coords for axis in range(grid.d)],
        grid.shape,
    )
    return Field(grid, np.exp(1j * phase))


def _band_limited_noise(grid: Grid, seeds: list[int], keep_fraction: float) -> np.ndarray:
    """:func:`band_limited_noise` for each of ``seeds``, stacked in that order
    on a leading axis: shape ``(len(seeds), *grid.shape)``.

    Each seed draws from its own generator, and every operation acts on the
    trailing axes one row at a time, so each slice is bitwise the
    single-seed noise.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must lie in (0, 1] (got {keep_fraction})")
    draws = np.empty((len(seeds), 2) + grid.shape)
    for parts, seed in zip(draws, seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=parts[0])
        rng.standard_normal(out=parts[1])
    coeff = draws[:, 0] + 1j * draws[:, 1]
    m = np.fft.fftfreq(grid.n) * grid.n
    keep = np.abs(m) <= keep_fraction * (grid.n / 2.0)
    for axis in range(1, grid.d + 1):
        view = [1] * (grid.d + 1)
        view[axis] = grid.n
        coeff *= keep.reshape(view)
    return _ifftn(coeff, grid.d, out=coeff)


def band_limited_noise(grid: Grid, seed: int, keep_fraction: float) -> np.ndarray:
    """Seeded complex noise with Fourier support in the low modes.

    Fourier coefficients are i.i.d. standard complex normals on the modes
    whose per-axis index satisfies ``|m| <= keep_fraction * (n/2)``; all
    other modes are zeroed.  Returns the unnormalized inverse transform.
    """
    return _band_limited_noise(grid, [seed], keep_fraction)[0]


def _unit_mass(vals: np.ndarray, cell_volume: float) -> np.ndarray:
    """Each field of the real or complex stack ``vals`` scaled to unit L^2
    norm, in place; a zero norm raises ValueError.  The scaling multiplies
    by ``1 / norm``, which is what NumPy's division of a complex array by a
    real one computes."""
    norm_sq = _abs_sq(vals).reshape(len(vals), -1).sum(axis=1) * cell_volume
    if np.any(norm_sq == 0.0):
        raise ValueError("degenerate random field (all retained modes zero)")
    vals *= (1.0 / np.sqrt(norm_sq)).reshape((-1,) + (1,) * (vals.ndim - 1))
    return vals


def _random_band_limited(grid: Grid, seeds: list[int], kind: str) -> np.ndarray:
    """The values of :func:`random_band_limited` for each of ``seeds``,
    stacked in that order on a leading axis.  ``kind`` "nonneg" takes the
    absolute value of the real part before the normalization and returns a
    real stack: the rearrangement inputs."""
    if kind not in ("complex", "nonneg"):
        raise ValueError(f"unknown kind {kind!r}")
    vals = _band_limited_noise(grid, seeds, 1.0 / 3.0)
    if kind == "nonneg":
        vals = np.abs(vals.real)
    return _unit_mass(vals, grid.cell_volume)


def random_band_limited(grid: Grid, seed: int) -> Field:
    """:func:`band_limited_noise` with ``keep_fraction = 1/3``, normalized to unit mass."""
    return Field(grid, _random_band_limited(grid, [seed], "complex")[0])
