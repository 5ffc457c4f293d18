"""Complex scalar fields on a periodic grid, plus standard constructors."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbort
from .grid import Grid, _check_real, _ifftn

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
    m = float(_abs_sq(values).sum() * cell_volume)
    if m == 0.0 or not math.isfinite(m):
        raise NumericalAbort(f"cannot rescale field with mass {m} to mass {q}")
    return math.sqrt(q / m)


def with_mass(u: Field, q: float) -> Field:
    """``u`` rescaled so that ``mass(u) == q``.  A ``q`` other than a
    nonnegative finite real number raises ValueError; a zero or non-finite
    mass of ``u`` raises :class:`NumericalAbort`."""
    _check_real(q, "q", "nonnegative")
    return u * _mass_factor(u.values, u.grid.cell_volume, q)


def gaussian(grid: Grid, width: float | None = None, mass: float | None = None) -> Field:
    """Real Gaussian bump ``exp(-|x|^2 / (2 width^2))`` centered at the
    coordinate origin (the box center).

    ``width`` defaults to ``L/8``.  If ``mass`` is given the result is
    rescaled to it by :func:`with_mass`.
    """
    if width is not None:
        _check_real(width, "width")
    if mass is not None:
        _check_real(mass, "mass", "nonnegative")
    w = grid.L / 8.0 if width is None else float(width)
    rsq = sum(np.ix_(*[grid.axis_coords**2] * grid.d))
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
    phase = sum(np.ix_(*[(2.0 * np.pi * c / grid.L) * grid.axis_coords for c in m]))
    return Field(grid, np.exp(1j * phase))


_RANDOM_KEEP_FRACTION = 1.0 / 3.0  # band limit of random_band_limited and the sweep


def band_limited_noise(grid: Grid, seeds: list[int], keep_fraction: float) -> np.ndarray:
    """Seeded complex noise with Fourier support in the low modes, one field
    per seed: shape ``(len(seeds), *grid.shape)``.

    The coefficients are i.i.d. standard complex normals from
    ``default_rng(seed)`` on the modes whose per-axis index satisfies ``|m|
    <= keep_fraction * (n/2)``, zero elsewhere; returns their unnormalized
    inverse transforms.  Each slice is bitwise the draw of its seed alone.
    The modes are selected by one product with the outer product of the
    per-axis masks, cast to complex, in place of ``d`` products with the
    per-axis masks: a drawn coefficient is never zero, so ``1 + 0j`` returns
    it unchanged, and a discarded one may only be a zero of the other sign,
    which changes no nonzero sample.
    """
    _check_real(keep_fraction, "keep_fraction", None)
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
    coeff *= functools.reduce(np.multiply.outer, [keep] * grid.d).astype(complex)
    return _ifftn(coeff, grid.d, out=coeff)


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


def random_band_limited(grid: Grid, seed: int) -> Field:
    """One :func:`band_limited_noise` draw on the lowest third of the modes, at unit mass."""
    noise = band_limited_noise(grid, [seed], _RANDOM_KEEP_FRACTION)
    return Field(grid, _unit_mass(noise, grid.cell_volume)[0])
