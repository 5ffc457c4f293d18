"""Periodic box discretization and physical parameter records.

A :class:`Grid` describes a uniform periodic lattice on the box
``[-L/2, L/2)^d`` with ``n`` points per axis.  The coordinate origin sits on
the lattice (index ``n // 2`` along every axis), wavenumbers follow the
standard aliased FFT ordering ``k_m = 2*pi*m/L`` with
``m in {-n/2, ..., n/2 - 1}``, and displacement lattices are reduced to the
minimum image (every component in ``[-L/2, L/2)``).

Every transform of a field runs as 1-D passes, one lattice axis at a time,
through NumPy's own pocketfft gufuncs, bound once here (``_POCKETFFT``)
and called by the one pass helper ``_pass`` with a precomputed ``axes=``
argument and an explicit scale factor.  Each pass is the very call that
``numpy.fft``'s 1-D function makes, without its per-call wrapper, so
every result is bit for bit NumPy's.  ``_dft_trailing`` strings the
passes into the complex n-D transforms over the lattice axes of a field
or a stack of fields; ``kernel.rfft_passes``/``irfft_passes`` into the
real pair, and ``dynamics`` into the unnormalized pair of its Strang step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath

__all__ = ["Grid", "PhysicsParams"]


def _axis_sum(per_axis: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Broadcast 1-D per-axis arrays to the full lattice and sum them."""
    out = np.zeros(shape)
    for axis, arr in enumerate(per_axis):
        view = [1] * len(shape)
        view[axis] = shape[axis]
        out = out + arr.reshape(view)
    return out


def _trailing_axes(grid: "Grid") -> tuple[int, ...]:
    """The last ``grid.d`` axes, in order: the lattice axes of a stack of
    fields of shape ``(B, *grid.shape)``, or of one field."""
    return tuple(range(-grid.d, 0))


# NumPy's own 1-D pocketfft gufuncs, the objects that ``numpy.fft``'s
# functions call (NumPy >= 2.0).  Each transforms along the one axis named
# by its ``axes=`` argument, scales by an explicit factor ``fct`` and
# writes to ``out``; calling it directly skips the per-call Python wrapper
# (norm handling, axis normalization, output allocation).  The last axis
# of a lattice has an even number of points, so ``rfft_n_even`` serves.
# Every per-axis pass goes through :func:`_pass`.
_POCKETFFT = {
    "fft": _pocketfft_umath.fft,
    "ifft": _pocketfft_umath.ifft,
    "rfft": _pocketfft_umath.rfft_n_even,
    "irfft": _pocketfft_umath.irfft,
}

# the gufuncs' ``axes=`` argument for a pass along lattice axis -1, -2 or -3
_PASS_AXES = {axis: [(axis,), (), (axis,)] for axis in (-1, -2, -3)}


def _pass(kind: str, a: np.ndarray, axis: int, fct: float, out: np.ndarray) -> np.ndarray:
    """One 1-D transform (``kind`` one of ``"fft"``, ``"ifft"``, ``"rfft"``,
    ``"irfft"``) of ``a`` along ``axis``, scaled by ``fct`` and written to
    ``out``, which may be ``a`` for the complex kinds.  The gufunc call that
    ``np.fft.<kind>(a, axis=axis, out=out)`` makes for the norm whose factor
    is ``fct``, so bit for bit its result."""
    return _POCKETFFT[kind](a, fct, axes=_PASS_AXES[axis], out=out)


def _dft_trailing(a: np.ndarray, grid: "Grid", inverse: bool = False) -> np.ndarray:
    """``np.fft.fftn(a, axes=_trailing_axes(grid))``, or ``ifftn`` if
    ``inverse``, bit for bit, overwriting the complex array ``a``: the 1-D
    passes that ``fftn`` makes, last axis first, each inverse pass scaled by
    ``1/n`` as in ``ifftn``."""
    kind, fct = ("ifft", 1.0 / grid.n) if inverse else ("fft", 1.0)
    for axis in reversed(_trailing_axes(grid)):
        _pass(kind, a, axis, fct, a)
    return a


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[-L/2, L/2)^d``.

    Parameters
    ----------
    d : spatial dimension, one of {1, 2, 3}
    n : points per axis; a power of two, at least 8
    L : box edge length (> 0)
    """

    d: int
    n: int
    L: float

    def __post_init__(self) -> None:
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3 (got {self.d})")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8 (got {self.n})")
        if not 0 < self.L < np.inf:
            raise ValueError(f"L must be positive and finite (got {self.L})")
        object.__setattr__(self, "L", float(self.L))

    # -- scalar geometry -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def h(self) -> float:
        """Lattice spacing."""
        return self.L / self.n

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    # -- per-axis lattices -----------------------------------------------
    @cached_property
    def axis_coords(self) -> np.ndarray:
        """Coordinates ``-L/2 + j*h`` for ``j = 0..n-1``."""
        return _frozen(-0.5 * self.L + self.h * np.arange(self.n))

    @cached_property
    def axis_offsets(self) -> np.ndarray:
        """Minimum-image displacements ``m*h`` in aliased FFT ordering."""
        m = np.fft.fftfreq(self.n) * self.n  # exact integers, aliased order
        return _frozen(m * self.h)

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        """Wavenumbers ``2*pi*m/L`` in aliased FFT ordering."""
        return _frozen(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h))

    # -- full lattices ---------------------------------------------------
    @cached_property
    def k_squared(self) -> np.ndarray:
        """``|k|^2`` on the full wavenumber lattice (zero mode -> 0)."""
        ksq = [self.axis_wavenumbers**2] * self.d
        return _frozen(_axis_sum(ksq, self.shape))

    @cached_property
    def offset_distance(self) -> np.ndarray:
        """Minimum-image distance to the origin, displacement (FFT) layout."""
        sq = [self.axis_offsets**2] * self.d
        return _frozen(np.sqrt(_axis_sum(sq, self.shape)))

    @cached_property
    def point_distance(self) -> np.ndarray:
        """Minimum-image distance of each grid point to the coordinate origin."""
        sq = [self.axis_coords**2] * self.d
        return _frozen(np.sqrt(_axis_sum(sq, self.shape)))

    @cached_property
    def _multipliers(self) -> dict[float, np.ndarray]:
        return {}

    def fractional_multiplier(self, alpha: float) -> np.ndarray:
        """Fourier multiplier ``|k|^(2*alpha)`` (zero mode maps to 0).

        Computed once per ``alpha`` and returned read-only thereafter.
        """
        if not alpha > 0:
            raise ValueError(f"alpha must be positive (got {alpha})")
        mult = self._multipliers.get(alpha)
        if mult is None:
            mult = self._multipliers[alpha] = _frozen(self.k_squared**alpha)
        return mult


@dataclass(frozen=True)
class PhysicsParams:
    """Model parameters: fractional exponent ``alpha`` and kernel decay ``gamma``.

    The admissible region is ``0 < alpha < 1`` and
    ``0 < gamma < min(2*alpha, d)``: the upper bound ``2*alpha`` keeps the
    problem mass-subcritical (energy bounded below on a mass sphere), and
    ``gamma < d`` keeps the interaction kernel locally integrable.
    """

    alpha: float
    gamma: float
    d: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3 (got {self.d})")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(
                f"alpha must satisfy 0 < alpha < 1 (got alpha={self.alpha})"
            )
        if not (0.0 < self.gamma < 2.0 * self.alpha):
            raise ValueError(
                "gamma must satisfy 0 < gamma < 2*alpha (mass-subcritical "
                f"regime); got gamma={self.gamma}, 2*alpha={2.0 * self.alpha}"
            )
        if not (self.gamma < self.d):
            raise ValueError(
                f"gamma must be smaller than the dimension (got gamma={self.gamma}, d={self.d})"
            )
