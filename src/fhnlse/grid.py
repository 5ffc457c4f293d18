"""Periodic box discretization and physical parameter records.

A :class:`Grid` describes a uniform periodic lattice on the box
``[-L/2, L/2)^d`` with ``n`` points per axis.  The coordinate origin sits on
the lattice (index ``n // 2`` along every axis), wavenumbers follow the
standard aliased FFT ordering ``k_m = 2*pi*m/L`` with
``m in {-n/2, ..., n/2 - 1}``, and displacement lattices are reduced to the
minimum image (every component in ``[-L/2, L/2)``).

Every DFT of a field, or of a stack of fields of shape ``(B, *shape)``,
goes through four helpers of this module, each over the **last ``d``
axes** of its argument and bit for bit NumPy's n-D function on them:
``_fftn``, ``_ifftn``, ``_rfftn`` and ``_irfftn`` (``np.fft.fftn``,
``ifftn``, ``rfftn`` and ``irfftn`` with ``axes=range(-d, 0)``).  Each
strings 1-D passes, in the axis order of NumPy's n-D function, through the
one pass helper ``_pass``, which calls NumPy's own pocketfft gufunc
(``_POCKETFFT``) with a precomputed ``axes=`` argument (none for the
last axis, the gufunc's default) and an explicit scale factor: the call
``numpy.fft``'s 1-D function makes, without its per-call wrapper.  An
inverse is ``scaled`` by default, each pass by one over its length as in
NumPy's default norm; ``scaled=False`` leaves every pass unscaled, NumPy's
``norm="forward"``, for a caller that folds the ``1/N`` into a factor of
its own (``N`` is a power of two, so the folded scaling is exact).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath

__all__ = ["Grid", "PhysicsParams"]


# NumPy's own 1-D pocketfft gufuncs, the objects that ``numpy.fft``'s
# functions call (NumPy >= 2.0).  Each transforms along the one axis named
# by its ``axes=`` argument, the last by default, scales by an explicit
# factor ``fct`` and writes to ``out``; calling it directly skips the
# per-call Python wrapper (norm handling, axis normalization, output
# allocation).  The last axis of a lattice has an even number of points,
# so ``rfft_n_even`` serves.  Every per-axis pass goes through
# :func:`_pass`, and only the four n-D helpers below call it.
_POCKETFFT = {
    "fft": _pocketfft_umath.fft,
    "ifft": _pocketfft_umath.ifft,
    "rfft": _pocketfft_umath.rfft_n_even,
    "irfft": _pocketfft_umath.irfft,
}

# the gufuncs' ``axes=`` argument for a pass along lattice axis -2 or -3
_PASS_AXES = {axis: [(axis,), (), (axis,)] for axis in (-2, -3)}


def _pass(kind: str, a: np.ndarray, axis: int, fct: float, out: np.ndarray) -> np.ndarray:
    """One 1-D transform (``kind`` one of ``"fft"``, ``"ifft"``, ``"rfft"``,
    ``"irfft"``) of ``a`` along ``axis``, scaled by ``fct`` and written to
    ``out``, which may be ``a`` for the complex kinds.  The gufunc call that
    ``np.fft.<kind>(a, axis=axis, out=out)`` makes for the norm whose factor
    is ``fct``, so bit for bit its result.  A last-axis pass passes no
    ``axes=``: the gufunc's default core axis is the last."""
    if axis == -1:
        return _POCKETFFT[kind](a, fct, out)
    return _POCKETFFT[kind](a, fct, out, axes=_PASS_AXES[axis])


def _fftn(a: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.fftn(a, axes=range(-d, 0))``, bit for bit, of a real or
    complex ``a``: ``fft`` passes, last axis first, the first from ``a``
    into ``out`` (a new complex array if None; it may be ``a``) and the
    rest in place."""
    if out is None:
        out = np.empty(a.shape, dtype=complex)
    for axis in range(-1, -d - 1, -1):
        _pass("fft", a, axis, 1.0, out)
        a = out
    return out


def _ifftn(
    a: np.ndarray, d: int, out: np.ndarray | None = None, scaled: bool = True
) -> np.ndarray:
    """``np.fft.ifftn(a, axes=range(-d, 0))``, or with ``norm="forward"`` if
    not ``scaled``, bit for bit: :func:`_fftn`'s passes with ``ifft``."""
    if out is None:
        out = np.empty(a.shape, dtype=complex)
    for axis in range(-1, -d - 1, -1):
        _pass("ifft", a, axis, 1.0 / a.shape[axis] if scaled else 1.0, out)
        a = out
    return out


def _rfftn(x: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.rfftn(x, axes=range(-d, 0))``, bit for bit, of a real ``x``
    whose last axis has an even length, as on every lattice: an ``rfft`` of
    the last axis into the half spectrum ``out`` (a new array if None),
    then ``fft`` passes in place over the others, last first."""
    if out is None:
        out = np.empty(x.shape[:-1] + (x.shape[-1] // 2 + 1,), dtype=complex)
    _pass("rfft", x, -1, 1.0, out)
    for axis in range(-2, -d - 1, -1):
        _pass("fft", out, axis, 1.0, out)
    return out


def _irfftn(
    x_hat: np.ndarray,
    d: int,
    n: int,
    out: np.ndarray | None = None,
    scaled: bool = True,
    scale: float = 1.0,
) -> np.ndarray:
    """The real array with half spectrum ``x_hat`` and ``n`` points on the
    last axis, bit for bit ``np.fft.irfftn`` of ``x_hat`` over its last
    ``d`` axes (``norm="forward"`` if not ``scaled``): ``ifft`` passes in
    place over the other ``d - 1`` of them, first first, which overwrite
    ``x_hat``, then an ``irfft`` of the last into ``out`` (a new array if
    None).  ``scale`` multiplies the last pass's factor; pocketfft applies
    that factor after the pass, so unscaled the result is bit for bit
    ``scale`` times the unit-scale one."""
    for axis in range(-d, -1):
        _pass("ifft", x_hat, axis, 1.0 / x_hat.shape[axis] if scaled else 1.0, x_hat)
    if out is None:
        out = np.empty(x_hat.shape[:-1] + (n,))
    return _pass("irfft", x_hat, -1, scale / n if scaled else scale, out)


def _is_int(x: object) -> bool:
    """Whether ``x`` is a Python or NumPy integer other than a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_bool(x: object) -> bool:
    """Whether ``x`` is a Python or NumPy bool, which compares as 0 or 1
    but is refused wherever a real number is asked for."""
    return isinstance(x, (bool, np.bool_))


def _check_real(x: object, name: str, bound: str | None = "positive") -> None:
    """Raise ValueError naming ``name`` unless ``x`` is a real number other
    than a bool, finite (so not an int beyond the float range) and, by
    ``bound``, ``"positive"`` or ``"nonnegative"``; None leaves the range to
    the caller.  ``x`` itself is left as given."""
    try:
        ok = isinstance(x, numbers.Real) and not _is_bool(x) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        ok = False
    if ok and bound is not None:
        ok = x > 0 if bound == "positive" else x >= 0
    if not ok:
        kind = f"{bound} finite" if bound else "finite"
        raise ValueError(f"{name} must be a {kind} real number (got {x!r})")


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
        if not _is_int(self.d) or self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3 (got {self.d})")
        if not _is_int(self.n) or self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8 (got {self.n})")
        _check_real(self.L, "L")
        object.__setattr__(self, "L", float(self.L))
        # the cell volume, its square (the quadrature weight of a double
        # sum), L^2 and the largest |k|^2 in float64, where an overflow gives
        # inf and an underflow 0 instead of an exception
        L = np.float64(self.L)
        h = L / self.n
        with np.errstate(over="ignore", under="ignore"):
            volume, l_sq, k_sq_max = h**self.d, L * L, self.d * (np.pi / h) ** 2
            volume_sq = volume * volume
        if not (0 < volume < np.inf and 0 < volume_sq < np.inf and l_sq < np.inf
                and k_sq_max < np.inf):
            raise ValueError(
                f"L = {self.L} is out of range for d = {self.d}, n = {self.n}: the cell "
                "volume h**d, its square, L**2 or the largest |k|**2 overflows "
                "float64, or the cell volume or its square underflows to 0"
            )

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
        return _frozen(sum(np.ix_(*[self.axis_wavenumbers**2] * self.d)))

    @cached_property
    def offset_distance(self) -> np.ndarray:
        """Minimum-image distance to the origin, displacement (FFT) layout."""
        return _frozen(np.sqrt(sum(np.ix_(*[self.axis_offsets**2] * self.d))))

    @cached_property
    def point_distance(self) -> np.ndarray:
        """Minimum-image distance of each grid point to the coordinate origin."""
        return _frozen(np.sqrt(sum(np.ix_(*[self.axis_coords**2] * self.d))))

    @cached_property
    def _multipliers(self) -> dict[float, np.ndarray]:
        return {}

    def fractional_multiplier(self, alpha: float) -> np.ndarray:
        """Fourier multiplier ``|k|^(2*alpha)`` (zero mode maps to 0).

        Computed once per ``alpha`` and returned read-only thereafter.
        """
        _check_real(alpha, "alpha")
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
        if not _is_int(self.d) or self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3 (got {self.d})")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(
                f"alpha must satisfy 0 < alpha < 1 (got alpha={self.alpha})"
            )
        if _is_bool(self.gamma) or not (0.0 < self.gamma < 2.0 * self.alpha):
            raise ValueError(
                "gamma must satisfy 0 < gamma < 2*alpha (mass-subcritical "
                f"regime); got gamma={self.gamma}, 2*alpha={2.0 * self.alpha}"
            )
        if not (self.gamma < self.d):
            raise ValueError(
                f"gamma must be smaller than the dimension (got gamma={self.gamma}, d={self.d})"
            )

    @property
    def width_exponent(self) -> float:
        """``1 / (2*alpha - gamma)``: scaling a minimizer's mass by ``lam``
        divides its length scale by ``lam**width_exponent``."""
        return 1.0 / (2.0 * self.alpha - self.gamma)

    def gaussian_width(self, q: float) -> float:
        """The width ``w*`` at which the continuum Gaussian ``exp(-|x|^2 /
        (2 w^2))`` of mass ``q`` has the least energy (the variational
        Gaussian ansatz of Perez-Garcia et al., PRL 77 (1996) 5320); inf
        where it overflows.  That Gaussian's energy is ``E(w) = A q
        w^(-2 alpha) - B q^2 w^(-gamma)``, with ``A = Gamma(alpha + d/2) /
        (2 Gamma(d/2))`` from the kinetic term and ``B = 2^(-gamma/2)
        Gamma((d - gamma)/2) / (4 Gamma(d/2))`` from the Hartree term, so
        ``E'(w*) = 0`` at ``w* = (2 alpha A / (gamma B q))**width_exponent``,
        which scales with the mass as a minimizer's length scale does."""
        _check_real(q, "q")
        half_d = 0.5 * self.d
        kinetic = math.gamma(self.alpha + half_d) / (2.0 * math.gamma(half_d))
        hartree = (
            2.0 ** (-0.5 * self.gamma) * math.gamma(half_d - 0.5 * self.gamma)
            / (4.0 * math.gamma(half_d))
        )
        ratio = 2.0 * self.alpha * kinetic / (self.gamma * hartree * q)
        try:
            return ratio**self.width_exponent
        except OverflowError:
            return math.inf

    @property
    def scaling_exponent(self) -> float:
        """``sigma`` of the mass-scaling law ``E(lam * q) = lam**sigma * E(q)``,
        ``(4*alpha - gamma) / (2*alpha - gamma)``: that rescaling scales both
        energy terms alike."""
        return (4.0 * self.alpha - self.gamma) / (2.0 * self.alpha - self.gamma)
