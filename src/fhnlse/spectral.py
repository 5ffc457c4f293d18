"""Spectral operators and energy functionals on periodic fields.

All transforms are the unnormalized DFTs of the helpers of
:mod:`fhnlse.grid`, together with explicit quadrature weights: real-space
sums carry ``cell_volume`` and Fourier-space sums carry ``cell_volume /
size``, which makes the discrete Parseval identity ``mass(u) == spectral
mass(u)`` hold to roundoff.  Every identity
asserted about these functionals (multiplier action, self-adjointness,
gradient pairing) is independent of the transform normalization.

Sign conventions: the energy is ``E(u) = 1/2 |u|_{H^alpha-dot}^2 -
1/4 P(u)`` (focusing), where ``P(u) = sum_x sum_y K(x-y) |u(x)|^2 |u(y)|^2
cell_volume^2`` is the Hartree pairing, and its L^2 gradient is
``G(u) = (-Lap)^alpha u - (K * |u|^2) u`` so that
``d/de E(u + e v)|_0 = Re <G(u), v>_{L^2}``.

One evaluation, :class:`EnergyTerms`, forms these parts from the samples
``u`` and a spectrum ``u_hat`` of them: the full spectrum (``_fftn``) of
one field or of each of a stack, real or complex, or the half spectrum
(``_rfftn``: the last axis cut to its ``n//2 + 1`` nonnegative
frequencies, ``n >= 8``) of one real field, which :func:`_is_half` tells
apart by the last axis.  The mass is ``sum |u|^2 cell_volume`` and the
seminorm Parseval's sum over ``u_hat`` (:func:`_seminorm_sq`), each one
value per field of a stack.  The pairing takes one of two routes:

- through the potential ``K * |u|^2`` (one density convolution) as ``sum
  |u|^2 (K * |u|^2) cell_volume``, for one field whose spectrum
  :mod:`spectral` makes itself (a :class:`Field`'s: :func:`energy`,
  :func:`energy_gradient`, :func:`lagrange_multiplier`) or that comes as a
  half spectrum (the ground-state solver), whose callers go on to read the
  potential for ``G``;
- by Parseval over the density's half spectrum
  (:meth:`~fhnlse.kernel.HartreeKernel.half_spectrum_pairing`, one real
  transform and no potential) for a full spectrum its caller already holds:
  the evolution's records, made in the Strang loop's idle arrays.

An evaluation writes into its caller's arrays where given, and into new
ones where None: ``out`` (real, ``u``'s shape) takes the potential, and
``work`` is a pair ``(rho, spectrum)``.  ``rho`` (real, ``u``'s shape)
takes the density, then its products with the potential (which sum to the
pairing), then ``|k|^(2 alpha) |u_hat|^2`` for a full spectrum's seminorm.
``spectrum`` (complex, ``u``'s shape with ``n//2 + 1`` points on the last
axis) takes the convolution's half spectrum, or on the Parseval route the
density's and then its squared parts, then the weighted ``u_hat`` of a half
spectrum's seminorm.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import Field, _abs_sq, mass
from .grid import Grid, PhysicsParams, _fftn, _frozen, _hermitian_weights, _ifftn, _rfftn
from .kernel import HartreeKernel

__all__ = [
    "check_setup",
    "h_alpha_norm",
    "EnergyTerms",
    "energy",
    "energy_gradient",
    "lagrange_multiplier",
]


def check_setup(grid: Grid, p: PhysicsParams, kernel: HartreeKernel) -> None:
    """Raise ValueError unless ``p`` and ``kernel`` match ``grid``."""
    if p.d != grid.d:
        raise ValueError(f"params have d={p.d} but the grid has dimension d={grid.d}")
    if kernel.grid != grid:
        raise ValueError("field and kernel live on different grids")
    if kernel.gamma != p.gamma:
        raise ValueError(
            f"kernel exponent {kernel.gamma} does not match params gamma {p.gamma}"
        )


def _is_half(u_hat: np.ndarray, grid: Grid) -> bool:
    """Whether ``u_hat`` is a half spectrum rather than a full one."""
    return u_hat.shape[-1] != grid.n


def _field_sums(a: np.ndarray, grid: Grid) -> float | np.ndarray:
    """The sum of ``a`` over each field's ``grid.d`` trailing axes: a float
    for one field, an array for a stack."""
    if a.ndim == grid.d:
        return float(a.sum())
    return a.reshape(a.shape[: a.ndim - grid.d] + (-1,)).sum(axis=-1)


@lru_cache(maxsize=16)
def _half_spectrum(grid: Grid, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(multiplier, hermitian, seminorm)`` on the half spectrum of ``grid``,
    read-only.

    ``multiplier`` is ``|k|^(2 alpha)`` there, ``hermitian`` holds
    Parseval's weights (:func:`~fhnlse.grid._hermitian_weights`: 2s, and 1s
    on the zero and Nyquist columns), and ``seminorm`` is ``hermitian *
    multiplier * cell_volume / size``.  All three only ever meet half
    spectra, so they are real values stored as contiguous complex128 with a
    zero imaginary part: NumPy would cast a real factor to ``x+0j`` for the
    complex loop on every product, and casting once here gives the same
    bits.
    """
    multiplier = grid.fractional_multiplier(alpha)[..., : grid.n // 2 + 1]
    hermitian = _hermitian_weights(grid.n)
    seminorm = hermitian * multiplier * (grid.cell_volume / grid.size)
    return tuple(_frozen(a.astype(complex)) for a in (multiplier, hermitian, seminorm))


def _seminorm_sq(
    u_hat: np.ndarray, grid: Grid, alpha: float, work: np.ndarray | None = None
) -> float | np.ndarray:
    """``|u|_{H^alpha-dot}^2`` by Parseval over the spectrum ``u_hat``, one
    value per field of a full spectrum's stack.  ``work`` takes the
    weighted spectrum (see the module docstring; a new array if None)."""
    if _is_half(u_hat, grid):
        weighted = np.multiply(_half_spectrum(grid, alpha)[2], u_hat, out=work)
        return float(np.vdot(u_hat, weighted).real)
    squares = _abs_sq(u_hat, out=work)
    weighted = np.multiply(squares, grid.fractional_multiplier(alpha), out=squares)
    return _field_sums(weighted, grid) * (grid.cell_volume / grid.size)


def sobolev_seminorm_sq(u: Field, alpha: float) -> float:
    """Squared homogeneous seminorm ``sum |k|^(2*alpha) |u_hat|^2`` (Parseval weight)."""
    return _seminorm_sq(_fftn(u.values, u.grid.d), u.grid, alpha)


def h_alpha_norm(u: Field, alpha: float) -> float:
    """Inhomogeneous norm ``sqrt(|u|_2^2 + |u|_{H^alpha-dot}^2)``."""
    return math.sqrt(mass(u) + sobolev_seminorm_sq(u, alpha))


class EnergyTerms:
    """The parts of ``E``, ``omega`` and ``G`` of ``u``: a :class:`Field`
    alone, or samples with their spectrum ``u_hat``, which is kept, not
    copied.  The module docstring gives the pairing's routes and the arrays
    ``out`` and ``work``.

    ``u`` holds the samples and ``u_hat`` the spectrum.  On a half spectrum,
    ``multiplier`` is ``|k|^(2 alpha)`` there and ``hermitian`` holds
    Parseval's weights, both from :func:`_half_spectrum`, for the
    ground-state solver's descent.
    ``potential`` is ``K * |u|^2``, None on the Parseval route.
    ``seminorm_sq`` is ``|u|_{H^alpha-dot}^2``, ``pairing`` is ``P(u)`` and
    ``mass`` is ``|u|_2^2``: floats, or one value per field of a stack.
    """

    def __init__(
        self,
        u: Field | np.ndarray,
        p: PhysicsParams,
        kernel: HartreeKernel,
        *,
        u_hat: np.ndarray | None = None,
        out: np.ndarray | None = None,
        work: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        if isinstance(u, Field) != (u_hat is None):
            raise TypeError("energy takes a Field alone, or samples with their spectrum u_hat")
        grid = kernel.grid
        made_here = u_hat is None  # a Field, whose spectrum is made here
        check_setup(u.grid if made_here else grid, p, kernel)
        if made_here:
            u, u_hat = u.values, _fftn(u.values, grid.d)
        half = _is_half(u_hat, grid)
        self.u, self.u_hat = u, u_hat
        if half:
            self.multiplier, self.hermitian, _ = _half_spectrum(grid, p.alpha)
        rho, spectrum = (None, None) if work is None else work
        rho = _abs_sq(u, out=rho)
        self.mass = _field_sums(rho, grid) * grid.cell_volume
        if made_here or half:
            potential = self.potential = kernel.convolve_density(rho, out=out, work=spectrum)
            self.pairing = float(np.multiply(rho, potential, out=rho).sum() * grid.cell_volume)
        else:
            self.potential = None
            spectrum = _rfftn(rho, grid.d, out=spectrum)
            self.pairing = kernel.half_spectrum_pairing(spectrum, spectrum.view(np.float64))
        self.seminorm_sq = _seminorm_sq(u_hat, grid, p.alpha, spectrum if half else rho)

    @property
    def energy(self) -> float | np.ndarray:
        """``E(u) = 1/2 |u|_{H^alpha-dot}^2 - 1/4 P(u)``."""
        return 0.5 * self.seminorm_sq - 0.25 * self.pairing

    @property
    def omega(self) -> float:
        """Frequency ``omega = (|u|_{H^alpha-dot}^2 - P(u)) / mass(u)`` of one field.

        Pairing the gradient with ``u`` shows ``omega * mass == Re <G(u), u>``,
        so at a constrained critical point ``G(u) = omega * u``.
        """
        if self.mass == 0.0:
            raise ValueError("lagrange_multiplier undefined for the zero field")
        return (self.seminorm_sq - self.pairing) / self.mass


def energy(
    u: Field | np.ndarray,
    p: PhysicsParams,
    kernel: HartreeKernel,
    *,
    u_hat: np.ndarray | None = None,
    with_terms: bool = False,
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> float | tuple[float, EnergyTerms]:
    """``E(u) = 1/2 |u|_{H^alpha-dot}^2 - 1/4 P(u)`` of a :class:`Field`
    alone, or of samples with their spectrum ``u_hat`` (full, of one field or
    of each of a stack, or half, of one real field), of which no transform
    is made; for a stack the energy is one per field.  Any other call
    raises TypeError.  The terms are made in the arrays ``out`` and ``work``
    if given (:class:`EnergyTerms`).  With ``with_terms`` the result is
    ``(E, terms)``: a caller that goes on to need the mass, ``omega`` or the
    parts of ``G`` at ``u`` reads them from ``terms`` without a second
    transform or convolution.
    """
    terms = EnergyTerms(u, p, kernel, u_hat=u_hat, out=out, work=work)
    return (terms.energy, terms) if with_terms else terms.energy


def energy_gradient(u: Field, p: PhysicsParams, kernel: HartreeKernel) -> Field:
    """L^2 gradient ``G(u) = (-Lap)^alpha u - (K * |u|^2) u``."""
    terms = EnergyTerms(u, p, kernel)
    kinetic = _ifftn(u.grid.fractional_multiplier(p.alpha) * terms.u_hat, u.grid.d)
    return Field(u.grid, kinetic - terms.potential * u.values)


def lagrange_multiplier(u: Field, p: PhysicsParams, kernel: HartreeKernel) -> float:
    """Frequency ``omega`` of :attr:`EnergyTerms.omega`; zero mass raises ValueError."""
    return EnergyTerms(u, p, kernel).omega
