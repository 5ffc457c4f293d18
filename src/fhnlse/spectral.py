"""Spectral operators and energy functionals on periodic fields.

All transforms are the unnormalized DFTs of the helpers of
:mod:`fhnlse.grid`, together with explicit quadrature weights: real-space
sums carry ``cell_volume`` and Fourier-space sums carry ``cell_volume /
size``, which makes the discrete Parseval identity ``mass(u) == spectral
mass(u)`` hold to roundoff.  Every identity
asserted about these functionals (multiplier action, self-adjointness,
gradient pairing) is independent of the transform normalization.
A real field's terms also come from its half spectrum (``_rfftn``) with
Hermitian Parseval weights, in :class:`HalfSpectrumTerms`, the evaluation
the ground-state solver makes through :func:`energy`.

Sign conventions: the energy is ``E(u) = 1/2 |u|_{H^alpha-dot}^2 -
1/4 P(u)`` (focusing), where ``P(u) = sum_x sum_y K(x-y) |u(x)|^2 |u(y)|^2
cell_volume^2`` is the Hartree pairing, and its L^2 gradient is
``G(u) = (-Lap)^alpha u - (K * |u|^2) u`` so that
``d/de E(u + e v)|_0 = Re <G(u), v>_{L^2}``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import Field, _abs_sq, mass
from .grid import Grid, PhysicsParams, _fftn, _frozen, _ifftn
from .kernel import HartreeKernel

__all__ = [
    "check_setup",
    "h_alpha_norm",
    "EnergyTerms",
    "HalfSpectrumTerms",
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


def _spectral_weight(grid: Grid) -> float:
    return grid.cell_volume / grid.size


def _seminorm_sq(values: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    """:func:`sobolev_seminorm_sq` of each field of the stack ``values``
    (shape ``(B, *grid.shape)``, real or complex), transformed on its
    trailing axes."""
    uhat = _fftn(values, grid.d)
    weighted = grid.fractional_multiplier(alpha) * np.abs(uhat) ** 2
    return weighted.reshape(len(values), -1).sum(axis=1) * _spectral_weight(grid)


def sobolev_seminorm_sq(u: Field, alpha: float) -> float:
    """Squared homogeneous seminorm ``sum |k|^(2*alpha) |u_hat|^2`` (Parseval weight)."""
    return float(_seminorm_sq(u.values[None], u.grid, alpha)[0])


def h_alpha_norm(u: Field, alpha: float) -> float:
    """Inhomogeneous norm ``sqrt(|u|_2^2 + |u|_{H^alpha-dot}^2)``."""
    return math.sqrt(mass(u) + sobolev_seminorm_sq(u, alpha))


def density_terms(values: np.ndarray, kernel: HartreeKernel) -> tuple[np.ndarray, float, float]:
    """``(K * |u|^2, P(u), mass(u))`` from the samples ``values`` of ``u``,
    real or complex: one density convolution gives the potential, and the
    potential and density give the Hartree pairing and the mass.

    :class:`EnergyTerms` and :class:`HalfSpectrumTerms`, and through them
    :func:`energy` and the ground-state solver, read these three from here,
    so the pairing checked against ``kernel.hartree_direct`` is the one the
    solver uses.
    """
    rho = _abs_sq(values)
    potential = kernel.convolve_density(rho)
    cell_volume = kernel.grid.cell_volume
    pairing = float((rho * potential).sum() * cell_volume)
    return potential, pairing, float(rho.sum() * cell_volume)


class EnergyTerms:
    """The parts of ``E``, ``omega`` and ``G`` at one field, from one transform
    of ``u`` and one convolution of its density.

    ``u_hat`` is the unnormalized DFT of ``u``, ``potential`` is
    ``K * |u|^2``, ``seminorm_sq`` is ``|u|_{H^alpha-dot}^2``, ``pairing`` is
    the Hartree pairing ``P(u)`` and ``mass`` is ``|u|_2^2``.
    """

    def __init__(self, u: Field, p: PhysicsParams, kernel: HartreeKernel):
        check_setup(u.grid, p, kernel)
        grid = u.grid
        self.u = u
        self.multiplier = grid.fractional_multiplier(p.alpha)
        self.u_hat = _fftn(u.values, grid.d)
        self.potential, self.pairing, self.mass = density_terms(u.values, kernel)
        self.seminorm_sq = float(
            np.sum(self.multiplier * np.abs(self.u_hat) ** 2) * _spectral_weight(grid)
        )

    @property
    def energy(self) -> float:
        """``E(u) = 1/2 |u|_{H^alpha-dot}^2 - 1/4 P(u)``."""
        return 0.5 * self.seminorm_sq - 0.25 * self.pairing

    @property
    def omega(self) -> float:
        """Frequency ``omega = (|u|_{H^alpha-dot}^2 - P(u)) / mass(u)``.

        Pairing the gradient with ``u`` shows ``omega * mass == Re <G(u), u>``,
        so at a constrained critical point ``G(u) = omega * u``.
        """
        if self.mass == 0.0:
            raise ValueError("lagrange_multiplier undefined for the zero field")
        return (self.seminorm_sq - self.pairing) / self.mass


@lru_cache(maxsize=16)
def _half_spectrum(grid: Grid, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(multiplier, hermitian, seminorm)`` on the half spectrum of ``grid``
    (``rfftn``: the last axis cut to its ``n//2 + 1`` nonnegative
    frequencies), read-only.

    ``multiplier`` is ``|k|^(2 alpha)`` there.  Parseval's sum over the
    full spectrum counts every half-spectrum column twice, for itself and
    its conjugate, except the zero and Nyquist columns, which stand for
    themselves: ``hermitian`` holds those 2s and 1s, and ``seminorm`` is
    ``hermitian * multiplier`` times the spectral weight.  All three only
    ever meet half spectra, so they are real values stored as contiguous
    complex128 with a zero imaginary part: NumPy would cast a real factor
    to ``x+0j`` for the complex loop on every product, and casting once
    here gives the same bits.
    """
    half = grid.n // 2 + 1
    multiplier = grid.fractional_multiplier(alpha)[..., :half]
    hermitian = np.full(half, 2.0)
    hermitian[[0, -1]] = 1.0
    seminorm = hermitian * multiplier * _spectral_weight(grid)
    return tuple(_frozen(a.astype(complex)) for a in (multiplier, hermitian, seminorm))


class HalfSpectrumTerms(EnergyTerms):
    """:class:`EnergyTerms` of a real field ``u``, a real array, from its half
    spectrum ``u_hat`` (``rfftn``), which is kept, not copied.

    ``multiplier`` is ``|k|^(2 alpha)`` on the half spectrum and
    ``hermitian`` the Parseval weights of :func:`_half_spectrum`, which come
    read-only from its cache, complex with a zero imaginary part, so their
    products with a half spectrum make no cast.
    ``seminorm_sq`` is Parseval's sum over ``u_hat``.  ``energy`` and
    ``omega`` are formed as in :class:`EnergyTerms`.
    """

    def __init__(
        self, u: np.ndarray, u_hat: np.ndarray, p: PhysicsParams, kernel: HartreeKernel
    ):
        check_setup(kernel.grid, p, kernel)
        self.u, self.u_hat = u, u_hat
        self.multiplier, self.hermitian, seminorm = _half_spectrum(kernel.grid, p.alpha)
        self.potential, self.pairing, self.mass = density_terms(u, kernel)
        self.seminorm_sq = float(np.vdot(u_hat, seminorm * u_hat).real)


def energy(
    u: Field | np.ndarray,
    p: PhysicsParams,
    kernel: HartreeKernel,
    *,
    u_hat: np.ndarray | None = None,
    with_terms: bool = False,
) -> float | tuple[float, EnergyTerms]:
    """``E(u) = 1/2 |u|_{H^alpha-dot}^2 - 1/4 P(u)``.

    ``u`` is a :class:`Field`, or, with ``u_hat``, the samples of a real
    field and ``u_hat`` their half spectrum: then the terms are
    :class:`HalfSpectrumTerms` and no transform of ``u`` is made.  With
    ``with_terms`` the result is ``(E, terms)``: a caller that goes on to
    need ``omega`` or the parts of ``G`` at ``u`` reads them from ``terms``
    without a second transform or convolution.
    """
    if u_hat is None:
        terms = EnergyTerms(u, p, kernel)
    else:
        terms = HalfSpectrumTerms(u, u_hat, p, kernel)
    return (terms.energy, terms) if with_terms else terms.energy


def energy_gradient(u: Field, p: PhysicsParams, kernel: HartreeKernel) -> Field:
    """L^2 gradient ``G(u) = (-Lap)^alpha u - (K * |u|^2) u``."""
    terms = EnergyTerms(u, p, kernel)
    kinetic = _ifftn(terms.multiplier * terms.u_hat, u.grid.d)
    return Field(u.grid, kinetic - terms.potential * u.values)


def lagrange_multiplier(u: Field, p: PhysicsParams, kernel: HartreeKernel) -> float:
    """Frequency ``omega`` of :attr:`EnergyTerms.omega`; zero mass raises ValueError."""
    return EnergyTerms(u, p, kernel).omega
