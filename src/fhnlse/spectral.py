"""Spectral operators and energy functionals on periodic fields.

All transforms use numpy's unnormalized DFT together with explicit
quadrature weights: real-space sums carry ``cell_volume`` and Fourier-space
sums carry ``cell_volume / size``, which makes the discrete Parseval
identity ``mass(u) == spectral mass(u)`` hold to roundoff.  Every identity
asserted about these functionals (multiplier action, self-adjointness,
gradient pairing) is independent of the transform normalization.

Sign conventions: the energy is ``E(u) = 1/2 |u|_{H^alpha-dot}^2 -
1/4 P(u)`` (focusing), where ``P(u) = sum_x sum_y K(x-y) |u(x)|^2 |u(y)|^2
cell_volume^2`` is the Hartree pairing, and its L^2 gradient is
``G(u) = (-Lap)^alpha u - (K * |u|^2) u`` so that
``d/de E(u + e v)|_0 = Re <G(u), v>_{L^2}``.
"""

from __future__ import annotations

import numpy as np

from .fields import Field, mass
from .grid import Grid, PhysicsParams
from .kernel import HartreeKernel

__all__ = [
    "check_setup",
    "sobolev_seminorm_sq",
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


def _spectral_weight(grid: Grid) -> float:
    return grid.cell_volume / grid.size


def sobolev_seminorm_sq(u: Field, alpha: float) -> float:
    """Squared homogeneous seminorm ``sum |k|^(2*alpha) |u_hat|^2`` (Parseval weight)."""
    mult = u.grid.fractional_multiplier(alpha)
    uhat = np.fft.fftn(u.values)
    return float(np.sum(mult * np.abs(uhat) ** 2) * _spectral_weight(u.grid))


def h_alpha_norm(u: Field, alpha: float) -> float:
    """Inhomogeneous norm ``sqrt(|u|_2^2 + |u|_{H^alpha-dot}^2)``."""
    return float(np.sqrt(mass(u) + sobolev_seminorm_sq(u, alpha)))


class EnergyTerms:
    """The parts of ``E``, ``omega`` and ``G`` at one field, from one transform
    of ``u`` and one convolution of its density.

    ``u_hat`` is the unnormalized DFT of ``u``, ``potential`` is
    ``K * |u|^2``, ``seminorm_sq`` is ``|u|_{H^alpha-dot}^2``, ``pairing`` is
    the Hartree pairing ``P(u)`` and ``mass`` is ``|u|_2^2``.  A caller that
    already holds the DFT of ``u`` passes it as ``u_hat`` and the transform
    is skipped; the array is kept, not copied.
    """

    def __init__(
        self,
        u: Field,
        p: PhysicsParams,
        kernel: HartreeKernel,
        *,
        u_hat: np.ndarray | None = None,
    ):
        check_setup(u.grid, p, kernel)
        grid = u.grid
        self.u = u
        self.multiplier = grid.fractional_multiplier(p.alpha)
        self.u_hat = np.fft.fftn(u.values) if u_hat is None else u_hat
        rho = np.abs(u.values) ** 2
        self.potential = kernel.convolve_density(rho)
        self.seminorm_sq = float(
            np.sum(self.multiplier * np.abs(self.u_hat) ** 2) * _spectral_weight(grid)
        )
        self.pairing = float(np.sum(rho * self.potential) * grid.cell_volume)
        self.mass = float(np.sum(rho) * grid.cell_volume)

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

    def gradient(self) -> np.ndarray:
        """Values of ``G(u) = (-Lap)^alpha u - (K * |u|^2) u``."""
        return np.fft.ifftn(self.multiplier * self.u_hat) - self.potential * self.u.values


def energy(
    u: Field,
    p: PhysicsParams,
    kernel: HartreeKernel,
    *,
    with_terms: bool = False,
    u_hat: np.ndarray | None = None,
) -> float | tuple[float, EnergyTerms]:
    """``E(u) = 1/2 |u|_{H^alpha-dot}^2 - 1/4 P(u)``.

    With ``with_terms`` the result is ``(E, terms)``: a caller that goes on to
    need the gradient or ``omega`` at ``u`` reads them from ``terms`` without
    a second transform or convolution.  ``u_hat``, the DFT of ``u`` when the
    caller already holds it, is passed on to :class:`EnergyTerms`, so the
    evaluation needs no transform of ``u``.
    """
    terms = EnergyTerms(u, p, kernel, u_hat=u_hat)
    return (terms.energy, terms) if with_terms else terms.energy


def energy_gradient(u: Field, p: PhysicsParams, kernel: HartreeKernel) -> Field:
    """L^2 gradient ``G(u) = (-Lap)^alpha u - (K * |u|^2) u``."""
    return Field(u.grid, EnergyTerms(u, p, kernel).gradient())


def lagrange_multiplier(u: Field, p: PhysicsParams, kernel: HartreeKernel) -> float:
    """Frequency ``omega`` of :attr:`EnergyTerms.omega`; zero mass raises ValueError."""
    return EnergyTerms(u, p, kernel).omega
