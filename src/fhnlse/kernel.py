"""Minimum-image interaction kernel ``K(x) = |x|^(-gamma)``, its density
convolution and the direct double sum that cross-checks it.

The kernel is sampled on the displacement lattice (aliased FFT layout) with
every component reduced to the minimum image.  The singular origin sample is
replaced by the average of ``|x|^(-gamma)`` over the origin cell; because
that average scales exactly like ``h^(-gamma)``, one dimensionless constant
per ``(d, gamma)`` serves every grid spacing.  Euler's identity for a
function homogeneous of degree ``-gamma``, ``div(x |x|^(-gamma)) = (d -
gamma) |x|^(-gamma)``, turns that average into a smooth integral over the
cell's faces (:func:`origin_cell_average`).

Both the fast convolution (a cached half spectrum + real FFT), from which
``spectral.density_terms`` forms the Hartree pairing, and the direct double
sum read the same sample array, so they agree by construction up to
floating-point roundoff.  The direct sum shares no transform with the fast
path: it forms the density's autocorrelation one shift of the last axis at
a time, from small matrix products and wrapped diagonal sums, and pairs it
with the samples.

The fast convolution runs the real transform pair of :mod:`fhnlse.grid`
over the trailing ``d`` axes, so it convolves one density or each of a
stack ``(B, *grid.shape)`` alike, and folds the inverse's ``1/N`` into the
cached half spectrum (an unscaled inverse).  That half spectrum is real but
stored read-only as complex128 with a zero imaginary part: NumPy multiplies
a complex array by a real one by casting the real factor to ``x+0j`` and
running the complex loop, so casting it once at construction gives the
same bits as the cast NumPy would otherwise make on every call.  The
convolution writes into a caller's array when given one, and its half
spectrum into a caller's ``work`` array, so the Strang loop reuses both
from step to step.  A real ``scale`` becomes the factor of the inverse's
last pass, which pocketfft applies after that pass: the result is bit for
bit ``scale`` times the potential, without a pass over it of its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import Field
from .grid import Grid, _fftn, _frozen, _irfftn, _rfftn

__all__ = [
    "HartreeKernel",
    "hartree_direct",
    "DIRECT_SITE_LIMIT",
]

# The O(N^2) double sum is a cross-check, not a production path.  At this
# limit one call takes about 2 ms on 64^2, under 10 ms on 16^3 and 35 ms on
# 4096 sites in d = 1 (one Xeon core), and holds a few arrays of at most
# 65536 entries; the work grows as N^2, so larger grids are refused.
DIRECT_SITE_LIMIT = 4096

_GAUSS_NODES = 24


@lru_cache(maxsize=None)
def origin_cell_average(d: int, gamma: float) -> float:
    """Average of ``|x|^(-gamma)`` over the unit cell ``C = [-1/2, 1/2]^d``.

    The integrand is homogeneous of degree ``-gamma``, so Euler's identity
    gives ``div(x |x|^(-gamma)) = (d - gamma) |x|^(-gamma)``, and the
    divergence theorem turns the average into a flux through the ``2d``
    faces of C, on each of which ``x . n = 1/2``:
    ``A = d / (d - gamma) * integral over [-1/2, 1/2]^(d-1) of
    (1/4 + |y|^2)^(-gamma/2) dy``.  The face integrand is analytic on the
    closed face (its nearest complex singularity is at ``|y| = i/2``), so
    tensor Gauss-Legendre quadrature is accurate to near machine
    precision.  For d = 1 the face is a point and ``A = 2^gamma / (1 -
    gamma)``.
    """
    if not (0.0 < gamma < d):
        raise ValueError(f"require 0 < gamma < d for integrability (got {gamma}, d={d})")
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    rsq, wgt = 0.25, 1.0  # |x|^2 = 1/4 + |y|^2 and the weights, one face axis at a time
    for _ in range(d - 1):
        rsq = np.add.outer(rsq, (0.5 * nodes) ** 2)
        wgt = np.multiply.outer(wgt, 0.5 * weights)
    face = float(np.sum(wgt * rsq ** (-gamma / 2.0)))
    return d * face / (d - gamma)


def kernel_spectrum(samples: np.ndarray) -> np.ndarray:
    """DFT of an even real kernel sample array; returns the real part.

    Kept as a module-level hook so consistency checks can substitute a
    deliberately broken transform.
    """
    transform = _fftn(samples, samples.ndim)
    scale = float(np.max(np.abs(transform.real)))
    worst = float(np.max(np.abs(transform.imag)))
    if worst > 1e-9 * max(scale, 1.0):
        raise ValueError(
            f"kernel spectrum has a non-negligible imaginary part ({worst:.3e}); "
            "sample array is not even under index negation"
        )
    return transform.real.copy()


class HartreeKernel:
    """Sampled interaction kernel bound to one grid and one exponent.

    Its arrays are read-only, since every later convolution reads them.

    Attributes
    ----------
    grid : the grid the kernel was built for
    gamma : decay exponent, ``0 < gamma < d``
    samples : real samples in displacement (FFT) layout, origin regularized
    spectrum : cached real DFT of ``samples``; its half ``[..., : n//2 + 1]``,
        scaled by ``cell_volume / N`` and held as complex128 with a zero
        imaginary part (see the module docstring), drives the fast pairing
    """

    def __init__(self, grid: Grid, gamma: float):
        self.grid = grid
        self.gamma = float(gamma)
        # raises ValueError unless 0 < gamma < d
        origin = origin_cell_average(grid.d, self.gamma) * grid.h ** (-self.gamma)
        dist = grid.offset_distance
        with np.errstate(divide="ignore"):
            samples = dist ** (-self.gamma)
        samples[(0,) * grid.d] = origin
        self.samples = _frozen(samples)
        self.spectrum = _frozen(kernel_spectrum(self.samples))
        # a real density has a Hermitian DFT, so the last axis needs only
        # its nonnegative half; the quadrature weight and the inverse
        # transform's 1/N (exact: N is a power of two) are folded in here,
        # and the cast to complex NumPy would make on every product is made once
        half = self.spectrum[..., : grid.n // 2 + 1] * grid.cell_volume / grid.size
        self._half_spectrum = _frozen(half.astype(np.complex128))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        g = self.grid
        return f"HartreeKernel(d={g.d}, n={g.n}, L={g.L}, gamma={self.gamma})"

    def convolve_density(
        self,
        rho: np.ndarray,
        out: np.ndarray | None = None,
        *,
        scale: float = 1.0,
        work: np.ndarray | None = None,
    ) -> np.ndarray:
        """``scale * (K * rho)(x)``, with ``(K * rho)(x) = sum_y K(x - y)
        rho(y) cell_volume``, for a real density ``rho``, or for each of a
        stack of them, via the real transform pair over the trailing axes
        (see the module docstring).  Written to ``out`` if given, which may
        be ``rho`` itself: the forward transform has read all of ``rho``
        before ``out`` is written.  ``work`` (complex, ``rho``'s shape with
        ``n // 2 + 1`` points on the last axis) takes the half spectrum, a
        new array if None."""
        d = self.grid.d
        rho_hat = _rfftn(rho, d, out=work)
        rho_hat *= self._half_spectrum
        return _irfftn(rho_hat, d, self.grid.n, out=out, scaled=False, scale=scale)


def hartree_direct(u: Field, kernel: HartreeKernel) -> float:
    """Direct double sum of the pairing (cross-check path), without any FFT.

    Sums ``cell_volume^2 * sum_z K(z) A(z)``, where ``A(z) = sum_x rho(x)
    rho(x - z)`` is the autocorrelation of ``rho = |u|^2``, one shift
    ``z_last`` of the last axis at a time.  With ``rho`` and its periodic
    roll by ``z_last`` read as ``(n^(d-1), n)`` matrices, ``Q = rho @
    rolled^T`` holds the products summed along the last axis for every pair
    of leading sites, and ``A(z', z_last)`` is the wrapped diagonal sum
    ``sum_x' Q[x', (x' - z') mod n]``.  The work is the O(N^2)
    multiply-adds of the double sum, as n small matrix products, and the
    memory O(N + (N/n)^2): Q is 1 x 1 for d = 1 and n x n for d = 2.
    Reads exactly the kernel samples of the fast path; guarded to grids
    with at most ``DIRECT_SITE_LIMIT`` sites.
    """
    grid = u.grid
    if grid != kernel.grid:
        raise ValueError("field and kernel live on different grids")
    if grid.size > DIRECT_SITE_LIMIT:
        raise ValueError(
            f"direct double sum limited to {DIRECT_SITE_LIMIT} sites "
            f"(grid has {grid.size}); use spectral.EnergyTerms instead"
        )
    n, d = grid.n, grid.d
    rows = (np.abs(u.values) ** 2).reshape(-1, n)  # rho[x', x_last]
    m = rows.shape[0]
    # flat index into Q of the pair (x', (x' - z') mod n), laid out [x', z']
    lead = np.indices((n,) * (d - 1)).reshape(d - 1, m)
    strides = n ** np.arange(d - 2, -1, -1)
    wrapped = np.tensordot(strides, (lead[:, :, None] - lead[:, None, :]) % n, axes=1)
    diagonals = np.arange(m)[:, None] * m + wrapped
    # rho rolled by z_last along the last axis is a window of the rows tiled twice
    tiled = np.concatenate([rows, rows], axis=1)
    samples = kernel.samples.reshape(m, n)
    total = 0.0
    for shift in range(n):
        q = rows @ tiled[:, n - shift : 2 * n - shift].T
        autocorr = q.take(diagonals).sum(axis=0)  # A(., z_last)
        total += float(samples[:, shift] @ autocorr)
    return total * grid.cell_volume**2
