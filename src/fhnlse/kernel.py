"""Minimum-image interaction kernel ``K(x) = |x|^(-gamma)``, its density
convolution and the direct double sum that cross-checks it.

The kernel is sampled on the displacement lattice (aliased FFT layout) with
every component reduced to the minimum image.  The singular origin sample is
replaced by the average of ``|x|^(-gamma)`` over the origin cell; because
that average scales exactly like ``h^(-gamma)``, one dimensionless constant
per ``(d, gamma)`` serves every grid spacing.

Both the fast convolution (cached real spectrum + real FFT), from which
``spectral.EnergyTerms`` forms the Hartree pairing, and the direct double
sum read the same sample array, so they agree by construction up to
floating-point roundoff.  The direct sum shares no transform with the fast
path: it forms the density's autocorrelation one shift of the last axis at
a time, from small matrix products and wrapped diagonal sums, and pairs it
with the samples.

The fast convolution runs its real FFT pair as 1-D passes in the axis
order of ``np.fft.rfftn``/``irfftn``, the complex ones in place
(:func:`rfft_passes`, :func:`irfft_passes`; the ground-state solver
transforms its real iterates with the same pair), and folds the inverse's
``1/N`` into the cached half spectrum.  Every pass goes straight to
NumPy's pocketfft gufunc through ``grid._pass``.  ``N`` is a power of two,
so the result is bit-for-bit that of the normalized n-D pair, without the
per-call overhead of NumPy's n-D and 1-D wrappers or a separate scaling
pass.  The convolution writes into a caller's array when given one, so
the Strang loop reuses its own from step to step.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .fields import Field
from .grid import Grid, _pass

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


def _gauss_box(lo: np.ndarray, hi: np.ndarray, gamma: float, d: int) -> float:
    """Tensor Gauss-Legendre quadrature of ``|x|^(-gamma)`` over a box.

    The box must stay clear of the origin, where the integrand is analytic,
    so the rule converges at spectral rate.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    axes = []
    wts = []
    for a in range(d):
        half = 0.5 * (hi[a] - lo[a])
        mid = 0.5 * (hi[a] + lo[a])
        axes.append(mid + half * nodes)
        wts.append(half * weights)
    rsq = np.zeros((_GAUSS_NODES,) * d)
    wgt = np.ones((_GAUSS_NODES,) * d)
    for a in range(d):
        view = [1] * d
        view[a] = _GAUSS_NODES
        rsq = rsq + (axes[a] ** 2).reshape(view)
        wgt = wgt * wts[a].reshape(view)
    return float(np.sum(wgt * rsq ** (-gamma / 2.0)))


@lru_cache(maxsize=None)
def origin_cell_average(d: int, gamma: float) -> float:
    """Average of ``|x|^(-gamma)`` over the unit cell ``C = [-1/2, 1/2]^d``.

    For d = 1 the integral is ``2^gamma / (1 - gamma)`` in closed form.
    For d >= 2 it uses the exact self-similarity of the integrand: with
    ``A = integral over C`` and ``S = integral over the shell C minus C/2``,
    substituting ``x -> x/2`` gives ``A = 2^(gamma-d) A + S``, hence
    ``A = S / (1 - 2^(gamma-d))``.  The shell is the union of the outer
    cells of the regular 4^d partition of C (the inner 2^d cells make up
    C/2 exactly), each clear of the singularity, so Gauss-Legendre
    quadrature on each cell is accurate to near machine precision.
    """
    if not (0.0 < gamma < d):
        raise ValueError(f"require 0 < gamma < d for integrability (got {gamma}, d={d})")
    if d == 1:
        return 2.0**gamma / (1.0 - gamma)
    edges = np.linspace(-0.5, 0.5, 5)  # 4 cells of side 1/4 per axis
    shell = 0.0
    for cell in itertools.product(range(4), repeat=d):
        if all(c in (1, 2) for c in cell):
            continue  # inner 2^d cells form C/2
        lo = np.array([edges[c] for c in cell])
        hi = np.array([edges[c + 1] for c in cell])
        shell += _gauss_box(lo, hi, gamma, d)
    return shell / (1.0 - 2.0 ** (gamma - d))


def kernel_spectrum(samples: np.ndarray) -> np.ndarray:
    """DFT of an even real kernel sample array; returns the real part.

    Kept as a module-level hook so consistency checks can substitute a
    deliberately broken transform.
    """
    transform = np.fft.fftn(samples)
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

    Attributes
    ----------
    grid : the grid the kernel was built for
    gamma : decay exponent, ``0 < gamma < d``
    samples : real samples in displacement (FFT) layout, origin regularized
    spectrum : cached real DFT of ``samples``; its half ``[..., : n//2 + 1]``
        (scaled by ``cell_volume / N``) drives the fast pairing
    """

    def __init__(self, grid: Grid, gamma: float):
        if not (0.0 < gamma < grid.d):
            raise ValueError(
                f"gamma must satisfy 0 < gamma < d (got gamma={gamma}, d={grid.d})"
            )
        self.grid = grid
        self.gamma = float(gamma)
        dist = grid.offset_distance
        with np.errstate(divide="ignore"):
            samples = dist ** (-self.gamma)
        samples[(0,) * grid.d] = origin_cell_average(grid.d, self.gamma) * grid.h ** (
            -self.gamma
        )
        self.samples = samples
        self.samples.flags.writeable = False
        self.spectrum = kernel_spectrum(self.samples)
        self.spectrum.flags.writeable = False
        # a real density has a Hermitian DFT, so the last axis needs only
        # its nonnegative half; the quadrature weight and the inverse
        # transform's 1/N (exact: N is a power of two) are folded in here
        self._half_spectrum = (
            self.spectrum[..., : grid.n // 2 + 1] * grid.cell_volume / grid.size
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        g = self.grid
        return f"HartreeKernel(d={g.d}, n={g.n}, L={g.L}, gamma={self.gamma})"

    def convolve_density(self, rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(K * rho)(x) = sum_y K(x - y) rho(y) cell_volume`` for a real
        density ``rho``, via the real FFT pair of :func:`rfft_passes` and
        :func:`irfft_passes` (see the module docstring).  Written to
        ``out`` if given, which may be ``rho`` itself: the forward transform
        has read all of ``rho`` before ``out`` is written."""
        rho_hat = rfft_passes(rho)
        rho_hat *= self._half_spectrum
        return irfft_passes(rho_hat, self.grid.n, norm="forward", out=out)


def rfft_passes(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of the real array ``x``, whose last axis has an even
    length as on every lattice, bit for bit ``np.fft.rfftn(x)``: an ``rfft``
    of the last axis, then ``fft`` passes in place over the others, last
    first.  Written to ``out`` if given."""
    if out is None:
        out = np.empty(x.shape[:-1] + (x.shape[-1] // 2 + 1,), dtype=complex)
    _pass("rfft", x, -1, 1.0, out)
    for axis in range(-2, -x.ndim - 1, -1):
        _pass("fft", out, axis, 1.0, out)
    return out


def irfft_passes(
    x_hat: np.ndarray, n: int, norm: str = "backward", out: np.ndarray | None = None
) -> np.ndarray:
    """Real array with half spectrum ``x_hat`` and ``n`` points on the last
    axis, bit for bit ``np.fft.irfftn`` of ``x_hat`` with that shape and
    ``norm``: ``ifft`` passes in place over the leading axes, first first,
    then an ``irfft`` of the last.  Overwrites ``x_hat``; written to ``out``
    if given.  ``norm`` is ``"backward"`` (each pass scaled by one over its
    length) or ``"forward"`` (no scaling)."""
    if norm not in ("backward", "forward"):
        raise ValueError(f'norm must be "backward" or "forward" (got {norm!r})')
    backward = norm == "backward"
    for axis in range(-x_hat.ndim, -1):
        _pass("ifft", x_hat, axis, 1.0 / x_hat.shape[axis] if backward else 1.0, x_hat)
    if out is None:
        out = np.empty(x_hat.shape[:-1] + (n,))
    return _pass("irfft", x_hat, -1, 1.0 / n if backward else 1.0, out)


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
