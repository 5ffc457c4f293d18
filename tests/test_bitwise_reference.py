"""The ground-state iterate against a reference copy of its earlier
arithmetic, and the NumPy arithmetic that makes the two agree bit for bit.

The solver multiplies half spectra by weights held as complex128 with a zero
imaginary part (the kernel's half spectrum, the multiplier ``|k|^(2 alpha)``
and the Hermitian and seminorm weights) and preconditions by multiplying
with ``1 / (s + |k|^(2 alpha))``.
The reference below keeps those weights real and divides, as the solver did
before, so every solve here must come out byte for byte the same.  The
guard tests pin the NumPy rules this rests on, on shapes below and above
the ufunc buffer of 8192 elements, so that a NumPy release that changes
them fails here rather than moving the solver's bits.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

import fhnlse.groundstate as groundstate_module
import fhnlse.spectral as spectral_module
from fhnlse import (
    Grid,
    GroundState,
    HartreeKernel,
    PhysicsParams,
    SolveOptions,
    minimize,
    random_band_limited,
)
from fhnlse.grid import _irfftn, _rfftn
from fhnlse.groundstate import _make_hermitian, _reflect

ALPHA = 0.6
GAMMA = 0.5
SHAPES = [(64, 33), (128, 65)]  # 2112 and 8320 elements: one buffer and more


# ---------------------------------------------------------------------------
# the reference: real weights, a division, the two-temporary Hermitian edges


def _reference_kernel_half_spectrum(kernel: HartreeKernel) -> np.ndarray:
    grid = kernel.grid
    return kernel.spectrum[..., : grid.n // 2 + 1] * grid.cell_volume / grid.size


@lru_cache(maxsize=None)
def _reference_half_spectrum(grid: Grid, alpha: float):
    half = grid.n // 2 + 1
    multiplier = grid.fractional_multiplier(alpha)[..., :half]
    hermitian = np.full(half, 2.0)
    hermitian[[0, -1]] = 1.0
    seminorm = hermitian * multiplier * (grid.cell_volume / grid.size)
    return multiplier, hermitian, seminorm


def _reference_make_hermitian(x_hat: np.ndarray) -> None:
    edges = x_hat[..., :: x_hat.shape[-1] - 1]
    edges[...] = 0.5 * (edges + np.conj(_reflect(edges, tuple(range(x_hat.ndim - 1)))))


def _reference_descent(terms, shift_floor):
    u, u_hat = terms.u, terms.u_hat
    omega = terms.omega
    r_hat = (terms.multiplier - omega) * u_hat
    r_hat -= _rfftn(terms.potential * u, u.ndim)
    _reference_make_hermitian(r_hat)
    r_weighted = terms.hermitian * r_hat
    u_sq = float(np.vdot(u, u))
    r_sq = float(np.vdot(r_hat, r_weighted).real)
    resid = math.sqrt(r_sq / (u.size * u_sq))
    shift = max(abs(omega), shift_floor)
    metric = shift + terms.multiplier
    d_hat = r_hat
    d_hat /= metric
    d = _irfftn(d_hat.copy(), u.ndim, u.shape[-1])
    beta = float(np.vdot(u, d)) / u_sq
    d -= beta * u
    d_hat -= beta * u_hat
    return omega, resid, d, d_hat, metric, r_weighted


def _reference_minimize(monkeypatch, p, kernel, opts) -> GroundState:
    calls = []

    def descent(terms, shift_floor):
        calls.append(terms.hermitian.dtype)
        return _reference_descent(terms, shift_floor)

    with monkeypatch.context() as m:
        m.setattr(kernel, "_half_spectrum", _reference_kernel_half_spectrum(kernel))
        m.setattr(spectral_module, "_half_spectrum", _reference_half_spectrum)
        m.setattr(groundstate_module, "_descent", descent)
        gs = minimize(p, kernel, opts)
    # the start and every accepted iterate ran the reference, on real weights
    assert calls == [np.dtype(float)] * (gs.iterations + 1)
    return gs


def _float_bytes(x: float) -> bytes:
    return np.float64(x).tobytes()


def _assert_identical(new: GroundState, ref: GroundState) -> None:
    assert new.g.values.tobytes() == ref.g.values.tobytes()
    assert new.history.tobytes() == ref.history.tobytes()
    for name in ("energy", "omega", "residual"):
        assert _float_bytes(getattr(new, name)) == _float_bytes(getattr(ref, name)), name
    assert (new.iterations, new.stop_reason) == (ref.iterations, ref.stop_reason)


# ---------------------------------------------------------------------------
# the solver against the reference


CASES = [
    pytest.param(1, 64, 40.0, id="1d-64"),
    pytest.param(2, 32, 25.0, id="2d-32"),
    pytest.param(2, 128, 40.0, id="2d-128"),  # half spectra beyond one buffer
    pytest.param(3, 16, 12.0, id="3d-16"),
]


def _start(kind: str, p: PhysicsParams, kernel: HartreeKernel):
    if kind == "gaussian":
        return None
    if kind == "warm":
        # an early iterate of the Gaussian-started solve, restarted
        return minimize(p, kernel, SolveOptions(q=3.0, max_iter=6, keep_history=False)).g
    return random_band_limited(kernel.grid, seed=5)  # complex


@pytest.mark.parametrize("kind", ["gaussian", "warm", "complex"])
@pytest.mark.parametrize("d, n, L", CASES)
def test_ground_state_is_byte_identical_to_the_reference(monkeypatch, d, n, L, kind):
    p = PhysicsParams(alpha=ALPHA, gamma=GAMMA, d=d)
    kernel = HartreeKernel(Grid(d=d, n=n, L=L), GAMMA)
    opts = SolveOptions(q=3.0, max_iter=150, init=_start(kind, p, kernel))
    new = minimize(p, kernel, opts)
    ref = _reference_minimize(monkeypatch, p, kernel, opts)
    assert ref.iterations > 0
    _assert_identical(new, ref)


@pytest.mark.parametrize("shape", [(64, 2), (16, 9), (128, 65), (8, 8, 5), (3, 16, 16, 9)])
def test_make_hermitian_is_bitwise_the_reference(shape):
    x_hat = _signed_values(np.random.default_rng(sum(shape)), shape, complex_=True)
    ref = x_hat.copy()
    _make_hermitian(x_hat)
    _reference_make_hermitian(ref)
    assert x_hat.tobytes() == ref.tobytes()


def test_cached_weights_are_the_reference_weights_cast_to_complex():
    grid = Grid(d=2, n=32, L=25.0)
    kernel = HartreeKernel(grid, GAMMA)
    new = (kernel._half_spectrum, *spectral_module._half_spectrum(grid, ALPHA))
    ref = (_reference_kernel_half_spectrum(kernel), *_reference_half_spectrum(grid, ALPHA))
    for a, b in zip(new, ref):
        assert a.dtype == complex and not a.flags.writeable
        assert a.tobytes() == b.astype(complex).tobytes()
    assert new[1].flags.c_contiguous


# ---------------------------------------------------------------------------
# the NumPy arithmetic the equality rests on


def _signed_values(rng, shape, complex_: bool) -> np.ndarray:
    """Finite values of magnitude 1e-300 to 1e300 and either sign, about a
    tenth of them zeros of either sign; complex values get such a real and
    imaginary part each."""
    parts = 10.0 ** rng.uniform(-300.0, 300.0, (2,) + shape)
    parts[rng.random(parts.shape) < 0.1] = 0.0
    parts = np.copysign(parts, rng.choice([-1.0, 1.0], parts.shape))
    if not complex_:
        return parts[0]
    values = np.empty(shape, complex)
    values.real, values.imag = parts
    return values


def _nonzero_divisors(rng, shape) -> np.ndarray:
    return np.copysign(10.0 ** rng.uniform(-300.0, 300.0, shape), rng.choice([-1.0, 1.0], shape))


@pytest.mark.parametrize("shape", SHAPES)
def test_complex_times_real_is_complex_times_the_real_cast_to_complex(shape):
    """A complex x float product casts the float to ``x+0j`` and runs the
    complex loop: bit for bit, signed zeros included, whether out of place,
    in place or broadcast over a leading stack axis."""
    rng = np.random.default_rng(shape[0])
    z = _signed_values(rng, (2,) + shape, complex_=True)
    w = _signed_values(rng, shape, complex_=False)
    wc = w.astype(complex)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert (z[0] * w).tobytes() == (z[0] * wc).tobytes()
        assert (w * z[0]).tobytes() == (wc * z[0]).tobytes()
        stacked, stacked_c = z.copy(), z.copy()
        stacked *= w
        stacked_c *= wc
    assert stacked.tobytes() == stacked_c.tobytes()


def _zeros_unsigned(values: np.ndarray) -> bytes:
    parts = values.view(float)
    return np.where(parts == 0.0, 0.0, parts).tobytes()


@pytest.mark.parametrize("shape", SHAPES)
def test_complex_over_real_is_complex_times_the_reciprocal(shape):
    """A complex / float quotient scales by ``1 / x``: bit for bit in every
    nonzero real or imaginary part.  Only the sign of a zero part (a zero
    numerator part or an underflowed product) can differ, and a zero's sign
    moves no nonzero sum or product downstream: the solver test above
    checks that the whole iterate keeps its bits."""
    rng = np.random.default_rng(shape[0] + 1)
    z = _signed_values(rng, (2,) + shape, complex_=True)
    x = _nonzero_divisors(rng, shape)
    with np.errstate(over="ignore", under="ignore"):
        divided, scaled = z.copy(), z.copy()
        divided /= x
        scaled *= 1.0 / x
        assert _zeros_unsigned(z[0] / x) == _zeros_unsigned(z[0] * (1.0 / x))
    assert _zeros_unsigned(divided) == _zeros_unsigned(scaled)
    nonzero = divided.view(float) != 0.0
    assert nonzero.mean() > 0.5
    assert np.array_equal(divided.view(float)[nonzero], scaled.view(float)[nonzero])


def test_zero_imaginary_parts_of_the_residual_keep_their_sign():
    """The Hermitian edges of a residual have imaginary part +0 at their
    self-conjugate points; dividing and reciprocal scaling both keep it +0."""
    z = np.array([1.5 + 0.0j, -2.5 + 0.0j, 1e-300 + 0.0j, -1e300 + 0.0j])
    x = np.array([3.0, 0.7, 1e5, 2.0])
    divided, scaled = z / x, z * (1.0 / x)
    assert divided.tobytes() == scaled.tobytes()
    assert not np.signbit(scaled.imag).any()
