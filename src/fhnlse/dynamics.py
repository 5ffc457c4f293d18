"""Time evolution by Strang splitting, with the state held in Fourier space.

The evolution equation, written with the time derivative isolated, is
``psi_t = i (-Lap)^alpha psi - i (K * |psi|^2) psi``.  One Strang step of
size ``h`` is half a linear step ``psi_hat <- exp(+i |k|^(2 alpha) h/2)
psi_hat``, a full nonlinear step ``psi <- exp(-i (K * |psi|^2) h) psi`` —
exact, because that substep leaves ``|psi|`` (hence the potential)
unchanged — and half a linear step again.

The closing half-step of one step and the opening half-step of the next
are both Fourier multipliers, so they merge into one full linear factor.
Between recorded instants the state therefore stays in Fourier space,
carrying the opening half-step of its next step; a step costs one inverse
transform to reach the nonlinear substep, the density convolution (a
real-to-complex pair, see :meth:`HartreeKernel.convolve_density`) and one
forward transform back.  The closing half-step, with one more inverse
transform, is applied only where a state is recorded.  A recorded state
goes to the caller's ``observe`` as it is made and is not kept: the
trajectory holds the conserved-quantity series and the final state, so its
memory does not grow with the number of records.

The step's complex pair runs as unnormalized 1-D passes through NumPy's
pocketfft gufuncs (``grid._pass``), in place in one array and in the axis
order of ``np.fft.fftn``: this skips NumPy's n-D and 1-D wrappers and the
inverse's separate ``1/N`` pass.  The ``1/N`` is folded into the
Fourier-space factors instead; ``N`` is a power of two, so every state is
bit-for-bit what the normalized ``fftn``/``ifftn`` pair gives.  The
nonlinear substep fills two work arrays allocated once per run (the
density, which becomes its potential and then half the phase angle, and
the phase), so a step allocates only the convolution's half spectrum and
the finiteness check's mask.

The equation written with the opposite sign is the conjugate flow: its
solution from ``psi0`` is ``conj(evolve(conj(psi0)))``, which also runs
this flow backward in time.  Every substep is pointwise unimodular, so the
scheme conserves mass to roundoff; the energy error is second order in
``dt``.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbort
from .fields import Field, mass
from .grid import PhysicsParams, _pass
from .kernel import HartreeKernel
from .spectral import check_setup, energy

__all__ = ["evolve", "Trajectory"]

logger = logging.getLogger(__name__)


def _unit_phase(half_theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``exp(i theta)`` for real ``theta`` given ``half_theta = theta / 2``,
    from the half-angle tangent ``t = tan(theta / 2)``: ``cos theta = (1 -
    t^2) / (1 + t^2)`` and ``sin theta = 2 t / (1 + t^2)``.

    One vectorized ``tan`` replaces a ``cos`` and a ``sin``, each several
    times its cost; the result is unimodular for every finite ``t`` and
    agrees with ``cos + i sin`` to a few ulps.  NaN and infinite angles
    give NaN.  Works in place: ``half_theta`` is overwritten (it ends as
    ``2 t``), and the phase goes to ``out`` (a new complex array if None),
    whose imaginary part holds ``t^2`` and then ``1 / (1 + t^2)`` on the
    way.
    """
    if out is None:
        out = np.empty(half_theta.shape, dtype=complex)
    t = np.tan(half_theta, out=half_theta)
    np.multiply(t, t, out=out.imag)
    np.subtract(1.0, out.imag, out=out.real)
    out.imag += 1.0
    np.reciprocal(out.imag, out=out.imag)
    out.real *= out.imag
    t += t
    out.imag *= t
    return out


def _strang(
    values: np.ndarray,
    mult: np.ndarray,
    kernel: HartreeKernel,
    T: float,
    dt: float,
    stride: int,
) -> Iterator[tuple[int, float, np.ndarray]]:
    """Step from t = 0 to ``T`` in ``n = ceil(T/dt - 1e-9)`` equal steps of
    ``h = T/n`` (one step when that rounds to none for ``T > 0``); yield
    ``(k, t, values)`` after every ``stride``-th step and after the last
    one, which records exactly ``T``.

    ``psi_hat`` enters each step with its opening half-step applied, and
    divided by ``N`` so that the unnormalized inverse passes return the
    state: a recorded step closes with ``half`` and reopens with
    ``half / N``, any other with the merged factor over ``N``.  ``N`` is a
    power of two, so the folded scaling is exact.  One array holds
    ``psi_hat`` and the state in turn, and the nonlinear substep works in
    two arrays allocated once per run.  Raises :class:`NumericalAbort` on
    non-finite values.
    """
    n = max(int(np.ceil(T / dt - 1e-9)), 1 if T > 0 else 0)
    h = T / max(n, 1)
    # _unit_phase takes half the angle: the half-step factor's angle is
    # h/2 * mult, the merged factor's (closing half of one step times the
    # opening half of the next) h * mult
    half = _unit_phase(0.25 * h * mult)
    reopen = half / values.size
    merged = _unit_phase(0.5 * h * mult) / values.size
    psi_hat = np.fft.fftn(values)
    psi_hat *= reopen
    axes = range(-1, -values.ndim - 1, -1)  # last axis first, as in fftn
    phase = np.empty(values.shape, dtype=complex)
    squares = phase.view(np.float64)  # holds the state's x^2 and y^2 first
    # the density, then in place its potential, then half the phase angle
    rho = np.empty(values.shape)
    for k in range(1, n + 1):
        for axis in axes:
            _pass("ifft", psi_hat, axis, 1.0, psi_hat)
        np.square(psi_hat.view(np.float64), out=squares)
        np.add(squares[..., 0::2], squares[..., 1::2], out=rho)
        kernel.convolve_density(rho, out=rho)
        # half the phase angle, bit for bit 0.5 * ((-h) * potential):
        # scaling by a power of two commutes with rounding short of underflow
        rho *= -0.5 * h
        psi_hat *= _unit_phase(rho, out=phase)
        for axis in axes:
            _pass("fft", psi_hat, axis, 1.0, psi_hat)
        if not np.all(np.isfinite(psi_hat.view(np.float64))):
            raise NumericalAbort(f"non-finite state at step {k} (t = {k * h:g})")
        if k % stride == 0 or k == n:
            psi_hat *= half
            yield k, (T if k == n else k * h), np.fft.ifftn(psi_hat)
            psi_hat *= reopen
        else:
            psi_hat *= merged


@dataclass
class Trajectory:
    """Conserved-quantity series and final state of one evolution.

    ``times``, ``mass_series`` and ``energy_series`` have one entry per
    recorded instant (t = 0, every ``stride``-th step, and the final time);
    ``final`` is the state recorded at exactly that final time.
    """

    times: np.ndarray
    final: Field
    mass_series: np.ndarray
    energy_series: np.ndarray
    steps: int

    @property
    def mass_drift(self) -> float:
        """Largest change of the mass over the recorded instants (:func:`_drift`)."""
        return _drift(self.mass_series)

    @property
    def energy_drift(self) -> float:
        """Largest change of the energy over the recorded instants (:func:`_drift`)."""
        return _drift(self.energy_series)


def _drift(series: np.ndarray) -> float:
    """Largest change of ``series`` from its first value, relative to that
    value's magnitude; absolute when the first value is 0."""
    first = series[0]
    return float(np.max(np.abs(series - first)) / (abs(first) if first != 0.0 else 1.0))


def evolve(
    psi0: Field,
    p: PhysicsParams,
    kernel: HartreeKernel,
    T: float,
    dt: float,
    stride: int = 1,
    observe: Callable[[Field], object] | None = None,
) -> Trajectory:
    """Advance the Hartree flow from t = 0 to ``T`` in ``n = ceil(T/dt - 1e-9)``
    equal steps of ``T/n`` (``dt`` itself when ``T`` is a multiple of it);
    a ``T > 0`` below ``1e-9 * dt`` takes one step of ``T``.

    States are recorded at t = 0, after every ``stride``-th step, and at
    exactly ``T``.  Each recorded state is passed to ``observe``, in the
    order of ``times``, and not kept: the trajectory holds only the last.
    Raises :class:`NumericalAbort` on non-finite values.
    """
    check_setup(psi0.grid, p, kernel)
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite (got {dt})")
    if not 0 <= T < np.inf:
        raise ValueError(f"T must be nonnegative and finite (got {T})")
    if stride < 1:
        raise ValueError(f"stride must be >= 1 (got {stride})")

    grid = psi0.grid
    mult = grid.fractional_multiplier(p.alpha)
    records = _strang(psi0.values, mult, kernel, T, dt, stride)
    series = []
    for steps, t, vals in itertools.chain([(0, 0.0, psi0.values.copy())], records):
        state = Field(grid, vals)
        series.append((t, mass(state), energy(state, p, kernel)))
        if observe is not None:
            observe(state)
    times, masses, energies = map(np.asarray, zip(*series))
    return Trajectory(
        times=times, final=state, mass_series=masses, energy_series=energies, steps=steps
    )
