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

A record's mass and energy come from the spectrum the loop already holds:
:func:`~fhnlse.spectral.energy` of the recorded state with that spectrum
forms the seminorm by Parseval over it, the mass from the state's density
and the Hartree pairing by Parseval over the density's half spectrum.  A
record therefore costs two transforms, the inverse that makes the state
and the density's real forward one, where ``energy`` of the state alone
would take four.  The t = 0 record is made the same way from the
transform that starts the loop.

The step's complex pair is the transforms of :mod:`fhnlse.grid`, unscaled
and in place in one array; the inverse's ``1/N`` is folded into the
Fourier-space factors instead.  ``N`` is a power of two, so every state is
bit-for-bit what the normalized ``fftn``/``ifftn`` pair gives.  The
nonlinear substep fills work arrays allocated once per run: the density,
which becomes half the phase angle ``theta / 2`` (the convolution's last
pass scales its potential by ``-h/2``), then
``2 t`` for ``t = tan(theta / 2)``; the convolution's half spectrum; the
phase, which first holds the state's squares; a real pair for ``1 - t^2``
and ``1 / (1 + t^2)``, so that all the phase arithmetic runs on contiguous
arrays.  A step tests only the zero mode of each field's spectrum for
finiteness (see :func:`_strang`), and a step between records allocates no
array; a record works in the density and its half spectrum, idle between
steps, and allocates only the state it hands on.

The equation written with the opposite sign is the conjugate flow: its
solution from ``psi0`` is ``conj(evolve(conj(psi0)))``, which also runs
this flow backward in time.  Every substep is pointwise unimodular, so the
scheme conserves mass to roundoff; the energy error is second order in
``dt``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbort
from .fields import Field
from .grid import PhysicsParams, _check_real, _fftn, _ifftn, _is_int
from .kernel import HartreeKernel
from .spectral import check_setup, energy

__all__ = ["evolve", "Trajectory"]


def _unit_phase(
    half_theta: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """``exp(i theta)`` for real ``theta`` given ``half_theta = theta / 2``,
    from the half-angle tangent ``t = tan(theta / 2)``: ``cos theta = (1 -
    t^2) / (1 + t^2)`` and ``sin theta = 2 t / (1 + t^2)``.

    One vectorized ``tan`` replaces a ``cos`` and a ``sin``, each several
    times its cost; the result is unimodular for every finite ``t`` and
    agrees with ``cos + i sin`` to a few ulps.  NaN and infinite angles
    give NaN.  Works in place: ``half_theta`` (contiguous) is overwritten
    and ends as ``2 t``, and the phase goes to ``out`` (a new complex array
    if None).  The arithmetic runs on contiguous real arrays, ``tan``
    included: ``half_theta`` and ``work``, a real ``(2, *shape)`` array (a
    new one if None) whose first half ends as ``1 - t^2`` and whose second
    holds ``1 / (1 + t^2)``; only the two closing products, written
    straight into ``out.real`` and ``out.imag``, are strided.
    """
    if out is None:
        out = np.empty(half_theta.shape, dtype=complex)
    if work is None:
        work = np.empty((2, *half_theta.shape))
    cos, inv = work
    # on a contiguous array: NumPy's SIMD tan may take another path on strided input
    t = np.tan(half_theta, out=half_theta)
    np.multiply(t, t, out=cos)
    np.add(cos, 1.0, out=inv)
    np.reciprocal(inv, out=inv)
    np.subtract(1.0, cos, out=cos)
    np.multiply(cos, inv, out=out.real)
    t += t
    np.multiply(t, inv, out=out.imag)
    return out


def _strang(
    values: np.ndarray,
    p: PhysicsParams,
    kernel: HartreeKernel,
    T: float,
    dt: float,
    stride: int,
) -> Iterator[tuple[int, float, np.ndarray, float | np.ndarray, float | np.ndarray]]:
    """Step from t = 0 to ``T`` in ``n = ceil(T/dt - 1e-9)`` equal steps of
    ``h = T/n`` (one step when that rounds to none for ``T > 0``); yield
    the record ``(k, t, values, mass, energy)`` at t = 0 (a copy of
    ``values``), after every ``stride``-th step and after the last one,
    which records exactly ``T``.  ``values`` is one field or a stack ``(B,
    *grid.shape)`` of them, each of which evolves as if it ran alone; for a
    stack, ``mass`` and ``energy`` hold one value per field.

    ``psi_hat`` enters each step with its opening half-step applied, and
    divided by the grid size ``N`` so that the unscaled inverse transform
    returns the state: a recorded step closes with ``half`` and reopens
    with ``half / N``, any other with the merged factor over ``N``.  ``N``
    is a power of two, so the folded scaling is exact.  One array holds
    ``psi_hat`` and the state in turn; the nonlinear substep works in
    ``rho``, ``rho_hat``, ``phase`` and ``work``, allocated once per run
    (see the module docstring for what each holds when), and a record's
    :func:`~fhnlse.spectral.energy` works in ``rho`` and ``rho_hat``, which
    are idle between steps.

    Raises :class:`NumericalAbort` at the first step whose spectrum holds a
    non-finite value; for a stack, a non-finite value in any one field
    aborts the whole run.  Each step tests only the zero mode of each
    field, which is the test of every coefficient: a non-finite value at
    any site makes every coefficient of the forward transform non-finite,
    the zero mode (the sum of the values) among them, and every substep is
    unitary or unimodular, so a finite state of finite mass transforms to
    finite coefficients.
    """
    n = max(int(np.ceil(T / dt - 1e-9)), 1 if T > 0 else 0)
    h = T / max(n, 1)
    mult = kernel.grid.fractional_multiplier(p.alpha)
    # _unit_phase takes half the angle: the half-step factor's angle is
    # h/2 * mult, the merged factor's (closing half of one step times the
    # opening half of the next) h * mult
    half = _unit_phase(0.25 * h * mult)
    reopen = half / kernel.grid.size
    merged = _unit_phase(0.5 * h * mult) / kernel.grid.size
    d = kernel.grid.d
    phase = np.empty(values.shape, dtype=complex)
    squares = phase.view(np.float64)  # holds the state's x^2 and y^2 first
    x_sq, y_sq = squares[..., 0::2], squares[..., 1::2]
    # the density, then in place half the phase angle, then 2 t
    rho = np.empty(values.shape)
    rho_hat = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), dtype=complex)
    work = np.empty((2, *values.shape))
    psi_hat = _fftn(values, d)

    def record(k: int, t: float, state: np.ndarray) -> tuple:
        """The record of ``state``, whose unnormalized spectrum ``psi_hat`` holds."""
        e, terms = energy(state, p, kernel, u_hat=psi_hat, with_terms=True, work=(rho, rho_hat))
        return k, t, state, terms.mass, e

    yield record(0, 0.0, values.copy())
    psi_hat *= reopen
    # psi_hat and the state in turn, as interleaved real and imaginary parts
    components = psi_hat.view(np.float64)
    # the flat indices in components of each field's zero mode, its real and
    # its imaginary part, which each step reads as Python floats
    component = components.item
    zero_modes = [i for j in range(0, components.size, 2 * kernel.grid.size) for i in (j, j + 1)]
    # half the phase angle is the potential times -h/2, bit for bit 0.5 *
    # ((-h) * potential): scaling by a power of two commutes with rounding
    # short of underflow
    angle_scale = -0.5 * h
    for k in range(1, n + 1):
        _ifftn(psi_hat, d, out=psi_hat, scaled=False)
        np.square(components, out=squares)
        np.add(x_sq, y_sq, out=rho)
        kernel.convolve_density(rho, out=rho, scale=angle_scale, work=rho_hat)
        psi_hat *= _unit_phase(rho, out=phase, work=work)
        _fftn(psi_hat, d, out=psi_hat)
        if not all(map(math.isfinite, map(component, zero_modes))):
            raise NumericalAbort(f"non-finite state at step {k} (t = {k * h:g})")
        if k % stride == 0 or k == n:
            psi_hat *= half
            yield record(k, T if k == n else k * h, _ifftn(psi_hat, d))
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

    States are recorded at t = 0, after every ``stride``-th step (an
    integer >= 1), and at exactly ``T``.  Each recorded state is passed to ``observe``, in the
    order of ``times``, and not kept: the trajectory holds only the last.
    Raises :class:`NumericalAbort` on non-finite values.
    """
    _check_real(dt, "dt")
    _check_real(T, "T", "nonnegative")
    if not float(T) / float(dt) < np.inf:  # the step count ceil(T/dt) overflows
        raise ValueError(f"T / dt must be finite (got T = {T}, dt = {dt})")
    if not _is_int(stride) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1 (got {stride!r})")

    grid = psi0.grid
    check_setup(grid, p, kernel)
    series = []
    for steps, t, vals, m, e in _strang(psi0.values, p, kernel, T, dt, stride):
        state = Field(grid, vals)
        series.append((t, m, e))
        if observe is not None:
            observe(state)
    times, masses, energies = map(np.asarray, zip(*series))
    return Trajectory(
        times=times, final=state, mass_series=masses, energy_series=energies, steps=steps
    )
