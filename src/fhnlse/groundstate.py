"""Mass-constrained energy minimization and ground-state experiments.

The minimizer descends on the mass sphere along the H^alpha-preconditioned
Euler-Lagrange residual: the direction ``d`` is ``P (G(u) - omega u)`` with
``P = (s + |k|^(2 alpha))^(-1)`` and the shift ``s = max(|omega|, smallest
nonzero |k|^(2 alpha))``, projected onto the sphere's tangent space.  Each
iteration steps to ``c (u - tau d)``, with ``c`` the rescale back to the
mass sphere (Antoine, Levitt & Tang, J. Comput. Phys. 343 (2017); the
gradient-flow setting is that of Bao & Du, SIAM J. Sci. Comput. 25
(2004)), halving a trial ``tau`` until the post-projection energy is
finite and no higher than the largest of the last ``_NONMONOTONE_WINDOW``
accepted energies, the start included: the nonmonotone test of Grippo,
Lampariello & Lucidi (SIAM J. Numer. Anal. 23 (1986) 707), which Raydan
paired with Barzilai-Borwein steps (SIAM J. Optim. 7 (1997) 26).  The
energy may thus rise from one iterate to the next, but never above that
window's maximum, which therefore never increases.  The first trial from
the start is ``_TAU0``; each next one is the two-point step of Barzilai &
Borwein (IMA J. Numer. Anal. 8 (1988) 141) in the preconditioner's metric,
``<s, P^(-1) s> / <s, y>`` for the last accepted move ``s = u_new - u_old``
and the change ``y = r_new - r_old`` of the residual, with ``P^(-1)`` at
``u_new``, so the trial follows the curvature the flow has just seen.  It
falls back to 1.2 times the last step where ``<s, y> <= 0`` or the quotient
is not finite, and may grow past ``_TAU0``.

Without a given start the solve starts from the centred Gaussian whose
width ``w*`` minimizes the continuum Gaussian's energy at the solve's mass
(the variational Gaussian ansatz; :meth:`PhysicsParams.gaussian_width`),
capped at L/8, the default width of :func:`~fhnlse.fields.gaussian`.
Under the mass-preserving dilation ``u_s = s^(d/2) u(s x)`` the kinetic
term scales as ``s^(2 alpha)`` and the Hartree term as ``s^gamma``, and for
a Gaussian both are known in closed form, so the start already has the
minimizer's length scale (1.6 at q = 3 in d = 2, against L/8 = 5 on the
reference box) and the flow does not spend its first iterations shrinking
it.

Minimizers are, up to translation and phase, positive symmetric
nonincreasing functions, so every start is first mapped to the even part of
the symmetric-decreasing rearrangement of its magnitude: a real field
centred on the box, whose translation and phase are gone.  A start that is
already a lattice minimizer is not exactly its own rearrangement, so the
even part of its magnitude, centred on its peak, is the other candidate,
and the solver starts from the one of lower energy.  The flow keeps the
start real, so the iterate, the direction and the residual are real arrays
and their DFTs half spectra (``rfftn``).  The iterate's half spectrum is
carried beside it, so the residual, its norm (by Parseval, with Hermitian
weights), the direction and every trial field are formed in Fourier space
as well: a trial has the half spectrum ``c (u_hat - tau d_hat)``, and the
one density convolution of its energy gives, once it is accepted, its
residual and the next direction.  An accepted iterate thus costs one real
transform pair, and a trial none beyond the real pair of its density
convolution.  The two Barzilai-Borwein products are Hermitian-weighted sums
over half spectra the iteration forms anyway; since ``s = (c - 1) u - c tau
d`` and ``<u, r_old> = 0``, ``<s, r_old>`` is ``-c tau <d, r_old>``, a
scalar kept from the last descent in place of ``r_old``.  Convergence is
declared on the constrained Euler-Lagrange residual ``|G(u) - omega u|_2 /
|u|_2``.

A solve works in ten arrays, made once when its start is chosen, so that
an accepted iterate allocates no array of its own but the rare copy of a
best iterate below.  Two iterate slots each hold a real ``u`` and its half
spectrum ``u_hat``: the current iterate's, at first the start's, and the
other, which the trials write and which becomes current when one is
accepted, so that the slots swap.  One real ``potential`` holds ``K *
|u|^2`` of the current iterate until :func:`_descent` has read it; the
descent then forms ``(K * |u|^2) u`` and ``beta u`` there, and each trial's
energy writes its potential there.  The descent writes the real direction
``d``, its half spectrum ``d_hat`` and the half spectra ``metric`` and
``r_weighted``, with the other slot's ``u_hat`` as its scratch: that slot
is idle from the acceptance that formed ``s_hat`` to the first trial.  The
Barzilai-Borwein step forms its product ``P^(-1) s_hat`` in ``metric``, in
place; once it and the slope are taken, ``metric`` and ``r_weighted`` are
idle: the trials form ``u_hat - tau d_hat`` in ``r_weighted`` and the
half spectrum of the density convolution, then the seminorm's weighted
``u_hat``, in ``metric``, and the acceptance forms the weighted ``s_hat``
of ``|s|^2`` in ``r_weighted``.  The move ``s_hat`` of the last accepted step
lives from its acceptance to the next Barzilai-Borwein step; during the
trials its memory, read as a real array of the field's shape, takes ``tau
d``, the squares of the mass factor and the density.  The best iterate is
kept by reference and copied only when the trials are about to overwrite
its slot; the returned field is a new array.  Each operation is the ufunc
call that an expression on new arrays makes, in the same order, with a
work array as its ``out``, so the iterates keep their bits.  In d >= 2
NumPy buffers each of the three products with the Hermitian weights,
which broadcast along the leading axes: a transient of at most NumPy's
buffer size (8192 values).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache

import numpy as np

from .errors import NonConvergenceError, NumericalAbort
from .fields import Field, _mass_factor, gaussian
from .grid import Grid, PhysicsParams, _check_real, _fftn, _frozen, _ifftn, _irfftn, _is_int, _rfftn
from .kernel import HartreeKernel
from .rearrange import symmetric_rearrange
from .spectral import EnergyTerms, energy, h_alpha_norm

__all__ = [
    "SolveOptions",
    "GroundState",
    "AlignResult",
    "ScalingRow",
    "ScalingResult",
    "SubadditivityResult",
    "minimize",
    "align",
    "scaling_experiment",
    "subadditivity_check",
    "require_converged",
]

_MAX_BACKTRACKS = 60
# a trial is accepted at or below the largest of this many last accepted
# energies; a window of 1 is the monotone rule
_NONMONOTONE_WINDOW = 10
_TAU0 = 0.5  # first trial step size
_STALL_TOL = 1e-11  # an accepted step moving u by less, relative to |u|, stalls
# the columns of GroundState.history, one row per accepted iterate
_HISTORY_DTYPE = np.dtype(
    [("energy", float), ("residual", float), ("step", float), ("backtracks", int)]
)


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for :func:`minimize`, checked when made; ``config.DEFAULTS["solver"]``
    takes its ``q``, ``maxIter`` and ``residTol`` from these defaults.

    init: the start, a Field on the solve's grid, or None (default) for the
    Gaussian centred at the box centre whose width is the energy-optimal
    ``w*`` of mass ``q`` (:meth:`~fhnlse.grid.PhysicsParams.gaussian_width`)
    capped at L/8, the default width of :func:`~fhnlse.fields.gaussian`
    (see :func:`_initial_fields`).  A snapshot on disk becomes a Field
    through :func:`~fhnlse.snapshots.read_field`.  The solver keeps only
    the start's magnitudes (see :func:`minimize`), so a start's translation
    and phase are dropped.
    """

    q: float = 3.0
    max_iter: int = 40000
    resid_tol: float = 1e-6
    init: Field | None = None
    keep_history: bool = True

    def __post_init__(self) -> None:
        _check_real(self.q, "q")
        if not _is_int(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1 (got {self.max_iter!r})")
        _check_real(self.resid_tol, "resid_tol")
        if self.init is not None and not isinstance(self.init, Field):
            raise ValueError(f"unrecognized init {self.init!r}")


@dataclass
class GroundState:
    """Result of a constrained minimization."""

    g: Field
    q: float
    energy: float
    omega: float
    residual: float
    iterations: int  # accepted iterates, the start not counted
    stop_reason: str
    # a _HISTORY_DTYPE row per accepted iterate, the start included (step 0,
    # no backtracks); kept only under ``SolveOptions.keep_history``
    history: np.ndarray | None = dataclass_field(repr=False, default=None)

    @property
    def converged(self) -> bool:
        """Whether the solve stopped on its residual target."""
        return self.stop_reason == "residual"

    @property
    def seam_ratio(self) -> float:
        """max |g| on the box seam over max |g|: near 1 for a box-filling
        state, small for a localized one."""
        vals = np.abs(self.g.values)
        seam = max(float(np.max(np.take(vals, 0, axis=axis))) for axis in range(vals.ndim))
        return seam / float(np.max(vals))

    @property
    def peak_over_mean(self) -> float:
        """max |g| over the box average of |g|: 1 for the flat state."""
        vals = np.abs(self.g.values)
        return float(np.max(vals)) / float(np.mean(vals))


@lru_cache(maxsize=None)
def _negated(n: int) -> np.ndarray:
    """The indices ``(n - j) mod n`` for ``j = 0..n-1``, read-only."""
    return _frozen(-np.arange(n) % n)


def _reflect(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``a(-x)`` along ``axes``, where index ``j`` reflects to ``(n - j) mod
    n``: about the coordinate origin (index ``n//2``) for a field, about the
    zero frequency for a spectrum.  One gather per axis, bit for bit
    ``np.roll(np.flip(a, axes), 1, axes)``; ``a`` itself when ``axes`` is
    empty."""
    for axis in axes:
        a = a.take(_negated(a.shape[axis]), axis=axis)
    return a


def _even(a: np.ndarray) -> np.ndarray:
    """The even part ``(a(x) + a(-x)) / 2`` of the field ``a``."""
    return 0.5 * (a + _reflect(a, tuple(range(a.ndim))))


def _initial_fields(p: PhysicsParams, grid: Grid, opts: SolveOptions) -> list[np.ndarray]:
    """The solver's real start candidates, at mass ``q``: the even part of
    the symmetric-decreasing rearrangement of ``|init|`` and, for a given
    init where it differs, the even part of ``|init|`` rolled on the lattice
    to put its peak at the box centre.  When init is None it is the centred
    Gaussian of width ``min(w*, L/8)``, with ``w*`` the energy-optimal
    width :meth:`~fhnlse.grid.PhysicsParams.gaussian_width` of mass ``q``;
    the cap is the default width of :func:`~fhnlse.fields.gaussian`, so
    where ``w* >= L/8`` the start is that default Gaussian bit for bit.

    Both keep only the magnitudes of the start, so its translation and
    phase are dropped.  The rearrangement is the paper's map to a
    symmetric nonincreasing start; the rolled field keeps a start that is
    already a lattice minimizer, which is centred and even but not exactly
    its own rearrangement.  :func:`minimize` starts from the candidate of
    lower energy.  The default Gaussian is centred and radial, so it has
    the one candidate, which on a box whose coordinates are symmetric in
    floating point (L = 40, n = 64, say) is the Gaussian bit for bit.
    Where ``w*`` underflows to 0 (at q = 1e300, say) the floor ``h/64``
    keeps the width positive; it changes no start, since every Gaussian
    narrower than ``h/38`` samples to the lattice delta (the neighbours'
    ``exp(-h^2 / (2 w^2))`` underflow to 0).
    """
    if opts.init is None:
        width = max(min(p.gaussian_width(opts.q), grid.L / 8.0), grid.h / 64.0)
        init = gaussian(grid, width)
    else:
        init = opts.init
    if init.grid != grid:
        raise ValueError("initial field lives on a different grid")
    axes = tuple(range(grid.d))
    starts = [_even(symmetric_rearrange(init).values.real)]
    if opts.init is not None:
        magnitude = np.abs(init.values)
        peak = np.unravel_index(np.argmax(magnitude), grid.shape)
        centred = _even(np.roll(magnitude, [grid.n // 2 - i for i in peak], axes))
        if not np.array_equal(centred, starts[0]):
            starts.append(centred)
    return [s * _mass_factor(s, grid.cell_volume, opts.q) for s in starts]


def _make_hermitian(x_hat: np.ndarray) -> None:
    """Replace the zero and Nyquist columns of the half spectrum ``x_hat`` by
    their conjugate-symmetric parts, in place: ``X(-k) = conj(X(k))`` along
    the leading axes, which is all of ``X`` that a real field carries there
    and all that :func:`~fhnlse.grid._irfftn` reads."""
    edges = x_hat[..., :: x_hat.shape[-1] - 1]
    mirrored = np.conj(_reflect(edges, tuple(range(x_hat.ndim - 1))))
    mirrored += edges
    mirrored *= 0.5
    edges[...] = mirrored


def _descent(
    terms: EnergyTerms,
    shift_floor: float,
    out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    scratch: np.ndarray,
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(omega, residual, d, d_hat, metric, r_weighted)`` at the real field
    of ``terms``, the four arrays written into ``out``, in that order: a
    real array of the field's shape and three half spectra.

    ``d = P r`` is the preconditioned Euler-Lagrange residual
    ``r = G(u) - omega u`` with ``P = (s + |k|^(2 alpha))^(-1)``,
    ``s = max(|omega|, shift_floor)``, projected onto the tangent space of
    the mass sphere so that ``<u, d> = 0``; ``d`` is real and ``d_hat`` is
    its half spectrum.  Both are formed from ``terms.u_hat``: ``r_hat =
    (|k|^(2 alpha) - omega) u_hat - DFT((K * |u|^2) u)``, made Hermitian
    where a real field's is, gives ``|r|`` by Parseval, and one inverse
    transform of ``P r_hat`` gives ``d``, so the step costs one real
    transform pair.  ``metric`` is ``P^(-1) = s + |k|^(2 alpha)`` on the
    half spectrum and ``r_weighted`` is ``r_hat`` times the Hermitian
    weights, so that ``Re vdot(x_hat, r_weighted)`` is ``<x, r>`` times the
    grid size for a real ``x``.

    The temporaries go to ``terms.potential``, which is overwritten, and to
    ``scratch``, a half spectrum: the potential takes ``(K * |u|^2) u`` and
    then ``beta u`` for the projection's ``beta = <u, d> / <u, u>``;
    ``scratch`` takes ``P``, then the copy of ``P r_hat`` that the inverse
    transform consumes, then ``beta u_hat``; the transform of ``(K *
    |u|^2) u`` goes to ``r_weighted`` before it is formed.

    The weights are complex with a zero imaginary part, so the products
    with half spectra make no cast.  ``P`` is too: its real part is the
    real reciprocal of ``metric``'s and its imaginary part is set to zero,
    which is the ``x+0j`` that NumPy's cast of a real factor would make,
    without the cast's buffer; a complex reciprocal would be a complex
    division, which costs more (the same bits either way).
    """
    u, u_hat, potential = terms.u, terms.u_hat, terms.potential
    d, d_hat, metric, r_weighted = out
    omega = terms.omega
    r_hat = np.subtract(terms.multiplier, omega, out=d_hat)
    r_hat *= u_hat
    r_hat -= _rfftn(np.multiply(potential, u, out=potential), u.ndim, out=r_weighted)
    _make_hermitian(r_hat)
    np.multiply(terms.hermitian, r_hat, out=r_weighted)
    u_sq = float(np.vdot(u, u))
    r_sq = float(np.vdot(r_hat, r_weighted).real)
    resid = math.sqrt(r_sq / (u.size * u_sq))
    np.add(terms.multiplier, max(abs(omega), shift_floor), out=metric)
    # ``/=`` bit for bit but for the sign of a zero part: NumPy divides a
    # complex array by a real ``x`` as by ``x+0j``, scaling by ``1 / x``
    np.divide(1.0, metric.real, out=scratch.real)
    scratch.imag = 0.0
    d_hat *= scratch
    np.copyto(scratch, d_hat)
    _irfftn(scratch, u.ndim, u.shape[-1], out=d)
    beta = float(np.vdot(u, d)) / u_sq
    d -= np.multiply(beta, u, out=potential)
    d_hat -= np.multiply(beta, u_hat, out=scratch)
    return omega, resid, d, d_hat, metric, r_weighted


def minimize(
    p: PhysicsParams, kernel: HartreeKernel, opts: SolveOptions | None = None
) -> GroundState:
    """Minimize the energy over the sphere ``mass(u) == q`` by the flow of
    the module docstring.

    ``opts`` defaults to ``SolveOptions()``.  The start ``opts.init`` (None
    is the centred Gaussian of width ``min(w*, L/8)``, ``w*`` the
    energy-optimal width of mass ``q``) is mapped to a real, centred, even
    field at mass ``q``: the even part of its symmetric-decreasing
    rearrangement or, if that has the higher energy, of its magnitude
    centred on its peak (:func:`_initial_fields`).  The start and every
    accepted iterate are tested in this order: a non-finite energy or
    residual raises :class:`NumericalAbort`, which numbers the iterate as
    the rows of ``history`` do (the start is 0); a residual below
    ``resid_tol`` stops with ``stop_reason`` ``"residual"`` (the one
    ``converged`` one); a step that moved the iterate by less than
    ``_STALL_TOL`` relative to its norm stops with ``"stalled"``; and the
    ``max_iter``-th accepted iterate stops with ``"max_iter"``.  A trial is
    acceptable when its energy is finite and at most the largest of the last
    ``_NONMONOTONE_WINDOW`` accepted energies, the start included (Grippo,
    Lampariello & Lucidi 1986; Raydan 1997), so the energy of ``history``
    may rise within that window.  A step that no backtrack makes acceptable
    stops with ``"backtracking_floor"``.  Returns the :class:`GroundState`
    of the best (smallest-residual) iterate, the start included; its ``g``
    is a complex :class:`Field` whose imaginary part is zero, a copy that
    shares no memory with the solve's work arrays.

    The solve works in the arrays of the module docstring, made once per
    call.  It reads the four arrays :func:`_descent` returns, whichever
    they are, and writes only into its own.
    """
    opts = opts or SolveOptions()
    grid = kernel.grid
    # the smallest nonzero |k|^(2 alpha) of the grid keeps the
    # preconditioner finite on the zero mode when omega is near 0
    shift_floor = float((2.0 * np.pi / grid.L) ** (2.0 * p.alpha))

    e_now, cur = min(
        (
            energy(s, p, kernel, u_hat=_rfftn(s, grid.d), with_terms=True)
            for s in _initial_fields(p, grid, opts)
        ),
        key=lambda candidate: candidate[0],
    )
    # the work arrays of the module docstring: the iterate slots, the
    # current one first, and the potential, which the start's terms fill;
    # the descent's four outputs; and the move s_hat, whose memory the
    # trials' real temporaries share
    slots = [(cur.u, cur.u_hat), (np.empty_like(cur.u), np.empty_like(cur.u_hat))]
    potential = cur.potential
    out = (np.empty_like(cur.u), *(np.empty_like(cur.u_hat) for _ in range(3)))
    s_hat = np.empty_like(cur.u_hat)
    spare = s_hat.view(float).reshape(-1)[: cur.u.size].reshape(cur.u.shape)
    tau = _TAU0  # the first trial from the start
    # the energies of the last accepted iterates, the start included
    recent = deque([e_now], maxlen=_NONMONOTONE_WINDOW)
    iterations = 0
    rel_change = math.inf
    step, backtracks = 0.0, 0  # the start takes no step
    # the rows of GroundState.history, None when it is not kept
    history: list[tuple[float, float, float, int]] | None = [] if opts.keep_history else None

    while True:
        omega, resid, direction, direction_hat, metric, r_weighted = _descent(
            cur, shift_floor, out, slots[1][1]
        )
        if iterations:
            # BB1 in the metric P^(-1): <s, P^(-1) s> / <s, y>, y = r_new - r_old.
            # s = (c - 1) u - c step d and <u, r_old> = 0, so <s, r_old> is
            # -c step <d, r_old>; every inner product is times the grid size.
            s_y = float(np.vdot(s_hat, r_weighted).real) + c * step * slope
            weighted = np.multiply(metric, s_hat, out=out[2])
            s_s = float(np.vdot(s_hat, np.multiply(cur.hermitian, weighted, out=weighted)).real)
            tau = s_s / s_y if s_y > 0.0 else math.inf
            if not math.isfinite(tau):
                tau = 1.2 * step
        slope = float(np.vdot(direction_hat, r_weighted).real)  # <d, r>, times the size
        if history is not None:
            history.append((e_now, resid, step, backtracks))
        if iterations == 0 or resid < best[0]:
            best = (resid, cur.u, e_now, omega)

        if not math.isfinite(resid) or not math.isfinite(e_now):
            raise NumericalAbort(
                f"non-finite diagnostics at iteration {iterations} "
                f"(energy={e_now}, residual={resid})"
            )
        if resid < opts.resid_tol:
            stop_reason = "residual"
            break
        if rel_change < _STALL_TOL:
            stop_reason = "stalled"
            break
        if iterations == opts.max_iter:
            stop_reason = "max_iter"
            break

        u_next, u_hat_next = slots[1]
        if best[1] is u_next:  # the trials overwrite the best iterate's slot
            best = (best[0], u_next.copy(), *best[2:])
        spectrum, half = out[2], out[3]  # idle until the next descent
        step = tau
        e_ref = max(recent)
        for backtracks in range(_MAX_BACKTRACKS):
            w = np.subtract(cur.u, np.multiply(step, direction, out=spare), out=u_next)
            c = _mass_factor(w, grid.cell_volume, opts.q, work=spare)
            w *= c
            np.subtract(cur.u_hat, np.multiply(step, direction_hat, out=half), out=half)
            e_trial, trial = energy(
                w, p, kernel, u_hat=np.multiply(c, half, out=u_hat_next), with_terms=True,
                out=potential, work=(spare, spectrum),
            )
            if math.isfinite(e_trial) and e_trial <= e_ref:
                break
            step *= 0.5
        else:
            stop_reason = "backtracking_floor"
            break

        iterations += 1
        np.subtract(trial.u_hat, cur.u_hat, out=s_hat)
        # |s|^2 / |u|^2 by Parseval: the Hermitian sum is |s|^2 times the
        # grid size, and mass / cell_volume is |u|^2 of the old iterate
        s_sq = float(np.vdot(s_hat, np.multiply(cur.hermitian, s_hat, out=half)).real)
        rel_change = math.sqrt(s_sq / (grid.size * cur.mass / grid.cell_volume))
        cur, e_now = trial, e_trial
        slots.reverse()
        recent.append(e_now)

    # the first iterate below resid_tol stops the loop, so a converged
    # solve's best (smallest-residual) iterate is its last one
    resid_f, u_f, e_f, omega_f = best
    return GroundState(
        g=Field(grid, u_f),
        q=opts.q,
        energy=e_f,
        omega=omega_f,
        residual=resid_f,
        iterations=iterations,
        stop_reason=stop_reason,
        history=None if history is None else np.array(history, dtype=_HISTORY_DTYPE),
    )


# ---------------------------------------------------------------------------
# Orbit alignment


@dataclass(frozen=True)
class AlignResult:
    """Optimal lattice shift / global phase matching of two fields.

    ``shift`` (lattice index units, min-image signed) and ``phase`` satisfy
    ``f ~ exp(i*phase) * g(. - shift*h)``; ``distance`` is the H^alpha norm
    of the residual after applying them.
    """

    shift: tuple[int, ...]
    phase: float
    distance: float


def align(f: Field, g: Field, alpha: float) -> AlignResult:
    """Best match of ``f`` by ``exp(i theta) g(. - y)`` over lattice shifts.

    The shifted pairings ``<g(. - y), f>_{H^alpha}`` for every lattice shift
    come from one weighted cross-correlation; the optimal phase is the
    argument of the winning pairing.
    """
    f._check_same_grid(g)
    grid = f.grid
    weight = 1.0 + grid.fractional_multiplier(alpha)
    fhat = _fftn(f.values, grid.d)
    ghat = _fftn(g.values, grid.d)
    corr = _ifftn(weight * np.conj(ghat) * fhat, grid.d) * grid.cell_volume
    flat = int(np.argmax(np.abs(corr)))
    shift_idx = np.unravel_index(flat, grid.shape)
    theta = float(np.angle(corr[shift_idx]))
    shifted = np.roll(g.values, shift=shift_idx, axis=tuple(range(grid.d)))
    residual = Field(grid, f.values - np.exp(1j * theta) * shifted)
    dist = h_alpha_norm(residual, alpha)
    signed = tuple(
        int(s - grid.n) if s >= grid.n // 2 else int(s) for s in shift_idx
    )
    return AlignResult(shift=signed, phase=theta, distance=dist)


# ---------------------------------------------------------------------------
# Experiments


@dataclass
class ScalingRow:
    lam: float
    q: float
    L: float  # box side used for this row's solve
    energy: float
    converged: bool
    residual: float
    iterations: int


@dataclass
class ScalingResult:
    exponent: float
    slope: float
    rows: list[ScalingRow]


def _solve_mass(
    p: PhysicsParams, kernel: HartreeKernel, q: float, opts: SolveOptions | None
) -> GroundState:
    return minimize(p, kernel, replace(opts or SolveOptions(), q=q, keep_history=False))


def scaling_experiment(
    p: PhysicsParams,
    kernel: HartreeKernel,
    base_q: float,
    lambdas: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    opts: SolveOptions | None = None,
) -> ScalingResult:
    """Solve at masses ``lam * base_q`` and compare against the scaling law.

    The law ``E(lam * q) = lam**sigma * E(q)`` relates minimizers of a
    *rescaled family* of problems: mass ``lam * q`` paired with length
    scale divided by ``lam**p.width_exponent``.  Each row therefore solves
    on a box of side ``L * lam**-p.width_exponent`` (same point count),
    which discretizes that family exactly — the sampled kernel and the
    origin-cell regularization both commute with the rescaling.  Rows are
    still fully independent solves from their own Gaussian
    initializations, so the reported slope of ``log |E|`` versus ``log
    lam`` is a genuine end-to-end check of solver consistency against
    ``p.scaling_exponent``, not an identity replay, and ``opts.init`` must
    be None.  The default start's width ``min(w*, L/8)`` scales as each
    row's box does (``w*`` as ``q**-p.width_exponent``), so every row
    starts from the base row's start rescaled, and each row remains an
    exactly rescaled problem.  Each lambda is solved once; the row whose
    box is the kernel's (lam = 1) uses ``kernel``, every other row a kernel
    built on its own box.

    On a *fixed* box the law degrades at the small-mass end: once the
    minimizer's natural width exceeds the box, the discrete minimizer
    crosses over to the box-filling branch whose energy scales like
    ``q**2``, and no resolution can recover the continuum exponent.
    """
    _check_real(base_q, "base_q")
    for i, lam in enumerate(lambdas):
        _check_real(lam, f"lambdas[{i}]")
    if opts is not None and opts.init is not None:
        raise ValueError(
            "scaling_experiment starts each row from its own box's Gaussian; "
            "opts.init must be None"
        )
    grid = kernel.grid
    rows: list[ScalingRow] = []
    for lam in lambdas:
        row_L = grid.L * lam**-p.width_exponent
        row_kernel = (
            kernel if row_L == grid.L
            else HartreeKernel(Grid(d=grid.d, n=grid.n, L=row_L), p.gamma)
        )
        gs = _solve_mass(p, row_kernel, lam * base_q, opts)
        rows.append(
            ScalingRow(
                lam=float(lam),
                q=float(lam * base_q),
                L=float(row_L),
                energy=gs.energy,
                converged=gs.converged,
                residual=gs.residual,
                iterations=gs.iterations,
            )
        )
    logs = np.array([np.log(r.lam) for r in rows])
    vals = np.array([np.log(abs(r.energy)) for r in rows])
    slope = float(np.polyfit(logs, vals, 1)[0]) if len(rows) > 1 else float("nan")
    return ScalingResult(exponent=p.scaling_exponent, slope=slope, rows=rows)


@dataclass
class SubadditivityResult:
    """The ground states at masses ``q1``, ``q2`` and ``q1 + q2``."""

    states: tuple[GroundState, GroundState, GroundState]

    @property
    def margin(self) -> float:
        """``E(q1) + E(q2) - E(q1 + q2)``, positive when strictly subadditive."""
        gs1, gs2, gs12 = self.states
        return gs1.energy + gs2.energy - gs12.energy

    @property
    def all_converged(self) -> bool:
        return all(gs.converged for gs in self.states)


def subadditivity_check(
    p: PhysicsParams,
    kernel: HartreeKernel,
    q1: float,
    q2: float,
    opts: SolveOptions | None = None,
) -> SubadditivityResult:
    """Compare ``E(q1 + q2)`` with ``E(q1) + E(q2)`` by three direct solves."""
    _check_real(q1, "q1")
    _check_real(q2, "q2")
    gs1 = _solve_mass(p, kernel, q1, opts)
    gs2 = gs1 if q2 == q1 else _solve_mass(p, kernel, q2, opts)
    gs12 = _solve_mass(p, kernel, q1 + q2, opts)
    return SubadditivityResult(states=(gs1, gs2, gs12))


def require_converged(gs: GroundState, context: str = "experiment") -> GroundState:
    """Raise :class:`NonConvergenceError` unless ``gs`` met its residual target."""
    if not gs.converged:
        raise NonConvergenceError(
            f"{context}: ground-state solve stopped ({gs.stop_reason}) at "
            f"residual {gs.residual:.3e} after {gs.iterations} iterations"
        )
    return gs
