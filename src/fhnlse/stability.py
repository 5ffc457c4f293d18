"""Orbital-stability experiments: perturb a ground state, evolve, and track
the distance to the orbit ``{exp(i theta) g(. - y)}``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import evolve
from .fields import Field, band_limited_noise
from .grid import PhysicsParams, _check_real
from .groundstate import GroundState, align, require_converged
from .kernel import HartreeKernel
from .spectral import h_alpha_norm

__all__ = ["perturb", "stability_run", "StabilityReport"]

# Band limit of the injected noise: per-axis mode indices above this
# fraction of the Nyquist index are zeroed (the top third of the spectrum).
NOISE_KEEP_FRACTION = 2.0 / 3.0


def perturb(g: Field, alpha: float, delta: float, seed: int) -> Field:
    """``g + delta * w`` with seeded band-limited noise, ``|w|_{H^alpha} = 1``.

    The noise spectrum is i.i.d. complex normal on the retained modes
    (per-axis index within two thirds of Nyquist) and zero above, then the
    field is normalized in the H^alpha norm, so the injected perturbation
    size is exactly ``delta``.
    """
    _check_real(delta, "delta", "nonnegative")
    grid = g.grid
    w = Field(grid, band_limited_noise(grid, [seed], NOISE_KEEP_FRACTION)[0])
    w = w * (1.0 / h_alpha_norm(w, alpha))
    return Field(grid, g.values + delta * w.values)


@dataclass
class StabilityReport:
    """Outcome of one perturb-and-evolve experiment.  The ground state's
    energy, omega and residual are not copied here: they are those of the
    :class:`GroundState` passed to :func:`stability_run`."""

    delta: float
    seed: int
    T: float
    dt: float
    stride: int
    times: np.ndarray
    distances: np.ndarray
    sup_distance: float
    mass_drift: float
    energy_drift: float
    ground_norm: float  # H^alpha norm of the ground state, the scale of the distances


def stability_run(
    p: PhysicsParams,
    kernel: HartreeKernel,
    delta: float,
    T: float,
    dt: float,
    seed: int = 1,
    stride: int = 200,
    *,
    ground: GroundState,
) -> StabilityReport:
    """Perturb the minimizer ``ground`` by ``delta`` and track the orbit distance.

    ``ground`` comes from :func:`~fhnlse.groundstate.minimize` and must have
    converged (else :class:`NonConvergenceError`).  Distances are evaluated
    at every recorded instant of the evolution (stride steps apart), each
    as its state is recorded.
    """
    gs = require_converged(ground, "stability_run")
    psi0 = perturb(gs.g, p.alpha, delta, seed)
    distances: list[float] = []
    traj = evolve(
        psi0, p, kernel, T=T, dt=dt, stride=stride,
        observe=lambda psi: distances.append(align(psi, gs.g, p.alpha).distance),
    )
    return StabilityReport(
        delta=float(delta),
        seed=int(seed),
        T=float(T),
        dt=float(dt),
        stride=int(stride),
        times=traj.times,
        distances=np.asarray(distances),
        sup_distance=float(np.max(distances)),
        mass_drift=traj.mass_drift,
        energy_drift=traj.energy_drift,
        ground_norm=h_alpha_norm(gs.g, p.alpha),
    )
