"""Self-contained verification checks, shared by the CLI and the test suite.

Each check returns a :class:`CheckResult` whose ``values`` record every
number it measured and every threshold it held them to; its ``detail`` is
formatted from them by :func:`format_detail`.  Thresholds live here, next to
the check that enforces them, and those that follow the solver's residual
tolerance read it from the context's solve options.  :data:`CHECKS` lists
the checks in report order and marks the fast consistency checks that
``level="quick"`` runs at reduced sizes; ``level="full"`` runs them all at
reference scale.  The reference instance is :data:`config.DEFAULTS` (q = 3
on the 64^2 box of length 40, whose ground state is localized), and one
shared ground-state solve feeds the checks that need it.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, wraps
from pathlib import Path

import numpy as np

from .config import DEFAULTS, kernel_from, params_from, solve_options_from
from .dynamics import evolve
from .fields import Field, gaussian, mass, random_band_limited
from .grid import Grid, PhysicsParams
from .groundstate import (
    GroundState,
    ScalingResult,
    SolveOptions,
    align,
    minimize,
    scaling_experiment,
    subadditivity_check,
)
from .kernel import HartreeKernel, hartree_direct
from .rearrange import rearrangement_sweep, symmetric_rearrange
from .spectral import (
    EnergyTerms,
    energy,
    energy_gradient,
    h_alpha_norm,
    lagrange_multiplier,
)
from .stability import stability_run

__all__ = ["CheckResult", "VerifyContext", "run_checks", "CHECKS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0
    values: dict = dataclass_field(default_factory=dict)

    def __post_init__(self) -> None:
        # comparisons of NumPy scalars yield np.bool_, which the JSON report
        # cannot serialize
        self.passed = bool(self.passed)


@dataclass
class VerifyContext:
    """Caches the expensive shared artifacts across checks."""

    seed: int = 1

    @cached_property
    def params(self) -> PhysicsParams:
        return params_from(DEFAULTS)

    @cached_property
    def kernel(self) -> HartreeKernel:
        return kernel_from(DEFAULTS)

    @property
    def grid(self) -> Grid:
        return self.kernel.grid

    @cached_property
    def solve_options(self) -> SolveOptions:
        return solve_options_from(DEFAULTS)

    @cached_property
    def ground(self) -> GroundState:
        return minimize(self.params, self.kernel, self.solve_options)

    @cached_property
    def scaling(self) -> ScalingResult:
        return scaling_experiment(
            self.params,
            self.kernel,
            base_q=self.solve_options.q,
            lambdas=(0.5, 1.0, 2.0, 4.0),
            opts=self.solve_options,
        )


Check = Callable[[VerifyContext, str], CheckResult]

# name -> (check, whether level "quick" runs it), in report order
CHECKS: dict[str, tuple[Check, bool]] = {}


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_format, value)) + "]"
    return str(value)


def format_detail(values: dict) -> str:
    """A check's ``key=value`` pairs in the order of its record: floats to
    four significant digits, lists element by element, anything else by
    ``str``."""
    return ", ".join(f"{key}={_format(value)}" for key, value in values.items())


def _check(name: str, quick: bool = False):
    """Register a check body returning ``(passed, values)`` under ``name``;
    the registered function returns the :class:`CheckResult`, whose detail
    is formatted from the values."""

    def register(body) -> Check:
        @wraps(body)
        def check(ctx: VerifyContext, level: str = "full") -> CheckResult:
            passed, values = body(ctx, level)
            return CheckResult(name, passed, format_detail(values), values=values)

        CHECKS[name] = (check, quick)
        return check

    return register


# ---------------------------------------------------------------------------
# individual checks


@_check("hartree-oracle-equivalence", quick=True)
def check_hartree_oracle(ctx: VerifyContext, level: str):
    """The pairing ``EnergyTerms`` feeds to ``energy`` vs the brute-force
    double sum on every small-grid family.  ``EnergyTerms`` and the
    solver's ``HalfSpectrumTerms`` read the pairing from one routine,
    ``spectral.density_terms``."""
    tol = 1e-10
    cases = [
        (Grid(d=2, n=16, L=20.0), 17),
        (Grid(d=2, n=32, L=40.0), 17),
        (Grid(d=1, n=64, L=40.0), 8),
        (Grid(d=3, n=8, L=10.0), 8),
    ]
    if level == "quick":
        cases = [(g, max(3, c // 4)) for g, c in cases]
    errors = []
    alpha, gamma = ctx.params.alpha, ctx.params.gamma
    for grid, reps in cases:
        kernel = HartreeKernel(grid, gamma)
        p = PhysicsParams(alpha, gamma, grid.d)
        for r in range(reps):
            u = random_band_limited(grid, seed=ctx.seed + 100 * grid.d + r)
            fast = EnergyTerms(u, p, kernel).pairing
            direct = hartree_direct(u, kernel)
            errors.append(abs(fast - direct) / abs(direct))
    # np.max propagates a NaN error, which then fails the check; max() would drop it
    worst = float(np.max(errors))
    return worst < tol, {"max_rel_err": worst, "fields": len(errors), "tol": tol}


@_check("gradient-pairing", quick=True)
def check_gradient_pairing(ctx: VerifyContext, level: str):
    """Central-difference directional derivatives vs Re<G(u), v>."""
    tol = 1e-6
    eps = 1e-5
    pairs = 5
    grid = Grid(d=2, n=32, L=40.0)
    p = ctx.params
    kernel = HartreeKernel(grid, p.gamma)
    errors = []
    for r in range(pairs):
        u = random_band_limited(grid, seed=ctx.seed + 10 + r)
        v = random_band_limited(grid, seed=ctx.seed + 510 + r)
        plus = Field(grid, u.values + eps * v.values)
        minus = Field(grid, u.values - eps * v.values)
        fd = (energy(plus, p, kernel) - energy(minus, p, kernel)) / (2.0 * eps)
        pairing = float(
            np.real(np.sum(np.conj(energy_gradient(u, p, kernel).values) * v.values))
            * grid.cell_volume
        )
        errors.append(abs(fd - pairing) / max(abs(fd), 1e-30))
    worst = float(np.max(errors))  # a NaN error propagates and fails the check
    return worst < tol, {"max_rel_err": worst, "pairs": pairs, "tol": tol}


def _flat_energy(kernel: HartreeKernel, q: float) -> float:
    """E of the constant field of mass ``q`` on the kernel's box: the seminorm
    vanishes and the pairing is ``q^2 cell_volume spectrum[0] / L^d``."""
    grid = kernel.grid
    zero_mode = float(kernel.spectrum[(0,) * grid.d])
    return -0.25 * q * q * grid.cell_volume * zero_mode / grid.L**grid.d


@_check("groundstate-convergence")
def check_groundstate_convergence(ctx: VerifyContext, level: str):
    """The reference solve converges to a localized state: E lies below the
    energy of the flat state of the same mass on its box, and |g| peaks well
    above its box average.  The flat state reads a drop of 0 and a
    peak/mean of 1; since E_flat < 0, the drop also implies E < 0."""
    tol = ctx.solve_options.resid_tol
    min_drop = 1e-3  # required (E_flat - E) / |E_flat|
    min_peak = 2.0  # required max |g| / mean |g|
    gs = ctx.ground
    e_flat = _flat_energy(ctx.kernel, gs.q)
    drop = (e_flat - gs.energy) / abs(e_flat)
    return (
        gs.converged and gs.residual < tol and drop > min_drop
        and gs.peak_over_mean > min_peak,
        {
            "converged": gs.converged, "residual": gs.residual, "tol": tol,
            "energy": gs.energy, "flat_energy": e_flat, "drop": drop, "min_drop": min_drop,
            "peak_over_mean": gs.peak_over_mean, "min_peak": min_peak,
            "seam_ratio": gs.seam_ratio, "iterations": gs.iterations,
        },
    )


@_check("euler-lagrange-residual")
def check_euler_lagrange(ctx: VerifyContext, level: str):
    """Recompute |G(g) - omega g| / |g| from scratch at the returned state."""
    tol = ctx.solve_options.resid_tol
    gs = ctx.ground
    p, kernel = ctx.params, ctx.kernel
    omega = lagrange_multiplier(gs.g, p, kernel)
    grad = energy_gradient(gs.g, p, kernel)
    resid = Field(gs.g.grid, grad.values - omega * gs.g.values)
    rel = np.sqrt(mass(resid) / mass(gs.g))
    return rel < tol, {"residual": rel, "tol": tol, "omega": omega}


@_check("radial-symmetry")
def check_radial_symmetry(ctx: VerifyContext, level: str):
    """|g| should match its own symmetric-decreasing rearrangement (after
    alignment) and vanish nowhere."""
    gs = ctx.ground
    alpha = ctx.params.alpha
    norm = h_alpha_norm(gs.g, alpha)
    tol = 1e-3 * norm
    magnitudes = Field(gs.g.grid, np.abs(gs.g.values))
    rearranged = symmetric_rearrange(gs.g)
    dist = align(magnitudes, rearranged, alpha).distance
    min_mag = float(np.min(np.abs(gs.g.values)))
    values = {"distance": dist, "tol": tol, "min_magnitude": min_mag}
    return dist < tol and min_mag > 0.0, values


@_check("mass-scaling-slope")
def check_scaling_slope(ctx: VerifyContext, level: str):
    """Log-log slope of |E| vs lambda across {0.5, 1, 2, 4}, against its exponent.

    Each row solves on a box rescaled with lambda, where the scaling law holds
    exactly on the lattice, so the slope tests the consistency of the solver
    across the rows, not the discretization error of one box.
    """
    tol = 0.05
    res = ctx.scaling
    target = res.exponent
    rel = abs(res.slope - target) / target
    return (
        rel < tol and all(r.converged for r in res.rows),
        {
            "slope": res.slope, "target": target, "rel_dev": rel, "tol": tol,
            "lambdas": [r.lam for r in res.rows],
            "energies": [r.energy for r in res.rows],
            "box_lengths": [r.L for r in res.rows],
        },
    )


@_check("subadditivity")
def check_subadditivity(ctx: VerifyContext, level: str):
    """E(q) < E(q/2) + E(q/2) on the reference box, margin above solver noise."""
    opts = ctx.solve_options
    min_margin = 10 * opts.resid_tol
    res = subadditivity_check(ctx.params, ctx.kernel, opts.q / 2, opts.q / 2, opts)
    return (
        res.all_converged and res.margin > min_margin,
        {
            "masses": [gs.q for gs in res.states],
            "energies": [gs.energy for gs in res.states],
            "margin": res.margin, "required": min_margin,
        },
    )


@_check("rearrangement-suite", quick=True)
def check_rearrangement_suite(ctx: VerifyContext, level: str):
    """Permutation exactness, seminorm contraction, and the triple-pairing
    inequality, each over a random-field population."""
    if level == "quick":
        grid = Grid(d=2, n=32, L=40.0)
        count = 30
    else:
        grid = ctx.grid
        count = 100
    sweep = rearrangement_sweep(
        grid, ctx.params.alpha, count, ctx.seed + 900, ctx.seed + 2000
    )
    return (
        sweep.passed,
        {
            "fields": count, "n": grid.n, "changed_seeds": sweep.changed,
            "worst_contraction_excess": sweep.worst_seminorm,
            "worst_riesz_excess": sweep.worst_pairing, "slack": sweep.slack,
        },
    )


def _dt_halving(psi0: Field, p: PhysicsParams, kernel: HartreeKernel, T: float,
                dt: float, stride: int):
    """Energy drift at ``2 dt`` over that at ``dt``, both recorded at the same
    instants, and the trajectory at ``dt``."""
    fine = evolve(psi0, p, kernel, T=T, dt=dt, stride=stride)
    coarse = evolve(psi0, p, kernel, T=T, dt=2 * dt, stride=stride // 2)
    return coarse.energy_drift / fine.energy_drift, fine


@_check("conservation", quick=True)
def check_conservation(ctx: VerifyContext, level: str):
    """Mass/energy drift over the reference run; energy error halves like dt^2.

    The drift bounds are measured on the perturbed reference trajectory.
    The dt-halving factor is measured on a strongly nonlinear study state
    (a heavy narrow Gaussian) so the splitting truncation error sits well
    above roundoff; a near-stationary state would show pure noise there.
    """
    mass_tol = 1e-10
    energy_tol = 1e-6
    factor_lo, factor_hi = 3.0, 5.0
    if level == "quick":
        grid = Grid(d=2, n=32, L=25.0)
        kernel = HartreeKernel(grid, ctx.params.gamma)
        psi0 = random_band_limited(grid, seed=ctx.seed + 76) * 2.0  # mass 4
        factor, main = _dt_halving(psi0, ctx.params, kernel, T=1.0, dt=1e-3, stride=10)
        drifts = {"mass_drift": main.mass_drift, "mass_tol": mass_tol}
        energy_ok = True  # the quick run bounds no energy drift
    else:
        main = stability_run(
            ctx.params, ctx.kernel, delta=1e-2, T=10.0, dt=1e-3, seed=ctx.seed,
            stride=100, ground=ctx.ground,
        )
        study = gaussian(ctx.grid, width=2.0, mass=4.0)
        factor, _ = _dt_halving(study, ctx.params, ctx.kernel, T=2.0, dt=5e-4, stride=20)
        drifts = {
            "T": main.T, "dt": main.dt,
            "mass_drift": main.mass_drift, "mass_tol": mass_tol,
            "energy_drift": main.energy_drift, "energy_tol": energy_tol,
        }
        energy_ok = main.energy_drift < energy_tol
    return (
        main.mass_drift < mass_tol and energy_ok and factor_lo <= factor <= factor_hi,
        {**drifts, "factor": factor, "factor_band": [factor_lo, factor_hi]},
    )


@_check("standing-wave-orbit")
def check_standing_wave(ctx: VerifyContext, level: str):
    """The unperturbed minimizer must hug its own orbit for ten time units."""
    report = stability_run(
        ctx.params, ctx.kernel, delta=0.0, T=10.0, dt=1e-3, stride=100,
        ground=ctx.ground,
    )
    worst = report.sup_distance
    tol = 1e-3 * report.ground_norm
    return worst < tol, {"T": report.T, "max_distance": worst, "tol": tol}


@_check("stability-sweep")
def check_stability_sweep(ctx: VerifyContext, level: str):
    """Perturbations stay within 10x their size; sup distance shrinks with delta."""
    deltas = [4e-2, 2e-2, 1e-2]
    sups = [
        stability_run(
            ctx.params, ctx.kernel, delta=delta, T=20.0, dt=1e-3, seed=ctx.seed,
            stride=200, ground=ctx.ground,
        ).sup_distance
        for delta in deltas
    ]
    bound = 10 * deltas[-1]
    monotone = all(sups[i] >= sups[i + 1] for i in range(len(sups) - 1))
    return (
        sups[-1] <= bound and monotone,
        {"deltas": deltas, "sups": sups, "bound": bound, "monotone": monotone},
    )


@_check("reproducibility")
def check_reproducibility(ctx: VerifyContext, level: str):
    """Identical seeds and configs must produce bit-identical outputs."""
    from .cli import main as cli_main  # local import; cli imports this module

    cfg = {
        "grid": {"n": 32, "L": 25.0},
        "solver": {"maxIter": 6000, "residTol": 1e-5},
        "stability": {"delta": 1e-2, "T": 0.5, "dt": 1e-3, "snapshotStride": 100},
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("run1", "run2"):
            out = tmp / run
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(
                    ["stability", "--config", str(cfg_path), "--output-dir", str(out)]
                )
            if code != 0:
                return False, {"exit_code": code}
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        mismatches = [
            name
            for name in names
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
        ]
        ok = not mismatches and len(names) > 0
    return ok, {"files": len(names), "mismatches": mismatches}


# ---------------------------------------------------------------------------
# orchestration


def run_checks(
    level: str = "quick",
    seed: int = 1,
    only: str | None = None,
    progress=None,
) -> list[CheckResult]:
    """Run the verification checks; returns one result per check.

    ``level`` is "quick" or "full"; ``seed`` is a nonnegative integer;
    ``only`` filters check names by substring.  ``progress`` (if given) is
    called with each finished :class:`CheckResult`.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full' (got {level!r})")
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    ctx = VerifyContext(seed=seed)
    names = [name for name, (_, quick) in CHECKS.items() if quick or level == "full"]
    if only:
        names = [n for n in names if only in n]
        if not names:
            raise ValueError(f"no check name contains {only!r} at level {level!r}")
    results = []
    for name in names:
        start = time.perf_counter()
        try:
            result = CHECKS[name][0](ctx, level)
        except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
            result = CheckResult(name=name, passed=False, detail=f"raised {exc!r}")
        result.seconds = time.perf_counter() - start
        results.append(result)
        if progress is not None:
            progress(result)
    return results
