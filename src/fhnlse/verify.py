"""Self-contained verification checks, shared by the CLI and the test suite.

Each check returns a :class:`CheckResult`; thresholds live here, next to the
check that enforces them.  ``level="quick"`` runs the fast consistency
checks at reduced sizes; ``level="full"`` runs the complete list at
reference scale (one shared ground-state solve feeds the checks that need
it).
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import time
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from pathlib import Path

import numpy as np

from .dynamics import conservation_report, evolve
from .fields import Field, gaussian, random_band_limited
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
from .kernel import HartreeKernel, hartree_direct, hartree_quadratic
from .rearrange import rearrangement_sweep, symmetric_rearrange
from .spectral import (
    energy,
    energy_gradient,
    h_alpha_norm,
    lagrange_multiplier,
    mass,
)
from .stability import orbit_distance, perturb, stability_run

__all__ = ["CheckResult", "VerifyContext", "run_checks", "CHECK_NAMES"]

REFERENCE = {"alpha": 0.6, "gamma": 0.5, "d": 2, "n": 64, "L": 40.0, "q": 1.0}


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
        return PhysicsParams(
            alpha=REFERENCE["alpha"], gamma=REFERENCE["gamma"], d=REFERENCE["d"]
        )

    @cached_property
    def grid(self) -> Grid:
        return Grid(d=REFERENCE["d"], n=REFERENCE["n"], L=REFERENCE["L"])

    @cached_property
    def kernel(self) -> HartreeKernel:
        return HartreeKernel(self.grid, REFERENCE["gamma"])

    @cached_property
    def ground(self) -> GroundState:
        return minimize(self.params, self.kernel, SolveOptions(q=REFERENCE["q"]))

    @cached_property
    def scaling(self) -> ScalingResult:
        return scaling_experiment(
            self.params, self.kernel, base_q=REFERENCE["q"], lambdas=(0.5, 1.0, 2.0, 4.0)
        )


# ---------------------------------------------------------------------------
# individual checks


def check_hartree_oracle(ctx: VerifyContext, level: str = "full") -> CheckResult:
    """Fast FFT pairing vs brute-force double sum on every small-grid family."""
    tol = 1e-10
    cases = [
        (Grid(d=2, n=16, L=20.0), 17),
        (Grid(d=2, n=32, L=40.0), 17),
        (Grid(d=1, n=64, L=40.0), 8),
        (Grid(d=3, n=8, L=10.0), 8),
    ]
    if level == "quick":
        cases = [(g, max(3, c // 4)) for g, c in cases]
    worst = 0.0
    count = 0
    for grid, reps in cases:
        kernel = HartreeKernel(grid, REFERENCE["gamma"])
        for r in range(reps):
            u = random_band_limited(grid, seed=ctx.seed + 100 * grid.d + r)
            fast = hartree_quadratic(u, kernel)
            direct = hartree_direct(u, kernel)
            worst = max(worst, abs(fast - direct) / abs(direct))
            count += 1
    return CheckResult(
        name="hartree-oracle-equivalence",
        passed=worst < tol,
        detail=f"max rel err {worst:.3e} over {count} fields (tol {tol:.0e})",
        values={"max_rel_err": worst, "tol": tol, "fields": count},
    )


def check_gradient_pairing(ctx: VerifyContext, level: str = "full") -> CheckResult:
    """Central-difference directional derivatives vs Re<G(u), v>."""
    tol = 1e-6
    eps = 1e-5
    grid = Grid(d=2, n=32, L=40.0)
    p = ctx.params
    kernel = HartreeKernel(grid, p.gamma)
    worst = 0.0
    for r in range(5):
        u = random_band_limited(grid, seed=ctx.seed + 10 + r)
        v = random_band_limited(grid, seed=ctx.seed + 510 + r)
        plus = Field(grid, u.values + eps * v.values)
        minus = Field(grid, u.values - eps * v.values)
        fd = (energy(plus, p, kernel) - energy(minus, p, kernel)) / (2.0 * eps)
        pairing = float(
            np.real(np.sum(np.conj(energy_gradient(u, p, kernel).values) * v.values))
            * grid.cell_volume
        )
        worst = max(worst, abs(fd - pairing) / max(abs(fd), 1e-30))
    return CheckResult(
        name="gradient-pairing",
        passed=worst < tol,
        detail=f"max rel err {worst:.3e} over 5 pairs (tol {tol:.0e})",
        values={"max_rel_err": worst, "tol": tol},
    )


def check_groundstate_convergence(ctx: VerifyContext) -> CheckResult:
    gs = ctx.ground
    ok = gs.converged and gs.residual < 1e-6 and gs.energy < 0.0
    return CheckResult(
        name="groundstate-convergence",
        passed=ok,
        detail=(
            f"converged={gs.converged} residual={gs.residual:.3e} (tol 1e-06), "
            f"E={gs.energy:.6e} (< 0), {gs.iterations} iterations"
        ),
        values={"residual": gs.residual, "energy": gs.energy, "iterations": gs.iterations},
    )


def check_euler_lagrange(ctx: VerifyContext) -> CheckResult:
    """Recompute |G(g) - omega g| / |g| from scratch at the returned state."""
    tol = 1e-6
    gs = ctx.ground
    p, kernel = ctx.params, ctx.kernel
    omega = lagrange_multiplier(gs.g, p, kernel)
    grad = energy_gradient(gs.g, p, kernel)
    resid = Field(gs.g.grid, grad.values - omega * gs.g.values)
    rel = np.sqrt(mass(resid) / mass(gs.g))
    return CheckResult(
        name="euler-lagrange-residual",
        passed=rel < tol,
        detail=f"|G - omega u|/|u| = {rel:.3e} (tol {tol:.0e}), omega={omega:.6f}",
        values={"residual": rel, "omega": omega, "tol": tol},
    )


def check_radial_symmetry(ctx: VerifyContext) -> CheckResult:
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
    ok = dist < tol and min_mag > 0.0
    return CheckResult(
        name="radial-symmetry",
        passed=ok,
        detail=(
            f"aligned distance {dist:.3e} (tol {tol:.3e} = 1e-3 * |g|), "
            f"min |g| = {min_mag:.3e} (> 0)"
        ),
        values={"distance": dist, "tol": tol, "min_magnitude": min_mag},
    )


def check_scaling_slope(ctx: VerifyContext) -> CheckResult:
    """Log-log slope of |E| vs lambda across {0.5, 1, 2, 4}."""
    target = 19.0 / 7.0
    res = ctx.scaling
    rel = abs(res.slope - target) / target
    ok = rel < 0.05 and all(r.converged for r in res.rows)
    energies = ", ".join(f"{r.lam:g}:{r.energy:.4e}(L={r.L:.3g})" for r in res.rows)
    return CheckResult(
        name="mass-scaling-slope",
        passed=ok,
        detail=(
            f"slope {res.slope:.4f} vs {target:.4f} (rel dev {rel:.2%}, tol 5%); "
            f"E by lambda: {energies}"
        ),
        values={"slope": res.slope, "target": target, "rel_dev": rel},
    )


def check_subadditivity(ctx: VerifyContext) -> CheckResult:
    """E(1.0) < E(0.5) + E(0.5) on the reference box, margin above solver noise."""
    min_margin = 10 * 1e-6  # ten times the solver residual tolerance
    res = subadditivity_check(ctx.params, ctx.kernel, 0.5, 0.5)
    ok = res.all_converged and res.margin > min_margin
    return CheckResult(
        name="subadditivity",
        passed=ok,
        detail=(
            f"E(1)={res.energy_sum_mass:.6e} < E(0.5)+E(0.5)={res.energy_q1 + res.energy_q2:.6e}, "
            f"margin {res.margin:.3e} (required > {min_margin:.0e})"
        ),
        values={"margin": res.margin, "required": min_margin},
    )


def check_rearrangement_suite(ctx: VerifyContext, level: str = "full") -> CheckResult:
    """Permutation exactness, seminorm contraction, and the triple-pairing
    inequality, each over a random-field population."""
    slack = 1e-9
    if level == "quick":
        grid = Grid(d=2, n=32, L=40.0)
        count = 30
    else:
        grid = ctx.grid
        count = 100
    changed, worst_contraction, worst_riesz = rearrangement_sweep(
        grid, REFERENCE["alpha"], count, ctx.seed + 900, ctx.seed + 2000
    )
    ok = not changed and worst_contraction <= slack and worst_riesz <= slack
    norms = "norms exact" if not changed else f"multiset changed for seeds {changed[:3]}"
    return CheckResult(
        name="rearrangement-suite",
        passed=ok,
        detail=(
            f"{count} fields on {grid.n}^2: {norms}, worst seminorm excess "
            f"{worst_contraction:.3e}, worst pairing excess {worst_riesz:.3e} "
            f"(slack {slack:.0e})"
        ),
        values={
            "worst_contraction_excess": worst_contraction,
            "worst_riesz_excess": worst_riesz,
            "slack": slack,
        },
    )


def _drift_over(psi0: Field, ctx: VerifyContext, T: float, dt: float, stride: int):
    traj = evolve(psi0, ctx.params, ctx.kernel, T=T, dt=dt, stride=stride)
    return conservation_report(traj)


def check_conservation(ctx: VerifyContext, level: str = "full") -> CheckResult:
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
        main = conservation_report(
            evolve(psi0, ctx.params, kernel, T=1.0, dt=1e-3, stride=10)
        )
        coarse = conservation_report(
            evolve(psi0, ctx.params, kernel, T=1.0, dt=2e-3, stride=5)
        )
        factor = coarse.energy_drift / main.energy_drift
        ok = main.mass_drift < mass_tol and factor_lo <= factor <= factor_hi
        return CheckResult(
            name="conservation",
            passed=ok,
            detail=(
                f"quick: mass drift {main.mass_drift:.3e} (tol {mass_tol:.0e}), "
                f"dt-halving factor {factor:.2f} (in [{factor_lo}, {factor_hi}])"
            ),
            values={"mass_drift": main.mass_drift, "factor": factor},
        )
    psi0 = perturb(ctx.ground.g, ctx.params.alpha, 1e-2, ctx.seed)
    main = _drift_over(psi0, ctx, T=10.0, dt=1e-3, stride=100)
    study = gaussian(ctx.grid, width=2.0, mass=4.0)
    coarse = _drift_over(study, ctx, T=2.0, dt=1e-3, stride=10)
    fine = _drift_over(study, ctx, T=2.0, dt=5e-4, stride=20)
    factor = coarse.energy_drift / fine.energy_drift
    ok = (
        main.mass_drift < mass_tol
        and main.energy_drift < energy_tol
        and factor_lo <= factor <= factor_hi
    )
    return CheckResult(
        name="conservation",
        passed=ok,
        detail=(
            f"10^4 steps at dt=1e-3: mass drift {main.mass_drift:.3e} (tol {mass_tol:.0e}), "
            f"energy drift {main.energy_drift:.3e} (tol {energy_tol:.0e}); "
            f"dt-halving factor {factor:.2f} (in [{factor_lo}, {factor_hi}])"
        ),
        values={
            "mass_drift": main.mass_drift,
            "energy_drift": main.energy_drift,
            "factor": factor,
        },
    )


def check_standing_wave(ctx: VerifyContext) -> CheckResult:
    """The unperturbed minimizer must hug its own orbit for ten time units."""
    gs = ctx.ground
    alpha = ctx.params.alpha
    tol = 1e-3 * h_alpha_norm(gs.g, alpha)
    traj = evolve(gs.g, ctx.params, ctx.kernel, T=10.0, dt=1e-3, stride=100)
    worst = max(orbit_distance(snap, gs.g, alpha) for snap in traj.snapshots)
    return CheckResult(
        name="standing-wave-orbit",
        passed=worst < tol,
        detail=f"max orbit distance {worst:.3e} over T=10 (tol {tol:.3e} = 1e-3 * |g|)",
        values={"max_distance": worst, "tol": tol},
    )


def check_stability_sweep(ctx: VerifyContext) -> CheckResult:
    """Perturbations stay within 10x their size; sup distance shrinks with delta."""
    deltas = (4e-2, 2e-2, 1e-2)
    sups = []
    for delta in deltas:
        report = stability_run(
            ctx.params,
            ctx.kernel,
            delta=delta,
            T=20.0,
            dt=1e-3,
            seed=ctx.seed,
            stride=200,
            ground=ctx.ground,
        )
        sups.append(report.sup_distance)
    bound = 10 * deltas[-1]
    monotone = all(sups[i] >= sups[i + 1] for i in range(len(sups) - 1))
    ok = sups[-1] <= bound and monotone
    pairs = ", ".join(f"{d:g}:{s:.4e}" for d, s in zip(deltas, sups))
    return CheckResult(
        name="stability-sweep",
        passed=ok,
        detail=(
            f"sup distance by delta: {pairs}; delta=1e-2 bound {bound:.1e}, "
            f"nonincreasing={monotone}"
        ),
        values={"sups": sups, "bound": bound, "monotone": monotone},
    )


def check_reproducibility(ctx: VerifyContext) -> CheckResult:
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
        import json

        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("run1", "run2"):
            out = tmp / run
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(
                    ["stability", "--config", str(cfg_path), "--output-dir", str(out)]
                )
            if code != 0:
                return CheckResult(
                    name="reproducibility",
                    passed=False,
                    detail=f"stability command exited with {code}",
                )
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        mismatches = []
        for name in names:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            if a != b:
                mismatches.append(name)
        ok = not mismatches and len(names) > 0
    return CheckResult(
        name="reproducibility",
        passed=ok,
        detail=(
            f"{len(names)} output files byte-identical across two runs"
            if ok
            else f"files differ: {mismatches}"
        ),
        values={"files": len(names), "mismatches": mismatches},
    )


# ---------------------------------------------------------------------------
# orchestration

CHECK_NAMES = [
    "hartree-oracle-equivalence",
    "gradient-pairing",
    "groundstate-convergence",
    "euler-lagrange-residual",
    "radial-symmetry",
    "mass-scaling-slope",
    "subadditivity",
    "rearrangement-suite",
    "conservation",
    "standing-wave-orbit",
    "stability-sweep",
    "reproducibility",
]

_QUICK_CHECKS = [
    "hartree-oracle-equivalence",
    "gradient-pairing",
    "rearrangement-suite",
    "conservation",
]


def run_checks(
    level: str = "quick",
    seed: int = 1,
    only: str | None = None,
    progress=None,
) -> list[CheckResult]:
    """Run the verification checks; returns one result per check.

    ``level`` is "quick" or "full"; ``only`` filters check names by
    substring.  ``progress`` (if given) is called with each finished
    :class:`CheckResult`.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full' (got {level!r})")
    ctx = VerifyContext(seed=seed)
    runners = {
        "hartree-oracle-equivalence": lambda: check_hartree_oracle(ctx, level),
        "gradient-pairing": lambda: check_gradient_pairing(ctx, level),
        "groundstate-convergence": lambda: check_groundstate_convergence(ctx),
        "euler-lagrange-residual": lambda: check_euler_lagrange(ctx),
        "radial-symmetry": lambda: check_radial_symmetry(ctx),
        "mass-scaling-slope": lambda: check_scaling_slope(ctx),
        "subadditivity": lambda: check_subadditivity(ctx),
        "rearrangement-suite": lambda: check_rearrangement_suite(ctx, level),
        "conservation": lambda: check_conservation(ctx, level),
        "standing-wave-orbit": lambda: check_standing_wave(ctx),
        "stability-sweep": lambda: check_stability_sweep(ctx),
        "reproducibility": lambda: check_reproducibility(ctx),
    }
    names = CHECK_NAMES if level == "full" else _QUICK_CHECKS
    if only:
        names = [n for n in names if only in n]
        if not names:
            raise ValueError(f"no check name contains {only!r}")
    results = []
    for name in names:
        start = time.perf_counter()
        try:
            result = runners[name]()
        except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
            result = CheckResult(name=name, passed=False, detail=f"raised {exc!r}")
        result.seconds = time.perf_counter() - start
        results.append(result)
        if progress is not None:
            progress(result)
    return results
