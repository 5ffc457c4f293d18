"""Command-line interface.

Subcommands::

    fhnlse groundstate      solve the constrained minimization, write summary
    fhnlse evolve           run the splitting integrator from a chosen state
    fhnlse stability        perturb the minimizer and track the orbit distance
    fhnlse rearrange-test   exercise the rearrangement inequalities on noise
    fhnlse verify           run the built-in verification checks

Exit codes: 0 success, 1 a verification/inequality check failed, 2 invalid
input (a problem too large for memory included), 3 the solver did not
converge, 4 the computation produced non-finite values.

This module and :mod:`fhnlse.config` turn run inputs into library values and
library results into run files; the numerical modules read and write none.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .config import (
    DEFAULTS,
    grid_from,
    kernel_from,
    load_config,
    params_from,
    solve_options_from,
)
from .dynamics import evolve
from .errors import NonConvergenceError, NumericalAbort
from .fields import gaussian, plane_wave, with_mass
from .groundstate import minimize, require_converged
from .rearrange import rearrangement_sweep
from .snapshots import read_field, write_csv, write_field, write_json
from .stability import stability_run
from .verify import run_checks

__all__ = ["main", "build_parser"]


def _configure_logging(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _resolve(args) -> tuple[dict, Path]:
    """The run's configuration and its output directory, which is not made
    here: the first file written makes it, so a rejected run leaves none."""
    cfg = load_config(args.config, overrides=args.set or [])
    return cfg, Path(args.output_dir)


def _write_manifest(outdir: Path, cfg: dict, command: str) -> None:
    write_json(
        outdir / "manifest.json",
        {"version": __version__, "command": command, "config": cfg},
    )


def _wants(cfg: dict, fmt: str) -> bool:
    return fmt in cfg["output"]["formats"]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_groundstate(args) -> int:
    cfg, outdir = _resolve(args)
    p = params_from(cfg)
    kernel = kernel_from(cfg)
    gs = minimize(p, kernel, solve_options_from(cfg))
    _write_manifest(outdir, cfg, "groundstate")
    if _wants(cfg, "json"):
        grid = gs.g.grid
        write_json(
            outdir / "summary.json",
            {
                "q": gs.q,
                "E": gs.energy,
                "omega": gs.omega,
                "residual": gs.residual,
                "iterations": gs.iterations,
                "converged": gs.converged,
                "stop_reason": gs.stop_reason,
                "seam_ratio": gs.seam_ratio,
                "peak_over_mean": gs.peak_over_mean,
                "params": {"d": grid.d, "n": grid.n, "L": grid.L},
            },
        )
    if _wants(cfg, "csv") and gs.history is not None:
        write_csv(
            outdir / "convergence.csv",
            ["iteration", *gs.history.dtype.names],
            [(i, *row) for i, row in enumerate(gs.history.tolist())],
        )
    if _wants(cfg, "snapshots"):
        write_field(outdir / "ground_state", gs.g, p.alpha, p.gamma, label="ground_state")
    require_converged(gs, "groundstate command")
    print(
        f"ground state: q={gs.q:g} E={gs.energy:.8e} omega={gs.omega:.8f} "
        f"residual={gs.residual:.3e} iterations={gs.iterations}"
    )
    return 0


def _initial_state(cfg, p, kernel):
    grid = kernel.grid
    dyn = cfg["dynamics"]
    init = dyn["init"]
    q = float(cfg["solver"]["q"])
    if init == "groundstate":
        gs = minimize(p, kernel, solve_options_from(cfg))
        require_converged(gs, "evolve initial state")
        return gs.g
    if init == "gaussian":
        return gaussian(grid, mass=q)
    if init == "planeWave":
        mode = tuple(int(c) for c in dyn["planeWaveMode"])
        if len(mode) != grid.d:
            raise ValueError(
                f"dynamics.planeWaveMode must have {grid.d} components (got {mode})"
            )
        return with_mass(plane_wave(grid, mode), q)
    # anything else is a snapshot base path
    return read_field(init, grid, p.alpha, p.gamma)


def _cmd_evolve(args) -> int:
    cfg, outdir = _resolve(args)
    p = params_from(cfg)
    dyn = cfg["dynamics"]
    kernel = kernel_from(cfg)
    psi0 = _initial_state(cfg, p, kernel)
    traj = evolve(
        psi0,
        p,
        kernel,
        T=float(dyn["T"]),
        dt=float(dyn["dt"]),
        stride=int(dyn["snapshotStride"]),
    )
    _write_manifest(outdir, cfg, "evolve")
    if _wants(cfg, "json"):
        write_json(
            outdir / "conservation.json",
            {
                "T": float(dyn["T"]),
                "dt": float(dyn["dt"]),
                "steps": traj.steps,
                "massDrift": traj.mass_drift,
                "energyDrift": traj.energy_drift,
            },
        )
    if _wants(cfg, "csv"):
        rows = list(zip(traj.times, traj.mass_series, traj.energy_series))
        write_csv(outdir / "series.csv", ["time", "mass", "energy"], rows)
    if _wants(cfg, "snapshots"):
        write_field(outdir / "final_state", traj.final, p.alpha, p.gamma, label="final_state")
    print(
        f"evolved {traj.steps} steps to T={traj.times[-1]:g}: "
        f"mass drift {traj.mass_drift:.3e}, energy drift {traj.energy_drift:.3e}"
    )
    return 0


def _cmd_stability(args) -> int:
    cfg, outdir = _resolve(args)
    p = params_from(cfg)
    kernel = kernel_from(cfg)
    st = cfg["stability"]
    gs = minimize(p, kernel, solve_options_from(cfg))
    report = stability_run(
        p,
        kernel,
        delta=float(st["delta"]),
        T=float(st["T"]),
        dt=float(st["dt"]),
        seed=int(st["seed"]),
        stride=int(st["snapshotStride"]),
        ground=gs,
    )
    _write_manifest(outdir, cfg, "stability")
    if _wants(cfg, "json"):
        write_json(
            outdir / "report.json",
            {
                "delta": report.delta,
                "seed": report.seed,
                "T": report.T,
                "dt": report.dt,
                "stride": report.stride,
                "supDistance": report.sup_distance,
                "massDrift": report.mass_drift,
                "energyDrift": report.energy_drift,
                "groundEnergy": gs.energy,
                "groundOmega": gs.omega,
                "groundResidual": gs.residual,
                "groundNorm": report.ground_norm,
                "times": report.times.tolist(),
                "distances": report.distances.tolist(),
            },
        )
    if _wants(cfg, "csv"):
        rows = list(zip(report.times, report.distances))
        write_csv(outdir / "distance_series.csv", ["time", "distance"], rows)
    print(
        f"stability: delta={report.delta:g} sup distance {report.sup_distance:.4e} "
        f"over T={report.T:g} (mass drift {report.mass_drift:.3e})"
    )
    return 0


def _cmd_rearrange_test(args) -> int:
    cfg, outdir = _resolve(args)
    grid = grid_from(cfg)
    alpha = float(cfg["physics"]["alpha"])
    count = int(cfg["rearrange"]["count"])
    seed = int(cfg["rearrange"]["seed"])
    sweep = rearrangement_sweep(grid, alpha, count, seed, seed + 10_000)
    norms_exact = not sweep.changed
    _write_manifest(outdir, cfg, "rearrange-test")
    if _wants(cfg, "json"):
        write_json(
            outdir / "rearrange.json",
            {
                "fields": count,
                "normsExact": norms_exact,
                "worstSeminormExcess": sweep.worst_seminorm,
                "worstPairingExcess": sweep.worst_pairing,
                "slack": sweep.slack,
                "pass": sweep.passed,
            },
        )
    print(
        f"rearrangement over {count} fields: norms exact={norms_exact}, "
        f"worst seminorm excess {sweep.worst_seminorm:.3e}, "
        f"worst pairing excess {sweep.worst_pairing:.3e} -> "
        f"{'PASS' if sweep.passed else 'FAIL'}"
    )
    return 0 if sweep.passed else 1


def _cmd_verify(args) -> int:
    cfg, outdir = _resolve(args)
    reference = {**DEFAULTS, "output": cfg["output"]}  # all that verify reads
    unread = [f"{s}.{k}" for s, keys in reference.items() for k in keys if cfg[s][k] != keys[k]]
    if unread:
        raise ValueError(f"verify runs on the built-in defaults and does not read {unread[0]}")

    def progress(res):
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail} ({res.seconds:.1f}s)")
        sys.stdout.flush()

    results = run_checks(level=args.level, seed=args.seed, only=args.only, progress=progress)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    _write_manifest(outdir, cfg, "verify")
    if _wants(cfg, "json"):
        write_json(
            outdir / "verify_report.json",
            {
                "level": args.level,
                "seed": args.seed,
                "passed": passed,
                "total": len(results),
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
            },
        )
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override one configuration entry (repeatable; values parse as JSON)",
    )
    common.add_argument(
        "--output-dir",
        metavar="DIR",
        default="out",
        help="directory for result files (default: out)",
    )
    common.add_argument(
        "--verbose", action="store_true", help="log solver/integrator progress"
    )

    parser = argparse.ArgumentParser(
        prog="fhnlse",
        description="Spectral laboratory for a fractional Schrodinger equation "
        "with a Hartree-type nonlocal interaction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_gs = sub.add_parser(
        "groundstate", parents=[common], help="solve the mass-constrained minimization"
    )
    p_gs.set_defaults(func=_cmd_groundstate)

    p_ev = sub.add_parser(
        "evolve", parents=[common], help="integrate the time-dependent equation"
    )
    p_ev.set_defaults(func=_cmd_evolve)

    p_st = sub.add_parser(
        "stability", parents=[common], help="perturb the minimizer and evolve"
    )
    p_st.set_defaults(func=_cmd_stability)

    p_re = sub.add_parser(
        "rearrange-test",
        parents=[common],
        help="check the rearrangement inequalities on random fields",
    )
    p_re.set_defaults(func=_cmd_rearrange_test)

    p_ve = sub.add_parser(
        "verify", parents=[common], help="run the built-in verification checks"
    )
    p_ve.add_argument(
        "--level", choices=("quick", "full"), default="quick", help="check depth"
    )
    p_ve.add_argument("--only", metavar="SUBSTR", help="run only checks whose name contains this")
    p_ve.add_argument("--seed", type=int, default=1, help="seed for the random-field populations")
    p_ve.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return 2
    _configure_logging(args.verbose)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
