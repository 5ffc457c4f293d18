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
:func:`main` loads the configuration once and hands each command the parsed
arguments, that configuration and the output directory.  A command passes
its files to one writer, :func:`_write_run`, which writes ``manifest.json``
whatever ``output.formats`` holds and decides which of the other files each
format gives.  The first file written makes the output directory, so a run
rejected before it writes leaves none.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

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

# the exit code of each error a command may raise; none subclasses another
_EXIT_CODES = {NonConvergenceError: 3, NumericalAbort: 4, ValueError: 2, OSError: 2, MemoryError: 2}


def _write_run(args, cfg: dict, outdir: Path, files: dict) -> None:
    """Write ``manifest.json``, then, in the order given, each of ``files``
    (name to content) whose format ``output.formats`` names: a ``.json``
    name is the json format and takes a JSON object, a ``.csv`` name the csv
    format and a ``(header, rows)`` pair, and a name without a suffix the
    snapshots format and a :class:`~fhnlse.fields.Field`, written as that
    snapshot base with the run's exponents and labelled with the name."""
    write_json(
        outdir / "manifest.json",
        {"version": __version__, "command": args.command, "config": cfg},
    )
    formats = cfg["output"]["formats"]
    p = params_from(cfg)
    for name, content in files.items():
        suffix = Path(name).suffix
        if suffix == ".json" and "json" in formats:
            write_json(outdir / name, content)
        elif suffix == ".csv" and "csv" in formats:
            write_csv(outdir / name, *content)
        elif suffix == "" and "snapshots" in formats:
            write_field(outdir / name, content, p.alpha, p.gamma, label=name)


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments, the loaded configuration and
# the output directory, and returns the exit code


def _cmd_groundstate(args, cfg: dict, outdir: Path) -> int:
    p = params_from(cfg)
    kernel = kernel_from(cfg)
    gs = minimize(p, kernel, solve_options_from(cfg))
    grid = gs.g.grid
    _write_run(args, cfg, outdir, {
        "summary.json": {
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
        "convergence.csv": (
            ["iteration", *gs.history.dtype.names],
            [(i, *row) for i, row in enumerate(gs.history.tolist())],
        ),
        "ground_state": gs.g,
    })
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
    if init == "planeWave":  # validate_config matched the mode to d
        return with_mass(plane_wave(grid, tuple(dyn["planeWaveMode"])), q)
    # anything else is a snapshot base path
    return read_field(init, grid, p.alpha, p.gamma)


def _cmd_evolve(args, cfg: dict, outdir: Path) -> int:
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
    _write_run(args, cfg, outdir, {
        "conservation.json": {
            "T": float(dyn["T"]),
            "dt": float(dyn["dt"]),
            "steps": traj.steps,
            "massDrift": traj.mass_drift,
            "energyDrift": traj.energy_drift,
        },
        "series.csv": (
            ["time", "mass", "energy"],
            zip(traj.times, traj.mass_series, traj.energy_series),
        ),
        "final_state": traj.final,
    })
    print(
        f"evolved {traj.steps} steps to T={traj.times[-1]:g}: "
        f"mass drift {traj.mass_drift:.3e}, energy drift {traj.energy_drift:.3e}"
    )
    return 0


def _cmd_stability(args, cfg: dict, outdir: Path) -> int:
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
    _write_run(args, cfg, outdir, {
        "report.json": {
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
        "distance_series.csv": (["time", "distance"], zip(report.times, report.distances)),
    })
    print(
        f"stability: delta={report.delta:g} sup distance {report.sup_distance:.4e} "
        f"over T={report.T:g} (mass drift {report.mass_drift:.3e})"
    )
    return 0


def _cmd_rearrange_test(args, cfg: dict, outdir: Path) -> int:
    grid = grid_from(cfg)
    alpha = float(cfg["physics"]["alpha"])
    count = int(cfg["rearrange"]["count"])
    seed = int(cfg["rearrange"]["seed"])
    sweep = rearrangement_sweep(grid, alpha, count, seed, seed + 10_000)
    norms_exact = not sweep.changed
    _write_run(args, cfg, outdir, {
        "rearrange.json": {
            "fields": count,
            "normsExact": norms_exact,
            "worstSeminormExcess": sweep.worst_seminorm,
            "worstPairingExcess": sweep.worst_pairing,
            "slack": sweep.slack,
            "pass": sweep.passed,
        },
    })
    print(
        f"rearrangement over {count} fields: norms exact={norms_exact}, "
        f"worst seminorm excess {sweep.worst_seminorm:.3e}, "
        f"worst pairing excess {sweep.worst_pairing:.3e} -> "
        f"{'PASS' if sweep.passed else 'FAIL'}"
    )
    return 0 if sweep.passed else 1


def _cmd_verify(args, cfg: dict, outdir: Path) -> int:
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
    _write_run(args, cfg, outdir, {
        "verify_report.json": {
            "level": args.level,
            "seed": args.seed,
            "passed": passed,
            "total": len(results),
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "values": r.values}
                for r in results
            ],
        },
    })
    return 0 if passed == len(results) else 1


_COMMANDS = {
    "groundstate": (_cmd_groundstate, "solve the mass-constrained minimization"),
    "evolve": (_cmd_evolve, "integrate the time-dependent equation"),
    "stability": (_cmd_stability, "perturb the minimizer and evolve"),
    "rearrange-test": (_cmd_rearrange_test, "check the rearrangement inequalities on random fields"),
    "verify": (_cmd_verify, "run the built-in verification checks"),
}


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

    parser = argparse.ArgumentParser(
        prog="fhnlse",
        description="Spectral laboratory for a fractional Schrodinger equation "
        "with a Hartree-type nonlocal interaction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)

    verify = sub.choices["verify"]
    verify.add_argument(
        "--level", choices=("quick", "full"), default="quick", help="check depth"
    )
    verify.add_argument("--only", metavar="SUBSTR", help="run only checks whose name contains this")
    verify.add_argument("--seed", type=int, default=1, help="seed for the random-field populations")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return 2
    command, _ = _COMMANDS[args.command]
    try:
        # NumericalAbort reports non-finite values; NumPy's warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cfg = load_config(args.config, overrides=args.set or [])
            return command(args, cfg, Path(args.output_dir))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
