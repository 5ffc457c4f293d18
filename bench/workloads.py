"""One workload process of the fhnlse benchmark; ``run.py`` starts it.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process sets its workload up, then runs passes back to back for about
``--seconds``, timing each call of a pass and a fixed FFT probe before and
after it, and checks every pass's outputs outside the timed region.  It
prints one JSON line: the monotonic time at which set-up ended and, per
pass, the time of each call and the mean time of the probes around it, the
operations checked and failed, and a fingerprint of the outputs.  With
``--trace 1`` every second pass runs under :class:`tracer.Tracer`, and the
spans of the last traced pass are written to ``.bench_work/``.  ``--setup-only`` stops after set-up, so that ``run.py``
can time set-up in more fresh processes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"

# The benchmark's own problem instance.  At q = 3 the ground state is
# localized (E = -1.0928 on the 64^2 box against E_flat = -0.6285); the
# q = 1 default of the package converges to the flat, box-filling state.
ALPHA, GAMMA, D, L, Q = 0.6, 0.5, 2, 40.0, 3.0
RESID_TOL = 1e-6
SLOPE_TOL = 0.05  # relative deviation of the mass-scaling slope from 19/7
MIN_MARGIN = 1e-5  # subadditivity margin, ten times the residual tolerance
MASS_DRIFT_TOL = 1e-10

# E of each solve at the commit that defined the benchmark.  The seed only
# translates start fields on the lattice; across seeds 1-6 that moved E by at
# most 2e-15 relative.  The tolerance is the ROADMAP's bar for a new solver
# ("the same E to 1e-8"), far above that and far below the 0.7% that
# separates the n = 64 and n = 128 states.
E_REL_TOL = 1e-8
E_REFERENCE = {
    "scaling lambda=0.5": -0.1665201378956138,
    "scaling lambda=1": -1.092818852867142,
    "scaling lambda=2": -7.171823541756436,
    "scaling lambda=4": -47.06640334681302,
    "subadditivity q=1.5": -0.17131573069851092,
    "subadditivity q=3": -1.092818852867142,
    "n=128 q=3": -1.100238226386478,
    "stability ground state": -1.092818852867142,
    "checks groundstate n=32": -1.100576192930808,
}


# A fixed FFT loop timed before and after each timed call.  On a shared machine
# the CPU's speed drifts by 20% and more over tens of seconds, and these
# FFT-bound calls drift with it; run.py scales each call's time by this
# probe.  The FFT functions are bound here so that tracing never sees them.
_PROBE = np.exp(2j * np.pi * np.arange(64 * 64).reshape(64, 64) / 997.0)
_FFTN, _IFFTN = np.fft.fftn, np.fft.ifftn


def _probe_s() -> float:
    start = time.perf_counter()
    for _ in range(100):
        _IFFTN(_FFTN(_PROBE))
    return time.perf_counter() - start


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, default=repr).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _flat_energy(n: int, box: float, q: float) -> float:
    """E of the constant field of mass q on the box, from the kernel spectrum.

    For ``|u|^2 = q / L^d`` the Sobolev term vanishes and the pairing is
    ``q^2 cell_volume spectrum[0] / L^d``.
    """
    from fhnlse import Grid, HartreeKernel

    kernel = HartreeKernel(Grid(D, n, box), GAMMA)
    return -0.25 * q * q * kernel.grid.cell_volume * kernel.spectrum[(0,) * D] / box**D


def _solve_op(label, n, box, q, converged, residual, energy):
    ref = E_REFERENCE[label]
    e_flat = _flat_energy(n, box, q)
    ok = (
        converged
        and residual < RESID_TOL
        and energy < e_flat
        and abs(energy - ref) <= E_REL_TOL * abs(ref)
    )
    return (label, ok, f"converged={converged} residual={residual:.3e} E={energy!r} "
                       f"E_flat={e_flat:.6f} E_ref={ref!r}")


class Groundstate:
    """The scan of mass-constrained solves: ``scaling_experiment`` at q = 3
    over lambda in {0.5, 1, 2, 4}, ``subadditivity_check(1.5, 1.5)`` and one
    q = 3 solve at n = 128.  The seed translates the start fields of the
    last two on the lattice; the scaling rows start from the centred
    Gaussian, because each row solves on its own rescaled box."""

    ops = 9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        import fhnlse.groundstate
        from fhnlse import Field, Grid, HartreeKernel, PhysicsParams, gaussian

        self.gs = fhnlse.groundstate
        self.p = PhysicsParams(ALPHA, GAMMA, D)
        rng = np.random.default_rng(self.seed)
        self.kernels, self.inits = {}, {}
        for n in (64, 128):
            grid = Grid(D, n, L)
            self.kernels[n] = HartreeKernel(grid, GAMMA)
            shift = tuple(int(s) for s in rng.integers(0, n, size=D))
            self.inits[n] = Field(grid, np.roll(gaussian(grid).values, shift, axis=tuple(range(D))))

        gs, p, k64, k128 = self.gs, self.p, self.kernels[64], self.kernels[128]
        self.calls = [
            ("scaling_experiment",
             lambda: gs.scaling_experiment(p, k64, base_q=Q, lambdas=(0.5, 1.0, 2.0, 4.0))),
            ("subadditivity_check",
             lambda: gs.subadditivity_check(p, k64, Q / 2, Q / 2,
                                            gs.SolveOptions(init=self.inits[64]))),
            ("minimize n=128",
             lambda: gs.minimize(p, k128, gs.SolveOptions(q=Q, init=self.inits[128],
                                                          keep_history=False))),
        ]

    def check(self, out):
        scaling, sub, fine = out
        solves = [(f"scaling lambda={r.lam:g}", 64, r.L, r.q, r.converged, r.residual, r.energy)
                  for r in scaling.rows]
        solves += [(f"subadditivity q={s.q:g}", 64, L, s.q, s.converged, s.residual, s.energy)
                   for s in (sub.states[0], sub.states[2])]
        solves.append(("n=128 q=3", 128, L, fine.q, fine.converged, fine.residual, fine.energy))
        ops = [_solve_op(*solve) for solve in solves]
        target = 19.0 / 7.0
        dev = abs(scaling.slope - target) / target
        ops.append(("scaling slope", dev < SLOPE_TOL, f"slope {scaling.slope!r}, rel dev {dev:.3e}"))
        ops.append(("subadditivity margin", sub.all_converged and sub.margin > MIN_MARGIN,
                    f"margin {sub.margin!r}, all converged {sub.all_converged}"))
        iterations = [r.iterations for r in scaling.rows] + [s.iterations for s in sub.states]
        fingerprint = _digest([s[-1] for s in solves] + [scaling.slope, sub.margin, iterations,
                                                          fine.iterations])
        return ops, fingerprint


class Stability:
    """``stability_run`` for delta in {4e-2, 2e-2, 1e-2} at dt = 1e-3 and
    stride 200 on the 64^2 box, from the ground state solved during set-up.
    The seed is the ``perturb`` seed."""

    ops = 5
    DELTAS = (4e-2, 2e-2, 1e-2)
    T, DT, STRIDE = 2.0, 1e-3, 200
    steps = len(DELTAS) * round(T / DT)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        import fhnlse.stability
        from fhnlse import Grid, HartreeKernel, PhysicsParams, SolveOptions, minimize

        self.stab = fhnlse.stability
        self.p = PhysicsParams(ALPHA, GAMMA, D)
        self.kernel = HartreeKernel(Grid(D, 64, L), GAMMA)
        self.ground = minimize(self.p, self.kernel, SolveOptions(q=Q, keep_history=False))
        self.calls = [(f"stability_run delta={delta:g}", functools.partial(self._run, delta))
                      for delta in self.DELTAS]

    def _run(self, delta):
        return self.stab.stability_run(self.p, self.kernel, delta=delta, T=self.T, dt=self.DT,
                                       seed=self.seed, stride=self.STRIDE, ground=self.ground)

    def check(self, reports):
        ops = [(f"delta={r.delta:g}",
                r.mass_drift < MASS_DRIFT_TOL and r.sup_distance <= 10 * r.delta
                and round(r.T / r.dt) == round(self.T / self.DT),
                f"mass drift {r.mass_drift:.3e}, sup distance {r.sup_distance!r}")
               for r in reports]
        sups = [r.sup_distance for r in reports]
        ops.append(("sup distance nonincreasing in delta",
                    all(a >= b for a, b in zip(sups, sups[1:])), f"sups {sups}"))
        g = self.ground
        ops.append(_solve_op("stability ground state", 64, L, Q,
                             g.converged, g.residual, g.energy))
        fingerprint = _digest([[r.sup_distance, r.mass_drift, r.energy_drift,
                                list(r.distances)] for r in reports])
        return ops, fingerprint


class Checks:
    """Small-grid CLI paths, in process through ``fhnlse.cli.main``:
    ``verify --level quick``, ``rearrange-test`` on 32^2, a 32^2
    ``groundstate`` with snapshot output, and an ``evolve`` started from that
    snapshot that records every 10 steps.  The seed goes to ``verify
    --seed`` and ``rearrange.seed``."""

    ops = 8
    EVOLVE_STEPS = 500

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir

    def setup(self) -> None:
        import fhnlse.cli

        self.cli = fhnlse.cli
        out, seed = self.out, self.seed
        shutil.rmtree(out, ignore_errors=True)
        small = ["--set", "grid.n=32", "--set", "grid.L=20.0"]
        snapshots = ["--set", 'output.formats=["json","csv","snapshots"]']
        self.commands = [
            ["verify", "--level", "quick", "--seed", str(seed), "--output-dir", str(out / "verify")],
            ["rearrange-test", *small, "--set", f"rearrange.seed={seed}",
             "--output-dir", str(out / "rearrange")],
            ["groundstate", *small, "--set", f"solver.q={Q}", *snapshots,
             "--output-dir", str(out / "groundstate")],
            ["evolve", *small, "--set", f"dynamics.init={out / 'groundstate' / 'ground_state'}",
             "--set", "dynamics.T=0.5", "--set", "dynamics.snapshotStride=10", *snapshots,
             "--output-dir", str(out / "evolve")],
        ]
        self.calls = [(argv[0], functools.partial(self._cli, argv)) for argv in self.commands]

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def _read(self, name: str) -> dict:
        path = self.out / name
        return json.loads(path.read_text()) if path.exists() else {}

    def check(self, codes):
        verify, rearrange = self._read("verify/verify_report.json"), self._read("rearrange/rearrange.json")
        summary, conservation = self._read("groundstate/summary.json"), self._read("evolve/conservation.json")
        checks = verify.get("checks", [])
        ops = [("verify exit", codes[0] == 0 and len(checks) == 4, f"exit {codes[0]}, {len(checks)} checks")]
        ops += [(f"verify {c['name']}", c["passed"], c["detail"]) for c in checks]
        ops.append(("rearrange-test", codes[1] == 0 and rearrange.get("pass") is True,
                    f"exit {codes[1]}"))
        label, solve = "checks groundstate n=32", ("checks groundstate n=32", False, "no summary")
        if summary:
            solve = _solve_op(label, 32, 20.0, Q, summary["converged"],
                              summary["residual"], summary["E"])
        ops.append(("groundstate", codes[2] == 0 and solve[1], f"exit {codes[2]}, {solve[2]}"))
        drift = conservation.get("massDrift", float("inf"))
        ops.append(("evolve", codes[3] == 0 and drift < MASS_DRIFT_TOL
                    and conservation.get("steps") == self.EVOLVE_STEPS,
                    f"exit {codes[3]}, mass drift {drift:.3e}"))
        files = sorted(p for p in self.out.rglob("*") if p.is_file())
        fingerprint = _digest([[str(p.relative_to(self.out)), hashlib.sha256(p.read_bytes()).hexdigest()]
                               for p in files])
        return ops, fingerprint


WORKLOADS = {"groundstate": Groundstate, "stability": Stability, "checks": Checks}


def _run_pass(wl, tracer=None) -> dict:
    """Time each of the workload's calls, then check what they returned."""
    record = {"traced": tracer is not None, "steps": getattr(wl, "steps", 0),
              "times": {}, "probes": {}}
    try:
        outputs = []
        with tracer.active() if tracer else contextlib.nullcontext():
            before = _probe_s()
            for label, call in wl.calls:
                start = time.perf_counter()
                outputs.append(call())
                record["times"][label] = time.perf_counter() - start
                after = _probe_s()
                record["probes"][label] = (before + after) / 2
                before = after
        ops, record["fingerprint"] = wl.check(outputs)
    except Exception:  # noqa: BLE001 - a pass that raises counts as failed, not as a crash
        traceback.print_exc()
        ops, record["fingerprint"] = [("pass", False, "raised")] * wl.ops, None
    record["ops"] = len(ops)
    record["failures"] = [f"{label}: {detail}" for label, ok, detail in ops if not ok]
    if tracer is not None:
        from tracer import layer_metrics

        record["layers"] = layer_metrics(tracer.spans)
    return record


def _passes(wl, seconds: float, trace_path: Path | None = None) -> list[dict]:
    """Run as many passes as fit in ``seconds`` when rounded to the nearest
    whole pass, at least one.  With ``trace_path`` every second pass is
    traced, at least one, so that drift in the machine's speed hits traced
    and untraced passes alike; the spans of the last traced pass are written
    there."""
    from tracer import Tracer

    passes, start, last = [], time.perf_counter(), None
    least = 2 if trace_path else 1
    while len(passes) < least or (
        (time.perf_counter() - start) * (len(passes) + 0.5) / len(passes) <= seconds
    ):
        tracer = Tracer() if trace_path and len(passes) % 2 else None
        passes.append(_run_pass(wl, tracer))
        last = tracer or last
    if last is not None:
        last.write(trace_path)
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fhnlse" / "__init__.py").is_file():
        print(f"error: no fhnlse sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, WORK / f"{args.workload}-seed{args.seed}")
    wl.setup()
    result = {"ready": time.monotonic(), "python": platform.python_version(),
              "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    if not args.trace:
        result["passes"] = _passes(wl, args.seconds)
    else:
        from tracer import bindings, fhnlse_modules

        before = bindings(fhnlse_modules())
        spans = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        result["passes"] = _passes(wl, args.seconds, spans)
        after = bindings(fhnlse_modules())
        result["restored"] = before.keys() == after.keys() and all(
            after[k] is v for k, v in before.items())
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
