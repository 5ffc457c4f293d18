"""Run one workload of the fhnlse benchmark and print its metrics.

    python3 bench/run.py --workload {groundstate,stability,checks} --seed N --seconds S --trace 0|1

The workload runs in fresh child processes (``bench/workloads.py``), one at a
time, each single-threaded.  With ``--trace 0`` four processes each set the
workload up and run it for a quarter of ``--seconds``, and five more, one
before, between and after them, only set it up, so that the set-up times are
spread over the run.  ``setup_s`` is the median of the nine set-up times and
``peak_rss_mib`` the median peak RSS of the four working processes.
``wall_s`` is the pass time at reference machine speed: each call's time is
scaled by ``PROBE_REF_S`` over the mean time of a fixed FFT probe run just
before and just after it, and ``wall_s`` sums, over the calls of a pass,
each call's median scaled time.  The unscaled figure is printed as
``wall_measured_s``.  With ``--trace 1`` one process alternates untraced
and traced passes; the per-layer metrics are per-pass medians over the
traced passes, and ``trace.overhead_s`` is the traced minus the untraced
``wall_s``.  Every pass's outputs are checked; the last line of standard
output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The metric names and
units come from ``BENCHMARK.json``; the full record, with the environment,
goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKERS = 4
# Time of the probe in workloads.py (100 complex 64^2 fftn/ifftn pairs) on
# the otherwise idle 2-CPU Intel Xeon box, NumPy 2.4.6, where the benchmark
# was defined; it only sets the scale of wall_s.
PROBE_REF_S = 0.0095
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child(args, deadline: float, seconds: float | None) -> dict:
    """Run one workload process to completion and return its JSON record;
    ``seconds=None`` only sets the workload up."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds or 0), "--trace", str(args.trace)]
    if seconds is None:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"workload process exited with code {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def _pass_time(passes: list[dict], scaled: bool = True) -> float:
    """Sum over a pass's calls of each call's median time, scaled by the
    probe unless ``scaled`` is false."""
    labels = {label for p in passes for label in p["times"]}
    return sum(
        median([p["times"][k] * (PROBE_REF_S / p["probes"][k] if scaled else 1.0)
                 for p in passes if k in p["times"]])
        for k in labels
    )


def _metrics(args, children, passes) -> tuple[dict, list[str]]:
    """Metric values by name, and the reasons the run is not correct."""
    problems = [f"pass {i}: {f}" for i, p in enumerate(passes) for f in p["failures"]]
    prints = {p["fingerprint"] for p in passes}
    if len(prints) != 1:
        problems.append(f"outputs differ between passes of one seed ({len(prints)} variants)")
    untraced = [p for p in passes if not p["traced"]]
    workers = [c for c in children if "passes" in c]
    if not args.trace:
        return {
            "setup_s": median([c["setup_s"] for c in children]),
            "wall_s": _pass_time(untraced),
            "peak_rss_mib": median([c["rss_kib"] for c in workers]) / 1024.0,
        }, problems
    if not workers[0]["restored"]:
        problems.append("wrapped functions were not all restored after tracing")
    traced = [p for p in passes if p["traced"]]
    values = {}
    for name in traced[0]["layers"]:
        series = [p["layers"][name] for p in traced]
        if isinstance(series[0], int):
            if len(set(series)) != 1:
                problems.append(f"count {name} differs between traced passes: {series}")
            values[name] = series[0]
        else:
            values[name] = median(series)
    values["trace.overhead_s"] = _pass_time(traced) - _pass_time(untraced)
    return values, problems


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            children = [_child(args, deadline, args.seconds)]
        else:
            start, children = time.monotonic(), [_child(args, deadline, None)]
            for i in range(WORKERS):
                left = args.seconds - (time.monotonic() - start)
                children.append(_child(args, deadline, max(left, 0.0) / (WORKERS - i)))
                children.append(_child(args, deadline, None))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = [p for c in children for p in c.get("passes", [])]
    values, problems = _metrics(args, children, passes)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    env = {
        "python": children[0]["python"],
        "numpy": children[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "threads": {var: "1" for var in THREAD_VARS},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_s": [c["setup_s"] for c in children],
              "passes": passes, "metrics": metrics, "problems": problems}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {len(children)} set-ups")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        measured = _pass_time(passes, scaled=False)
        print(f"  {'wall_measured_s':44s} {measured:>16.6g} s")
        if passes[0]["steps"]:
            print(f"  {'steps_per_s':44s} {passes[0]['steps'] / measured:>16.6g} 1/s")
    print(f"  {'error_rate':44s} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    for problem in problems[:10]:
        print(f"  FAIL {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
