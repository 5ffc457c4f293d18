"""Smoke test of the benchmark itself (about two minutes).

    python3 bench/selftest.py

Checks that
1. every metric named in BENCHMARK.json is printed with its unit, for each
   workload with ``--trace 0`` and ``--trace 1``, and that a second seed
   gives the same metric set with no failed operation;
2. a deliberately wrong output of each workload is counted as a failure,
   so ``error_rate`` rises above 0;
3. a traced run puts back every function it wrapped, also when the traced
   code raises, and changes no output;
4. without the ``fhnlse`` sources the benchmark exits non-zero and prints
   no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _outputs(wl) -> list:
    return [call() for _, call in wl.calls]


def check_metrics_printed(bench: dict) -> None:
    for w in bench["workloads"]:
        for trace, seeds in ((0, (1, 2)), (1, (1,))):
            listed = bench["per_layer" if trace else "end_to_end"]
            for seed in seeds:
                proc = _run("--workload", w["name"], "--seed", str(seed),
                            "--seconds", "1", "--trace", str(trace))
                assert proc.returncode == 0, proc.stderr
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
                assert result["correct"] and result["failed"] == 0, lines
                assert result["attempted"] >= 1
                names = [m["name"] for m in listed]
                assert list(result["metrics"]) == names, (w["name"], trace)
                for m in listed:
                    got = result["metrics"][m["name"]]
                    assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
                    assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                               for line in lines[:-1]), m["name"]
                assert any(line.split()[:1] == ["error_rate"] for line in lines[:-1])
            print(f"ok   {w['name']} --trace {trace}: {len(listed)} metrics with units, "
                  f"seeds {seeds} correct")


def check_wrong_output_fails() -> None:
    corrupt = {
        "groundstate": lambda out: (out[0], out[1],
                                    dataclasses.replace(out[2], energy=out[2].energy + 1.0)),
        "stability": lambda out: out[:2] + [dataclasses.replace(out[2], sup_distance=1.0)],
        "checks": lambda out: out[:3] + [1],
    }
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1, WORK / f"selftest-{name}")
        wl.setup()
        out = _outputs(wl)
        ops, _ = wl.check(out)
        assert all(ok for _, ok, _ in ops), [op for op in ops if not op[1]]
        bad = [op for op in wl.check(corrupt[name](out))[0] if not op[1]]
        assert bad, f"{name}: a corrupted output passed the gate"
        print(f"ok   {name}: corrupted output fails {len(bad)} of {len(ops)} operations")


def check_restored() -> None:
    mods = tracer.fhnlse_modules()
    before = tracer.bindings(mods)
    energy = mods["spectral"].energy
    held = [key for key, obj in before.items() if obj is energy]
    assert len(held) >= 5, held  # spectral, the package, groundstate, dynamics, verify
    wl = workloads.Checks(1, WORK / "selftest-checks")
    wl.setup()
    plain = wl.check(_outputs(wl))[1]
    t = tracer.Tracer()
    with t.active():
        during = tracer.bindings(mods)
        assert all(during[key] is not energy for key in held)
        traced = wl.check(_outputs(wl))[1]
    assert traced == plain, "tracing changed the outputs"
    assert tracer.layer_metrics(t.spans)["cli.main.calls"] == len(wl.commands)
    try:
        with tracer.Tracer().active():
            raise RuntimeError("raised inside a traced region")
    except RuntimeError:
        pass
    after = tracer.bindings(mods)
    assert before.keys() == after.keys() and all(after[k] is v for k, v in before.items())
    print(f"ok   {len(before)} bindings restored after tracing and after a raise; "
          "traced outputs identical")


def check_fails_without_sources() -> None:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = _run("--workload", "checks", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print(f"ok   without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_fails_without_sources()
    check_restored()
    check_wrong_output_fails()
    check_metrics_printed(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
