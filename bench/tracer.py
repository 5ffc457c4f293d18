"""Span tracing for the benchmark's traced runs.

Inside :meth:`Tracer.active` every public module-level function of every
``fhnlse`` module is wrapped at each name it is bound to (``from .spectral
import energy`` makes separate bindings in ``groundstate``, ``dynamics``,
``verify`` and ``stability``), together with the three methods that carry
the hot loops and ``numpy.fft.fftn``/``ifftn``.  Leaving the block puts
every original back.  Spans stay in memory as ``(id, parent, name, t0, t1,
info)`` tuples; :func:`layer_metrics` reduces them to the per-layer table.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

import numpy as np

# Methods wrapped in addition to the module-level functions.
METHODS = {
    ("kernel", "HartreeKernel", "__init__"): "kernel.build",
    ("kernel", "HartreeKernel", "convolve_density"): "kernel.convolve_density",
    ("grid", "Grid", "fractional_multiplier"): "grid.fractional_multiplier",
}


def _fft_info(result, args):
    return (result.size, np.asarray(args[0]).nbytes + result.nbytes)


# Per-span facts read from a call's result after its span has ended.
HOOKS = {
    "groundstate.minimize": lambda r, a: r.iterations,
    "dynamics.evolve": lambda r, a: (r.steps, len(r.times)),
    "snapshots.write_field": lambda r, a: sum(p.stat().st_size for p in r),
    "verify.run_checks": lambda r, a: [(c.name, c.seconds) for c in r],
    "fft.fftn": _fft_info,
    "fft.ifftn": _fft_info,
}


def fhnlse_modules() -> dict:
    """The ``fhnlse`` package and each of its modules, keyed by short name."""
    import fhnlse

    mods = {"": fhnlse}
    for info in pkgutil.iter_modules(fhnlse.__path__):
        mods[info.name] = importlib.import_module(f"fhnlse.{info.name}")
    return mods


def _public_functions(mods: dict) -> list[tuple[str, object]]:
    out = []
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                out.append((f"{short}.{name}", obj))
    return out


def bindings(mods: dict) -> dict:
    """Every attribute the tracer may replace, mapped to its current object."""
    out = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if not name.startswith("__"):  # warnings add __warningregistry__
                out[(short, name)] = obj
    for (short, cls, meth) in METHODS:
        out[(f"{short}.{cls}", meth)] = vars(getattr(mods[short], cls))[meth]
    for name in ("fftn", "ifftn"):
        out[("numpy.fft", name)] = getattr(np.fft, name)
    return out


class Tracer:
    """Collects spans while :meth:`active` is entered."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack = [0]  # span id 0 is the root
        self._next = 1

    def _wrap(self, name: str, fn):
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, parent, name, t0, t1, hook(result, args) if hook else None))
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self):
        mods = fhnlse_modules()
        saved = []
        try:
            for name, fn in _public_functions(mods):
                wrapper = self._wrap(name, fn)
                for mod in mods.values():
                    for attr, obj in list(vars(mod).items()):
                        if obj is fn:
                            saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
            for (short, cls, meth), name in METHODS.items():
                klass = getattr(mods[short], cls)
                fn = vars(klass)[meth]
                saved.append((klass, meth, fn))
                setattr(klass, meth, self._wrap(name, fn))
            for fname in ("fftn", "ifftn"):
                fn = getattr(np.fft, fname)
                saved.append((np.fft, fname, fn))
                setattr(np.fft, fname, self._wrap(f"fft.{fname}", fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "t0": t0, "t1": t1, "info": info}) + "\n")


def layer_metrics(spans: list[tuple]) -> dict:
    """Per-layer counts and times of one traced pass.

    ``s`` is a span's inclusive duration; ``self_s`` subtracts the time
    covered by its child spans.  Ratios whose base is zero on a workload
    (``dynamics.fft_per_step`` without steps, say) read 0.
    """
    parent_of, name_of = {}, {}
    child_s = defaultdict(float)
    for sid, parent, name, t0, t1, _ in spans:
        parent_of[sid], name_of[sid] = parent, name
        child_s[parent] += t1 - t0
    roots = ("dynamics.evolve", "groundstate.minimize")
    memo = {0: None}

    def enclosing(sid):
        """Innermost evolve or minimize span strictly enclosing ``sid``."""
        chain, cur = [], parent_of[sid]
        while cur not in memo:
            if cur not in name_of:  # parent raised, so its span was never recorded
                memo[cur] = None
                break
            if name_of[cur] in roots:
                memo[cur] = name_of[cur]
                break
            chain.append(cur)
            cur = parent_of[cur]
        for c in chain:
            memo[c] = memo[cur]
        return memo[cur]

    calls, secs, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    info = defaultdict(list)
    fft_in = defaultdict(int)
    energy_in_minimize = 0
    for sid, parent, name, t0, t1, extra in spans:
        calls[name] += 1
        secs[name] += t1 - t0
        self_s[name] += t1 - t0 - child_s[sid]
        if extra is not None:
            info[name].append(extra)
        if name.startswith("fft."):
            fft_in[enclosing(sid)] += 1
        elif name == "spectral.energy" and enclosing(sid) == "groundstate.minimize":
            energy_in_minimize += 1

    ffts = info["fft.fftn"] + info["fft.ifftn"]
    steps = sum(s for s, _ in info["dynamics.evolve"])
    iterations = sum(info["groundstate.minimize"])
    minimize_calls = calls["groundstate.minimize"]
    trials = energy_in_minimize - minimize_calls  # one energy per call is the start point
    m = {
        "fft.calls": len(ffts),
        "fft.points": sum(p for p, _ in ffts),
        "fft.s": secs["fft.fftn"] + secs["fft.ifftn"],
        "fft.bytes_computed": sum(b for _, b in ffts),
        "dynamics.evolve.steps": steps,
        "dynamics.evolve.self_s": self_s["dynamics.evolve"],
        "dynamics.us_per_step": 1e6 * secs["dynamics.evolve"] / steps if steps else 0.0,
        "dynamics.fft_per_step": fft_in["dynamics.evolve"] / steps if steps else 0.0,
        "dynamics.records": sum(r for _, r in info["dynamics.evolve"]),
        "groundstate.minimize.calls": minimize_calls,
        "groundstate.minimize.iterations": iterations,
        "groundstate.minimize.energy_evals": energy_in_minimize,
        "groundstate.minimize.self_s": self_s["groundstate.minimize"],
        "groundstate.minimize.accept_ratio": iterations / trials if trials else 0.0,
        "groundstate.fft_per_iteration": (
            fft_in["groundstate.minimize"] / iterations if iterations else 0.0
        ),
        "snapshots.write_field.bytes": sum(info["snapshots.write_field"]),
        "cli.main.self_s": self_s["cli.main"],
    }
    for name in ("groundstate.align", "spectral.energy", "spectral.energy_gradient",
                 "spectral.sobolev_seminorm_sq", "kernel.build", "kernel.convolve_density",
                 "grid.fractional_multiplier", "stability.orbit_distance",
                 "rearrange.symmetric_rearrange", "cli.main"):
        m[f"{name}.calls"] = calls[name]
    for name in ("groundstate.align", "spectral.energy", "spectral.energy_gradient",
                 "spectral.sobolev_seminorm_sq", "kernel.build", "kernel.convolve_density",
                 "kernel.hartree_direct", "grid.fractional_multiplier",
                 "stability.orbit_distance", "stability.perturb",
                 "rearrange.symmetric_rearrange", "rearrange.riesz_check",
                 "snapshots.write_field", "snapshots.read_field"):
        m[f"{name}.s"] = secs[name]
    check_s = defaultdict(float)
    for results in info["verify.run_checks"]:
        for check, seconds in results:
            check_s[check] += seconds
    for check in ("hartree-oracle-equivalence", "gradient-pairing",
                  "rearrangement-suite", "conservation"):
        m[f"verify.{check}.s"] = check_s[check]
    return m
