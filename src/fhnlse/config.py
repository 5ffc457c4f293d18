"""Run configuration: defaults, JSON file loading, overrides, validation,
and the builders that turn a configuration into library values.

Precedence, lowest to highest: built-in defaults (the reference parameter
set), the JSON config file, then ``--set section.key=value`` overrides.
Both go through one merge, which rejects unknown sections and keys.  Where
results are written is not configuration: the command line's
``--output-dir`` names it.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

from .grid import Grid, PhysicsParams, _check_real
from .groundstate import SolveOptions
from .kernel import HartreeKernel
from .snapshots import read_field, read_json

__all__ = [
    "DEFAULTS",
    "load_config",
    "apply_overrides",
    "validate_config",
    "params_from",
    "grid_from",
    "kernel_from",
    "solve_options_from",
]

DEFAULTS: dict = {
    "physics": {"alpha": 0.6, "gamma": 0.5, "d": 2},
    "grid": {"n": 64, "L": 40.0},
    "solver": {
        "q": SolveOptions.q,
        "maxIter": SolveOptions.max_iter,
        "residTol": SolveOptions.resid_tol,
        "init": "gaussian",
    },
    "dynamics": {
        "T": 10.0,
        "dt": 1e-3,
        "snapshotStride": 100,
        "init": "groundstate",
        "planeWaveMode": [1, 0],
    },
    "stability": {
        "delta": 0.01,
        "seed": 1,
        "T": 20.0,
        "dt": 1e-3,
        "snapshotStride": 200,
    },
    "rearrange": {"count": 100, "seed": 1},
    "output": {"formats": ["json", "csv"]},
}


def _merge_checked(base: dict, update: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in update.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValueError(f"unknown config {'key' if path else 'section'}: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config section {where} must be an object")
            out[key] = _merge_checked(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(
    path: str | Path | None = None, overrides: list[str] | None = None
) -> dict:
    """Resolve the full configuration and validate it."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        cfg = _merge_checked(cfg, read_json(path, "config file"))
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    validate_config(cfg)
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` strings by the config file's merge; values
    parse as JSON, else string."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.strip().split(".")
        if len(parts) != 2:
            raise ValueError(f"override key {dotted!r} must be section.key")
        section, key = parts
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg = _merge_checked(cfg, {section: {key: value}})
    return cfg


# the real-valued keys and their bound for :func:`~fhnlse.grid._check_real`;
# PhysicsParams checks the upper bounds of alpha and gamma
_REAL_KEYS = {
    "physics": {"alpha": "positive", "gamma": "positive"},
    "grid": {"L": "positive"},
    "solver": {"q": "positive", "residTol": "positive"},
    "dynamics": {"T": "nonnegative", "dt": "positive"},
    "stability": {"delta": "nonnegative", "T": "nonnegative", "dt": "positive"},
}


def _require_int(cfg: dict, section: str, key: str, minimum: int | None = None) -> int:
    value = cfg[section][key]
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{section}.{key} must be an integer (got {value!r})")
    if minimum is not None and value < minimum:
        raise ValueError(f"{section}.{key} must be >= {minimum} (got {value})")
    return int(value)


def validate_config(cfg: dict) -> None:
    """Type/range checks; raises ValueError naming the offending constraint."""
    d = _require_int(cfg, "physics", "d")
    _require_int(cfg, "grid", "n")
    for section, keys in _REAL_KEYS.items():
        for key, bound in keys.items():
            _check_real(cfg[section][key], f"{section}.{key}", bound)
    params_from(cfg)  # validates physics block and alpha/gamma/d coupling
    grid_from(cfg)  # validates grid block
    _require_int(cfg, "solver", "maxIter", minimum=1)
    for section in ("dynamics", "stability"):
        t, dt = float(cfg[section]["T"]), float(cfg[section]["dt"])
        if t / dt > sys.float_info.max:  # the step count ceil(T/dt) overflows
            raise ValueError(f"{section}.T / {section}.dt must be finite (got {t} / {dt})")
        _require_int(cfg, section, "snapshotStride", minimum=1)
    _require_int(cfg, "stability", "seed", minimum=0)
    for section in ("solver", "dynamics"):
        if not isinstance(cfg[section]["init"], str):
            raise ValueError(f"{section}.init must be a string (got {cfg[section]['init']!r})")
    mode = cfg["dynamics"]["planeWaveMode"]
    if not isinstance(mode, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in mode
    ):
        raise ValueError(f"dynamics.planeWaveMode must be a list of integers (got {mode!r})")
    # only a plane-wave start reads the mode, so only it must match d
    if cfg["dynamics"]["init"] == "planeWave" and len(mode) != d:
        raise ValueError(
            f"dynamics.planeWaveMode must have {d} components (got {tuple(mode)})"
        )
    _require_int(cfg, "rearrange", "count", minimum=1)
    _require_int(cfg, "rearrange", "seed", minimum=0)
    formats = cfg["output"]["formats"]
    allowed = {"json", "csv", "snapshots"}
    if not isinstance(formats, list) or not set(formats) <= allowed:
        raise ValueError(f"output.formats must be a sublist of {sorted(allowed)}")


def params_from(cfg: dict) -> PhysicsParams:
    ph = cfg["physics"]
    return PhysicsParams(alpha=float(ph["alpha"]), gamma=float(ph["gamma"]), d=int(ph["d"]))


def grid_from(cfg: dict) -> Grid:
    return Grid(d=int(cfg["physics"]["d"]), n=int(cfg["grid"]["n"]), L=float(cfg["grid"]["L"]))


def kernel_from(cfg: dict) -> HartreeKernel:
    return HartreeKernel(grid_from(cfg), float(cfg["physics"]["gamma"]))


def solve_options_from(cfg: dict) -> SolveOptions:
    """The solver block as :class:`SolveOptions`: ``solver.init`` "gaussian"
    is the default start (None), anything else the base path of a snapshot
    on the run's grid, read here."""
    s = cfg["solver"]
    init = None
    if s["init"] != "gaussian":
        p = params_from(cfg)
        init = read_field(s["init"], grid_from(cfg), p.alpha, p.gamma)
    return SolveOptions(
        q=float(s["q"]),
        max_iter=int(s["maxIter"]),
        resid_tol=float(s["residTol"]),
        init=init,
    )
