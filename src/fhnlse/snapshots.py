"""On-disk formats: field snapshots, JSON records, CSV tables.

A field snapshot is a pair of files sharing a base path: ``<base>.f64``
holds the raw samples as little-endian float64 (re, im) pairs in row-major
order, and ``<base>.json`` is the header ``{d, n, L, alpha, gamma, label}``.
A snapshot is read as the start of a run: its header is checked against the
run's grid and exponents, which are validated already.
All writers are deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .fields import Field
from .grid import Grid

__all__ = ["write_field", "read_field", "read_json", "write_json", "write_csv"]

_DATA_SUFFIX = ".f64"
_HEADER_SUFFIX = ".json"


def _paths(base: Path) -> tuple[Path, Path]:
    """``(<base>.f64, <base>.json)``."""
    return (
        base.with_suffix(base.suffix + _DATA_SUFFIX),
        base.with_suffix(base.suffix + _HEADER_SUFFIX),
    )


def write_field(
    base: str | Path,
    field: Field,
    alpha: float,
    gamma: float,
    label: str = "",
) -> tuple[Path, Path]:
    """Write ``<base>.f64`` + ``<base>.json``; returns both paths."""
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    data_path, header_path = _paths(base)
    grid = field.grid
    data_path.write_bytes(np.ascontiguousarray(field.values, dtype="<c16").tobytes())
    header = {
        "d": grid.d,
        "n": grid.n,
        "L": grid.L,
        "alpha": float(alpha),
        "gamma": float(gamma),
        "label": str(label),
    }
    write_json(header_path, header)
    return data_path, header_path


def read_field(base: str | Path, grid: Grid, alpha: float, gamma: float) -> Field:
    """The snapshot at ``base`` as the start of a run on ``grid`` with exponents
    ``alpha`` and ``gamma``; raises ``ValueError`` naming the header file unless
    it is a JSON object whose ``d``, ``n``, ``L``, ``alpha`` and ``gamma`` equal
    the run's, ``d`` and ``n`` as JSON integers and ``L`` not as ``true``."""
    data_path, header_path = _paths(Path(base))
    if not data_path.exists() or not header_path.exists():
        raise FileNotFoundError(f"no field snapshot at base path {base}")
    header = read_json(header_path, "snapshot header")
    for key in ("d", "n", "L", "alpha", "gamma", "label"):
        if key not in header:
            raise ValueError(f"snapshot header {header_path} misses key {key!r}")
    run = {"d": grid.d, "n": grid.n, "L": grid.L, "alpha": alpha, "gamma": gamma}
    for key, want in run.items():
        got = header[key]
        if got != want or key in ("d", "n") and type(got) is not int or key == "L" and got is True:
            raise ValueError(
                f"snapshot header {header_path}: {key} {got!r} does not match the run's {want!r}"
            )
    raw = data_path.read_bytes()
    expected = grid.size * 16  # two little-endian float64s per sample
    if len(raw) != expected:
        raise ValueError(
            f"snapshot {data_path} holds {len(raw)} bytes, expected {expected} "
            f"for a {grid.d}-dimensional grid with n={grid.n}"
        )
    vals = np.frombuffer(raw, dtype="<c16").astype(np.complex128).reshape(grid.shape)
    return Field(grid, vals)


def read_json(path: Path, what: str) -> dict:
    """The JSON object in the file ``path``; a ``ValueError`` names it ``what``."""
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return obj


def write_json(path: str | Path, obj: dict) -> Path:
    """Deterministic JSON: 2-space indent, trailing newline, no timestamps."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """CSV with a header row; floats serialized via repr (round-trip exact)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
    return path
