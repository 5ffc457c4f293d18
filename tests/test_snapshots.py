"""On-disk formats: exact field round-trips, header checks against the run,
and deterministic JSON/CSV writers."""

import csv
import json

import numpy as np
import pytest

from fhnlse import Field, Grid, random_band_limited, read_field, write_csv, write_field, write_json

# The run every header below is read against, and the raw JSON of the header
# that a snapshot of it carries.
RUN_GRID, RUN_ALPHA, RUN_GAMMA = Grid(d=1, n=8, L=1.0), 0.6, 0.5
RUN_ENTRIES = {"d": "1", "n": "8", "L": "1.0", "alpha": "0.6", "gamma": "0.5", "label": '""'}


def header_text(**raw: str) -> str:
    """The run's header with the given entries replaced by raw JSON text."""
    return "{" + ", ".join(f'"{k}": {v}' for k, v in {**RUN_ENTRIES, **raw}.items()) + "}"


# Headers the run rejects, each with the end of its message after the header
# path.  Equality alone would admit "d": true, "n": 8.0 and "L": true.
REJECTED_HEADERS = [
    pytest.param(header_text(L="null"), ": L None does not match", id="L-null"),
    pytest.param(header_text(L="Infinity"), ": L inf does not match", id="L-infinite"),
    pytest.param(header_text(L="NaN"), ": L nan does not match", id="L-nan"),
    pytest.param(header_text(L="true"), ": L True does not match", id="L-true"),
    pytest.param(header_text(L="-1"), ": L -1 does not match", id="L-negative"),
    pytest.param(header_text(L="4.0"), ": L 4.0 does not match the run's 1.0", id="L-differs"),
    pytest.param(header_text(n="[8]"), ": n [8] does not match", id="n-list"),
    pytest.param(header_text(n="8.5"), ": n 8.5 does not match", id="n-fraction"),
    pytest.param(header_text(n="8.0"), ": n 8.0 does not match the run's 8", id="n-float"),
    pytest.param(header_text(n="31"), ": n 31 does not match", id="n-31"),
    pytest.param(header_text(n="16"), ": n 16 does not match the run's 8", id="n-differs"),
    pytest.param(header_text(d="true"), ": d True does not match the run's 1", id="d-true"),
    pytest.param(header_text(d="4"), ": d 4 does not match", id="d-4"),
    pytest.param(header_text(d="2"), ": d 2 does not match the run's 1", id="d-differs"),
    pytest.param(header_text(alpha="0.7"), ": alpha 0.7 does not match the run's 0.6",
                 id="alpha-0.7"),
    pytest.param(header_text(alpha="0.9"), ": alpha 0.9 does not match the run's 0.6",
                 id="alpha-0.9"),
    pytest.param(header_text(gamma="0.4"), ": gamma 0.4 does not match the run's 0.5",
                 id="gamma-0.4"),
    pytest.param(header_text(gamma="1.5"), ": gamma 1.5 does not match the run's 0.5",
                 id="gamma-1.5"),
    pytest.param('{"d": 1, "n": 8, "L": 1.0}', " misses key 'alpha'", id="missing-key"),
    pytest.param("{d: 1}", " is not valid JSON", id="not-json"),
    pytest.param("[1, 8, 1.0]", " must hold a JSON object", id="not-an-object"),
]


def run_snapshot(base) -> tuple:
    """A snapshot of the run at ``base``: (field, data path, header path)."""
    u = random_band_limited(RUN_GRID, seed=8)
    return (u, *write_field(base, u, alpha=RUN_ALPHA, gamma=RUN_GAMMA))


class TestFieldRoundTrip:
    def test_round_trip_is_bit_exact(self, tmp_path):
        grid = Grid(d=2, n=16, L=10.0)
        u = random_band_limited(grid, seed=5)
        base = tmp_path / "state"
        data_path, header_path = write_field(base, u, alpha=0.6, gamma=0.5, label="trip")
        assert data_path.suffix == ".f64"
        assert header_path.suffix == ".json"
        back = read_field(base, grid, 0.6, 0.5)
        assert back.grid == grid
        assert np.array_equal(back.values, u.values)
        assert json.loads(header_path.read_text()) == {
            "d": 2, "n": 16, "L": 10.0, "alpha": 0.6, "gamma": 0.5, "label": "trip",
        }

    def test_round_trip_in_three_dimensions(self, tmp_path):
        grid = Grid(d=3, n=8, L=5.0)
        u = random_band_limited(grid, seed=6)
        _, header_path = write_field(tmp_path / "cube", u, alpha=0.7, gamma=1.2)
        back = read_field(tmp_path / "cube", grid, 0.7, 1.2)
        assert np.array_equal(back.values, u.values)
        assert json.loads(header_path.read_text())["label"] == ""

    def test_creates_parent_directories(self, tmp_path):
        grid = Grid(d=1, n=8, L=4.0)
        u = random_band_limited(grid, seed=7)
        base = tmp_path / "deep" / "nested" / "state"
        write_field(base, u, alpha=0.6, gamma=0.5)
        back = read_field(base, grid, 0.6, 0.5)
        assert np.array_equal(back.values, u.values)


class TestHeaderAgainstTheRun:
    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no field snapshot"):
            read_field(tmp_path / "absent", RUN_GRID, RUN_ALPHA, RUN_GAMMA)

    @pytest.mark.parametrize("header, tail", REJECTED_HEADERS)
    def test_rejected_header_raises_naming_the_file_and_key(self, tmp_path, header, tail):
        _, _, header_path = run_snapshot(tmp_path / "state")
        header_path.write_text(header)
        with pytest.raises(ValueError) as info:
            read_field(tmp_path / "state", RUN_GRID, RUN_ALPHA, RUN_GAMMA)
        assert f"snapshot header {header_path}{tail}" in str(info.value)

    @pytest.mark.parametrize(
        "header",
        [
            header_text(),
            header_text(L="1"),
            header_text(alpha="6e-1", gamma="0.50"),
            header_text(label="7"),
        ],
        ids=["as-written", "L-integer", "exponents-respelled", "label-not-a-string"],
    )
    def test_header_equal_to_the_run_is_accepted(self, tmp_path, header):
        u, _, header_path = run_snapshot(tmp_path / "state")
        header_path.write_text(header)
        back = read_field(tmp_path / "state", RUN_GRID, RUN_ALPHA, RUN_GAMMA)
        assert np.array_equal(back.values, u.values)

    def test_byte_count_mismatch_raises(self, tmp_path):
        _, data_path, _ = run_snapshot(tmp_path / "state")
        data_path.write_bytes(data_path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="bytes"):
            read_field(tmp_path / "state", RUN_GRID, RUN_ALPHA, RUN_GAMMA)


class TestDeterministicWriters:
    def test_json_bytes_are_reproducible_with_trailing_newline(self, tmp_path):
        obj = {"b": 2, "a": [1.5, None, "x"]}
        p1 = write_json(tmp_path / "one.json", obj)
        p2 = write_json(tmp_path / "two.json", obj)
        raw = p1.read_bytes()
        assert raw == p2.read_bytes()
        assert raw.endswith(b"\n")

    def test_csv_floats_round_trip_through_repr(self, tmp_path):
        # NumPy float scalars (rows built from arrays) must not print as
        # ``np.float64(...)``
        values = [0.1 + 0.2, 1e-17, -3.141592653589793, np.float64(2.0) / 3.0]
        rows = [(i, v) for i, v in enumerate(values)]
        path = write_csv(tmp_path / "table.csv", ["index", "value"], rows)
        with path.open() as fh:
            reader = csv.reader(fh)
            header = next(reader)
            parsed = [float(row[1]) for row in reader]
        assert header == ["index", "value"]
        assert parsed == values

    def test_identical_fields_produce_identical_bytes(self, tmp_path):
        grid = Grid(d=2, n=16, L=10.0)
        u = random_band_limited(grid, seed=10)
        d1, h1 = write_field(tmp_path / "a", u, alpha=0.6, gamma=0.5)
        d2, h2 = write_field(tmp_path / "b", Field(grid, u.values.copy()), alpha=0.6, gamma=0.5)
        assert d1.read_bytes() == d2.read_bytes()
        assert h1.read_bytes() == h2.read_bytes()
