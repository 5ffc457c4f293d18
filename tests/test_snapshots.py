"""On-disk formats: exact field round-trips, header validation, and
deterministic JSON/CSV writers."""

import csv

import numpy as np
import pytest

from fhnlse import Field, Grid, random_band_limited, read_field, write_csv, write_field, write_json
from fhnlse.snapshots import read_start


class TestFieldRoundTrip:
    def test_round_trip_is_bit_exact(self, tmp_path):
        grid = Grid(d=2, n=16, L=10.0)
        u = random_band_limited(grid, seed=5)
        base = tmp_path / "state"
        data_path, header_path = write_field(base, u, alpha=0.6, gamma=0.5, label="trip")
        assert data_path.suffix == ".f64"
        assert header_path.suffix == ".json"
        back, header = read_field(base)
        assert back.grid == grid
        assert np.array_equal(back.values, u.values)
        assert header == {
            "d": 2, "n": 16, "L": 10.0, "alpha": 0.6, "gamma": 0.5, "label": "trip",
        }

    def test_round_trip_in_three_dimensions(self, tmp_path):
        grid = Grid(d=3, n=8, L=5.0)
        u = random_band_limited(grid, seed=6)
        write_field(tmp_path / "cube", u, alpha=0.7, gamma=1.2)
        back, header = read_field(tmp_path / "cube")
        assert np.array_equal(back.values, u.values)
        assert header["label"] == ""

    def test_creates_parent_directories(self, tmp_path):
        grid = Grid(d=1, n=8, L=4.0)
        u = random_band_limited(grid, seed=7)
        base = tmp_path / "deep" / "nested" / "state"
        write_field(base, u, alpha=0.6, gamma=0.5)
        back, _ = read_field(base)
        assert np.array_equal(back.values, u.values)


class TestReadValidation:
    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no field snapshot"):
            read_field(tmp_path / "absent")

    def test_header_missing_key_raises(self, tmp_path):
        grid = Grid(d=1, n=8, L=4.0)
        u = random_band_limited(grid, seed=8)
        base = tmp_path / "state"
        write_field(base, u, alpha=0.6, gamma=0.5)
        header_path = base.with_suffix(".json")
        header_path.write_text('{"d": 1, "n": 8, "L": 4.0}')
        with pytest.raises(ValueError, match="misses key"):
            read_field(base)

    @pytest.mark.parametrize(
        "header, message",
        [
            ('{"d": 1, "n": 8, "L": null, "alpha": 0.6, "gamma": 0.5, "label": ""}',
             "L must be a finite number"),
            ('{"d": 1, "n": 8, "L": Infinity, "alpha": 0.6, "gamma": 0.5, "label": ""}',
             "L must be a finite number"),
            ('{"d": 1, "n": [8], "L": 4.0, "alpha": 0.6, "gamma": 0.5, "label": ""}',
             "n must be an integer"),
            ('{"d": true, "n": 8, "L": 4.0, "alpha": 0.6, "gamma": 0.5, "label": ""}',
             "d must be an integer"),
            ('{"d": 1, "n": 8.5, "L": 4.0, "alpha": 0.6, "gamma": 0.5, "label": ""}',
             "n must be an integer"),
            ('{"d": 1, "n": 31, "L": 4.0, "alpha": 0.6, "gamma": 0.5, "label": ""}',
             "n must be a power of two"),
            ('{"d": 4, "n": 8, "L": 4.0, "alpha": 0.6, "gamma": 0.5, "label": ""}',
             "d must be 1, 2 or 3"),
            ('{"d": 1, "n": 8, "L": -1, "alpha": 0.6, "gamma": 0.5, "label": ""}',
             "L must be positive"),
            ('{d: 1}', "is not valid JSON"),
            ("[1, 8, 4.0]", "must hold a JSON object"),
        ],
    )
    def test_malformed_header_raises_naming_the_file(self, tmp_path, header, message):
        grid = Grid(d=1, n=8, L=4.0)
        base = tmp_path / "state"
        _, header_path = write_field(base, random_band_limited(grid, seed=8), alpha=0.6, gamma=0.5)
        header_path.write_text(header)
        with pytest.raises(ValueError, match=message) as info:
            read_field(base)
        assert str(header_path) in str(info.value)

    @pytest.mark.parametrize(
        "grid, alpha, gamma, message",
        [
            (Grid(d=1, n=16, L=4.0), 0.6, 0.5, "n 8 does not match the run's 16"),
            (Grid(d=2, n=8, L=4.0), 0.6, 0.5, "d 1 does not match the run's 2"),
            (Grid(d=1, n=8, L=5.0), 0.6, 0.5, "L 4.0 does not match the run's 5.0"),
            (Grid(d=1, n=8, L=4.0), 0.7, 0.5, "alpha 0.6 does not match the run's 0.7"),
            (Grid(d=1, n=8, L=4.0), 0.6, 0.4, "gamma 0.5 does not match the run's 0.4"),
        ],
    )
    def test_start_on_another_run_raises_naming_the_file(
        self, tmp_path, grid, alpha, gamma, message
    ):
        base = tmp_path / "state"
        u = random_band_limited(Grid(d=1, n=8, L=4.0), seed=8)
        _, header_path = write_field(base, u, alpha=0.6, gamma=0.5)
        with pytest.raises(ValueError, match=message) as info:
            read_start(base, grid, alpha, gamma)
        assert str(header_path) in str(info.value)
        assert np.array_equal(read_start(base, u.grid, 0.6, 0.5).values, u.values)

    def test_byte_count_mismatch_raises(self, tmp_path):
        grid = Grid(d=1, n=8, L=4.0)
        u = random_band_limited(grid, seed=9)
        base = tmp_path / "state"
        data_path, _ = write_field(base, u, alpha=0.6, gamma=0.5)
        data_path.write_bytes(data_path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="bytes"):
            read_field(base)


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
