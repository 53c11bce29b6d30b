"""Unit tests for the dataset registry and persistence."""

import pytest

from repro.errors import DataError
from repro.geo.grid import GridWorld
from repro.mobility.datasets import (
    DATASETS,
    dataset_summary,
    load_tracedb,
    make_dataset,
    save_tracedb,
)
from repro.mobility.trajectory import TraceDB


@pytest.fixture
def world():
    return GridWorld(6, 6)


class TestRegistry:
    def test_names(self):
        assert set(DATASETS) == {"geolife", "gowalla", "random_waypoint"}

    def test_make_geolife(self, world):
        db = make_dataset("geolife", world, rng=0, n_users=4, horizon=24)
        assert len(db.users()) == 4

    def test_make_gowalla(self, world):
        db = make_dataset("gowalla", world, rng=0, n_users=4, checkins_per_user=5, horizon=30)
        assert len(db) == 20

    def test_unknown_name(self, world):
        with pytest.raises(DataError):
            make_dataset("brightkite", world)


class TestSummary:
    def test_summary_fields(self, world):
        db = make_dataset("geolife", world, rng=1, n_users=3, horizon=10)
        summary = dataset_summary(db)
        assert summary["n_users"] == 3
        assert summary["n_checkins"] == 30
        assert summary["time_span"] == (0, 9)
        assert summary["mean_history_length"] == pytest.approx(10.0)
        assert 1 <= summary["distinct_cells"] <= 36

    def test_empty_db(self):
        summary = dataset_summary(TraceDB())
        assert summary["n_users"] == 0
        assert summary["time_span"] == (None, None)


class TestPersistence:
    def test_roundtrip(self, world, tmp_path):
        db = make_dataset("gowalla", world, rng=2, n_users=5, checkins_per_user=8, horizon=40)
        path = tmp_path / "traces.jsonl"
        save_tracedb(db, path)
        loaded = load_tracedb(path)
        assert list(loaded.checkins()) == list(db.checkins())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_tracedb(tmp_path / "nope.jsonl")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0, "u": 1, "c": 2}\nnot json\n')
        with pytest.raises(DataError, match="line 2|bad.jsonl"):
            load_tracedb(path)

    def test_value_outside_int64_names_the_line(self, tmp_path):
        path = tmp_path / "wide.jsonl"
        path.write_text('{"t": 0, "u": 1, "c": 2}\n{"t": 1180591620717411303424, "u": 1, "c": 2}\n')
        with pytest.raises(DataError, match=r"wide\.jsonl:2$"):
            load_tracedb(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"t": 0, "u": 1, "c": 2}\n\n{"t": 1, "u": 1, "c": 3}\n')
        loaded = load_tracedb(path)
        assert len(loaded) == 2
