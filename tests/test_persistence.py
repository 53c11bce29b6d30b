"""Unit tests for experiment persistence (tables + manifests)."""

import json

import pytest

from repro.engine import EngineSpec
from repro.errors import DataError
from repro.experiments.configs import ExperimentConfig
from repro.experiments.persistence import load_manifest, load_table, save_manifest, save_table
from repro.experiments.reporting import ResultTable


@pytest.fixture
def table():
    t = ResultTable(["policy", "epsilon", "error", "holds"], title="demo run")
    t.add_row("G1", 0.5, 2.25, True)
    t.add_row("Ga", 1, 8.0, False)
    return t


class TestTableRoundtrip:
    def test_roundtrip_values(self, table, tmp_path):
        path = save_table(table, tmp_path / "out" / "e1.csv")
        loaded = load_table(path)
        assert loaded.title == "demo run"
        assert loaded.columns == table.columns
        assert loaded.rows == [("G1", 0.5, 2.25, True), ("Ga", 1, 8.0, False)]

    def test_types_preserved(self, table, tmp_path):
        loaded = load_table(save_table(table, tmp_path / "e.csv"))
        row = loaded.rows[0]
        assert isinstance(row[1], float)
        assert isinstance(row[3], bool)
        assert isinstance(loaded.rows[1][1], int)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_table(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_table(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(DataError):
            load_table(path)

    def test_untitled_table(self, tmp_path):
        t = ResultTable(["x"])
        t.add_row(3)
        loaded = load_table(save_table(t, tmp_path / "t.csv"))
        assert loaded.title == ""
        assert loaded.rows == [(3,)]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        config = ExperimentConfig(world_size=8, epsilons=(0.5, 1.0))
        path = save_manifest("e1", config, tmp_path / "e1.csv", tmp_path / "e1.json", notes="smoke")
        manifest = load_manifest(path)
        assert manifest["experiment"] == "e1"
        assert manifest["notes"] == "smoke"
        assert manifest["config"] == config

    def test_version_recorded(self, tmp_path):
        import repro

        path = save_manifest("e2", ExperimentConfig(), "t.csv", tmp_path / "m.json")
        raw = json.loads(path.read_text())
        assert raw["library_version"] == repro.__version__

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_manifest(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_manifest(path)

    def test_missing_config_block(self, tmp_path):
        path = tmp_path / "noconfig.json"
        path.write_text(json.dumps({"experiment": "e1"}))
        with pytest.raises(DataError):
            load_manifest(path)

    def test_engine_spec_round_trips(self, tmp_path):
        # engine_spec is compare=False, so config equality does not cover it.
        spec = EngineSpec.named(
            "planar_isotropic", "Gb", epsilon=0.5, backend="pool", shards=3,
            backend_params={"max_workers": 2}, store=str(tmp_path / "run.sqlite"),
            resume=True, live_metrics=True,
        )
        config = ExperimentConfig(world_size=6).with_engine_spec(spec)
        path = save_manifest("e8", config, tmp_path / "e8.csv", tmp_path / "e8.json")
        loaded = load_manifest(path)["config"]
        assert loaded == config
        assert loaded.engine_spec == spec

    def test_unknown_config_key_refused(self, tmp_path):
        path = save_manifest("e1", ExperimentConfig(), "t.csv", tmp_path / "m.json")
        raw = json.loads(path.read_text())
        raw["config"]["shard_count"] = 2
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError) as info:
            load_manifest(path)
        assert str(path) in str(info.value) and "'shard_count'" in str(info.value)

    def test_removed_worker_fields_refused(self, tmp_path):
        # Manifests written while E8 swept worker-process counts carry two
        # fields ExperimentConfig no longer has: both are named.
        path = save_manifest("e8", ExperimentConfig(), "t.csv", tmp_path / "m.json")
        raw = json.loads(path.read_text())
        raw["config"].update(backend_params=[["workers", 2]], worker_counts=[1, 2])
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError, match=r"\['backend_params', 'worker_counts'\]"):
            load_manifest(path)

    def test_unknown_engine_spec_key_refused(self, tmp_path):
        spec = EngineSpec.named("planar_laplace", "G1", shards=2)
        config = ExperimentConfig().with_engine_spec(spec)
        path = save_manifest("e8", config, "t.csv", tmp_path / "m.json")
        raw = json.loads(path.read_text())
        raw["config"]["engine_spec"]["execution"]["shard"] = 4
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError) as info:
            load_manifest(path)
        message = str(info.value)
        assert str(path) in message and "execution" in message
        assert "'shard'" in message
