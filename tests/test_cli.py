"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestPolicyCommand:
    def test_shows_stats(self, capsys):
        assert main(["policy", "G1", "--size", "6"]) == 0
        out = capsys.readouterr().out
        assert "policy G1" in out
        assert "nodes        : 36" in out
        assert "components   : 1" in out

    def test_gc_has_disclosable(self, capsys):
        assert main(["policy", "Gc", "--size", "6"]) == 0
        out = capsys.readouterr().out
        assert "disclosable" in out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["policy", "G99"])


class TestReleaseCommand:
    def test_noisy_release(self, capsys):
        code = main(["release", "--policy", "G1", "--epsilon", "1.0", "--cell", "27", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "true cell 27" in out
        assert "exact=False" in out

    def test_deterministic_with_seed(self, capsys):
        main(["release", "--cell", "5", "--seed", "7"])
        first = capsys.readouterr().out
        main(["release", "--cell", "5", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_cell_out_of_range(self, capsys):
        assert main(["release", "--cell", "10000"]) == 1
        assert "error" in capsys.readouterr().err

    def test_pim_mechanism(self, capsys):
        assert main(["release", "--mechanism", "P-PIM", "--cell", "0", "--seed", "1"]) == 0


class TestExperimentCommand:
    def test_runs_e6(self, capsys):
        code = main(
            ["experiment", "e6", "--size", "6", "--users", "6", "--horizon", "12",
             "--epsilons", "1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "E6" in out and "True" in out

    def test_runs_e7(self, capsys):
        code = main(
            ["experiment", "e7", "--size", "8", "--users", "10", "--horizon", "24"]
        )
        assert code == 0
        assert "E7" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"])

    def test_runs_e8_sharded(self, capsys):
        code = main(
            ["experiment", "e8", "--size", "6", "--users", "6", "--horizon", "8",
             "--shards", "2", "--backend", "pool"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "E8" in out and "pool" in out and "True" in out

    def test_removed_thread_backend_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["experiment", "e8", "--backend", "thread"])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestEngineSpecFlag:
    @pytest.fixture
    def spec_path(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "mechanism": {"name": "planar_isotropic", "epsilon": 2.0},
            "policy": {"name": "Gb"},
            "execution": {"backend": "serial", "shards": 2},
        }))
        return path

    def test_e8_runs_spec_end_to_end(self, capsys, spec_path):
        code = main(
            ["experiment", "e8", "--size", "6", "--users", "6", "--horizon", "8",
             "--engine-spec", str(spec_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PolicyPlanarIsotropicMechanism" in out
        assert "serial" in out and "True" in out

    def test_spec_pins_other_experiments(self, capsys, spec_path):
        code = main(
            ["experiment", "e1", "--size", "6", "--users", "6", "--horizon", "8",
             "--engine-spec", str(spec_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "planar_isotropic" in out and "Gb" in out

    def test_missing_spec_file(self, capsys, tmp_path):
        assert main(["experiment", "e8", "--engine-spec", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mechanism": {"name": "not_a_mechanism"}, "policy": {"name": "G1"}}')
        assert main(["experiment", "e8", "--size", "6", "--users", "6", "--horizon", "8",
                     "--engine-spec", str(bad)]) == 1
        assert "unknown mechanism" in capsys.readouterr().err

    def test_unknown_spec_key_exits_1(self, capsys, tmp_path):
        import json

        spec = tmp_path / "typo.json"
        spec.write_text(json.dumps({
            "mechanism": {"name": "planar_laplace"},
            "policy": {"name": "G1"},
            "execution": {"backend": "pool", "shard": 4},
        }))
        assert main(["experiment", "e8", "--size", "6", "--users", "6", "--horizon", "8",
                     "--engine-spec", str(spec)]) == 1
        assert "'shard'" in capsys.readouterr().err


class TestDatasetsCommand:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["geolife", "gowalla", "random_waypoint"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestStoreFlags:
    _E8 = ["experiment", "e8", "--size", "6", "--users", "6", "--horizon", "8",
           "--shards", "2", "--backend", "serial"]

    def test_e8_store_reports_durable_column(self, capsys, tmp_path):
        store = tmp_path / "run.sqlite"
        assert main([*self._E8, "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "durable_releases_per_sec" in out
        assert store.exists()

    def test_e8_resume_continues_existing_store(self, capsys, tmp_path):
        store = tmp_path / "run.sqlite"
        assert main([*self._E8, "--store", str(store)]) == 0
        capsys.readouterr()
        assert main([*self._E8, "--store", str(store), "--resume"]) == 0
        assert "durable_releases_per_sec" in capsys.readouterr().out

    def test_store_only_applies_to_e8(self, capsys, tmp_path):
        code = main(["experiment", "e1", "--size", "6", "--users", "6", "--horizon", "8",
                     "--store", str(tmp_path / "run.sqlite")])
        assert code == 1
        assert "only apply to e8" in capsys.readouterr().err

    def test_resume_requires_store(self, capsys):
        assert main([*self._E8, "--resume"]) == 1
        assert "--resume requires --store" in capsys.readouterr().err

    def test_store_error_exits_nonzero(self, capsys, tmp_path):
        # Unopenable store path -> StoreError surfaced as exit 1, not a traceback.
        bad = tmp_path / "no" / "such" / "dir" / "run.sqlite"
        assert main([*self._E8, "--store", str(bad)]) == 1
        assert "cannot open" in capsys.readouterr().err


class TestEnginesCommand:
    def test_lists_store_backend(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "store:" in out
        assert "TraceStore schema v" in out
        assert "WAL" in out


class TestQueryCommand:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        from repro.engine import PrivacyEngine
        from repro.geo.grid import GridWorld
        from repro.mobility.synthetic import geolife_like
        from repro.server.pipeline import run_release_rounds_batched

        path = tmp_path_factory.mktemp("query") / "run.sqlite"
        world = GridWorld(6, 6)
        db = geolife_like(world, n_users=8, horizon=6, rng=3)
        engine = PrivacyEngine.from_spec(
            world, mechanism="P-LM", policy="G1", epsilon=1.0
        )
        run_release_rounds_batched(
            world, db, engine, rng=11, shards=2, backend="serial", store=str(path)
        )
        return path

    def test_summary(self, capsys, store_path):
        assert main(["query", "summary", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "rows" in out and "committed_shards" in out

    def test_contact_rate_window(self, capsys, store_path):
        code = main(["query", "contact-rate", "--store", str(store_path),
                     "--window", "0", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "contact_rate" in out and "r0" in out

    def test_flows_true_kind(self, capsys, store_path):
        code = main(["query", "flows", "--store", str(store_path), "--kind", "true"])
        assert code == 0
        assert "transitions" in capsys.readouterr().out

    def test_top_cells_and_trajectory(self, capsys, store_path):
        assert main(["query", "top-cells", "--store", str(store_path), "-k", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4  # header + k
        assert main(["query", "trajectory", "--store", str(store_path),
                     "--user", "0"]) == 0
        assert "check-ins" in capsys.readouterr().out

    def test_epsilon_requires_user(self, capsys, store_path):
        assert main(["query", "epsilon", "--store", str(store_path)]) == 1
        assert "requires --user" in capsys.readouterr().err

    def test_store_and_spec_are_exclusive(self, capsys, store_path, tmp_path):
        assert main(["query", "summary"]) == 1
        assert "exactly one" in capsys.readouterr().err
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        code = main(["query", "summary", "--store", str(store_path),
                     "--engine-spec", str(spec)])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_missing_store_path(self, capsys, tmp_path):
        assert main(["query", "summary", "--store", str(tmp_path / "no.sqlite")]) == 1
        assert "no trace store" in capsys.readouterr().err

    def test_engine_spec_store_reuse(self, capsys, store_path, tmp_path):
        # The spec file that drove a run answers queries about its store.
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "mechanism": {"name": "planar_laplace", "epsilon": 1.0},
            "policy": {"name": "G1"},
            "execution": {"backend": "serial", "shards": 2,
                          "store": str(store_path)},
        }))
        assert main(["query", "summary", "--engine-spec", str(spec)]) == 0
        assert str(store_path) in capsys.readouterr().out

    def test_spec_unknown_key_exits_1(self, capsys, store_path, tmp_path):
        import json

        spec = tmp_path / "typo.json"
        spec.write_text(json.dumps({
            "mechanism": {"name": "planar_laplace", "epsilon": 1.0},
            "policy": {"name": "G1"},
            "execution": {"backend": "serial", "shards": 2, "store_path": str(store_path)},
        }))
        assert main(["query", "summary", "--engine-spec", str(spec)]) == 1
        assert "'store_path'" in capsys.readouterr().err

    def test_spec_without_store_errors(self, capsys, tmp_path):
        import json

        spec = tmp_path / "bare.json"
        spec.write_text(json.dumps({
            "mechanism": {"name": "planar_laplace", "epsilon": 1.0},
            "policy": {"name": "G1"},
        }))
        assert main(["query", "summary", "--engine-spec", str(spec)]) == 1
        assert "no" in capsys.readouterr().err

    def test_finished_sparse_run_answers(self, capsys, tmp_path):
        # Sparse shards do not hold rows at every round; the schedule the
        # run recorded says which rounds each owes, so a finished run
        # answers its whole horizon.
        from repro.engine import PrivacyEngine
        from repro.geo.grid import GridWorld
        from repro.mobility.synthetic import gowalla_like
        from repro.server.pipeline import run_release_rounds_batched

        path = tmp_path / "sparse.sqlite"
        world = GridWorld(10, 10)
        db = gowalla_like(world, n_users=40, rng=3)
        engine = PrivacyEngine.from_spec(
            world, mechanism="P-LM", policy="G1", epsilon=1.0
        )
        run_release_rounds_batched(world, db, engine, rng=5, shards=4, store=str(path))
        assert main(["query", "contact-rate", "--store", str(path)]) == 0
        assert "contact_rate" in capsys.readouterr().out

    def test_unavailable_window_exits_nonzero(self, capsys, store_path):
        # Rounds beyond the run's coverage: DataError -> exit 1 with message.
        code = main(["query", "contact-rate", "--store", str(store_path),
                     "--window", "20", "25"])
        assert code == 1
        assert "error" in capsys.readouterr().err
