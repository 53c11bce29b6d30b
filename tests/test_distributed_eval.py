"""Distributed evaluation: shard/backend invariance, backend lifecycle."""

import numpy as np
import pytest

from repro.adversary.metrics import (
    adversary_error,
    expected_inference_error,
    utility_error,
)
from repro.engine import (
    EngineRef,
    PoolBackend,
    PrivacyEngine,
    backend_names,
    ensure_backend,
    owned_backend,
    register_backend,
)
from repro.engine.backends import ExecutionBackend, SerialBackend
from repro.engine.engine import _ENGINE_CACHE
from repro.epidemic.monitor import monitoring_utility
from repro.errors import DataError, ValidationError
from repro.experiments.configs import build_mechanism, build_policy
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like

#: every backend registered at collection time — the invariance contract
#: must hold for all of them, including the long-lived pool.
BACKENDS = backend_names()
SHARD_COUNTS = [1, 2, 5, 7]


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=7, horizon=8, rng=1)


@pytest.fixture(scope="module")
def mechanism(world):
    return build_mechanism("P-LM", world, build_policy("G1", world), 1.0)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


class TestShardInvariance:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_monitoring_bit_identical(self, world, db, engine, mechanism, backend, shards):
        reference = monitoring_utility(world, mechanism, db, rng=42, shards=1)
        report = monitoring_utility(
            world, engine, db, rng=42, shards=shards, backend=backend
        )
        # Exact equality of every float: the merge is bit-exact, and the
        # EngineRef-rebuilt engine must draw the live mechanism's stream.
        assert report == reference

    @pytest.mark.parametrize(
        "metric", [utility_error, adversary_error, expected_inference_error]
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trial_metrics_bit_identical(self, world, engine, mechanism, metric, backend):
        cells = [0, 3, 3, 7, 11, 11, 11, 20, 35]  # duplicates are fine: slots key the plan
        reference = metric(world, mechanism, cells, rng=9, trials_per_cell=2, shards=1)
        for shards in SHARD_COUNTS:
            value = metric(
                world, engine, cells, rng=9, trials_per_cell=2,
                shards=shards, backend=backend,
            )
            assert value == reference, (metric.__name__, backend, shards)

    def test_scalar_reference_matches_batched(self, world, db, mechanism):
        batched = monitoring_utility(world, mechanism, db, rng=5, shards=3)
        scalar = monitoring_utility(world, mechanism, db, rng=5, shards=3, batched=False)
        assert scalar.n_releases == batched.n_releases
        assert scalar.area_accuracy == batched.area_accuracy
        assert scalar.flow_l1_error == batched.flow_l1_error
        assert scalar.mean_euclidean_error == pytest.approx(
            batched.mean_euclidean_error, rel=1e-12
        )
        for metric in (utility_error, adversary_error, expected_inference_error):
            cells = [1, 4, 9, 16, 25]
            fast = metric(world, mechanism, cells, rng=2, trials_per_cell=3, shards=2)
            slow = metric(
                world, mechanism, cells, rng=2, trials_per_cell=3, shards=2, batched=False
            )
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_backend_only_request_defaults_to_one_shard(self, world, db, mechanism):
        reference = monitoring_utility(world, mechanism, db, rng=4, shards=1)
        assert monitoring_utility(world, mechanism, db, rng=4, backend="serial") == reference

    def test_unsharded_equals_one_shard(self, world, db, mechanism):
        # One layout: without shards= / backend= the evaluator is the
        # one-shard serial run, per-user streams and all.
        assert monitoring_utility(world, mechanism, db, rng=4) == monitoring_utility(
            world, mechanism, db, rng=4, shards=1
        )
        cells = [1, 2, 3, 3]
        for metric in (utility_error, adversary_error, expected_inference_error):
            assert metric(world, mechanism, cells, rng=0, trials_per_cell=2) == metric(
                world, mechanism, cells, rng=0, trials_per_cell=2, shards=1
            )


def _boom(task):
    raise RuntimeError(f"shard {task} exploded")


def _identity(task):
    return np.array([float(task)])


class _RecordingSerial(SerialBackend):
    """Serial backend whose close() calls are observable."""

    instances: list = []

    def __init__(self):
        self.closed = False
        _RecordingSerial.instances.append(self)

    def close(self):
        self.closed = True


class TestLifecycle:
    def test_owned_backend_closed_on_failure(self):
        register_backend("recording_serial", _RecordingSerial)
        _RecordingSerial.instances.clear()
        with pytest.raises(RuntimeError, match="exploded"):
            with owned_backend("recording_serial") as live:
                live.run(_boom, [1, 2, 3])
        assert len(_RecordingSerial.instances) == 1
        assert _RecordingSerial.instances[0].closed

    def test_live_backend_left_open(self):
        backend = _RecordingSerial()
        with owned_backend(backend) as live:
            results = live.run(_identity, [1, 2])
        assert np.concatenate(results).tolist() == [1.0, 2.0]
        assert not backend.closed

    def test_failing_shard_in_harness_run_closes_pool(self, world, engine):
        # A deliberately failing shard inside the full release pipeline: the
        # error must propagate cleanly (no hang) and the owned pool must be
        # closed behind it.
        from repro.mobility.trajectory import TraceDB
        from repro.server.pipeline import run_release_rounds_batched

        closed = []

        class _ClosingPool(PoolBackend):
            def __init__(self):
                super().__init__(max_workers=2)

            def close(self):
                closed.append(True)
                super().close()

        register_backend("closing_pool", _ClosingPool)
        bad_db = TraceDB()
        bad_db.record(1, 0, 3)
        bad_db.record(2, 0, -7)  # invalid cell: the shard's release raises
        with pytest.raises(Exception):
            run_release_rounds_batched(
                world, bad_db, engine, rng=0, shards=2, backend="closing_pool"
            )
        assert closed == [True]

    def test_pool_survives_failing_task_and_stays_usable(self):
        with PoolBackend(max_workers=2) as pool:
            with pytest.raises(RuntimeError, match="exploded"):
                pool.run(_boom, [1, 2])
            assert np.concatenate(pool.run(_identity, [3, 4])).tolist() == [3.0, 4.0]

    def test_pool_close_releases_and_reopens_lazily(self):
        pool = PoolBackend(max_workers=1)
        assert pool.run(_identity, [1])[0].tolist() == [1.0]
        assert pool._executor is not None
        pool.close()
        assert pool._executor is None
        pool.close()  # idempotent
        # Next use lazily re-creates the executor.
        assert pool.run(_identity, [2])[0].tolist() == [2.0]
        pool.close()

    def test_pool_registered_with_aliases(self):
        assert "pool" in backend_names()
        backend = ensure_backend("worker_pool", max_workers=1)
        assert isinstance(backend, PoolBackend)
        backend.close()

    def test_run_unordered_default_covers_custom_backends(self):
        class _RunOnly(ExecutionBackend):
            def run(self, fn, tasks):
                return [fn(task) for task in tasks]

        pairs = list(_RunOnly().run_unordered(lambda x: 10 * x, [1, 2, 3]))
        assert pairs == [(0, 10), (1, 20), (2, 30)]

    def test_owned_backend_rejects_params_for_instances(self):
        with pytest.raises(ValidationError):
            with owned_backend(SerialBackend(), max_workers=2):
                pass


class TestEngineRef:
    def test_wrap_passthrough_for_mechanism(self, mechanism):
        assert EngineRef.wrap(mechanism) is mechanism

    def test_wrap_requires_spec(self, world, mechanism):
        specless = PrivacyEngine(world, mechanism.graph, mechanism)
        assert EngineRef.wrap(specless) is specless
        with pytest.raises(ValidationError):
            EngineRef(specless)

    def test_pickle_roundtrip_rebuilds_identical_engine(self, engine):
        import pickle

        ref = EngineRef(engine)
        payload = pickle.dumps(ref)
        # The ref must pickle the spec description, not the engine state.
        assert len(payload) < 2000
        rebuilt = pickle.loads(payload).resolve()
        reference = engine.release_batch([1, 2, 3], rng=11)
        again = rebuilt.release_batch([1, 2, 3], rng=11)
        assert np.array_equal(reference.points, again.points)

    def test_resolve_caches_by_spec_hash(self, engine):
        import pickle

        first = pickle.loads(pickle.dumps(EngineRef(engine)))
        second = pickle.loads(pickle.dumps(EngineRef(engine)))
        assert first.spec_hash == second.spec_hash
        resolved = first.resolve()
        assert second.resolve() is resolved
        assert first.spec_hash in _ENGINE_CACHE

    def test_live_engine_not_rebuilt_in_process(self, engine):
        assert EngineRef(engine).resolve() is engine


class TestServerStreaming:
    def test_ingest_shard_matches_client_reference(self, world, db, engine):
        from repro.engine import ShardPlan, stream_shard_releases
        from repro.server.pipeline import Server, run_release_rounds

        plan = ShardPlan.build(sorted(db.users()), 3, rng=8)
        reference, _ = run_release_rounds(
            world, db, engine.policy, lambda *_: engine.mechanism, epsilon=1.0, rng=8
        )
        streaming = Server(world)
        for users, times, batch in stream_shard_releases(engine, db, plan, backend="serial"):
            streaming.ingest_shard(users, times, batch)
        assert list(streaming.released_db.checkins()) == list(reference.released_db.checkins())
        for user in db.users():
            assert streaming.ledger.spent(user) == reference.ledger.spent(user)

    def test_ingest_shard_commits_time_user_ordered(self, world, engine):
        from repro.core.mechanisms.base import ReleaseBatch
        from repro.server.pipeline import Server

        server = Server(world)
        batch = engine.release_batch([3, 4, 5], rng=0)
        # Rows arrive unsorted; commit order must be (time, user).
        server.ingest_shard([9, 2, 9], [1, 1, 0], batch)
        entries = [(entry.time, entry.user) for entry in server.ledger.entries]
        assert entries == [(0, 9), (1, 2), (1, 9)]

    def test_ingest_shard_length_mismatch_rejected(self, world, engine):
        from repro.server.pipeline import Server

        batch = engine.release_batch([3, 4], rng=0)
        with pytest.raises(DataError):
            Server(world).ingest_shard([1], [0, 1], batch)

    def test_stream_covers_plan_and_is_backend_invariant(self, world, db, engine):
        from repro.engine import ShardPlan, stream_shard_releases

        plan = ShardPlan.build(sorted(db.users()), 4, rng=2)
        collected = {}
        for backend in ("serial", "pool"):
            rows = []
            for users, times, batch in stream_shard_releases(engine, db, plan, backend=backend):
                rows.extend(
                    zip(users.tolist(), times.tolist(), map(tuple, batch.points.tolist()))
                )
            collected[backend] = sorted(rows)
        assert collected["serial"] == collected["pool"]
        assert len(collected["serial"]) == len(db)


class TestHarnessIntegration:
    def test_e8_gains_eval_columns(self):
        from repro.experiments.configs import ExperimentConfig
        from repro.experiments.harness import run_scalability

        config = ExperimentConfig(
            world_size=6, n_users=6, horizon=8,
            shard_counts=(1, 2), backends=("serial", "pool"),
        )
        table = run_scalability(config)
        assert len(table.rows) == 4
        assert all(table.column("matches_serial"))
        assert all(table.column("eval_matches_serial"))
        assert all(seconds > 0 for seconds in table.column("eval_seconds"))

    @pytest.mark.parametrize("runner", ["E1", "E2", "E3", "E4", "E5", "E11"])
    def test_runner_tables_equal(self, runner):
        # The default config, one explicit shard, and three serial shards
        # all score the same per-key streams, so the tables are equal.
        import dataclasses

        from repro.experiments import harness
        from repro.experiments.configs import ExperimentConfig

        run = {
            "E1": harness.run_monitoring_utility,
            "E2": harness.run_r0_estimation,
            "E3": harness.run_contact_tracing,
            "E4": harness.run_adversary_error,
            "E5": harness.run_random_policy_tradeoff,
            "E11": harness.run_metapop_forecast,
        }[runner]
        base = ExperimentConfig(
            world_size=8, n_users=5, horizon=6,
            policies=("G1",), mechanisms=("P-LM",), epsilons=(1.0,),
        )
        default = run(base)
        one = run(dataclasses.replace(base, eval_shards=1))
        many = run(dataclasses.replace(base, eval_shards=3, eval_backend="serial"))
        assert default.rows == one.rows == many.rows

    def test_cli_routes_shards_to_eval_for_non_e8(self):
        from repro.cli import main

        assert (
            main(
                [
                    "experiment", "e4", "--size", "6", "--users", "5",
                    "--horizon", "6", "--epsilons", "1.0",
                    "--shards", "2", "--backend", "pool",
                ]
            )
            == 0
        )
