"""Sharded release rounds: plan stability, backends, determinism contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mechanisms import Mechanism
from repro.engine import (
    EngineSpec,
    ExecutionSpec,
    PrivacyEngine,
    ShardPlan,
    backend_names,
    ensure_backend,
    register_backend,
    resolve_backend,
    resolve_policy,
    stream_shard_releases,
)
from repro.engine.backends import ExecutionBackend, PoolBackend, SerialBackend
from repro.engine.sharding import _shard_tasks, shard_rows
from repro.errors import DataError, StoreError, ValidationError
from repro.experiments.configs import ExperimentConfig
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB
from repro.server.live_metrics import expected_coverage
from repro.server.pipeline import run_release_rounds, run_release_rounds_batched
from repro.store import TraceStore

#: Every registered backend.
BACKENDS = backend_names()

#: Names of deleted backends: each is now an unknown registry name.
REMOVED_BACKEND_NAMES = ["process", "thread", "threads", "threadpool", "rpc", "socket", "tcp"]

#: Every first-party mechanism, by canonical registry name.
MECHANISMS = [
    "planar_laplace",
    "planar_isotropic",
    "graph_exponential",
    "geo_indistinguishability",
    "optimal_lp",
]

#: Policy parameters: this Gc isolates (discloses) two of the cells the
#: ``db`` fixture visits most, so its runs mix exact and noisy rows.
POLICY_PARAMS = {"G1": {}, "Gc": {"infected": [5, 34]}}


class _ScalarOnlyMechanism(Mechanism):
    """A mechanism with only the scalar hooks and no ``uniform_width``.

    The base class loops ``_perturb`` as its batch kernel, so a shard's
    ``release_batch(streams=)`` runs that kernel once per user stream.
    Normal draws consume a data-dependent amount of each stream, which only
    that per-stream call keeps intact.
    """

    def _perturb(self, cell, rng):
        return np.asarray(self.world.coords(cell)) + rng.normal(scale=1 / self.epsilon, size=2)

    def _pdf(self, point, cell):
        raise NotImplementedError


@pytest.fixture
def world():
    return GridWorld(6, 6)


@pytest.fixture
def db(world):
    return geolife_like(world, n_users=7, horizon=9, rng=1)


@pytest.fixture
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


class TestShardPlan:
    def test_build_sorts_and_dedupes(self):
        plan = ShardPlan.build([5, 3, 9, 3], n_shards=2, rng=0)
        assert plan.users == (3, 5, 9)
        assert len(plan.seeds) == 3

    def test_same_seed_same_plan_across_runs(self):
        first = ShardPlan.build(range(10), 3, rng=7)
        second = ShardPlan.build(range(10), 3, rng=7)
        assert first == second
        assert first.assignment() == second.assignment()

    def test_seeds_independent_of_shard_count(self):
        # The user -> stream mapping must not move when re-sharding; this is
        # what makes k-shard output equal 1-shard output.
        users = [4, 1, 8, 2, 6]
        seeds = {k: ShardPlan.build(users, k, rng=3).seeds for k in (1, 2, 5, 9)}
        assert len(set(seeds.values())) == 1

    def test_assignment_contiguous_and_balanced(self):
        plan = ShardPlan.build(range(11), 3, rng=0)
        assignment = plan.assignment()
        sizes = [len(plan.shard_members(s)) for s in range(3)]
        assert sum(sizes) == 11
        assert max(sizes) - min(sizes) <= 1
        # Contiguous blocks of the sorted user list, in shard order.
        assert [assignment[u] for u in plan.users] == sorted(assignment[u] for u in plan.users)
        joined = sum((plan.shard_members(s) for s in range(3)), ())
        assert joined == plan.users

    def test_shard_of_matches_assignment(self):
        plan = ShardPlan.build(range(8), 3, rng=2)
        for user, shard in plan.assignment().items():
            assert plan.shard_of(user) == shard

    def test_more_shards_than_users(self):
        plan = ShardPlan.build([1, 2], 5, rng=0)
        members = [plan.shard_members(s) for s in range(5)]
        assert sum(len(m) for m in members) == 2
        assert [shard for shard, _, _ in plan.iter_shards()] == [0, 1]

    def test_rng_for_is_fresh_each_call(self):
        plan = ShardPlan.build([1, 2, 3], 2, rng=5)
        a = plan.rng_for(2).random(4)
        b = plan.rng_for(2).random(4)
        assert np.array_equal(a, b)

    def test_unknown_user_rejected(self):
        plan = ShardPlan.build([1, 2, 3], 2, rng=0)
        with pytest.raises(DataError):
            plan.shard_of(99)
        with pytest.raises(DataError):
            plan.seed_of(0)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValidationError):
            ShardPlan.build([1, 2], 0, rng=0)
        plan = ShardPlan.build([1, 2], 2, rng=0)
        with pytest.raises(ValidationError):
            plan.shard_members(2)

    def test_matches_spawn_rngs_streams(self):
        # The plan's per-user streams are exactly spawn_rngs' child streams
        # over the sorted user list — the Client reference's layout.
        from repro.utils.rng import spawn_rngs

        users = [3, 1, 2]
        plan = ShardPlan.build(users, 2, rng=11)
        children = spawn_rngs(11, 3)
        for user, child in zip(sorted(users), children):
            assert plan.rng_for(user).random() == child.random()


class TestShardRows:
    """``shard_rows``, the one slicer of the user-major row layout."""

    @settings(deadline=None, max_examples=80)
    @given(
        # user -> the rounds of their rows; an empty list is a user with no
        # rows (a windowed trace), who is planned all the same.
        rounds=st.dictionaries(
            st.integers(0, 60),
            st.lists(st.integers(0, 9), max_size=4, unique=True),
            min_size=1,
            max_size=12,
        ),
        n_shards=st.integers(1, 15),
        only=st.sets(st.integers(0, 15)),
        seed=st.integers(0, 2**32),
        stray=st.integers(0, 61),
    )
    def test_shards_tile_the_rows(self, rounds, n_shards, only, seed, stray):
        rng = np.random.default_rng(seed)
        keys = sorted((user, time) for user, times in rounds.items() for time in times)
        users = np.array([user for user, _ in keys], dtype=np.int64)
        times = np.array([time for _, time in keys], dtype=np.int64)
        cells = rng.integers(0, 36, size=len(keys))
        plan = ShardPlan.build(rounds, n_shards, rng=seed)
        shards = shard_rows(plan, users, times, cells)

        non_empty = [shard for shard in range(n_shards) if plan.shard_members(shard)]
        assert [rows.shard for rows in shards] == non_empty
        for rows in shards:
            assert rows.users == plan.shard_members(rows.shard)
            assert rows.seeds == tuple(plan.seed_of(user) for user in rows.users)
            assert rows.counts.tolist() == [len(rounds[user]) for user in rows.users]
        # Laid end to end in shard order, the shards' rows are the input.
        for column, got in (
            (users, [rows.row_users for rows in shards]),
            (times, [rows.times for rows in shards]),
            (cells, [rows.cells for rows in shards]),
        ):
            assert np.array_equal(np.concatenate(got), column)
        # A row of a user the plan does not hold is refused, wherever it sorts.
        if stray not in rounds:
            at = int(np.searchsorted(users, stray))
            with pytest.raises(DataError, match=f"row user {stray} is not in the shard plan"):
                shard_rows(
                    plan, np.insert(users, at, stray), np.insert(times, at, 0), np.insert(cells, at, 0)
                )

        db = TraceDB()
        db.record_many(users, times, cells)
        if len(db):
            assert expected_coverage(plan, db) == {
                shard: frozenset(t for user in plan.shard_members(shard) for t in rounds[user])
                for shard in non_empty
                if any(rounds[user] for user in plan.shard_members(shard))
            }
            # Release tasks plan the users that have rows, as a run does.
            run_plan = ShardPlan.build(db.users(), n_shards, rng=seed)
            engine = object()
            tasks = _shard_tasks(engine, db, run_plan, only_shards=only)
            assert [task.rows.shard for task in tasks] == [
                shard
                for shard in range(n_shards)
                if run_plan.shard_members(shard) and shard in only
            ]
            assert all(task.engine is engine for task in tasks)


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert {"serial", "pool"} <= set(backend_names())
        assert not set(REMOVED_BACKEND_NAMES) & set(backend_names())

    def test_resolve_aliases_case_insensitive(self):
        assert resolve_backend("SYNC")[0] == "serial"
        assert resolve_backend("worker_pool")[0] == "pool"
        assert resolve_backend("inline")[0] == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            resolve_backend("gpu")

    @pytest.mark.parametrize("name", [*REMOVED_BACKEND_NAMES, "processes", "multiprocess"])
    def test_removed_process_backend_names_pool(self, name):
        # Removed backends are unknown names: the error lists what remains.
        for refuse in (resolve_backend, ensure_backend):
            with pytest.raises(ValidationError) as refused:
                refuse(name)
            _assert_lists_remaining_backends(refused.value)

    def test_saved_spec_naming_process_fails_to_build(self):
        for name in REMOVED_BACKEND_NAMES:
            spec = EngineSpec.from_dict(
                {
                    "mechanism": {"name": "P-LM", "epsilon": 1.0},
                    "policy": {"name": "G1"},
                    "execution": {"backend": name, "shards": 2},
                }
            )
            with pytest.raises(ValidationError) as refused:
                spec.execution.build()
            _assert_lists_remaining_backends(refused.value)

    def test_parameter_the_backend_does_not_take_is_named(self):
        # The message names the backend, the unexpected parameter and the
        # accepted ones, read from the constructor's signature.
        with pytest.raises(ValidationError) as refused:
            ensure_backend("pool", workers=2)
        message = str(refused.value)
        assert "'pool'" in message and "['workers']" in message
        assert "['max_workers']" in message

    def test_serial_yields_each_task_as_it_runs(self):
        ran = []
        stream = SerialBackend().run_unordered(lambda task: ran.append(task) or task, [4, 5, 6])
        assert next(stream) == (0, 4)
        assert ran == [4]
        assert list(stream) == [(1, 5), (2, 6)]
        assert ran == [4, 5, 6]

    def test_ensure_backend_coercions(self):
        assert isinstance(ensure_backend(None), SerialBackend)
        assert isinstance(ensure_backend("pool", max_workers=2), PoolBackend)
        live = PoolBackend(max_workers=1)
        assert ensure_backend(live) is live
        with pytest.raises(ValidationError):
            ensure_backend(live, max_workers=2)

    def test_max_workers_validated(self):
        with pytest.raises(ValidationError):
            PoolBackend(max_workers=0)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_run_preserves_task_order(self, name):
        backend = ensure_backend(name, max_workers=2) if name != "serial" else ensure_backend(name)
        assert backend.run(_double, list(range(10))) == [2 * i for i in range(10)]

    def test_register_custom_backend(self, world, db, engine):
        register_backend("reversed_serial", _ReversedSerialBackend, aliases=("rev",))
        assert resolve_backend("rev")[0] == "reversed_serial"
        # A custom backend plugs straight into the sharded pipeline — and
        # cannot change the output, only the schedule.
        reference = run_release_rounds_batched(world, db, engine, rng=4, shards=3)
        custom = run_release_rounds_batched(
            world, db, engine, rng=4, shards=3, backend="reversed_serial"
        )
        assert list(custom.released_db.checkins()) == list(reference.released_db.checkins())


def _double(x):
    return 2 * x


def _assert_lists_remaining_backends(error):
    listed = str(error).split("choose from")[1]
    assert all(f"{name!r}" in listed for name in ("pool", "serial"))
    assert not any(name in listed for name in REMOVED_BACKEND_NAMES)


class _CountingBackend(ExecutionBackend):
    """Serial execution that records how many tasks each run received."""

    name = "counting"

    def __init__(self):
        self.task_counts = []

    def run(self, fn, tasks):
        self.task_counts.append(len(tasks))
        return [fn(task) for task in tasks]


class _ReversedSerialBackend(ExecutionBackend):
    """Runs tasks last-first but still returns results in task order."""

    name = "reversed_serial"

    def run(self, fn, tasks):
        results = {i: fn(task) for i, task in reversed(list(enumerate(tasks)))}
        return [results[i] for i in range(len(tasks))]


class TestShardedDeterminism:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_k_shards_reproduce_single_shard(self, world, db, engine, backend, shards):
        reference = run_release_rounds_batched(world, db, engine, rng=42, shards=1)
        sharded = run_release_rounds_batched(
            world, db, engine, rng=42, shards=shards, backend=backend
        )
        assert list(sharded.released_db.checkins()) == list(reference.released_db.checkins())
        for user in db.users():
            assert sharded.ledger.spent(user) == reference.ledger.spent(user)

    @pytest.mark.parametrize("policy", ["G1", "Gc"])
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_sharded_matches_client_reference(self, world, db, mechanism, policy):
        # The strongest form of the contract: the sharded aggregate view
        # replays the per-client protocol loop exactly (same per-user
        # streams, same mechanism), shard count notwithstanding — for every
        # first-party mechanism, with and without disclosed cells.
        engine = PrivacyEngine.from_spec(
            world, mechanism=mechanism, policy=policy, epsilon=1.0,
            policy_params=POLICY_PARAMS[policy],
        )
        if policy == "Gc" and mechanism != "geo_indistinguishability":  # Geo-I never discloses
            exact = [engine.is_exact(checkin.cell) for checkin in db.checkins()]
            assert any(exact) and not all(exact)
        # Clients share the engine's mechanism: construction is deterministic,
        # and the optimal LP over G1 takes about a second to solve.
        clients_server, _ = run_release_rounds(
            world, db, engine.policy, lambda *_: engine.mechanism, epsilon=1.0, rng=42, window=9
        )
        sharded = run_release_rounds_batched(world, db, engine, rng=42, shards=4)
        assert list(sharded.released_db.checkins()) == list(
            clients_server.released_db.checkins()
        )
        for user in db.users():
            assert sharded.ledger.spent(user) == clients_server.ledger.spent(user)

    @pytest.mark.parametrize("policy", ["G1", "Gc"])
    def test_scalar_only_mechanism_matches_client_reference(self, world, db, policy):
        graph = resolve_policy(policy)[1](world, **POLICY_PARAMS[policy])
        mechanism = _ScalarOnlyMechanism(world, graph, 1.0)
        clients_server, _ = run_release_rounds(
            world, db, graph, lambda *_: mechanism, epsilon=1.0, rng=42, window=9
        )
        sharded = run_release_rounds_batched(
            world, db, PrivacyEngine(world, graph, mechanism), rng=42, shards=4
        )
        assert list(sharded.released_db.checkins()) == list(
            clients_server.released_db.checkins()
        )
        for user in db.users():
            assert sharded.ledger.spent(user) == clients_server.ledger.spent(user)

    def test_discrete_mechanism_sharding(self, world, db):
        engine = PrivacyEngine.from_spec(world, mechanism="GraphExp", policy="Gb", epsilon=1.0)
        reference = run_release_rounds_batched(world, db, engine, rng=6, shards=1)
        sharded = run_release_rounds_batched(world, db, engine, rng=6, shards=3, backend="serial")
        assert list(sharded.released_db.checkins()) == list(reference.released_db.checkins())

    def test_disclosing_policy_sharding(self, world, db):
        # Gc discloses infected cells (epsilon 0 rows) — the merge must keep
        # exact releases and budget charges aligned per user.
        engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="Gc", epsilon=1.0)
        reference = run_release_rounds_batched(world, db, engine, rng=9, shards=1)
        sharded = run_release_rounds_batched(world, db, engine, rng=9, shards=5, backend="pool")
        assert list(sharded.released_db.checkins()) == list(reference.released_db.checkins())
        for user in db.users():
            assert sharded.ledger.spent(user) == reference.ledger.spent(user)

    def test_spec_execution_block_drives_sharding(self, world, db):
        engine = PrivacyEngine.from_spec(
            world, mechanism="P-LM", policy="G1", epsilon=1.0, backend="serial", shards=4
        )
        reference = run_release_rounds_batched(world, db, engine, rng=3, shards=1)
        via_spec = run_release_rounds_batched(world, db, engine, rng=3)  # no explicit args
        assert list(via_spec.released_db.checkins()) == list(reference.released_db.checkins())

    def test_partial_override_keeps_spec_shards(self, world, db):
        # Overriding only the backend must not discard the spec's shard
        # count: the counting backend should see 3 shard tasks, not 1.
        engine = PrivacyEngine.from_spec(
            world, mechanism="P-LM", policy="G1", epsilon=1.0, backend="pool", shards=3
        )
        counting = _CountingBackend()
        run_release_rounds_batched(world, db, engine, rng=1, backend=counting)
        assert counting.task_counts == [3]

    def test_partial_override_keeps_spec_backend(self, world, db):
        # Overriding only the shard count must still build the spec's backend.
        instances = []

        class _Recorder(SerialBackend):
            def __init__(self):
                instances.append(self)

        register_backend("recorder_backend", _Recorder)
        engine = PrivacyEngine.from_spec(
            world, mechanism="P-LM", policy="G1", epsilon=1.0,
            backend="recorder_backend", shards=4,
        )
        run_release_rounds_batched(world, db, engine, rng=1, shards=2)
        assert len(instances) == 1

    @pytest.mark.parametrize(
        "setting", ["shards", "backend", "store", "resume", "live_metrics"]
    )
    def test_explicit_args_override_spec(self, world, db, engine, tmp_path, setting):
        # Every execution setting resolves the same way: the explicit
        # argument, else the spec's execution block, else the default.
        # None means "not given", so an explicit False beats the spec too.
        counting = _CountingBackend()
        register_backend("spec_counting", lambda: counting)
        spec_store = tmp_path / "spec.sqlite"
        block = {
            "shards": dict(backend="spec_counting", shards=8),
            "backend": dict(backend="spec_counting", shards=8),
            "store": dict(store=str(spec_store)),
            "resume": dict(store=str(spec_store), resume=True),
            "live_metrics": dict(live_metrics=True),
        }[setting]
        spec_engine = PrivacyEngine.from_spec(
            world, EngineSpec.named("P-LM", "G1", epsilon=1.0, **block)
        )
        reference = run_release_rounds_batched(world, db, engine, rng=3, shards=1)
        if setting == "shards":
            run = run_release_rounds_batched(world, db, spec_engine, rng=3, shards=2)
            assert counting.task_counts == [2]
        elif setting == "backend":
            run = run_release_rounds_batched(world, db, spec_engine, rng=3, backend="serial")
            assert counting.task_counts == []
        elif setting == "store":
            own_store = tmp_path / "own.sqlite"
            run = run_release_rounds_batched(world, db, spec_engine, rng=3, store=str(own_store))
            with TraceStore(str(own_store)) as store:
                assert len(store) == len(db)
            assert not spec_store.exists()
        elif setting == "resume":
            run_release_rounds_batched(world, db, spec_engine, rng=3)
            # The store now holds a whole run; without resume it must refuse.
            with pytest.raises(StoreError, match="resume=True"):
                run_release_rounds_batched(world, db, spec_engine, rng=3, resume=False)
            return
        else:
            run = run_release_rounds_batched(world, db, spec_engine, rng=3, live_metrics=False)
            assert run.metrics is None
        assert list(run.released_db.checkins()) == list(reference.released_db.checkins())

    @pytest.mark.parametrize("policy", ["G1", "Gc"])
    def test_unsharded_run_is_the_one_shard_run(self, world, db, policy):
        # No shards=, backend= or execution block: one serial shard, so the
        # run equals shards=1 and the per-client reference row for row.
        engine = PrivacyEngine.from_spec(
            world, mechanism="P-LM", policy=policy, epsilon=1.0,
            policy_params=POLICY_PARAMS[policy],
        )
        assert engine.spec.execution is None
        unsharded = run_release_rounds_batched(world, db, engine, rng=42)
        one_shard = run_release_rounds_batched(world, db, engine, rng=42, shards=1)
        clients_server, _ = run_release_rounds(
            world, db, engine.policy, lambda *_: engine.mechanism, epsilon=1.0, rng=42, window=9
        )
        for other in (one_shard, clients_server):
            assert list(unsharded.released_db.checkins()) == list(other.released_db.checkins())
            for user in db.users():
                assert unsharded.ledger.spent(user) == other.ledger.spent(user)


class TestShardCountValidation:
    @pytest.mark.parametrize("count", [2.7, 1.5, 2.0, True, np.float64(2.5)])
    def test_non_int_shard_count_rejected(self, world, db, engine, count):
        # These used to be truncated: 2.7 ran 2 shards and True ran 1.
        with pytest.raises(ValidationError, match="must be an int"):
            ShardPlan.build([1, 2, 3], count, rng=0)
        with pytest.raises(ValidationError, match="must be an int"):
            ExecutionSpec(shards=count)
        with pytest.raises(ValidationError, match="must be an int"):
            EngineSpec.from_dict(
                {
                    "mechanism": {"name": "P-LM"},
                    "policy": {"name": "G1"},
                    "execution": {"shards": count},
                }
            )
        with pytest.raises(ValidationError, match="must be an int"):
            run_release_rounds_batched(world, db, engine, rng=0, shards=count)

    @pytest.mark.parametrize("count", [np.int64(2), np.int32(2)])
    def test_numpy_int_shard_counts_accepted(self, count):
        assert ShardPlan.build([1, 2, 3], count, rng=0).n_shards == 2
        assert ExecutionSpec(shards=count).shards == 2
        assert type(ExecutionSpec(shards=count).shards) is int


class TestShardedRounds:
    def test_plan_must_cover_users(self, world, db, engine):
        plan = ShardPlan.build([1, 2], 2, rng=0)
        with pytest.raises(DataError):
            list(stream_shard_releases(engine, db, plan))

    def test_empty_db_rejected(self, world, engine):
        from repro.mobility.trajectory import TraceDB

        with pytest.raises(DataError):
            run_release_rounds_batched(world, TraceDB(), engine, shards=2)


class TestExecutionSpec:
    def test_roundtrip_with_execution(self):
        # to_dict canonicalizes names, so exact roundtrip equality needs
        # canonical spellings (aliases still roundtrip semantically).
        spec = EngineSpec.named(
            "planar_isotropic", "Gb", epsilon=2.0, backend="pool", shards=4,
            backend_params={"max_workers": 2},
        )
        payload = spec.to_dict()
        assert payload["execution"] == {
            "backend": "pool", "shards": 4, "params": {"max_workers": 2}
        }
        assert EngineSpec.from_dict(payload) == spec
        aliased = EngineSpec.named("P-PIM", "Gb", epsilon=2.0, backend="worker_pool", shards=4)
        assert EngineSpec.from_dict(aliased.to_dict()).to_dict() == aliased.to_dict()

    def test_roundtrip_without_execution(self):
        spec = EngineSpec.named("P-LM", "G1", epsilon=1.0)
        payload = spec.to_dict()
        assert "execution" not in payload
        assert EngineSpec.from_dict(payload).execution is None

    def test_execution_build(self):
        execution = ExecutionSpec(backend="persistent", shards=2, params={"max_workers": 3})
        with execution.build() as backend:
            assert isinstance(backend, PoolBackend)
            assert backend.max_workers == 3
        assert execution.canonical_name == "pool"

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValidationError):
            ExecutionSpec(shards=0)


class TestConfigIntegration:
    def test_with_engine_spec_pins_sweeps(self):
        spec = EngineSpec.named("P-PIM", "Gb", epsilon=2.0, backend="pool", shards=4)
        config = ExperimentConfig().with_engine_spec(spec)
        assert config.mechanisms == ("planar_isotropic",)
        assert config.policies == ("Gb",)
        assert config.epsilons == (2.0,)
        assert config.backends == ("pool",)
        assert config.shard_counts == (1, 4)

    def test_make_engine_prefers_spec(self):
        spec = EngineSpec.named("P-PIM", "Gb", epsilon=2.0)
        config = ExperimentConfig(world_size=6).with_engine_spec(spec)
        engine = config.make_engine()
        assert engine.mechanism.name == "PolicyPlanarIsotropicMechanism"
        assert engine.epsilon == 2.0
        # Explicit overrides still win.
        other = config.make_engine(mechanism="P-LM", epsilon=0.5)
        assert other.mechanism.name == "PolicyLaplaceMechanism"

    def test_e8_runner_all_rows_match(self):
        from repro.experiments.harness import run_scalability

        config = ExperimentConfig(
            world_size=6, n_users=6, horizon=8,
            shard_counts=(1, 3), backends=("serial", "pool"),
        )
        table = run_scalability(config)
        assert len(table.rows) == 4
        assert all(table.column("matches_serial"))
        assert all(seconds > 0 for seconds in table.column("seconds"))
