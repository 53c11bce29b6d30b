"""Kill-resume recovery: the headline guarantee of the durable store.

A store-backed sharded run that dies mid-flight — up to and including
``kill -9``, which skips every ``finally`` block and flushes nothing —
must resume from the SQLite store and finish **bit-identical** to the
uninterrupted seeded run.  This file proves that three ways:

* a real subprocess ``SIGKILL`` matrix over every execution backend
  (serial / pool), polling the WAL store read-only
  from the parent until enough shards have committed to make the kill
  land mid-run;
* a Hypothesis property: for *any* committed prefix (any subset of
  shards, in any order), resuming yields the reference run element-wise;
* a re-execution audit: resuming a finished run re-derives zero shards,
  and a half-committed run re-derives exactly the missing ones.

Plus the same equality through the out-of-core (``StoredTraceDB``-backed)
server.
"""

import os
import re
import signal
import sqlite3
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import PrivacyEngine, backend_names
from repro.engine.sharding import ShardPlan, stream_shard_releases
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.live_metrics import expected_coverage
from repro.server.pipeline import Server, run_release_rounds_batched
from repro.store import RunManifest, TraceStore

SRC = Path(__file__).resolve().parent.parent / "src"

N_USERS = 16
HORIZON = 8
N_SHARDS = 8
RNG = 11


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=N_USERS, horizon=HORIZON, rng=3)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


@pytest.fixture(scope="module")
def reference(world, db, engine):
    """The uninterrupted in-memory run every resumed run must reproduce."""
    return run_release_rounds_batched(world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial")


#: The accelerator's rows, each in key order: the bytes a resume must rebuild.
ACCELERATOR_SQL = (
    "SELECT kind, time, cells, flows FROM round_blocks ORDER BY kind, time",
    "SELECT * FROM user_summary ORDER BY user",
)


def _accelerator_rows(store):
    return [store.connection.execute(sql).fetchall() for sql in ACCELERATOR_SQL]


@pytest.fixture(scope="module")
def uninterrupted(world, db, engine):
    """The accelerator rows of a never-killed store-backed run."""
    with TraceStore(":memory:") as store:
        run_release_rounds_batched(
            world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial", store=store
        )
        return _accelerator_rows(store)


def _state(server):
    """(sorted checkins, per-user ledger) — the full observable output."""
    checkins = sorted((c.time, c.user, c.cell) for c in server.released_db.checkins())
    ledger = {u: server.ledger.spent(u) for u in server.released_db.users()}
    return checkins, ledger


def _assert_matches(server, reference):
    got_checkins, got_ledger = _state(server)
    want_checkins, want_ledger = _state(reference)
    assert got_checkins == want_checkins
    assert got_ledger == want_ledger  # exact float equality: same op order


# ----------------------------------------------------------------------
# kill -9 subprocess matrix
# ----------------------------------------------------------------------

_CHILD_TEMPLATE = textwrap.dedent(
    """
    import sys, time

    from repro.engine import PrivacyEngine
    from repro.geo.grid import GridWorld
    from repro.mobility.synthetic import geolife_like
    from repro.server.pipeline import Server, run_release_rounds_batched

    store_path, backend = sys.argv[1], sys.argv[2]
    world = GridWorld(6, 6)
    db = geolife_like(world, n_users={n_users}, horizon={horizon}, rng=3)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)

    # Stretch each shard commit so the parent's SIGKILL lands mid-run.
    _ingest = Server.ingest_shard
    def slow_ingest(self, *args, **kwargs):
        result = _ingest(self, *args, **kwargs)
        time.sleep(0.25)
        return result
    Server.ingest_shard = slow_ingest

    run_release_rounds_batched(
        world, db, engine, rng={rng}, shards={n_shards}, backend=backend,
        store=store_path, live_metrics={live_metrics},
    )
    print("DONE", flush=True)
    """
)

_CHILD = _CHILD_TEMPLATE.format(
    n_users=N_USERS, horizon=HORIZON, rng=RNG, n_shards=N_SHARDS, live_metrics=False
)
_CHILD_LIVE = _CHILD_TEMPLATE.format(
    n_users=N_USERS, horizon=HORIZON, rng=RNG, n_shards=N_SHARDS, live_metrics=True
)


def _committed_shards(path):
    """Distinct committed shards, polled read-only against the live WAL."""
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=5.0)
    except sqlite3.Error:
        return 0
    try:
        return conn.execute("SELECT COUNT(DISTINCT shard) FROM shard_commits").fetchone()[0]
    except sqlite3.Error:
        return 0
    finally:
        conn.close()


@pytest.mark.parametrize("backend", backend_names())
def test_sigkill_mid_run_then_resume_is_bit_identical(
    backend, world, db, engine, reference, uninterrupted, tmp_path
):
    store_path = tmp_path / f"killed-{backend}.sqlite"
    child = tmp_path / "child.py"
    child.write_text(_CHILD)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # New session so SIGKILL reaches the whole group: the pool backend
    # starts workers that would otherwise outlive the parent and
    # keep the stdout/stderr pipes open forever.
    proc = subprocess.Popen(
        [sys.executable, str(child), str(store_path), backend],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if _committed_shards(store_path) >= 2:
                break
            time.sleep(0.01)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test bug
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if "DONE" in stdout:  # pragma: no cover - kill raced a (slowed) full run
        pytest.skip(f"child outran the kill on this host: {stderr[-500:]}")
    assert proc.returncode == -signal.SIGKILL, stderr[-2000:]

    # The store must hold a real torn prefix: some commits, not all.
    with TraceStore(store_path) as store:
        committed = store.committed()
    plan = ShardPlan.build(sorted(db.users()), N_SHARDS, rng=RNG)
    expected = {
        (shard, checkin.time)
        for shard, shard_users, _ in plan.iter_shards()
        for user in shard_users
        for checkin in db.user_history(user)
    }
    assert committed, "child was killed before any shard committed"
    assert committed < expected, "child was killed only after finishing"

    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend=backend,
        store=str(store_path), resume=True,
    )
    _assert_matches(server, reference)

    # And the store itself now holds every pair, and the accelerator rows
    # the resume re-parked and wrote equal a never-killed store's.
    with TraceStore(store_path) as store:
        assert store.committed() == expected
        assert _accelerator_rows(store) == uninterrupted


# ----------------------------------------------------------------------
# any committed prefix resumes to the reference (property)
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    prefix=st.sets(st.integers(min_value=0, max_value=N_SHARDS - 1)),
    reopen=st.booleans(),
)
def test_any_committed_prefix_resumes_to_reference(
    world, db, engine, reference, uninterrupted, prefix, reopen
):
    plan = ShardPlan.build(sorted(db.users()), N_SHARDS, rng=RNG)
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "crashed.sqlite")
        # Simulate a crashed run: manifest recorded, only `prefix` committed.
        # Reopened, the writer is gone with whatever it held in memory;
        # otherwise the resume runs on the store that committed the prefix.
        store = TraceStore(path)
        store.begin_run(
            RunManifest.for_run(engine, plan, world), expected_coverage(plan, db)
        )
        committer = Server(world, store=store)
        for users, times, batch in stream_shard_releases(
            engine, db, plan, only_shards=frozenset(prefix)
        ):
            committer.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
        if reopen:
            store.close()
            store = TraceStore(path)
        with store:
            server = run_release_rounds_batched(
                world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial",
                store=store, resume=True,
            )
            _assert_matches(server, reference)
            assert _accelerator_rows(store) == uninterrupted


# ----------------------------------------------------------------------
# resume re-derives exactly the missing shards
# ----------------------------------------------------------------------


def _counting_execute(monkeypatch):
    import repro.engine.sharding as sharding

    calls = []
    real = sharding._execute_shard

    def counted(task):
        calls.append(task.rows.shard)
        return real(task)

    monkeypatch.setattr(sharding, "_execute_shard", counted)
    return calls


def test_resume_of_finished_run_executes_zero_shards(
    world, db, engine, reference, tmp_path, monkeypatch
):
    path = str(tmp_path / "full.sqlite")
    run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial", store=path
    )
    calls = _counting_execute(monkeypatch)
    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial",
        store=path, resume=True,
    )
    assert calls == []  # pure replay, no re-derivation
    _assert_matches(server, reference)


def test_resume_re_executes_only_missing_shards(world, db, engine, reference, tmp_path):
    path = tmp_path / "half.sqlite"
    plan = ShardPlan.build(sorted(db.users()), N_SHARDS, rng=RNG)
    done = frozenset(range(0, N_SHARDS, 2))
    with TraceStore(path) as store:
        store.begin_run(
            RunManifest.for_run(engine, plan, world), expected_coverage(plan, db)
        )
        committer = Server(world, store=store)
        for users, times, batch in stream_shard_releases(engine, db, plan, only_shards=done):
            committer.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_execute(mp)
        server = run_release_rounds_batched(
            world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial",
            store=str(path), resume=True,
        )
    assert sorted(calls) == sorted(set(range(N_SHARDS)) - done)
    _assert_matches(server, reference)


# ----------------------------------------------------------------------
# the same audit under the pool backend
# ----------------------------------------------------------------------

# The in-process `_counting_execute` hook cannot observe pool execution (the
# patched closure never crosses the process boundary), so the pool audit
# records one level up: `only_shards`, the exact work-set the pipeline hands
# to `stream_shard_releases` — which the pool workers then execute verbatim.


def _recording_stream(monkeypatch):
    import repro.engine.sharding as sharding

    streamed = []
    real = sharding.stream_shard_releases

    def recording(engine, true_db, plan, backend="serial", only_shards=None):
        streamed.append(None if only_shards is None else frozenset(only_shards))
        return real(engine, true_db, plan, backend=backend, only_shards=only_shards)

    monkeypatch.setattr(sharding, "stream_shard_releases", recording)
    return streamed


def test_pool_resume_of_finished_run_streams_nothing(
    world, db, engine, reference, tmp_path, monkeypatch
):
    # Zero re-derivation: resuming a fully committed run under the pool must
    # not even start its workers — every shard is replayed from the store.
    path = str(tmp_path / "full-pool.sqlite")
    run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial", store=path
    )
    streamed = _recording_stream(monkeypatch)
    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="pool",
        store=path, resume=True,
    )
    assert streamed == []  # pure replay: no stream, no workers
    _assert_matches(server, reference)


def test_pool_resume_streams_exactly_the_missing_shards(
    world, db, engine, reference, tmp_path, monkeypatch
):
    path = tmp_path / "half-pool.sqlite"
    plan = ShardPlan.build(sorted(db.users()), N_SHARDS, rng=RNG)
    done = frozenset(range(0, N_SHARDS, 2))
    with TraceStore(path) as store:
        store.begin_run(
            RunManifest.for_run(engine, plan, world), expected_coverage(plan, db)
        )
        committer = Server(world, store=store)
        for users, times, batch in stream_shard_releases(engine, db, plan, only_shards=done):
            committer.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
    streamed = _recording_stream(monkeypatch)
    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="pool",
        store=str(path), resume=True,
    )
    assert streamed == [frozenset(range(N_SHARDS)) - done]
    _assert_matches(server, reference)


# ----------------------------------------------------------------------
# resume through the out-of-core server
# ----------------------------------------------------------------------


def _interrupt(world, db, engine, path, shards_done):
    """Leave `path` looking like a run killed after `shards_done` commits."""
    plan = ShardPlan.build(sorted(db.users()), N_SHARDS, rng=RNG)
    with TraceStore(path) as store:
        store.begin_run(
            RunManifest.for_run(engine, plan, world), expected_coverage(plan, db)
        )
        committer = Server(world, store=store)
        for users, times, batch in stream_shard_releases(
            engine, db, plan, only_shards=frozenset(range(shards_done))
        ):
            committer.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))


def test_out_of_core_resume_matches_reference(world, db, engine, reference, tmp_path):
    path = str(tmp_path / "ooc.sqlite")
    _interrupt(world, db, engine, path, shards_done=5)
    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial",
        store=path, resume=True, out_of_core=True,
    )
    try:
        _assert_matches(server, reference)
    finally:
        server.store.close()


def test_resume_with_different_backend_is_legal_and_identical(
    world, db, engine, reference, tmp_path
):
    # Run control (backend) is not part of the run identity: a run started
    # serially may finish under the pool backend.
    path = str(tmp_path / "switch.sqlite")
    _interrupt(world, db, engine, path, shards_done=4)
    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="pool",
        store=path, resume=True,
    )
    _assert_matches(server, reference)


# ----------------------------------------------------------------------
# live metric views across kill and resume
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_reference(world, db, engine):
    """The never-killed live run: every resumed registry must equal it."""
    return run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial",
        live_metrics=True,
    )


def _assert_live_matches(server, live_reference):
    assert server.metrics.rounds == live_reference.metrics.rounds
    assert server.metrics.frozen_rounds == server.metrics.rounds
    for r in live_reference.metrics.rounds:
        # Exact == on the finalized values: floats bitwise, Counters exact.
        assert dict(server.metrics_at(r)) == dict(live_reference.metrics_at(r))


def test_resume_rebuilds_live_metrics_equal_to_uninterrupted(
    world, db, engine, reference, live_reference, tmp_path
):
    # The torn run committed some shards durably; the resumed run folds the
    # replayed shards (store rows + ground-truth lookups) plus the freshly
    # re-derived ones, and every snapshot must equal the never-interrupted
    # registry's — the fold cannot tell replay from live commit.
    path = str(tmp_path / "live.sqlite")
    _interrupt(world, db, engine, path, shards_done=4)
    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="serial",
        store=path, resume=True, live_metrics=True,
    )
    _assert_matches(server, reference)
    _assert_live_matches(server, live_reference)


def test_sigkill_mid_run_then_resume_rebuilds_live_metrics(
    world, db, engine, reference, live_reference, uninterrupted, tmp_path
):
    # The real thing: a live-metrics run killed with SIGKILL mid-commit,
    # resumed with the views attached again, on another backend.  (The full
    # backend kill matrix runs above without views; one cell re-runs it with
    # them.)
    store_path = tmp_path / "killed-live.sqlite"
    child = tmp_path / "child_live.py"
    child.write_text(_CHILD_LIVE)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, str(child), str(store_path), "serial"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if _committed_shards(store_path) >= 2:
                break
            time.sleep(0.01)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test bug
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if "DONE" in stdout:  # pragma: no cover - kill raced a (slowed) full run
        pytest.skip(f"child outran the kill on this host: {stderr[-500:]}")
    assert proc.returncode == -signal.SIGKILL, stderr[-2000:]

    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=N_SHARDS, backend="pool",
        store=str(store_path), resume=True, live_metrics=True,
    )
    _assert_matches(server, reference)
    _assert_live_matches(server, live_reference)
    with TraceStore(store_path) as store:
        assert _accelerator_rows(store) == uninterrupted


def test_half_committed_round_raises_snapshot_unavailable(world, db, engine):
    # A store-backed server whose run is still torn: querying any round
    # that a missing shard owns rows for must fail loudly, naming the
    # shards the freeze is waiting on — never serve a partial value.
    from repro.errors import SnapshotUnavailableError
    from repro.server.live_metrics import default_views

    plan = ShardPlan.build(sorted(db.users()), N_SHARDS, rng=RNG)
    done = frozenset(range(3))
    with TraceStore(":memory:") as store:
        store.begin_run(
            RunManifest.for_run(engine, plan, world), expected_coverage(plan, db)
        )
        server = Server(world, store=store)
        server.attach_metrics(default_views(world), expected_coverage(plan, db))
        for users, times, batch in stream_shard_releases(
            engine, db, plan, only_shards=done
        ):
            server.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
        missing = sorted(set(range(N_SHARDS)) - done)
        with pytest.raises(SnapshotUnavailableError, match=re.escape(str(missing))):
            server.metrics_at(0)
        with pytest.raises(SnapshotUnavailableError, match="not frozen yet"):
            server.metrics_at(HORIZON - 1)
