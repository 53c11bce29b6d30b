"""Store faults a real collector meets: each ends in a typed error, never a torn store.

A shard commit is one SQLite transaction (rows, commit marks, round blocks
and user summaries), so a commit that fails part-way must leave the store
exactly as the last whole commit left it, and the run must be able to go on
once the fault clears.
"""

import pytest

from repro.engine import PrivacyEngine
from repro.engine.sharding import ShardPlan, stream_shard_releases
from repro.errors import StoreError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.live_metrics import expected_coverage
from repro.store import PreparedShard, RunManifest, TraceStore

#: Every table of a store, each in key order.
TABLES = {
    "meta": "SELECT key, value FROM meta ORDER BY key",
    "releases": "SELECT * FROM releases ORDER BY user, time",
    "shard_commits": "SELECT * FROM shard_commits ORDER BY shard, round",
    "run_coverage": "SELECT * FROM run_coverage ORDER BY shard, round",
    "round_blocks": "SELECT kind, time, cells, flows FROM round_blocks ORDER BY kind, time",
    "user_summary": "SELECT * FROM user_summary ORDER BY user",
}


def _tables(store):
    return {name: store.connection.execute(sql).fetchall() for name, sql in TABLES.items()}


@pytest.fixture(scope="module")
def run():
    """Four shards of 10 users x 240 rounds each (2,400 rows per shard).

    Returns the run's manifest, its coverage schedule and its shards.
    """
    world = GridWorld(6, 6)
    db = geolife_like(world, n_users=40, horizon=240, rng=3)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    plan = ShardPlan.build(sorted(db.users()), 4, rng=11)
    parts = [
        (plan.shard_of(int(users[0])), users, times, batch)
        for users, times, batch in stream_shard_releases(engine, db, plan)
    ]
    return (
        RunManifest.for_run(engine, plan, world),
        expected_coverage(plan, db),
        sorted(parts, key=lambda part: part[0]),
    )


@pytest.fixture(scope="module")
def shards(run):
    return run[2]


def _commit(store, part):
    shard, users, times, batch = part
    prepared = PreparedShard.build(
        users, times, batch.cells, batch.points, batch.exact, batch.epsilons, true_cells=batch.cells
    )
    return store.commit_shard(shard, prepared)


class TestDiskFull:
    def test_full_disk_mid_commit_leaves_the_last_whole_shard(self, shards, tmp_path):
        with TraceStore(tmp_path / "whole.sqlite") as whole:
            for part in shards:
                _commit(whole, part)
            uninterrupted = _tables(whole)

        with TraceStore(tmp_path / "full.sqlite") as store:
            _commit(store, shards[0])
            after_shard_0 = _tables(store)
            connection = store.connection
            (pages,) = connection.execute("PRAGMA page_count").fetchone()
            connection.execute(f"PRAGMA max_page_count = {pages + 5}")
            with pytest.raises(
                StoreError,
                match=r"^commit of shard 1 \(2400 rows\) failed: database or disk is full$",
            ):
                _commit(store, shards[1])
            assert _tables(store) == after_shard_0
            assert store.committed() == {(0, time) for time in range(240)}
            assert len(store) == len(shards[0][1])

            connection.execute("PRAGMA max_page_count = 1073741823")
            for part in shards[1:]:
                assert _commit(store, part)
            assert _tables(store) == uninterrupted

    def test_full_disk_in_the_completing_commit_writes_no_block(self, run, tmp_path):
        # In a run, shards 0-2 only park their round-block increments; the
        # commit of shard 3 passes the frontier over every round, so it is
        # the one that writes every block, and the one the disk refuses.
        manifest, schedule, shards = run
        with TraceStore(tmp_path / "whole.sqlite") as whole:
            whole.begin_run(manifest, schedule)
            for part in shards:
                _commit(whole, part)
            uninterrupted = _tables(whole)

        with TraceStore(tmp_path / "full.sqlite") as store:
            store.begin_run(manifest, schedule)
            for part in shards[:3]:
                _commit(store, part)
            before = _tables(store)
            parked = store.parked_pieces()
            assert before["round_blocks"] == [] and parked
            connection = store.connection
            (pages,) = connection.execute("PRAGMA page_count").fetchone()
            connection.execute(f"PRAGMA max_page_count = {pages + 5}")
            with pytest.raises(
                StoreError,
                match=r"^commit of shard 3 \(2400 rows\) failed: database or disk is full$",
            ):
                _commit(store, shards[3])
            assert _tables(store) == before
            assert store.parked_pieces() == parked

            connection.execute("PRAGMA max_page_count = 1073741823")
            assert _commit(store, shards[3])
            assert store.parked_pieces() == {}
            assert _tables(store) == uninterrupted
