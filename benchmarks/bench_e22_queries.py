"""E22 — windowed query surface: accelerator reads vs full-table scans.

PR 10 added ``repro.query``: windowed analytics (contact rate, flow
matrices, top-k hot cells, per-user epsilon spend, trajectories) served
from the accelerator summaries the store maintains inside every
shard-commit transaction (``repro.store.accelerator``: one row of int32
count blocks per kind and round), instead of a full pass over
``releases``.  This benchmark answers the two questions that
decide whether the commit-time maintenance earns its keep:

* **scaling** — per-window cost across population sizes: the accelerator
  bundle (contact rate + flow matrix + top-k over one window, O(distinct
  keys in the window)) against the naive ``repro.query.reference`` full scans (O(rows)), every
  size bit-checked identical across every query type before anything is
  timed.  The gated bundle runs on a fresh ``QueryEngine`` each time, so
  it reads and decodes the window's round blocks; the same bundle repeated
  on one engine, which answers from the rounds it already holds, is
  reported beside it.  The acceptance gates the headline: at the largest
  configured population, the fresh-engine bundle must be >= 10x cheaper.
* **maintenance** — the commits that pay for it: durable shard-ingest
  throughput with the summaries being maintained, for context against the
  E18 durable-ingest numbers.

``benchmarks/run_bench.py`` embeds the same block in ``BENCH_eval.json``;
running this file directly writes the standalone artifact CI uploads::

    PYTHONPATH=src python benchmarks/bench_e22_queries.py --smoke
    PYTHONPATH=src pytest benchmarks/bench_e22_queries.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.engine import PrivacyEngine
from repro.engine.sharding import ShardPlan, stream_shard_releases
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.query import QueryEngine, Window, tumbling_windows
from repro.query import reference
from repro.server.live_metrics import expected_coverage
from repro.server.pipeline import Server
from repro.store import RunManifest, TraceStore

#: Headline acceptance: the accelerator window bundle on a fresh engine >=
#: this factor cheaper than the same answers from full scans at the largest
#: population.
SPEEDUP_FLOOR = 10.0

#: CI-sized workloads shared by ``--smoke`` here and ``run_bench.py --smoke``.
SMOKE_WORKLOAD = {"size": 10, "horizon": 6, "shards": 8, "populations": (250, 1000, 4000)}
FULL_WORKLOAD = {
    "size": 16,
    "horizon": 6,
    "shards": 16,
    "populations": (10_000, 40_000, 100_000),
}

#: The accelerator bundle is sub-millisecond; average repeats per chunk and
#: take the best of several chunks so a GC pause right after the ingest
#: phase cannot masquerade as population-dependent query cost.  The full
#: scans are O(rows), so they get one run per chunk.
QUERY_REPEATS = 50
QUERY_CHUNKS = 5
SCAN_CHUNKS = 3


def _workload(size: int, n_users: int, horizon: int):
    world = GridWorld(size, size)
    db = geolife_like(world, n_users=n_users, horizon=horizon, rng=1)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    return world, db, engine


def _populate(world, db, engine, shards):
    """A ``:memory:`` store fed through the real shard-commit path (timed).

    The run is begun first, with its manifest and coverage schedule, so
    the timed queries pass through the coverage frontier as every
    recorded run's readers do.
    """
    plan = ShardPlan.build(sorted(db.users()), shards, rng=0)
    captured = [
        (plan.shard_of(int(users[0])), users, times, batch)
        for users, times, batch in stream_shard_releases(engine, db, plan)
    ]
    store = TraceStore(":memory:")
    store.begin_run(RunManifest.for_run(engine, plan, world), expected_coverage(plan, db))
    server = Server(world, store=store)
    start = time.perf_counter()
    for shard, users, times, batch in captured:
        server.ingest_shard(users, times, batch, shard=shard)
    return store, time.perf_counter() - start


def _true_resolver(db):
    lookup = {
        (checkin.user, checkin.time): checkin.cell
        for user in db.users()
        for checkin in db.user_history(user)
    }

    def resolve(users, times):
        return np.array(
            [lookup[(int(u), int(t))] for u, t in zip(users, times)], dtype=np.int64
        )

    return resolve


def _bit_check(engine_q: QueryEngine, store, world, db, horizon) -> bool:
    """Every query type equals its full-scan reference, both kinds."""
    resolve = _true_resolver(db)
    users = sorted(store.users())[:3]
    for window in tumbling_windows(0, horizon - 1, max(horizon // 2, 1)):
        for kind, resolver in (("observed", None), ("true", resolve)):
            if engine_q.contact_rate(window, kind=kind) != reference.full_scan_contact_rate(
                store, window, kind=kind, true_resolver=resolver
            ):
                return False
            if engine_q.flow_matrix(window, kind=kind) != reference.full_scan_flow_matrix(
                store, window, world, kind=kind, true_resolver=resolver
            ):
                return False
            # A tiling that divides neither side of the grid: ragged edge areas.
            if engine_q.flow_matrix(
                window, kind=kind, block_rows=3, block_cols=5
            ) != reference.full_scan_flow_matrix(
                store, window, world, kind=kind, true_resolver=resolver,
                block_rows=3, block_cols=5,
            ):
                return False
        if engine_q.top_cells(window, 10) != reference.full_scan_top_cells(
            store, window, 10
        ):
            return False
    for user in users:
        full = Window(0, horizon - 1)
        if engine_q.epsilon_spent(user, full) != reference.full_scan_epsilon_spent(
            store, user, full
        ):
            return False
        if engine_q.trajectory(user) != reference.full_scan_trajectory(store, user):
            return False
    return True


def _bundle(engine_q: QueryEngine, window: Window) -> None:
    """The timed accelerator bundle: one window's worth of analytics."""
    engine_q.contact_rate(window)
    engine_q.flow_matrix(window)
    engine_q.top_cells(window, 10)


def _bundle_seconds(bundle, repeats: int) -> float:
    """Best-of-chunks mean seconds of ``bundle()``."""
    chunk_times = []
    for _ in range(QUERY_CHUNKS):
        start = time.perf_counter()
        for _ in range(repeats):
            bundle()
        chunk_times.append((time.perf_counter() - start) / repeats)
    return min(chunk_times)


def _scan_bundle(store, window: Window, world) -> None:
    """The same answers a reader without the accelerator computes."""
    reference.full_scan_contact_rate(store, window)
    reference.full_scan_flow_matrix(store, window, world)
    reference.full_scan_top_cells(store, window, 10)


def query_scaling_records(
    size: int = 16,
    horizon: int = 6,
    shards: int = 16,
    populations=(10_000, 40_000, 100_000),
    query_repeats: int = QUERY_REPEATS,
) -> list[dict]:
    """Accelerator window bundle vs full-scan bundle per population size.

    The full-scan side is what a reader without the summary tables pays per
    question: one O(rows) pass over ``releases`` per answer.  The
    accelerator side (``query_seconds``) opens a fresh engine on the store
    and reads the window's round blocks — O(distinct keys in the window),
    independent of the stored population once the grid saturates.
    ``warm_query_seconds`` repeats the bundle on one engine, which sums the
    rounds it already holds.  Both are checked bit-identical across every
    query type before anything is timed.
    """
    records = []
    for n_users in populations:
        world, db, engine = _workload(size, n_users, horizon)
        store, ingest_seconds = _populate(world, db, engine, shards)
        engine_q = QueryEngine(store, world=world)
        window = tumbling_windows(0, horizon - 1, max(horizon // 2, 1))[-1]

        matches = _bit_check(engine_q, store, world, db, horizon)

        query_seconds = _bundle_seconds(
            lambda: _bundle(QueryEngine(store, world=world), window), query_repeats
        )
        warm_query_seconds = _bundle_seconds(lambda: _bundle(engine_q, window), query_repeats)

        scan_times = []
        for _ in range(SCAN_CHUNKS):
            start = time.perf_counter()
            _scan_bundle(store, window, world)
            scan_times.append(time.perf_counter() - start)
        full_scan_seconds = min(scan_times)

        records.append(
            {
                "n_users": n_users,
                "rows": len(db),
                "shards": shards,
                "window": [window.start, window.end],
                "matches_reference": matches,
                "query_seconds": round(query_seconds, 9),
                "full_scan_seconds": round(full_scan_seconds, 6),
                "query_speedup": round(full_scan_seconds / max(query_seconds, 1e-12), 1),
                "warm_query_seconds": round(warm_query_seconds, 9),
                "warm_query_speedup": round(
                    full_scan_seconds / max(warm_query_seconds, 1e-12), 1
                ),
                "ingest_seconds": round(ingest_seconds, 6),
                "ingest_rows_per_sec": round(len(db) / max(ingest_seconds, 1e-12), 1),
            }
        )
        store.close()
    return records


def query_surface_block(smoke: bool) -> dict:
    """The E22 payload at either size.

    Single source of truth for both artifacts: ``run_bench.py`` embeds this
    block in ``BENCH_eval.json`` and ``main`` below writes it standalone.
    """
    workload = SMOKE_WORKLOAD if smoke else FULL_WORKLOAD
    records = query_scaling_records(**workload)
    largest = records[-1]
    return {
        "scaling": records,
        "headline": {
            "n_users": largest["n_users"],
            "query_speedup": largest["query_speedup"],
            "warm_query_speedup": largest["warm_query_speedup"],
            "speedup_floor": SPEEDUP_FLOOR,
            "within_floor": largest["query_speedup"] >= SPEEDUP_FLOOR,
            "matches_reference": all(r["matches_reference"] for r in records),
        },
    }


# ----------------------------------------------------------------------
# CI acceptance
# ----------------------------------------------------------------------
def test_query_answers_match_full_scans():
    """Acceptance: every size's accelerator answers equal the scans bitwise."""
    records = query_scaling_records(**SMOKE_WORKLOAD)
    for record in records:
        print(
            f"\nE22: n={record['n_users']} rows={record['rows']} "
            f"matches_reference={record['matches_reference']}"
        )
        assert record["matches_reference"], record


def test_accelerated_queries_beat_full_scans_by_floor():
    """Acceptance: the fresh-engine window bundle >= 10x cheaper at the largest size."""
    records = query_scaling_records(**SMOKE_WORKLOAD)
    largest = records[-1]
    print(
        f"\nE22: n={largest['n_users']} accel (fresh engine) {largest['query_seconds']}s "
        f"vs scan {largest['full_scan_seconds']}s "
        f"({largest['query_speedup']}x, floor {SPEEDUP_FLOOR}x; "
        f"warm engine {largest['warm_query_speedup']}x)"
    )
    assert largest["query_speedup"] >= SPEEDUP_FLOOR, largest


def test_query_cost_does_not_scale_with_population():
    """Acceptance: the accelerator cost stays near-flat while the scans grow.

    A window's round blocks saturate at (distinct cells x window rounds)
    occupancy keys and (distinct cell pairs x window rounds) flow keys, so
    the accelerator bundle's cost must stay within an order of magnitude
    across a 16x population spread, while the full scans provably grow.
    """
    records = query_scaling_records(**SMOKE_WORKLOAD)
    smallest, largest = records[0], records[-1]
    ratio = largest["query_seconds"] / max(smallest["query_seconds"], 1e-12)
    print(f"\nE22: accel bundle cost ratio largest/smallest = {ratio:.2f}")
    assert ratio < 10.0, records
    assert largest["full_scan_seconds"] > smallest["full_scan_seconds"], records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized configuration")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_e22_queries.json",
        help="where to write the JSON artifact (default: repo root)",
    )
    args = parser.parse_args(argv)
    block = query_surface_block(args.smoke)
    payload = {"config": "smoke" if args.smoke else "full", **block}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for record in block["scaling"]:
        print(
            f"E22: n={record['n_users']:>7,}"
            f"  accel {record['query_seconds'] * 1e3:>8.3f}ms/bundle"
            f"  (warm {record['warm_query_seconds'] * 1e3:.3f}ms)"
            f"  scan {record['full_scan_seconds'] * 1e3:>9.1f}ms/bundle"
            f"  speedup {record['query_speedup']:>8,.0f}x"
            f"  ingest {record['ingest_rows_per_sec']:>10,.0f} rows/s"
            f"  matches_reference={record['matches_reference']}"
        )
    headline = block["headline"]
    print(
        f"E22: headline n={headline['n_users']:,} speedup "
        f"{headline['query_speedup']:,.0f}x (floor {headline['speedup_floor']}x, "
        f"within_floor={headline['within_floor']}; warm engine "
        f"{headline['warm_query_speedup']:,.0f}x) -> {args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
