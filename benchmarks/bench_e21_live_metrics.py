"""E21 — live metric views: O(1) snapshot queries vs O(population) recompute.

PR 9 added ``repro.server.live_metrics``: per-round metric snapshots (E1
monitoring utility, E2 contact rate / R0, E11 flow matrices) maintained
incrementally by folding each shard commit as it lands, instead of
re-scanning the population per query.  This benchmark answers the two
questions that decide whether the incremental fold earns its keep:

* **scaling** — per-query cost across population sizes: a live
  ``metrics_at(round)`` lookup (O(1), a dict read of a frozen snapshot)
  against a fresh :func:`~repro.server.live_metrics.batch_recompute` pass
  (O(population)), every size checked bit-identical between the two.
  The acceptance gates the headline: at the largest configured
  population, the live query must be >= 10x cheaper.
* **maintenance** — what the fold costs where it *does* run, the commit
  path: total shard-ingest time with the views attached vs without, at
  the largest population.  O(delta) work per commit, so the overhead is
  a bounded constant factor, not a population-dependent one.
* **horizon** — the same overhead at a fixed population across horizons
  (12 / 48 / 168 hourly rounds at smoke size).  Freezing a round folds
  only that round's delta, so the overhead must not grow with the
  horizon: the gate holds the longest horizon's overhead to at most
  1.5x the shortest's.

``benchmarks/run_bench.py`` embeds the same block in ``BENCH_eval.json``;
running this file directly writes the standalone artifact CI uploads::

    PYTHONPATH=src python benchmarks/bench_e21_live_metrics.py --smoke
    PYTHONPATH=src pytest benchmarks/bench_e21_live_metrics.py -q
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
from repro.server.live_metrics import batch_recompute, default_views, expected_coverage
from repro.server.pipeline import Server

#: Headline acceptance: live per-round query >= this factor cheaper than a
#: fresh batch recompute at the largest configured population.
SPEEDUP_FLOOR = 10.0

#: CI-sized workloads shared by ``--smoke`` here and ``run_bench.py --smoke``.
SMOKE_WORKLOAD = {"size": 10, "horizon": 6, "shards": 8, "populations": (250, 1000, 4000)}
FULL_WORKLOAD = {
    "size": 16,
    "horizon": 6,
    "shards": 16,
    "populations": (10_000, 40_000, 100_000),
}

#: Horizon gate: the longest horizon's maintenance overhead may be at most
#: this factor above the shortest's.
HORIZON_GROWTH_CEILING = 1.5

#: Horizon sweeps at a fixed population (8 shards, in memory).
SMOKE_HORIZONS = {"size": 16, "n_users": 500, "shards": 8, "horizons": (12, 48, 168)}
FULL_HORIZONS = {"size": 16, "n_users": 2000, "shards": 8, "horizons": (24, 72, 168)}

#: Ingest timings take the best of this many runs, so a slow spell of a
#: shared host cannot masquerade as horizon-dependent overhead.
INGEST_REPEATS = 3

#: metrics_at is sub-microsecond; average this many lookups per chunk and
#: take the best of several chunks, so one GC pause right after the heavy
#: ingest phase cannot masquerade as population-dependent query cost.
QUERY_REPEATS = 2000
QUERY_CHUNKS = 5


def _workload(size: int, n_users: int, horizon: int):
    world = GridWorld(size, size)
    db = geolife_like(world, n_users=n_users, horizon=horizon, rng=1)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    return world, db, engine


def _captured_shards(world, engine, db, plan):
    """Each shard's committed rows, released once up front (untimed)."""
    shards = []
    for users, times, batch in stream_shard_releases(engine, db, plan):
        shards.append((plan.shard_of(int(users[0])), users, times, batch))
    return shards


def _raw_rows(world, shards):
    users = np.concatenate([np.asarray(u, dtype=int) for _, u, _, _ in shards])
    times = np.concatenate([np.asarray(t, dtype=int) for _, _, t, _ in shards])
    points = np.concatenate([b.points for _, _, _, b in shards])
    true_cells = np.concatenate([np.asarray(b.cells, dtype=int) for _, _, _, b in shards])
    snapped = np.asarray(world.snap_batch(points), dtype=int)
    return users, times, points, true_cells, snapped


def _timed_ingest(world, db, plan, shards, live: bool):
    """Seconds to commit every captured shard, with or without the views."""
    server = Server(world)
    if live:
        server.attach_metrics(default_views(world), expected_coverage(plan, db))
    start = time.perf_counter()
    for shard, users, times, batch in shards:
        server.ingest_shard(users, times, batch, shard=shard)
    return time.perf_counter() - start, server


def live_scaling_records(
    size: int = 16,
    horizon: int = 6,
    shards: int = 16,
    populations=(10_000, 40_000, 100_000),
    query_repeats: int = QUERY_REPEATS,
) -> list[dict]:
    """Live query vs fresh batch recompute per population size.

    The batch side is what a reader without live views pays per question:
    one full O(population) pass over the raw release rows.  The live side
    is the O(1) frozen-snapshot lookup.  Both are checked bit-identical at
    every round before anything is timed against the acceptance.
    """
    records = []
    for n_users in populations:
        world, db, engine = _workload(size, n_users, horizon)
        plan = ShardPlan.build(sorted(db.users()), shards, rng=0)
        captured = _captured_shards(world, engine, db, plan)
        rows = _raw_rows(world, captured)
        views = default_views(world)

        plain_seconds, _ = _timed_ingest(world, db, plan, captured, live=False)
        live_seconds, server = _timed_ingest(world, db, plan, captured, live=True)

        reference = batch_recompute(views, plan, *rows)  # untimed, for equality
        rounds = server.metrics.rounds
        matches = all(dict(server.metrics_at(r)) == reference[r] for r in rounds)

        final = rounds[-1]
        start = time.perf_counter()
        batch_recompute(views, plan, *rows, upto=final)
        batch_query_seconds = time.perf_counter() - start

        chunk_times = []
        for _ in range(QUERY_CHUNKS):
            start = time.perf_counter()
            for _ in range(query_repeats):
                server.metrics_at(final)
            chunk_times.append((time.perf_counter() - start) / query_repeats)
        live_query_seconds = min(chunk_times)

        records.append(
            {
                "n_users": n_users,
                "rows": len(db),
                "shards": shards,
                "rounds": len(rounds),
                "matches_batch": matches,
                "live_query_seconds": round(live_query_seconds, 9),
                "batch_recompute_seconds": round(batch_query_seconds, 6),
                "query_speedup": round(batch_query_seconds / max(live_query_seconds, 1e-12), 1),
                "plain_ingest_seconds": round(plain_seconds, 6),
                "live_ingest_seconds": round(live_seconds, 6),
                "maintenance_overhead": round(live_seconds / max(plain_seconds, 1e-12), 2),
            }
        )
    return records


def horizon_sweep_records(
    size: int = 16,
    n_users: int = 500,
    shards: int = 8,
    horizons=(12, 48, 168),
    repeats: int = INGEST_REPEATS,
) -> list[dict]:
    """Maintenance overhead per horizon at a fixed population.

    Each horizon's plain and live ingests take the best of ``repeats``
    runs over the same captured shards; every live round is checked
    bit-identical to the batch recompute before anything is reported.
    """
    records = []
    for horizon in horizons:
        world, db, engine = _workload(size, n_users, horizon)
        plan = ShardPlan.build(sorted(db.users()), shards, rng=0)
        captured = _captured_shards(world, engine, db, plan)
        plain_seconds = min(
            _timed_ingest(world, db, plan, captured, live=False)[0] for _ in range(repeats)
        )
        live_runs = [_timed_ingest(world, db, plan, captured, live=True) for _ in range(repeats)]
        live_seconds = min(seconds for seconds, _ in live_runs)
        server = live_runs[-1][1]
        reference = batch_recompute(default_views(world), plan, *_raw_rows(world, captured))
        records.append(
            {
                "n_users": n_users,
                "horizon": horizon,
                "rows": len(db),
                "shards": shards,
                "matches_batch": all(
                    dict(server.metrics_at(r)) == reference[r] for r in server.metrics.rounds
                ),
                "plain_ingest_seconds": round(plain_seconds, 6),
                "live_ingest_seconds": round(live_seconds, 6),
                "maintenance_overhead": round(live_seconds / max(plain_seconds, 1e-12), 2),
            }
        )
    return records


def _horizon_growth(records: list[dict]) -> float:
    """Longest horizon's maintenance overhead over the shortest's."""
    return records[-1]["maintenance_overhead"] / max(records[0]["maintenance_overhead"], 1e-12)


def live_metrics_block(smoke: bool) -> dict:
    """The E21 payload at either size.

    Single source of truth for both artifacts: ``run_bench.py`` embeds this
    block in ``BENCH_eval.json`` and ``main`` below writes it standalone.
    """
    workload = SMOKE_WORKLOAD if smoke else FULL_WORKLOAD
    records = live_scaling_records(**workload)
    sweep = horizon_sweep_records(**(SMOKE_HORIZONS if smoke else FULL_HORIZONS))
    largest = records[-1]
    growth = _horizon_growth(sweep)
    return {
        "scaling": records,
        "horizon_sweep": sweep,
        "headline": {
            "n_users": largest["n_users"],
            "query_speedup": largest["query_speedup"],
            "speedup_floor": SPEEDUP_FLOOR,
            "within_floor": largest["query_speedup"] >= SPEEDUP_FLOOR,
            "matches_batch": all(r["matches_batch"] for r in records + sweep),
            "horizon_overhead_growth": round(growth, 2),
            "horizon_growth_ceiling": HORIZON_GROWTH_CEILING,
            "within_horizon_ceiling": growth <= HORIZON_GROWTH_CEILING,
        },
    }


# ----------------------------------------------------------------------
# CI acceptance
# ----------------------------------------------------------------------
def test_live_snapshots_match_batch_recompute():
    """Acceptance: every size's live values equal the recompute bitwise."""
    records = live_scaling_records(**SMOKE_WORKLOAD)
    for record in records:
        print(
            f"\nE21: n={record['n_users']} rows={record['rows']} "
            f"matches_batch={record['matches_batch']}"
        )
        assert record["matches_batch"], record


def test_live_query_beats_recompute_by_floor():
    """Acceptance: live per-round query >= 10x cheaper at the largest size."""
    records = live_scaling_records(**SMOKE_WORKLOAD)
    largest = records[-1]
    print(
        f"\nE21: n={largest['n_users']} live {largest['live_query_seconds']}s "
        f"vs batch {largest['batch_recompute_seconds']}s "
        f"({largest['query_speedup']}x, floor {SPEEDUP_FLOOR}x)"
    )
    assert largest["query_speedup"] >= SPEEDUP_FLOOR, largest


def test_live_query_cost_is_flat_across_population():
    """Acceptance: the O(1) lookup does not grow with the population.

    Timing a dict read is noisy, so the gate is loose: the largest
    population's per-query cost stays within an order of magnitude of the
    smallest's, while the batch pass provably grows with the rows.
    """
    records = live_scaling_records(**SMOKE_WORKLOAD)
    smallest, largest = records[0], records[-1]
    ratio = largest["live_query_seconds"] / max(smallest["live_query_seconds"], 1e-12)
    print(f"\nE21: live query cost ratio largest/smallest = {ratio:.2f}")
    assert ratio < 10.0, records
    assert largest["batch_recompute_seconds"] > smallest["batch_recompute_seconds"], records


def test_maintenance_overhead_flat_across_horizon():
    """Acceptance: upkeep per round does not grow with the horizon.

    A fold that re-merged the cumulative prefix at every freeze would cost
    O(horizon) per round, so its overhead would climb with the horizon;
    folding only each round's delta keeps it flat.
    """
    records = horizon_sweep_records(**SMOKE_HORIZONS)
    for record in records:
        print(
            f"\nE21: horizon={record['horizon']} rows={record['rows']} "
            f"overhead {record['maintenance_overhead']}x "
            f"matches_batch={record['matches_batch']}"
        )
        assert record["matches_batch"], record
    assert _horizon_growth(records) <= HORIZON_GROWTH_CEILING, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized configuration")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_e21_live.json",
        help="where to write the JSON artifact (default: repo root)",
    )
    args = parser.parse_args(argv)
    block = live_metrics_block(args.smoke)
    payload = {"config": "smoke" if args.smoke else "full", **block}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for record in block["scaling"]:
        print(
            f"E21: n={record['n_users']:>7,}"
            f"  live {record['live_query_seconds'] * 1e6:>8.1f}us/query"
            f"  batch {record['batch_recompute_seconds']:>9.4f}s/query"
            f"  speedup {record['query_speedup']:>10,.0f}x"
            f"  overhead {record['maintenance_overhead']}x"
            f"  matches_batch={record['matches_batch']}"
        )
    for record in block["horizon_sweep"]:
        print(
            f"E21: horizon={record['horizon']:>4} rows={record['rows']:>7,}"
            f"  plain {record['plain_ingest_seconds']:.4f}s"
            f"  live {record['live_ingest_seconds']:.4f}s"
            f"  overhead {record['maintenance_overhead']}x"
            f"  matches_batch={record['matches_batch']}"
        )
    headline = block["headline"]
    print(
        f"E21: headline n={headline['n_users']:,} speedup "
        f"{headline['query_speedup']:,.0f}x (floor {headline['speedup_floor']}x, "
        f"within_floor={headline['within_floor']}); horizon overhead growth "
        f"{headline['horizon_overhead_growth']}x (ceiling "
        f"{headline['horizon_growth_ceiling']}x) -> {args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
