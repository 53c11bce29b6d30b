#!/usr/bin/env python
"""Time every experiment entry point and write ``BENCH_eval.json``.

Each ``bench_eN_*.py`` in this directory wraps one experiment runner from
``repro.experiments.harness`` in the pytest-benchmark harness; this script
times the same entry points directly (one wall-clock run each, no pytest
overhead) and records them as one JSON artifact so CI and perf PRs can diff
evaluation-layer timings.

The artifact has four blocks (schema documented in ``docs/benchmarks.md``)::

    {
      "config": "full" | "smoke",
      "timings": {"e1_monitoring_utility": 0.061, ...},   # seconds per runner
      "sharded": [                                        # E15 sweep
        {"backend": "pool", "shards": 4, "seconds": 0.21,
         "releases_per_sec": 34000.0, "matches_serial": true,
         "eval_seconds": 0.18, "eval_releases_per_sec": 39000.0,
         "eval_matches_serial": true},
        ...
      ],
      "durable_ingest": {                                 # E18
        "overhead": {"memory_seconds": 0.5, "durable_seconds": 0.6,
                     "overhead_ratio": 1.2, "within_budget": true,
                     "matches_memory": true, ...},
        "out_of_core": {"rows": 10000000, "rows_per_sec": 310000.0,
                        "db_size_mb": 760.2, "rss_peak_mb": 310.5,
                        "rss_growth_mb": 45.1, ...}
      },
      "live_metrics": {                                   # E21
        "scaling": [{"n_users": 4000, "rows": 24000, "shards": 8,
                     "matches_batch": true, "live_query_seconds": 1.5e-07,
                     "batch_recompute_seconds": 0.034,
                     "query_speedup": 238468.0,
                     "maintenance_overhead": 1.48, ...}, ...],
        "headline": {"n_users": 4000, "query_speedup": 238468.0,
                     "speedup_floor": 10.0, "within_floor": true,
                     "matches_batch": true}
      },
      "query_surface": {                                  # E22
        "scaling": [{"n_users": 4000, "rows": 24000, "shards": 8,
                     "window": [3, 5], "matches_reference": true,
                     "query_seconds": 0.0048, "full_scan_seconds": 0.086,
                     "query_speedup": 17.8, "warm_query_seconds": 0.0002,
                     "warm_query_speedup": 430.0,
                     "ingest_seconds": 0.19,
                     "ingest_rows_per_sec": 124700.0}, ...],
        "headline": {"n_users": 4000, "query_speedup": 17.8,
                     "warm_query_speedup": 430.0,
                     "speedup_floor": 10.0, "within_floor": true,
                     "matches_reference": true}
      }
    }

``sharded`` is the E15 sharded-release-rounds sweep: one entry per
``(backend, shard count)`` pair with release *and* sharded-E1 evaluation
throughput, each with its determinism check against the 1-shard serial
baseline.  E13 (engine micro throughput) and the per-release latency half
of E8 remain pytest-benchmark micro-benchmarks::

    PYTHONPATH=src pytest benchmarks/bench_e15_sharded_rounds.py --benchmark-only

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                # full config
    PYTHONPATH=src python benchmarks/run_bench.py --smoke        # CI-sized
    PYTHONPATH=src python benchmarks/run_bench.py --only e1_monitoring_utility
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_e18_durable_ingest as bench_e18  # noqa: E402
import bench_e21_live_metrics as bench_e21  # noqa: E402
import bench_e22_queries as bench_e22  # noqa: E402

from repro.experiments import harness  # noqa: E402
from repro.experiments.configs import ExperimentConfig  # noqa: E402

#: benchmark entry point -> harness runner (the callable each bench_eN times).
ENTRY_POINTS = {
    "e1_monitoring_utility": harness.run_monitoring_utility,
    "e2_r0_estimation": harness.run_r0_estimation,
    "e3_contact_tracing": harness.run_contact_tracing,
    "e4_adversary_error": harness.run_adversary_error,
    "e5_random_policies": harness.run_random_policy_tradeoff,
    "e6_theorem_bounds": harness.run_theorem_bounds,
    "e7_policy_matrix": harness.run_policy_matrix,
    # E8's runner (harness.run_scalability) is measured by the dedicated
    # e15 sharded entry below, which also records per-combination metadata.
    "e9_mechanism_ablation": harness.run_mechanism_ablation,
    "e10_temporal_privacy": harness.run_temporal_privacy,
    "e11_metapop_forecast": harness.run_metapop_forecast,
    "e12_dataset_sensitivity": harness.run_dataset_sensitivity,
}

SHARDED_ENTRY = "e15_sharded_rounds"
DURABLE_ENTRY = "e18_durable_ingest"
LIVE_ENTRY = "e21_live_metrics"
QUERY_ENTRY = "e22_query_surface"


def make_config(smoke: bool) -> ExperimentConfig:
    """Default config, or a CI-sized one that keeps every runner sub-second."""
    if not smoke:
        return ExperimentConfig()
    return ExperimentConfig(
        world_size=8,
        n_users=8,
        horizon=24,
        epsilons=(0.5, 2.0),
        policies=("G1", "Gb"),
        mechanisms=("P-LM",),
        trials=2,
        tracing_window=24,
        shard_counts=(1, 2),
    )


def run_sharded(config: ExperimentConfig) -> list[dict]:
    """The E15 sweep: sharded round throughput with backend/shard metadata.

    Reuses the E8 harness runner (so CLI, pytest-benchmark, and this script
    all measure the same code path) and re-keys its table into JSON-ready
    records.  Since the E8 runner grew eval-throughput columns, each record
    also carries ``eval_seconds`` / ``eval_releases_per_sec`` /
    ``eval_matches_serial`` for the sharded E1 metric over the same plan.
    """
    return harness.run_scalability(config).to_dicts()


def run_durable_ingest(smoke: bool) -> dict:
    """The E18 block: durable-vs-memory overhead plus out-of-core ingest.

    Delegates to ``bench_e18_durable_ingest.durable_ingest_block`` so the
    pytest benchmarks, the standalone artifact, and this script all
    measure the same code on the same workload.
    """
    return bench_e18.durable_ingest_block(smoke)


def run_live_metrics(smoke: bool) -> dict:
    """The E21 block: live snapshot query cost vs batch recompute.

    Delegates to ``bench_e21_live_metrics.live_metrics_block`` — same
    single-source-of-truth arrangement as E18.
    """
    return bench_e21.live_metrics_block(smoke)


def run_query_surface(smoke: bool) -> dict:
    """The E22 block: accelerator window queries vs full-table scans.

    Delegates to ``bench_e22_queries.query_surface_block`` — same
    single-source-of-truth arrangement as E18 and E21.
    """
    return bench_e22.query_surface_block(smoke)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized configuration")
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(ENTRY_POINTS)
        + [SHARDED_ENTRY, DURABLE_ENTRY, LIVE_ENTRY, QUERY_ENTRY],
        help="run only this entry point (repeatable)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_eval.json",
        help="where to write the JSON artifact (default: repo root)",
    )
    args = parser.parse_args(argv)

    config = make_config(args.smoke)
    names = args.only or sorted(ENTRY_POINTS) + [
        SHARDED_ENTRY,
        DURABLE_ENTRY,
        LIVE_ENTRY,
        QUERY_ENTRY,
    ]
    payload: dict = {"config": "smoke" if args.smoke else "full", "timings": {}}
    for name in names:
        if name in (
            SHARDED_ENTRY,
            DURABLE_ENTRY,
            LIVE_ENTRY,
            QUERY_ENTRY,
        ):
            continue
        runner = ENTRY_POINTS[name]
        start = time.perf_counter()
        runner(config)
        payload["timings"][name] = round(time.perf_counter() - start, 6)
        print(f"{name:<28} {payload['timings'][name]:>10.3f}s")
    if SHARDED_ENTRY in names:
        start = time.perf_counter()
        payload["sharded"] = run_sharded(config)
        payload["timings"][SHARDED_ENTRY] = round(time.perf_counter() - start, 6)
        print(f"{SHARDED_ENTRY:<28} {payload['timings'][SHARDED_ENTRY]:>10.3f}s")
        for record in payload["sharded"]:
            print(
                f"  {record['backend']:<8} shards={record['shards']}"
                f"  {record['releases_per_sec']:>12,.0f} releases/s"
                f"  matches_serial={record['matches_serial']}"
                f"  eval {record['eval_releases_per_sec']:>12,.0f}/s"
                f"  eval_matches={record['eval_matches_serial']}"
            )
    if DURABLE_ENTRY in names:
        start = time.perf_counter()
        payload["durable_ingest"] = run_durable_ingest(args.smoke)
        payload["timings"][DURABLE_ENTRY] = round(time.perf_counter() - start, 6)
        print(f"{DURABLE_ENTRY:<28} {payload['timings'][DURABLE_ENTRY]:>10.3f}s")
        overhead = payload["durable_ingest"]["overhead"]
        print(
            f"  durable {overhead['durable_releases_per_sec']:>12,.0f} releases/s vs "
            f"memory {overhead['memory_releases_per_sec']:>12,.0f} releases/s "
            f"({overhead['overhead_ratio']}x, matches={overhead['matches_memory']})"
        )
        ooc = payload["durable_ingest"]["out_of_core"]
        print(
            f"  out-of-core {ooc['rows']:,} rows at {ooc['rows_per_sec']:,.0f} rows/s, "
            f"{ooc['db_size_mb']}MB on disk, rss peak {ooc['rss_peak_mb']}MB "
            f"(growth {ooc['rss_growth_mb']}MB)"
        )
    if LIVE_ENTRY in names:
        start = time.perf_counter()
        payload["live_metrics"] = run_live_metrics(args.smoke)
        payload["timings"][LIVE_ENTRY] = round(time.perf_counter() - start, 6)
        print(f"{LIVE_ENTRY:<28} {payload['timings'][LIVE_ENTRY]:>10.3f}s")
        for record in payload["live_metrics"]["scaling"]:
            print(
                f"  n={record['n_users']:>7,}"
                f"  live {record['live_query_seconds'] * 1e6:>8.1f}us/query"
                f"  batch {record['batch_recompute_seconds']:>9.4f}s/query"
                f"  speedup {record['query_speedup']:>10,.0f}x"
                f"  matches_batch={record['matches_batch']}"
            )
        headline = payload["live_metrics"]["headline"]
        print(
            f"  headline n={headline['n_users']:,} speedup "
            f"{headline['query_speedup']:,.0f}x (floor {headline['speedup_floor']}x, "
            f"within_floor={headline['within_floor']})"
        )
    if QUERY_ENTRY in names:
        start = time.perf_counter()
        payload["query_surface"] = run_query_surface(args.smoke)
        payload["timings"][QUERY_ENTRY] = round(time.perf_counter() - start, 6)
        print(f"{QUERY_ENTRY:<28} {payload['timings'][QUERY_ENTRY]:>10.3f}s")
        for record in payload["query_surface"]["scaling"]:
            print(
                f"  n={record['n_users']:>7,}"
                f"  accel {record['query_seconds'] * 1e3:>8.3f}ms/bundle"
                f"  (warm {record['warm_query_seconds'] * 1e3:.3f}ms)"
                f"  scan {record['full_scan_seconds'] * 1e3:>9.1f}ms/bundle"
                f"  speedup {record['query_speedup']:>8,.0f}x"
                f"  matches_reference={record['matches_reference']}"
            )
        headline = payload["query_surface"]["headline"]
        print(
            f"  headline n={headline['n_users']:,} speedup "
            f"{headline['query_speedup']:,.0f}x (floor {headline['speedup_floor']}x, "
            f"within_floor={headline['within_floor']})"
        )

    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    total = sum(payload["timings"].values())
    print(f"{'total':<28} {total:>10.3f}s  -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
