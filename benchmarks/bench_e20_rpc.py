"""E20 — rpc scale-out: socket-backend throughput, pool parity, chaos smoke.

PR 8 added the socket ``rpc`` backend (``repro.engine.rpc``): worker
*processes* behind length-prefixed pickle frames, with deterministic retry
of shards whose worker dies.  This benchmark answers the three questions
that decide whether the cluster seam earns its keep:

* **sweep** — release-round throughput across (worker count x shard count),
  every cell checked bit-identical against the 1-shard serial reference
  (the E8 matrix, recorded as JSON).
* **rpc_vs_pool** — the localhost parity claim: the same repeated-round
  workload through a warm ``pool`` and a warm ``rpc`` cluster.  On one
  machine rpc pays sockets and frame pickling for the privilege of
  surviving worker death, so the acceptance is parity within a budget
  (rpc >= 0.7x pool throughput), not a win.
* **chaos** — a torn-result worker crash injected mid-sweep
  (``--chaos torn-result``): the run must record at least one worker loss
  *and* still merge bit-identical to serial.

``benchmarks/run_bench.py`` embeds the same block in ``BENCH_eval.json``;
running this file directly writes the standalone artifact CI uploads::

    PYTHONPATH=src python benchmarks/bench_e20_rpc.py --smoke
    PYTHONPATH=src pytest benchmarks/bench_e20_rpc.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.mechanisms.base import ReleaseBatch
from repro.engine import PrivacyEngine, ensure_backend
from repro.engine.rpc import RpcBackend
from repro.engine.sharding import ShardPlan, _execute_shard, _shard_tasks
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.pipeline import Server, run_release_rounds_batched

#: Localhost parity budget: a warm rpc cluster must deliver at least this
#: fraction of the warm pool's throughput on the same repeated-round sweep.
PARITY_BUDGET = 0.7

#: CI-sized workloads shared by ``--smoke`` here and ``run_bench.py --smoke``.
SMOKE_WORKLOAD = {"size": 6, "n_users": 16, "horizon": 10}
FULL_WORKLOAD = {"size": 10, "n_users": 60, "horizon": 36}

SMOKE_SWEEP = {"worker_counts": (1, 2), "shard_counts": (1, 4)}
FULL_SWEEP = {"worker_counts": (1, 2, 4), "shard_counts": (1, 2, 4, 8)}


def _workload(size: int, n_users: int, horizon: int):
    world = GridWorld(size, size)
    db = geolife_like(world, n_users=n_users, horizon=horizon, rng=1)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    return world, db, engine


def _state(server):
    checkins = sorted((c.time, c.user, c.cell) for c in server.released_db.checkins())
    ledger = {u: server.ledger.spent(u) for u in server.released_db.users()}
    return checkins, ledger


def rpc_sweep_records(
    size: int = 10,
    n_users: int = 60,
    horizon: int = 36,
    worker_counts=(1, 2, 4),
    shard_counts=(1, 2, 4, 8),
) -> list[dict]:
    """Release throughput per (workers, shards), each cell checked vs serial.

    One rpc cluster per worker count, reused across its shard counts: the
    spawn cost (a fresh interpreter importing numpy per worker) is paid
    once per row block, exactly how the E8 harness runs the same sweep.
    """
    world, db, engine = _workload(size, n_users, horizon)
    reference = run_release_rounds_batched(world, db, engine, rng=0, shards=1, backend="serial")
    want = _state(reference)
    records = []
    for workers in worker_counts:
        with RpcBackend(workers=workers, worker_timeout=120.0) as backend:
            for shards in shard_counts:
                start = time.perf_counter()
                server = run_release_rounds_batched(
                    world, db, engine, rng=0, shards=shards, backend=backend
                )
                seconds = time.perf_counter() - start
                records.append(
                    {
                        "backend": "rpc",
                        "workers": workers,
                        "shards": shards,
                        "seconds": round(seconds, 6),
                        "releases_per_sec": round(len(db) / seconds, 1),
                        "matches_serial": _state(server) == want,
                    }
                )
    return records


def rpc_vs_pool(
    rounds: int = 3,
    shards: int = 4,
    size: int = 10,
    n_users: int = 60,
    horizon: int = 36,
    workers: int = 2,
) -> dict:
    """Repeated-round release sweep through a warm pool vs a warm rpc cluster.

    Both backends get one untimed warm-up round (pool forks + caches the
    engine spec hash; rpc spawns workers and does the same), then ``rounds``
    timed rounds.  The recorded ratio is what the socket hop really costs
    once clusters are warm — the number the ``PARITY_BUDGET`` acceptance
    gates on.
    """
    world, db, engine = _workload(size, n_users, horizon)
    timings = {}
    for name, params in (("pool", {}), ("rpc", {"workers": workers, "worker_timeout": 120.0})):
        with ensure_backend(name, **params) as backend:
            run_release_rounds_batched(world, db, engine, rng=0, shards=shards, backend=backend)
            start = time.perf_counter()
            for round_index in range(rounds):
                run_release_rounds_batched(
                    world, db, engine, rng=round_index, shards=shards, backend=backend
                )
            timings[name] = time.perf_counter() - start
    ratio = timings["pool"] / timings["rpc"]
    return {
        "rounds": rounds,
        "shards": shards,
        "rpc_workers": workers,
        "releases_per_round": len(db),
        "pool_seconds": round(timings["pool"], 6),
        "rpc_seconds": round(timings["rpc"], 6),
        "rpc_vs_pool": round(ratio, 3),
        "parity_budget": PARITY_BUDGET,
        "within_budget": ratio >= PARITY_BUDGET,
    }


def chaos_smoke(
    size: int = 10, n_users: int = 60, horizon: int = 36, shards: int = 4
) -> dict:
    """One torn-result worker crash mid-sweep; the merge must not notice.

    The first worker to finish a shard sends half its result frame and
    ``os._exit``\\ s (the ``--chaos torn-result`` injection from the
    fault-test suite).  The coordinator reschedules that shard, so the run
    records >= 1 worker loss and still matches the serial reference
    element-wise — the benchmark-shaped version of
    ``tests/test_rpc_failures.py``.
    """
    world, db, engine = _workload(size, n_users, horizon)
    reference = run_release_rounds_batched(world, db, engine, rng=0, shards=1, backend="serial")
    plan = ShardPlan.build(sorted(db.users()), shards, rng=0)
    tasks = _shard_tasks(engine, db, plan)
    losses: list[tuple[int, int]] = []
    server = Server(world)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-e20-") as tmp:
        with RpcBackend(
            workers=2,
            worker_timeout=120.0,
            retry_backoff=0.01,
            worker_args=["--chaos", "torn-result", "--chaos-marker", str(Path(tmp) / "torn")],
        ) as backend:
            for index, (points, exact, epsilons, mechanism) in backend.run_unordered(
                _execute_shard,
                tasks,
                on_worker_lost=lambda index, attempt: losses.append((index, attempt)),
            ):
                rows = tasks[index].rows
                server.ingest_shard(
                    rows.row_users,
                    rows.times,
                    ReleaseBatch(
                        points=points,
                        exact=exact,
                        epsilons=epsilons,
                        cells=rows.cells,
                        mechanism=mechanism,
                    ),
                )
    seconds = time.perf_counter() - start
    return {
        "shards": shards,
        "seconds": round(seconds, 6),
        "worker_losses": len(losses),
        "matches_serial": _state(server) == _state(reference),
    }


def rpc_block(smoke: bool) -> dict:
    """The E20 payload (`sweep` + `rpc_vs_pool` + `chaos`) at either size.

    Single source of truth for both artifacts: ``run_bench.py`` embeds this
    block in ``BENCH_eval.json`` and ``main`` below writes it standalone.
    """
    workload = SMOKE_WORKLOAD if smoke else FULL_WORKLOAD
    sweep = SMOKE_SWEEP if smoke else FULL_SWEEP
    return {
        "sweep": rpc_sweep_records(**workload, **sweep),
        "rpc_vs_pool": rpc_vs_pool(**workload, rounds=8 if smoke else 3),
        "chaos": chaos_smoke(**workload),
    }


# ----------------------------------------------------------------------
# CI acceptance
# ----------------------------------------------------------------------
def test_rpc_sweep_matches_serial():
    """Acceptance: every (workers, shards) cell is bit-identical to serial."""
    records = rpc_sweep_records(**SMOKE_WORKLOAD, **SMOKE_SWEEP)
    for record in records:
        print(
            f"\nE20: workers={record['workers']} shards={record['shards']} "
            f"{record['releases_per_sec']:,.0f} releases/s "
            f"matches={record['matches_serial']}"
        )
        assert record["matches_serial"], record


def test_rpc_within_pool_parity_budget():
    """Acceptance: warm rpc delivers >= 0.7x warm pool throughput locally."""
    # Warm per-round timings are single-digit milliseconds at smoke scale;
    # several rounds keep one scheduler hiccup from deciding the gate.
    result = rpc_vs_pool(**SMOKE_WORKLOAD, rounds=8)
    print(
        f"\nE20: rpc {result['rpc_seconds']}s vs pool {result['pool_seconds']}s "
        f"({result['rpc_vs_pool']}x, budget {result['parity_budget']}x)"
    )
    assert result["within_budget"], result


def test_chaos_run_matches_serial_with_losses():
    """Acceptance: a mid-sweep worker crash is retried, output unchanged."""
    result = chaos_smoke(**SMOKE_WORKLOAD)
    print(
        f"\nE20: chaos run lost {result['worker_losses']} worker(s), "
        f"matches={result['matches_serial']}"
    )
    assert result["worker_losses"] >= 1, result
    assert result["matches_serial"], result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized configuration")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_e20_rpc.json",
        help="where to write the JSON artifact (default: repo root)",
    )
    args = parser.parse_args(argv)
    block = rpc_block(args.smoke)
    payload = {"config": "smoke" if args.smoke else "full", **block}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for record in block["sweep"]:
        print(
            f"E20: workers={record['workers']} shards={record['shards']}"
            f"  {record['releases_per_sec']:>10,.0f} releases/s"
            f"  matches_serial={record['matches_serial']}"
        )
    versus = block["rpc_vs_pool"]
    print(
        f"E20: rpc {versus['rpc_seconds']}s vs pool {versus['pool_seconds']}s "
        f"over {versus['rounds']} rounds ({versus['rpc_vs_pool']}x pool, "
        f"within_budget={versus['within_budget']})"
    )
    chaos = block["chaos"]
    print(
        f"E20: chaos lost {chaos['worker_losses']} worker(s), "
        f"matches_serial={chaos['matches_serial']} -> {args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
