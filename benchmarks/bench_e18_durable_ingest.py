"""E18 — durable ingest: store-backed overhead and out-of-core populations.

PR 6 put a SQLite/WAL :class:`~repro.store.TraceStore` under the server
(``docs/persistence.md``).  This benchmark answers the two questions that
decide whether anyone turns it on:

* **overhead** — a store-backed sharded run (every shard committed
  transactionally with its ``(shard, round)`` recovery marks) against the
  identical in-memory run, with the bit-identity check alongside the
  timing.  ``within_budget`` (durable ≤ ``OVERHEAD_BUDGET`` x in-memory at
  CI scale) is a CI acceptance.  Since PR 10 every commit transaction also
  maintains the query-accelerator summaries (``repro.store.accelerator``:
  per-round occupancy and cell-pair flow blocks, user bounds), so the
  budget is 3.5x where the durability-only store sat at 1.4–1.6x; E22
  (``bench_e22_queries.py``) gates the >= 10x query speedup that
  maintenance buys.
* **out_of_core** — a population far too large for an in-memory
  ``TraceDB``: chunked synthetic releases streamed through a store-backed
  ``Server(out_of_core=True)`` with a totals-only ledger, recording
  throughput, on-disk size, and the resident-set growth that stays bounded
  because no release row is ever retained in memory.

``benchmarks/run_bench.py`` embeds the same block in ``BENCH_eval.json``;
running this file directly writes the standalone artifact CI uploads::

    PYTHONPATH=src python benchmarks/bench_e18_durable_ingest.py --smoke
    PYTHONPATH=src pytest benchmarks/bench_e18_durable_ingest.py -q
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.core.accounting import BudgetLedger
from repro.core.mechanisms.base import ReleaseBatch
from repro.engine import PrivacyEngine
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.pipeline import Server, run_release_rounds_batched
from repro.store import TraceStore

#: Acceptance ceiling for durable-vs-memory ingest.  The store-backed run
#: pays for the SQLite transactions *and* (since PR 10) the in-transaction
#: accelerator summary maintenance the windowed query surface reads
#: (docs/queries.md), vs 1.4-1.6x for the durability-only store.
OVERHEAD_BUDGET = 3.5

#: CI-sized workloads shared by ``--smoke`` here and ``run_bench.py --smoke``.
#: The overhead workload must be large enough that the store's fixed open
#: cost does not swamp the per-row cost it is meant to measure.
SMOKE_OVERHEAD = {"size": 8, "n_users": 120, "horizon": 24}
FULL_OVERHEAD = {"size": 12, "n_users": 300, "horizon": 48}

SMOKE_OUT_OF_CORE = {"n_users": 200_000, "chunk_users": 50_000}
FULL_OUT_OF_CORE = {"n_users": 10_000_000, "chunk_users": 200_000}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def durable_overhead(
    size: int = 12, n_users: int = 300, horizon: int = 48,
    shards: int = 4, backend: str = "serial",
) -> dict:
    """One sharded run in memory vs the same run committing to a store.

    The durable run pays for the SQLite transactions *and* still builds the
    in-memory server state, so the ratio is a worst case for the store —
    out-of-core mode drops the in-memory copy entirely.
    """
    world = GridWorld(size, size)
    db = geolife_like(world, n_users=n_users, horizon=horizon, rng=1)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)

    start = time.perf_counter()
    memory_server = run_release_rounds_batched(
        world, db, engine, rng=0, shards=shards, backend=backend
    )
    memory_seconds = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="bench-e18-") as tmp:
        start = time.perf_counter()
        durable_server = run_release_rounds_batched(
            world, db, engine, rng=0, shards=shards, backend=backend,
            store=str(Path(tmp) / "run.sqlite"),
        )
        durable_seconds = time.perf_counter() - start

    matches = list(durable_server.released_db.checkins()) == list(
        memory_server.released_db.checkins()
    ) and all(
        durable_server.ledger.spent(user) == memory_server.ledger.spent(user)
        for user in db.users()
    )
    ratio = durable_seconds / memory_seconds
    return {
        "backend": backend,
        "shards": shards,
        "releases": len(db),
        "memory_seconds": round(memory_seconds, 6),
        "durable_seconds": round(durable_seconds, 6),
        "memory_releases_per_sec": round(len(db) / memory_seconds, 1),
        "durable_releases_per_sec": round(len(db) / durable_seconds, 1),
        "overhead_ratio": round(ratio, 3),
        "within_budget": ratio <= OVERHEAD_BUDGET,
        "matches_memory": matches,
    }


def out_of_core_ingest(n_users: int = 10_000_000, chunk_users: int = 200_000) -> dict:
    """Stream a synthetic population through a store-backed out-of-core server.

    One release per user, ingested in ``chunk_users``-sized shards: each
    chunk is committed transactionally and then dropped, the ledger keeps
    totals only (``record_entries=False``), and the released "DB" is the
    store itself.  Resident memory is therefore one chunk's arrays plus
    the O(n_users) per-user ledger totals — independent of how many
    *rounds* are ingested, which is the bound an in-memory ``TraceDB``
    (O(rows)) cannot offer.  At 10M users the ledger dict is the dominant
    term (~100 bytes/user).
    """
    world = GridWorld(64, 64)
    rng = np.random.default_rng(7)
    rss_before = _rss_mb()
    with tempfile.TemporaryDirectory(prefix="bench-e18-ooc-") as tmp:
        store = TraceStore(Path(tmp) / "population.sqlite")
        server = Server(
            world,
            ledger=BudgetLedger(record_entries=False),
            store=store,
            out_of_core=True,
        )
        n_chunks = (n_users + chunk_users - 1) // chunk_users
        start = time.perf_counter()
        for shard in range(n_chunks):
            low = shard * chunk_users
            high = min(low + chunk_users, n_users)
            users = np.arange(low, high, dtype=np.int64)
            count = len(users)
            cells = rng.integers(0, world.n_cells, size=count, dtype=np.int64)
            points = world.coords_array(cells) + rng.random((count, 2)) - 0.5
            batch = ReleaseBatch(
                points=points,
                exact=np.zeros(count, dtype=bool),
                epsilons=np.full(count, 1.0),
                cells=cells,
                mechanism="synthetic",
            )
            server.ingest_shard(users, np.zeros(count, dtype=np.int64), batch, shard=shard)
        seconds = time.perf_counter() - start
        rows = len(server.released_db)
        db_size_mb = store.file_size_bytes() / 1e6
        store.close()
    return {
        "rows": rows,
        "chunk_users": chunk_users,
        "chunks": n_chunks,
        "seconds": round(seconds, 3),
        "rows_per_sec": round(rows / seconds, 1),
        "db_size_mb": round(db_size_mb, 1),
        "rss_before_mb": round(rss_before, 1),
        "rss_peak_mb": round(_rss_mb(), 1),
        "rss_growth_mb": round(_rss_mb() - rss_before, 1),
    }


def durable_ingest_block(smoke: bool) -> dict:
    """The E18 payload (`overhead` + `out_of_core`) at either size.

    Single source of truth for both artifacts: ``run_bench.py`` embeds this
    block in ``BENCH_eval.json`` and ``main`` below writes it standalone.
    """
    if smoke:
        return {
            "overhead": durable_overhead(**SMOKE_OVERHEAD),
            "out_of_core": out_of_core_ingest(**SMOKE_OUT_OF_CORE),
        }
    return {
        "overhead": durable_overhead(**FULL_OVERHEAD),
        "out_of_core": out_of_core_ingest(**FULL_OUT_OF_CORE),
    }


# ----------------------------------------------------------------------
# CI acceptance
# ----------------------------------------------------------------------
def test_durable_overhead_within_budget():
    """Acceptance: store-backed run ≤ the overhead budget, and bit-identical."""
    result = durable_overhead(**SMOKE_OVERHEAD)
    print(
        f"\nE18: durable {result['durable_seconds']}s vs memory "
        f"{result['memory_seconds']}s ({result['overhead_ratio']}x)"
    )
    assert result["matches_memory"], result
    assert result["within_budget"], result


def test_out_of_core_rss_stays_bounded():
    """Acceptance: ingest ≫ chunk-size rows with sub-chunk memory growth."""
    result = out_of_core_ingest(n_users=150_000, chunk_users=25_000)
    print(f"\nE18: {result['rows']:,} rows, rss growth {result['rss_growth_mb']}MB")
    assert result["rows"] == 150_000
    # An in-memory TraceDB of 150k check-ins costs tens of MB in dict/object
    # overhead alone; the out-of-core path must stay near one chunk's arrays.
    assert result["rss_growth_mb"] < 120.0, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized configuration")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_e18_durable.json",
        help="where to write the JSON artifact (default: repo root)",
    )
    args = parser.parse_args(argv)
    block = durable_ingest_block(args.smoke)
    payload = {"config": "smoke" if args.smoke else "full", **block}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    overhead = block["overhead"]
    print(
        f"E18: durable {overhead['durable_releases_per_sec']:,.0f} releases/s vs "
        f"memory {overhead['memory_releases_per_sec']:,.0f} releases/s "
        f"({overhead['overhead_ratio']}x, matches={overhead['matches_memory']})"
    )
    ooc = block["out_of_core"]
    print(
        f"E18: out-of-core {ooc['rows']:,} rows at {ooc['rows_per_sec']:,.0f} rows/s, "
        f"{ooc['db_size_mb']}MB on disk, rss growth {ooc['rss_growth_mb']}MB "
        f"-> {args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
