#!/usr/bin/env python3
"""The repository benchmark: three PANDA collector workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload dense_ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric of a traced run.  Each metric is printed as ``name = value unit``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every oracle check held.  A record of the run, with its
fingerprint and its metrics from unscaled seconds (its spans, when traced),
goes to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_SECONDS = 25

WORKLOADS = {
    "dense_ingest": (
        "every row takes the whole durable path (SQLite WAL commit, accelerator "
        "upserts, ledger, live E1/E2/E11 fold): 2000 users x 72 hourly rounds"
    ),
    "sparse_release": (
        "20000 users with 8 Zipf check-ins each, in memory: the per-user release "
        "loop and task build dominate; store and live views are bypassed"
    ),
    "query_mix": (
        "closed-loop analyst client on the dense store: windowed contact rate, "
        "top cells, flows, epsilon spend and trajectories"
    ),
}

#: ``(name, unit, better, bound)`` of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("rows_per_s", "rows/s", "higher", 0.25),
    ("store_bytes_per_row", "bytes/row", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("agg_query_p50_ms", "ms", "lower", 0.25),
    ("agg_query_p90_ms", "ms", "lower", 0.25),
    ("flow_query_p50_ms", "ms", "lower", 0.25),
    ("flow_query_p90_ms", "ms", "lower", 0.25),
    ("user_query_p50_ms", "ms", "lower", 0.25),
    ("user_query_p90_ms", "ms", "lower", 0.25),
)


def _layer_better(name: str) -> str:
    return "higher" if name.endswith(("rows", "rows_per_call", "frozen_rounds")) else "lower"


def manifest() -> dict:
    """The ``BENCHMARK.json`` this benchmark implements."""
    from tracing import LAYER_UNITS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _layer_better(name)}
            for name, unit in LAYER_UNITS.items()
        ],
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` (loose or packed ref)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            commit, _, packed_name = line.partition(" ")
            if packed_name == name:
                return commit
    return "unknown"


def fingerprint(run) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite3": sqlite3.sqlite_version,
        "git_commit": _git_commit(),
        "workload": run.workload,
        "seed": run.seed,
        "flush_policy": run.flush_policy(),
        "host_speed": statistics.median(run.speed.factors) if run.speed.factors else None,
    }


def execute(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload and print its metrics; returns the result object."""
    from tracing import LAYER_UNITS
    from workloads import Run, measure, traced

    runs_dir = ROOT / ".perfbench" / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with tempfile.TemporaryDirectory(prefix="work-", dir=ROOT / ".perfbench") as workdir:
        run = Run(workload, seed, scale, Path(workdir))
        if trace:
            values, raw = traced(run, runs_dir / f"{stem}-spans.json"), None
            units = LAYER_UNITS
        else:
            values, raw = measure(run, seconds)
            units = {name: unit for name, unit, _, _ in END_TO_END}
        run_fingerprint = fingerprint(run)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {run.failed / max(run.attempted, 1):.6g} frac")
    print("fingerprint " + json.dumps(run_fingerprint, sort_keys=True))
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    (runs_dir / f"{stem}.json").write_text(
        json.dumps(
            {
                "fingerprint": run_fingerprint,
                "problems": run.problems,
                **result,
                "raw_metrics": raw,
            },
            indent=1,
        )
    )
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true", help="regenerate BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
