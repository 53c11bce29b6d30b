"""Command-line interface: explore policies and regenerate experiment tables.

Usage (after ``pip install -e .``)::

    python -m repro policy G1 --size 8
    python -m repro --seed 7 release --policy Gb --epsilon 1.0 --cell 27
    python -m repro release --mechanism planar_laplace --cell 27 --count 1000
    python -m repro experiment e1 --size 8 --users 12 --horizon 36
    python -m repro experiment e4 --float32
    python -m repro experiment e1 --shards 4 --backend pool
    python -m repro experiment e11 --shards 4 --backend serial
    python -m repro experiment e8 --engine-spec spec.json --shards 4 --backend pool
    python -m repro experiment e8 --shards 4 --store run.sqlite
    python -m repro experiment e8 --shards 4 --store run.sqlite --resume
    python -m repro query summary --store run.sqlite
    python -m repro query contact-rate --store run.sqlite --window 0 11
    python -m repro query flows --store run.sqlite --window 4 7 --kind true
    python -m repro query top-cells --engine-spec spec.json -k 5
    python -m repro query epsilon --store run.sqlite --user 3 --window 0 35
    python -m repro query trajectory --store run.sqlite --user 3
    python -m repro engines
    python -m repro datasets

The CLI is a thin veneer over the public API — every subcommand body is a
few lines of the same calls a notebook user would write.  Mechanism, policy
and backend names resolve through the engine registry, so both the paper's
display names (``P-LM``) and the canonical spec names (``planar_laplace``)
work.  A global ``--seed`` (before the subcommand) makes any invocation
reproducible end to end; subcommand-level ``--seed`` flags override it.
Saved :class:`~repro.engine.EngineSpec` JSON files (the ``EngineSpec.
to_dict`` format, see ``docs/engine_specs.md``) plug into any experiment via
``--engine-spec``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.engine import (
    EngineSpec,
    PrivacyEngine,
    backend_names,
    mechanism_names,
    policy_names,
)
from repro.experiments.configs import ExperimentConfig
from repro.experiments import harness
from repro.geo.grid import GridWorld
from repro.mobility.datasets import DATASETS

__all__ = ["main", "build_parser"]

EXPERIMENTS = {
    "e1": harness.run_monitoring_utility,
    "e2": harness.run_r0_estimation,
    "e3": harness.run_contact_tracing,
    "e4": harness.run_adversary_error,
    "e5": harness.run_random_policy_tradeoff,
    "e6": harness.run_theorem_bounds,
    "e7": harness.run_policy_matrix,
    "e8": harness.run_scalability,
    "e9": harness.run_mechanism_ablation,
    "e10": harness.run_temporal_privacy,
    "e11": harness.run_metapop_forecast,
    "e12": harness.run_dataset_sensitivity,
}

#: experiments whose runners consume ``--shards`` / ``--backend``: E8 pins
#: its sweep, the others route their metrics over the distributed
#: evaluation path.  Anything else has no shard-parallel work and errors.
SHARDED_EXPERIMENTS = frozenset({"e1", "e2", "e3", "e4", "e5", "e8", "e11"})

#: Names accepted on the command line: paper display names plus canonical
#: spec names, all resolved through the engine registry.
_MECHANISM_CHOICES = sorted(
    set(mechanism_names()) | {"P-LM", "P-PIM", "GraphExp", "Geo-I"}
)
_POLICY_CHOICES = sorted(policy_names())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PANDA: policy-aware location privacy for epidemic surveillance",
    )
    parser.add_argument(
        "--seed",
        dest="global_seed",
        type=int,
        default=None,
        help="global RNG seed applied to every subcommand (reproducible runs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    policy = sub.add_parser("policy", help="show statistics of a named policy graph")
    policy.add_argument("name", choices=_POLICY_CHOICES)
    policy.add_argument("--size", type=int, default=10, help="grid side length")

    release = sub.add_parser("release", help="perturb one location (or a batch)")
    release.add_argument("--policy", choices=_POLICY_CHOICES, default="G1")
    release.add_argument("--mechanism", choices=_MECHANISM_CHOICES, default="P-LM")
    release.add_argument("--epsilon", type=float, default=1.0)
    release.add_argument("--cell", type=int, default=0)
    release.add_argument("--size", type=int, default=10)
    release.add_argument("--seed", type=int, default=None)
    release.add_argument(
        "--count",
        type=int,
        default=1,
        help="release the cell this many times through one batched engine call",
    )

    experiment = sub.add_parser("experiment", help="run an experiment and print its table")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--size", type=int, default=8)
    experiment.add_argument("--users", type=int, default=12)
    experiment.add_argument("--horizon", type=int, default=36)
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument(
        "--epsilons", type=float, nargs="+", default=[0.5, 1.0, 2.0]
    )
    experiment.add_argument(
        "--engine-spec",
        type=Path,
        default=None,
        metavar="PATH",
        help="JSON EngineSpec file (EngineSpec.to_dict format) pinning the "
        "experiment's mechanism/policy/epsilon — and, if the spec carries an "
        "execution block, its backend and shard count",
    )
    experiment.add_argument(
        "--shards",
        type=int,
        default=None,
        help="e8: pin the scalability sweep to one shard count; "
        "e1/e2/e3/e4/e5/e11: run their metrics shard-parallel with this "
        "many shards (experiments without distributed metrics error)",
    )
    experiment.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="e8: pin the scalability sweep to one execution backend; "
        "e1/e2/e3/e4/e5/e11: execution backend for shard-parallel metrics "
        "(e.g. the long-lived 'pool' worker pool)",
    )
    experiment.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="PATH",
        help="e8: additionally time durable ingest — every shard committed "
        "transactionally into a SQLite TraceStore at PATH (reported in the "
        "durable_releases_per_sec column; see docs/persistence.md)",
    )
    experiment.add_argument(
        "--float32",
        action="store_true",
        help="run the Bayesian attacker's batched GEMMs in single precision "
        "(~1e-3 relative tolerance on adversary metrics; scalar reference "
        "paths stay float64)",
    )
    experiment.add_argument(
        "--resume",
        action="store_true",
        help="e8: resume the interrupted store-backed run recorded at "
        "--store instead of starting fresh (spec/seed mismatches abort)",
    )
    experiment.add_argument(
        "--live-metrics",
        action="store_true",
        help="e8: maintain the live metric views (monitoring utility, "
        "contact rate, flow matrices) incrementally during sharded ingest "
        "and report the per-round snapshot-vs-batch-recompute check and "
        "live query speedup (see docs/live_metrics.md)",
    )

    query = sub.add_parser(
        "query", help="windowed analytics over a durable trace store"
    )
    query.add_argument(
        "what",
        choices=["summary", "contact-rate", "flows", "top-cells", "epsilon", "trajectory"],
        help="which accelerator-served query to run (see docs/queries.md)",
    )
    query.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="PATH",
        help="SQLite TraceStore written by `experiment e8 --store PATH` "
        "(or any run_release_rounds_batched store)",
    )
    query.add_argument(
        "--engine-spec",
        type=Path,
        default=None,
        metavar="PATH",
        help="JSON EngineSpec whose execution block names the store — the "
        "same file that drove the run answers queries about it",
    )
    query.add_argument(
        "--window",
        type=int,
        nargs=2,
        default=None,
        metavar=("START", "END"),
        help="closed round interval [START, END]; defaults to the store's "
        "full committed range",
    )
    query.add_argument(
        "--kind",
        choices=["observed", "true"],
        default="observed",
        help="observed = the stored (privatised, snapped) rows; true = "
        "ground-truth summaries, when the run maintained them",
    )
    query.add_argument(
        "--user", type=int, default=None, help="epsilon/trajectory: which user"
    )
    query.add_argument(
        "-k", type=int, default=5, help="top-cells: how many cells (default 5)"
    )
    query.add_argument(
        "--block-rows", type=int, default=4, help="flows: area tiling rows"
    )
    query.add_argument(
        "--block-cols", type=int, default=4, help="flows: area tiling columns"
    )

    sub.add_parser(
        "engines", help="list registered mechanism, policy, and backend names"
    )
    sub.add_parser("datasets", help="list the available synthetic datasets")
    return parser


def _effective_seed(args: argparse.Namespace, fallback: int | None = None):
    """Subcommand ``--seed`` wins, else the global ``--seed``, else fallback."""
    local = getattr(args, "seed", None)
    if local is not None:
        return local
    if args.global_seed is not None:
        return args.global_seed
    return fallback


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "policy":
        return _cmd_policy(args)
    if args.command == "release":
        return _cmd_release(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "engines":
        return _cmd_engines()
    if args.command == "datasets":
        return _cmd_datasets()
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_policy(args: argparse.Namespace) -> int:
    from repro.experiments.configs import build_policy

    world = GridWorld(args.size, args.size)
    graph = build_policy(args.name, world)
    print(f"policy {graph.name} on a {args.size}x{args.size} world")
    print(f"  nodes        : {graph.n_nodes}")
    print(f"  edges        : {graph.n_edges}")
    print(f"  density      : {graph.density():.4f}")
    print(f"  components   : {len(graph.components())}")
    print(f"  disclosable  : {len(graph.disclosable_nodes())}")
    print(f"  diameter     : {graph.diameter()}")
    return 0


def _cmd_release(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.utils.rng import ensure_rng

    world = GridWorld(args.size, args.size)
    if args.cell not in world:
        print(f"error: cell {args.cell} outside the {world.n_cells}-cell world", file=sys.stderr)
        return 1
    try:
        engine = PrivacyEngine.from_spec(
            world,
            mechanism=args.mechanism,
            policy=args.policy,
            epsilon=args.epsilon,
        )
    except ReproError as exc:
        # e.g. optimal_lp's component-size guard on a large world.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seed = _effective_seed(args)
    rng = ensure_rng(seed) if seed is not None else None
    print(f"true cell {args.cell} at {world.coords(args.cell)}")
    if args.count <= 1:
        release = engine.release(args.cell, rng=rng)
        x, y = release.point
        print(f"released  ({x:.3f}, {y:.3f})  exact={release.exact}  epsilon={release.epsilon}")
        return 0
    batch = engine.release_batch([args.cell] * args.count, rng=rng)
    mean_x, mean_y = batch.points.mean(axis=0)
    print(
        f"released batch of {len(batch)}  mean=({mean_x:.3f}, {mean_y:.3f})  "
        f"exact={int(batch.exact.sum())}/{len(batch)}  "
        f"epsilon_total={float(batch.epsilons.sum()):.3f}"
    )
    for x, y in batch.points[: min(5, len(batch))]:
        print(f"  ({x:.3f}, {y:.3f})")
    if len(batch) > 5:
        print(f"  ... {len(batch) - 5} more")
    return 0


def _load_engine_spec(path: Path) -> EngineSpec:
    """Parse a saved ``EngineSpec.to_dict`` JSON file."""
    return EngineSpec.from_dict(json.loads(path.read_text()))


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.errors import ReproError, StoreError, ValidationError

    config = ExperimentConfig(
        world_size=args.size,
        n_users=args.users,
        horizon=args.horizon,
        epsilons=tuple(args.epsilons),
        tracing_window=args.horizon,
        seed=_effective_seed(args, fallback=2020),
    )
    try:
        if args.engine_spec is not None:
            spec = _load_engine_spec(args.engine_spec)
            config = config.with_engine_spec(spec)
            dropped = [
                label
                for label, present in (
                    ("mechanism/policy params", spec.mechanism.params or spec.policy.params),
                    ("the execution block", spec.execution is not None),
                )
                if present
            ]
            if args.name != "e8" and dropped:
                # The name-based E1-E7 sweeps honour the spec's names and
                # epsilon only; factory params and sharded execution flow
                # where the engine is built from the spec itself (E8).  Say
                # so instead of silently running a different configuration.
                print(
                    f"warning: experiment {args.name} ignores "
                    f"{' and '.join(dropped)} from the engine spec (only e8 "
                    "builds the engine from the spec verbatim)",
                    file=sys.stderr,
                )
        # For E8 the flags pin the release-throughput sweep; for the metric
        # runners they route metric calls over the distributed evaluation
        # path with that shard count / backend.  Experiments with no
        # shard-parallel work refuse the flags outright — an ignored
        # distribution request should never look like a distributed run.
        if (args.shards is not None or args.backend is not None) and (
            args.name not in SHARDED_EXPERIMENTS
        ):
            supported = ", ".join(sorted(SHARDED_EXPERIMENTS, key=lambda n: int(n[1:])))
            raise ValidationError(
                f"experiment {args.name} has no shard-parallel metrics; "
                f"--shards/--backend apply to: {supported}"
            )
        if args.shards is not None:
            if args.shards < 1:
                raise ValidationError(f"shards must be >= 1, got {args.shards}")
            field = "shard_counts" if args.name == "e8" else "eval_shards"
            value = (args.shards,) if args.name == "e8" else args.shards
            config = replace(config, **{field: value})
        if args.backend is not None:
            if args.name == "e8":
                config = replace(config, backends=(args.backend,))
            else:
                config = replace(config, eval_backend=args.backend)
        if args.float32:
            config = replace(config, float32=True)
        if args.store is not None or args.resume:
            if args.name != "e8":
                raise ValidationError(
                    "--store/--resume drive the durable ingest sweep and "
                    "only apply to e8"
                )
            if args.resume and args.store is None:
                raise ValidationError("--resume requires --store")
            config = replace(config, store_path=str(args.store), resume=args.resume)
        if args.live_metrics:
            if args.name != "e8":
                raise ValidationError(
                    "--live-metrics rides e8's sharded release runs and "
                    "only applies to e8"
                )
            config = replace(config, live_metrics=True)
    except (ReproError, OSError, ValueError, KeyError) as exc:
        # bad spec file: missing, malformed JSON, or unknown registry names.
        # Only construction is guarded — a failure inside a runner is a bug
        # and should surface as a traceback, not a one-line message.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        table = EXPERIMENTS[args.name](config)
    except StoreError as exc:
        # Store failures are environmental/operator errors, not bugs: a
        # resume against the wrong spec or seed (ResumeMismatchError), an
        # unreadable path, an incompatible schema.  Exit non-zero with the
        # message instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(table.pretty())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.query import QueryEngine, Window

    if (args.store is None) == (args.engine_spec is None):
        print(
            "error: pass exactly one of --store PATH or --engine-spec PATH",
            file=sys.stderr,
        )
        return 1
    try:
        if args.store is not None:
            store_path = args.store
        else:
            spec = _load_engine_spec(args.engine_spec)
            if spec.execution is None or spec.execution.store is None:
                print(
                    f"error: engine spec {args.engine_spec} has no "
                    "execution.store path to query",
                    file=sys.stderr,
                )
                return 1
            store_path = Path(spec.execution.store)
        if not store_path.exists():
            print(f"error: no trace store at {store_path}", file=sys.stderr)
            return 1
        with QueryEngine(store_path) as engine:
            if args.window is not None:
                window = Window(args.window[0], args.window[1])
            else:
                times = engine.store.times()
                if not times:
                    print(
                        f"error: store {store_path} holds no committed rounds",
                        file=sys.stderr,
                    )
                    return 1
                window = Window(times[0], times[-1])
            if args.what in {"epsilon", "trajectory"} and args.user is None:
                print(f"error: query {args.what} requires --user", file=sys.stderr)
                return 1
            return _run_query(engine, window, args)
    except (ReproError, OSError, ValueError, KeyError) as exc:
        # Operator errors — a half-covered window (SnapshotUnavailableError
        # naming the missing shards), an empty window (DataError), a store
        # without true-side summaries, a malformed spec file — exit 1 with
        # the message rather than a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_query(engine, window, args: argparse.Namespace) -> int:
    """Dispatch one resolved query and print its answer."""
    if args.what == "summary":
        for key, value in engine.summary().items():
            print(f"  {key:16}: {value}")
        return 0
    if args.what == "contact-rate":
        estimate = engine.contact_rate(window, kind=args.kind)
        print(f"window [{window.start}, {window.end}]  kind={args.kind}")
        print(f"  observations : {estimate.observations}")
        print(f"  pair_events  : {estimate.pair_events}")
        print(f"  contact_rate : {estimate.contact_rate:.6f}")
        print(f"  r0           : {estimate.r0:.6f}")
        return 0
    if args.what == "flows":
        flows = engine.flow_matrix(
            window, kind=args.kind, block_rows=args.block_rows, block_cols=args.block_cols
        )
        print(
            f"window [{window.start}, {window.end}]  kind={args.kind}  "
            f"tiling {args.block_rows}x{args.block_cols}  "
            f"({sum(flows.values())} transitions)"
        )
        for (src, dst), count in sorted(flows.items()):
            print(f"  area {src:3} -> {dst:3} : {count}")
        return 0
    if args.what == "top-cells":
        print(f"window [{window.start}, {window.end}]  kind={args.kind}")
        for cell, count in engine.top_cells(window, args.k, kind=args.kind):
            print(f"  cell {cell:4} : {count}")
        return 0
    if args.what == "epsilon":
        spent = engine.epsilon_spent(args.user, window)
        print(
            f"user {args.user} spent epsilon {spent:.6f} over "
            f"[{window.start}, {window.end}]"
        )
        return 0
    if args.what == "trajectory":
        checkins = engine.trajectory(args.user, window)
        print(f"user {args.user}: {len(checkins)} check-ins")
        for checkin in checkins:
            print(f"  t={checkin.time:4}  cell {checkin.cell}")
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_engines() -> int:
    import sqlite3

    print("mechanisms:")
    for name in mechanism_names():
        print(f"  {name}")
    print("policies:")
    for name in policy_names():
        print(f"  {name}")
    print("backends:")
    for name in backend_names():
        print(f"  {name}")
    print("store:")
    from repro.store import SCHEMA_VERSION

    print(
        f"  sqlite (TraceStore schema v{SCHEMA_VERSION}, "
        f"SQLite {sqlite3.sqlite_version}, WAL) — "
        "durable shard commits via `experiment e8 --store PATH`"
    )
    return 0


def _cmd_datasets() -> int:
    for name in sorted(DATASETS):
        print(name)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
