"""The three benchmark workloads over the PANDA collector pipeline.

Every workload drives the program's public API only, in one process: the
``serial`` backend over 8 shards, P-LM under policy G1 at epsilon 1.  Inputs
(``geolife_like`` / ``gowalla_like``) come from the workload seed and are
generated before anything is timed; they are not part of the system under
test.  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import gc
import math
import resource
import signal
import statistics
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.engine import PrivacyEngine  # noqa: E402
from repro.engine.sharding import ShardPlan  # noqa: E402
from repro.geo.grid import GridWorld  # noqa: E402
from repro.mobility.synthetic import geolife_like, gowalla_like  # noqa: E402
from repro.query import QueryEngine, Window  # noqa: E402
from repro.query import reference  # noqa: E402
from repro.server.live_metrics import batch_recompute, default_views  # noqa: E402
from repro.server.pipeline import run_release_rounds_batched  # noqa: E402
from repro.store import TraceStore  # noqa: E402

from tracing import Tracer, installed, layer_metrics  # noqa: E402

SHARDS = 8
BACKEND = "serial"
ENGINE_SPEC = {"mechanism": "P-LM", "policy": "G1", "epsilon": 1.0}
TOP_K = 10
FLOW_BLOCKS = 4
INGEST_WORKLOADS = ("dense_ingest", "sparse_release")

#: Sizes per scale.  ``full`` is the benchmark; ``tiny`` only exercises the
#: harness (perfbench/selftest.py).  ``burst_iterations`` is the read burst
#: after each measured ingest, ``trace_iterations`` the read pass of a traced
#: unit; query_mix's untraced read pass runs for ``--seconds`` instead.
SCALES = {
    "full": {
        "dense": {"size": 16, "users": 2000, "rounds": 72},
        "sparse": {"size": 32, "users": 20000, "checkins": 8, "rounds": 168},
        "window": 24,
        "burst_iterations": 40,
        "trace_iterations": 100,
        "setup_reps": {"dense_ingest": 21, "sparse_release": 3, "query_mix": 3},
        "min_cycles": 2,
    },
    "tiny": {
        "dense": {"size": 8, "users": 40, "rounds": 30},
        "sparse": {"size": 8, "users": 400, "checkins": 4, "rounds": 12},
        "window": 8,
        "burst_iterations": 3,
        "trace_iterations": 5,
        "setup_reps": {"dense_ingest": 2, "sparse_release": 2, "query_mix": 2},
        "min_cycles": 1,
    },
}

#: Latency groups of the closed-loop client's six operations.
GROUPS = ("agg", "flow", "user")

#: Iterations of a read pass whose answers the query oracle checks.
CHECKED_ITERATIONS = 8

#: ``(window, user)`` pairs the query oracle issues after timing: at least
#: one user per shard, on windows that together cover every stored round.
ORACLE_SAMPLES = SHARDS

#: Seconds the probe kernel takes on the reference host.  Fixed for good:
#: changing it rescales every time-based end-to-end metric.
REFERENCE_KERNEL_S = 0.002


def _probe_kernel() -> dict:
    table: dict = {}
    for i in range(15_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return table


class HostSpeed:
    """Probe of how fast the host runs this process right now.

    On a shared host, other tenants slow every instruction of this process
    by 20-40% for spells of seconds to tens of seconds, with no steal time
    to subtract.  So each timed sample is taken beside runs of a fixed
    pure-Python kernel and reported scaled by ``REFERENCE_KERNEL_S / kernel
    seconds``: in seconds of a host that runs the kernel in the reference
    time.  The kernel touches nothing of the program, so a change to the
    program moves the scaled times as it moves the raw ones.
    """

    #: Interval of the in-call probe of :meth:`timed`, in seconds.
    TICK_S = 0.1

    def __init__(self) -> None:
        self.factors: list[float] = []

    @staticmethod
    def _kernel_seconds() -> float:
        start = perf_counter()
        _probe_kernel()
        return perf_counter() - start

    def factor(self, repeats: int = 1) -> float:
        kernel = statistics.median(self._kernel_seconds() for _ in range(repeats))
        self.factors.append(REFERENCE_KERNEL_S / kernel)
        return self.factors[-1]

    def timed(self, call) -> "tuple[float, float]":
        """``(raw seconds, factor)`` of one ``call()``.

        An interval timer runs the kernel every :attr:`TICK_S` while the
        call runs, in this thread between bytecodes, so the factor follows
        the host through the whole call; the kernel's own time is taken off
        the call's.  A tick is skipped while the process has another
        thread: the kernel would then also time the program's own work on
        that thread, so the factor rests on the probes around the call.
        """
        kernels = [self._kernel_seconds() for _ in range(3)]
        during: list[float] = []

        def tick(signum, frame):
            if threading.active_count() == 1:
                during.append(self._kernel_seconds())

        previous = signal.signal(signal.SIGALRM, tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted syscalls
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = perf_counter() - start - sum(during)
            signal.signal(signal.SIGALRM, previous)
        kernels += during + [self._kernel_seconds() for _ in range(3)]
        self.factors.append(REFERENCE_KERNEL_S / statistics.median(kernels))
        return seconds, self.factors[-1]


def _seconds(samples, scaled: bool) -> list[float]:
    """Seconds of ``(raw seconds, factor)`` samples, scaled or raw."""
    return [raw * factor if scaled else raw for raw, factor in samples]


class ClientSamples:
    """Per-group ``(raw seconds, factor)`` op latencies and op count of the read client."""

    def __init__(self) -> None:
        self.latencies: dict[str, list] = {group: [] for group in GROUPS}
        self.ops = 0

    def busy_seconds(self, scaled: bool) -> float:
        return sum(sum(_seconds(latencies, scaled)) for latencies in self.latencies.values())


def _query_ops(engine: QueryEngine, window: Window, user: int):
    """``(name, group, call)`` for one client iteration, in issue order."""
    return (
        ("contact_rate", "agg", lambda: engine.contact_rate(window)),
        ("contact_rate_true", "agg", lambda: engine.contact_rate(window, kind="true")),
        ("top_cells", "agg", lambda: engine.top_cells(window, TOP_K)),
        (
            "flow_matrix",
            "flow",
            lambda: engine.flow_matrix(window, block_rows=FLOW_BLOCKS, block_cols=FLOW_BLOCKS),
        ),
        ("epsilon_spent", "user", lambda: engine.epsilon_spent(user, window)),
        ("trajectory", "user", lambda: engine.trajectory(user, window)),
    )


@contextmanager
def _one_scan(store: TraceStore):
    """Serve the reference full passes over ``store`` from one read.

    Every ``reference.full_scan_*`` starts with the same pass over the
    ``releases`` table (``reference._scan``).  The store no longer changes
    once timing ends, so the oracle reads it once instead of once per
    checked answer; the references compute everything else as they are.
    """
    original = reference._scan
    rows = original(store)
    reference._scan = lambda scanned: rows if scanned is store else original(scanned)
    try:
        yield
    finally:
        reference._scan = original


def _remove_store(path: "Path | None") -> None:
    if path is not None:
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload's inputs, stores and op tallies inside one process.

    ``attempted`` counts shard commits, queries and oracle checks; ``failed``
    counts the queries that raised and the oracle checks that did not hold.
    """

    def __init__(self, workload: str, seed: int, scale: str, workdir: Path) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.config = SCALES[scale]
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._stores = 0
        if workload == "sparse_release":
            shape = self.config["sparse"]
            self.world = GridWorld(shape["size"], shape["size"])
            self.db = gowalla_like(
                self.world,
                n_users=shape["users"],
                checkins_per_user=shape["checkins"],
                horizon=shape["rounds"],
                rng=self.seed,
            )
        else:
            shape = self.config["dense"]
            self.world = GridWorld(shape["size"], shape["size"])
            self.db = geolife_like(
                self.world, n_users=shape["users"], horizon=shape["rounds"], rng=self.seed
            )
        self.rows = len(self.db)
        self.users = np.asarray(sorted(self.db.users()), dtype=np.int64)
        users, times, cells = self.db.to_arrays()
        # Input cells sorted by the key user * stride + time, for true_cells.
        self._stride = int(times.max()) + 1
        keys = users.astype(np.int64) * self._stride + times
        order = np.argsort(keys, kind="stable")
        self._truth_keys = keys[order]
        self._truth_cells = cells[order].astype(np.int64)
        self.engine = None
        self.server = None
        self.store_path: "Path | None" = None
        self.answers: list = []
        self._query_rng = np.random.default_rng([self.seed, 1])
        self.speed = HostSpeed()

    # ------------------------------------------------------------------
    # Tallies
    # ------------------------------------------------------------------
    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, holds: bool, problem: str) -> None:
        self.attempted += 1
        if not holds:
            self.fail(problem)

    def true_cells(self, users, times) -> np.ndarray:
        """The input cell of each released ``(user, time)``."""
        times = np.asarray(times, dtype=np.int64)
        keys = np.asarray(users, dtype=np.int64) * self._stride + times
        at = np.minimum(np.searchsorted(self._truth_keys, keys), len(self._truth_keys) - 1)
        if times.size and (
            times.min() < 0 or times.max() >= self._stride
            or not np.array_equal(self._truth_keys[at], keys)
        ):
            raise KeyError("a released (user, time) is not in the input")
        return self._truth_cells[at]

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _release(self, store: "Path | None", live: bool) -> None:
        """One full pipeline run over the inputs."""
        self.server = None  # free the previous run's server before this one
        self.server = run_release_rounds_batched(
            self.world,
            self.db,
            self.engine,
            rng=self.seed,
            shards=SHARDS,
            backend=BACKEND,
            store=None if store is None else str(store),
            live_metrics=live,
        )
        self.attempted += SHARDS

    def _fresh_store(self) -> Path:
        _remove_store(self.store_path)
        self._stores += 1
        self.store_path = self.workdir / f"{self.workload}-{self._stores}.db"
        return self.store_path

    def setup(self) -> None:
        """Build what the measured phase needs.

        dense_ingest needs only the engine.  sparse_release also builds the
        durable copy of its released trace that its read pass queries (no
        live views).  query_mix builds the dense store exactly as
        dense_ingest writes it.
        """
        self.engine = PrivacyEngine.from_spec(self.world, **ENGINE_SPEC)
        if self.workload != "dense_ingest":
            self._release(self._fresh_store(), live=self.workload == "query_mix")

    def ingest(self) -> None:
        """One measured ingest of the whole input."""
        if self.workload == "dense_ingest":
            self._release(self._fresh_store(), live=True)
        else:
            self._release(None, live=False)

    def read(
        self,
        samples: ClientSamples,
        iterations: "int | None" = None,
        seconds: "float | None" = None,
    ) -> None:
        """One pass of the closed-loop client over the current store.

        Each iteration draws a seeded 24-round sliding window and a user,
        then issues the six operations back to back with no think time.
        The answers of the pass's first iterations are kept for
        :meth:`verify`.
        """
        rng = self._query_rng
        self.answers = []
        with QueryEngine(str(self.store_path)) as engine:
            times = engine.store.times()
            width = self._window_width(times)
            done = 0
            start = perf_counter()
            while (iterations is None or done < iterations) and (
                seconds is None or perf_counter() - start < seconds
            ):
                low = int(rng.integers(times[0], times[-1] - width + 2))
                window = Window(low, low + width - 1)
                user = int(self.users[rng.integers(len(self.users))])
                factor = self.speed.factor()
                for name, group, call in _query_ops(engine, window, user):
                    self.attempted += 1
                    samples.ops += 1
                    began = perf_counter()
                    try:
                        answer = call()
                    except Exception as exc:  # a refused query is a failed op
                        self.fail(f"{name} {window} user {user}: {exc!r}")
                        continue
                    samples.latencies[group].append((perf_counter() - began, factor))
                    if done < CHECKED_ITERATIONS:
                        self.answers.append((name, window, user, answer))
                done += 1

    def _window_width(self, times: "list[int]") -> int:
        return min(self.config["window"], times[-1] - times[0] + 1)

    def oracle_sample(self, times: "list[int]") -> "list[tuple[Window, int]]":
        """``(window, user)`` pairs the query oracle issues after timing.

        The windows are evenly spaced, no further apart than their width,
        so together they cover every round from the first stored to the
        last; user ``k`` is drawn from shard ``k mod SHARDS``.
        """
        width = self._window_width(times)
        span = times[-1] - times[0] + 1
        count = max(ORACLE_SAMPLES, math.ceil(span / width))
        plan = ShardPlan.build(self.users.tolist(), SHARDS, rng=self.seed)
        rng = np.random.default_rng([self.seed, 2])
        sample = []
        for index in range(count):
            low = times[0] + index * (span - width) // (count - 1)
            members = plan.shard_members(index % SHARDS)
            user = int(members[rng.integers(len(members))])
            sample.append((Window(low, low + width - 1), user))
        return sample

    def store_bytes_per_row(self) -> float:
        with TraceStore(self.store_path) as store:
            return store.file_size_bytes() / self.rows

    def flush_policy(self) -> str:
        with TraceStore(self.store_path) as store:
            (journal,) = store.connection.execute("PRAGMA journal_mode").fetchone()
            (synchronous,) = store.connection.execute("PRAGMA synchronous").fetchone()
        names = {0: "OFF", 1: "NORMAL", 2: "FULL", 3: "EXTRA"}
        return f"journal_mode={journal} synchronous={names.get(synchronous, synchronous)}"

    # ------------------------------------------------------------------
    # Oracles (never timed)
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check the last measured outputs against the repo's references."""
        with TraceStore(self.store_path) as store:
            self.check(
                len(store) == self.rows,
                f"store holds {len(store)} rows, input has {self.rows}",
            )
            self._verify_answers(store)
            if self.workload == "dense_ingest":
                self._verify_live(store)
        if self.workload == "sparse_release":
            self._verify_release()

    def _verify_answers(self, store: TraceStore) -> None:
        """Client answers against ``repro.query.reference`` full scans.

        Checked are the answers kept from the last read pass and those of
        a fresh client on :meth:`oracle_sample`.
        """
        expected = {
            "contact_rate": lambda w, u: reference.full_scan_contact_rate(store, w),
            "contact_rate_true": lambda w, u: reference.full_scan_contact_rate(
                store, w, kind="true", true_resolver=self.true_cells
            ),
            "top_cells": lambda w, u: reference.full_scan_top_cells(store, w, TOP_K),
            "flow_matrix": lambda w, u: reference.full_scan_flow_matrix(
                store, w, self.world, block_rows=FLOW_BLOCKS, block_cols=FLOW_BLOCKS
            ),
            "epsilon_spent": lambda w, u: reference.full_scan_epsilon_spent(store, u, w),
            "trajectory": lambda w, u: reference.full_scan_trajectory(store, u, w),
        }
        answers = list(self.answers)
        with QueryEngine(str(self.store_path)) as engine:
            for window, user in self.oracle_sample(engine.store.times()):
                for name, _, call in _query_ops(engine, window, user):
                    self.attempted += 1
                    try:
                        answers.append((name, window, user, call()))
                    except Exception as exc:
                        self.fail(f"oracle {name} {window} user {user}: {exc!r}")
        with _one_scan(store):
            for name, window, user, answer in answers:
                self.check(
                    answer == expected[name](window, user),
                    f"{name} {window} user {user} differs from its full scan",
                )

    def _verify_live(self, store: TraceStore) -> None:
        """Final live snapshot against ``batch_recompute`` over the stored rows."""
        rows = store.connection.execute("SELECT user, time, cell, x, y FROM releases").fetchall()
        users, times, cells, xs, ys = (np.asarray(column) for column in zip(*rows))
        plan = ShardPlan.build(self.users.tolist(), SHARDS, rng=self.seed)
        want = batch_recompute(
            default_views(self.world),
            plan,
            users,
            times,
            np.column_stack([xs, ys]),
            self.true_cells(users, times),
            cells,
        )
        final = max(want)
        self.check(
            dict(self.server.metrics_at(final)) == want[final],
            f"live metrics_at({final}) differs from batch_recompute",
        )

    def _verify_release(self) -> None:
        """Released trace and ledger totals against the 1-shard run."""
        reference_server = run_release_rounds_batched(
            self.world, self.db, self.engine, rng=self.seed, shards=1, backend=BACKEND
        )
        got = self.server.released_db.to_arrays()
        want = reference_server.released_db.to_arrays()
        self.check(
            all(np.array_equal(a, b) for a, b in zip(got, want)),
            "released trace differs from the 1-shard run",
        )
        ledger, reference_ledger = self.server.ledger, reference_server.ledger
        self.check(
            len(ledger) == len(reference_ledger)
            and {u: ledger.spent(u) for u in ledger.users()}
            == {u: reference_ledger.spent(u) for u in reference_ledger.users()},
            "ledger totals differ from the 1-shard run",
        )


def _percentile_ms(samples: list[float], q: int) -> float:
    # No samples means every op failed; the run reports correct=false.
    return float(np.percentile(samples, q)) * 1e3 if samples else 0.0


def measure(run: Run, seconds: float) -> "tuple[dict[str, float], dict[str, float]]":
    """The untraced run: every end-to-end metric, scaled and raw.

    The first mapping is the result, its times scaled by :class:`HostSpeed`;
    the second holds the same metrics from raw seconds, for the run record.
    """
    config = run.config
    setup_seconds = []
    for _ in range(config["setup_reps"][run.workload]):
        run.server = None
        gc.collect()
        setup_seconds.append(run.speed.timed(run.setup))
    samples = ClientSamples()
    if run.workload in INGEST_WORKLOADS:
        # Cycles of one whole ingest and one short read burst, started only
        # while a cycle is expected to end within budget.  Spreading the
        # reads over the run keeps one slow spell of a shared host from
        # shifting every latency sample at once.
        ingest_seconds, cycle_seconds = [], []
        start = perf_counter()
        while len(cycle_seconds) < config["min_cycles"] or (
            perf_counter() - start + statistics.median(cycle_seconds) <= seconds
        ):
            began = perf_counter()
            run.server = None
            gc.collect()
            ingest_seconds.append(run.speed.timed(run.ingest))
            run.read(samples, iterations=config["burst_iterations"])
            cycle_seconds.append(perf_counter() - began)
    else:
        # query_mix ingests only in set-up: its builds are the ingest reps.
        ingest_seconds = setup_seconds
        run.read(samples, seconds=seconds)
    unscaled = {"store_bytes_per_row": run.store_bytes_per_row(), "peak_rss_mb": peak_rss_mb()}

    def end_to_end(scaled: bool) -> dict[str, float]:
        metrics = {
            "setup_s": statistics.median(_seconds(setup_seconds, scaled)),
            "rows_per_s": statistics.median(
                run.rows / s for s in _seconds(ingest_seconds, scaled)
            ),
            **unscaled,
            "queries_per_s": samples.ops / samples.busy_seconds(scaled),
        }
        for group in GROUPS:
            latencies = _seconds(samples.latencies[group], scaled)
            metrics[f"{group}_query_p50_ms"] = _percentile_ms(latencies, 50)
            metrics[f"{group}_query_p90_ms"] = _percentile_ms(latencies, 90)
        return metrics

    run.verify()
    return end_to_end(True), end_to_end(False)


def _unit_of_work(run: Run) -> None:
    """One set-up, one ingest (ingest workloads) and a fixed read pass."""
    run.setup()
    if run.workload in INGEST_WORKLOADS:
        run.ingest()
    run.read(ClientSamples(), iterations=run.config["trace_iterations"])


def _timed_unit(run: Run) -> float:
    gc.collect()
    start = perf_counter()
    _unit_of_work(run)
    return perf_counter() - start


def traced(run: Run, spans_path: Path) -> dict[str, float]:
    """The traced run: every per-layer metric.

    The same unit of work runs four times, alternating untraced and traced.
    Interference from other tenants only ever adds time, so each side keeps
    its fastest unit: the traced one against the untraced one is the
    tracing overhead, and the per-layer metrics come from the fastest traced
    unit.  Oracles check the last traced unit's outputs, so the shims are
    shown not to change a value.
    """
    untraced, tracers = [], []
    for _ in range(2):
        untraced.append(_timed_unit(run))
        tracer = Tracer()
        gc.collect()
        with installed(tracer), tracer.span("trace.root"):
            _unit_of_work(run)
        tracers.append(tracer)
    run.verify()
    fastest = min(tracers, key=lambda tracer: tracer.wall_seconds("trace.root"))
    fastest.write(spans_path)
    return layer_metrics(fastest, "trace.root", min(untraced))
