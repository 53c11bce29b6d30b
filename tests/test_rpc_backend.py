"""The socket rpc backend: wire framing, contracts, and the determinism matrix.

The headline claim of ``repro.engine.rpc`` is that moving shard execution
onto TCP worker *processes* changes nothing observable: release rounds,
ledger totals, and merged metric results are element-wise identical to the
1-shard serial reference for every (shard count x worker count) cell.  This
file pins that matrix — shards {1, 2, 5, 7} x workers {1, 2, 4} — plus the
layers underneath it: frame encode/decode, the run/run_unordered contract,
registry resolution (``rpc`` / ``socket`` / ``tcp``), and declarative
``ExecutionSpec`` construction.

The failure half of the contract (SIGKILL, torn frames, retry exhaustion)
lives in ``tests/test_rpc_failures.py``.
"""

import math
import pickle
import socket

import numpy as np
import pytest

from repro.engine import PrivacyEngine, ensure_backend, resolve_backend
from repro.engine.rpc import (
    _HEADER,
    MAX_FRAME_BYTES,
    FrameError,
    RpcBackend,
    _Connection,
    _pop_frames,
    recv_frame,
    send_frame,
)
from repro.engine.specs import EngineSpec, ExecutionSpec
from repro.errors import ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.pipeline import run_release_rounds_batched

# Module-level work functions: rpc ships them by module+qualname, so they
# must be importable on the worker side (closures and lambdas are not).


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad task {x}")


def _value_scorer(task):
    return np.array([float(task)])


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=12, horizon=8, rng=5)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


@pytest.fixture(scope="module")
def reference(world, db, engine):
    """The 1-shard serial run every rpc matrix cell must reproduce."""
    return run_release_rounds_batched(world, db, engine, rng=7, shards=1, backend="serial")


# One live cluster per worker count, shared by every test in the module:
# spawning workers re-imports numpy, so the matrix reuses warm clusters
# instead of paying the spawn cost per cell.
@pytest.fixture(scope="module", params=[1, 2, 4], ids=lambda w: f"workers{w}")
def rpc(request):
    backend = RpcBackend(workers=request.param, worker_timeout=60.0)
    yield backend
    backend.close()


def _state(server):
    checkins = sorted((c.time, c.user, c.cell) for c in server.released_db.checkins())
    ledger = {u: server.ledger.spent(u) for u in server.released_db.users()}
    return checkins, ledger


# ----------------------------------------------------------------------
# wire framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        try:
            message = ("result", 3, 1, np.arange(5.0))
            send_frame(left, message)
            got = recv_frame(right)
            assert got[:3] == message[:3]
            assert np.array_equal(got[3], message[3])
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises(self):
        # Header promises 100 bytes, the sender dies after 10: the reader
        # must see a FrameError, not hang or return garbage.
        left, right = socket.socketpair()
        try:
            left.sendall(_HEADER.pack(100) + b"x" * 10)
            left.close()
            with pytest.raises(FrameError, match="connection closed"):
                recv_frame(right)
        finally:
            right.close()

    def test_eof_before_header_raises(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(FrameError, match="connection closed"):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_prefix_raises(self):
        # A corrupted length prefix must fail loudly instead of trying to
        # allocate the claimed petabytes.
        left, right = socket.socketpair()
        try:
            left.sendall(_HEADER.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError, match="exceeds cap"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_undecodable_payload_raises(self):
        left, right = socket.socketpair()
        try:
            garbage = b"\x00not a pickle"
            left.sendall(_HEADER.pack(len(garbage)) + garbage)
            with pytest.raises(FrameError, match="undecodable"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_pop_frames_keeps_partial_tail(self):
        # Two complete frames plus half of a third in one buffer: the first
        # two decode, the tail stays buffered for the next recv.
        left, right = socket.socketpair()
        try:
            conn = _Connection(right, deadline=0.0)
            for message in (("heartbeat",), ("result", 1, 0, 42)):
                payload = pickle.dumps(message)
                conn.buffer += _HEADER.pack(len(payload)) + payload
            tail_payload = pickle.dumps(("result", 1, 1, 43))
            partial = (_HEADER.pack(len(tail_payload)) + tail_payload)[:-3]
            conn.buffer += partial
            frames = _pop_frames(conn)
            assert frames == [("heartbeat",), ("result", 1, 0, 42)]
            assert bytes(conn.buffer) == partial
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# run / run_unordered contract
# ----------------------------------------------------------------------


class TestExecutionContract:
    def test_run_preserves_task_order(self, rpc):
        assert rpc.run(_square, list(range(10))) == [i * i for i in range(10)]

    def test_run_unordered_yields_index_value_pairs(self, rpc):
        got = sorted(rpc.run_unordered(_square, [3, 4, 5]))
        assert got == [(0, 9), (1, 16), (2, 25)]

    def test_empty_tasks(self, rpc):
        assert rpc.run(_square, []) == []
        assert list(rpc.run_unordered(_square, [])) == []

    def test_task_exception_propagates_with_original_type(self, rpc):
        # Task-raised errors are the caller's bug, not a worker loss: they
        # travel back as error frames and re-raise unretried with their
        # original type and message, like the process/pool backends.
        with pytest.raises(ValueError, match="bad task 2") as excinfo:
            rpc.run(_boom, [2])
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("rpc worker" in note for note in notes)
        # The failed epoch must not poison the next call.
        assert rpc.run(_square, [6]) == [36]

    def test_reusable_after_close(self, rpc):
        assert rpc.run(_square, [2]) == [4]
        rpc.close()
        assert rpc.run(_square, [3]) == [9]  # respawns a fresh cluster

    def test_overlapping_runs_rejected(self, rpc):
        stream = iter(rpc.run_unordered(_square, [1, 2, 3]))
        index, value = next(stream)
        assert value == (index + 1) ** 2
        with pytest.raises(ValidationError, match="overlapping"):
            rpc.run(_square, [9])
        # Draining the first stream releases the backend again.
        rest = list(stream)
        assert len(rest) == 2
        assert rpc.run(_square, [5]) == [25]

    def test_on_worker_lost_must_be_callable(self, rpc):
        with pytest.raises(ValidationError, match="callable"):
            rpc.run_unordered(_square, [1], on_worker_lost="nope")

    def test_unpicklable_fn_raises_to_caller(self, rpc):
        # A lambda cannot cross the wire; the failure must surface as the
        # caller's pickling error before any socket is touched, never as a
        # worker loss.
        with pytest.raises((pickle.PicklingError, AttributeError)):
            rpc.run(lambda x: x, [1])
        assert rpc.run(_square, [7]) == [49]


class TestConstruction:
    @pytest.mark.parametrize(
        "params",
        [
            {"workers": 0},
            {"workers": 2.5},
            {"worker_timeout": 0.0},
            {"worker_timeout": math.nan},
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"retry_backoff": -0.1},
            {"retry_backoff": math.nan},
        ],
        ids=[
            "workers 0",
            "workers 2.5",
            "worker_timeout 0",
            "worker_timeout nan",
            "max_retries -1",
            "max_retries 1.5",
            "retry_backoff -0.1",
            "retry_backoff nan",
        ],
    )
    def test_invalid_parameters_rejected(self, params):
        # A float would be truncated (2.5 workers would run 2), and a NaN
        # backoff makes a lost task's retry time NaN, so the task would
        # never be dispatched again.
        with pytest.raises(ValidationError):
            RpcBackend(**params)

    def test_default_worker_count_is_bounded(self):
        backend = RpcBackend()
        assert 2 <= backend.workers <= 4  # never spawned, nothing to close

    def test_lazy_package_export(self):
        import repro.engine as engine_pkg

        assert engine_pkg.RpcBackend is RpcBackend
        with pytest.raises(AttributeError):
            engine_pkg.NoSuchBackend

    def test_registry_resolution_and_aliases(self):
        canonical, factory = resolve_backend("rpc")
        assert canonical == "rpc"
        for alias in ("socket", "tcp", "RPC"):
            assert resolve_backend(alias)[0] == "rpc"
        backend = factory(workers=1, worker_timeout=30.0, max_retries=1)
        assert isinstance(backend, RpcBackend)
        assert (backend.workers, backend.worker_timeout, backend.max_retries) == (1, 30.0, 1)

    def test_ensure_backend_builds_and_runs(self):
        with ensure_backend("rpc", workers=1, worker_timeout=30.0) as live:
            assert isinstance(live, RpcBackend)
            assert live.run(_square, [2, 3]) == [4, 9]

    def test_execution_spec_builds_rpc(self):
        spec = ExecutionSpec(
            backend="socket",
            shards=4,
            params={"workers": 1, "worker_timeout": 30.0, "max_retries": 1},
        )
        assert spec.canonical_name == "rpc"
        backend = spec.build()
        assert isinstance(backend, RpcBackend)
        assert backend.workers == 1
        backend.close()

    def test_engine_spec_roundtrips_rpc_execution(self):
        spec = EngineSpec.named(
            "P-LM",
            "G1",
            epsilon=1.0,
            backend="tcp",
            shards=3,
            backend_params={"workers": 2, "worker_timeout": 20.0},
        )
        payload = spec.to_dict()
        assert payload["execution"]["backend"] == "rpc"
        rebuilt = EngineSpec.from_dict(payload)
        assert rebuilt.execution.canonical_name == "rpc"
        assert rebuilt.execution.shards == 3
        assert dict(rebuilt.execution.params) == {"workers": 2, "worker_timeout": 20.0}


# ----------------------------------------------------------------------
# the determinism matrix
# ----------------------------------------------------------------------


class TestDeterminismMatrix:
    @pytest.mark.parametrize("shards", [1, 2, 5, 7])
    def test_release_rounds_match_serial_reference(
        self, rpc, shards, world, db, engine, reference
    ):
        server = run_release_rounds_batched(
            world, db, engine, rng=7, shards=shards, backend=rpc
        )
        assert _state(server) == _state(reference)

    def test_shard_results_fold_like_serial(self, rpc):
        # The evaluators fold run()'s results in task order, so rpc must
        # hand them back in that order whatever order the workers finish.
        tasks = list(range(9))
        want = np.concatenate(ensure_backend("serial").run(_value_scorer, tasks))
        got = np.concatenate(rpc.run(_value_scorer, tasks))
        assert np.array_equal(got, want)

    def test_monitoring_eval_matches_serial(self, rpc, world, db, engine):
        # The distributed-metric layer on top of the backend: E1's utility
        # scored over rpc shards equals the serial sharded score (which is
        # itself shard-invariant by the per-user RNG contract).
        from repro.epidemic.monitor import monitoring_utility

        want = monitoring_utility(
            world, engine, db, block_rows=3, block_cols=3, rng=5, shards=4,
            backend="serial",
        )
        got = monitoring_utility(
            world, engine, db, block_rows=3, block_cols=3, rng=5, shards=4,
            backend=rpc,
        )
        assert got == want
