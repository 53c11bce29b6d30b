"""Socket-based RPC execution backend: shard fan-out over TCP workers.

This is the cluster-shaped member of the backend registry (``rpc``): a
coordinator (the :class:`RpcBackend` instance) listens on a loopback TCP
port, spawns worker *processes* (``python -m repro.engine.rpc --worker``),
and ships each shard task to a worker as a pickled frame.  Workers execute
the task function and stream ``(task_index, result)`` frames back, which
:meth:`RpcBackend.run_unordered` yields as they arrive — exactly the
streaming contract the ``pool`` backend satisfies, but over sockets, so the
same code path extends to remote machines.  Shard tasks already carry
:class:`~repro.engine.engine.EngineRef` spec hashes instead of pickled
engines, so rpc workers rebuild-and-cache engines per spec hash just like
``pool`` workers do — repeated rounds re-ship a 64-char hash, not an engine.

Wire protocol (all frames are length-prefixed pickles; the prefix is an
8-byte big-endian unsigned length)::

    worker -> coordinator   ("hello", token, pid)          handshake
    worker -> coordinator   ("heartbeat",)                 liveness, every
                                                           ~worker_timeout/4
    coordinator -> worker   ("task", epoch, index, fn, task)
    worker -> coordinator   ("result", epoch, index, value)
    worker -> coordinator   ("error", epoch, index, exception)
    coordinator -> worker   ("shutdown",)

``token`` is a per-coordinator secret passed through the worker's
environment; connections that fail the handshake are dropped.  ``epoch``
increments on every ``run_unordered`` call so frames from an abandoned call
can never be mistaken for current results.

**Failure model.**  Every shard task in this codebase is a pure function of
its seeds (the :class:`~repro.engine.sharding.ShardPlan` determinism
contract), so worker death is recoverable by construction: re-running the
task on any other worker yields a bit-identical result.  The coordinator
therefore treats EOF, a torn/undecodable frame, or a heartbeat gap longer
than ``worker_timeout`` as "worker lost": the process is killed, its
in-flight task is rescheduled on a surviving worker after an exponential
backoff (``retry_backoff * 2**(attempt-1)``), a replacement worker is
spawned, and the optional ``on_worker_lost(task_index, attempt)`` observer
is notified.  A task that loses its worker more than ``max_retries`` times
raises :class:`~repro.errors.WorkerLostError` — failures surface, they
never hang.  Exceptions *raised by the task function* are not retried; they
travel back as ``error`` frames and re-raise in the coordinator with their
original type, matching the ``pool`` backend.

The determinism matrix in ``tests/test_rpc_backend.py`` and the
fault-injection suite in ``tests/test_rpc_failures.py`` (SIGKILL mid-round,
repeated kills until retries exhaust, torn frames) pin this contract;
``docs/scaling.md`` documents it.
"""

from __future__ import annotations

import argparse
import os
import pickle
import secrets
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Callable, Iterator, Sequence, TypeVar

from repro.engine.backends import ExecutionBackend
from repro.errors import ValidationError, WorkerLostError
from repro.utils.validation import check_integer, check_non_negative, check_positive

__all__ = [
    "RpcBackend",
    "FrameError",
    "MAX_FRAME_BYTES",
    "send_frame",
    "recv_frame",
]

T = TypeVar("T")
R = TypeVar("R")

_HEADER = struct.Struct(">Q")
#: Sanity bound on a single frame; a corrupted length prefix should fail
#: loudly instead of allocating petabytes.
MAX_FRAME_BYTES = 1 << 31

_RECV_CHUNK = 1 << 16


class FrameError(ConnectionError):
    """A wire frame was torn, truncated, oversized, or undecodable."""


def send_frame(sock: socket.socket, message: object) -> None:
    """Pickle ``message`` and send it as one length-prefixed frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise FrameError(f"connection closed after {len(buf)}/{n} bytes")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> object:
    """Blocking receive of one frame; raises :class:`FrameError` on EOF/garbage."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, length)
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure is a torn frame
        raise FrameError(f"undecodable frame: {exc!r}") from exc


class _Connection:
    """Coordinator-side state for one worker socket."""

    __slots__ = ("sock", "buffer", "proc", "pid", "ready", "inflight", "last_seen", "deadline")

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.proc: subprocess.Popen | None = None
        self.pid: int | None = None
        self.ready = False
        #: ``(epoch, task_index, attempt)`` of the dispatched task, or None.
        self.inflight: tuple[int, int, int] | None = None
        self.last_seen = time.monotonic()
        self.deadline = deadline


def _pop_frames(conn: _Connection) -> list:
    """Drain every complete frame from ``conn.buffer`` (partial tail kept)."""
    frames = []
    buf = conn.buffer
    while len(buf) >= _HEADER.size:
        (length,) = _HEADER.unpack(buf[: _HEADER.size])
        if length > MAX_FRAME_BYTES:
            raise FrameError(f"frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}")
        if len(buf) < _HEADER.size + length:
            break
        payload = bytes(buf[_HEADER.size : _HEADER.size + length])
        del buf[: _HEADER.size + length]
        try:
            frames.append(pickle.loads(payload))
        except Exception as exc:  # noqa: BLE001
            raise FrameError(f"undecodable frame: {exc!r}") from exc
    return frames


class RpcBackend(ExecutionBackend):
    """Coordinator for socket-RPC shard execution (registry name ``rpc``).

    Parameters
    ----------
    workers:
        Worker-process count (default: ``max(2, min(4, cpu_count))``).
        Workers are persistent across :meth:`run` calls, like ``pool``.
    worker_timeout:
        Seconds without any frame (result *or* heartbeat) after which a
        worker with an in-flight task is declared lost.  Heartbeats tick at
        ``~worker_timeout/4``, so slow-but-alive tasks are never killed.
    max_retries:
        How many times one task may be *re*-dispatched after losing its
        worker before :class:`~repro.errors.WorkerLostError` is raised
        (total dispatches = ``max_retries + 1``).
    retry_backoff:
        Base seconds of the exponential re-dispatch delay.
    worker_args:
        Extra argv appended to the worker command line — the fault-injection
        tests use this to arm chaos modes (``--chaos torn-result``).
    """

    name = "rpc"

    def __init__(
        self,
        workers: int | None = None,
        worker_timeout: float = 60.0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        worker_args: Sequence[str] = (),
    ) -> None:
        if workers is None:
            workers = max(2, min(4, os.cpu_count() or 1))
        self.workers = check_integer("workers", workers, minimum=1)
        self.worker_timeout = check_positive("worker_timeout", worker_timeout)
        self.max_retries = check_integer("max_retries", max_retries, minimum=0)
        self.retry_backoff = check_non_negative("retry_backoff", retry_backoff)
        self.worker_args = tuple(str(a) for a in worker_args)

        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._port: int | None = None
        self._token: str | None = None
        self._conns: list[_Connection] = []
        self._pending_procs: list[tuple[subprocess.Popen, float]] = []
        self._epoch = 0
        self._active = False
        self._closing = False

    # -- cluster lifecycle -------------------------------------------------

    @property
    def _spawn_timeout(self) -> float:
        # Worker startup imports numpy; never time a handshake out faster
        # than a loaded CI box can import it.
        return max(10.0, self.worker_timeout)

    @property
    def _heartbeat(self) -> float:
        return min(1.0, max(0.02, self.worker_timeout / 4.0))

    def _ensure_cluster(self) -> None:
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen(16)
            listener.setblocking(False)
            self._listener = listener
            self._port = listener.getsockname()[1]
            self._token = secrets.token_hex(16)
            self._selector = selectors.DefaultSelector()
            self._selector.register(listener, selectors.EVENT_READ, data=None)
        while len(self._conns) + len(self._pending_procs) < self.workers:
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        cmd = [
            sys.executable,
            "-m",
            "repro.engine.rpc",
            "--worker",
            "--connect",
            f"127.0.0.1:{self._port}",
            "--heartbeat",
            f"{self._heartbeat:g}",
            *self.worker_args,
        ]
        env = dict(os.environ)
        env["REPRO_RPC_TOKEN"] = self._token or ""
        # Workers must import the same modules the coordinator can see —
        # including test modules when fn lives in one — so the coordinator's
        # sys.path becomes the worker's PYTHONPATH.
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(p for p in sys.path if p))
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self._pending_procs.append((proc, time.monotonic() + self._spawn_timeout))

    def _drop(self, conn: _Connection, kill: bool = True) -> None:
        if self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn in self._conns:
            self._conns.remove(conn)
        if kill and conn.proc is not None and conn.proc.poll() is None:
            conn.proc.kill()
        if conn.proc is not None:
            try:
                conn.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass

    def worker_pids(self) -> list[int]:
        """PIDs of the currently connected workers (fault tests kill these)."""
        return [
            conn.pid
            for conn in list(self._conns)
            if conn.ready and conn.pid is not None and conn.proc is not None and conn.proc.poll() is None
        ]

    def close(self) -> None:
        """Shut workers down and release the listener; the backend stays reusable."""
        self._closing = True
        try:
            procs = [proc for proc, _ in self._pending_procs]
            for conn in list(self._conns):
                if conn.proc is not None:
                    procs.append(conn.proc)
                if conn.ready:
                    try:
                        conn.sock.settimeout(1.0)
                        send_frame(conn.sock, ("shutdown",))
                    except OSError:
                        pass
                self._drop(conn, kill=False)
            self._pending_procs.clear()
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    try:
                        proc.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        pass
            if self._selector is not None:
                self._selector.close()
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass
            self._listener = None
            self._selector = None
            self._port = None
            self._token = None
        finally:
            self._closing = False

    # -- execution ---------------------------------------------------------

    def run(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        results: list = [None] * len(tasks)
        for index, value in self.run_unordered(fn, tasks):
            results[index] = value
        return results

    def run_unordered(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        on_worker_lost: Callable[[int, int], None] | None = None,
    ) -> Iterator[tuple[int, R]]:
        if not tasks:
            return iter(())
        if on_worker_lost is not None and not callable(on_worker_lost):
            raise ValidationError("on_worker_lost must be callable")
        return self._stream(fn, list(tasks), on_worker_lost)

    def _stream(
        self,
        fn: Callable[[T], R],
        tasks: list,
        on_worker_lost: Callable[[int, int], None] | None,
    ) -> Iterator[tuple[int, R]]:
        if self._active:
            raise ValidationError("rpc backend does not support overlapping run calls")
        self._active = True
        try:
            self._ensure_cluster()
            assert self._selector is not None
            self._epoch += 1
            epoch = self._epoch
            pending: deque[tuple[int, int]] = deque((i, 1) for i in range(len(tasks)))
            not_before: dict[int, float] = {}
            completed: set[int] = set()
            done = 0
            idle_losses = 0
            idle_cap = max(8, 4 * self.workers)

            def lose(conn: _Connection, reason: str) -> None:
                nonlocal idle_losses
                inflight = conn.inflight
                conn.inflight = None
                self._drop(conn, kill=True)
                if inflight is not None and inflight[0] == epoch and inflight[1] not in completed:
                    _, index, attempt = inflight
                    if attempt > self.max_retries:
                        raise WorkerLostError(
                            f"rpc task {index} lost its worker {attempt} time(s) "
                            f"(last: {reason}); retries exhausted "
                            f"(max_retries={self.max_retries})"
                        )
                    if on_worker_lost is not None:
                        on_worker_lost(index, attempt)
                    not_before[index] = time.monotonic() + self.retry_backoff * (2 ** (attempt - 1))
                    pending.append((index, attempt + 1))
                else:
                    idle_losses += 1
                    if idle_losses > idle_cap:
                        raise WorkerLostError(
                            f"rpc workers died {idle_losses} times without completing a "
                            f"task (last: {reason}); refusing to respawn indefinitely"
                        )
                if not self._closing:
                    self._spawn_worker()

            while done < len(tasks):
                # Dispatch ready tasks onto idle workers.
                now = time.monotonic()
                for conn in [c for c in self._conns if c.ready and c.inflight is None]:
                    chosen = None
                    for _ in range(len(pending)):
                        if not_before.get(pending[0][0], 0.0) <= now:
                            chosen = pending.popleft()
                            break
                        pending.rotate(-1)
                    if chosen is None:
                        break
                    index, attempt = chosen
                    # Pickle before touching the socket: an unpicklable task
                    # is the caller's bug, not a worker loss.
                    payload = pickle.dumps(
                        ("task", epoch, index, fn, tasks[index]),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    conn.inflight = (epoch, index, attempt)
                    conn.last_seen = time.monotonic()
                    try:
                        conn.sock.settimeout(self.worker_timeout)
                        conn.sock.sendall(_HEADER.pack(len(payload)) + payload)
                        conn.sock.settimeout(0.0)
                    except OSError as exc:
                        lose(conn, f"task send failed ({exc!r})")

                # Wait for traffic.
                for key, _ in self._selector.select(timeout=0.05):
                    if key.data is None:  # listener: a freshly spawned worker connecting
                        while True:
                            try:
                                sock, _addr = self._listener.accept()  # type: ignore[union-attr]
                            except (BlockingIOError, OSError):
                                break
                            sock.setblocking(False)
                            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                            conn = _Connection(sock, deadline=time.monotonic() + self._spawn_timeout)
                            self._conns.append(conn)
                            self._selector.register(sock, selectors.EVENT_READ, data=conn)
                        continue
                    conn = key.data
                    if conn not in self._conns:
                        continue  # already dropped earlier in this event batch
                    eof = False
                    try:
                        while True:
                            chunk = conn.sock.recv(_RECV_CHUNK)
                            if not chunk:
                                eof = True
                                break
                            conn.buffer += chunk
                            if len(chunk) < _RECV_CHUNK:
                                break
                    except (BlockingIOError, InterruptedError):
                        pass
                    except OSError as exc:
                        lose(conn, f"connection error ({exc!r})")
                        continue
                    conn.last_seen = time.monotonic()
                    try:
                        frames = _pop_frames(conn)
                    except FrameError as exc:
                        lose(conn, str(exc))
                        continue
                    dropped = False
                    for message in frames:
                        if not conn.ready:
                            # First frame must be a valid handshake.
                            if (
                                isinstance(message, tuple)
                                and len(message) == 3
                                and message[0] == "hello"
                                and message[1] == self._token
                            ):
                                pid = int(message[2])
                                for pair in list(self._pending_procs):
                                    if pair[0].pid == pid:
                                        conn.proc = pair[0]
                                        self._pending_procs.remove(pair)
                                        break
                                conn.pid = pid
                                conn.ready = True
                                continue
                            self._drop(conn, kill=True)  # bad token/garbage: not ours
                            dropped = True
                            break
                        kind = message[0] if isinstance(message, tuple) and message else None
                        if kind == "heartbeat":
                            continue
                        if kind == "result":
                            _, ep, index, value = message
                            conn.inflight = None
                            idle_losses = 0
                            if ep == epoch and index not in completed:
                                completed.add(index)
                                done += 1
                                yield index, value
                        elif kind == "error":
                            _, ep, index, exc = message
                            conn.inflight = None
                            if ep == epoch:
                                if hasattr(exc, "add_note"):
                                    exc.add_note(
                                        f"raised in rpc worker pid {conn.pid} "
                                        f"while executing task {index}"
                                    )
                                raise exc
                        elif kind == "goodbye":
                            lose(conn, f"worker gave up: {message[1]}")
                            dropped = True
                            break
                        else:
                            lose(conn, f"unknown frame kind {kind!r}")
                            dropped = True
                            break
                    if dropped:
                        continue
                    if eof:
                        lose(conn, "worker closed the connection")

                # Deadline scans: wedged handshakes, silent workers, dead spawns.
                now = time.monotonic()
                for conn in list(self._conns):
                    if not conn.ready:
                        if now > conn.deadline:
                            lose(conn, "handshake timed out")
                    elif conn.inflight is not None and now - conn.last_seen > self.worker_timeout:
                        lose(conn, f"no heartbeat for {self.worker_timeout:g}s")
                for pair in list(self._pending_procs):
                    proc, deadline = pair
                    if proc.poll() is not None or now > deadline:
                        self._pending_procs.remove(pair)
                        if proc.poll() is None:
                            proc.kill()
                        idle_losses += 1
                        if idle_losses > idle_cap:
                            raise WorkerLostError(
                                f"rpc workers died {idle_losses} times without completing "
                                f"a task (last: worker exited before handshake); "
                                f"refusing to respawn indefinitely"
                            )
                        if not self._closing:
                            self._spawn_worker()
        finally:
            self._active = False

    def __repr__(self) -> str:
        state = "live" if self._listener is not None else "idle"
        return (
            f"RpcBackend(workers={self.workers}, worker_timeout={self.worker_timeout:g}, "
            f"max_retries={self.max_retries}, {state})"
        )


# -- worker side -----------------------------------------------------------


def _portable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:  # noqa: BLE001
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _claim_chaos(marker: str | None) -> bool:
    """One-shot chaos guard: first claimant of the marker file misbehaves."""
    if marker is None:
        return True
    try:
        with open(marker, "x"):
            return True
    except FileExistsError:
        return False


def _worker_main(args: argparse.Namespace) -> int:
    host, _, port = args.connect.rpartition(":")
    sock = socket.create_connection((host or "127.0.0.1", int(port)))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    with send_lock:
        send_frame(sock, ("hello", os.environ.get("REPRO_RPC_TOKEN", ""), os.getpid()))

    interval = max(0.01, float(args.heartbeat))

    def _beat() -> None:
        # A slow task is not a dead worker: heartbeats flow from a side
        # thread so the coordinator's deadline only fires on real death.
        while True:
            time.sleep(interval)
            try:
                with send_lock:
                    send_frame(sock, ("heartbeat",))
            except OSError:
                return

    threading.Thread(target=_beat, daemon=True, name="rpc-heartbeat").start()

    while True:
        try:
            message = recv_frame(sock)
        except FrameError as exc:
            if "connection closed" in str(exc):
                return 0  # coordinator is gone; nothing left to do
            # Decodable-length but unpicklable payload — usually a task fn
            # that is not importable on the worker (e.g. defined in the
            # coordinator's __main__).  Say so before dying, so the
            # coordinator's WorkerLostError names the real cause.
            try:
                with send_lock:
                    send_frame(sock, ("goodbye", f"could not decode task frame: {exc}"))
            except OSError:
                pass
            return 1
        except OSError:
            return 0
        if not isinstance(message, tuple) or not message:
            continue
        if message[0] == "shutdown":
            return 0
        if message[0] != "task":
            continue
        _, epoch, index, fn, task = message
        try:
            reply = ("result", epoch, index, fn(task))
        except BaseException as exc:  # noqa: BLE001 - shipped back, not swallowed
            reply = ("error", epoch, index, _portable_exception(exc))
        if args.chaos == "torn-result" and reply[0] == "result" and _claim_chaos(args.chaos_marker):
            # Fault injection: claim a full frame, send half of it, die.
            payload = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
            with send_lock:
                try:
                    sock.sendall(_HEADER.pack(len(payload)) + payload[: max(1, len(payload) // 2)])
                except OSError:
                    pass
                os._exit(17)
        try:
            with send_lock:
                send_frame(sock, reply)
        except OSError:
            return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.rpc",
        description="Worker entrypoint for the rpc execution backend.",
    )
    parser.add_argument("--worker", action="store_true", help="run as an rpc worker")
    parser.add_argument("--connect", default=None, help="coordinator HOST:PORT")
    parser.add_argument("--heartbeat", type=float, default=0.25, help="heartbeat interval (s)")
    parser.add_argument(
        "--chaos",
        default=None,
        choices=("torn-result",),
        help="fault-injection mode (tests only)",
    )
    parser.add_argument("--chaos-marker", default=None, help="one-shot chaos marker file")
    args = parser.parse_args(argv)
    if not args.worker or not args.connect:
        parser.error("this module is a worker entrypoint; pass --worker --connect HOST:PORT")
    return _worker_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
