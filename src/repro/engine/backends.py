"""Pluggable execution backends for shard-parallel work.

A backend answers one question: *how* do independent shard tasks run —
in-process, one after another (``serial``), or on a long-lived process
pool (``pool``, via :mod:`concurrent.futures`)?  Backends are
registry-named exactly like mechanisms and policies, so an
:class:`~repro.engine.specs.EngineSpec` (or a saved JSON spec file) can
carry ``backend="pool"`` and every layer — pipeline, experiments, CLI —
resolves it through the same table.

The contract is deliberately tiny: :meth:`ExecutionBackend.run` maps a
picklable function over a task list and returns the results **in task
order**, whatever the completion order was.  Determinism therefore never
depends on the backend; scheduling affects wall-clock only.  Anything that
satisfies that contract (an async loop, a cluster client) can be registered
with :func:`register_backend` and selected by name.  Two optional protocol
extensions ride on top:

* :meth:`ExecutionBackend.run_unordered` yields ``(task_index, result)``
  pairs *as tasks complete*, which is what streaming consumers
  (:func:`~repro.engine.sharding.stream_shard_releases`,
  :meth:`~repro.server.pipeline.Server.ingest_shard`) use to avoid a full
  merge barrier.  The default delegates to :meth:`run`, so custom backends
  only implement it when they can genuinely stream; every built-in backend
  does (``serial`` runs one task per yield).  The ``pool`` backend also
  survives worker death: it reruns the tasks it has not yet yielded on a
  fresh executor — because every shard task is a pure function of its
  seeds, a rerun is bit-identical, so callers see exactly one
  ``(index, result)`` pair per task however many workers died.
* :meth:`ExecutionBackend.close` / the context-manager protocol releases
  whatever the backend holds (the ``pool`` backend's persistent executor).
  Call sites that *build* a backend from a registry name own it and must
  close it — including on error — which is what
  :func:`~repro.engine.sharding.stream_shard_releases` and the harness do.
"""

from __future__ import annotations

import abc
import inspect
from contextlib import contextmanager
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.engine.registry import _register, _resolve
from repro.errors import ValidationError, WorkerLostError
from repro.utils.validation import check_integer

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "register_backend",
    "resolve_backend",
    "ensure_backend",
    "owned_backend",
    "backend_names",
]

T = TypeVar("T")
R = TypeVar("R")

#: Executors a :class:`PoolBackend` call rebuilds in a row without finishing
#: a task before it gives up with :class:`~repro.errors.WorkerLostError`.
MAX_REBUILDS = 2

BackendFactory = Callable[..., "ExecutionBackend"]

_BACKENDS: dict[str, BackendFactory] = {}
#: casefolded alias -> canonical name (same resolution scheme as mechanisms).
_BACKEND_ALIASES: dict[str, str] = {}


class ExecutionBackend(abc.ABC):
    """Strategy for executing independent shard tasks.

    Subclasses implement :meth:`run`; everything else in the system treats a
    backend as an opaque "ordered parallel map".  Backends must be safe to
    reuse across calls (the E8 harness times several rounds through one
    instance).
    """

    #: canonical registry name, set on the built-in subclasses.
    name: str = "?"

    @abc.abstractmethod
    def run(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every task and return results in task order.

        Parameters
        ----------
        fn:
            The work function.  For :class:`PoolBackend` both ``fn`` and
            the tasks must be picklable (module-level function, plain-data
            tasks).
        tasks:
            Independent work items; backends may execute them in any order
            but must **return** ``[fn(t) for t in tasks]`` order.
        """

    def run_unordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> Iterator[tuple[int, R]]:
        """Yield ``(task_index, fn(task))`` pairs as tasks complete.

        The streaming half of the contract: consumers that can commit
        results incrementally (e.g. :meth:`Server.ingest_shard`) iterate
        this instead of waiting for the whole :meth:`run` list.  Yield
        order is unspecified; the index identifies the task, and each
        index is yielded once.  The default implementation delegates to
        :meth:`run` (one barrier, then ordered yields), so every registered
        backend — including custom ones that only implement :meth:`run` —
        satisfies it; the built-in backends override it to stream genuinely.
        """
        yield from enumerate(self.run(fn, tasks))

    def close(self) -> None:
        """Release held resources (executors); idempotent.

        The base implementation is a no-op — only backends that keep state
        across :meth:`run` calls (:class:`PoolBackend`) override it.  After
        ``close()`` a backend may refuse further work.
        """

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run every task inline, in order — the reference backend.

    Zero scheduling overhead and the easiest to debug; the parallel backends
    must produce byte-identical results to this one (asserted in
    ``tests/test_sharding.py``).
    """

    name = "serial"

    def run(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        return [fn(task) for task in tasks]

    def run_unordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> Iterator[tuple[int, R]]:
        # One task per yield, so a streaming consumer commits each shard
        # before the next one runs (the base default runs them all first).
        for index, task in enumerate(tasks):
            yield index, fn(task)


class PoolBackend(ExecutionBackend):
    """Long-lived process-pool execution: true multi-core parallelism.

    Tasks and results cross process boundaries by pickling, so shard tasks
    carry plain data plus the (picklable) engine; per-user RNG streams
    travel as integer seeds and are reconstructed in the worker — which is
    why results are identical to :class:`SerialBackend`.  One executor stays
    alive across :meth:`run` calls, so repeated rounds / sweeps (the E8
    harness, epsilon sweeps, benchmark loops) pay worker startup once.
    Combined with :class:`~repro.engine.engine.EngineRef` — which ships a
    spec hash instead of a pickled engine and lets each worker cache the
    built engine by that hash — repeated rounds stop re-pickling
    construction state entirely.

    A failing task propagates its exception (its own type, as does a task
    or function that cannot be pickled) and leaves the executor intact: the
    pool stays usable for the next call.  A *dead worker* breaks the
    executor instead (:class:`~concurrent.futures.process.BrokenProcessPool`,
    raised by ``submit`` when an idle worker died between calls, or by a
    pending result).  The call then closes the broken executor and reruns
    every task it has not yet yielded on a fresh one; the rerun is
    bit-identical because each task is a pure function of its seeds.  After
    :data:`MAX_REBUILDS` rebuilt executors in a row break without finishing
    a task, it raises :class:`~repro.errors.WorkerLostError` naming the
    unfinished tasks, with the backend closed, so the next call starts
    afresh.  There is no liveness deadline: a worker that stops without
    dying blocks the call, as a stuck task blocks ``serial``.

    The executor is created lazily on first use and released by
    :meth:`close` (or by using the backend as a context manager); call
    sites that resolve ``"pool"`` from the registry own the instance and
    must close it.
    """

    name = "pool"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None:
            max_workers = check_integer("max_workers", max_workers, minimum=1)
        self.max_workers = max_workers
        self._executor: ProcessPoolExecutor | None = None

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def run(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        # Even a singleton task goes through the pool: the whole point is
        # that workers stay warm (cached engines) for the *next* call.
        results: list = [None] * len(tasks)
        for index, result in self.run_unordered(fn, tasks):
            results[index] = result
        return results

    def run_unordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> Iterator[tuple[int, R]]:
        unyielded = dict(enumerate(tasks))
        breaks = 0  # executors broken since the last finished task
        while unyielded:
            futures = {}
            try:
                for index, task in unyielded.items():
                    futures[self._pool().submit(fn, task)] = index
                for future in as_completed(futures):
                    index = futures[future]
                    result = future.result()
                    del unyielded[index]
                    breaks = 0
                    yield index, result
            except BrokenProcessPool as exc:
                self.close()
                breaks += 1
                if breaks > MAX_REBUILDS:
                    raise WorkerLostError(
                        f"pool workers died {breaks} times in a row without finishing "
                        f"a task; unfinished tasks {sorted(unyielded)}"
                    ) from exc
            finally:
                # Queued tasks of a call that raised or was abandoned must
                # not keep the workers busy for the next call.
                for future in futures:
                    future.cancel()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:
        state = "live" if self._executor is not None else "idle"
        return f"PoolBackend(max_workers={self.max_workers}, {state})"


def register_backend(name: str, factory: BackendFactory, aliases: Iterable[str] = ()) -> None:
    """Register an execution-backend factory under ``name`` (plus aliases).

    ``factory(**params)`` must return an :class:`ExecutionBackend`; spec
    params (e.g. ``max_workers``) are forwarded as keyword arguments, after
    :func:`ensure_backend` has checked their names against the factory's
    signature (a factory that takes ``**params`` checks its own).
    Resolution semantics (casefolded aliases, canonical names) are shared
    with the mechanism/policy registries.
    """
    _register(_BACKENDS, _BACKEND_ALIASES, name, factory, aliases)


def resolve_backend(name: str) -> tuple[str, BackendFactory]:
    """``(canonical_name, factory)`` for any registered name or alias."""
    return _resolve(_BACKENDS, _BACKEND_ALIASES, "backend", name)


def ensure_backend(backend: "str | ExecutionBackend | None", **params) -> ExecutionBackend:
    """Coerce ``backend`` into a live :class:`ExecutionBackend`.

    ``None`` means :class:`SerialBackend`; a string resolves through the
    registry (``params`` forwarded to the factory); an instance passes
    through unchanged (``params`` must then be empty).  A parameter the
    named backend's constructor does not take raises
    :class:`~repro.errors.ValidationError` naming the backend, the
    unexpected names and the accepted ones, before anything is built.
    """
    if backend is None:
        backend = "serial"
    if isinstance(backend, ExecutionBackend):
        if params:
            raise ValidationError("params only apply when resolving a backend by name")
        return backend
    name, factory = resolve_backend(backend)
    _check_params(name, factory, params)
    return factory(**params)


def _check_params(name: str, factory: BackendFactory, params: dict) -> None:
    """Refuse ``params`` that ``name``'s constructor does not take."""
    if not params:
        return
    parameters = inspect.signature(factory).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        return  # a factory taking **params checks its own names
    accepted = [p.name for p in parameters if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
    unexpected = sorted(set(params) - set(accepted))
    if unexpected:
        raise ValidationError(
            f"backend {name!r} takes no parameter {unexpected}; "
            f"accepted parameters: {accepted or 'none'}"
        )


@contextmanager
def owned_backend(
    backend: "str | ExecutionBackend | None", **params
) -> "Iterator[ExecutionBackend]":
    """Yield a live backend, closing it on exit **iff this call built it**.

    The ownership rule every shard-parallel entry point follows: a caller
    who passes a live :class:`ExecutionBackend` keeps responsibility for its
    lifetime (so one ``pool`` instance can be reused across many rounds),
    while a registry *name* (or ``None``) is resolved here and reliably
    closed — including when the body raises — so a failing harness run can
    never leak a process pool.
    """
    if isinstance(backend, ExecutionBackend):
        if params:
            raise ValidationError("params only apply when resolving a backend by name")
        yield backend
        return
    live = ensure_backend(backend, **params)
    try:
        yield live
    finally:
        live.close()


def backend_names() -> list[str]:
    """Canonical names of every registered backend, sorted."""
    return sorted(_BACKENDS)


register_backend("serial", SerialBackend, aliases=("sync", "inline"))
register_backend("pool", PoolBackend, aliases=("worker_pool", "persistent"))
