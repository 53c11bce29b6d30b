"""The PrivacyEngine facade: spec-driven construction, batched release.

``PrivacyEngine`` is the system's front door.  Where the seed API handed
callers a loose ``(world, policy, mechanism)`` triple and a scalar
``release`` loop, the engine is built once from a declarative spec and then
serves *populations*: :meth:`release_batch` perturbs thousands of locations
per call through the mechanisms' vectorized samplers, and
:meth:`pdf_matrix` hands the adversary / filtering stack whole likelihood
matrices.  Scalar ``release`` / ``pdf`` remain as thin wrappers, so notebook
users keep the one-liner ergonomics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.mechanisms import Mechanism, Release, ReleaseBatch
from repro.core.policy_graph import PolicyGraph
from repro.engine.specs import EngineSpec
from repro.errors import ValidationError
from repro.geo.grid import GridWorld

__all__ = ["PrivacyEngine", "EngineRef", "FusedRound", "resolve_release_source"]


class PrivacyEngine:
    """Batched, spec-driven release engine over one world/policy/mechanism.

    Build it from parts (``PrivacyEngine(world, policy, mechanism)``) when
    you already hold live objects, or declaratively::

        engine = PrivacyEngine.from_spec(
            world, mechanism="planar_laplace", policy="G1", epsilon=1.0
        )
        batch = engine.release_batch(cells, rng=7)     # ReleaseBatch (SoA)
        likelihood = engine.pdf_matrix(batch.points)   # (n, n_cells)
    """

    def __init__(
        self,
        world: GridWorld,
        policy: PolicyGraph,
        mechanism: Mechanism,
        spec: EngineSpec | None = None,
    ) -> None:
        """Wrap live parts into an engine.

        Parameters
        ----------
        world / policy / mechanism:
            Must be mutually consistent — the mechanism has to have been
            built for exactly this world and policy graph (raises
            :class:`~repro.errors.ValidationError` otherwise).
        spec:
            The declarative description this engine was built from, if any;
            kept for manifests (:meth:`describe`) and for pipelines that
            honour a spec-level :class:`~repro.engine.specs.ExecutionSpec`.
        """
        if mechanism.world != world:
            raise ValidationError("mechanism was built for a different world")
        if mechanism.graph != policy:
            raise ValidationError("mechanism was built for a different policy graph")
        self.world = world
        self.policy = policy
        self.mechanism = mechanism
        self.spec = spec

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        world: GridWorld,
        spec: EngineSpec | None = None,
        *,
        mechanism: str = "planar_laplace",
        policy: str = "G1",
        epsilon: float = 1.0,
        mechanism_params: Mapping | None = None,
        policy_params: Mapping | None = None,
        backend: str | None = None,
        shards: int | None = None,
    ) -> "PrivacyEngine":
        """Build an engine from a spec, or from bare registry names.

        Parameters
        ----------
        world:
            The location universe the engine serves.
        spec:
            Prebuilt :class:`EngineSpec`; when given, every other keyword is
            ignored.  Otherwise the keywords assemble one:
            ``PrivacyEngine.from_spec(world, mechanism="planar_laplace",
            policy="G1", epsilon=1.0)``.
        mechanism / policy:
            Registry names or aliases (``"planar_laplace"`` / ``"P-LM"``).
        epsilon:
            Per-release privacy budget (> 0).
        mechanism_params / policy_params:
            Extra keyword arguments for the registered factories.
        backend / shards:
            Optional sharded-execution defaults recorded on the spec
            (see :class:`~repro.engine.specs.ExecutionSpec`); picked up by
            :func:`~repro.server.pipeline.run_release_rounds_batched` when
            the call site does not choose explicitly.

        Returns
        -------
        PrivacyEngine
            A live engine whose ``spec`` attribute records how it was built.
        """
        if spec is None:
            spec = EngineSpec.named(
                mechanism=mechanism,
                policy=policy,
                epsilon=epsilon,
                mechanism_params=mechanism_params,
                policy_params=policy_params,
                backend=backend,
                shards=shards,
            )
        policy_graph = spec.policy.build(world)
        return cls(world, policy_graph, spec.mechanism.build(world, policy_graph), spec=spec)

    # ------------------------------------------------------------------
    # Batched hot path
    # ------------------------------------------------------------------
    def release_batch(
        self,
        cells: Sequence[int],
        rng=None,
        streams: "tuple[Sequence[int], Sequence[int]] | None" = None,
    ) -> ReleaseBatch:
        """Perturb many true locations in one vectorized call.

        Parameters
        ----------
        cells:
            Flat sequence of true cells, all covered by the policy.
        rng:
            Seed source (``None`` / int / generator).
        streams:
            ``(seeds, counts)``, instead of ``rng``: the rows are
            consecutive blocks of ``counts[i]`` rows, and block ``i`` draws
            from ``np.random.default_rng(seeds[i])`` exactly what
            ``release_batch(block_i, rng=seeds[i])`` would.  The sharded
            path releases a whole shard, one stream per user, this way.
            Seeds are integers in ``[0, 2**64)`` and counts non-negative
            integers; anything else raises
            :class:`~repro.errors.MechanismError`.

        Returns
        -------
        ReleaseBatch
            Structure-of-arrays batch: ``points (n, 2)``, ``exact``,
            ``epsilons``, ``cells``.

        Determinism: element-wise identical (same seeded RNG stream) to
        sequential :meth:`release` calls — batching changes throughput, not
        semantics.  For population *rounds*, see
        :func:`~repro.server.pipeline.run_release_rounds_batched`, which can
        additionally shard this call across users.
        """
        return self.mechanism.release_batch(cells, rng=rng, streams=streams)

    def pdf_matrix(
        self, points, cells: Sequence[int] | None = None, dtype=None
    ) -> np.ndarray:
        """Release likelihoods for the adversary / filtering stack.

        Parameters
        ----------
        points:
            ``(m, 2)`` released planar coordinates (a single point is
            auto-promoted).
        cells:
            Candidate true cells; defaults to the whole world.
        dtype:
            Output precision (default float64; ``np.float32`` for the
            adversary's single-precision mode).

        Returns
        -------
        numpy.ndarray
            ``(m, n)`` with ``out[i, j] = pdf(points[i] | cells[j])``;
            disclosable or uncovered cells contribute likelihood 0 (the
            Bayesian-inference convention, not :meth:`pdf`'s raising one).
        """
        return self.mechanism.pdf_matrix(points, cells, dtype=dtype)

    def snap_batch(self, batch: ReleaseBatch) -> np.ndarray:
        """Server-side discretisation: snapped cell ids, one per batch row."""
        return self.world.snap_batch(batch.points)

    def release_round_fused(
        self,
        cells: Sequence[int],
        rng=None,
        *,
        block_rows: int | None = None,
        block_cols: int | None = None,
        users=None,
        times=None,
    ) -> FusedRound:
        """Release, snap, area-code and flow-code one round in one call.

        The staged calls ``release_batch`` -> ``snap_batch`` ->
        ``area_of_batch`` -> flow codes, bundled: the outputs are exactly
        what those calls return on the same RNG stream.

        Parameters
        ----------
        cells / rng:
            As :meth:`release_batch`.
        block_rows / block_cols:
            When given, the snapped cells are also coarse-area coded
            (:meth:`~repro.geo.grid.GridWorld.area_of_batch`) into
            ``FusedRound.areas``.
        users / times:
            Optional per-row user ids and time stamps, in ``(user, time)``
            order.  When given alongside the block shape, consecutive-step
            flow codes (``area[i] * n_areas + area[i+1]``) and their mask
            are computed as well — the exact codes
            :meth:`~repro.epidemic.monitor.LocationMonitor.flows_from_arrays`
            counts.
        """
        # The mechanism's own release_batch, not this engine's, so a traced
        # run counts the round's releases once.
        batch = self.mechanism.release_batch(cells, rng=rng)
        snapped = self.world.snap_batch(batch.points)
        areas = flow_codes = flow_mask = None
        if block_rows is not None and block_cols is not None:
            areas = self.world.area_of_batch(snapped, block_rows, block_cols)
            if users is not None and times is not None and len(batch) > 1:
                users = np.asarray(users, dtype=int)
                times = np.asarray(times, dtype=int)
                n_areas = self.world.n_areas(block_rows, block_cols)
                flow_mask = (users[1:] == users[:-1]) & (times[1:] == times[:-1] + 1)
                flow_codes = areas[:-1] * n_areas + areas[1:]
        return FusedRound(
            batch=batch,
            snapped=snapped,
            areas=areas,
            flow_codes=flow_codes,
            flow_mask=flow_mask,
        )

    # ------------------------------------------------------------------
    # Scalar compatibility wrappers
    # ------------------------------------------------------------------
    def release(self, cell: int, rng=None) -> Release:
        """Release one location (scalar wrapper over the mechanism)."""
        return self.mechanism.release(cell, rng=rng)

    def pdf(self, point, cell: int) -> float:
        """Release density at ``point`` given ``cell`` (scalar wrapper)."""
        return self.mechanism.pdf(point, cell)

    def is_exact(self, cell: int) -> bool:
        """Whether the policy discloses ``cell`` without perturbation."""
        return self.mechanism.is_exact(cell)

    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Per-release privacy budget of the underlying mechanism."""
        return self.mechanism.epsilon

    def describe(self) -> dict:
        """JSON-safe summary, for logs and experiment manifests."""
        summary = {
            "mechanism": self.mechanism.name,
            "policy": self.policy.name,
            "epsilon": self.epsilon,
            "world": [self.world.width, self.world.height],
            "cell_size": self.world.cell_size,
        }
        if self.spec is not None:
            summary["spec"] = self.spec.to_dict()
        return summary

    def __repr__(self) -> str:
        return (
            f"PrivacyEngine(mechanism={self.mechanism.name}, "
            f"policy={self.policy.name!r}, epsilon={self.epsilon}, "
            f"world={self.world.width}x{self.world.height})"
        )


@dataclass
class FusedRound:
    """The outputs of one :meth:`PrivacyEngine.release_round_fused` call.

    ``batch`` carries the release columns in the usual
    :class:`~repro.core.mechanisms.ReleaseBatch` shape.  ``flow_codes`` /
    ``flow_mask`` are present only when the round was asked for flow coding
    (``users=`` / ``times=`` given alongside the block shape):
    ``flow_codes[i] = area[i] * n_areas + area[i+1]`` with ``flow_mask``
    selecting consecutive same-user steps — exactly the codes
    :meth:`~repro.epidemic.monitor.LocationMonitor.flows_from_arrays`
    counts.
    """

    batch: ReleaseBatch
    snapped: np.ndarray
    areas: np.ndarray | None = None
    flow_codes: np.ndarray | None = None
    flow_mask: np.ndarray | None = None

    @property
    def points(self) -> np.ndarray:
        """``(n, 2)`` released coordinates."""
        return self.batch.points

    @property
    def cells(self) -> np.ndarray:
        """``(n,)`` true cells the releases were drawn for."""
        return self.batch.cells

    def __len__(self) -> int:
        return len(self.batch)


#: spec hash -> built engine, per process.  In a worker of the ``pool``
#: backend this cache outlives individual tasks *and* individual runs, which
#: is what amortises engine construction across repeated rounds/sweeps.
_ENGINE_CACHE: dict[str, PrivacyEngine] = {}


class EngineRef:
    """Picklable engine handle: a spec hash instead of a pickled engine.

    Shard tasks used to carry the live :class:`PrivacyEngine`, so every task
    sent to a worker process re-pickled the whole construction state
    (policy graph, cached sensitivities / hulls, the world) on every round.
    An ``EngineRef`` pickles down to the engine's declarative description —
    the canonical :meth:`EngineSpec.to_dict` JSON plus the world dimensions —
    and a deterministic SHA-256 hash of it.  On the receiving side
    :meth:`resolve` rebuilds the engine from that spec **once per process**
    and caches it under the hash, so a long-lived worker (the ``pool``
    backend) constructs each distinct engine exactly once no matter how many
    tasks or rounds it serves.

    Determinism: spec-built engines are pure functions of (spec, world), so
    a worker-rebuilt engine draws exactly the releases the originating
    engine would — the sharded determinism contract is unaffected.

    In-process (the serial backend, or the originating side of the pool
    backend) the live engine is kept and returned directly; only pickling
    drops it.
    """

    __slots__ = ("_engine", "_payload")

    def __init__(self, engine: PrivacyEngine) -> None:
        if engine.spec is None:
            raise ValidationError(
                "EngineRef requires a spec-built engine (engine.spec is None)"
            )
        self._engine: PrivacyEngine | None = engine
        self._payload = (
            json.dumps(engine.spec.to_dict(), sort_keys=True),
            int(engine.world.width),
            int(engine.world.height),
            float(engine.world.cell_size),
        )

    @staticmethod
    def wrap(source):
        """``EngineRef`` for a spec-built engine; anything else unchanged.

        The convenience used by task builders: live mechanisms and spec-less
        engines still travel by value (the pre-ref behaviour), spec-built
        engines travel by reference.
        """
        if isinstance(source, PrivacyEngine) and source.spec is not None:
            return EngineRef(source)
        return source

    @property
    def spec_hash(self) -> str:
        """SHA-256 over (canonical spec JSON, world dims) — the cache key."""
        return hashlib.sha256(repr(self._payload).encode()).hexdigest()

    def resolve(self) -> PrivacyEngine:
        """The live engine: held, cached-by-hash, or rebuilt from the spec."""
        if self._engine is None:
            key = self.spec_hash
            engine = _ENGINE_CACHE.get(key)
            if engine is None:
                spec_json, width, height, cell_size = self._payload
                world = GridWorld(width, height, cell_size=cell_size)
                spec = EngineSpec.from_dict(json.loads(spec_json))
                engine = PrivacyEngine.from_spec(world, spec)
                _ENGINE_CACHE[key] = engine
            self._engine = engine
        return self._engine

    def __getstate__(self) -> dict:
        return {"payload": self._payload}

    def __setstate__(self, state: dict) -> None:
        self._payload = state["payload"]
        self._engine = None

    def __repr__(self) -> str:
        held = "live" if self._engine is not None else "unresolved"
        return f"EngineRef({self.spec_hash[:12]}, {held})"


def resolve_release_source(source):
    """Live release source from a task field: resolve refs, pass the rest.

    Shard tasks may carry a :class:`~repro.core.mechanisms.Mechanism`, a
    :class:`PrivacyEngine`, or an :class:`EngineRef`; scorers call this once
    and then treat the result uniformly (all three expose ``release`` /
    ``release_batch`` / ``pdf_matrix`` / ``world``).
    """
    if isinstance(source, EngineRef):
        return source.resolve()
    return source
