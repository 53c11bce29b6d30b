"""Named policies, mechanisms, and the shared experiment configuration.

The name tables here are *views over the engine registry*
(:mod:`repro.engine.registry`) keyed by the paper's display names — G1, G2,
Ga, Gb, Gc and P-LM / P-PIM / GraphExp / Geo-I — so experiments, the CLI and
the engine all resolve the same specs.  :meth:`ExperimentConfig.make_engine`
is the preferred construction path; :func:`build_policy` /
:func:`build_mechanism` remain as thin wrappers for the seed API.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.core.mechanisms import Mechanism
from repro.core.policy_graph import PolicyGraph
from repro.engine import EngineSpec, PrivacyEngine
from repro.engine.registry import on_policy_registration, resolve_mechanism, resolve_policy
from repro.geo.grid import GridWorld

__all__ = [
    "POLICY_BUILDERS",
    "MECHANISM_FACTORIES",
    "ExperimentConfig",
    "build_policy",
    "build_mechanism",
]


def _policy_builder(name: str) -> Callable[[GridWorld], PolicyGraph]:
    return lambda world: build_policy(name, world)


def _mechanism_factory(name: str) -> Callable[[GridWorld, PolicyGraph, float], Mechanism]:
    return lambda world, policy, epsilon: resolve_mechanism(name)[1](world, policy, epsilon)


#: paper display name -> builder(world), backed by the engine registry.
POLICY_BUILDERS: dict[str, Callable[[GridWorld], PolicyGraph]] = {
    name: _policy_builder(name) for name in ("G1", "G2", "Ga", "Gb", "Gc")
}

#: paper display name -> factory(world, policy, epsilon), backed by the registry.
MECHANISM_FACTORIES: dict[str, Callable[[GridWorld, PolicyGraph, float], Mechanism]] = {
    name: _mechanism_factory(name) for name in ("P-LM", "P-PIM", "GraphExp", "Geo-I")
}


# Small bound: entries pin whole graphs (G2 cliques are quadratic in the
# world size) plus the mechanism caches attached to them, so the cache only
# needs to cover one sweep's working set of (policy, world) pairs.
@lru_cache(maxsize=16)
def _build_policy_cached(canonical_name: str, world: GridWorld) -> PolicyGraph:
    return resolve_policy(canonical_name)[1](world)


# Re-registering a policy name must not serve graphs from the old builder.
on_policy_registration(_build_policy_cached.cache_clear)


def build_policy(name: str, world: GridWorld) -> PolicyGraph:
    """Instantiate a named policy over ``world`` (any registry alias works).

    Memoized per ``(canonical name, world)``: policy graphs are immutable, so
    the harness's ``policy x mechanism x epsilon`` sweeps share one graph
    object per policy instead of rebuilding it on every inner iteration —
    which also lets the mechanisms' per-policy caches (P-LM sensitivities,
    P-PIM hulls) survive across epsilons.
    """
    canonical, _ = resolve_policy(name)
    return _build_policy_cached(canonical, world)


def build_mechanism(name: str, world: GridWorld, policy: PolicyGraph, epsilon: float) -> Mechanism:
    """Instantiate a named mechanism for ``policy`` (any registry alias works)."""
    return resolve_mechanism(name)[1](world, policy, epsilon)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the E1-E8 runners (laptop-scale defaults).

    The defaults keep each runner under a few seconds while preserving the
    qualitative shapes recorded in EXPERIMENTS.md; crank ``world_size``,
    ``n_users`` and ``trials`` for smoother curves.

    ``shard_counts`` and ``backends`` drive the E8 scalability sweep (and any
    runner that calls the sharded release path); ``engine_spec`` — usually
    loaded from a JSON file via the CLI's ``--engine-spec`` — pins the whole
    sweep to one declarative engine (see :meth:`with_engine_spec`).

    ``eval_shards`` / ``eval_backend`` set the shard count and execution
    backend of the *evaluation* layer (the E1 / E2 / E3 / E4 / E5 / E11
    metric runners, see ``docs/scaling.md``): ``None`` / ``None``
    (default) means one serial shard.  Metrics always score
    per-user / per-slot RNG streams, so results are invariant under both
    fields.  The CLI maps ``repro experiment e1 --shards N --backend B``
    onto these fields.

    ``float32`` runs the Bayesian attacker's batched GEMMs in single
    precision (~``1e-3`` relative tolerance on adversary metrics; see
    :class:`~repro.adversary.inference.BayesianAttacker`).  The CLI maps
    ``--float32`` onto this field.

    ``store_path`` / ``resume`` make E8 additionally measure *durable*
    ingest: each sweep combination re-runs store-backed against a
    :class:`~repro.store.TraceStore` at that path (committing every shard
    transactionally, see ``docs/persistence.md``) and reports the durable
    throughput next to the in-memory one.  ``resume=True`` continues an
    interrupted store-backed run instead of starting fresh.  The CLI maps
    ``repro experiment e8 --store PATH [--resume]`` onto these fields.

    ``live_metrics`` attaches the default
    :mod:`~repro.server.live_metrics` views to E8's sharded release runs
    and reports, per sweep combination, whether every per-round live
    snapshot equals a from-scratch batch recompute bitwise plus the live
    query speedup over that recompute.  The CLI maps
    ``repro experiment e8 --live-metrics`` onto this field.
    """

    world_size: int = 12
    cell_size: float = 1.0
    epsilons: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0)
    policies: tuple[str, ...] = ("G1", "Gb", "Ga", "G2")
    mechanisms: tuple[str, ...] = ("P-LM", "P-PIM")
    n_users: int = 30
    horizon: int = 72
    trials: int = 3
    seed: int = 2020
    dataset: str = "geolife"
    p_transmit: float = 0.3
    sigma: float = 0.25
    gamma: float = 0.1
    tracing_window: int = 72
    monitor_block: tuple[int, int] = (4, 4)
    shard_counts: tuple[int, ...] = (1, 2, 4)
    backends: tuple[str, ...] = ("serial", "pool")
    eval_shards: int | None = None
    eval_backend: str | None = None
    store_path: str | None = None
    resume: bool = False
    live_metrics: bool = False
    float32: bool = False
    engine_spec: EngineSpec | None = field(default=None, compare=False)

    def make_world(self) -> GridWorld:
        return GridWorld(self.world_size, self.world_size, cell_size=self.cell_size)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def make_engine(
        self,
        mechanism: str | None = None,
        policy: str | None = None,
        epsilon: float | None = None,
        world: GridWorld | None = None,
    ) -> PrivacyEngine:
        """Spec-built engine using this config's defaults for omitted parts.

        When the config carries an ``engine_spec`` and no explicit
        mechanism/policy/epsilon override is given, the engine is built from
        that spec verbatim (including mechanism params and any execution
        block).  Otherwise defaults come from the config's sweep lists (first
        mechanism/policy, first epsilon), so ``config.make_engine()`` is
        always runnable.
        """
        target_world = world if world is not None else self.make_world()
        if self.engine_spec is not None and mechanism is None and policy is None and epsilon is None:
            return PrivacyEngine.from_spec(target_world, self.engine_spec)
        return PrivacyEngine.from_spec(
            target_world,
            mechanism=mechanism if mechanism is not None else self.mechanisms[0],
            policy=policy if policy is not None else self.policies[0],
            epsilon=epsilon if epsilon is not None else self.epsilons[0],
        )

    def with_engine_spec(self, spec: EngineSpec) -> "ExperimentConfig":
        """This config with every sweep pinned to one declarative engine.

        The spec's canonical mechanism/policy become the (single-element)
        sweep lists and its epsilon the only budget.  Runners that build
        engines through :meth:`make_engine` (E8) evaluate the spec verbatim,
        including mechanism/policy params; the name-based E1-E7 sweeps
        honour the names and epsilon only — factory params do not flow
        through ``build_mechanism``/``build_policy`` (the CLI warns when
        that would drop anything).  A spec carrying an
        :class:`~repro.engine.specs.ExecutionSpec` also pins the E8 backend
        sweep to its backend and folds its shard count into ``shard_counts``
        (keeping the 1-shard baseline for the determinism check).
        """
        overrides: dict = {
            "mechanisms": (spec.mechanism.canonical_name,),
            "policies": (spec.policy.canonical_name,),
            "epsilons": (float(spec.mechanism.epsilon),),
            "engine_spec": spec,
        }
        if spec.execution is not None:
            overrides["backends"] = (spec.execution.canonical_name,)
            overrides["shard_counts"] = tuple(sorted({1, int(spec.execution.shards)}))
            if spec.execution.store is not None:
                overrides["store_path"] = spec.execution.store
                overrides["resume"] = bool(spec.execution.resume)
            if spec.execution.live_metrics:
                overrides["live_metrics"] = True
        return replace(self, **overrides)
