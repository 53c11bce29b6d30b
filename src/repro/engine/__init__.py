"""Batched, spec-driven release API — the system's scaling front door.

The seed reproduced the paper's mechanisms faithfully but served them one
scalar ``release()`` at a time.  This package turns the public API around a
population-scale engine:

* :class:`PrivacyEngine` — facade built from declarative specs, exposing
  vectorized :meth:`~PrivacyEngine.release_batch` (structure-of-arrays
  :class:`~repro.core.mechanisms.ReleaseBatch`) and
  :meth:`~PrivacyEngine.pdf_matrix`;
* :class:`EngineSpec` / :class:`MechanismSpec` / :class:`PolicySpec` /
  :class:`ExecutionSpec` — plain-data descriptions resolved through the
  string-name registry;
* :mod:`~repro.engine.registry` — one source of truth for mechanism and
  policy names shared by experiments, the CLI, and saved configs;
* :class:`ShardPlan` + :func:`stream_shard_releases` — deterministic
  population sharding with per-user RNG streams, executed on a pluggable
  :class:`ExecutionBackend`
  (in-process ``serial`` / long-lived process ``pool``, which reruns the
  shards a dead worker took down) so one seeded run
  reproduces element-wise at any shard count.  The evaluators shard their
  work keys (users, or E4's trial slots) over the same plans and
  backends, and fold the shards' results in shard order;
* :meth:`PrivacyEngine.release_round_fused` — release → snap → area →
  flow coding in one call (a :class:`FusedRound`).
"""

from repro.engine.backends import (
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    backend_names,
    ensure_backend,
    owned_backend,
    register_backend,
    resolve_backend,
)
from repro.engine.engine import EngineRef, FusedRound, PrivacyEngine, resolve_release_source
from repro.engine.registry import (
    mechanism_names,
    policy_names,
    register_mechanism,
    register_policy,
    resolve_mechanism,
    resolve_policy,
)
from repro.engine.sharding import ShardPlan, stream_shard_releases
from repro.engine.specs import EngineSpec, ExecutionSpec, MechanismSpec, PolicySpec


__all__ = [
    "PrivacyEngine",
    "EngineRef",
    "resolve_release_source",
    "EngineSpec",
    "MechanismSpec",
    "PolicySpec",
    "ExecutionSpec",
    "ShardPlan",
    "stream_shard_releases",
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "register_mechanism",
    "register_policy",
    "register_backend",
    "resolve_mechanism",
    "resolve_policy",
    "resolve_backend",
    "ensure_backend",
    "owned_backend",
    "mechanism_names",
    "policy_names",
    "backend_names",
    "FusedRound",
]
