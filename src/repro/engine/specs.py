"""Declarative specs for building engines: what to run, by name.

A spec is plain data — mechanism/policy/backend names from the registries, a
privacy budget, optional keyword parameters — so experiment configurations,
CLI invocations and saved JSON files all describe an engine the same way,
and :class:`~repro.engine.engine.PrivacyEngine` is the only place that turns
the description into live objects.  The optional :class:`ExecutionSpec`
block extends the same idea to *how* release rounds run (shard count and
execution backend); the JSON wire format is documented in
``docs/engine_specs.md``.  :meth:`EngineSpec.from_dict` refuses a key it
does not know, naming it, so a misspelt or retired setting fails loudly
instead of silently running with its default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

from repro.core.mechanisms import Mechanism
from repro.core.policy_graph import PolicyGraph
from repro.engine.backends import ExecutionBackend, ensure_backend, resolve_backend
from repro.engine.registry import resolve_mechanism, resolve_policy
from repro.errors import ValidationError
from repro.geo.grid import GridWorld
from repro.utils.validation import check_bool, check_epsilon, check_integer

__all__ = ["MechanismSpec", "PolicySpec", "ExecutionSpec", "EngineSpec"]


@dataclass(frozen=True)
class PolicySpec:
    """A named policy plus optional builder parameters."""

    name: str
    params: Mapping = field(default_factory=dict)

    def build(self, world: GridWorld) -> PolicyGraph:
        """Instantiate the policy over ``world`` (params forwarded)."""
        _, builder = resolve_policy(self.name)
        return builder(world, **dict(self.params))

    @property
    def canonical_name(self) -> str:
        """Registry-canonical spelling of :attr:`name` (aliases resolved)."""
        return resolve_policy(self.name)[0]


@dataclass(frozen=True)
class MechanismSpec:
    """A named mechanism, its privacy budget, and optional parameters."""

    name: str
    epsilon: float = 1.0
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)

    def build(self, world: GridWorld, policy: PolicyGraph) -> Mechanism:
        """Instantiate the mechanism for ``policy`` over ``world``."""
        _, factory = resolve_mechanism(self.name)
        return factory(world, policy, self.epsilon, **dict(self.params))

    @property
    def canonical_name(self) -> str:
        """Registry-canonical spelling of :attr:`name` (aliases resolved)."""
        return resolve_mechanism(self.name)[0]


@dataclass(frozen=True)
class ExecutionSpec:
    """How release rounds should run: shard count and backend.

    ``shards`` is a Python or numpy int >= 1; a bool, a float or any other
    type raises :class:`~repro.errors.ValidationError` instead of being
    truncated.  ``backend`` is a registry name (``"serial"``, ``"pool"``,
    or anything added via :func:`~repro.engine.backends.register_backend`);
    ``params`` are forwarded to the backend factory — ``max_workers`` for
    the process ``pool``, none for ``serial``.  :meth:`build` refuses a
    name the backend does not take with
    :class:`~repro.errors.ValidationError`.
    Execution never affects the released values — per-user RNG streams make
    output invariant under sharding (see :mod:`repro.engine.sharding`), and
    the pool's reruns after a worker death re-run pure shard tasks
    bit-identically — so this is a pure throughput knob that can live in a
    saved spec file.

    ``store`` / ``resume`` extend the block to durability: a store path
    makes :func:`~repro.server.pipeline.run_release_rounds_batched` commit
    every shard transactionally into a
    :class:`~repro.store.TraceStore` at that path, and ``resume=True``
    continues an interrupted run recorded there (see
    ``docs/persistence.md``).  Like the rest of the block these are run
    control, not engine identity — the resume spec hash deliberately
    excludes them (:func:`~repro.store.resume.engine_spec_hash`).

    ``live_metrics`` attaches the default
    :mod:`~repro.server.live_metrics` views (monitoring utility, contact
    rate, flow matrices) to the server so every committed shard folds into
    snapshot-consistent per-round aggregates queryable via
    ``Server.metrics_at``.  Observability only — released values are
    untouched — so the resume spec hash excludes it too.

    ``resume`` and ``live_metrics`` must be Python or numpy bools and
    ``store`` a string or ``None``; anything else (a JSON ``"false"``, a
    ``1``) raises :class:`~repro.errors.ValidationError` naming the field
    instead of being read by its truthiness.
    """

    backend: str = "serial"
    shards: int = 1
    params: Mapping = field(default_factory=dict)
    store: str | None = None
    resume: bool = False
    live_metrics: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", check_integer("shards", self.shards, minimum=1))
        if self.store is not None and not isinstance(self.store, str):
            raise ValidationError(
                f"store must be a path string or None, got {type(self.store).__name__}"
            )
        for name in ("resume", "live_metrics"):
            object.__setattr__(self, name, check_bool(name, getattr(self, name)))
        if self.resume and self.store is None:
            raise ValidationError("resume=True requires a store path")

    def build(self) -> ExecutionBackend:
        """Instantiate the named backend with this spec's params."""
        return ensure_backend(self.backend, **dict(self.params))

    @property
    def canonical_name(self) -> str:
        return resolve_backend(self.backend)[0]


@dataclass(frozen=True)
class EngineSpec:
    """Everything needed to build a :class:`PrivacyEngine` except the world.

    ``execution`` is optional: ``None`` (the default) means the defaults of
    an empty :class:`ExecutionSpec` — one serial shard, in memory.  A
    populated block makes
    :func:`~repro.server.pipeline.run_release_rounds_batched` run with its
    settings wherever the call site leaves an argument unset.
    """

    mechanism: MechanismSpec
    policy: PolicySpec
    execution: ExecutionSpec | None = None

    @classmethod
    def named(
        cls,
        mechanism: str,
        policy: str,
        epsilon: float = 1.0,
        mechanism_params: Mapping | None = None,
        policy_params: Mapping | None = None,
        backend: str | None = None,
        shards: int | None = None,
        backend_params: Mapping | None = None,
        store: str | None = None,
        resume: bool = False,
        live_metrics: bool = False,
    ) -> "EngineSpec":
        """Spec from bare names — the common construction path.

        ``backend`` / ``shards`` / ``backend_params`` / ``store`` /
        ``resume`` / ``live_metrics`` are optional; providing any of them
        attaches an :class:`ExecutionSpec` (missing pieces take the serial /
        1-shard / in-memory defaults).
        """
        execution = None
        if (
            backend is not None
            or shards is not None
            or backend_params is not None
            or store is not None
            or resume
            or live_metrics
        ):
            execution = ExecutionSpec(
                backend=backend if backend is not None else "serial",
                shards=shards if shards is not None else 1,
                params=dict(backend_params or {}),
                store=store,
                resume=resume,
                live_metrics=live_metrics,
            )
        return cls(
            mechanism=MechanismSpec(
                name=mechanism, epsilon=epsilon, params=dict(mechanism_params or {})
            ),
            policy=PolicySpec(name=policy, params=dict(policy_params or {})),
            execution=execution,
        )

    def to_dict(self) -> dict:
        """JSON-safe representation (canonical names, for persistence).

        The ``execution`` key is present only when the spec carries one, so
        spec files written before sharding existed round-trip unchanged.
        """
        payload = {
            "mechanism": {
                "name": self.mechanism.canonical_name,
                "epsilon": self.mechanism.epsilon,
                "params": dict(self.mechanism.params),
            },
            "policy": {
                "name": self.policy.canonical_name,
                "params": dict(self.policy.params),
            },
        }
        if self.execution is not None:
            execution = {
                "backend": self.execution.canonical_name,
                "shards": int(self.execution.shards),
                "params": dict(self.execution.params),
            }
            # Durability keys appear only when set, so spec files written
            # before the store subsystem existed round-trip unchanged.
            if self.execution.store is not None:
                execution["store"] = self.execution.store
                if self.execution.resume:
                    execution["resume"] = True
            # Observability key, same round-trip rule: present only when on.
            if self.execution.live_metrics:
                execution["live_metrics"] = True
            payload["execution"] = execution
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "EngineSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON).

        The accepted keys of the top level and of the ``mechanism``,
        ``policy`` and ``execution`` blocks are the fields of the matching
        dataclass, so ``dataclasses.asdict`` output loads too.  Any other
        key raises :class:`~repro.errors.ValidationError` naming the block
        and the key; the ``params`` mappings stay free-form.
        """
        _check_block("engine spec", payload, cls, ("mechanism", "policy"))
        mechanism = _check_block("mechanism", payload["mechanism"], MechanismSpec, ("name",))
        policy = _check_block("policy", payload["policy"], PolicySpec, ("name",))
        execution = payload.get("execution")
        if execution is not None:
            _check_block("execution", execution, ExecutionSpec, ())
        return cls(
            mechanism=MechanismSpec(
                name=mechanism["name"],
                epsilon=float(mechanism.get("epsilon", 1.0)),
                params=dict(mechanism.get("params", {})),
            ),
            policy=PolicySpec(
                name=policy["name"], params=dict(policy.get("params", {}))
            ),
            execution=None
            if execution is None
            else ExecutionSpec(
                backend=execution.get("backend", "serial"),
                shards=execution.get("shards", 1),
                params=dict(execution.get("params", {})),
                store=execution.get("store"),
                resume=execution.get("resume", False),
                live_metrics=execution.get("live_metrics", False),
            ),
        )


def _check_block(block: str, payload, spec_type: type, required: tuple[str, ...]) -> Mapping:
    """``payload`` if it is a mapping with only ``spec_type``'s field names.

    Raises :class:`~repro.errors.ValidationError` naming ``block`` for a
    non-mapping, an unknown key, or a missing ``required`` key.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError(
            f"{block} block must be a mapping, got {type(payload).__name__}"
        )
    allowed = {spec_field.name for spec_field in fields(spec_type)}
    unknown = sorted(str(key) for key in payload if key not in allowed)
    if unknown:
        raise ValidationError(
            f"{block} block has unknown keys {unknown}; accepted keys: {sorted(allowed)}"
        )
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValidationError(f"{block} block is missing keys {missing}")
    return payload
