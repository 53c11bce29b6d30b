"""Resume validation: the manifest a store records about the run it holds.

Every shard of a store-backed run is a pure function of ``(engine spec,
per-user seed streams, true traces)``, so *recovery is re-derivation*: a
resumed run simply re-runs the shards whose ``(shard, round)`` commit marks
are missing and is bit-identical to the uninterrupted run.  That only holds
if the resumed run really is the same function — same engine spec, same
world, same per-user seeds, same partition.  :class:`RunManifest` captures
exactly that identity:

* ``spec_hash`` — SHA-256 over the engine's canonical description (mechanism
  name, policy name, epsilon, spec dict when present, world geometry);
* ``plan_fingerprint`` — SHA-256 over the shard plan's sorted user list,
  per-user seed streams, and shard count (the *seed material*: a different
  parent ``rng`` or population yields a different fingerprint);
* the population / shard / world shape, kept as discrete fields so a
  mismatch can name what differs.

:meth:`TraceStore.begin_run <repro.store.store.TraceStore.begin_run>` writes
the manifest on first use and validates it on reopen, raising
:class:`~repro.errors.ResumeMismatchError` with the differing fields when a
resume would silently re-run a different experiment.

The same transaction records the run's coverage schedule — ``shard ->
rounds`` it will commit — and :class:`Coverage` is the one implementation
of the rule every reader of a run follows: a round may be seen only once
every shard scheduled at or before it has committed.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping

from repro.errors import ResumeMismatchError

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.engine.engine import PrivacyEngine
    from repro.engine.sharding import ShardPlan
    from repro.geo.grid import GridWorld

__all__ = ["Coverage", "RunManifest", "engine_spec_hash"]


def engine_spec_hash(engine: "PrivacyEngine") -> str:
    """Deterministic SHA-256 identity of an engine's *output-relevant* parts.

    Hashes :meth:`~repro.engine.engine.PrivacyEngine.describe` — mechanism
    name, policy name, epsilon, world geometry, and the canonical spec dict
    when the engine was spec-built — with the spec's ``execution`` block
    stripped first.  Execution (backend, shard count, store/resume wiring)
    is pure run control: per-user RNG streams make released values invariant
    under it, so a run committed with ``backend="serial"`` may legitimately
    resume with ``backend="pool"``.  Shard count *does* change the commit
    granularity, but that is covered by the plan fingerprint, which the
    manifest records separately.
    """
    description = engine.describe()
    spec = description.get("spec")
    if spec is not None:
        spec = dict(spec)
        spec.pop("execution", None)
        description = {**description, "spec": spec}
    payload = json.dumps(description, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """The identity a store records for its run (all resume preconditions)."""

    spec_hash: str
    plan_fingerprint: str
    n_users: int
    n_shards: int
    world_width: int
    world_height: int
    cell_size: float

    @classmethod
    def for_run(
        cls, engine: "PrivacyEngine", plan: "ShardPlan", world: "GridWorld"
    ) -> "RunManifest":
        """Manifest for one store-backed sharded run."""
        return cls(
            spec_hash=engine_spec_hash(engine),
            plan_fingerprint=plan.fingerprint,
            n_users=len(plan.users),
            n_shards=int(plan.n_shards),
            world_width=int(world.width),
            world_height=int(world.height),
            cell_size=float(world.cell_size),
        )

    # ------------------------------------------------------------------
    def as_meta(self) -> dict[str, str]:
        """String key/value pairs for the store's ``meta`` table."""
        return {field.name: str(getattr(self, field.name)) for field in fields(self)}

    @classmethod
    def from_meta(cls, meta: Mapping[str, str]) -> "RunManifest | None":
        """Rebuild from ``meta`` rows; ``None`` when no manifest was recorded."""
        if "spec_hash" not in meta:
            return None
        return cls(
            spec_hash=meta["spec_hash"],
            plan_fingerprint=meta["plan_fingerprint"],
            n_users=int(meta["n_users"]),
            n_shards=int(meta["n_shards"]),
            world_width=int(meta["world_width"]),
            world_height=int(meta["world_height"]),
            cell_size=float(meta["cell_size"]),
        )

    def check_against(self, recorded: "RunManifest", path: str) -> None:
        """Raise :class:`ResumeMismatchError` naming every differing field."""
        diffs = [
            f"{field.name}: run has {getattr(self, field.name)!r}, "
            f"store recorded {getattr(recorded, field.name)!r}"
            for field in fields(self)
            if getattr(self, field.name) != getattr(recorded, field.name)
        ]
        if diffs:
            raise ResumeMismatchError(
                f"store {path!r} was recorded for a different run; resuming "
                f"would not reproduce it ({'; '.join(diffs)}).  Use a fresh "
                "store path, or re-run with the original spec and seed."
            )


class Coverage:
    """One run's coverage schedule and its frontier: the freeze rule.

    The schedule maps each shard to the rounds it will commit
    (:func:`~repro.server.live_metrics.expected_coverage`; shards with no
    rows are left out).  A round is *complete* once every shard scheduled
    at it has committed it, and the *frontier* is the last round through
    which every scheduled round is complete.  Readers see rounds up to the
    frontier and nothing past it: the live registry freezes rounds as the
    frontier passes them, :class:`~repro.query.QueryEngine` refuses
    windows that reach beyond it, and a resumed run replays every shard
    that owes nothing.

    The type does no I/O: callers feed it committed ``(shard, round)``
    pairs through :meth:`commit`.  Commit marks are only ever added, so the
    frontier only advances and a complete round never reopens.  The store
    writes a round's accelerator block in the commit that passes the
    frontier over it (:meth:`first_owed_after`).
    """

    def __init__(self, schedule: Mapping[int, AbstractSet[int]]) -> None:
        self.schedule: Mapping[int, frozenset[int]] = MappingProxyType(
            {
                int(shard): frozenset(int(time) for time in rounds)
                for shard, rounds in schedule.items()
                if rounds
            }
        )
        self._owed: dict[int, set[int]] = {}  # round -> shards yet to commit it
        for shard, rounds in self.schedule.items():
            for time in rounds:
                self._owed.setdefault(time, set()).add(shard)
        self.rounds: tuple[int, ...] = tuple(sorted(self._owed))
        self._complete = 0  # rounds[:_complete] are complete

    def __contains__(self, time: int) -> bool:
        """Whether ``time`` is a scheduled round."""
        return time in self._owed

    def commit(self, pairs: "Iterable[tuple[int, int]]") -> tuple[int, ...]:
        """Mark ``(shard, round)`` pairs committed; return the rounds completed.

        Pairs the schedule does not hold and pairs already marked change
        nothing, so a reader may pass a store's whole mark set each time.
        The returned rounds are the ones the frontier passed, ascending.
        """
        owed = self._owed
        for shard, time in pairs:
            shards = owed.get(time)
            if shards is not None:
                shards.discard(shard)
        start = self._complete
        while self._complete < len(self.rounds) and not owed[self.rounds[self._complete]]:
            self._complete += 1
        return self.rounds[start : self._complete]

    def first_owed_after(self, pairs: "Iterable[tuple[int, int]]") -> "int | None":
        """The first round still owed once ``pairs`` commit, without committing them.

        After :meth:`commit` of the same pairs, :meth:`complete_through`
        holds exactly for the rounds before it, or for every round when
        this is ``None``.  The store asks this inside a commit's
        transaction, before the pairs are durable.
        """
        arriving: dict[int, int] = {}
        for shard, time in pairs:
            if shard in self._owed.get(time, ()):
                arriving[time] = arriving.get(time, 0) + 1
        for time in self.rounds[self._complete :]:
            if len(self._owed[time]) > arriving.get(time, 0):
                return time
        return None

    @property
    def frozen_rounds(self) -> tuple[int, ...]:
        """The complete rounds, ascending."""
        return self.rounds[: self._complete]

    @property
    def frontier(self) -> "int | None":
        """The last complete round (``None`` before the first completes)."""
        return self.rounds[self._complete - 1] if self._complete else None

    def complete_through(self, upto: int) -> bool:
        """Whether every scheduled round ``<= upto`` is complete."""
        return bisect_right(self.rounds, upto) <= self._complete

    def missing(self, upto: "int | None" = None) -> list[int]:
        """Shards still owed a commit at a round ``<= upto`` (any round if ``None``)."""
        stop = len(self.rounds) if upto is None else bisect_right(self.rounds, upto)
        pending = self.rounds[self._complete : stop]
        return sorted(set().union(*(self._owed[time] for time in pending)))

    def check_against(self, recorded: "Coverage", path: str) -> None:
        """Raise :class:`ResumeMismatchError` naming the first shard that differs."""
        for shard in sorted(set(self.schedule) | set(recorded.schedule)):
            ours = sorted(self.schedule.get(shard, ()))
            theirs = sorted(recorded.schedule.get(shard, ()))
            if ours != theirs:
                raise ResumeMismatchError(
                    f"store {path!r} recorded a different coverage schedule: "
                    f"shard {shard} commits rounds {ours} in this run, the store "
                    f"recorded {theirs}.  The true traces differ; use a fresh "
                    "store path, or re-run with the original traces."
                )
