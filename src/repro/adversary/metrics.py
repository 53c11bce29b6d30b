"""Monte-Carlo privacy and utility metrics over mechanisms.

These are the quantities plotted in the demo's privacy-utility panels:

* :func:`utility_error`   — mean Euclidean distance between released and true
  locations (evaluation 1 of Sec. 3.2);
* :func:`adversary_error` — mean realised error of the Bayesian attacker [15]
  (evaluation 3);
* :func:`expected_inference_error` — the attacker's own expected loss,
  a sample-free lower-variance companion to :func:`adversary_error`.

Each metric is batch-first: the ``len(cells) * trials_per_cell`` releases are
drawn in one :meth:`~repro.core.mechanisms.Mechanism.release_batch` call (the
cell-major order of the scalar loops, so the seeded RNG stream is identical)
and scored through the attacker's batched posterior machinery.
``batched=False`` keeps the scalar per-release reference loop.

Each metric also scales *across cells*: passing ``shards=`` / ``backend=``
routes the trial grid over a deterministic
:class:`~repro.engine.sharding.ShardPlan` whose work keys are the **trial
slots** (positions in ``true_cells``) — one RNG stream per slot, spawned
over the global slot order — executed on any registered
:class:`~repro.engine.backends.ExecutionBackend` and folded with the exact
merge of :mod:`repro.engine.distributed`.  Sharded results are therefore
bit-identical for every shard count and backend (and match the sharded
scalar reference to float round-off), though not equal to the unsharded
single-stream draw — the two layouts consume ``rng`` differently, exactly
as in the sharded release pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adversary.inference import BayesianAttacker
from repro.core.mechanisms.base import Mechanism, ReleaseBatch
from repro.errors import ValidationError
from repro.geo.distance import euclidean
from repro.geo.grid import GridWorld
from repro.utils.rng import ensure_rng

__all__ = ["utility_error", "adversary_error", "expected_inference_error"]


def _check_cells(world: GridWorld, cells: Sequence[int]) -> list[int]:
    if len(cells) == 0:
        raise ValidationError("need at least one true cell")
    return [world.check_cell(cell) for cell in cells]


def _trial_cells(cells: list[int], trials_per_cell: int) -> np.ndarray:
    """The scalar loops' draw order — each cell repeated ``trials_per_cell``x."""
    return np.repeat(np.asarray(cells, dtype=int), trials_per_cell)


# ----------------------------------------------------------------------
# Shard-parallel path (E4-class metrics over ShardPlan + ExecutionBackend)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TrialShardTask:
    """One shard of the trial grid: its slots' cells, streams, and scoring kind.

    Plain data plus the release source, so the pool backend can pickle it;
    ``source`` is an :class:`~repro.engine.EngineRef` for spec-built engines
    (workers rebuild and cache by spec hash) or the live mechanism.
    ``kind`` selects the scorer: ``"utility"`` (Euclidean error to the true
    centre), ``"adversary"`` (attacker's realised inference error), or
    ``"expected"`` (attacker's expected loss).
    """

    source: object
    kind: str
    prior: np.ndarray | None
    cells: tuple[int, ...]
    seeds: tuple[int, ...]
    trials: int
    batched: bool
    float32: bool = False


def _score_trial_shard(task: _TrialShardTask):
    """Score one shard's trial slots on their own streams (module-level for pickling).

    Each slot draws its ``trials`` releases from its own seed stream — one
    vectorized ``release_batch`` call per slot when ``task.batched``, the
    scalar ``release`` loop otherwise (same stream, so the same points to
    float identity).  Batched scoring then runs over the whole shard at
    once: the per-slot draws are concatenated into a single
    :class:`~repro.core.mechanisms.ReleaseBatch` and pushed through the
    attacker's batched posterior machinery in one matrix pass (scoring is
    row-independent, so this cannot change any value).  Returns per-slot
    error sums as a :class:`~repro.engine.distributed.MetricShardResult`.
    """
    from repro.engine import resolve_release_source
    from repro.engine.distributed import MetricShardResult

    source = resolve_release_source(task.source)
    world = source.world
    n_slots, trials = len(task.cells), task.trials
    n = n_slots * trials
    cells_rows = np.repeat(np.asarray(task.cells, dtype=int), trials)
    attacker = None
    if task.kind != "utility":
        attacker = BayesianAttacker(
            world, source, prior=task.prior, float32=task.float32
        )

    errors = np.empty(n, dtype=float)
    if task.batched:
        points = np.empty((n, 2), dtype=float)
        exact = np.empty(n, dtype=bool)
        epsilons = np.empty(n, dtype=float)
        mechanism = ""
        for index, (cell, seed) in enumerate(zip(task.cells, task.seeds)):
            batch = source.release_batch(
                [cell] * trials, rng=np.random.default_rng(seed)
            )
            start = index * trials
            points[start : start + trials] = batch.points
            exact[start : start + trials] = batch.exact
            epsilons[start : start + trials] = batch.epsilons
            mechanism = batch.mechanism
        merged = ReleaseBatch(
            points=points, exact=exact, epsilons=epsilons, cells=cells_rows, mechanism=mechanism
        )
        if task.kind == "utility":
            centres = world.coords_array(cells_rows)
            errors = np.hypot(points[:, 0] - centres[:, 0], points[:, 1] - centres[:, 1])
        elif task.kind == "adversary":
            errors = attacker.inference_error_batch(merged, cells_rows)
        else:
            errors = attacker.expected_error_batch(merged)
    else:  # scalar reference: per-release draws *and* per-release scoring
        for index, (cell, seed) in enumerate(zip(task.cells, task.seeds)):
            generator = np.random.default_rng(seed)
            for trial in range(trials):
                release = source.release(cell, rng=generator)
                row = index * trials + trial
                if task.kind == "utility":
                    errors[row] = euclidean(release.point, world.coords(cell))
                elif task.kind == "adversary":
                    errors[row] = attacker.inference_error(release, cell)
                else:
                    errors[row] = attacker.expected_error(release)

    return MetricShardResult(
        sums={"error": errors.reshape(n_slots, trials).sum(axis=1)},
        counts=np.full(n_slots, trials, dtype=int),
        flows={},
    )


def _sharded_trial_metric(
    kind: str,
    world: GridWorld,
    mechanism,
    cells: list[int],
    prior: np.ndarray | None,
    rng,
    trials_per_cell: int,
    batched: bool,
    shards: int | None,
    backend,
    float32: bool = False,
) -> float:
    """Common driver for the three sharded trial metrics (see module docs)."""
    from repro.engine import EngineRef
    from repro.engine.distributed import sharded_metric, slot_plan

    # Workers score against the release source's own world; refuse a
    # mismatched explicit world instead of silently diverging from the
    # unsharded path (which uses the passed world throughout).
    if mechanism.world != world:
        raise ValidationError("mechanism was built for a different world")
    plan = slot_plan(len(cells), 1 if shards is None else int(shards), rng=rng)
    source = EngineRef.wrap(mechanism)
    tasks = [
        _TrialShardTask(
            source=source,
            kind=kind,
            prior=prior,
            cells=tuple(cells[slot] for slot in slots),
            seeds=seeds,
            trials=int(trials_per_cell),
            batched=batched,
            float32=bool(float32),
        )
        for _, slots, seeds in plan.iter_shards()
    ]
    merged = sharded_metric(_score_trial_shard, tasks, backend=backend)
    return merged.weighted_mean("error")


def _attacker_prior(
    prior: np.ndarray | None, attacker: BayesianAttacker | None
) -> np.ndarray | None:
    """The prior a sharded run forwards to its per-shard attackers.

    Sharded execution builds one attacker per shard *inside the workers*
    (the distance-matrix cache then lives — and persists, under the pool
    backend — in each worker process), so a caller-supplied ``attacker``
    instance cannot be used directly; its prior is forwarded instead.
    """
    if prior is not None:
        return prior
    if attacker is not None:
        return attacker.prior
    return None


def utility_error(
    world: GridWorld,
    mechanism: Mechanism,
    true_cells: Sequence[int],
    rng=None,
    trials_per_cell: int = 1,
    batched: bool = True,
    shards: int | None = None,
    backend=None,
) -> float:
    """Mean Euclidean error of releases over ``true_cells``.

    Exact (policy-disclosed) releases contribute zero error, matching the
    demo's utility display where disclosable locations pass through.

    Parameters
    ----------
    world:
        Location universe supplying cell centres.
    mechanism:
        The release mechanism to score (a spec-built
        :class:`~repro.engine.PrivacyEngine` is also accepted; with
        ``backend="pool"`` shard tasks then travel as spec hashes).
    true_cells:
        Cells to evaluate; each is released ``trials_per_cell`` times.
    rng:
        Seed source.  Unsharded runs draw all trials from one stream in
        cell-major order; sharded runs spawn one child stream per trial
        slot (position in ``true_cells``) from it.
    trials_per_cell:
        Monte-Carlo repetitions per cell.
    batched:
        ``True`` scores vectorized draws; ``False`` runs the scalar
        per-release reference loop on the same stream(s) — the two agree to
        float round-off in either layout.
    shards / backend:
        ``None`` / ``None`` keeps the single-process paths.  Providing
        either shards the trial grid over a
        :class:`~repro.engine.sharding.ShardPlan` + backend; sharded output
        is bit-identical for every shard count and registered backend.

    Returns
    -------
    float
        Mean Euclidean error over all ``len(true_cells) * trials_per_cell``
        releases.
    """
    cells = _check_cells(world, true_cells)
    if shards is not None or backend is not None:
        return _sharded_trial_metric(
            "utility", world, mechanism, cells, None, rng,
            trials_per_cell, batched, shards, backend,
        )
    generator = ensure_rng(rng)
    if not batched:
        total = 0.0
        count = 0
        for cell in cells:
            for _ in range(trials_per_cell):
                release = mechanism.release(cell, rng=generator)
                total += euclidean(release.point, world.coords(cell))
                count += 1
        return total / count
    trial_cells = _trial_cells(cells, trials_per_cell)
    batch = mechanism.release_batch(trial_cells, rng=generator)
    centres = world.coords_array(trial_cells)
    errors = np.hypot(
        batch.points[:, 0] - centres[:, 0], batch.points[:, 1] - centres[:, 1]
    )
    return float(errors.sum()) / len(errors)


def adversary_error(
    world: GridWorld,
    mechanism: Mechanism,
    true_cells: Sequence[int],
    prior: np.ndarray | None = None,
    rng=None,
    trials_per_cell: int = 1,
    attacker: BayesianAttacker | None = None,
    batched: bool = True,
    shards: int | None = None,
    backend=None,
    float32: bool = False,
) -> float:
    """Mean realised inference error of the Bayesian attacker.

    For each true cell, draws releases, lets the attacker estimate, and
    averages the Euclidean distance between estimate and truth.  Higher is
    more private.  Exact releases give the attacker the truth (error 0 at
    that cell) — by policy design, e.g. infected cells under Gc.

    Parameters
    ----------
    world / mechanism / true_cells / rng / trials_per_cell / batched / shards / backend:
        As in :func:`utility_error` (same RNG-stream layouts, same sharded
        bit-identity contract).
    prior:
        Attacker prior over cells (uniform when omitted).
    attacker:
        Prebuilt attacker to reuse across calls (so its cached distance
        matrix survives a sweep).  Sharded runs construct per-shard
        attackers inside the workers instead and only forward this
        attacker's prior.
    float32:
        Run the attacker's batched GEMMs in single precision (see
        :class:`~repro.adversary.inference.BayesianAttacker`); the returned
        mean then matches the float64 reference to about ``1e-3`` relative
        tolerance.  Ignored when a prebuilt ``attacker`` is supplied.

    Returns
    -------
    float
        Mean realised attack error over all trials.
    """
    cells = _check_cells(world, true_cells)
    if shards is not None or backend is not None:
        return _sharded_trial_metric(
            "adversary",
            world,
            mechanism,
            cells,
            _attacker_prior(prior, attacker),
            rng,
            trials_per_cell,
            batched,
            shards,
            backend,
            float32=float32,
        )
    generator = ensure_rng(rng)
    if attacker is None:
        attacker = BayesianAttacker(world, mechanism, prior=prior, float32=float32)
    if not batched:
        total = 0.0
        count = 0
        for cell in cells:
            for _ in range(trials_per_cell):
                release = mechanism.release(cell, rng=generator)
                total += attacker.inference_error(release, cell)
                count += 1
        return total / count
    trial_cells = _trial_cells(cells, trials_per_cell)
    batch = mechanism.release_batch(trial_cells, rng=generator)
    errors = attacker.inference_error_batch(batch, trial_cells)
    return float(errors.sum()) / len(errors)


def expected_inference_error(
    world: GridWorld,
    mechanism: Mechanism,
    true_cells: Sequence[int],
    prior: np.ndarray | None = None,
    rng=None,
    trials_per_cell: int = 1,
    attacker: BayesianAttacker | None = None,
    batched: bool = True,
    shards: int | None = None,
    backend=None,
    float32: bool = False,
) -> float:
    """Mean of the attacker's *expected* loss (its residual uncertainty).

    Unlike :func:`adversary_error`, this does not compare to the truth; it
    averages ``min_x E_posterior[d_E(x, s)]`` over observed releases, the
    quantity Shokri et al. call the adversary's expected estimation error.

    Parameters
    ----------
    world / mechanism / true_cells / rng / trials_per_cell / batched / shards / backend:
        As in :func:`utility_error` (same RNG-stream layouts, same sharded
        bit-identity contract).
    prior / attacker / float32:
        As in :func:`adversary_error` (sharded runs build per-shard
        attackers and forward only the prior; ``float32`` runs the
        attacker GEMMs in single precision, ~``1e-3`` relative tolerance).

    Returns
    -------
    float
        Mean expected estimation error over all trials.
    """
    cells = _check_cells(world, true_cells)
    if shards is not None or backend is not None:
        return _sharded_trial_metric(
            "expected",
            world,
            mechanism,
            cells,
            _attacker_prior(prior, attacker),
            rng,
            trials_per_cell,
            batched,
            shards,
            backend,
            float32=float32,
        )
    generator = ensure_rng(rng)
    if attacker is None:
        attacker = BayesianAttacker(world, mechanism, prior=prior, float32=float32)
    if not batched:
        total = 0.0
        count = 0
        for cell in cells:
            for _ in range(trials_per_cell):
                release = mechanism.release(cell, rng=generator)
                total += attacker.expected_error(release)
                count += 1
        return total / count
    trial_cells = _trial_cells(cells, trials_per_cell)
    batch = mechanism.release_batch(trial_cells, rng=generator)
    errors = attacker.expected_error_batch(batch)
    return float(errors.sum()) / len(errors)
