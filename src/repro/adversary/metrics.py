"""Monte-Carlo privacy and utility metrics over mechanisms.

These are the quantities plotted in the demo's privacy-utility panels:

* :func:`utility_error`   — mean Euclidean distance between released and true
  locations (evaluation 1 of Sec. 3.2);
* :func:`adversary_error` — mean realised error of the Bayesian attacker [15]
  (evaluation 3);
* :func:`expected_inference_error` — the attacker's own expected loss,
  a sample-free lower-variance companion to :func:`adversary_error`.

Each metric runs its trial grid over a deterministic
:class:`~repro.engine.sharding.ShardPlan` whose work keys are the **trial
slots** (positions in ``true_cells``): one RNG stream per slot, spawned
over the global slot order, and one shard unless ``shards=`` says
otherwise.  A shard releases all its slots' trials in one
``release_batch(cells, streams=(seeds, counts))`` call and scores them
through the attacker's batched posterior machinery; ``batched=False`` keeps
the scalar per-release reference loop on the same streams.  Shards run on
any registered :class:`~repro.engine.backends.ExecutionBackend` (serial by
default) and each returns its slots' error sums.  The metric lays those
end to end in shard order and sums them once, so results are
bit-identical for every shard count and backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adversary.inference import BayesianAttacker
from repro.core.mechanisms.base import Mechanism
from repro.engine import EngineRef, ShardPlan, owned_backend, resolve_release_source
from repro.errors import ValidationError
from repro.geo.distance import euclidean
from repro.geo.grid import GridWorld
from repro.utils.validation import check_bool, check_integer

__all__ = ["utility_error", "adversary_error", "expected_inference_error"]


# ----------------------------------------------------------------------
# Shard scoring (E4-class metrics over ShardPlan + ExecutionBackend)
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


def _score_trial_shard(task: _TrialShardTask) -> np.ndarray:
    """Score one shard's trial slots on their own streams (module-level for pickling).

    Each slot draws its ``trials`` releases from its own seed stream.
    Batched, the whole shard is one ``release_batch(streams=)`` call whose
    rows are pushed through the attacker's batched posterior machinery in
    one matrix pass (scoring is row-independent).  Otherwise the scalar
    ``release`` loop draws from the same streams, so the same points to
    float identity, and scores release by release.  Returns the per-slot
    error sums, in slot order.
    """
    source = resolve_release_source(task.source)
    world = source.world
    n_slots, trials = len(task.cells), task.trials
    attacker = None
    if task.kind != "utility":
        attacker = BayesianAttacker(
            world, source, prior=task.prior, float32=task.float32
        )

    if task.batched:
        cells_rows = np.repeat(np.asarray(task.cells, dtype=int), trials)
        batch = source.release_batch(
            cells_rows, streams=(task.seeds, np.full(n_slots, trials))
        )
        if task.kind == "utility":
            centres = world.coords_array(cells_rows)
            errors = np.hypot(
                batch.points[:, 0] - centres[:, 0], batch.points[:, 1] - centres[:, 1]
            )
        elif task.kind == "adversary":
            errors = attacker.inference_error_batch(batch, cells_rows)
        else:
            errors = attacker.expected_error_batch(batch)
    else:  # scalar reference: per-release draws *and* per-release scoring
        errors = np.empty(n_slots * trials, dtype=float)
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

    return errors.reshape(n_slots, trials).sum(axis=1)


def _trial_metric(
    kind: str,
    world: GridWorld,
    mechanism,
    true_cells: Sequence[int],
    prior: np.ndarray | None,
    rng,
    trials_per_cell: int,
    batched: bool,
    shards,
    backend,
    float32: bool = False,
) -> float:
    """Common driver for the three trial metrics (see module docs)."""
    batched = check_bool("batched", batched)
    if len(true_cells) == 0:
        raise ValidationError("need at least one true cell")
    cells = [world.check_cell(cell) for cell in true_cells]
    trials = check_integer("trials_per_cell", trials_per_cell, minimum=1)
    # Workers score against the release source's own world; refuse a
    # mechanism built for another world instead of scoring the wrong grid.
    if mechanism.world != world:
        raise ValidationError("mechanism was built for a different world")
    plan = ShardPlan.build(range(len(cells)), 1 if shards is None else shards, rng=rng)
    source = EngineRef.wrap(mechanism)
    tasks = [
        _TrialShardTask(
            source=source,
            kind=kind,
            prior=prior,
            cells=tuple(cells[slot] for slot in slots),
            seeds=seeds,
            trials=trials,
            batched=batched,
            float32=bool(float32),
        )
        for _, slots, seeds in plan.iter_shards()
    ]
    with owned_backend(backend) as live:
        sums = live.run(_score_trial_shard, tasks)
    # Shards hold consecutive slots, so their per-slot sums laid end to end
    # (run returns them in task order) are the global per-slot array: one
    # reduction over it gives the same bits at every shard count.
    return float(np.concatenate(sums).sum()) / (len(cells) * trials)


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
        Location universe supplying cell centres; the mechanism must have
        been built for it.
    mechanism:
        The release mechanism to score (a spec-built
        :class:`~repro.engine.PrivacyEngine` is also accepted; with
        ``backend="pool"`` shard tasks then travel as spec hashes).
    true_cells:
        Cells to evaluate; each is released ``trials_per_cell`` times.
    rng:
        Seed source: one child stream per trial slot (position in
        ``true_cells``) is spawned from it.
    trials_per_cell:
        Monte-Carlo repetitions per cell (an int >= 1).
    batched:
        ``True`` scores vectorized draws; ``False`` runs the scalar
        per-release reference loop on the same streams — the two agree to
        float round-off.
    shards / backend:
        Shard count (default 1) and execution backend (default serial) of
        the :class:`~repro.engine.sharding.ShardPlan` over the trial
        slots; the output is bit-identical for every shard count and
        registered backend.

    Returns
    -------
    float
        Mean Euclidean error over all ``len(true_cells) * trials_per_cell``
        releases.
    """
    return _trial_metric(
        "utility", world, mechanism, true_cells, None, rng,
        trials_per_cell, batched, shards, backend,
    )


def adversary_error(
    world: GridWorld,
    mechanism: Mechanism,
    true_cells: Sequence[int],
    prior: np.ndarray | None = None,
    rng=None,
    trials_per_cell: int = 1,
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
        As in :func:`utility_error` (same per-slot streams, same
        bit-identity contract).
    prior:
        Attacker prior over cells (uniform when omitted).  Each shard
        builds its own :class:`~repro.adversary.inference.BayesianAttacker`
        with it; the attackers share the world's cached distance matrix.
    float32:
        Run the attacker's batched GEMMs in single precision (see
        :class:`~repro.adversary.inference.BayesianAttacker`); the returned
        mean then matches the float64 reference to about ``1e-3`` relative
        tolerance.

    Returns
    -------
    float
        Mean realised attack error over all trials.
    """
    return _trial_metric(
        "adversary", world, mechanism, true_cells, prior, rng,
        trials_per_cell, batched, shards, backend, float32=float32,
    )


def expected_inference_error(
    world: GridWorld,
    mechanism: Mechanism,
    true_cells: Sequence[int],
    prior: np.ndarray | None = None,
    rng=None,
    trials_per_cell: int = 1,
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
        As in :func:`utility_error` (same per-slot streams, same
        bit-identity contract).
    prior / float32:
        As in :func:`adversary_error` (``float32`` runs the attacker GEMMs
        in single precision, ~``1e-3`` relative tolerance).

    Returns
    -------
    float
        Mean expected estimation error over all trials.
    """
    return _trial_metric(
        "expected", world, mechanism, true_cells, prior, rng,
        trials_per_cell, batched, shards, backend, float32=float32,
    )
