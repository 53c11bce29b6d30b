"""Empirical privacy quantification via Bayesian inference attacks.

Implements the adversary model of Shokri et al., "Quantifying Location
Privacy" (S&P 2011), which the demo uses as its empirical privacy metric
(Sec. 3.2, evaluation 3): the attacker observes a release, combines it with a
prior (mobility) model through the mechanism's density, and outputs the
location estimate minimising expected Euclidean error.  The user's privacy is
the attacker's expected error.

Everything here is batch-first with scalar reference paths
(``batched=False``) and — for the metric functions — an optional
shard-parallel execution mode (``shards=`` / ``backend=``): the trial
slots are sharded by a :class:`~repro.engine.sharding.ShardPlan`, and the
per-slot error sums are folded in shard order.
"""

from repro.adversary.inference import BayesianAttacker
from repro.adversary.metrics import (
    adversary_error,
    expected_inference_error,
    utility_error,
)
from repro.adversary.tracking import TrackingResult, TrajectoryAttacker

__all__ = [
    "BayesianAttacker",
    "adversary_error",
    "expected_inference_error",
    "utility_error",
    "TrackingResult",
    "TrajectoryAttacker",
]
