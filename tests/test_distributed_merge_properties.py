"""Hypothesis properties of the MetricShardResult merge algebra.

The distributed evaluation layer's whole correctness story is that
:meth:`MetricShardResult.merge` is an *exact* fold: regrouping shards
(associativity) can never change anything, and reordering them
(commutativity) can never change any **final metric value** — weighted
means and event sets.  These properties generate arbitrary shard results
covering every component kind — weighted-mean partial sums and
contact-event sets — and random regroupings/permutations, rather than
trusting the handful of fixtures in tests/test_distributed_eval.py.  The
epoch-keyed occupancy identity the E2 views rely on (per-shard head
counts add up to the global ones, whose pair events are the brute-force
co-location count) is pinned here too.

Note the asymmetry, mirrored from the implementation: per-key *arrays* are
order-sensitive by design (callers merge in shard order to reassemble the
global key order), so commutativity is claimed — and tested — for the
final reductions, using integer-valued floats whose sums are exact in any
order; associativity at fixed order is claimed for the raw arrays
bit-for-bit, with arbitrary floats.
"""

from collections import Counter
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.engine import MetricShardResult, merge_metric_results
from repro.epidemic.analysis import pair_events
from repro.errors import ValidationError

#: integer-valued floats: addition is exact, so order cannot round.
exact_floats = st.integers(min_value=-(2**20), max_value=2**20).map(float)
#: arbitrary finite floats for fixed-order (bit-identity) properties.
any_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, width=64)

user_ids = st.integers(0, 99)


@st.composite
def single_results(draw, values=any_floats):
    """One shard result exercising every component kind."""
    n_keys = draw(st.integers(0, 4))
    sums = {
        "error": np.array(draw(st.lists(values, min_size=n_keys, max_size=n_keys))),
        "epsilon_spent": np.array(
            draw(st.lists(values, min_size=n_keys, max_size=n_keys))
        ),
    }
    counts = np.array(
        draw(st.lists(st.integers(0, 9), min_size=n_keys, max_size=n_keys)), dtype=int
    )
    return MetricShardResult(
        sums=sums,
        counts=counts,
        sets={"events": frozenset(draw(st.sets(user_ids, max_size=5)))},
    )


@st.composite
def shard_results(draw, min_shards=1, max_shards=6, values=any_floats):
    """A list of mergeable shard results exercising every component kind."""
    n_shards = draw(st.integers(min_shards, max_shards))
    return [draw(single_results(values=values)) for _ in range(n_shards)]


# Bit-identity below is asserted with the structural ``__eq__`` (same
# component names, element-wise array equality, NaN == NaN); the operator
# itself is pinned by TestStructuralEquality.
def _equal(a: MetricShardResult, b: MetricShardResult) -> bool:
    return a == b


class TestAssociativity:
    @settings(deadline=None, max_examples=60)
    @given(results=shard_results(min_shards=3), data=st.data())
    def test_any_regrouping_folds_identically(self, results, data):
        # Split the shard list at two random points and fold the groups in
        # every associativity order; all must equal the flat left fold —
        # raw arrays bit-for-bit, not just final reductions.
        i = data.draw(st.integers(1, len(results) - 1))
        j = data.draw(st.integers(i, len(results) - 1))
        flat = merge_metric_results(results)
        left, mid, right = results[:i], results[i:j], results[j:]
        groups = [merge_metric_results(g) for g in (left, mid, right) if g]
        assert _equal(reduce(MetricShardResult.merge, groups), flat)
        if len(groups) == 3:
            a, b, c = groups
            assert _equal(a.merge(b).merge(c), a.merge(b.merge(c)))

    @settings(deadline=None, max_examples=30)
    @given(results=shard_results(max_shards=1))
    def test_single_shard_folds_to_itself(self, results):
        assert _equal(merge_metric_results(results), results[0])


class TestCommutativity:
    @settings(deadline=None, max_examples=60)
    @given(results=shard_results(min_shards=2, values=exact_floats), data=st.data())
    def test_permutation_preserves_final_values(self, results, data):
        order = data.draw(st.permutations(range(len(results))))
        merged = merge_metric_results(results)
        permuted = merge_metric_results([results[i] for i in order])
        # Set components are commutative outright.
        assert permuted.sets == merged.sets
        assert permuted.n_releases == merged.n_releases
        # Weighted means: integer-valued partials sum exactly in any order.
        for name in merged.sums:
            if merged.n_releases:
                assert permuted.weighted_mean(name) == merged.weighted_mean(name)
            assert permuted.sums[name].sum() == merged.sums[name].sum()


class TestEpidemicKinds:
    """The epidemic kinds against brute-force global references."""

    @settings(deadline=None, max_examples=60)
    @given(
        observations=st.dictionaries(
            st.tuples(user_ids, st.integers(0, 6)),  # (user, time): unique
            st.integers(0, 4),  # cell
            max_size=30,
        ),
        data=st.data(),
    )
    def test_occupancy_counters_recover_global_pair_events(self, observations, data):
        # Partition users into shards arbitrarily; per-shard epoch-keyed
        # occupancy counters must add up to the global counter, and
        # pair_events on the sum must equal brute-force pair counting.
        users = sorted({user for user, _ in observations})
        shard_of = {
            user: data.draw(st.integers(0, 3), label=f"shard({user})") for user in users
        }
        shards = [
            Counter(
                (time, cell)
                for (user, time), cell in observations.items()
                if shard_of[user] == shard
            )
            for shard in range(4)
        ]
        merged = sum(shards, Counter())
        global_occupancy = Counter(
            (time, cell) for (_, time), cell in observations.items()
        )
        assert merged == global_occupancy
        brute_pairs = sum(
            1
            for (ua, ta), ca in observations.items()
            for (ub, tb), cb in observations.items()
            if ua < ub and ta == tb and ca == cb
        )
        assert pair_events(merged) == brute_pairs

    @settings(deadline=None, max_examples=60)
    @given(events=st.sets(user_ids, max_size=20), data=st.data())
    def test_event_sets_union_recovers_population(self, events, data):
        members = sorted(events)
        shard_of = {
            user: data.draw(st.integers(0, 3), label=f"shard({user})") for user in members
        }
        shards = [
            MetricShardResult(
                sums={}, counts=np.array([], dtype=int),
                sets={"events": frozenset(u for u in members if shard_of[u] == s)},
            )
            for s in range(4)
        ]
        merged = merge_metric_results(shards)
        assert merged.sets["events"] == frozenset(events)


class TestStructuralEquality:
    """The ``__eq__`` / ``__repr__`` surface itself."""

    @settings(deadline=None, max_examples=40)
    @given(results=shard_results(max_shards=1))
    def test_deep_copies_compare_equal(self, results):
        result = results[0]
        clone = MetricShardResult(
            sums={name: values.copy() for name, values in result.sums.items()},
            counts=result.counts.copy(),
            sets={name: frozenset(members) for name, members in result.sets.items()},
        )
        assert result == clone and clone == result

    def test_value_and_component_perturbations_break_equality(self):
        base = MetricShardResult(
            sums={"error": np.array([1.0, 2.0])},
            counts=np.array([1, 1]),
            sets={"events": frozenset({3})},
        )
        variants = [
            MetricShardResult(
                sums={"error": np.array([1.0, 2.5])},  # array value
                counts=np.array([1, 1]),
                sets={"events": frozenset({3})},
            ),
            MetricShardResult(
                sums={"error": np.array([1.0, 2.0])},
                counts=np.array([1, 2]),  # counts
                sets={"events": frozenset({3})},
            ),
            MetricShardResult(
                sums={"error": np.array([1.0, 2.0])},
                counts=np.array([1, 1]),
                sets={"events": frozenset({4})},  # set member
            ),
            MetricShardResult(
                sums={"other": np.array([1.0, 2.0])},  # component name
                counts=np.array([1, 1]),
                sets={"events": frozenset({3})},
            ),
        ]
        for variant in variants:
            assert base != variant and variant != base

    def test_nan_partials_compare_equal(self):
        a = MetricShardResult(
            sums={"error": np.array([np.nan, 1.0])}, counts=np.array([1, 1])
        )
        b = MetricShardResult(
            sums={"error": np.array([np.nan, 1.0])}, counts=np.array([1, 1])
        )
        assert a == b

    def test_other_types_are_unequal_not_errors(self):
        result = MetricShardResult(sums={}, counts=np.array([], dtype=int))
        assert result != 5
        assert (result == "shard") is False

    def test_results_are_unhashable(self):
        result = MetricShardResult(sums={}, counts=np.array([], dtype=int))
        with pytest.raises(TypeError):
            hash(result)

    def test_repr_lists_components(self):
        result = MetricShardResult(
            sums={"error": np.array([1.0])},
            counts=np.array([2]),
            sets={"events": frozenset()},
        )
        text = repr(result)
        assert "keys=1" in text and "releases=2" in text
        assert "sums=['error']" in text
        assert "sets=['events']" in text


class TestMergeGuards:
    def test_mismatched_set_components_rejected(self):
        a = MetricShardResult(
            sums={}, counts=np.array([], dtype=int), sets={"events": frozenset()}
        )
        b = MetricShardResult(sums={}, counts=np.array([], dtype=int))
        with pytest.raises(ValidationError):
            a.merge(b)

    def test_default_sets_component_is_empty(self):
        # Construction sites without a set part must keep working.
        result = MetricShardResult(sums={"error": np.array([1.0])}, counts=np.array([2]))
        merged = result.merge(result)
        assert merged.sets == {}
        assert merged.n_releases == 4
