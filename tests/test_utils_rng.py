"""Unit tests for repro.utils.rng."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.utils.rng import (
    SHORT_STREAM,
    _pcg64_states,
    ensure_rng,
    seed_array,
    spawn_rngs,
    spawn_seeds,
    stream_uniforms,
)

#: Seeds at the edges of the one- and two-word SeedSequence entropy and of
#: the int64 / uint64 ranges.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(ensure_rng(1).random(5), ensure_rng(2).random(5))

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_numpy_integer_seed(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)

    def test_rejects_other_types(self):
        with pytest.raises(ValidationError, match="rng"):
            ensure_rng("seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_independent_of_order(self):
        # Same parent seed -> same children streams, irrespective of which
        # child is drawn from first.
        first = spawn_rngs(7, 3)
        second = spawn_rngs(7, 3)
        values_first = [g.random() for g in first]
        values_second = [g.random() for g in reversed(second)][::-1]
        assert values_first == pytest.approx(values_second)

    def test_children_mutually_distinct(self):
        children = spawn_rngs(9, 4)
        draws = [g.random(3).tolist() for g in children]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert draws[i] != draws[j]

    def test_streams_independent_of_sibling_consumption(self):
        # Draining one child stream must not perturb another: child i's k-th
        # draw is a pure function of (parent seed, i, k).  This is the
        # property the sharded pipeline leans on — shard boundaries change
        # which streams a worker drains, never what the streams contain.
        reference = [g.random(5).tolist() for g in spawn_rngs(13, 3)]
        children = spawn_rngs(13, 3)
        interleaved = [[] for _ in children]
        for _ in range(5):
            for index, child in enumerate(children):
                interleaved[index].append(child.random())
        assert interleaved == reference  # bit-identical streams, not approx


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(5, 4) == spawn_seeds(5, 4)

    def test_plain_ints(self):
        # Seeds cross process boundaries; they must be picklable plain ints.
        assert all(type(seed) is int for seed in spawn_seeds(0, 3))

    def test_matches_spawn_rngs(self):
        # Seed-level and generator-level spawning expose the same streams.
        from_seeds = [np.random.default_rng(s).random() for s in spawn_seeds(21, 4)]
        from_rngs = [g.random() for g in spawn_rngs(21, 4)]
        assert from_seeds == pytest.approx(from_rngs)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -2)

    def test_seeds_in_stream_seed_domain(self):
        seeds = spawn_seeds(3, 500)
        assert all(0 <= seed < 2**63 - 1 for seed in seeds)
        assert seed_array(seeds).tolist() == seeds


def default_rng_streams(seeds, counts):
    """The oracle: one ``default_rng(seed).random(count)`` per stream."""
    parts = [np.random.default_rng(seed).random(count) for seed, count in zip(seeds, counts)]
    return np.concatenate(parts + [np.empty(0)])


class TestStreamUniforms:
    """``stream_uniforms`` is numpy's own per-seed streams, bit for bit."""

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(EDGE_SEEDS)),
                st.integers(0, 3 * SHORT_STREAM),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=150, deadline=None)
    @example([(seed, SHORT_STREAM) for seed in EDGE_SEEDS] + [(7, SHORT_STREAM + 1)])
    def test_streams_equal_default_rng(self, streams):
        seeds = [seed for seed, _ in streams]
        counts = [count for _, count in streams]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stream_uniforms(seeds, counts)
        want = default_rng_streams(seeds, counts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_initial_states_equal_pcg64(self):
        state_hi, state_lo, inc_hi, inc_lo = _pcg64_states(seed_array(EDGE_SEEDS))
        for index, seed in enumerate(EDGE_SEEDS):
            expected = np.random.PCG64(seed).state["state"]
            assert int(state_hi[index]) << 64 | int(state_lo[index]) == expected["state"]
            assert int(inc_hi[index]) << 64 | int(inc_lo[index]) == expected["inc"]

    def test_empty_input(self):
        assert stream_uniforms([], []).shape == (0,)
        assert stream_uniforms([3, 4], [0, 0]).shape == (0,)

    def test_one_long_stream(self):
        got = stream_uniforms([2**40 + 9], [300_000])
        want = np.random.default_rng(2**40 + 9).random(300_000)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_many_short_streams_of_mixed_widths(self):
        # Sorted chunks pad to the widest stream in them; thousands of
        # streams span several chunks.
        rng = np.random.default_rng(5)
        seeds = rng.integers(0, 2**63, size=3000)
        counts = rng.integers(0, SHORT_STREAM + 1, size=3000)
        want = default_rng_streams(seeds.tolist(), counts.tolist())
        assert np.array_equal(stream_uniforms(seeds, counts), want)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.uint32, np.int16])
    def test_numpy_seed_arrays_of_any_int_dtype(self, dtype):
        seeds = np.array([0, 5, 120], dtype=dtype)
        assert np.array_equal(
            stream_uniforms(seeds, [4, 0, 9]),
            default_rng_streams([0, 5, 120], [4, 0, 9]),
        )

    def test_writes_into_out(self):
        out = np.empty(5)
        assert stream_uniforms([1, 2], [2, 3], out=out) is out
        assert np.array_equal(out, default_rng_streams([1, 2], [2, 3]))
        with pytest.raises(ValidationError, match="out"):
            stream_uniforms([1, 2], [2, 3], out=np.empty(4))

    @pytest.mark.parametrize(
        "seeds, counts, match",
        [
            ([1, 2], [1], "2 seeds but 1 counts"),
            ([np.float64(2.0)], [1], r"seed 0 is .*2\.0"),
            (np.array([1.0]), [1], r"seed 0 is 1\.0"),
            (np.array([-4]), [1], "seed 0 is .*-4"),
            ([1], np.array([2**63], dtype=np.uint64), "count 0 is .*9223372036854775808"),
        ],
    )
    def test_malformed_input_raises(self, seeds, counts, match):
        with pytest.raises(ValidationError, match=match):
            stream_uniforms(seeds, counts)
