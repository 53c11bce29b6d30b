"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts an optional ``rng``
argument that may be ``None`` (fresh nondeterministic generator), an integer
seed >= 0, or an existing :class:`numpy.random.Generator`; :func:`ensure_rng`
checks it once, for every entry point.  Centralising the coercion here keeps
experiments reproducible with a single seed while letting interactive users
ignore seeding entirely.

Per-user streams
----------------
The sharded pipeline gives every user (or evaluation slot) its own stream,
``np.random.default_rng(seed)``, with a seed from :func:`spawn_seeds`.  A
shard draws all its users' streams at once through :func:`stream_uniforms`,
which writes exactly the values ``default_rng(seed).random(count)`` would,
without building a generator per stream:

* *Seeding* reproduces numpy's ``SeedSequence`` entropy hash and pool mix,
  ``generate_state(4, uint64)`` and PCG64's ``set_seed`` as uint32 / uint64
  array arithmetic over every seed of the call, so stream ``i`` starts at
  ``np.random.PCG64(seeds[i]).state``.
* *Short streams* (at most :data:`SHORT_STREAM` uniforms) jump ahead: PCG64
  is a 128-bit LCG, so its state ``j`` steps on is an affine map
  ``A_j * s + C_j * inc`` of the start state (Brown, "Random Number
  Generation with Arbitrary Strides", 1994).  Every draw of every short
  stream is that map, PCG64's XSL-RR output and ``random()``'s
  ``(x >> 11) * 2**-53``, evaluated on ``(hi, lo)`` uint64 limbs in chunks.
* *Long streams* put the computed state into one reused ``PCG64`` through
  its public ``state`` setter and draw with numpy's own
  ``Generator.random(out=...)``.

A stream seed is a Python or numpy integer in ``[0, 2**64)``, never a bool
(:func:`seed_array`): that is the domain on which ``default_rng(seed)``
seeds from one integer.  All arithmetic uses explicit ``np.uint32`` /
``np.uint64`` operands, so it is the same under numpy 1.x's value-based
casting and numpy 2's NEP 50 rules, and wraps without overflow warnings.
"""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "SHORT_STREAM",
    "count_array",
    "ensure_rng",
    "seed_array",
    "spawn_rngs",
    "spawn_seeds",
    "stream_uniforms",
]

#: Longest stream, in uniforms, that :func:`stream_uniforms` computes in
#: array ops; longer streams use numpy's generator on the computed state.
#: Set at the measured crossover: 1,000 streams per call on a shared
#: 2-vCPU Xeon (numpy 2.4), medians of 41 calls, seeding included.  The
#: array path costs 55-60 ns per uniform (3.5 us per 64-uniform stream,
#: 7.0 us per 128), numpy's 6.2-7.5 us per stream from 48 to 192 uniforms
#: (the state setter is 3.4 us of it).
SHORT_STREAM = 128

# Short streams are computed this many uniforms at a time, so the uint64
# temporaries stay in cache whatever the call's size.
_CHUNK = 1 << 15

_U32 = np.uint32
_U64 = np.uint64
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> list[np.uint32]:
    """The running multiplier of ``count`` SeedSequence hash steps."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return [_U32(value) for value in values]


# numpy/random/bit_generator.pyx: SeedSequence's hash constants.  A seed
# below 2**64 is at most two entropy words and the pool has four, so
# mix_entropy makes 4 + 12 hashmix calls and generate_state(4, uint64)
# hashes 8 words.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L = _U32(0xCA01F9DD)
_MIX_R = _U32(0x4973F715)
_SHIFT16 = _U32(16)

# PCG64 (numpy/random/src/pcg64): the 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_S1, _S11, _S32, _S58, _S63 = (_U64(shift) for shift in (1, 11, 32, 58, 63))
_ONE, _LOW32, _ROT_MASK, _SIXTY_FOUR = _U64(1), _U64(_MASK32), _U64(63), _U64(64)


def _limbs(values: Sequence[int]) -> tuple[np.ndarray, ...]:
    """``(hi, lo, lo & 0xFFFFFFFF, lo >> 32)`` uint64 rows of 128-bit ints."""
    his = [value >> 64 for value in values]
    los = [value & ((1 << 64) - 1) for value in values]
    return tuple(
        np.array(column, dtype=np.uint64)[None, :]
        for column in (his, los, [lo & _MASK32 for lo in los], [lo >> 32 for lo in los])
    )


def _jump_table(count: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Limbs of ``A_j = M**j`` and ``C_j = M**(j-1) + ... + 1`` for j = 1..count.

    PCG64's state ``j`` steps after ``s`` is ``A_j * s + C_j * inc`` mod
    2**128, and draw ``j`` (0-based) is output from state ``j + 1``.
    """
    a, c, a_values, c_values = 1, 0, [], []
    for _ in range(count):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        a_values.append(a)
        c_values.append(c)
    return _limbs(a_values), _limbs(c_values)


_JUMP_A, _JUMP_C = _jump_table(SHORT_STREAM)


def ensure_rng(rng: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` for a fresh OS-seeded generator, a Python or numpy int
        seed >= 0, or an existing generator (returned unchanged).  Anything
        else — a bool, a float, a negative int, a string — raises
        :class:`~repro.errors.ValidationError` naming ``rng``.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, numbers.Integral) and not isinstance(rng, bool) and rng >= 0:
        return np.random.default_rng(int(rng))
    raise ValidationError(
        f"rng must be None, an int >= 0 or a numpy Generator, got {rng!r}"
    )


def spawn_seeds(rng: int | np.random.Generator | None, count: int) -> list[int]:
    """Derive ``count`` child-stream seeds from ``rng``.

    Parameters
    ----------
    rng:
        Parent source, coerced through :func:`ensure_rng`; the seeds are one
        ``integers`` draw from it, so the same parent seed always yields the
        same seed list.
    count:
        Number of seeds (must be non-negative).

    Returns
    -------
    list[int]
        Plain-int seeds in ``[0, 2**63 - 1)``, one per child stream, so
        always valid for :func:`seed_array`.  Seeds (rather than live
        generators) are what crosses process boundaries: the sharded release
        path ships them to worker processes, which draw each stream with
        :func:`stream_uniforms`, i.e. exactly
        ``np.random.default_rng(seed)``'s values.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [int(seed) for seed in seeds]


def spawn_rngs(rng: int | np.random.Generator | None, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used by multi-user simulations so that each simulated client owns an
    independent stream and results do not depend on iteration order (or, in
    the sharded pipeline, on how the population is partitioned).  Equivalent
    to seeding generators from :func:`spawn_seeds` — both consume the same
    single draw from the parent, so seed-level and generator-level callers
    interoperate deterministically.
    """
    return [np.random.default_rng(seed) for seed in spawn_seeds(rng, count)]


# ----------------------------------------------------------------------
# Per-user streams in array ops
# ----------------------------------------------------------------------
def _integer_array(values, what: str, bound: int, dtype) -> np.ndarray:
    """``values`` as a flat ``dtype`` array of integers in ``[0, bound)``.

    Each value must be a Python or numpy integer, never a bool; anything
    else raises :class:`~repro.errors.ValidationError` naming the first bad
    value's index.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValidationError(f"{what}s must be a flat sequence, got shape {values.shape}")
        if values.dtype.kind in "iu":
            if values.size and (int(values.min()) < 0 or int(values.max()) >= bound):
                index = next(i for i, v in enumerate(values.tolist()) if not 0 <= v < bound)
                _reject(what, index, values[index], bound)
            return values.astype(dtype, copy=False)
        values = values.tolist()
    elif not isinstance(values, (list, tuple)):
        try:
            values = list(values)
        except TypeError:
            raise ValidationError(
                f"{what}s must be a sequence, got {type(values).__name__}"
            ) from None
    if set(map(type, values)) <= {int} and (
        not values or (min(values) >= 0 and max(values) < bound)
    ):
        return np.array(values, dtype=dtype)
    for index, value in enumerate(values):
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or not 0 <= int(value) < bound
        ):
            _reject(what, index, value, bound)
    return np.array([int(value) for value in values], dtype=dtype)


def _reject(what: str, index: int, value, bound: int) -> None:
    raise ValidationError(
        f"{what} {index} is {value!r}; a {what} is a Python or numpy integer "
        f"in [0, 2**{bound.bit_length() - 1}), not a bool"
    )


def seed_array(seeds) -> np.ndarray:
    """Stream seeds as a uint64 array.

    A seed is a Python or numpy integer in ``[0, 2**64)``, never a bool:
    the integers ``np.random.default_rng`` seeds from one or two 32-bit
    entropy words.  ``None`` (fresh OS entropy), a live generator, a
    sequence and every other type raise
    :class:`~repro.errors.ValidationError` naming the first bad seed's
    index and value.
    """
    return _integer_array(seeds, "seed", 1 << 64, np.uint64)


def count_array(counts) -> np.ndarray:
    """Per-stream counts as an int64 array of Python or numpy integers >= 0.

    Bools, floats and NaN raise :class:`~repro.errors.ValidationError`
    naming the first bad count's index and value.
    """
    return _integer_array(counts, "count", 1 << 63, np.int64)


def _hashmix(value: np.ndarray, call: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` as its ``call``-th invocation."""
    value = (value ^ _HASH_A[call]) * _HASH_A[call + 1]
    return value ^ (value >> _SHIFT16)


def _mul_hi(x0, x1, y0, y1) -> np.ndarray:
    """High 64 bits of the 128-bit products ``x * y``, from 32-bit halves.

    Hacker's Delight's ``mulhu``: no partial sum overflows 64 bits.
    """
    partial = x0 * y0
    partial >>= _S32
    partial += x1 * y0
    hi = partial >> _S32
    partial &= _LOW32
    partial += x0 * y1
    partial >>= _S32
    hi += partial
    hi += x1 * y1
    return hi


def _pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(state_hi, state_lo, inc_hi, inc_lo)`` of ``np.random.PCG64(seed)``.

    ``seeds`` is a uint64 array (see :func:`seed_array`).  A seed below
    2**32 is one entropy word and a larger one two; the pool of ``[w]``
    equals the pool of ``[w, 0]``, so every seed hashes as two words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zeros = np.zeros(seeds.shape, dtype=np.uint32)
    calls = iter(range(16))
    pool = [
        _hashmix(word, next(calls))
        for word in ((seeds & _LOW32).astype(np.uint32), (seeds >> _S32).astype(np.uint32), zeros, zeros)
    ]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], next(calls))
                pool[dst] = mixed ^ (mixed >> _SHIFT16)
    words = []
    for index in range(8):
        value = (pool[index % 4] ^ _HASH_B[index]) * _HASH_B[index + 1]
        words.append((value ^ (value >> _SHIFT16)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (words[2 * k] | words[2 * k + 1] << _S32 for k in range(4))
    # PCG64's set_seed: inc = 2 * seq + 1, then one step from inc + seed.
    inc_hi = seq_hi << _S1 | seq_lo >> _S63
    inc_lo = seq_lo << _S1 | _ONE
    start_lo = inc_lo + seed_lo
    start_hi = inc_hi + seed_hi + (start_lo < seed_lo)
    state_hi, state_lo = _advance(start_hi, start_lo, inc_hi, inc_lo, 1)
    return state_hi[:, 0], state_lo[:, 0], inc_hi, inc_lo


def _advance(state_hi, state_lo, inc_hi, inc_lo, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` of shape ``(n, steps)``: each state 1..``steps`` LCG steps on.

    State ``j`` steps on is ``A_j * s + C_j * inc`` (mod 2**128), computed
    limb by limb for every ``(stream, j)`` at once.
    """
    a_hi, a_lo, a_lo0, a_lo1 = (limb[:, :steps] for limb in _JUMP_A)
    c_hi, c_lo, c_lo0, c_lo1 = (limb[:, :steps] for limb in _JUMP_C)
    s_hi, s_lo, i_hi, i_lo = (column[:, None] for column in (state_hi, state_lo, inc_hi, inc_lo))
    lo = a_lo * s_lo
    inc_part = c_lo * i_lo
    lo += inc_part
    hi = _mul_hi(a_lo0, a_lo1, s_lo & _LOW32, s_lo >> _S32)
    hi += _mul_hi(c_lo0, c_lo1, i_lo & _LOW32, i_lo >> _S32)
    hi += lo < inc_part
    hi += a_hi * s_lo
    hi += a_lo * s_hi
    hi += c_hi * i_lo
    hi += c_lo * i_hi
    return hi, lo


def _jump_uniforms(state_hi, state_lo, inc_hi, inc_lo, width: int) -> np.ndarray:
    """``(n, width)`` float64: the first ``width`` uniforms of ``n`` streams.

    Draw ``j`` is PCG64's XSL-RR output of the state ``j + 1`` steps on,
    then ``random()``'s ``(x >> 11) * 2**-53``.
    """
    hi, lo = _advance(state_hi, state_lo, inc_hi, inc_lo, width)
    rot = hi >> _S58
    lo ^= hi
    hi = lo >> rot
    rot = (_SIXTY_FOUR - rot) & _ROT_MASK
    lo <<= rot
    lo |= hi
    lo >>= _S11
    out = lo.astype(np.float64)
    out *= 2.0**-53
    return out


def stream_uniforms(seeds, counts, out: np.ndarray | None = None) -> np.ndarray:
    """``np.random.default_rng(seeds[i]).random(counts[i])`` for every ``i``, concatenated.

    Bit-identical to building one generator per stream, but seeds every
    stream in array ops, computes streams of at most :data:`SHORT_STREAM`
    uniforms by jumping ahead, and draws longer ones with one reused numpy
    ``PCG64`` set to the computed state (see the module docstring).

    Parameters
    ----------
    seeds:
        One seed per stream (:func:`seed_array`'s domain).
    counts:
        Uniforms to draw from each stream (:func:`count_array`'s domain).
    out:
        Optional C-contiguous float64 buffer of ``sum(counts)`` values to
        write into; a new array otherwise.

    Returns
    -------
    numpy.ndarray
        ``out``: stream ``i``'s uniforms fill the ``i``-th block.
    """
    seeds, counts = seed_array(seeds), count_array(counts)
    if seeds.shape != counts.shape:
        raise ValidationError(f"{len(seeds)} seeds but {len(counts)} counts")
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if out is None:
        out = np.empty(total)
    elif out.shape != (total,) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValidationError(f"out must be a contiguous float64 array of {total} values")
    drawn = np.flatnonzero(counts)
    if not drawn.size:
        return out
    counts, starts = counts[drawn], (ends - counts)[drawn]
    states = _pcg64_states(seeds[drawn])
    # Short streams, sorted by count so each chunk pads to a near-equal width.
    short = np.flatnonzero(counts <= SHORT_STREAM)
    short = short[np.argsort(counts[short], kind="stable")]
    position = 0
    while position < len(short):
        # As many rows as fit in _CHUNK uniforms at the width of the
        # widest (last) of them.
        rows = short[position : position + max(1, _CHUNK // int(counts[short[position]]))]
        rows = rows[: max(1, _CHUNK // int(counts[rows[-1]]))]
        width = int(counts[rows[-1]])
        position += len(rows)
        values = _jump_uniforms(*(column[rows] for column in states), width)
        columns = np.arange(width)
        targets = starts[rows][:, None] + columns
        if counts[rows[0]] == width:
            out[targets] = values
        else:
            keep = columns < counts[rows][:, None]
            out[targets[keep]] = values[keep]
    # Long streams: numpy's generator, positioned by the state setter.
    long_rows = np.flatnonzero(counts > SHORT_STREAM)
    if long_rows.size:
        bit_generator = np.random.PCG64(0)
        generator = np.random.Generator(bit_generator)
        state_hi, state_lo, inc_hi, inc_lo = (column[long_rows].tolist() for column in states)
        begin = starts[long_rows].tolist()
        end = (starts + counts)[long_rows].tolist()
        for index in range(len(begin)):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {
                    "state": state_hi[index] << 64 | state_lo[index],
                    "inc": inc_hi[index] << 64 | inc_lo[index],
                },
                "has_uint32": 0,
                "uinteger": 0,
            }
            generator.random(out=out[begin[index] : end[index]])
    return out
