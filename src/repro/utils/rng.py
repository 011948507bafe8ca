"""Deterministic random-number plumbing.

Every stochastic component in the library accepts either an integer seed or
a :class:`numpy.random.Generator`.  Funnelling both through
:func:`as_generator` keeps experiments reproducible bit-for-bit while still
letting callers share one generator across components when they want
coupled randomness.

Seeding many streams at once: numpy seeds one ``SeedSequence`` per call,
at 12-20 µs each, which dominates a fleet build of cheap devices.
:func:`seed_states` is numpy's ``SeedSequence`` arithmetic (entropy and
spawn-key assembly, the pool hash-mix, ``generate_state``) as uint32
array operations over many seeds, equal word for word to
``SeedSequence(entropy, spawn_key=key).generate_state(n, dtype)``.
:func:`generators` builds the matching ``Generator`` for each seed from
those state words through numpy's ``ISeedSequence`` interface, equal to
``np.random.default_rng`` in state and spawned children.  Both take the
vectorized path for entropy and key words in [0, 2**32) and hand any
other value to numpy itself.  :func:`as_generator` stays numpy's own.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_WORD = 1 << 32
_PCG64_WORDS = 4  # PCG64 seeds from generate_state(4, np.uint64)
_SEQUENCES = (list, tuple, range, np.ndarray)


@lru_cache(maxsize=None)
def _steps(init: int, mult: int, start: int, count: int) -> tuple:
    """The (xor, multiply) constants of hash steps start..start+count-1,
    as (count, 1) uint32 columns.  A hash step xors with the running
    constant ``init * mult**k mod 2**32``, then advances it and
    multiplies by the new value, whatever the data."""
    consts = [init]
    for _ in range(start + count):
        consts.append(consts[-1] * mult % _WORD)
    column = np.array(consts, np.uint32)[:, None]
    column.flags.writeable = False
    return column[start:start + count], column[start + 1:start + count + 1]


def _hash(values: np.ndarray, steps: tuple) -> np.ndarray:
    """numpy's ``hashmix`` of ``values``, one hash step per row."""
    xor, mul = steps
    out = np.bitwise_xor(values, xor)
    out *= mul
    out ^= out >> _SHIFT
    return out


@lru_cache(maxsize=None)
def _mixing() -> tuple:
    """The pool's initial words 1-3 and the hash steps of its mixing.

    One-word entropy fills pool words 1-3 with hashed zeros, spawn key
    or not (a key pads the entropy to the pool size), so they are
    constants.  Pool word ``s`` then hashes into each other word in turn
    (steps 4 + 3s ...): the steps sit at the destination rows of a
    (4, 1) column, and row ``s`` keeps its value."""
    zeros = np.zeros((_POOL_SIZE - 1, 1), np.uint32)
    tail = _hash(zeros, _steps(_INIT_A, _MULT_A, 1, _POOL_SIZE - 1))
    tail.flags.writeable = False
    rounds = []
    for src in range(_POOL_SIZE):
        xor, mul = _steps(_INIT_A, _MULT_A, _POOL_SIZE + 3 * src, 3)
        rows = [d for d in range(_POOL_SIZE) if d != src]
        steps = tuple(np.zeros((_POOL_SIZE, 1), np.uint32) for _ in range(2))
        steps[0][rows], steps[1][rows] = xor, mul
        rounds.append(steps)
    return tail, rounds


def _pool(entropy: np.ndarray, key: list) -> np.ndarray:
    """numpy's ``mix_entropy`` of one-word entropy and one-word key
    elements, as a (4, seeds) uint32 pool.

    The entropy words are ``[e, 0, 0, 0, *key]`` (just ``[e]`` without a
    key, which fills the pool alike): the first four fill the pool, every
    pool word mixes into every other, then each key word mixes into all
    four.  A source word hashes for all its destinations at once, in
    place, so a call's fixed cost stays a few dozen ufunc calls.
    """
    tail, rounds = _mixing()
    pool = np.empty((_POOL_SIZE, entropy.size), np.uint32)
    hashed, shifted = np.empty_like(pool), np.empty_like(pool)
    pool[0] = _hash(entropy, _steps(_INIT_A, _MULT_A, 0, 1))
    pool[1:] = tail
    # Key words hash after the fill's and the mixing's steps.
    first = _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1)
    steps = [*rounds] + [
        _steps(_INIT_A, _MULT_A, first + _POOL_SIZE * j, _POOL_SIZE)
        for j in range(len(key))
    ]
    for i, (xor, mul) in enumerate(steps):
        own = i < _POOL_SIZE  # pool word i mixes into the others, unchanged
        source = pool[i].copy() if own else key[i - _POOL_SIZE]
        np.bitwise_xor(source, xor, out=hashed)
        hashed *= mul
        np.right_shift(hashed, _SHIFT, out=shifted)
        hashed ^= shifted
        # mix(pool, hashed), every pool word at once.
        hashed *= _MIX_R
        pool *= _MIX_L
        pool -= hashed
        np.right_shift(pool, _SHIFT, out=shifted)
        pool ^= shifted
        if own:
            pool[i] = source
    return pool


@lru_cache(maxsize=None)
def _cycle(words: int) -> np.ndarray:
    """Pool word of each state word: numpy cycles through the pool."""
    return np.arange(words) % _POOL_SIZE


def _generate(pool: np.ndarray, n_words: int, dtype) -> np.ndarray:
    """numpy's ``generate_state`` of every pool column, one row per seed."""
    out_dtype = np.dtype(dtype)
    if out_dtype == np.uint32:
        words = n_words
    elif out_dtype == np.uint64:
        words = 2 * n_words
    else:
        raise ValueError("only support uint32 or uint64")
    state = _hash(pool[_cycle(words)], _steps(_INIT_B, _MULT_B, 0, words))
    state = np.ascontiguousarray(state.T)
    if out_dtype == np.uint64:
        # numpy reads word pairs as little-endian uint64s.
        state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64)
    return state


def _one_word(value) -> bool:
    """Whether numpy coerces ``value`` to exactly one uint32 word."""
    return isinstance(value, (int, np.integer)) and 0 <= value < _WORD


def _words(column, n: int):
    """A seed column as ``n`` uint32 words, plus the mask of its one-word
    entries (``None`` when all are); other entries read as 0."""
    if not isinstance(column, _SEQUENCES):
        if _one_word(column):
            return np.full(n, column, np.uint32), None
        return np.zeros(n, np.uint32), np.zeros(n, bool)
    try:
        values = np.asarray(column)
    except (OverflowError, ValueError):
        values = None
    if values is not None and values.ndim == 1 and values.dtype.kind in "iu":
        words = values.astype(np.uint32)
        inside = words == values  # an int outside [0, 2**32) wraps
        if inside.all():
            return words, None
        words[~inside] = 0
        return words, inside
    inside = np.array([_one_word(v) for v in column], bool)
    words = np.array([v if ok else 0 for v, ok in zip(column, inside)], np.uint32)
    return words, inside


def _bulk(entropy, spawn_key, n_words: int, dtype):
    """The seeds ``entropy`` and ``spawn_key`` describe, split between the
    vectorized path and numpy.

    Returns the seed count; the vectorized seeds' rows, their uint32
    words (the entropy column, then one per key element) and their
    ``generate_state`` rows; and ``(row, entropy, spawn_key)`` of every
    other seed, as given.
    """
    columns = (entropy, *spawn_key)
    per_seed = [isinstance(c, _SEQUENCES) for c in columns]
    lengths = {len(c) for c, each in zip(columns, per_seed) if each}
    if len(lengths) > 1:
        raise ValueError(f"seed columns differ in length: {sorted(lengths)}")
    n = lengths.pop() if lengths else 1
    words, inside = [], None
    for column in columns:
        column_words, column_inside = _words(column, n)
        words.append(column_words)
        if column_inside is not None:
            inside = column_inside if inside is None else inside & column_inside
    rows, others = range(n), []
    if inside is not None:
        rows = np.flatnonzero(inside).tolist()
        for i in np.flatnonzero(~inside).tolist():
            values = [c[i] if each else c for c, each in zip(columns, per_seed)]
            others.append((i, values[0], tuple(values[1:])))
        words = [w[rows] for w in words]
    states = _generate(_pool(words[0], words[1:]), n_words, dtype)
    return n, rows, words, states, others


def seed_states(entropy, spawn_key=(), n_words: int = 4, dtype=np.uint32) -> np.ndarray:
    """``SeedSequence(e, spawn_key=k).generate_state(n_words, dtype)`` for
    many seeds in one vectorized pass: a (seeds, n_words) array, one row
    per seed, equal to numpy's word for word.

    ``entropy`` is one seed for every row or a sequence of one per row;
    each element of ``spawn_key`` likewise is one int or a sequence of
    one int per row.  Rows whose entropy and key elements are all ints in
    [0, 2**32) take the vectorized path; any other row is numpy's own
    ``SeedSequence``, raising numpy's errors.
    """
    n, rows, _, states, others = _bulk(entropy, spawn_key, n_words, dtype)
    if not others:
        return states
    out = np.empty((n, n_words), dtype)
    out[rows] = states
    for i, e, key in others:
        out[i] = np.random.SeedSequence(e, spawn_key=key).generate_state(n_words, dtype)
    return out


class _StateSeedSequence:
    """``SeedSequence(entropy, spawn_key=spawn_key)`` with its PCG64 state
    words computed in bulk (:func:`seed_states`).  Any other request (more
    or other words, spawned children) goes to numpy's own SeedSequence,
    built on first use, so children equal ``default_rng``'s.  A numpy
    ``ISpawnableSeedSequence`` once :func:`_state_seed_sequence` has
    registered it."""

    __slots__ = ("entropy", "spawn_key", "_state", "_sequence")

    def __init__(self, entropy, spawn_key, state):
        self.entropy = entropy
        self.spawn_key = spawn_key
        self._state = state
        self._sequence = None

    def _numpy(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(
                self.entropy, spawn_key=self.spawn_key
            )
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == _PCG64_WORDS and np.dtype(dtype) == np.uint64:
            return self._state.copy()
        return self._numpy().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._numpy().spawn(n_children)


@lru_cache(maxsize=None)
def _state_seed_sequence() -> type:
    """:class:`_StateSeedSequence`, registered as the numpy
    ``ISpawnableSeedSequence`` a ``PCG64`` accepts as its seed.  It
    registers on first use: numpy loads ``numpy.random`` lazily, and
    importing this module must not load it."""
    from numpy.random.bit_generator import ISpawnableSeedSequence

    ISpawnableSeedSequence.register(_StateSeedSequence)
    return _StateSeedSequence


def generators(entropy, spawn_key=()) -> list:
    """``np.random.default_rng(np.random.SeedSequence(e, spawn_key=k))``
    for many seeds, one ``Generator`` per row of :func:`seed_states`.

    With no spawn key that is ``np.random.default_rng(e)`` for each seed,
    equal in ``bit_generator.state``, in every draw and in ``spawn``
    children.  Seeds outside the vectorized domain (see
    :func:`seed_states`) are numpy's own, built and raising as
    ``default_rng`` does.
    """
    n, rows, words, states, others = _bulk(
        entropy, spawn_key, _PCG64_WORDS, np.uint64
    )
    seeded = _state_seed_sequence()
    entropies = words[0].tolist()
    keys = list(zip(*(w.tolist() for w in words[1:]))) or [()] * len(entropies)
    out = [None] * n
    for row, e, key, state in zip(rows, entropies, keys, states):
        out[row] = np.random.Generator(np.random.PCG64(seeded(e, key, state)))
    for i, e, key in others:
        out[i] = np.random.default_rng(
            np.random.SeedSequence(e, spawn_key=key) if key else e
        )
    return out


def as_generator(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an ``int``, a ``SeedSequence``, or an
    existing ``Generator`` (returned unchanged so state is shared).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot build a Generator from {type(seed).__name__}")


def seed_sequence(seed=None) -> np.random.SeedSequence:
    """Build a :class:`numpy.random.SeedSequence` from a seed-like value."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(seed)
    raise TypeError(f"cannot build a SeedSequence from {type(seed).__name__}")


def spawn(seed, n: int) -> list:
    """Derive ``n`` independent generators from one seed-like value.

    Used when an experiment needs decoupled random streams (e.g. data
    generation vs. weight init vs. exploration noise) that are all pinned
    by a single top-level seed.
    """
    if isinstance(seed, np.random.Generator):
        # Spawn through the generator's bit generator seed sequence.
        children = seed.bit_generator.seed_seq.spawn(n)
    else:
        children = seed_sequence(seed).spawn(n)
    return [np.random.default_rng(c) for c in children]


class PooledDraws:
    """Batched scalar draws from one :class:`~numpy.random.Generator`.

    Event-driven simulation consumes random variates one at a time, where
    numpy's per-call Generator dispatch overhead dominates the actual
    sampling.  A pool pre-draws blocks per distribution and hands out plain
    Python floats/ints; the realized stream is still fully deterministic
    given the generator's seed and the call sequence (pools refill in
    call order), it is just a *different* deterministic stream than
    scalar-by-scalar draws from the same seed.
    """

    __slots__ = ("_rng", "_block", "_pools")

    def __init__(self, rng=None, block: int = 256):
        if block < 1:
            raise ValueError("block must be >= 1")
        self._rng = as_generator(rng)
        self._block = int(block)
        self._pools: dict = {}

    def _next(self, key, sampler) -> float:
        pool = self._pools.get(key)
        if pool is None or pool[1] >= len(pool[0]):
            pool = [sampler(self._block).tolist(), 0]
            self._pools[key] = pool
        value = pool[0][pool[1]]
        pool[1] += 1
        return value

    def random(self) -> float:
        """One uniform [0, 1) draw."""
        return self._next("random", lambda n: self._rng.random(n))

    def integers(self, high: int) -> int:
        """One integer draw from ``[0, high)``."""
        return self._next(
            ("integers", high), lambda n: self._rng.integers(high, size=n)
        )

    def beta(self, a: float, b: float) -> float:
        """One Beta(a, b) draw."""
        return self._next(("beta", a, b), lambda n: self._rng.beta(a, b, size=n))


class DrawBatch:
    """Per-device :class:`PooledDraws` streams, taken across a device axis.

    The batched fleet engine holds N independent devices in lockstep; each
    device owns its own :class:`~numpy.random.Generator` and must consume
    *exactly* the variate stream the scalar per-device path would (same
    distribution keys, same per-device call order, same ``block``-sized
    refills), or bit-identity between the two engines breaks.

    ``DrawBatch`` keeps one ``(N, block)`` value pool plus an ``(N,)``
    cursor per distribution key.  A take gathers the current pool value for
    every requested device in one fancy-indexing pass; only devices whose
    pool ran dry refill, each from its own generator with the same sampler
    call ``PooledDraws`` would have made.  Cross-device ordering is free:
    streams are per-device, so batching the gather cannot change any
    device's realized sequence.
    """

    __slots__ = ("_rngs", "_block", "_pools")

    def __init__(self, rngs, block: int = 256):
        if block < 1:
            raise ValueError("block must be >= 1")
        self._rngs = [as_generator(r) for r in rngs]
        self._block = int(block)
        self._pools: dict = {}

    def __len__(self) -> int:
        return len(self._rngs)

    def _pool(self, key, dtype) -> list:
        pool = self._pools.get(key)
        if pool is None:
            values = np.empty((len(self._rngs), self._block), dtype=dtype)
            cursor = np.full(len(self._rngs), self._block, dtype=np.int64)
            # pool[2] counts takes guaranteed safe before any per-device
            # cursor can reach the block end (a take advances the maximum
            # cursor by at most one), so the hot path skips the dry check.
            pool = self._pools[key] = [values, cursor, 0]
        return pool

    def _refill(self, pool, sampler, idx, taken) -> np.ndarray:
        """Refill dry member pools; returns re-read cursors for ``idx``."""
        values, cursor, _ = pool
        dry = taken >= self._block
        if dry.any():
            for i in idx[dry].tolist():
                values[i] = sampler(self._rngs[i], self._block)
                cursor[i] = 0
            taken = cursor[idx]
            # Recompute the guaranteed-safe countdown only after a refill
            # actually moved a cursor.  While some member has never drawn
            # this key (cursor pinned at the block end — e.g. a device
            # that misses every event), the max stays there and the pool
            # runs in per-take check mode: just the cheap dry test above,
            # not this full-membership reduction.
            pool[2] = self._block - int(cursor.max()) - 1
        return taken

    # The three draw kinds are spelled out (instead of sharing a generic
    # _take with a sampler closure) because the per-call closure + extra
    # frame were measurable at the batched engine's call rate.

    def random(self, idx: np.ndarray) -> np.ndarray:
        """One uniform [0, 1) draw for each device in ``idx``."""
        pool = self._pools.get("random")
        if pool is None:
            pool = self._pool("random", np.float64)
        values, cursor, countdown = pool
        taken = cursor[idx]
        if countdown <= 0:
            taken = self._refill(
                pool, lambda rng, n: rng.random(n), idx, taken
            )
        else:
            pool[2] = countdown - 1
        out = values[idx, taken]
        cursor[idx] = taken + 1
        return out

    def integers(self, high: int, idx: np.ndarray) -> np.ndarray:
        """One integer draw from ``[0, high)`` for each device in ``idx``."""
        key = ("integers", high)
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pool(key, np.int64)
        values, cursor, countdown = pool
        taken = cursor[idx]
        if countdown <= 0:
            taken = self._refill(
                pool, lambda rng, n: rng.integers(high, size=n), idx, taken
            )
        else:
            pool[2] = countdown - 1
        out = values[idx, taken]
        cursor[idx] = taken + 1
        return out

    def beta(self, a: float, b: float, idx: np.ndarray) -> np.ndarray:
        """One Beta(a, b) draw for each device in ``idx``."""
        key = ("beta", a, b)
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pool(key, np.float64)
        values, cursor, countdown = pool
        taken = cursor[idx]
        if countdown <= 0:
            taken = self._refill(
                pool, lambda rng, n: rng.beta(a, b, size=n), idx, taken
            )
        else:
            pool[2] = countdown - 1
        out = values[idx, taken]
        cursor[idx] = taken + 1
        return out


def shuffled_indices(n: int, rng) -> np.ndarray:
    """Return a permutation of ``range(n)`` drawn from ``rng``."""
    gen = as_generator(rng)
    return gen.permutation(n)


def batches(n: int, batch_size: int, rng=None) -> Iterable[np.ndarray]:
    """Yield index batches covering ``range(n)``; shuffled when rng given."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = shuffled_indices(n, rng) if rng is not None else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]
