"""Tests for repro.utils.rng."""

import re

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    PooledDraws,
    as_generator,
    batches,
    generators,
    seed_sequence,
    seed_states,
    shuffled_indices,
    spawn,
)

#: One uint32 word, its edges drawn often.
WORDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        assert as_generator(42).random() == as_generator(42).random()

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_generator_passes_through_unchanged(self):
        gen = np.random.default_rng(1)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        gen = as_generator(np.random.SeedSequence(5))
        assert isinstance(gen, np.random.Generator)

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            as_generator("not a seed")


class TestSpawn:
    def test_children_are_independent_and_deterministic(self):
        a1, b1 = spawn(7, 2)
        a2, b2 = spawn(7, 2)
        assert a1.random() == a2.random()
        assert b1.random() == b2.random()

    def test_children_differ_from_each_other(self):
        a, b = spawn(7, 2)
        assert a.random() != b.random()

    def test_spawn_from_generator(self):
        children = spawn(np.random.default_rng(3), 3)
        assert len(children) == 3


class TestSeedSequence:
    def test_from_int(self):
        assert isinstance(seed_sequence(1), np.random.SeedSequence)

    def test_passthrough(self):
        ss = np.random.SeedSequence(2)
        assert seed_sequence(ss) is ss

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            seed_sequence(1.5)


class TestBatches:
    def test_covers_everything_once(self):
        seen = np.concatenate(list(batches(10, 3)))
        assert sorted(seen.tolist()) == list(range(10))

    def test_shuffled_covers_everything(self):
        seen = np.concatenate(list(batches(10, 4, rng=0)))
        assert sorted(seen.tolist()) == list(range(10))

    def test_batch_sizes(self):
        sizes = [len(b) for b in batches(10, 4)]
        assert sizes == [4, 4, 2]

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            list(batches(10, 0))

    def test_shuffled_indices_is_permutation(self):
        idx = shuffled_indices(20, 1)
        assert sorted(idx.tolist()) == list(range(20))


class TestPooledDraws:
    def test_deterministic_given_seed_and_call_sequence(self):
        a, b = PooledDraws(7, block=4), PooledDraws(7, block=4)
        seq_a = [a.random(), a.beta(2.0, 8.0), a.integers(3), a.random()]
        seq_b = [b.random(), b.beta(2.0, 8.0), b.integers(3), b.random()]
        assert seq_a == seq_b

    def test_block_size_does_not_change_one_pool_stream(self):
        # Within a single distribution the stream is the generator's
        # block-drawn sequence regardless of block size.
        small, large = PooledDraws(3, block=2), PooledDraws(3, block=64)
        assert [small.random() for _ in range(2)] == [large.random() for _ in range(2)]

    def test_returns_plain_python_scalars(self):
        pool = PooledDraws(0)
        assert type(pool.random()) is float
        assert type(pool.beta(2.0, 8.0)) is float
        assert type(pool.integers(5)) is int
        assert 0 <= pool.integers(5) < 5

    def test_refills_past_block_boundary(self):
        pool = PooledDraws(0, block=3)
        values = [pool.random() for _ in range(10)]
        assert len(set(values)) == 10  # refill produced fresh draws

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            PooledDraws(0, block=0)


class TestDrawBatch:
    """DrawBatch must reproduce each device's PooledDraws stream exactly."""

    def _scalar_stream(self, seed, script):
        pool = PooledDraws(seed)
        out = []
        for kind in script:
            if kind == "r":
                out.append(pool.random())
            elif kind == "i":
                out.append(pool.integers(4))
            else:
                out.append(pool.beta(2.0, 8.0))
        return out

    def test_matches_per_device_pooled_draws(self):
        from repro.utils.rng import DrawBatch

        seeds = [3, 11, 27]
        batch = DrawBatch(seeds)
        # Interleave kinds per device exactly like a scalar PooledDraws
        # consumer would; cross-device interleaving must not matter.
        script = "rribrirbbri"
        got = {i: [] for i in range(len(seeds))}
        all_idx = np.arange(len(seeds))
        for kind in script:
            if kind == "r":
                vals = batch.random(all_idx)
            elif kind == "i":
                vals = batch.integers(4, all_idx)
            else:
                vals = batch.beta(2.0, 8.0, all_idx)
            for i, v in enumerate(vals):
                got[i].append(v)
        for i, seed in enumerate(seeds):
            assert got[i] == self._scalar_stream(seed, script)

    def test_subset_takes_preserve_per_device_order(self):
        from repro.utils.rng import DrawBatch

        batch = DrawBatch([5, 6])
        # Device 0 draws r, r; device 1 draws r only — via masked takes.
        first = batch.random(np.arange(2))
        second = batch.random(np.array([0]))
        scalar0 = PooledDraws(5)
        scalar1 = PooledDraws(6)
        assert [first[0], second[0]] == [scalar0.random(), scalar0.random()]
        assert [first[1]] == [scalar1.random()]

    def test_refill_across_block_boundary_matches(self):
        from repro.utils.rng import DrawBatch

        batch = DrawBatch([9], block=4)
        scalar = PooledDraws(9, block=4)
        idx = np.arange(1)
        got = [float(batch.random(idx)[0]) for _ in range(11)]
        want = [scalar.random() for _ in range(11)]
        assert got == want

    def test_rejects_bad_block(self):
        from repro.utils.rng import DrawBatch

        with pytest.raises(ValueError):
            DrawBatch([0], block=0)


def _same_stream(gen, ref) -> None:
    """``gen`` equals ``ref`` in state, in its first draws and in its
    spawned children."""
    assert gen.bit_generator.state == ref.bit_generator.state
    for got, want in zip(gen.spawn(2), ref.spawn(2)):
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(3).tobytes() == want.random(3).tobytes()
    assert gen.random(5).tobytes() == ref.random(5).tobytes()
    assert gen.normal(size=3).tobytes() == ref.normal(size=3).tobytes()


def _numpy_or_error(build):
    """``build()``'s result, or the exception numpy raises."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - any numpy error is the answer
        return exc


class TestBulkSeeding:
    """``seed_states`` and ``generators`` against numpy's SeedSequence
    and ``default_rng``, word for word."""

    @settings(max_examples=examples(80), deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        key_len=st.integers(0, 2),
        n_words=st.integers(1, 8),
        dtype=st.sampled_from([np.uint32, np.uint64]),
    )
    def test_states_equal_numpy(self, data, n, key_len, n_words, dtype):
        entropy = data.draw(st.lists(WORDS, min_size=n, max_size=n))
        # Each key element is one word for every seed or one per seed.
        key = tuple(
            data.draw(st.one_of(WORDS, st.lists(WORDS, min_size=n, max_size=n)))
            for _ in range(key_len)
        )
        got = seed_states(entropy, key, n_words, dtype)
        want = np.stack([
            np.random.SeedSequence(
                e, spawn_key=tuple(k[i] if isinstance(k, list) else k for k in key)
            ).generate_state(n_words, dtype)
            for i, e in enumerate(entropy)
        ])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=examples(40), deadline=None)
    @given(seeds=st.lists(WORDS, min_size=1, max_size=5))
    def test_generators_equal_default_rng(self, seeds):
        gens = generators(seeds)
        assert len(gens) == len(seeds)
        for seed, gen in zip(seeds, gens):
            _same_stream(gen, np.random.default_rng(seed))

    @settings(max_examples=examples(20), deadline=None)
    @given(seed=WORDS, start=st.integers(0, 2**32 - 4))
    def test_keyed_generators_equal_numpy(self, seed, start):
        """The megacity layout streams: one shared key word, one per seed."""
        gens = generators(seed, (0xC171, range(start, start + 3)))
        for i, gen in zip(range(start, start + 3), gens):
            ref = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(0xC171, i))
            )
            _same_stream(gen, ref)

    @settings(max_examples=examples(40), deadline=None)
    @given(
        value=st.one_of(
            st.integers(2**32, 2**70),
            st.integers(-(2**40), -1),
            st.sampled_from([True, False, 1.5, "7", (3, 4), np.uint64(2**40)]),
        ),
        where=st.sampled_from(["entropy", "key"]),
        dtype=st.sampled_from([np.uint32, np.uint64]),
    )
    def test_values_outside_the_domain_are_numpys(self, value, where, dtype):
        """A seed numpy does not read as one word in [0, 2**32) gets
        numpy's own state, or numpy's own exception, in its row; the
        other rows stay on the vectorized path."""
        if where == "entropy":
            entropy, key, own = [5, value, 7], ([1, 2, 3],), (value, (2,))
        else:
            entropy, key, own = [5, 6, 7], ([1, value, 3],), (6, (value,))

        def numpy_row():
            return np.random.SeedSequence(own[0], spawn_key=own[1]).generate_state(
                4, dtype
            )

        want = _numpy_or_error(numpy_row)
        if isinstance(want, Exception):
            with pytest.raises(type(want), match=re.escape(str(want))):
                seed_states(entropy, key, 4, dtype)
            return
        got = seed_states(entropy, key, 4, dtype)
        assert got[1].tobytes() == want.tobytes()
        for row, e, k in ((0, entropy[0], 1), (2, entropy[2], 3)):
            ref = np.random.SeedSequence(e, spawn_key=(k,)).generate_state(4, dtype)
            assert got[row].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 5, True])
    def test_generator_outside_the_domain_is_numpys(self, seed):
        gens = generators([3, seed])
        _same_stream(gens[1], np.random.default_rng(seed))
        _same_stream(gens[0], np.random.default_rng(3))

    @pytest.mark.parametrize("seed", [-1, 1.5, "x"])
    def test_generator_refused_seed_raises_numpys_error(self, seed):
        want = _numpy_or_error(lambda: np.random.default_rng(seed))
        with pytest.raises(type(want), match=re.escape(str(want))):
            generators([3, seed])

    def test_generator_and_none_seeds_are_default_rngs(self):
        gen = np.random.default_rng(4)
        same, fresh = generators([gen, None])
        assert same is gen
        assert isinstance(fresh, np.random.Generator)

    def test_numpy_arrays_and_empty_columns(self):
        words = np.array([0, 9, 2**32 - 1], np.uint32)
        want = [np.random.SeedSequence(int(w)).generate_state(4) for w in words]
        assert seed_states(words).tobytes() == np.stack(want).tobytes()
        assert seed_states([]).shape == (0, 4)
        assert generators([]) == []

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="differ in length"):
            seed_states([1, 2], ([1, 2, 3],))

    def test_only_uint32_and_uint64_states(self):
        with pytest.raises(ValueError, match="only support uint32 or uint64"):
            seed_states([1], (), 4, np.int64)
