"""Tabular Q-learning tests (Eq. 16 semantics)."""

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.runtime import QTable, discretize


class TestDiscretize:
    def test_edges(self):
        assert discretize(0.0, 10) == 0
        assert discretize(1.0, 10) == 9
        assert discretize(0.999, 10) == 9

    def test_out_of_range_clamped(self):
        assert discretize(-5.0, 10) == 0
        assert discretize(5.0, 10) == 9

    @given(st.floats(0, 1, allow_nan=False), st.integers(1, 32))
    @settings(max_examples=examples(60), deadline=None)
    def test_always_valid_bin(self, value, bins):
        assert 0 <= discretize(value, bins) < bins

    def test_custom_range(self):
        assert discretize(5.0, 4, lo=0.0, hi=8.0) == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            discretize(0.5, 0)
        with pytest.raises(ConfigError):
            discretize(0.5, 4, lo=1.0, hi=1.0)


class TestQTableUpdate:
    def test_eq16_by_hand(self):
        q = QTable((2, 2), 2, alpha=0.5, gamma=0.9, epsilon=0.0)
        q.table[(0, 0, 1)] = 1.0
        q.table[(1, 1, 0)] = 2.0
        # Q(s,a) += alpha * (r + gamma * max_a Q(s',a) - Q(s,a))
        new = q.update((0, 0), 1, reward=1.0, next_state=(1, 1))
        assert new == pytest.approx(1.0 + 0.5 * (1.0 + 0.9 * 2.0 - 1.0))

    def test_terminal_update_has_no_bootstrap(self):
        q = QTable((2,), 2, alpha=1.0, gamma=0.9, epsilon=0.0)
        new = q.update((0,), 0, reward=0.7, next_state=None)
        assert new == pytest.approx(0.7)

    def test_repeated_updates_converge_to_reward(self):
        q = QTable((1,), 1, alpha=0.3, gamma=0.0, epsilon=0.0)
        for _ in range(200):
            q.update((0,), 0, reward=0.5, next_state=None)
        assert q.table[(0, 0)] == pytest.approx(0.5, abs=1e-4)

    def test_float_states_normalized_on_every_call(self):
        """The validated-state fast path must keep returning the int-tuple
        form: float tuples hash equal to their int twins, so a naive memo
        would hand the raw floats to numpy indexing on the second call."""
        q = QTable((2, 2), 2)
        for _ in range(3):
            assert q.q_values((1.0, 0.0)).shape == (2,)
            q.update((1.0, 0.0), 1, reward=0.5, next_state=(0.0, 1.0))

    def test_list_states_accepted_repeatedly(self):
        q = QTable((2, 2), 2)
        for _ in range(2):
            assert q.q_values([0, 1]).shape == (2,)

    def test_invalid_state_or_action(self):
        q = QTable((2, 2), 2)
        with pytest.raises(ConfigError):
            q.update((2, 0), 0, 1.0)
        with pytest.raises(ConfigError):
            q.update((0, 0), 5, 1.0)
        with pytest.raises(ConfigError):
            q.q_values((0,))


class TestActionSelection:
    def test_greedy_when_epsilon_zero(self):
        q = QTable((1,), 3, epsilon=0.0, rng=0)
        q.table[(0, 2)] = 1.0
        assert all(q.select_action((0,)) == 2 for _ in range(20))

    def test_explores_when_epsilon_one(self):
        q = QTable((1,), 3, epsilon=1.0, rng=0)
        actions = {q.select_action((0,)) for _ in range(100)}
        assert actions == {0, 1, 2}

    def test_tie_breaks_to_lowest_index(self):
        q = QTable((1,), 3, epsilon=0.0)
        assert q.best_action((0,)) == 0

    def test_epsilon_decay(self):
        q = QTable((1,), 2, epsilon=0.5, epsilon_decay=0.5, epsilon_min=0.1)
        q.decay_epsilon()
        assert q.epsilon == pytest.approx(0.25)
        for _ in range(10):
            q.decay_epsilon()
        assert q.epsilon == pytest.approx(0.1)


class TestLUTSize:
    def test_size_is_grid_times_actions(self):
        # The paper's "negligible overhead" LUT: small and explicit.
        q = QTable((10, 5), 3)
        assert q.size == 150

    def test_validation(self):
        with pytest.raises(ConfigError):
            QTable((0,), 2)
        with pytest.raises(ConfigError):
            QTable((2,), 0)
        with pytest.raises(ConfigError):
            QTable((2,), 2, alpha=0.0)
        with pytest.raises(ConfigError):
            QTable((2,), 2, gamma=1.5)


def test_gridworld_convergence():
    """Q-learning must find the better arm of a 2-armed bandit per state."""
    rng = np.random.default_rng(0)
    q = QTable((2,), 2, alpha=0.1, gamma=0.0, epsilon=0.2, rng=1)
    probs = {(0, 0): 0.2, (0, 1): 0.8, (1, 0): 0.9, (1, 1): 0.1}
    for _ in range(3000):
        s = int(rng.integers(2))
        a = q.select_action((s,))
        r = float(rng.random() < probs[(s, a)])
        q.update((s,), a, r, None)
    assert q.best_action((0,)) == 1
    assert q.best_action((1,)) == 0
