"""Batched (device-axis) twins of the runtime controllers.

The batched fleet engine (:mod:`repro.sim.batch`) advances N devices in
lockstep and needs each controller family to answer "which exit?" for a
whole *vector* of devices at once.  This module provides that protocol:

* :func:`batch_controllers` partitions per-device :class:`Controller`
  instances into homogeneous groups (fixed / greedy / static-LUT /
  Q-learning) and wraps each in a group object exposing
  ``select_exit_batch`` / ``report_event_batch`` / ``end_episode_batch``;
* static families vectorize trivially (their decision is arithmetic over
  the state columns);
* :class:`QLearningBatch` stacks the per-device Q tables into one
  ``(devices, E, P, actions)`` array, applies the Eq. 16 update with fancy
  indexing (each device touches only its own slice, so scatter writes
  cannot collide), and consumes exploration variates through a
  :class:`~repro.utils.rng.DrawBatch` over the per-device generators;
* :func:`batch_continue_rules` does the same for the *second* runtime
  decision: threshold rules vectorize to arithmetic
  (:class:`ThresholdRuleBatch`), learned rules stack their continue/stop
  Q-tables and replay the scalar trajectory-credit pass
  (:class:`LearnedRuleBatch`); devices with incremental inference off
  (:class:`~repro.runtime.incremental.NeverContinue`) skip the continue
  loop entirely.

Bit-identity contract: every group replicates the scalar controller's
arithmetic operation-for-operation and consumes per-device random streams
in the scalar call order, so a batched decision sequence is exactly the
per-device one (see the :mod:`repro.sim.batch` module docstring).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.runtime.controller import Controller, QLearningController, StaticController
from repro.runtime.incremental import (
    CONTINUE,
    IncrementalDecider,
    NeverContinue,
    ThresholdContinue,
)
from repro.runtime.policies import (
    FixedExitPolicy,
    GreedyEnergyPolicy,
    StaticLUTPolicy,
)
from repro.runtime.state import RuntimeStateBatch
from repro.utils.rng import DrawBatch


def discretize_batch(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Vectorized :func:`repro.runtime.qlearning.discretize` over [0, 1].

    Matches the scalar ``int(min(nb - 1, max(0, int(frac * nb))))`` exactly
    for the clamped-nonnegative fractions the runtime produces (``astype``
    truncates toward zero just like ``int()``).
    """
    # minimum/maximum ufuncs, not np.clip: same result, and np.clip's
    # dispatch overhead is measurable at this call rate.
    raw = (values * np.float64(num_bins)).astype(np.int64)
    return np.minimum(num_bins - 1, np.maximum(0, raw))


class BatchedControllerGroup:
    """One homogeneous slice of a fleet's controllers.

    ``rows`` are the engine device rows this group owns; every ``idx``
    argument below must be a subset of them (the engine guarantees it).

    ``always_valid`` advertises that ``select_exit_batch`` can only return
    in-range exits (never ``-1``), letting the engine skip its validity
    mask; ``wants_rewards`` lets it skip building the reward vector for
    non-learning groups.
    """

    always_valid = False
    wants_rewards = False

    def __init__(self, num_rows: int, rows, controllers, exit_cost_matrix):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.controllers = list(controllers)
        self._cost = exit_cost_matrix
        # Engine-row -> group-local row translation.
        self._local = np.full(num_rows, -1, dtype=np.int64)
        self._local[self.rows] = np.arange(len(self.rows), dtype=np.int64)

    def select_exit_batch(self, idx: np.ndarray, state: RuntimeStateBatch) -> np.ndarray:
        raise NotImplementedError

    def report_event_batch(self, idx: np.ndarray, rewards: np.ndarray) -> None:
        """Reward feedback (0/1 realized correctness; 0 for a miss)."""

    def end_episode_batch(self, idx: np.ndarray) -> None:
        """Episode boundary for the devices in ``idx``."""


class FixedBatch(BatchedControllerGroup):
    """Vectorized :class:`FixedExitPolicy`: fixed index, skip if short."""

    def __init__(self, num_rows, rows, controllers, exit_cost_matrix):
        super().__init__(num_rows, rows, controllers, exit_cost_matrix)
        self._exit_index = np.array(
            [c.policy.exit_index for c in controllers], dtype=np.int64
        )
        # The scalar path crashes (IndexError) on an exit index past the
        # device's profile; silently hitting the +inf padding here would
        # turn that loud misconfiguration into a device that misses every
        # event.  Absent exits are exactly the +inf-padded cells.
        width = exit_cost_matrix.shape[1]
        probe = exit_cost_matrix[self.rows, np.minimum(self._exit_index, width - 1)]
        bad = (self._exit_index >= width) | np.isinf(probe)
        if bad.any():
            offenders = [
                (int(self.rows[i]), int(self._exit_index[i]))
                for i in np.nonzero(bad)[0].tolist()
            ]
            raise ConfigError(
                "fixed exit_index beyond the device's profile exits for "
                f"(device row, exit_index): {offenders}"
            )

    def select_exit_batch(self, idx, state):
        e = self._exit_index[self._local[idx]]
        cost = self._cost[idx, e]
        return np.where(state.energy_mj[idx] >= cost, e, -1)


class GreedyBatch(BatchedControllerGroup):
    """Vectorized :class:`GreedyEnergyPolicy`: deepest exit within budget."""

    def __init__(self, num_rows, rows, controllers, exit_cost_matrix):
        super().__init__(num_rows, rows, controllers, exit_cost_matrix)
        self._reserve = np.array(
            [c.policy.reserve_fraction for c in controllers], dtype=np.float64
        )

    def select_exit_batch(self, idx, state):
        budget = state.energy_mj[idx] - self._reserve[self._local[idx]] * state.capacity_mj[idx]
        affordable = self._cost[idx] <= budget[:, None]  # padding is +inf -> False
        any_ok = affordable.any(axis=1)
        deepest = affordable.shape[1] - 1 - np.argmax(affordable[:, ::-1], axis=1)
        return np.where(any_ok, deepest, -1)


class LUTBatch(BatchedControllerGroup):
    """Vectorized :class:`StaticLUTPolicy`: frozen energy-level tables."""

    def __init__(self, num_rows, rows, controllers, exit_cost_matrix):
        super().__init__(num_rows, rows, controllers, exit_cost_matrix)
        levels = {c.policy.num_levels for c in controllers}
        if len(levels) != 1:
            raise ConfigError("one LUT group must share num_levels")
        self._num_levels = levels.pop()
        self._tables = np.stack([c.policy.table for c in controllers])
        self._capacity = np.array(
            [c.policy.capacity_mj for c in controllers], dtype=np.float64
        )

    def select_exit_batch(self, idx, state):
        loc = self._local[idx]
        energy = state.energy_mj[idx]
        frac = energy / self._capacity[loc]
        level = discretize_batch(frac, self._num_levels)
        choice = self._tables[loc, level].copy()
        # Bin-edge guard, unrolled over the (small) exit count: step down
        # while the chosen exit is unaffordable, exactly like the scalar
        # while-loop.
        for _ in range(self._cost.shape[1]):
            probe = np.where(choice >= 0, choice, 0)
            bad = (choice >= 0) & (self._cost[idx, probe] > energy)
            if not bad.any():
                break
            choice = choice - bad
        return choice


class QLearningBatch(BatchedControllerGroup):
    """Stacked per-device Q tables with pooled exploration draws.

    State evolution (pending transition, reward latch, epsilon anneal) is
    kept as columns so one fancy-indexed pass applies the paper's Eq. 16
    across every device that resolved an event this step.
    """

    always_valid = True  # epsilon-greedy actions are always in [0, num_exits)
    wants_rewards = True

    def __init__(self, num_rows, rows, controllers, exit_cost_matrix):
        super().__init__(num_rows, rows, controllers, exit_cost_matrix)
        shapes = {c.qtable.table.shape for c in controllers}
        if len(shapes) != 1:
            raise ConfigError("one Q-learning group must share table shape")
        (self._energy_bins, self._power_bins, self._num_actions) = shapes.pop()
        m = len(controllers)
        self._covers_all = m == num_rows
        self._ebins_f = np.float64(self._energy_bins)
        self._pbins_f = np.float64(self._power_bins)
        self._tables = np.stack([c.qtable.table for c in controllers])
        self._alpha = np.array([c.qtable.alpha for c in controllers])
        self._gamma = np.array([c.qtable.gamma for c in controllers])
        self._epsilon = np.array([c.qtable.epsilon for c in controllers])
        self._eps_decay = np.array([c.qtable.epsilon_decay for c in controllers])
        self._eps_min = np.array([c.qtable.epsilon_min for c in controllers])
        self._draws = DrawBatch([c.qtable._rng for c in controllers])
        self._pend_e = np.zeros(m, dtype=np.int64)
        self._pend_p = np.zeros(m, dtype=np.int64)
        self._pend_a = np.zeros(m, dtype=np.int64)
        self._has_pending = np.zeros(m, dtype=bool)
        self._reward = np.zeros(m, dtype=np.float64)
        self._has_reward = np.zeros(m, dtype=bool)

    def _apply_update(self, loc: np.ndarray, bootstrap: np.ndarray) -> None:
        """Eq. 16 for the group-local rows ``loc`` with given bootstraps."""
        e, p, a = self._pend_e[loc], self._pend_p[loc], self._pend_a[loc]
        q = self._tables[loc, e, p, a]
        td = self._reward[loc] + self._gamma[loc] * bootstrap - q
        self._tables[loc, e, p, a] = q + self._alpha[loc] * td

    def select_exit_batch(self, idx, state):
        # When the group owns the whole fleet and every device is stepping,
        # engine rows ARE group rows — skip the translation/state gathers.
        if self._covers_all and len(idx) == len(self.rows):
            loc = idx
            view = None
        else:
            loc = self._local[idx]
            view = idx
        # Unclamped ratio -> bin shortcut: level <= capacity and the
        # windowed mean power <= the trace peak by construction, so the
        # scalar path's [0, 1] clamp only matters at the exact edges —
        # where the bin clamp below (and astype's truncation toward zero
        # for sub-epsilon negatives) lands in the same bin regardless.
        ef = state.energy_ratio(view)
        cf = state.charge_ratio(view)
        e = np.minimum(
            self._energy_bins - 1,
            np.maximum(0, (ef * self._ebins_f).astype(np.int64)),
        )
        p = np.minimum(
            self._power_bins - 1,
            np.maximum(0, (cf * self._pbins_f).astype(np.int64)),
        )
        # Close the previous transition: bootstrap on the state observed
        # now.  After the first resolved event every selecting device has a
        # latched (transition, reward) pair, so the all-true fast path is
        # the common one.
        upd = self._has_pending[loc] & self._has_reward[loc]
        if upd.all():
            if view is None:
                # Whole group stepping: pending columns used directly, no
                # translation gathers.
                pe, pp, pa = self._pend_e, self._pend_p, self._pend_a
                boot = self._tables[loc, e, p].max(axis=-1)
                q = self._tables[loc, pe, pp, pa]
                td = self._reward + self._gamma * boot - q
                self._tables[loc, pe, pp, pa] = q + self._alpha * td
                self._has_pending[:] = False
                self._has_reward[:] = False
            else:
                self._apply_update(loc, self._tables[loc, e, p].max(axis=-1))
                self._has_pending[loc] = False
                self._has_reward[loc] = False
        elif upd.any():
            ul = loc[upd]
            self._apply_update(ul, self._tables[ul, e[upd], p[upd]].max(axis=-1))
            self._has_pending[ul] = False
            self._has_reward[ul] = False
        r = self._draws.random(loc)
        explore = r < (self._epsilon if view is None else self._epsilon[loc])
        # Greedy argmax for every device in one gather (reading the
        # just-updated table, like the scalar update-then-select order);
        # explorers then overwrite theirs with the pooled integer draw.
        action = self._tables[loc, e, p].argmax(axis=-1)
        if explore.any():
            action[explore] = self._draws.integers(self._num_actions, loc[explore])
        if view is None:
            self._pend_e[:] = e
            self._pend_p[:] = p
            self._pend_a[:] = action
            self._has_pending[:] = True
            self._has_reward[:] = False
        else:
            self._pend_e[loc] = e
            self._pend_p[loc] = p
            self._pend_a[loc] = action
            self._has_pending[loc] = True
            self._has_reward[loc] = False
        return action

    def report_event_batch(self, idx, rewards):
        # The engine contract mirrors the simulator's: a report always
        # follows select_exit_batch on the same devices, so every reported
        # device has a pending transition (select just latched it) and the
        # scalar path's pending-is-None guard can never fire here.
        if self._covers_all and len(idx) == len(self.rows):
            self._reward[:] = rewards
            self._has_reward[:] = True
        else:
            loc = self._local[idx]
            self._reward[loc] = rewards
            self._has_reward[loc] = True

    def end_episode_batch(self, idx):
        loc = self._local[idx]
        fin = self._has_pending[loc] & self._has_reward[loc]
        if fin.any():
            fl = loc[fin]
            # Terminal transition: gamma * 0.0 bootstraps, like the scalar
            # update(..., next_state=None).
            self._apply_update(fl, np.zeros(len(fl)))
        self._has_pending[loc] = False
        self._has_reward[loc] = False
        self._epsilon[loc] = np.maximum(
            self._eps_min[loc], self._epsilon[loc] * self._eps_decay[loc]
        )


# --------------------------------------------------------------------- #
# Continue-rule groups: the second runtime decision, across the device axis
# --------------------------------------------------------------------- #

class BatchedRuleGroup:
    """One homogeneous slice of a fleet's continue rules.

    The engine's incremental-inference loop asks, for a vector of devices
    that just produced a result, "continue to the next exit?".  A rule
    group answers for the rows it owns with the scalar rule's arithmetic
    applied elementwise; a learned group additionally records the
    per-device decision trajectory the scalar
    :meth:`~repro.runtime.controller.Controller.decide_continue` would
    have appended, and replays the scalar
    :meth:`~repro.runtime.incremental.IncrementalDecider.observe_trajectory`
    update chain when the event's reward arrives.
    """

    #: Does :meth:`decide_batch` consume RNG / record trajectories?
    learns = False

    def __init__(self, num_rows: int, rows, rules):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.rules = list(rules)
        self._local = np.full(num_rows, -1, dtype=np.int64)
        self._local[self.rows] = np.arange(len(self.rows), dtype=np.int64)

    def decide_batch(
        self,
        idx: np.ndarray,
        entropy: np.ndarray,
        energy_fraction: np.ndarray,
        affordable: np.ndarray,
    ) -> np.ndarray:
        """Continue mask for the devices in ``idx`` (True = CONTINUE)."""
        raise NotImplementedError

    def observe_batch(self, idx: np.ndarray, rewards: np.ndarray) -> None:
        """Event resolved: credit the recorded trajectories (learning)."""

    def end_episode_batch(self, idx: np.ndarray) -> None:
        """Episode boundary for the devices in ``idx``."""


class ThresholdRuleBatch(BatchedRuleGroup):
    """Vectorized :class:`ThresholdContinue`: continue while entropy is
    high and the marginal inference is affordable.  Stateless, no RNG."""

    def __init__(self, num_rows, rows, rules):
        super().__init__(num_rows, rows, rules)
        self._threshold = np.array(
            [r.entropy_threshold for r in rules], dtype=np.float64
        )

    def decide_batch(self, idx, entropy, energy_fraction, affordable):
        if not affordable.any():
            # Draw-free STOP for every lane: skip the threshold gather —
            # with the widened intermittent lanes the engine hands the
            # continue loop larger, often fully-exhausted vectors.
            return np.zeros(len(idx), dtype=bool)
        return affordable & (entropy > self._threshold[self._local[idx]])


class LearnedRuleBatch(BatchedRuleGroup):
    """Stacked :class:`IncrementalDecider` Q-tables with pooled draws.

    Decision order per device replicates the scalar path exactly: an
    unaffordable marginal is a draw-free STOP, an affordable one consumes
    one uniform (plus one integer when exploring) from the rule's own
    generator through :class:`~repro.utils.rng.DrawBatch`; every decision
    records ``(state bins, action)`` for the trajectory credit pass.
    ``decay_rows`` are the engine rows whose *exit* controller is
    Q-learning — the scalar path only anneals a rule's epsilon from
    :meth:`QLearningController.end_episode`, so a static-controller
    device's learned rule never decays, and the batched twin must not
    either.
    """

    learns = True

    def __init__(self, num_rows, rows, rules, max_steps: int, decay_rows):
        super().__init__(num_rows, rows, rules)
        shapes = {r.qtable.table.shape for r in rules}
        if len(shapes) != 1:
            raise ConfigError("one learned-rule group must share table shape")
        self._conf_bins, self._energy_bins, _ = shapes.pop()
        m = len(rules)
        self._tables = np.stack([r.qtable.table for r in rules])
        self._alpha = np.array([r.qtable.alpha for r in rules])
        self._gamma = np.array([r.qtable.gamma for r in rules])
        self._epsilon = np.array([r.qtable.epsilon for r in rules])
        self._eps_decay = np.array([r.qtable.epsilon_decay for r in rules])
        self._eps_min = np.array([r.qtable.epsilon_min for r in rules])
        self._draws = DrawBatch([r.qtable._rng for r in rules])
        self._decay = np.zeros(m, dtype=bool)
        self._decay[self._local[np.asarray(decay_rows, dtype=np.int64)]] = True
        # Per-device decision trajectories for the current event, as
        # (step, device) columns; ``max_steps`` bounds the continue chain
        # (at most num_exits - 1 decisions per event).
        steps = max(int(max_steps), 1)
        self._traj_c = np.zeros((steps, m), dtype=np.int64)
        self._traj_e = np.zeros((steps, m), dtype=np.int64)
        self._traj_a = np.zeros((steps, m), dtype=np.int64)
        self._traj_len = np.zeros(m, dtype=np.int64)

    def decide_batch(self, idx, entropy, energy_fraction, affordable):
        loc = self._local[idx]
        c = discretize_batch(entropy, self._conf_bins)
        e = discretize_batch(energy_fraction, self._energy_bins)
        action = np.zeros(len(loc), dtype=np.int64)  # STOP unless selected
        if affordable.any():
            al = loc[affordable]
            r = self._draws.random(al)
            explore = r < self._epsilon[al]
            chosen = self._tables[al, c[affordable], e[affordable]].argmax(
                axis=-1
            )
            if explore.any():
                chosen[explore] = self._draws.integers(2, al[explore])
            action[affordable] = chosen
        step = self._traj_len[loc]
        self._traj_c[step, loc] = c
        self._traj_e[step, loc] = e
        self._traj_a[step, loc] = action
        self._traj_len[loc] = step + 1
        return action == CONTINUE

    def observe_batch(self, idx, rewards):
        loc = self._local[idx]
        length = self._traj_len[loc]
        max_len = int(length.max()) if len(length) else 0
        if not max_len:
            return
        # Intermediate transitions earn 0 and bootstrap on the next
        # decision state; step order is preserved per device because
        # update i can touch the cells update i+1 bootstraps from.
        for i in range(max_len - 1):
            has_next = length > i + 1
            if not has_next.any():
                continue
            ml = loc[has_next]
            boot = self._tables[
                ml, self._traj_c[i + 1, ml], self._traj_e[i + 1, ml]
            ].max(axis=-1)
            c, e, a = self._traj_c[i, ml], self._traj_e[i, ml], self._traj_a[i, ml]
            q = self._tables[ml, c, e, a]
            td = self._gamma[ml] * boot - q
            self._tables[ml, c, e, a] = q + self._alpha[ml] * td
        # Final decision earns the event's realized correctness
        # (terminal: gamma * 0 bootstrap, like the scalar next_state=None).
        final = length > 0
        fl = loc[final]
        li = length[final] - 1
        c, e, a = self._traj_c[li, fl], self._traj_e[li, fl], self._traj_a[li, fl]
        q = self._tables[fl, c, e, a]
        td = rewards[final] - q
        self._tables[fl, c, e, a] = q + self._alpha[fl] * td
        self._traj_len[loc] = 0

    def end_episode_batch(self, idx):
        loc = self._local[idx]
        self._traj_len[loc] = 0
        dec = loc[self._decay[loc]]
        if len(dec):
            self._epsilon[dec] = np.maximum(
                self._eps_min[dec], self._epsilon[dec] * self._eps_decay[dec]
            )


def _rule_key(rule):
    """Rule-batching key, or None when the rule cannot be batched."""
    if isinstance(rule, NeverContinue):
        return ("never",)
    if isinstance(rule, ThresholdContinue):
        return ("threshold",)
    if isinstance(rule, IncrementalDecider):
        return ("learned",) + rule.qtable.table.shape
    return None


def batch_continue_rules(controllers, max_steps: int, rows=None):
    """Partition per-device continue rules into batched rule groups.

    Returns ``(groups, group_of)``; rows whose rule is
    :class:`NeverContinue` get ``group_of[row] == -1`` (the engine skips
    the continue loop for them entirely — the scalar rule is a draw-free,
    state-free STOP, so skipping is bit-identical).  Unbatchable rules are
    a :class:`ConfigError` (callers pre-filter with :func:`batchable`).
    ``rows`` restricts grouping to a subset of engine rows (the batched
    engine excludes intermittent-execution devices, whose controllers are
    never consulted).
    """
    num_rows = len(controllers)
    row_iter = range(num_rows) if rows is None else [int(r) for r in rows]
    buckets: dict = {}
    for row in row_iter:
        rule = controllers[row].continue_rule
        key = _rule_key(rule)
        if key is None:
            raise ConfigError(
                f"continue rule {type(rule).__name__} cannot be batched"
            )
        if key == ("never",):
            continue
        buckets.setdefault(key, []).append(row)
    groups = []
    group_of = np.full(num_rows, -1, dtype=np.int64)
    for key, members in buckets.items():
        rules = [controllers[r].continue_rule for r in members]
        if key[0] == "threshold":
            group = ThresholdRuleBatch(num_rows, members, rules)
        else:
            decay_rows = [
                r for r in members
                if isinstance(controllers[r], QLearningController)
            ]
            group = LearnedRuleBatch(num_rows, members, rules, max_steps, decay_rows)
        groups.append(group)
        group_of[members] = len(groups) - 1
    return groups, group_of


def _group_key(controller: Controller):
    """Batching key, or None when the controller cannot be batched."""
    rule = controller.continue_rule
    if _rule_key(rule) is None:
        return None
    if isinstance(controller, QLearningController):
        if (
            isinstance(rule, IncrementalDecider)
            and rule.qtable._rng is controller.qtable._rng
        ):
            # Shared generator state between the two tables: the scalar
            # pools would interleave refills in a call-order the batched
            # per-table DrawBatches cannot replicate.
            return None
        return ("qlearning",) + controller.qtable.table.shape
    if isinstance(controller, StaticController):
        policy = controller.policy
        if isinstance(policy, FixedExitPolicy):
            return ("fixed",)
        if isinstance(policy, GreedyEnergyPolicy):
            return ("greedy",)
        if isinstance(policy, StaticLUTPolicy):
            return ("lut", policy.num_levels)
    return None


_GROUP_CLASSES = {"qlearning": QLearningBatch, "fixed": FixedBatch,
                  "greedy": GreedyBatch, "lut": LUTBatch}


def batchable(controller: Controller) -> bool:
    """Can this controller instance run under the lockstep engine?"""
    return _group_key(controller) is not None


def batch_controllers(controllers, exit_cost_matrix, rows=None):
    """Partition per-device controllers into batched groups.

    ``controllers`` is one :class:`Controller` per engine row; the returned
    pair is ``(groups, group_of)`` where ``group_of[row]`` indexes into
    ``groups``.  Raises :class:`ConfigError` for controller families the
    lockstep engine cannot express (callers pre-filter with
    :func:`batchable`).  ``rows`` restricts grouping to a subset of engine
    rows; the rest get ``group_of == -1`` (the engine leaves
    intermittent-execution devices ungrouped — their controller is never
    consulted, exactly like the scalar SONIC path).
    """
    num_rows = len(controllers)
    row_iter = range(num_rows) if rows is None else [int(r) for r in rows]
    buckets: dict = {}
    for row in row_iter:
        key = _group_key(controllers[row])
        if key is None:
            raise ConfigError(
                f"controller {type(controllers[row]).__name__} cannot be batched"
            )
        buckets.setdefault(key, []).append(row)
    groups = []
    group_of = np.full(num_rows, -1, dtype=np.int64)
    for key, members in buckets.items():
        cls = _GROUP_CLASSES[key[0]]
        groups.append(
            cls(num_rows, members, [controllers[r] for r in members], exit_cost_matrix)
        )
        group_of[members] = len(groups) - 1
    return groups, group_of
