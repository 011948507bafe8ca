"""Hypothesis property suite for :mod:`repro.energy.storage`.

The simulator's entire energy ledger flows through this class, and the
campaign layer's cross-controller energy deltas assume it never invents
or loses energy.  Properties enforced over arbitrary operation sequences:

* the charge level stays inside ``[0, capacity]``;
* the accounting conserves: ``level == initial + charged - drawn - leaked``
  and every charge splits exactly into banked + wasted;
* affordability is truthful: ``draw`` succeeds iff ``can_afford`` said so.
"""

import math

import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.storage import EnergyStorage
from repro.errors import EnergyError

#: One storage op: ("charge", mJ) | ("leak", seconds) | ("draw", fraction
#: of the *current* level, so draws are usually affordable but sometimes
#: overshoot thanks to the >1 upper bound).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("charge"), st.floats(0.0, 5.0, allow_nan=False)),
        st.tuples(st.just("leak"), st.floats(0.0, 100.0, allow_nan=False)),
        st.tuples(st.just("draw"), st.floats(0.0, 1.3, allow_nan=False)),
    ),
    max_size=60,
)

STORAGES = st.builds(
    EnergyStorage,
    capacity_mj=st.floats(0.5, 10.0, allow_nan=False),
    efficiency=st.floats(0.1, 1.0, exclude_min=True, allow_nan=False),
    leakage_mw=st.floats(0.0, 0.1, allow_nan=False),
)


def _apply(storage, ops):
    """Replay an op sequence; returns (leaked_total, wasted_checks_ok)."""
    leaked = 0.0
    for op, value in ops:
        if op == "charge":
            before_level = storage.level_mj
            before_wasted = storage.total_wasted_mj
            stored = storage.charge(value)
            banked = value * storage.efficiency
            # Every charge splits exactly into banked-into-store + shed.
            assert stored == pytest.approx(storage.level_mj - before_level)
            assert stored + (storage.total_wasted_mj - before_wasted) == (
                pytest.approx(banked)
            )
        elif op == "leak":
            leaked += storage.leak(value)
        else:
            amount = value * storage.level_mj
            if storage.can_afford(amount):
                storage.draw(amount)
            else:
                with pytest.raises(EnergyError):
                    storage.draw(amount)
    return leaked


@given(storage=STORAGES, ops=OPS)
@settings(max_examples=examples(150), deadline=None)
def test_level_stays_within_capacity(storage, ops):
    _apply(storage, ops)
    assert 0.0 <= storage.level_mj <= storage.capacity_mj + 1e-9


@given(storage=STORAGES, ops=OPS)
@settings(max_examples=examples(150), deadline=None)
def test_energy_ledger_conserves(storage, ops):
    initial = storage.level_mj
    leaked = _apply(storage, ops)
    reconstructed = (
        initial + storage.total_charged_mj - storage.total_drawn_mj - leaked
    )
    assert storage.level_mj == pytest.approx(reconstructed, abs=1e-9)
    assert storage.total_wasted_mj >= -1e-12
    assert math.isfinite(storage.level_mj)


@given(storage=STORAGES, ops=OPS)
@settings(max_examples=examples(100), deadline=None)
def test_reset_restores_initial_state(storage, ops):
    initial = storage.level_mj
    _apply(storage, ops)
    storage.reset()
    assert storage.level_mj == initial
    assert storage.total_charged_mj == 0.0
    assert storage.total_drawn_mj == 0.0
    assert storage.total_wasted_mj == 0.0


@given(
    storage=STORAGES,
    fractions=st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=20),
)
@settings(max_examples=examples(100), deadline=None)
def test_affordable_draws_never_raise(storage, fractions):
    """``can_afford`` is a guarantee, not a hint."""
    storage.charge(storage.capacity_mj)  # start with something in the bank
    for f in fractions:
        amount = f * storage.level_mj
        assert storage.can_afford(amount)
        storage.draw(amount)  # must not raise
