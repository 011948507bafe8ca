"""Energy-storage invariants, including a property-based random walk."""

import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import EnergyStorage
from repro.errors import ConfigError, EnergyError


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EnergyStorage(0.0)
        with pytest.raises(ConfigError):
            EnergyStorage(1.0, efficiency=0.0)
        with pytest.raises(ConfigError):
            EnergyStorage(1.0, efficiency=1.5)
        with pytest.raises(ConfigError):
            EnergyStorage(1.0, leakage_mw=-1.0)
        with pytest.raises(ConfigError):
            EnergyStorage(1.0, initial_mj=2.0)


class TestCharge:
    def test_efficiency_applies(self):
        storage = EnergyStorage(10.0, efficiency=0.5)
        stored = storage.charge(2.0)
        assert stored == pytest.approx(1.0)
        assert storage.level_mj == pytest.approx(1.0)

    def test_capacity_caps_and_counts_waste(self):
        storage = EnergyStorage(1.0, efficiency=1.0, initial_mj=0.8)
        stored = storage.charge(1.0)
        assert stored == pytest.approx(0.2)
        assert storage.level_mj == pytest.approx(1.0)
        assert storage.total_wasted_mj == pytest.approx(0.8)

    def test_negative_charge_rejected(self):
        with pytest.raises(EnergyError):
            EnergyStorage(1.0).charge(-0.1)


class TestDraw:
    def test_draw_reduces_level(self):
        storage = EnergyStorage(2.0, initial_mj=1.5)
        storage.draw(0.5)
        assert storage.level_mj == pytest.approx(1.0)
        assert storage.total_drawn_mj == pytest.approx(0.5)

    def test_insufficient_raises(self):
        storage = EnergyStorage(2.0, initial_mj=0.1)
        with pytest.raises(EnergyError):
            storage.draw(0.5)

    def test_can_afford_tolerates_rounding(self):
        storage = EnergyStorage(1.0, initial_mj=0.5)
        assert storage.can_afford(0.5)
        assert not storage.can_afford(0.5001)

    def test_negative_draw_rejected(self):
        with pytest.raises(EnergyError):
            EnergyStorage(1.0, initial_mj=1.0).draw(-0.1)


class TestLeak:
    def test_leak_rate(self):
        storage = EnergyStorage(2.0, leakage_mw=0.1, initial_mj=1.0)
        lost = storage.leak(5.0)
        assert lost == pytest.approx(0.5)
        assert storage.level_mj == pytest.approx(0.5)

    def test_leak_cannot_go_negative(self):
        storage = EnergyStorage(2.0, leakage_mw=1.0, initial_mj=0.3)
        storage.leak(10.0)
        assert storage.level_mj == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(EnergyError):
            EnergyStorage(1.0).leak(-1.0)


class TestReset:
    def test_restores_initial_state(self):
        storage = EnergyStorage(2.0, initial_mj=1.0)
        storage.charge(0.5)
        storage.draw(0.2)
        storage.reset()
        assert storage.level_mj == pytest.approx(1.0)
        assert storage.total_charged_mj == 0.0
        assert storage.total_drawn_mj == 0.0


@given(
    st.lists(
        st.tuples(st.sampled_from(["charge", "draw", "leak"]), st.floats(0, 3)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=examples(60), deadline=None)
def test_level_always_within_bounds(ops):
    """Property: level stays in [0, capacity] under any operation sequence."""
    storage = EnergyStorage(2.0, efficiency=0.8, leakage_mw=0.01, initial_mj=1.0)
    for op, amount in ops:
        if op == "charge":
            storage.charge(amount)
        elif op == "leak":
            storage.leak(amount)
        elif storage.can_afford(amount):
            storage.draw(amount)
        assert -1e-9 <= storage.level_mj <= storage.capacity_mj + 1e-9
