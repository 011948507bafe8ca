"""Power-trace tests, including property-based energy accounting."""

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import (
    PowerTrace,
    constant_trace,
    kinetic_trace,
    piezo_trace,
    rf_trace,
    solar_trace,
    trace_from_csv,
    trace_from_samples,
    wind_trace,
)
from repro.energy.traces import _ou_process
from repro.errors import ConfigError, EnergyError


def _ou_reference(n, dt, theta, sigma, rng):
    """The pre-vectorization sequential recurrence (the semantic contract
    the blocked AR(1) scan in ``_ou_process`` must reproduce)."""
    x = np.zeros(n)
    noise = rng.normal(size=n - 1) * sigma * np.sqrt(dt)
    for i in range(1, n):
        x[i] = x[i - 1] - theta * x[i - 1] * dt + noise[i - 1]
    return x


class TestVectorizedOU:
    @given(
        n=st.integers(min_value=2, max_value=5000),
        dt=st.sampled_from([0.1, 0.5, 1.0]),
        theta=st.floats(min_value=0.001, max_value=1.5),
        sigma=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=examples(40), deadline=None)
    def test_matches_loop_reference(self, n, dt, theta, sigma, seed):
        fast = _ou_process(n, dt, theta, sigma, np.random.default_rng(seed))
        slow = _ou_reference(n, dt, theta, sigma, np.random.default_rng(seed))
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-9)

    def test_long_trace_regime(self):
        # The 43 200-sample solar regime: exactly the parameters whose
        # Python-loop synthesis used to dominate fleet wall-time.
        n, dt, theta = 43201, 1.0, 0.01
        sigma = float(np.sqrt(2.0 * theta))
        fast = _ou_process(n, dt, theta, sigma, np.random.default_rng(11))
        slow = _ou_reference(n, dt, theta, sigma, np.random.default_rng(11))
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-9)

    def test_unit_recurrence_phi_zero(self):
        # theta*dt == 1 collapses the AR(1) to pure noise; the vectorized
        # path special-cases it.
        fast = _ou_process(100, 1.0, 1.0, 0.5, np.random.default_rng(2))
        slow = _ou_reference(100, 1.0, 1.0, 0.5, np.random.default_rng(2))
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-9)


class TestPowerTrace:
    def test_interpolation(self):
        trace = PowerTrace([0.0, 2.0, 4.0], dt=1.0)
        assert trace.power(0.5) == 1.0
        assert trace.power(1.5) == 3.0

    def test_clipping_outside_range(self):
        trace = PowerTrace([1.0, 3.0], dt=1.0)
        assert trace.power(-5.0) == 1.0
        assert trace.power(100.0) == 3.0

    def test_energy_between_trapezoid(self):
        trace = PowerTrace([0.0, 2.0], dt=2.0)  # ramp over 2 s
        assert trace.energy_between(0.0, 2.0) == pytest.approx(2.0)

    def test_total_energy_constant_power(self):
        trace = constant_trace(0.5, duration=100.0, dt=1.0)
        assert trace.total_energy_mj == pytest.approx(50.0)

    @given(
        st.floats(0, 50), st.floats(0, 50), st.floats(0, 50)
    )
    @settings(max_examples=examples(40), deadline=None)
    def test_energy_additivity(self, a, b, c):
        trace = solar_trace(duration=50.0, dt=0.5, seed=1)
        t0, t1, t2 = sorted((a, b, c))
        total = trace.energy_between(t0, t2)
        split = trace.energy_between(t0, t1) + trace.energy_between(t1, t2)
        assert total == pytest.approx(split, abs=1e-9)

    def test_energy_reversed_interval_raises(self):
        trace = constant_trace(1.0, 10.0)
        with pytest.raises(EnergyError):
            trace.energy_between(5.0, 1.0)

    def test_mean_power_window(self):
        trace = constant_trace(0.8, duration=100.0)
        assert trace.mean_power(50.0, window=10.0) == pytest.approx(0.8)

    def test_scaled(self):
        trace = constant_trace(1.0, 10.0)
        assert trace.scaled(0.5).power(5.0) == pytest.approx(0.5)
        with pytest.raises(EnergyError):
            trace.scaled(-1.0)

    def test_rejects_negative_power(self):
        with pytest.raises(EnergyError):
            PowerTrace([1.0, -0.1], dt=1.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            PowerTrace([1.0], dt=1.0)
        with pytest.raises(ConfigError):
            PowerTrace([1.0, 2.0], dt=0.0)

    def test_power_accepts_arrays(self):
        """Array-valued queries must match the scalar path exactly."""
        trace = solar_trace(duration=200.0, dt=0.5, seed=3)
        times = np.array([-1.0, 0.0, 0.25, 7.3, 199.9, 200.0, 500.0])
        vec = trace.power(times)
        assert isinstance(vec, np.ndarray)
        assert vec.shape == times.shape
        np.testing.assert_array_equal(vec, [trace.power(float(t)) for t in times])

    def test_power_array_broadcasting_shapes(self):
        trace = constant_trace(0.7, duration=10.0)
        grid = np.linspace(0.0, 10.0, 12).reshape(3, 4)
        out = trace.power(grid)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, 0.7)

    def test_energy_between_bulk_matches_scalar(self):
        """The simulator's precomputed charge increments use the bulk path;
        it must agree bit-for-bit with the scalar accounting."""
        trace = solar_trace(duration=300.0, dt=0.5, seed=9)
        t0 = np.array([0.0, 1.3, 10.0, 250.0, 299.9])
        t1 = np.array([0.0, 7.9, 10.0, 300.0, 400.0])
        bulk = trace.energy_between(t0, t1)
        scalar = [trace.energy_between(float(a), float(b)) for a, b in zip(t0, t1)]
        np.testing.assert_array_equal(bulk, scalar)

    def test_energy_between_bulk_matches_scalar_inexact_dt(self):
        """duration/dt can round a hair above n-1 for inexact dt; the bulk
        path must take the scalar early-return there, not extrapolate."""
        for dt in (0.1, 0.2, 0.7):
            trace = PowerTrace(np.linspace(0.5, 1.5, 7), dt=dt)
            t1 = np.array([trace.duration, trace.duration + 1.0])
            bulk = trace.energy_between(np.zeros_like(t1), t1)
            scalar = [trace.energy_between(0.0, float(t)) for t in t1]
            np.testing.assert_array_equal(bulk, scalar)

    def test_energy_between_bulk_reversed_rejected(self):
        trace = constant_trace(1.0, 10.0)
        with pytest.raises(EnergyError):
            trace.energy_between(np.array([0.0, 5.0]), np.array([1.0, 2.0]))

    def test_mean_power_bulk_matches_scalar(self):
        trace = solar_trace(duration=300.0, dt=0.5, seed=9)
        times = np.array([0.0, 0.01, 15.0, 30.0, 299.0, 300.0, 350.0])
        bulk = trace.mean_power(times, window=30.0)
        scalar = [trace.mean_power(float(t), window=30.0) for t in times]
        np.testing.assert_array_equal(bulk, scalar)


class TestGenerators:
    @pytest.mark.parametrize(
        "maker", [solar_trace, kinetic_trace, rf_trace, wind_trace, piezo_trace]
    )
    def test_nonnegative_and_deterministic(self, maker):
        t1 = maker(duration=500.0, seed=3)
        t2 = maker(duration=500.0, seed=3)
        assert np.all(t1.samples_mw >= 0)
        np.testing.assert_array_equal(t1.samples_mw, t2.samples_mw)

    @pytest.mark.parametrize(
        "maker", [solar_trace, kinetic_trace, rf_trace, wind_trace, piezo_trace]
    )
    def test_seed_changes_trace(self, maker):
        t1 = maker(duration=500.0, seed=3)
        t2 = maker(duration=500.0, seed=4)
        assert not np.array_equal(t1.samples_mw, t2.samples_mw)

    def test_solar_has_diurnal_shape(self):
        trace = solar_trace(duration=43200.0, dt=60.0, seed=0)
        edges = trace.power(0.0) + trace.power(43200.0)
        noon = np.max(trace.samples_mw)
        assert noon > 10 * max(edges, 1e-6)

    def test_solar_is_bimodal_under_clouds(self):
        """Clear vs deep-occlusion periods must both occupy real time."""
        trace = solar_trace(duration=43200.0, seed=0)
        mid = trace.samples_mw[10000:30000]
        peak = np.percentile(mid, 98)
        clear_frac = np.mean(mid > 0.6 * peak)
        dark_frac = np.mean(mid < 0.15 * peak)
        assert clear_frac > 0.1
        assert dark_frac > 0.2

    def test_kinetic_has_bursts(self):
        trace = kinetic_trace(duration=2000.0, seed=1)
        assert trace.samples_mw.max() > 5 * np.median(trace.samples_mw)

    def test_wind_is_heavy_tailed(self):
        """Cubic wind-power response: spikes far above the median."""
        trace = wind_trace(duration=3600.0, seed=2)
        assert trace.samples_mw.max() > 4 * np.median(trace.samples_mw)

    def test_piezo_duty_cycles(self):
        """On and off intervals must both occupy real time."""
        trace = piezo_trace(duration=3600.0, duty_cycle=0.5, seed=2)
        on_frac = np.mean(trace.samples_mw > 0.01 * trace.samples_mw.max())
        assert 0.2 < on_frac < 0.8

    def test_piezo_rejects_bad_duty_cycle(self):
        with pytest.raises(ConfigError):
            piezo_trace(duration=100.0, duty_cycle=1.5)

    def test_wind_rejects_zero_mean_speed(self):
        with pytest.raises(ConfigError, match="mean_speed"):
            wind_trace(duration=100.0, mean_speed=0.0)

    def test_duration_property(self):
        assert constant_trace(1.0, duration=60.0, dt=0.5).duration == pytest.approx(60.0)


class TestCSV:
    def test_two_column_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        times = np.arange(5) * 2.0
        powers = np.array([0.1, 0.2, 0.3, 0.2, 0.1])
        np.savetxt(path, np.column_stack([times, powers]), delimiter=",")
        trace = trace_from_csv(str(path))
        assert trace.dt == pytest.approx(2.0)
        np.testing.assert_allclose(trace.samples_mw, powers)

    def test_single_column_needs_dt(self, tmp_path):
        path = tmp_path / "trace.csv"
        np.savetxt(path, np.array([0.1, 0.2, 0.3]), delimiter=",")
        with pytest.raises(ConfigError):
            trace_from_csv(str(path))
        trace = trace_from_csv(str(path), dt=0.5)
        assert trace.duration == pytest.approx(1.0)

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        np.savetxt(path, np.array([[0.0, 1.0], [1.0, 1.0], [3.0, 1.0]]), delimiter=",")
        with pytest.raises(ConfigError):
            trace_from_csv(str(path))

    def test_from_samples(self):
        trace = trace_from_samples([0.0, 1.0], dt=1.0, name="x")
        assert trace.name == "x"

    def test_written_csv_roundtrip(self, tmp_path):
        """A trace dumped as CSV reloads with identical samples and energy."""
        original = solar_trace(duration=120.0, dt=2.0, seed=4)
        path = tmp_path / "roundtrip.csv"
        times = np.arange(len(original.samples_mw)) * original.dt
        np.savetxt(path, np.column_stack([times, original.samples_mw]), delimiter=",")
        reloaded = trace_from_csv(str(path))
        assert reloaded.dt == pytest.approx(original.dt)
        np.testing.assert_allclose(reloaded.samples_mw, original.samples_mw)
        assert reloaded.total_energy_mj == pytest.approx(original.total_energy_mj)

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\nnot-a-number,oops\n2.0,1.0\n")
        with pytest.raises(ConfigError, match="malformed"):
            trace_from_csv(str(path))

    def test_missing_file_or_directory_is_a_config_error(self, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(ConfigError, match="does not exist") as err:
            trace_from_csv(str(missing), dt=1.0)
        assert str(missing) in str(err.value)
        with pytest.raises(ConfigError, match="is a directory"):
            trace_from_csv(str(tmp_path), dt=1.0)

    def test_negative_power_rejected(self, tmp_path):
        path = tmp_path / "negative.csv"
        np.savetxt(
            path, np.array([[0.0, 1.0], [1.0, -0.5], [2.0, 1.0]]), delimiter=","
        )
        with pytest.raises(EnergyError):
            trace_from_csv(str(path))
