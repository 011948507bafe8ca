"""Same-grid trace stacks equal their scalar builds, bit for bit.

:func:`repro.energy.traces.synthesize_stacks` builds many devices' traces
as (rows x samples) stacks; the engine takes a build window's seeded
traces from it and the per-process memo (``fetch_traces``), calling
``build_trace`` only for a spec the stacks cannot take.  Every row must
equal the scalar builder's trace exactly — samples and cumulative energy
— whatever the stack, its block size and its neighbours, and a spec the
stacks cannot take must fail through the engine exactly as it fails
through ``build_trace``.
"""

from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import traces
from repro.energy.traces import _ou_draw, _ou_process, _ou_scan, synthesize_stacks
from repro.errors import ConfigError, EnergyError
from repro.fleet import DeviceSpec, FleetRunner, FleetSpec
from repro.sim import devices
from repro.sim.batch import BatchedFleetEngine
from repro.sim.devices import build_trace, device_seeds, fetch_traces


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def _same_trace(a, b) -> bool:
    return (
        _bits(a.samples_mw) == _bits(b.samples_mw)
        and _bits(a._cum_energy) == _bits(b._cum_energy)
        and a.dt == b.dt
        and a.name == b.name
    )


@contextmanager
def _cold_memo():
    """An empty trace memo, restored afterwards."""
    saved = dict(devices._TRACE_CACHE)
    devices._TRACE_CACHE.clear()
    try:
        yield
    finally:
        devices._TRACE_CACHE.clear()
        devices._TRACE_CACHE.update(saved)


def _ou_blocked_loop(n, dt, theta, sigma, rng):
    """The per-block scan loop the stacked scan replaced, as it was."""
    x = np.zeros(n)
    if n < 2:
        return x
    noise = rng.normal(size=n - 1) * sigma * np.sqrt(dt)
    phi = 1.0 - theta * dt
    if phi == 0.0:
        x[1:] = noise
        return x
    abs_phi = abs(phi)
    if abs_phi == 1.0:
        block = n - 1
    else:
        log_range = abs(np.log(abs_phi))
        block = max(16, int(np.log(1e4) / log_range) + 1)
        block = min(block, max(int(np.log(1e250) / log_range), 1), n - 1)
    carry = 0.0
    for start in range(0, n - 1, block):
        stop = min(start + block, n - 1)
        powers = phi ** np.arange(1, stop - start + 1)
        scanned = np.cumsum(noise[start:stop] / powers)
        x[start + 1 : stop + 1] = powers * (carry + scanned)
        carry = x[stop]
    return x


class TestStackedScan:
    """The all-blocks OU scan repeats the per-block loop bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7201])
    @pytest.mark.parametrize(
        "theta",
        [0.01, 0.3, 1.0, 2.0, 1.5, 0.0],
        ids=["phi-0.99", "phi-0.7", "phi-0", "phi--1", "phi--0.5", "phi-1"],
    )
    def test_single_and_stacked_match_the_loop(self, n, theta):
        dt, sigma = 1.0, 0.2
        seeds = range(3)
        loop = [
            _ou_blocked_loop(n, dt, theta, sigma, np.random.default_rng(s))
            for s in seeds
        ]
        single = [
            _ou_process(n, dt, theta, sigma, np.random.default_rng(s)) for s in seeds
        ]
        draws = [_ou_draw(n, np.random.default_rng(s)) for s in seeds]
        noise = np.array(draws).reshape(3, max(n - 1, 0)) * sigma * np.sqrt(dt)
        stacked = _ou_scan(noise, n, dt, theta)
        for row in seeds:
            assert _bits(single[row]) == _bits(loop[row])
            assert _bits(stacked[row]) == _bits(loop[row])


# Grids per family: (duration, dt) pairs.  n = 2 (duration == dt), grids
# whose dt puts the fixed-theta OU at phi = 0 or phi = -1, and ordinary
# ones; solar reaches those phis through its per-row cloud_theta instead.
_GRIDS = {
    "solar": [(1.0, 1.0), (300.0, 1.0), (120.0, 0.5)],
    "wind": [(2.0, 2.0), (300.0, 1.0), (400.0, 20.0), (800.0, 40.0)],
    "piezo": [(2.0, 2.0), (300.0, 1.0), (1000.0, 50.0), (2000.0, 100.0)],
    "rf": [(2.0, 2.0), (300.0, 1.0), (1000.0, 50.0), (2000.0, 100.0)],
    "kinetic": [(2.0, 2.0), (300.0, 1.0), (120.0, 0.5)],
}


def _between(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


def _family_params(family, dt):
    """Every parameter but the grid and the seed, drawn row by row."""
    if family == "solar":
        return st.fixed_dictionaries(
            {
                "peak_mw": _between(0.01, 0.05),
                "phase": _between(-0.3, 0.3),
                # phi = 1 - theta * dt: 1, in (0, 1), 0, negative, -1.
                "cloud_theta": st.sampled_from(
                    [0.0, 0.01, 0.05, 1.0 / dt, 1.5 / dt, 2.0 / dt]
                ),
                "cloud_depth": _between(1.0, 6.0),
                "cloud_bias": _between(0.0, 1.0),
                "noise_mw": _between(0.0, 0.001),
            },
            optional={"day_length": _between(100.0, 500.0)},
        )
    if family == "wind":
        return st.fixed_dictionaries(
            {
                "peak_mw": _between(0.01, 0.1),
                "mean_speed": _between(0.5, 2.0),
                "turbulence": _between(0.0, 1.0),
                "gust_rate_hz": st.sampled_from([0.0, 0.01, 0.05]),
                "gust_length_s": _between(1.0, 60.0),
            }
        )
    if family == "piezo":
        return st.fixed_dictionaries(
            {
                "peak_mw": _between(0.01, 0.1),
                "duty_cycle": _between(0.05, 0.95),
                "cycle_period_s": _between(10.0, 200.0),
                "amplitude_jitter": _between(0.0, 1.0),
            }
        )
    if family == "rf":
        return st.fixed_dictionaries(
            {"mean_mw": _between(0.001, 0.05), "fading_sigma": _between(0.0, 1.0)}
        )
    return st.fixed_dictionaries(
        {
            "burst_power_mw": _between(0.01, 0.5),
            "burst_rate_hz": st.sampled_from([0.0, 0.01, 0.05]),
            "burst_length_s": _between(1.0, 60.0),
        }
    )


@st.composite
def _stacks(draw, family):
    """Rows on one to three grids of ``family``, shuffled together."""
    rows = []
    grids = st.lists(st.sampled_from(_GRIDS[family]), min_size=1, max_size=3)
    for duration, dt in draw(grids):
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            row = draw(_family_params(family, dt))
            seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
            rows.append({**row, "duration": duration, "dt": dt, "seed": seed})
    return draw(st.permutations(rows))


class TestStacksEqualScalarBuilds:
    """An N-row stack (several grids mixed, in any order, at any block
    size) equals N scalar builds through ``build_trace`` on a cold memo."""

    @pytest.mark.parametrize("family", sorted(_GRIDS))
    @settings(max_examples=examples(25), deadline=None)
    @given(data=st.data())
    def test_stack_rows_equal_scalar_builds(self, family, data):
        rows = data.draw(_stacks(family))
        block = data.draw(st.sampled_from([1 << 16, 64, 600]), label="block")
        with mock.patch.object(traces, "_BLOCK_ELEMENTS", block):
            stacked = synthesize_stacks(family, rows)
        with _cold_memo():
            scalar = [build_trace({"family": family, **row}, 0) for row in rows]
        assert all(trace is not None for trace in stacked)
        for got, want in zip(stacked, scalar):
            assert _same_trace(got, want)

    def test_stack_wider_than_a_block(self):
        """200 rows of 3601 samples span several synthesis blocks."""
        rows = [
            {"duration": 3600.0, "dt": 1.0, "mean_mw": 0.01 + 1e-4 * i, "seed": i}
            for i in range(200)
        ]
        assert len(rows) > traces._BLOCK_ELEMENTS // 3601
        for row, got in zip(rows, synthesize_stacks("rf", rows)):
            assert _same_trace(got, traces.rf_trace(**row))

    def test_mixed_grid_fleet_prefetch_equals_scalar_builds(self):
        """What the engine's trace fetch returns and puts in the memo for
        a fleet of every family on several grids is what each device's
        scalar ``build_trace`` makes on a cold memo."""
        specs = []
        for i in range(40):
            family = ("solar", "wind", "piezo", "kinetic", "rf")[i % 5]
            trace = {
                "family": family,
                "duration": (300.0, 600.0)[i % 2],
                "dt": 0.5 if i % 3 == 0 else 1.0,
            }
            if family == "solar":
                trace.update(phase=0.01 * i, cloud_theta=(0.01, 0.02)[i % 2])
            specs.append(DeviceSpec(name=f"d{i}", trace=trace))
        tasks = [(i, spec, 77) for i, spec in enumerate(specs)]
        with _cold_memo():
            fetched = fetch_traces(
                specs, [device_seeds(i, 77) for i in range(len(specs))]
            )
            memo = dict(devices._TRACE_CACHE)
        assert len(memo) == len(specs)
        for (i, spec, seed), got in zip(tasks, fetched):
            with _cold_memo():
                want = build_trace(spec.trace, device_seeds(i, seed)[0])
                (key,) = devices._TRACE_CACHE
            assert memo[key] is got
            assert _same_trace(got, want)

    def test_prefetch_displaces_the_oldest_entries_within_the_cap(self):
        """A fetched window displaces the memo's oldest entries, first
        in first out, and the memo never exceeds its cap."""
        rf = {"family": "rf", "duration": 50.0, "dt": 1.0}
        windows = [
            [DeviceSpec(name="d", trace={**rf, "seed": s}) for s in seeds]
            for seeds in ([1, 2, 3], [4, 5, 6])
        ]
        with _cold_memo(), mock.patch.object(devices, "_TRACE_CACHE_MAX", 4):
            fetch_traces(windows[0], [device_seeds(0, 0)] * 3)
            old = list(devices._TRACE_CACHE)
            fetch_traces(windows[1], [device_seeds(0, 0)] * 3)
            kept = list(devices._TRACE_CACHE)
        assert len(kept) == 4
        assert kept[0] == old[-1]
        assert [dict(key[1])["seed"] for key in kept[1:]] == [4, 5, 6]


class TestPrefetchErrors:
    """The trace fetch never raises: a spec it cannot take fails through the
    engine exactly as through ``build_trace``, in task order."""

    GOOD = {"family": "rf", "duration": 200.0, "dt": 1.0}

    @pytest.mark.parametrize(
        "bad",
        [
            {"family": "solar", "duration": 200.0, "peak_mww": 0.03},
            {"family": "piezo", "duration": 200.0, "duty_cycle": 1.5},
            {"family": "wind", "duration": 200.0, "mean_speed": 0.0},
            {"family": "kinetic", "duration": 200.0, "base_mw": -1.0},
            {"family": "rf", "duration": 0.0},
            {"family": "rf", "duration": 200.0, "mean_mw": "0.02"},
            {"family": "piezo", "duration": 200.0, "cycle_period_s": 0.0},
            {"family": "solar", "duration": 200.0, "dt": 0.0},
            {"family": "kinetic", "duration": 200.0, "burst_length_s": -1.0},
        ],
        ids=[
            "typo",
            "duty-cycle",
            "mean-speed",
            "negative-power",
            "one-sample",
            "string-param",
            "zero-period",
            "zero-dt",
            "negative-length",
        ],
    )
    def test_engine_raises_the_scalar_error(self, bad):
        """The bad trace's own error, whether a later device's trace or
        controller is bad too; a bad controller on an earlier device
        fails first instead."""
        later_bad = {"family": "wind", "duration": 200.0, "mean_speed": -1.0}
        specs = [self.GOOD, bad, self.GOOD, later_bad]

        def tasks(bad_controller_at=None):
            typo = {"kind": "greedy", "reserve_fractoin": 0.1}
            out = []
            for i, trace in enumerate(specs):
                ctrl = {"controller": typo} if i == bad_controller_at else {}
                out.append((i, DeviceSpec(name=f"d{i}", trace=dict(trace), **ctrl), 5))
            return out

        with _cold_memo():
            with pytest.raises((ConfigError, EnergyError)) as scalar:
                build_trace(bad, device_seeds(1, 5)[0])
        for bad_controller_at in (None, 2):
            with _cold_memo():
                with pytest.raises((ConfigError, EnergyError)) as engine:
                    BatchedFleetEngine(tasks(bad_controller_at))
            assert type(engine.value) is type(scalar.value)
            assert str(engine.value) == str(scalar.value)
        with _cold_memo():
            with pytest.raises(ConfigError, match="reserve_fractoin"):
                BatchedFleetEngine(tasks(0))

    @pytest.mark.parametrize(
        "family,bad",
        [
            ("piezo", {"cycle_period_s": 0.0}),
            ("kinetic", {"burst_rate_hz": -0.5}),
            ("wind", {"gust_length_s": -1.0}),
            ("rf", {"dt": -1.0}),
            ("solar", {"duration": 0.5}),
        ],
    )
    def test_a_bad_row_fails_only_its_row(self, family, bad):
        """A row whose grid, rate or length its draw refuses comes back
        None; its neighbours equal their scalar builds bit for bit, and
        its own scalar build names the family and the parameter."""
        params = {"duration": 200.0, "dt": 1.0}
        rows = [{**params, "seed": 1}, {**params, **bad, "seed": 2}]
        rows.append({**params, "seed": 3})
        got = synthesize_stacks(family, rows)
        assert got[1] is None
        with _cold_memo():
            for row, trace in zip(rows[::2], got[::2]):
                assert _same_trace(trace, build_trace({"family": family, **row}, 0))
            with pytest.raises(ConfigError, match=f"{family} trace: "):
                build_trace({"family": family, **rows[1]}, 0)

    def test_a_seed_numpy_refuses_fails_only_its_row(self):
        """The stacks seed every row's generator in one pass; a seed numpy
        refuses leaves just that row to its scalar build."""
        params = {"duration": 200.0, "dt": 1.0}
        rows = [{**params, "seed": seed} for seed in (3, -1, 2**64 + 5, 1.5)]
        got = synthesize_stacks("rf", rows)
        assert got[1] is None and got[3] is None
        for row, trace in zip(rows[::2], got[::2]):
            assert _same_trace(trace, traces.rf_trace(**row))

    def test_unhashable_seed_keeps_the_per_device_path(self):
        # DeviceSpec rejects a non-int trace seed; the fetch takes any
        # spec with a ``trace`` dict.
        trace = {**self.GOOD, "seed": np.random.default_rng(3)}
        with _cold_memo():
            got = fetch_traces([SimpleNamespace(trace=trace)], [device_seeds(0, 1)])
            assert got == [None] and devices._TRACE_CACHE == {}


def test_fleet_results_do_not_depend_on_window_or_block_size():
    """The build window and the synthesis block only bound memory."""
    specs = [
        DeviceSpec(
            name=f"d{i}",
            trace={"family": ("solar", "wind", "rf")[i % 3], "duration": 400.0},
        )
        for i in range(12)
    ]
    fleet = FleetSpec(name="windows", seed=13, devices=specs)
    with _cold_memo():
        expected = FleetRunner(fleet, workers=1).run().to_dict()
    with _cold_memo():
        with mock.patch("repro.sim.batch._BUILD_WINDOW", 5):
            with mock.patch.object(traces, "_BLOCK_ELEMENTS", 900):
                assert FleetRunner(fleet, workers=1).run().to_dict() == expected
