"""The engine's event-time columns equal each device's own trace queries.

:class:`~repro.sim.batch.BatchedFleetEngine` keeps three (event, device)
matrices: event times, the cumulative harvested energy at each event and
the observed charge power (the trailing ``power_window_s`` mean) the
runtime reads.  Every device's column must equal, byte for byte, what its
own scalar build answers: ``trace._cum_bulk`` over the clipped events and
``trace.mean_power`` over the events (zeros for an intermittent device,
which never reads P), with zero padding below its last event.  The
per-event scalar queries (``_cum_at``, scalar ``mean_power``) are checked
too, so the columns are held to arithmetic the bulk path does not share.
"""

import gc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.traces import PowerTrace
from repro.errors import ConfigError, SimulationError
from repro.fleet import DeviceSpec
from repro.intermittent.kernel import IntermittentFleetKernel
from repro.sim import batch, devices
from repro.sim.batch import BatchedFleetEngine
from repro.sim.devices import build_trace, device_seeds, materialize

_build_events = devices.build_events


def _events_with_edges(events_spec, duration, seed):
    """``build_events``, plus an event at t = 0 and/or at the trace's end
    when the spec's ``edges`` asks for one (the generators draw neither)."""
    params = dict(events_spec)
    edges = params.pop("edges", "")
    events = _build_events(params, duration, seed)
    head = [0.0] if "start" in edges else []
    tail = [duration] if "end" in edges else []
    return np.concatenate([head, events, tail])


@contextmanager
def _edge_events():
    with mock.patch.object(devices, "build_events", _events_with_edges):
        yield


@contextmanager
def _cold_memo():
    saved = dict(devices._TRACE_CACHE)
    devices._TRACE_CACHE.clear()
    try:
        yield
    finally:
        devices._TRACE_CACHE.clear()
        devices._TRACE_CACHE.update(saved)


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def _device(name, family, grid, events, window, intermittent) -> DeviceSpec:
    duration, dt = grid
    trace = {"family": family, "duration": duration, "dt": dt}
    if family == "constant":
        trace["power_mw"] = 0.03
    extra = {}
    if intermittent:
        extra = dict(
            execution="intermittent",
            profile="sonic-single-exit",
            controller={"kind": "fixed", "exit_index": 0},
        )
    return DeviceSpec(
        name=name, trace=trace, events=events, power_window_s=window, **extra
    )


def _assert_columns_match(tasks):
    """Build the engine, then hold every device's three columns to its own
    scalar build (on a cold trace memo, so the engine's stacks do not
    serve the oracle)."""
    with _edge_events():
        engine = BatchedFleetEngine(tasks)
        matrices = (engine._events, engine._cum_at_event, engine._charge_power)
        for col, (index, spec, fleet_seed) in enumerate(tasks):
            trace_seed, event_seed, _, _ = device_seeds(index, fleet_seed)
            with _cold_memo():
                trace = build_trace(spec.trace, trace_seed)
            events = _events_with_edges(spec.events, trace.duration, event_seed)
            n = events.size
            assert engine._n_events[col] == n
            cum = trace._cum_bulk(np.clip(events, 0.0, trace.duration))
            if spec.execution == "intermittent":
                power = np.zeros(n)
                scalar_power = [0.0] * n
            else:
                power = trace.mean_power(events, spec.power_window_s)
                scalar_power = [
                    trace.mean_power(float(t), spec.power_window_s) for t in events
                ]
            scalar_cum = [trace._cum_at(trace._clip_time(float(t))) for t in events]
            assert _bits(engine._events[:n, col]) == _bits(events)
            assert _bits(engine._cum_at_event[:n, col]) == _bits(cum)
            assert _bits(engine._cum_at_event[:n, col]) == _bits(scalar_cum)
            assert _bits(engine._charge_power[:n, col]) == _bits(power)
            assert _bits(engine._charge_power[:n, col]) == _bits(scalar_power)
            for matrix in matrices:
                pad = matrix[n:, col]
                assert _bits(pad) == _bits(np.zeros(pad.size))
    return engine


FAMILIES = ("solar", "wind", "rf", "kinetic", "piezo", "constant")
#: (duration, dt).  On the 0.1 s grid the trace's end, 96 * 0.1, divides
#: back to a hair above the last sample's index 96: the past-the-end
#: branch, where interpolating would drift by an ulp.
GRIDS = ((60.0, 1.0), (50.0, 0.5), (9.6, 0.1), (41.3, 0.7))
EVENTS = st.one_of(
    st.builds(
        lambda count, edges: {"kind": "uniform", "count": count, "edges": edges},
        st.integers(0, 12),
        st.sampled_from(["", "start", "end", "start end"]),
    ),
    st.builds(
        lambda rate, edges: {"kind": "poisson", "rate_hz": rate, "edges": edges},
        st.sampled_from([0.0, 0.05, 0.3]),
        st.sampled_from(["", "start", "end"]),
    ),
    st.builds(
        lambda bursts, per, edges: {
            "kind": "burst",
            "num_bursts": bursts,
            "events_per_burst": per,
            "burst_span": 25.0,
            "edges": edges,
        },
        st.integers(0, 3),
        st.integers(1, 4),
        st.sampled_from(["", "start end"]),
    ),
)
DEVICES = st.tuples(
    st.sampled_from(FAMILIES),
    st.sampled_from(GRIDS),
    EVENTS,
    st.sampled_from([0.5, 5.0, 30.0, 500.0]),  # power_window_s
    st.booleans(),  # intermittent
)


@settings(max_examples=examples(40), deadline=None)
@given(st.lists(DEVICES, min_size=1, max_size=10), st.integers(0, 10_000))
def test_random_fleets_columns_equal_scalar_queries(cases, fleet_seed):
    tasks = [(i, _device(f"d{i}", *case), fleet_seed) for i, case in enumerate(cases)]
    _assert_columns_match(tasks)


def _mixed_fleet(n, seed=2024):
    """``n`` devices cycling through families, grids, event kinds,
    windows and both execution models."""
    tasks = []
    for i in range(n):
        edges = ("", "start", "end")[i % 3]
        events = (
            {"kind": "uniform", "count": 4 + i % 5, "edges": edges},
            {"kind": "poisson", "rate_hz": 0.1},
            {"kind": "burst", "num_bursts": 2, "events_per_burst": 3},
            {"kind": "uniform", "count": 0},
        )[i % 4]
        window = (0.5, 30.0, 500.0)[i % 3]
        intermittent = i % 7 == 3
        spec = _device(
            f"w{i}", FAMILIES[i % 6], GRIDS[i % 4], events, window, intermittent
        )
        tasks.append((i, spec, seed))
    return tasks


def test_fleet_wider_than_a_build_window():
    """300 devices span two build windows."""
    tasks = _mixed_fleet(300)
    assert len(tasks) > batch._BUILD_WINDOW
    engine = _assert_columns_match(tasks)
    assert engine._exec_int.any() and not engine._n_events.all()


@pytest.mark.parametrize("budget", [2, 40])
def test_columns_do_not_depend_on_the_gather_block(budget):
    """Gather blocks of one device (a budget below every event stream)
    and of a few devices write the same columns."""
    with mock.patch("repro.sim.batch._BLOCK_ELEMENTS", budget):
        _assert_columns_match(_mixed_fleet(40))


def _live_traces() -> int:
    gc.collect()
    return sum(isinstance(obj, PowerTrace) for obj in gc.get_objects())


def test_no_trace_outlives_its_build_window():
    """An engine keeps its traces only as columns: once it is built, the
    only new traces alive are the memo's (at most its cap)."""
    tasks = _mixed_fleet(600)
    before = _live_traces()
    with _cold_memo(), _edge_events():
        engine = BatchedFleetEngine(tasks)
        alive = _live_traces() - before
    assert engine._exec_int.any() and not engine._exec_int.all()
    assert 0 < alive <= devices._TRACE_CACHE_MAX


def test_window_kernels_join_into_one_fleet_kernel():
    """The intermittent kernel an engine builds over several windows
    equals one kernel built from every intermittent device's own scalar
    build (trace rows of several lengths, padded to the longest)."""
    tasks = _mixed_fleet(60)
    with _edge_events():
        with mock.patch.object(batch, "_BUILD_WINDOW", 8):
            engine = BatchedFleetEngine(tasks)
        rows = np.nonzero(engine._exec_int)[0]
        objs = []
        for r in rows:
            _, spec, fleet_seed = tasks[r]
            seeds = device_seeds(r, fleet_seed)
            with _cold_memo():
                trace = build_trace(spec.trace, seeds[0])
            objs.append(materialize(spec, seeds, trace))
    n = np.array([o.trace.samples_mw.size for o in objs])
    samples = np.zeros((len(objs), n.max()))
    cum = np.zeros_like(samples)
    for i, (o, size) in enumerate(zip(objs, n)):
        samples[i, :size] = o.trace.samples_mw
        cum[i, :size] = o.trace._cum_energy
    want = IntermittentFleetKernel(
        rows,
        samples,
        cum,
        n,
        [o.trace.dt for o in objs],
        capacity=[o.storage.capacity_mj for o in objs],
        efficiency=[o.storage.efficiency for o in objs],
        leakage=[o.storage.leakage_mw for o in objs],
        mcus=[o.mcu for o in objs],
        job_exit=[o.profile.num_exits - 1 for o in objs],
        job_energy=[float(o.profile.exit_energy_mj[-1]) for o in objs],
        job_acc=[float(o.profile.exit_accuracies[-1]) for o in objs],
    )
    got = engine._int_kernel
    assert len({o.trace.samples_mw.size for o in objs}) > 1
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            assert getattr(got, name).dtype == value.dtype, name
            assert getattr(got, name).tobytes() == value.tobytes(), name
        else:
            assert getattr(got, name) == value, name


def test_events_check_fails_in_task_order():
    """Unsorted or negative event times fail the engine build with the
    simulator's own error, and a device's bad events fail before a later
    device's bad spec does (and after an earlier one's)."""

    def build_events(events_spec, duration, seed):
        params = dict(events_spec)
        bad = params.pop("bad", "")
        events = _build_events(params, duration, seed)
        if bad == "unsorted":
            return events[::-1]
        if bad == "negative":
            return np.concatenate([[-1.0], events])
        return events

    def engine(*cases):
        specs = []
        for i, case in enumerate(cases):
            trace = {"family": "rf", "duration": 50.0, "dt": 1.0}
            if case == "typo":
                trace["mean_mww"] = 0.02
            events = {"kind": "uniform", "count": 4, "bad": case}
            specs.append(DeviceSpec(name=f"d{i}", trace=trace, events=events))
        return BatchedFleetEngine([(i, spec, 9) for i, spec in enumerate(specs)])

    with mock.patch.object(devices, "build_events", build_events):
        for bad in ("unsorted", "negative"):
            with pytest.raises(SimulationError, match="sorted and non-negative"):
                engine("", bad, "typo", "")
            with pytest.raises(ConfigError, match="mean_mww"):
                engine("", "typo", bad)
        assert engine("", "", "")._n_events.tolist() == [4, 4, 4]
