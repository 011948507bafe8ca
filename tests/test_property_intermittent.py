"""Hypothesis property suite for the vectorized intermittent kernel.

The batched fleet engine routes SONIC-style devices through
:class:`repro.intermittent.kernel.IntermittentFleetKernel`, whose
multi-cycle loop re-implements the :class:`EnergyStorage` ledger as raw
column arithmetic.  Two families of properties keep that honest:

* **equivalence** — a kernel episode is bit-identical to the scalar
  :func:`repro.intermittent.kernel.run_job_scalar` loop driven over the
  same devices (state columns, draws-free outcomes, finish times);
* **conservation** — across arbitrary harvest/capacity/job regimes, the
  kernel's energy accounting never invents or loses energy across
  power-loss boundaries:
  ``level == initial + charged - drawn - leaked`` (the scalar storage
  invariant from ``test_property_storage.py``), every charge splits into
  banked + wasted, and the level stays inside ``[0, capacity]``.
"""

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.storage import EnergyStorage
from repro.energy.traces import constant_trace, rf_trace
from repro.intermittent.kernel import (
    REASON_BUSY,
    REASON_ENERGY,
    REASON_NONE,
    IntermittentFleetKernel,
    run_job_scalar,
)
from repro.intermittent.mcu import MSP432
from repro.obs.profiler import PhaseProfiler
from repro.utils.rng import DrawBatch, PooledDraws


class _KernelDevice:
    """One kernel lane: a trace, a capacitor and a single-exit job."""

    def __init__(self, trace, storage, job_mj, acc=0.8):
        self.trace = trace
        self.storage = storage
        self.mcu = MSP432
        self.exit_energy = [float(job_mj)]
        self.exit_acc = [float(acc)]


def _kernel(devices):
    """An IntermittentFleetKernel with one lane per device."""
    n = np.array([d.trace.samples_mw.size for d in devices])
    samples = np.zeros((len(devices), n.max()))
    cum = np.zeros_like(samples)
    for i, (d, size) in enumerate(zip(devices, n)):
        samples[i, :size] = d.trace.samples_mw
        cum[i, :size] = d.trace._cum_energy
    return IntermittentFleetKernel(
        np.arange(len(devices)),
        samples,
        cum,
        n,
        [d.trace.dt for d in devices],
        capacity=[d.storage.capacity_mj for d in devices],
        efficiency=[d.storage.efficiency for d in devices],
        leakage=[d.storage.leakage_mw for d in devices],
        mcus=[d.mcu for d in devices],
        job_exit=[0] * len(devices),
        job_energy=[d.exit_energy[-1] for d in devices],
        job_acc=[d.exit_acc[-1] for d in devices],
    )


def _make_trace(kind, power_mw, duration, seed):
    if kind == "constant":
        return constant_trace(power_mw, duration, dt=1.0)
    return rf_trace(duration=duration, dt=1.0, mean_mw=power_mw, seed=seed)


CASES = st.lists(
    st.tuples(
        st.sampled_from(["constant", "rf"]),
        st.floats(0.001, 0.08, allow_nan=False),  # harvest power (mW)
        st.floats(0.5, 4.0, allow_nan=False),  # capacity (mJ)
        st.floats(0.0, 1.0, allow_nan=False),  # initial fraction
        st.floats(0.05, 3.0, allow_nan=False),  # job energy (mJ)
        st.floats(0.0, 0.002, allow_nan=False),  # leakage (mW)
        st.floats(0.0, 300.0, allow_nan=False),  # event time (s)
    ),
    min_size=1,
    max_size=5,
)


def _build(cases, seed):
    devices = []
    storages = []
    for i, (kind, p, cap, frac, job, leak, _te) in enumerate(cases):
        trace = _make_trace(kind, p, 600.0, seed + i)
        storage = EnergyStorage(
            cap, efficiency=0.8, leakage_mw=leak, initial_mj=cap * frac
        )
        storages.append(storage)
        devices.append(_KernelDevice(trace, storage, job))
    kernel = _kernel(devices)
    return kernel, devices, storages


def _run_kernel_episode(kernel, devices, cases, seed):
    k = len(devices)
    events = np.array([[c[6] for c in cases]])
    cum = np.array(
        [
            [
                d.trace._cum_at(d.trace._clip_time(c[6]))
                for d, c in zip(devices, cases)
            ]
        ]
    )
    n_events = np.ones(k, np.int64)
    level = np.array([d.storage._initial_mj for d in devices])
    drawn = np.zeros(k)
    t_charged = np.zeros(k)
    cum_charged = np.zeros(k)
    busy_until = np.zeros(k)
    draws = DrawBatch([np.random.default_rng(seed + 100 + i) for i in range(k)])
    rec = kernel.run_episode(
        np.ones(k, bool),
        events,
        cum,
        n_events,
        level,
        drawn,
        t_charged,
        cum_charged,
        busy_until,
        draws,
    )
    return rec, level, drawn, busy_until


@given(cases=CASES, seed=st.integers(0, 2**16))
@settings(max_examples=examples(40), deadline=None)
def test_kernel_matches_scalar_loop_bit_for_bit(cases, seed):
    """One event per device: the kernel's outcome must be the scalar
    charge-to-event + run_job_scalar sequence, value for value."""
    kernel, devices, _ = _build(cases, seed)
    rec, level, drawn, busy_until = _run_kernel_episode(kernel, devices, cases, seed)
    for i, (device, case) in enumerate(zip(devices, cases)):
        te = case[6]
        storage = device.storage
        trace = device.trace
        # Scalar reference: the simulator's charge-to-event block, then
        # the shared scalar loop.
        if te > 0.0:
            storage.charge(max(trace._cum_at(trace._clip_time(te)) - 0.0, 0.0))
            storage.leak(te - 0.0)
        run = run_job_scalar(
            trace,
            MSP432,
            trace.dt,
            device.exit_energy[0],
            te,
            storage,
            deadline=trace.duration,
        )
        assert busy_until[i] == run.finish_time
        assert level[i] == storage.level_mj
        assert drawn[i] == storage.total_drawn_mj
        if run.completed:
            assert rec["reason"][0, i] == REASON_NONE
            assert rec["energy"][0, i] == (
                run.energy_consumed_mj + run.overhead_energy_mj
            )
        else:
            assert rec["reason"][0, i] == REASON_ENERGY
        assert rec["cycles"][0, i] == run.power_cycles
        assert rec["latency"][0, i] == run.latency_s


@given(cases=CASES, seed=st.integers(0, 2**16))
@settings(max_examples=examples(40), deadline=None)
def test_kernel_conserves_energy_ledger(cases, seed):
    """Across power-loss boundaries (checkpoint, off, restore), the
    column ledger must balance exactly like EnergyStorage's."""
    kernel, devices, _ = _build(cases, seed)
    initial = np.array([d.storage._initial_mj for d in devices])
    capacity = np.array([d.storage.capacity_mj for d in devices])
    rec, level, drawn, _ = _run_kernel_episode(kernel, devices, cases, seed)
    reconstructed = initial + rec["charged"] - drawn - rec["leaked"]
    assert level == pytest.approx(reconstructed, abs=1e-9)
    assert np.all(rec["wasted"] >= -1e-12)
    assert np.all(level >= 0.0)
    assert np.all(level <= capacity + 1e-9)
    assert np.all(np.isfinite(level))


@given(cases=CASES, seed=st.integers(0, 2**16))
@settings(max_examples=examples(20), deadline=None)
def test_kernel_never_overdraws(cases, seed):
    """Total drawn energy never exceeds what was ever available:
    initial charge plus everything banked."""
    kernel, devices, _ = _build(cases, seed)
    initial = np.array([d.storage._initial_mj for d in devices])
    rec, level, drawn, _ = _run_kernel_episode(kernel, devices, cases, seed)
    assert np.all(drawn <= initial + rec["charged"] + 1e-9)


# --------------------------------------------------------------------- #
# Whole episodes: many events per device, against the scalar event loop
# --------------------------------------------------------------------- #

#: The slice a device computes per ``dt`` at full power, per unit ``dt``.
SLICE_MJ = MSP432.active_power_mw

TRACE_S = 600.0


class _ClampLog(EnergyStorage):
    """EnergyStorage that logs, per charge, whether the capacity clamped."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.clamps = []

    def charge(self, harvested_mj):
        stored = super().charge(harvested_mj)
        self.clamps.append(stored < harvested_mj * self.efficiency)
        return stored


@st.composite
def episode_device(draw):
    """One device and its events, in one of the regimes the kernel's pass
    structure treats specially:

    * ``dense`` — events spaced closer than a job's latency, so runs of
      consecutive events miss busy, often to the end of the stream;
    * ``exact`` — jobs a whole number of slices long, so a job's last
      full slice can end a fused compute run;
    * ``saturating`` — harvest above the draw on a small capacitor, so a
      compute lane clamps at capacity, falls back under it as the
      harvest fades, and enters saturation from below again;
    * ``trace-end`` — events near, at or past the trace end, so jobs run
      into the deadline.
    """
    regime = draw(st.sampled_from(["dense", "exact", "saturating", "trace-end"]))
    dt = draw(st.sampled_from([1.0, 0.5]))
    kind = draw(st.sampled_from(["constant", "rf"]))
    frac = draw(st.floats(0.0, 1.0))
    leak = draw(st.sampled_from([0.0, 0.0005]))
    job = draw(st.floats(0.2, 3.0))
    if regime == "saturating":
        power = draw(st.floats(0.09, 0.2))
        cap = draw(st.floats(0.1, 0.4))
    else:
        power = draw(st.floats(0.004, 0.12))
        cap = draw(st.floats(0.3, 3.0))
    if regime == "exact":
        job = draw(st.integers(1, 40)) * SLICE_MJ * dt
    n = draw(st.integers(1, 10))
    if regime == "trace-end":
        start = TRACE_S - draw(st.floats(0.0, 60.0))
        gap = st.sampled_from([0.0, 0.5, 3.0, 20.0])
    elif regime == "dense":
        start = draw(st.floats(0.0, 500.0))
        gap = st.floats(0.0, 4.0)
    else:
        start = draw(st.floats(0.0, 400.0))
        gap = st.floats(0.0, 90.0)
    gaps = draw(st.lists(gap, min_size=n - 1, max_size=n - 1))
    events = np.cumsum([start, *gaps])
    if regime == "trace-end" and draw(st.booleans()):
        events[-1] = TRACE_S  # an event exactly at the trace end
    return kind, dt, power, cap, frac, leak, job, events


def _episode_devices(cases, seed, storage_cls=EnergyStorage):
    devices = []
    for i, (kind, dt, power, cap, frac, leak, job, _events) in enumerate(cases):
        if kind == "constant":
            trace = constant_trace(power, TRACE_S, dt=dt)
        else:
            trace = rf_trace(duration=TRACE_S, dt=dt, mean_mw=power, seed=seed + i)
        storage = storage_cls(
            cap, efficiency=0.8, leakage_mw=leak, initial_mj=cap * frac
        )
        devices.append(_KernelDevice(trace, storage, job))
    return devices


def _kernel_episode(cases, seed, prof=None):
    """One kernel episode over ``cases``: records plus end state."""
    devices = _episode_devices(cases, seed)
    kernel = _kernel(devices)
    k = len(devices)
    n_events = np.array([len(c[7]) for c in cases], np.int64)
    events = np.zeros((n_events.max(), k))
    cum = np.zeros((n_events.max(), k))
    for i, (device, case) in enumerate(zip(devices, cases)):
        trace = device.trace
        events[: n_events[i], i] = case[7]
        cum[: n_events[i], i] = trace._cum_bulk(np.clip(case[7], 0.0, trace.duration))
    state = [np.array([d.storage._initial_mj for d in devices])]
    state += [np.zeros(k) for _ in range(4)]
    draws = DrawBatch([np.random.default_rng(seed + 100 + i) for i in range(k)])
    rec = kernel.run_episode(
        np.ones(k, bool), events, cum, n_events, *state, draws, prof=prof
    )
    return rec, state


def _scalar_episode(device, events, seed):
    """The scalar simulator's intermittent event loop over one device:
    busy check, charge to the event, ``run_job_scalar``, ledger resume,
    and the completion draws.  Returns per-event records and end state."""
    storage, trace = device.storage, device.trace
    draws = PooledDraws(np.random.default_rng(seed))
    cum_at_event = trace._cum_bulk(np.clip(events, 0.0, trace.duration)).tolist()
    rows = []
    t_charged = cum_charged = busy_until = 0.0
    for j, te in enumerate(events.tolist()):
        if te < busy_until:
            rows.append((-1, REASON_BUSY, 0.0, 0.0, 1, False, 1.0))
            continue
        if te > t_charged:
            storage.charge(max(cum_at_event[j] - cum_charged, 0.0))
            storage.leak(te - t_charged)
            t_charged, cum_charged = te, cum_at_event[j]
        run = run_job_scalar(
            trace,
            MSP432,
            trace.dt,
            device.exit_energy[0],
            te,
            storage,
            deadline=trace.duration,
        )
        if run.completed:
            correct = bool(draws.random() < device.exit_acc[0])
            entropy = draws.beta(2.0, 8.0) if correct else draws.beta(5.0, 3.0)
            energy = run.energy_consumed_mj + run.overhead_energy_mj
            exit_, reason = 0, REASON_NONE
        else:
            correct, entropy, energy = False, 1.0, 0.0
            exit_, reason = -1, REASON_ENERGY
        rows.append(
            (exit_, reason, run.latency_s, energy, run.power_cycles, correct, entropy)
        )
        busy_until = t_charged = run.finish_time
        cum_charged = trace._cum_at(trace._clip_time(busy_until))
    end = (storage.level_mj, storage.total_drawn_mj, t_charged, cum_charged, busy_until)
    return rows, end


#: Record fields in :func:`_scalar_episode`'s row order, with their types.
ROW_FIELDS = (
    ("exit", int),
    ("reason", int),
    ("latency", float),
    ("energy", float),
    ("cycles", int),
    ("correct", bool),
    ("entropy", float),
)


def _kernel_rows(rec, i, n):
    return [tuple(cast(rec[name][e, i]) for name, cast in ROW_FIELDS) for e in range(n)]


def _assert_episode_matches_scalar(cases, seed):
    rec, state = _kernel_episode(cases, seed)
    devices = _episode_devices(cases, seed)
    for i, (device, case) in enumerate(zip(devices, cases)):
        rows, end = _scalar_episode(device, case[7], seed + 100 + i)
        assert _kernel_rows(rec, i, len(rows)) == rows, i
        assert tuple(column[i] for column in state) == end, i
        assert rec["charged"][i] == device.storage.total_charged_mj
        assert rec["wasted"][i] == device.storage.total_wasted_mj
    # Profiling counts work; it never changes a record or a state column.
    prof = PhaseProfiler()
    profiled, profiled_state = _kernel_episode(cases, seed, prof=prof)
    for name, _ in ROW_FIELDS:
        assert np.array_equal(profiled[name], rec[name]), name
    for a, b in zip(profiled_state, state):
        assert np.array_equal(a, b)
    assert prof.counts["intermittent.kernel_passes"] > 0


@given(
    cases=st.lists(episode_device(), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=examples(40), deadline=None)
def test_kernel_episode_matches_scalar_event_loop(cases, seed):
    """Many events per device: every record, draw and end-of-episode
    state column equals the scalar simulator's event loop, in every
    regime at once (lanes of different regimes share the passes)."""
    _assert_episode_matches_scalar(cases, seed)


def _case(kind, power, cap, frac, events, dt=1.0, leak=0.0, job=3.0):
    """One :func:`episode_device` tuple."""
    return kind, dt, power, cap, frac, leak, job, np.asarray(events, float)


def _regime_fleet(regime):
    """Hand-built devices that surely exercise ``regime``."""
    if regime == "busy-runs":
        # A 3 mJ job on weak harvest outlasts the 2 s event spacing; the
        # second device's last events all fall inside its final job.
        tail = [10.0, 400.0, 401.0, 402.5, 404.0, 405.0]
        return [
            _case("constant", 0.02, 1.0, 0.2, 20.0 + 2.0 * np.arange(8)),
            _case("rf", 0.03, 1.0, 0.5, tail, leak=0.0005),
        ]
    if regime == "exact":
        events = [5.0, 100.0, 200.0]
        return [
            _case("constant", 0.3, 2.0, 1.0, events, dt=dt, job=n * SLICE_MJ * dt)
            for dt, n in ((1.0, 7), (0.5, 13), (1.0, 40))
        ]
    if regime == "saturating":
        events = np.arange(1.0, TRACE_S, 60.0)
        devices = ((0.09, 0.15, 0.0), (0.1, 0.2, 0.0005), (0.12, 0.3, 0.0))
        return [
            _case("rf", power, cap, 0.0, events, leak=leak)
            for power, cap, leak in devices
        ]
    # trace-end: jobs still running when the trace ends, and events at
    # and past it.
    return [
        _case("constant", 0.01, 1.0, 0.1, [560.0, 599.0, 600.0]),
        _case("rf", 0.05, 2.0, 0.0, [590.0, 600.0, 601.0]),
    ]


REGIMES = ("busy-runs", "exact", "saturating", "trace-end")


@pytest.mark.parametrize("regime", REGIMES)
def test_kernel_episode_matches_scalar_in_each_regime(regime):
    _assert_episode_matches_scalar(_regime_fleet(regime), seed=5)


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_fleets_reach_their_regime(regime):
    """The hand-built fleets are not vacuous: the scalar loop shows each
    one doing what its regime is for."""
    cases = _regime_fleet(regime)
    devices = _episode_devices(cases, 5, storage_cls=_ClampLog)
    runs = [_scalar_episode(d, c[7], 0) for d, c in zip(devices, cases)]
    reasons = [[row[1] for row in rows] for rows, _ in runs]
    if regime == "busy-runs":
        marks = "".join("b" if r == REASON_BUSY else "." for r in reasons[0])
        assert "bbb" in marks
        assert reasons[1][-3:] == [REASON_BUSY] * 3
    elif regime == "exact":
        assert all(r == REASON_NONE for rs in reasons for r in rs)
    elif regime == "saturating":
        for device in devices:
            entries = np.diff(np.array(device.storage.clamps, int)) == 1
            assert entries.sum() >= 10  # clamps begin again and again
        assert all(rs.count(REASON_NONE) >= 8 for rs in reasons)
    else:
        assert reasons[0] == [REASON_ENERGY, REASON_BUSY, REASON_ENERGY]
        assert reasons[1] == [REASON_ENERGY] * 3
