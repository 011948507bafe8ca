"""Batched lockstep fleet engine: whole fleets as numpy device-arrays.

:class:`BatchedFleetEngine` is how every fleet executes.  It simulates a
fleet's devices *inside one process*, holding every piece of mutable
per-device state as a numpy column — storage level / capacity / ledger
totals, ``busy_until``, the charge bookkeeping (``t_charged`` /
``cum_charged``), and per-device event counts — and advancing all
still-active devices one event-index step at a time.
Construction builds the devices in windows of :data:`_BUILD_WINDOW`
and writes each device's static facts straight into preallocated
columns.  Per window it derives every device's four seeds in one
vectorized pass, seeds the window's events and simulator Generators in
another (:mod:`repro.utils.rng`) and takes the window's seeded traces in
one :func:`repro.sim.devices.fetch_traces` call (memo hits and same-grid
stacks, timed as the ``batch.build.traces`` profiler phase).  Each
device then materializes around its trace, in task order; exit rows are
computed once per distinct (profile, MCU) pair.  While the window's
traces exist, the engine takes everything it reads of them as columns
(the ``batch.build.columns`` phase): the decision-independent quantities
:class:`~repro.sim.simulator.Simulator` precomputes — cumulative
harvested energy at every event and the windowed observed charge power —
as stacked gathers (:func:`repro.energy.traces.event_queries`) written
straight into the (event, device) matrices, each trace's harvest
summary, peak, duration and total energy, and the intermittent devices'
sample rows.  No trace outlives its window.  The inner step then applies
controller decisions across the device axis with fancy indexing through
the batched controller groups of :mod:`repro.runtime.batched`.

Three device classes vectorize (everything a fleet spec can express):

* **single-cycle, incremental inference off** — the original lockstep
  form: one exit decision per event, records written in bulk;
* **single-cycle with a continue rule** — after the first result, the
  masked continuation loop asks the batched rule groups
  (:func:`repro.runtime.batched.batch_continue_rules`) "continue?" for
  every still-deciding device at once, drawing marginal energy and
  resampling confidence entropy exactly like the scalar loop;
* **intermittent execution** (the SONIC baseline) — the multi-power-cycle
  state machine runs through the shared
  :class:`~repro.intermittent.kernel.IntermittentFleetKernel`: all
  checkpoint/restore progress, power state, and partial-cycle energy
  accounting live in columns, and devices interleave micro-steps freely
  across their own event streams.

Determinism contract
--------------------
The engine is **bit-identical** to the scalar oracle
(:func:`repro.fleet.runner.run_device`, one
:class:`~repro.sim.simulator.Simulator` per device), and ``tests/golden/``
enforces it:

* both build their devices with :func:`repro.sim.devices.materialize`,
  so every device's random streams stay pinned to
  ``SeedSequence(fleet_seed, spawn_key=(device_index,))`` — the same four
  child seeds (trace, events, simulator, controller) on both paths.  The
  oracle derives them with numpy itself
  (:func:`~repro.sim.devices.device_seeds`); the engine derives a build
  window's with :func:`~repro.utils.rng.seed_states` and seeds its
  events, simulator and trace-draw Generators with
  :func:`~repro.utils.rng.generators`, numpy's ``SeedSequence``
  arithmetic over many seeds at once, equal to numpy word for word.
  The oracle hands ``materialize`` the trace ``build_trace`` returns;
  the engine, the window's (:func:`~repro.sim.devices.fetch_traces`) or
  ``build_trace``'s at that device's turn, so errors keep task order;
* the event-time columns are one stacked gather per block of a window,
  repeating ``PowerTrace._cum_bulk``'s arithmetic (and ``mean_power``'s
  window) element for element, so every column equals its device's own
  bulk queries byte for byte;
* pooled variates are consumed through :class:`~repro.utils.rng.DrawBatch`
  — per-device 256-wide pools refilled with the exact sampler calls
  :class:`~repro.utils.rng.PooledDraws` makes, in each device's own call
  order (difficulty before entropy, exploration before action, continue
  draws between entropy resamples), so the realized per-device streams
  are the scalar ones;
* all ledger arithmetic (charge / leak / draw, the 1e-12 affordability
  epsilon, the max() guard on cumulative-energy crossings) replicates the
  scalar operation sequence elementwise — float64 lanes round identically
  to the scalar ops they shadow;
* intermittent dynamics are episode-invariant: every episode resets
  storage and replays the same trace and events, and no controller
  learns, so only the completion draws (result difficulty, confidence
  entropy) differ between episodes.  The multi-cycle kernel therefore
  runs once per engine, in episode 0; each later episode takes the same
  completion draw for every event that completed, in event order, and
  rewrites only those events' ``correct`` / ``entropy`` records.  Every
  device's stream is consumed exactly as the scalar simulator consumes
  it, so the last episode's records are the scalar ones;
* a trace stack takes each device's trace draws in the scalar order and
  repeats the scalar arithmetic element for element, so the build window
  and the synthesis block size change no sample;
* ``finalize`` reads frozen buffers: an episode resets only its
  participating columns, so a device's record columns and
  ``total_drawn`` hold its last episode from then on, and the
  column-wise summary repeats the per-device summary's arithmetic
  (:meth:`~BatchedFleetEngine.records` rebuilds one device's
  :class:`~repro.sim.results.SimulationResult` to check it against).

Because devices never interact, lockstep order across devices is free;
only the within-device order matters, and the step loop preserves it.

Incremental execution
---------------------
:meth:`BatchedFleetEngine.run` is a thin driver over a resumable stepper:
:meth:`~BatchedFleetEngine.begin` initializes the live state columns,
:meth:`~BatchedFleetEngine.advance` executes up to N lockstep steps (an
episode with no single-cycle steps — an all-intermittent fleet — counts
as one step), and :meth:`~BatchedFleetEngine.finalize` freezes the
per-device results once :attr:`~BatchedFleetEngine.finished`.  An
intermittent episode — simulated in episode 0, replayed after — runs at
episode open, riding with the adjacent step, so replaying changes no
step count: ``total_steps`` and each ``advance`` call's executed count
are what a fully simulated run would report.  Every
piece of mutable state lives in the engine (numpy columns, batched
controller tables, per-device RNG pools), so pausing between steps is
invisible to the arithmetic: ``advance(k)`` called any number of times
produces **bit-identical** results to one uninterrupted :meth:`run` —
the property the gateway service (:mod:`repro.gateway`) serves
interactive traffic on, enforced against the same goldens.
"""

from __future__ import annotations

import time

import numpy as np

from repro.energy.traces import _BLOCK_ELEMENTS, event_queries
from repro.errors import ConfigError, SimulationError
from repro.intermittent.kernel import IntermittentFleetKernel
from repro.obs.recorder import get_recorder
from repro.runtime.batched import batch_continue_rules, batch_controllers, batchable
from repro.runtime.state import RuntimeStateBatch
from repro.sim.devices import (
    build_trace,
    fetch_traces,
    harvest_percentiles,
    materialize,
)
from repro.sim.results import (
    DeviceColumns,
    RecordColumns,
    SimulationResult,
    pack_dict_column,
    percentile_rows,
)
from repro.utils.rng import DrawBatch, as_generator, generators, seed_states

#: miss_reason codes used in the packed record buffers (shared with
#: repro.intermittent.kernel's REASON_* codes).
_REASONS = ("", "busy", "energy")
_MISS_NONE, _MISS_BUSY, _MISS_ENERGY = 0, 1, 2
#: Latency and energy percentiles a DeviceResult reports.
_RESULT_QS = (50, 90, 99)

#: Devices built per window: a window's traces, event streams and
#: synthesis temporaries are alive only while it builds.
_BUILD_WINDOW = 256


def _check_events(events) -> None:
    """Every device's events are sorted and non-negative: each event is
    at least its predecessor in the same stream, the first at least 0."""
    if not events:
        return
    flat = np.concatenate(events)
    prev = np.empty_like(flat)
    prev[1:] = flat[:-1]
    counts = np.array([e.size for e in events])
    prev[(np.cumsum(counts) - counts)[counts > 0]] = 0.0
    if (flat < prev).any():
        raise SimulationError("events must be sorted and non-negative")


def _blocks(counts, budget):
    """Consecutive ``(start, end)`` runs of ``counts`` summing to at most
    ``budget``; a run holds at least one entry, however large."""
    start = total = 0
    for end, n in enumerate(counts):
        if total + n > budget and end > start:
            yield start, end
            start, total = end, 0
        total += n
    yield start, len(counts)


def _padded(matrix, shape) -> np.ndarray:
    """``matrix`` extended with zeros to ``shape``."""
    grown = np.zeros(shape)
    grown[:matrix.shape[0], :matrix.shape[1]] = matrix
    return grown


class _RunState:
    """Mutable lockstep execution state, alive between advance() slices.

    Everything ``run()`` used to keep in local variables lives here so
    execution can pause after any step and resume later — the stepper
    contract :mod:`repro.gateway` serves interactive traffic on.  The
    ``phase`` field is the tiny state machine: ``"open"`` (the next work
    is an episode reset), ``"step"`` (mid-episode, ``j`` is the next
    event index), ``"done"`` (every episode played, ``finalize()`` may
    freeze results).
    """

    __slots__ = (
        "prof", "t0", "ep", "j", "n_steps", "phase", "max_episodes",
        "steps_done", "level", "total_drawn", "t_charged", "cum_charged",
        "busy_until", "r_exit", "r_correct", "r_latency", "r_energy",
        "r_entropy", "r_reason", "r_first", "r_continued", "r_cycles",
        "state", "part", "part_all", "n_passes", "n_full",
        "n_lanes", "n_busy", "n_emiss", "out", "int_episode",
    )

    def __init__(self):
        self.ep = 0
        self.j = 0
        self.n_steps = 0
        self.phase = "open"
        self.steps_done = 0
        self.n_passes = self.n_full = self.n_lanes = 0
        self.n_busy = self.n_emiss = 0
        self.out = None
        #: Intermittent devices' simulated episode — kernel records plus
        #: end-of-episode state columns — while a later episode will
        #: replay it.
        self.int_episode = None


class BatchedFleetEngine:
    """Runs a list of ``(index, DeviceSpec, fleet_seed)`` tasks.

    Construction materializes every device into the engine's columns, a
    build window at a time; :meth:`run` plays all
    episodes in lockstep and returns every task's result, in task order,
    as one :class:`~repro.sim.results.DeviceColumns`.  The incremental twin — :meth:`begin` /
    :meth:`advance` / :meth:`finalize` — executes the same instruction
    sequence in caller-sized slices; see the module docstring.
    """

    def __init__(self, tasks):
        tasks = list(tasks)
        if not tasks:
            raise ConfigError("BatchedFleetEngine needs at least one device")
        prof = get_recorder().profiler
        t_build = time.perf_counter() if prof is not None else 0.0
        m = len(tasks)
        self._m = m
        # Per-event matrices are (event, device) so the step loop reads
        # *contiguous* rows instead of strided columns; each build window
        # writes its devices' columns, zero-padded below their last event.
        self._events = np.zeros((0, m))
        self._cum_at_event = np.zeros((0, m))
        self._charge_power = np.zeros((0, m))
        # Every device's static facts, written into its row by its build
        # window (see _write_device).
        self._names = [None] * m
        self._profile_names = [None] * m
        self._harvest = [None] * m
        self._controllers = [None] * m
        self._sim_rngs = [None] * m
        self._index = np.zeros(m, np.int64)
        self._n_events = np.zeros(m, np.int64)
        self._episodes = np.zeros(m, np.int64)
        self._exec_int = np.array(
            [spec.execution == "intermittent" for _, spec, _ in tasks], bool
        )
        self._peak = np.zeros(m)
        self._duration = np.zeros(m)
        self._total_env = np.zeros(m)
        self._capacity = np.zeros(m)
        self._efficiency = np.zeros(m)
        self._leakage = np.zeros(m)
        self._initial = np.zeros(m)
        #: Distinct (profile, MCU) pairs, ``(id(profile), id(mcu)) ->
        #: (pair, profile, mcu)``, and each device's pair.
        self._pairs = {}
        self._pair = np.zeros(m, np.int64)
        # The intermittent devices' trace rows, one kernel lane each in
        # row order, zero-padded to the longest (see _write_int_traces).
        n_int = int(self._exec_int.sum())
        self._int_samples = np.zeros((n_int, 0))
        self._int_trace_cum = np.zeros((n_int, 0))
        self._int_n = np.zeros(n_int, np.int64)
        self._int_dt = np.zeros(n_int)
        for start in range(0, m, _BUILD_WINDOW):
            self._build_window(start, tasks[start:start + _BUILD_WINDOW], prof)
        for row, controller in enumerate(self._controllers):
            if not self._exec_int[row] and not batchable(controller):
                raise ConfigError(
                    f"device {self._names[row]!r}: controller cannot be batched"
                )
        max_ev = self._events.shape[0]
        self._write_exit_rows()
        self._sim_draws = DrawBatch(self._sim_rngs)
        # Execution-model split: intermittent devices run through the
        # shared multi-cycle kernel and never consult a controller.
        self._has_int = bool(self._exec_int.any())
        self._sc = ~self._exec_int
        sc_rows = np.nonzero(self._sc)[0]
        self._groups, self._group_of = batch_controllers(
            self._controllers, self._exit_cost, rows=sc_rows
        )
        self._rule_groups, self._rule_of = batch_continue_rules(
            self._controllers, max_steps=self._inc_cost.shape[1], rows=sc_rows
        )
        self._has_rules = bool(self._rule_groups)
        if self._has_int:
            int_rows = np.nonzero(self._exec_int)[0]
            job = self._n_exits[int_rows] - 1
            pairs = list(self._pairs.values())
            self._int_rows = int_rows
            self._int_kernel = IntermittentFleetKernel(
                int_rows,
                self._int_samples,
                self._int_trace_cum,
                self._int_n,
                self._int_dt,
                capacity=self._capacity[int_rows],
                efficiency=self._efficiency[int_rows],
                leakage=self._leakage[int_rows],
                mcus=[pairs[p][2] for p in self._pair[int_rows].tolist()],
                job_exit=job,
                job_energy=self._exit_cost[int_rows, job],
                job_acc=self._exit_acc[int_rows, job],
            )
            self._int_events = np.ascontiguousarray(self._events[:, int_rows])
            self._int_cum = np.ascontiguousarray(self._cum_at_event[:, int_rows])
            self._int_nev = self._n_events[int_rows]
        # Step-loop fast-path preconditions, hoisted out of the hot loop.
        # The whole-array fast paths write every device column at once, so
        # they are only sound when every engine row is a stepping
        # single-cycle device.
        self._all_rows = np.arange(m)
        active = np.arange(max_ev)[:, None] < self._n_events[None, :]
        self._active_sc = active & self._sc[None, :]
        self._full_ok = not self._has_int
        self._act_full = (
            self._active_sc.all(axis=1) if (max_ev and self._full_ok)
            else np.zeros(max_ev, bool)
        )
        self._no_leak = bool((self._leakage == 0.0).all())
        self._single = self._groups[0] if len(self._groups) == 1 else None
        #: Live stepper state (see :meth:`begin`); ``None`` until started.
        self._rs = None
        #: How many :meth:`advance` steps a full run takes: one per
        #: lockstep event-index step, and one for each episode that has
        #: no single-cycle steps at all (an all-intermittent fleet, whose
        #: whole episode executes inside the multi-cycle kernel).
        self.total_steps = 0
        for ep in range(int(self._episodes.max())):
            part_sc = (self._episodes > ep) & self._sc
            n = int(self._n_events[part_sc].max()) if part_sc.any() else 0
            self.total_steps += max(n, 1)
        if prof is not None:
            prof.add_wall("batch.build", time.perf_counter() - t_build)
            prof.memory_probe("batch.build")

    def _build_window(self, start, window, prof) -> None:
        """Build one window's devices into rows ``start``... of the columns.

        Seeds derive in one pass (:func:`~repro.utils.rng.seed_states`),
        events and simulator Generators in another.  In task order, each
        device takes its trace (:func:`~repro.sim.devices.fetch_traces`'s,
        or :func:`~repro.sim.devices.build_trace`'s at its turn), then
        materializes and writes its facts (:meth:`_write_device`); the
        events check, run once over every device built, fails before a
        later build's error would.  Then come the harvest summaries, the
        event-time columns and the intermittent trace rows.
        """
        states = seed_states(
            [fleet_seed for _, _, fleet_seed in window],
            ([index for index, _, _ in window],),
        )
        streams = generators(states[:, 1:3].ravel())
        seeds = [
            (trace, events, sim, ctrl)
            for (trace, _, _, ctrl), events, sim in zip(
                states.tolist(), streams[0::2], streams[1::2]
            )
        ]
        specs = [spec for _, spec, _ in window]
        t_phase = time.perf_counter() if prof is not None else 0.0
        traces = fetch_traces(specs, seeds)
        if prof is not None:
            prof.add_wall("batch.build.traces", time.perf_counter() - t_phase)
        events = []
        try:
            for c, ((index, spec, _), device) in enumerate(zip(window, seeds)):
                if traces[c] is None:
                    traces[c] = build_trace(spec.trace, device[0])
                obj = materialize(spec, device, traces[c])
                events.append(obj.events)
                self._write_device(start + c, index, spec, obj)
        finally:
            _check_events(events)
        t_phase = time.perf_counter() if prof is not None else 0.0
        self._harvest[start:start + len(window)] = harvest_percentiles(traces)
        self._write_event_columns(start, specs, traces, events)
        self._write_int_traces(start, traces)
        if prof is not None:
            prof.add_wall("batch.build.columns", time.perf_counter() - t_phase)

    def _write_device(self, row, index, spec, obj) -> None:
        """Write one materialized device's static facts into ``row``."""
        trace, storage, profile = obj.trace, obj.storage, obj.profile
        self._names[row] = spec.name
        self._profile_names[row] = profile.name
        self._controllers[row] = obj.controller
        self._sim_rngs[row] = as_generator(obj.sim_seed)
        self._index[row] = index
        self._n_events[row] = obj.events.size
        self._episodes[row] = spec.episodes
        self._peak[row] = trace.samples_mw.max()
        self._duration[row] = trace.duration
        self._total_env[row] = trace.total_energy_mj
        self._capacity[row] = storage.capacity_mj
        self._efficiency[row] = storage.efficiency
        self._leakage[row] = storage.leakage_mw
        self._initial[row] = storage._initial_mj
        key = (id(profile), id(obj.mcu))
        pair = self._pairs.setdefault(key, (len(self._pairs), profile, obj.mcu))
        self._pair[row] = pair[0]

    def _write_exit_rows(self) -> None:
        """Padded per-exit and incremental lookups, once per (profile,
        MCU) pair, gathered by each device's pair.  Cost pads with +inf so
        a padded exit never looks affordable; accuracy and time with 0."""
        pairs = [(profile, mcu) for _, profile, mcu in self._pairs.values()]
        max_exits = max(profile.num_exits for profile, _ in pairs)
        inc_width = max(max_exits - 1, 1)
        exit_cost = np.full((len(pairs), max_exits), np.inf)
        exit_time = np.zeros((len(pairs), max_exits))
        exit_acc = np.zeros((len(pairs), max_exits))
        inc_cost = np.full((len(pairs), inc_width), np.inf)
        inc_time = np.zeros((len(pairs), inc_width))
        for p, (profile, mcu) in enumerate(pairs):
            k = profile.num_exits
            time_s = mcu.inference_time_s
            exit_cost[p, :k] = profile.exit_energy_mj
            exit_time[p, :k] = [time_s(f) for f in profile.exit_flops]
            exit_acc[p, :k] = profile.exit_accuracies
            inc_cost[p, :k - 1] = profile.incremental_energy_mj
            inc_time[p, :k - 1] = [time_s(f) for f in profile.incremental_flops]
        pair = self._pair
        self._n_exits = np.array([p.num_exits for p, _ in pairs], np.int64)[pair]
        self._exit_cost = exit_cost[pair]
        self._exit_time = exit_time[pair]
        self._exit_acc = exit_acc[pair]
        self._inc_cost = inc_cost[pair]
        self._inc_time = inc_time[pair]

    def _write_int_traces(self, start, traces) -> None:
        """Write a window's intermittent devices' trace rows (samples,
        cumulative energy, sample count and step) into their kernel
        lanes, widening the padded rows to the window's longest trace."""
        window = self._exec_int[start:start + len(traces)]
        rows = [trace for trace, kept in zip(traces, window) if kept]
        width = max((trace.samples_mw.size for trace in rows), default=0)
        if width > self._int_samples.shape[1]:
            shape = (len(self._int_samples), width)
            self._int_samples = _padded(self._int_samples, shape)
            self._int_trace_cum = _padded(self._int_trace_cum, shape)
        first = int(np.count_nonzero(self._exec_int[:start]))
        for lane, trace in enumerate(rows, first):
            n = trace.samples_mw.size
            self._int_samples[lane, :n] = trace.samples_mw
            self._int_trace_cum[lane, :n] = trace._cum_energy
            self._int_n[lane] = n
            self._int_dt[lane] = trace.dt

    def _write_event_columns(self, start, specs, traces, events) -> None:
        """Write a window's event times, the cumulative harvested energy
        at each event and the observed charge power P into the engine's
        columns ``start``..., a block of devices per stacked gather.

        The gathers repeat each device's own ``_cum_bulk`` and
        ``mean_power`` element for element
        (:func:`~repro.energy.traces.event_queries`).  A block holds at
        most ``_BLOCK_ELEMENTS`` queries (two per event: its time and its
        window's start), or one device, which bounds the temporaries.
        """
        counts = [e.size for e in events]
        rows = max(counts)
        if rows > self._events.shape[0]:
            shape = (rows, self._m)
            self._events = _padded(self._events, shape)
            self._cum_at_event = _padded(self._cum_at_event, shape)
            self._charge_power = _padded(self._charge_power, shape)
        windows = [spec.power_window_s for spec in specs]
        # The SONIC baseline never consults P, so intermittent columns
        # keep zeros (the scalar simulator skips the windowed query).
        reads_power = ~self._exec_int[start:start + len(specs)]
        for a, b in _blocks(counts, _BLOCK_ELEMENTS // 2):
            block = counts[a:b]
            flat = np.concatenate(events[a:b])
            cum, power = event_queries(traces[a:b], block, flat, windows[a:b])
            power = np.where(np.repeat(reads_power[a:b], block), power, 0.0)
            offsets = np.cumsum(block) - block
            at = (np.arange(flat.size) - np.repeat(offsets, block)) * self._m
            at += np.repeat(np.arange(start + a, start + b), block)
            np.put(self._events, at, flat)
            np.put(self._cum_at_event, at, cum)
            np.put(self._charge_power, at, power)

    # ------------------------------------------------------------------ #
    def run(self) -> DeviceColumns:
        """Play every device's episodes; return their results in task order.

        Implemented as ``begin(); advance(); finalize()`` — the one-shot
        and incremental paths share every instruction, so they cannot
        drift apart (the goldens that pin this method pin the stepper).
        """
        self.begin()
        self.advance()
        return self.finalize()

    # ------------------------------------------------------------------ #
    # Incremental stepper (what the gateway's ``advance`` verb sits on)
    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        """``True`` once every episode of every device has been played."""
        return self._rs is not None and self._rs.phase == "done"

    @property
    def steps_done(self) -> int:
        """Lockstep steps executed so far (``0`` before :meth:`begin`)."""
        return 0 if self._rs is None else self._rs.steps_done

    def begin(self) -> None:
        """Allocate the live state columns and open incremental execution.

        Observability is fetched once per run here; every hot-loop touch
        downstream is guarded by ``prof is not None`` so the off path
        costs one local branch (the ≤2% no-op budget in
        ``benchmarks/test_p6_obs.py``).
        """
        if self._rs is not None:
            raise SimulationError(
                "engine already started: one begin() per BatchedFleetEngine"
            )
        rec = get_recorder()
        if rec.metrics is not None:
            rec.metrics.inc("batch.engine.runs")
            rec.metrics.inc("batch.engine.devices", self._m)
            rec.metrics.inc(
                "batch.engine.devices.intermittent", int(self._exec_int.sum())
            )
        rs = _RunState()
        rs.prof = rec.profiler
        rs.t0 = time.perf_counter()
        m, max_ev = self._m, self._events.shape[0]
        rs.level = np.zeros(m)
        rs.total_drawn = np.zeros(m)
        rs.t_charged = np.zeros(m)
        rs.cum_charged = np.zeros(m)
        rs.busy_until = np.zeros(m)
        # Record buffers, reused across episodes.  An episode resets only
        # its participating columns, so once a device's last episode is
        # played its columns stay frozen for finalize() to read.  Without
        # continue rules the first exit always equals the final exit, and without
        # intermittent devices every record's power_cycles is 1, so those
        # columns only materialize when a device class needs them; the
        # storage waste/charge ledger is likewise not observable in any
        # result and is skipped entirely.  (event, device) layout like
        # the inputs: contiguous writes per step.
        rs.r_exit = np.empty((max_ev, m), np.int64)
        rs.r_correct = np.empty((max_ev, m), bool)
        rs.r_latency = np.empty((max_ev, m))
        rs.r_energy = np.empty((max_ev, m))
        rs.r_entropy = np.empty((max_ev, m))
        rs.r_reason = np.empty((max_ev, m), np.int8)
        rs.r_first = (
            np.empty((max_ev, m), np.int64) if self._has_rules else None
        )
        rs.r_continued = (
            np.empty((max_ev, m), np.int64) if self._has_rules else None
        )
        rs.r_cycles = (
            np.empty((max_ev, m), np.int64) if self._has_int else None
        )
        rs.max_episodes = int(self._episodes.max())
        self._rs = rs

    def advance(self, max_steps=None) -> int:
        """Execute up to ``max_steps`` lockstep steps; returns how many ran.

        ``None`` runs to completion.  One step is one event-index pass
        over the active single-cycle lanes; an episode with no
        single-cycle steps at all (an all-intermittent fleet, whose
        whole episode executes inside the multi-cycle kernel) costs one
        step, so advancing always makes progress.  Episode-boundary work
        — state resets, the intermittent kernel pass (or, after episode
        0, its draw replay), trailing charge and
        controller end-of-episode hooks — rides along
        with the adjacent step.  Any K-way split of ``advance`` calls
        executes the exact instruction sequence of one uninterrupted
        :meth:`run`, so results are bit-identical.
        """
        if self._rs is None:
            self.begin()
        rs = self._rs
        if max_steps is not None:
            max_steps = int(max_steps)
            if max_steps < 0:
                raise ConfigError(
                    f"advance() needs max_steps >= 0 or None, got {max_steps}"
                )
        done = 0
        while rs.phase != "done" and (max_steps is None or done < max_steps):
            if rs.phase == "open":
                self._open_episode()
                if rs.n_steps == 0:
                    done += 1
                    rs.steps_done += 1
                    self._close_episode()
                    continue
                rs.phase = "step"
            t_step = time.perf_counter() if rs.prof is not None else 0.0
            self._lockstep_step()
            done += 1
            rs.steps_done += 1
            rs.j += 1
            if rs.prof is not None:
                rs.prof.add_wall(
                    "batch.lockstep", time.perf_counter() - t_step
                )
            if rs.j >= rs.n_steps:
                self._close_episode()
        return done

    def finalize(self) -> DeviceColumns:
        """Freeze per-device results; only valid once :attr:`finished`.

        Returns a :class:`~repro.sim.results.DeviceColumns`, in task
        order: the packed columns (``.packed``) pool chunks seal, shard
        artifacts store and reports are written from, read as a sequence
        of :class:`~repro.sim.results.DeviceResult` rows built on demand;
        ``len()`` is the device count.  Idempotent: repeated calls return
        the same object.
        """
        rs = self._rs
        if rs is None or rs.phase != "done":
            raise SimulationError(
                "finalize() before the engine finished: advance() to "
                "completion first (see the finished property)"
            )
        if rs.out is not None:
            return rs.out
        prof = rs.prof
        t_finalize = time.perf_counter() if prof is not None else 0.0
        out = self._device_columns()
        rs.out = out
        if prof is not None:
            # batch.run spans begin() to here, so it encloses the lockstep,
            # intermittent and finalize phases.
            t_end = time.perf_counter()
            prof.add_wall("batch.finalize", t_end - t_finalize)
            prof.add_wall("batch.run", t_end - rs.t0)
            prof.tally("batch.lockstep.passes", rs.n_passes)
            prof.tally("batch.lockstep.full_passes", rs.n_full)
            prof.tally("batch.lockstep.lanes", rs.n_lanes)
            prof.tally("batch.lockstep.busy_misses", rs.n_busy)
            prof.tally("batch.lockstep.energy_misses", rs.n_emiss)
            prof.memory_probe("batch.run")
        return out

    # ------------------------------------------------------------------ #
    def _open_episode(self) -> None:
        """Reset state columns for episode ``rs.ep`` and play participating
        intermittent devices' whole episode (simulated or replayed)."""
        rs = self._rs
        part = self._episodes > rs.ep
        rs.part = part
        rs.part_all = bool(part.all())
        # reset_storage=True semantics at the top of every run().
        rs.level[part] = self._initial[part]
        rs.total_drawn[part] = 0.0
        rs.t_charged[part] = 0.0
        rs.cum_charged[part] = 0.0
        rs.busy_until[part] = 0.0
        rs.r_exit[:, part] = -1
        rs.r_correct[:, part] = False
        rs.r_latency[:, part] = 0.0
        rs.r_energy[:, part] = 0.0
        rs.r_entropy[:, part] = 1.0
        rs.r_reason[:, part] = _MISS_NONE
        if self._has_rules:
            rs.r_first[:, part] = -1
            rs.r_continued[:, part] = 0
        if self._has_int:
            rs.r_cycles[:, part] = 1
        rs.state = RuntimeStateBatch(
            time=None,
            energy_mj=rs.level,  # aliased: only ever mutated in place
            capacity_mj=self._capacity,
            charge_power_mw=None,
            peak_power_mw=self._peak,
        )
        if self._has_int:
            t_int = time.perf_counter() if rs.prof is not None else 0.0
            self._run_intermittent_pass()
            if rs.prof is not None:
                rs.prof.add_wall(
                    "batch.intermittent", time.perf_counter() - t_int
                )
        part_sc = part & self._sc
        rs.n_steps = int(self._n_events[part_sc].max()) if part_sc.any() else 0
        rs.j = 0

    def _close_episode(self) -> None:
        """Trailing charge and end-of-episode controller hooks."""
        rs = self._rs
        part = rs.part
        # Trailing charge to the end of the trace, then episode close.
        tail = part & (self._duration > rs.t_charged)
        if tail.any():
            inc = np.where(
                tail, np.maximum(self._total_env - rs.cum_charged, 0.0), 0.0
            )
            banked = inc * self._efficiency
            stored = np.minimum(banked, self._capacity - rs.level)
            rs.level += stored
            if not self._no_leak:
                lost = np.where(
                    tail,
                    np.minimum(
                        rs.level,
                        self._leakage * (self._duration - rs.t_charged),
                    ),
                    0.0,
                )
                rs.level -= lost
        prows = self._all_rows[part]
        pgids = self._group_of[prows]
        for g, group in enumerate(self._groups):
            sub = prows[pgids == g]
            if len(sub):
                group.end_episode_batch(sub)
        for g, group in enumerate(self._rule_groups):
            sub = prows[self._rule_of[prows] == g]
            if len(sub):
                group.end_episode_batch(sub)
        rs.ep += 1
        rs.phase = "done" if rs.ep >= rs.max_episodes else "open"

    def _lockstep_step(self) -> None:
        """One event-index pass over the active single-cycle lanes — the
        body of the original lockstep loop, executing at ``rs.j``."""
        rs = self._rs
        j = rs.j
        prof = rs.prof
        part, part_all = rs.part, rs.part_all
        has_rules = self._has_rules
        level = rs.level
        total_drawn = rs.total_drawn
        t_charged = rs.t_charged
        cum_charged = rs.cum_charged
        busy_until = rs.busy_until
        state = rs.state
        r_exit, r_correct = rs.r_exit, rs.r_correct
        r_latency, r_energy = rs.r_latency, rs.r_energy
        r_entropy, r_reason = rs.r_entropy, rs.r_reason
        r_first, r_continued = rs.r_first, rs.r_continued
        all_rows = self._all_rows
        single = self._single
        no_leak = self._no_leak
        te = self._events[j]
        act_full_j = (
            self._full_ok and part_all and bool(self._act_full[j])
        )
        act = (
            self._active_sc[j] if part_all
            else part & self._active_sc[j]
        )
        busy = (te < busy_until) if act_full_j else act & (te < busy_until)
        any_busy = bool(busy.any())
        if any_busy:
            r_reason[j][busy] = _MISS_BUSY
            proc = act & ~busy
            if prof is not None:
                rs.n_passes += 1
                rs.n_busy += int(np.count_nonzero(busy))
                rs.n_lanes += int(np.count_nonzero(proc))
            if not proc.any():
                return
        else:
            proc = act
            if prof is not None:
                rs.n_passes += 1
                rs.n_lanes += int(np.count_nonzero(proc))
        full = act_full_j and not any_busy
        if prof is not None and full:
            rs.n_full += 1
        # Storage charging up to the event (precomputed increment).
        cum_j = self._cum_at_event[j]
        charging = proc & (te > t_charged)
        if full and charging.all():
            inc = np.maximum(cum_j - cum_charged, 0.0)
            banked = inc * self._efficiency
            stored = np.minimum(banked, self._capacity - level)
            level += stored
            if not no_leak:
                lost = np.minimum(
                    level, self._leakage * (te - t_charged)
                )
                level -= lost
            t_charged[:] = te
            cum_charged[:] = cum_j
        elif charging.any():
            inc = np.where(
                charging, np.maximum(cum_j - cum_charged, 0.0), 0.0
            )
            banked = inc * self._efficiency
            stored = np.minimum(banked, self._capacity - level)
            level += stored
            if not no_leak:
                lost = np.where(
                    charging,
                    np.minimum(level, self._leakage * (te - t_charged)),
                    0.0,
                )
                level -= lost
            # np.where rebinds (the one non-in-place update): write the
            # fresh arrays back so the next step sees them.
            rs.t_charged = t_charged = np.where(charging, te, t_charged)
            rs.cum_charged = cum_charged = np.where(
                charging, cum_j, cum_charged
            )
        # Controller decisions across the device axis.
        state.time = te
        state.charge_power_mw = self._charge_power[j]
        pidx = all_rows if full else np.nonzero(proc)[0]
        gids = None
        if single is not None:
            k_sel = single.select_exit_batch(pidx, state)
        else:
            k_sel = np.empty(len(pidx), np.int64)
            gids = self._group_of[pidx]
            for g, group in enumerate(self._groups):
                sub = gids == g
                if sub.any():
                    k_sel[sub] = group.select_exit_batch(pidx[sub], state)
        level_p = level if full else level[pidx]
        if single is not None and single.always_valid:
            cost = self._exit_cost[pidx, k_sel]
            afford = level_p >= cost - 1e-12
        else:
            valid = (k_sel >= 0) & (k_sel < self._n_exits[pidx])
            cost = self._exit_cost[pidx, np.where(valid, k_sel, 0)]
            afford = valid & (level_p >= cost - 1e-12)
        n_afford = int(np.count_nonzero(afford))
        aff_all = n_afford == len(pidx)
        rewards = None
        if not aff_all:
            mi = pidx[~afford]
            r_reason[j][mi] = _MISS_ENERGY
            busy_until[mi] = te[mi]
            rewards = np.zeros(len(pidx))
            if prof is not None:
                rs.n_emiss += len(mi)
        if n_afford:
            if aff_all:
                pi, kk, cost_p = pidx, k_sel, cost
            else:
                pi = pidx[afford]
                kk = k_sel[afford]
                cost_p = cost[afford]
            busy_s = self._exit_time[pi, kk]
            difficulty = self._sim_draws.random(pi)
            correct = difficulty < self._exit_acc[pi, kk]
            n_correct = int(np.count_nonzero(correct))
            if n_correct == len(pi):
                entropy = self._sim_draws.beta(2.0, 8.0, pi)
            elif not n_correct:
                entropy = self._sim_draws.beta(5.0, 3.0, pi)
            else:
                entropy = np.empty(len(pi))
                entropy[correct] = self._sim_draws.beta(
                    2.0, 8.0, pi[correct]
                )
                wrong = ~correct
                entropy[wrong] = self._sim_draws.beta(5.0, 3.0, pi[wrong])
            if has_rules:
                # Incremental-inference path: draw the base exit
                # now (the scalar order), then run the masked
                # continuation loop before any record writes.
                kk = kk.copy()
                busy_s = busy_s.copy()
                correct, entropy, energy_spent, first_k, continued = (
                    self._run_continue_loop(
                        pi, kk, busy_s, cost_p, difficulty,
                        correct, entropy, level, total_drawn,
                    )
                )
                r_exit[j][pi] = kk
                r_first[j][pi] = first_k
                r_correct[j][pi] = correct
                r_latency[j][pi] = busy_s
                r_energy[j][pi] = energy_spent
                r_entropy[j][pi] = entropy
                r_continued[j][pi] = continued
                busy_until[pi] = te[pi] + busy_s
            elif aff_all and full:
                # Whole fleet processed: contiguous row writes and
                # in-place ledger updates, no fancy indexing.
                np.subtract(level, cost_p, out=level)
                np.maximum(level, 0.0, out=level)
                total_drawn += cost_p
                r_exit[j] = kk
                r_correct[j] = correct
                r_latency[j] = busy_s
                r_energy[j] = cost_p
                r_entropy[j] = entropy
                np.add(te, busy_s, out=busy_until)
            else:
                level[pi] = np.maximum(0.0, level[pi] - cost_p)
                total_drawn[pi] += cost_p
                r_exit[j][pi] = kk
                r_correct[j][pi] = correct
                r_latency[j][pi] = busy_s
                r_energy[j][pi] = cost_p
                r_entropy[j][pi] = entropy
                busy_until[pi] = te[pi] + busy_s
            if aff_all:
                rewards = correct
            else:
                rewards[afford] = correct
            if has_rules:
                # Credit the recorded continue trajectories with
                # the event's realized correctness.
                for g, group in enumerate(self._rule_groups):
                    if not group.learns:
                        continue
                    sub = self._rule_of[pi] == g
                    if sub.any():
                        group.observe_batch(pi[sub], correct[sub])
        if single is not None:
            if single.wants_rewards:
                single.report_event_batch(pidx, rewards)
        else:
            for g, group in enumerate(self._groups):
                if not group.wants_rewards:
                    continue
                sub = gids == g
                if sub.any():
                    group.report_event_batch(pidx[sub], rewards[sub])

    # ------------------------------------------------------------------ #
    def _run_intermittent_pass(self) -> None:
        """Episode ``rs.ep`` of every participating intermittent device;
        scatters its records and end-of-episode state columns.

        Episode 0 runs the shared multi-cycle kernel.  A later episode
        repeats its dynamics exactly (storage resets, the trace and events
        repeat, no controller learns), so the kernel only replays the
        completion draws into the kept records.
        """
        rs = self._rs
        rows = self._int_rows
        ipart = rs.part[rows]
        if not ipart.any():
            return
        columns = (
            rs.level, rs.total_drawn, rs.t_charged, rs.cum_charged,
            rs.busy_until,
        )
        if rs.ep == 0:
            state = [column[rows] for column in columns]
            rec = self._int_kernel.run_episode(
                ipart, self._int_events, self._int_cum, self._int_nev,
                *state, self._sim_draws, prof=rs.prof,
            )
        else:
            rec, state = rs.int_episode
            self._int_kernel.replay_episode(
                ipart, rec, self._sim_draws, prof=rs.prof
            )
        later = bool((self._episodes[rows] > rs.ep + 1).any())
        rs.int_episode = (rec, state) if later else None
        cols = rows[ipart]
        for column, values in zip(columns, state):
            column[cols] = values[ipart]
        rs.r_exit[:, cols] = rec["exit"][:, ipart]
        rs.r_correct[:, cols] = rec["correct"][:, ipart]
        rs.r_latency[:, cols] = rec["latency"][:, ipart]
        rs.r_energy[:, cols] = rec["energy"][:, ipart]
        rs.r_entropy[:, cols] = rec["entropy"][:, ipart]
        rs.r_reason[:, cols] = rec["reason"][:, ipart]
        rs.r_cycles[:, cols] = rec["cycles"][:, ipart]
        if self._has_rules:
            # No continue rule runs on an intermittent device: like the
            # scalar simulator, its first exit is its final one (-1 for
            # misses), and ``continued`` keeps its reset 0.
            rs.r_first[:, cols] = rec["exit"][:, ipart]

    # ------------------------------------------------------------------ #
    def _run_continue_loop(
        self, pi, kk, busy_s, cost_p, difficulty, correct, entropy,
        level, total_drawn,
    ):
        """Masked incremental-inference loop for the processed devices.

        Mirrors the scalar ``while k < last_exit`` loop: draw the base
        exit's energy, then repeatedly ask each device's continue rule
        whether to advance to the next exit, drawing the marginal energy
        and resampling confidence entropy for the devices that do.
        ``kk`` / ``busy_s`` are mutated in place; returns the final
        record columns.
        """
        level[pi] = np.maximum(0.0, level[pi] - cost_p)
        total_drawn[pi] += cost_p
        energy_spent = cost_p.copy()
        first_k = kk.copy()
        continued = np.zeros(len(pi), np.int64)
        last = self._n_exits[pi] - 1
        cand = np.nonzero((self._rule_of[pi] >= 0) & (kk < last))[0]
        while cand.size:
            rows_c = pi[cand]
            k_c = kk[cand]
            marginal = self._inc_cost[rows_c, k_c]
            affordable = level[rows_c] >= marginal - 1e-12
            frac = level[rows_c] / self._capacity[rows_c]
            ent_c = entropy[cand]
            cont = np.zeros(len(cand), bool)
            gids = self._rule_of[rows_c]
            for g, group in enumerate(self._rule_groups):
                sub = gids == g
                if sub.any():
                    cont[sub] = group.decide_batch(
                        rows_c[sub], ent_c[sub], frac[sub], affordable[sub]
                    )
            go = cand[cont]
            if not go.size:
                break
            rows_g = pi[go]
            m_g = self._inc_cost[rows_g, kk[go]]
            level[rows_g] = np.maximum(0.0, level[rows_g] - m_g)
            total_drawn[rows_g] += m_g
            energy_spent[go] += m_g
            busy_s[go] += self._inc_time[rows_g, kk[go]]
            kk[go] += 1
            continued[go] += 1
            corr_g = difficulty[go] < self._exit_acc[rows_g, kk[go]]
            correct[go] = corr_g
            ent_new = np.empty(len(go))
            if corr_g.any():
                ent_new[corr_g] = self._sim_draws.beta(
                    2.0, 8.0, rows_g[corr_g]
                )
            wrong_g = ~corr_g
            if wrong_g.any():
                ent_new[wrong_g] = self._sim_draws.beta(
                    5.0, 3.0, rows_g[wrong_g]
                )
            entropy[go] = ent_new
            cand = go[kk[go] < last[go]]
        return correct, entropy, energy_spent, first_k, continued

    # ------------------------------------------------------------------ #
    def _device_columns(self) -> DeviceColumns:
        """Every device's result, computed column-wise into the packed form.

        Reads the record buffers and ``total_drawn``, frozen at each
        device's last episode, as (event, device) matrices: counts, ratios,
        exit and miss histograms reduce whole matrices at once.  Means and
        percentiles group devices by processed count k and reduce each
        contiguous (devices x k) block along its last axis, which repeats
        ``np.mean``'s pairwise sum and ``percentile_dict``'s lerp row by
        row.  Every column is what
        :func:`~repro.sim.results.pack_device_results` writes for
        ``DeviceResult.from_simulation`` over :meth:`records`, bit for bit:
        the same values and types, the same ``keys`` or ``raw`` dict
        tables, the same exit-histogram padding.
        """
        rs = self._rs
        m, n_events = self._m, self._n_events
        valid = np.arange(rs.r_reason.shape[0])[:, None] < n_events
        missed = valid & (rs.r_reason != _MISS_NONE)
        processed = valid & ~missed
        n_missed = np.count_nonzero(missed, axis=0)
        n_processed = n_events - n_missed
        n_correct = np.count_nonzero(processed & rs.r_correct, axis=0)
        total_env = self._total_env
        iepmj = _ratio(n_correct, total_env, ~(total_env <= 0))
        average = _ratio(n_correct, n_events, n_events > 0)
        proc_acc = _ratio(n_correct, n_processed, n_processed > 0)
        # Means and percentiles over each device's processed events, in
        # event order, a group of equal processed count at a time.
        means = {"latency": np.zeros(m), "energy": np.zeros(m)}
        points = {key: np.zeros((m, len(_RESULT_QS))) for key in means}
        by_device = {"latency": rs.r_latency.T, "energy": rs.r_energy.T}
        proc_by_device = processed.T
        order = np.argsort(n_processed, kind="stable")
        sizes = np.bincount(n_processed)
        ends = np.cumsum(sizes)
        for k in np.nonzero(sizes)[0].tolist():
            if k == 0:
                continue
            group = order[ends[k] - sizes[k]:ends[k]]
            mask = proc_by_device[group]
            for key, values in by_device.items():
                block = values[group][mask].reshape(len(group), k)
                means[key][group] = block.mean(axis=1)
                block.sort(axis=1)
                points[key][group] = percentile_rows(block, _RESULT_QS)
        # Exit histograms: processed events at a valid exit, per device,
        # zero beyond each device's own exits (the packed padding).
        width = self._exit_cost.shape[1]
        counted = processed & (rs.r_exit >= 0) & (rs.r_exit < self._n_exits)
        _, dev = np.nonzero(counted)
        hist = np.bincount(
            dev * width + rs.r_exit[counted], minlength=m * width
        ).reshape(m, width)
        keys = [f"p{q:g}" for q in _RESULT_QS]
        packed = {
            "n": m,
            "names": list(self._names),
            "profiles": list(self._profile_names),
            "index": self._index.tolist(),
            "num_events": n_events.tolist(),
            "num_processed": n_processed.tolist(),
            "num_missed": n_missed.tolist(),
            "num_correct": n_correct.tolist(),
            "iepmj": iepmj.tolist(),
            "average_accuracy": average.tolist(),
            "processed_accuracy": proc_acc.tolist(),
            "mean_latency_s": means["latency"].tolist(),
            "mean_inference_energy_mj": means["energy"].tolist(),
            "total_env_energy_mj": total_env.tolist(),
            "total_consumed_mj": rs.total_drawn.tolist(),
            "duration_s": self._duration.tolist(),
            "episodes": self._episodes.tolist(),
            # The engine simulates devices together: no per-device wall.
            "wall_s": [0.0] * m,
            "latency_percentiles": {
                "keys": keys, "values": points["latency"].tolist(),
            },
            "energy_percentiles": {
                "keys": keys, "values": points["energy"].tolist(),
            },
            "harvest_percentiles": pack_dict_column(self._harvest, float),
            "miss_counts": self._miss_column(valid),
            "exit_counts": hist.tolist(),
            "exit_widths": self._n_exits.tolist(),
        }
        return DeviceColumns(packed)

    def _miss_column(self, valid) -> dict:
        """The packed ``miss_counts`` column: each device's missed events
        by reason, reasons in the order the device first met them, as a
        ``keys`` table when every device met the same reasons in the
        same order and as ``raw`` dicts otherwise."""
        rs = self._rs
        misses = []
        for code in range(1, len(_REASONS)):
            hit = valid & (rs.r_reason == code)
            count = np.count_nonzero(hit, axis=0)
            # (``first`` is read only where ``count`` is positive.)
            first = hit.argmax(axis=0) if len(hit) else count
            misses.append((_REASONS[code], count.tolist(), first.tolist()))
        rows = [
            sorted(
                (first[i], name, count[i])
                for name, count, first in misses if count[i]
            )
            for i in range(self._m)
        ]
        order = [name for _, name, _ in rows[0]]
        if all([name for _, name, _ in row] == order for row in rows):
            return {"keys": order, "values": [[c for _, _, c in row] for row in rows]}
        return {"raw": [{name: c for _, name, c in row} for row in rows]}

    def records(self, i: int) -> SimulationResult:
        """Device ``i``'s last episode as a :class:`SimulationResult`.

        Built on demand from the frozen record buffers once the engine
        :attr:`finished`; :meth:`finalize` never needs it.
        """
        rs = self._rs
        if rs is None or rs.phase != "done":
            raise SimulationError("records() before the engine finished")
        n = int(self._n_events[i])
        columns = RecordColumns()
        reason = np.ascontiguousarray(rs.r_reason[:n, i])
        exits = np.ascontiguousarray(rs.r_exit[:n, i])
        columns.time = np.ascontiguousarray(self._events[:n, i])
        columns.exit_index = exits
        if rs.r_first is None:
            # No continue rules in the fleet, so the first exit is always
            # the final one (and -1 for misses, like append_missed).
            columns.first_exit_index = exits
            columns.continued = np.zeros(n, np.int64)
        else:
            columns.first_exit_index = np.ascontiguousarray(rs.r_first[:n, i])
            columns.continued = np.ascontiguousarray(rs.r_continued[:n, i])
        columns.correct = np.ascontiguousarray(rs.r_correct[:n, i])
        columns.latency_s = np.ascontiguousarray(rs.r_latency[:n, i])
        columns.energy_mj = np.ascontiguousarray(rs.r_energy[:n, i])
        columns.confidence_entropy = np.ascontiguousarray(rs.r_entropy[:n, i])
        columns.missed = reason != _MISS_NONE
        columns.miss_reason = [_REASONS[c] for c in reason.tolist()]
        if rs.r_cycles is None:
            columns.power_cycles = np.ones(n, np.int64)
        else:
            columns.power_cycles = np.ascontiguousarray(rs.r_cycles[:n, i])
        return SimulationResult.from_columns(
            columns,
            total_env_energy_mj=float(self._total_env[i]),
            total_consumed_mj=float(rs.total_drawn[i]),
            duration_s=float(self._duration[i]),
            profile_name=self._profile_names[i],
        )


def _ratio(num, den, ok) -> np.ndarray:
    """``num / den`` where ``ok``, else 0.0 (the scalar results' guards)."""
    return np.divide(num, den, out=np.zeros(len(num)), where=ok)
