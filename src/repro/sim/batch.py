"""Batched lockstep fleet engine: whole fleets as numpy device-arrays.

:class:`BatchedFleetEngine` is how every fleet executes.  It simulates a
fleet's devices *inside one process*, holding every piece of mutable
per-device state as a numpy column — storage level / capacity / ledger
totals, ``busy_until``, the charge bookkeeping (``t_charged`` /
``cum_charged``), and per-device event counts — and advancing all
still-active devices one event-index step at a time.
Decision-independent quantities are precomputed per device up front
exactly as :class:`~repro.sim.simulator.Simulator` does
(cumulative harvested energy at event times via ``PowerTrace._cum_bulk``,
windowed observed charge power via ``PowerTrace.mean_power``); the inner
step then applies controller decisions across the device axis with fancy
indexing through the batched controller groups of
:mod:`repro.runtime.batched`.

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
  child seeds (trace, events, simulator, controller) on both paths;
* pooled variates are consumed through :class:`~repro.utils.rng.DrawBatch`
  — per-device 256-wide pools refilled with the exact sampler calls
  :class:`~repro.utils.rng.PooledDraws` makes, in each device's own call
  order (difficulty before entropy, exploration before action, continue
  draws between entropy resamples), so the realized per-device streams
  are the scalar ones;
* all ledger arithmetic (charge / leak / draw, the 1e-12 affordability
  epsilon, the max() guard on cumulative-energy crossings) replicates the
  scalar operation sequence elementwise — float64 lanes round identically
  to the scalar ops they shadow.

Because devices never interact, lockstep order across devices is free;
only the within-device order matters, and the step loop preserves it.

Incremental execution
---------------------
:meth:`BatchedFleetEngine.run` is a thin driver over a resumable stepper:
:meth:`~BatchedFleetEngine.begin` initializes the live state columns,
:meth:`~BatchedFleetEngine.advance` executes up to N lockstep steps (an
episode with no single-cycle steps — an all-intermittent fleet — counts
as one step), and :meth:`~BatchedFleetEngine.finalize` freezes the
per-device results once :attr:`~BatchedFleetEngine.finished`.  Every
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

from repro.errors import ConfigError, SimulationError
from repro.intermittent.kernel import IntermittentFleetKernel
from repro.obs.recorder import get_recorder
from repro.runtime.batched import batch_continue_rules, batch_controllers, batchable
from repro.runtime.state import RuntimeStateBatch
from repro.sim.devices import harvest_percentiles, materialize
from repro.sim.results import DeviceResult, RecordColumns, SimulationResult
from repro.utils.rng import DrawBatch, as_generator

#: miss_reason codes used in the packed record buffers (shared with
#: repro.intermittent.kernel's REASON_* codes).
_REASONS = ("", "busy", "energy")
_MISS_NONE, _MISS_BUSY, _MISS_ENERGY = 0, 1, 2

class _Device:
    """Materialized per-device objects + precomputed event-time queries."""

    __slots__ = (
        "index", "spec", "trace", "events", "profile", "storage", "mcu",
        "controller", "sim_rng", "intermittent", "cum_at_event",
        "charge_power", "exit_energy", "exit_time", "exit_acc",
        "inc_energy", "inc_time",
    )

    def __init__(self, index: int, spec, fleet_seed: int):
        self.index = int(index)
        self.spec = spec
        (self.trace, events, self.profile, self.storage, self.mcu,
         self.controller, sim_seed) = materialize(index, spec, fleet_seed)
        self.events = np.asarray(events, dtype=np.float64)
        if self.events.size and (
            np.any(np.diff(self.events) < 0) or self.events[0] < 0
        ):
            raise SimulationError("events must be sorted and non-negative")
        self.sim_rng = as_generator(sim_seed)
        self.intermittent = spec.execution == "intermittent"
        trace = self.trace
        duration = trace.duration
        if self.events.size:
            clipped = np.minimum(duration, np.maximum(0.0, self.events))
            self.cum_at_event = trace._cum_bulk(clipped)
            if self.intermittent:
                # The SONIC baseline never consults the observed charging
                # power P, so skip the windowed query (like the scalar
                # simulator does).
                self.charge_power = np.zeros(self.events.size)
            else:
                # mean_power inlined so its _cum_bulk(t) shares the
                # event-time evaluation above (same clipped times, same
                # arithmetic).
                t0 = np.maximum(0.0, clipped - spec.power_window_s)
                span = clipped - t0
                degenerate = span <= 0.0
                windowed = (
                    self.cum_at_event - trace._cum_bulk(t0)
                ) / np.where(degenerate, 1.0, span)
                if degenerate.any():
                    windowed = np.where(
                        degenerate, trace.power(clipped), windowed
                    )
                self.charge_power = windowed
        else:
            self.cum_at_event = np.empty(0)
            self.charge_power = np.empty(0)
        self.exit_energy = [float(e) for e in self.profile.exit_energy_mj]
        self.exit_time = [
            self.mcu.inference_time_s(f) for f in self.profile.exit_flops
        ]
        self.exit_acc = [float(a) for a in self.profile.exit_accuracies]
        self.inc_energy = [
            float(e) for e in self.profile.incremental_energy_mj
        ]
        self.inc_time = [
            self.mcu.inference_time_s(f) for f in self.profile.incremental_flops
        ]


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
        "results", "state", "part", "part_all", "n_passes", "n_full",
        "n_lanes", "n_busy", "n_emiss", "out",
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


class BatchedFleetEngine:
    """Runs a list of ``(index, DeviceSpec, fleet_seed)`` tasks.

    Construction materializes every device (traces, profiles, controllers,
    per-event precomputations); :meth:`run` plays all episodes in lockstep
    and returns one :class:`~repro.sim.results.DeviceResult` per task,
    in task order.  The incremental twin — :meth:`begin` /
    :meth:`advance` / :meth:`finalize` — executes the same instruction
    sequence in caller-sized slices; see the module docstring.
    """

    def __init__(self, tasks):
        if not tasks:
            raise ConfigError("BatchedFleetEngine needs at least one device")
        prof = get_recorder().profiler
        t_build = time.perf_counter() if prof is not None else 0.0
        self.devices = [_Device(i, spec, seed) for i, spec, seed in tasks]
        for dev in self.devices:
            if not dev.intermittent and not batchable(dev.controller):
                raise ConfigError(
                    f"device {dev.spec.name!r}: controller cannot be batched"
                )
        m = len(self.devices)
        self._m = m
        max_ev = max(d.events.size for d in self.devices)
        max_exits = max(d.profile.num_exits for d in self.devices)
        self._n_events = np.array([d.events.size for d in self.devices], np.int64)
        self._episodes = np.array([d.spec.episodes for d in self.devices], np.int64)
        self._n_exits = np.array(
            [d.profile.num_exits for d in self.devices], np.int64
        )
        # Padded per-event and per-exit lookups.  Cost pads with +inf so a
        # padded exit can never look affordable; accuracy/time pad with 0.
        # Per-event matrices are (event, device) so the step loop reads
        # *contiguous* rows instead of strided columns.
        self._events = np.zeros((max_ev, m))
        self._cum_at_event = np.zeros((max_ev, m))
        self._charge_power = np.zeros((max_ev, m))
        self._exit_cost = np.full((m, max_exits), np.inf)
        self._exit_time = np.zeros((m, max_exits))
        self._exit_acc = np.zeros((m, max_exits))
        inc_width = max(max_exits - 1, 1)
        self._inc_cost = np.full((m, inc_width), np.inf)
        self._inc_time = np.zeros((m, inc_width))
        for i, d in enumerate(self.devices):
            n = d.events.size
            self._events[:n, i] = d.events
            self._cum_at_event[:n, i] = d.cum_at_event
            self._charge_power[:n, i] = d.charge_power
            k = d.profile.num_exits
            self._exit_cost[i, :k] = d.exit_energy
            self._exit_time[i, :k] = d.exit_time
            self._exit_acc[i, :k] = d.exit_acc
            self._inc_cost[i, :len(d.inc_energy)] = d.inc_energy
            self._inc_time[i, :len(d.inc_time)] = d.inc_time
        # Storage columns (reset per episode) + fixed environment columns.
        self._capacity = np.array([d.storage.capacity_mj for d in self.devices])
        self._efficiency = np.array([d.storage.efficiency for d in self.devices])
        self._leakage = np.array([d.storage.leakage_mw for d in self.devices])
        self._initial = np.array([d.storage._initial_mj for d in self.devices])
        self._peak = np.array(
            [float(np.max(d.trace.samples_mw)) for d in self.devices]
        )
        self._duration = np.array([d.trace.duration for d in self.devices])
        self._total_env = np.array(
            [d.trace.total_energy_mj for d in self.devices]
        )
        self._sim_draws = DrawBatch([d.sim_rng for d in self.devices])
        # Execution-model split: intermittent devices run through the
        # shared multi-cycle kernel and never consult a controller.
        self._exec_int = np.array([d.intermittent for d in self.devices], bool)
        self._has_int = bool(self._exec_int.any())
        self._sc = ~self._exec_int
        sc_rows = np.nonzero(self._sc)[0]
        controllers = [d.controller for d in self.devices]
        self._groups, self._group_of = batch_controllers(
            controllers, self._exit_cost, rows=sc_rows
        )
        self._rule_groups, self._rule_of = batch_continue_rules(
            controllers, max_steps=inc_width, rows=sc_rows
        )
        self._has_rules = bool(self._rule_groups)
        if self._has_int:
            int_rows = np.nonzero(self._exec_int)[0]
            self._int_rows = int_rows
            self._int_kernel = IntermittentFleetKernel(
                int_rows, [self.devices[r] for r in int_rows]
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

    # ------------------------------------------------------------------ #
    def run(self):
        """Play every device's episodes; return DeviceResults in task order.

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
        # Record buffers, reused across episodes (finished devices are
        # snapshotted by copy before the next reset).  Without continue
        # rules the first exit always equals the final exit, and without
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
        rs.results = [None] * m
        rs.max_episodes = int(self._episodes.max())
        self._rs = rs

    def advance(self, max_steps=None) -> int:
        """Execute up to ``max_steps`` lockstep steps; returns how many ran.

        ``None`` runs to completion.  One step is one event-index pass
        over the active single-cycle lanes; an episode with no
        single-cycle steps at all (an all-intermittent fleet, whose
        whole episode executes inside the multi-cycle kernel) costs one
        step, so advancing always makes progress.  Episode-boundary work
        — state resets, the intermittent kernel pass, trailing charge,
        controller end-of-episode hooks, result snapshots — rides along
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

    def finalize(self):
        """Freeze per-device results; only valid once :attr:`finished`.

        Idempotent: repeated calls return the same DeviceResult list.
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
        out = [
            DeviceResult.from_simulation(
                d.index,
                d.spec.name,
                rs.results[i],
                d.profile,
                harvest_percentiles=harvest_percentiles(d.trace),
                episodes=d.spec.episodes,
            )
            for i, d in enumerate(self.devices)
        ]
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
        """Reset state columns for episode ``rs.ep`` and run participating
        intermittent devices' whole-episode kernel pass."""
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
            self._run_intermittent_pass(
                part, rs.level, rs.total_drawn, rs.t_charged,
                rs.cum_charged, rs.busy_until, rs.r_exit, rs.r_correct,
                rs.r_latency, rs.r_energy, rs.r_entropy, rs.r_reason,
                rs.r_cycles, prof=rs.prof,
            )
            if rs.prof is not None:
                rs.prof.add_wall(
                    "batch.intermittent", time.perf_counter() - t_int
                )
        part_sc = part & self._sc
        rs.n_steps = int(self._n_events[part_sc].max()) if part_sc.any() else 0
        rs.j = 0

    def _close_episode(self) -> None:
        """Trailing charge, end-of-episode controller hooks, and result
        snapshots for devices whose last episode just finished."""
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
        finishing = part & (self._episodes == rs.ep + 1)
        for i in np.nonzero(finishing)[0].tolist():
            rs.results[i] = self._snapshot(
                i, rs.total_drawn[i], rs.r_exit, rs.r_correct, rs.r_latency,
                rs.r_energy, rs.r_entropy, rs.r_reason, rs.r_first,
                rs.r_continued, rs.r_cycles,
            )
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
    def _run_intermittent_pass(
        self, part, level, total_drawn, t_charged, cum_charged, busy_until,
        r_exit, r_correct, r_latency, r_energy, r_entropy, r_reason, r_cycles,
        prof=None,
    ) -> None:
        """One episode of every participating intermittent device, through
        the shared multi-cycle kernel; scatters records and writes the
        mutated state columns back."""
        rows = self._int_rows
        ipart = part[rows]
        if not ipart.any():
            return
        lvl = level[rows]
        drw = total_drawn[rows]
        tch = t_charged[rows]
        cch = cum_charged[rows]
        bsy = busy_until[rows]
        rec = self._int_kernel.run_episode(
            ipart, self._int_events, self._int_cum, self._int_nev,
            lvl, drw, tch, cch, bsy, self._sim_draws, prof=prof,
        )
        level[rows] = lvl
        total_drawn[rows] = drw
        t_charged[rows] = tch
        cum_charged[rows] = cch
        busy_until[rows] = bsy
        cols = rows[ipart]
        r_exit[:, cols] = rec["exit"][:, ipart]
        r_correct[:, cols] = rec["correct"][:, ipart]
        r_latency[:, cols] = rec["latency"][:, ipart]
        r_energy[:, cols] = rec["energy"][:, ipart]
        r_entropy[:, cols] = rec["entropy"][:, ipart]
        r_reason[:, cols] = rec["reason"][:, ipart]
        r_cycles[:, cols] = rec["cycles"][:, ipart]

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
    def _snapshot(
        self, i, drawn, r_exit, r_correct, r_latency, r_energy, r_entropy,
        r_reason, r_first, r_continued, r_cycles,
    ) -> SimulationResult:
        """Freeze device ``i``'s final-episode rows into a SimulationResult."""
        n = int(self._n_events[i])
        columns = RecordColumns()
        reason = np.ascontiguousarray(r_reason[:n, i])
        exits = np.ascontiguousarray(r_exit[:n, i])
        columns.time = np.ascontiguousarray(self._events[:n, i])
        columns.exit_index = exits
        if r_first is None:
            # No continue rules in the fleet, so the first exit is always
            # the final one (and -1 for misses, like append_missed).
            columns.first_exit_index = exits
            columns.continued = np.zeros(n, np.int64)
        else:
            columns.first_exit_index = np.ascontiguousarray(r_first[:n, i])
            columns.continued = np.ascontiguousarray(r_continued[:n, i])
        columns.correct = np.ascontiguousarray(r_correct[:n, i])
        columns.latency_s = np.ascontiguousarray(r_latency[:n, i])
        columns.energy_mj = np.ascontiguousarray(r_energy[:n, i])
        columns.confidence_entropy = np.ascontiguousarray(r_entropy[:n, i])
        columns.missed = reason != _MISS_NONE
        columns.miss_reason = [_REASONS[c] for c in reason.tolist()]
        if r_cycles is None:
            columns.power_cycles = np.ones(n, np.int64)
        else:
            columns.power_cycles = np.ascontiguousarray(r_cycles[:n, i])
        return SimulationResult.from_columns(
            columns,
            total_env_energy_mj=float(self._total_env[i]),
            total_consumed_mj=float(drawn),
            duration_s=float(self._duration[i]),
            profile_name=self.devices[i].profile.name,
        )
