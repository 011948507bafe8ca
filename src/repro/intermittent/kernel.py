"""Shared intermittent-execution kernel: scalar and lockstep forms.

SONIC-style execution [9] runs one fixed inference across however many
power cycles the harvested energy dictates: compute while the capacitor
lasts, checkpoint at the shutdown threshold, power off, recharge to the
wakeup threshold, restore, continue.  This module is the single home of
that loop's arithmetic:

* :func:`run_job_scalar` is the per-device Python loop (the former body of
  ``IntermittentExecutionEngine.run_inference``, moved verbatim) — the
  reference the batched form shadows;
* :class:`IntermittentFleetKernel` is its device-axis twin for the batched
  fleet engine (:mod:`repro.sim.batch`): every piece of mutable per-device
  state — checkpoint progress (``work_left``), power state (``on``),
  partial-cycle energy accounting (``consumed`` / ``overhead``), clocks,
  event cursors — lives in a numpy column, and the vector axis of each
  pass is **(device × micro-step)**: every active device advances through
  a *fused run* of consecutive micro-steps (up to :data:`FUSE_HORIZON`
  recharge ``dt``'s or compute slices) per pass, not just one.  Only the
  steps that cannot cross a power boundary fuse — a step that would wake,
  shut down, clamp a ledger ``min``/``max``, or hit the deadline stops
  the run and executes through the verified one-step form instead — so
  the pass count collapses from one-per-micro-step (~3.4k on the profiled
  city-block-128 shape) to the order of power transitions, while every
  committed chain is the scalar fold replayed bit-for-bit
  (``np.cumsum`` over float64 is a strict sequential left fold, so the
  fused prefix reproduces ``t += dt`` / ``level += stored`` exactly).

A pass ends a lane's work only where the scalar loop crosses a power
boundary.  At an event boundary a lane marks its whole run of
consecutive busy-missed events and starts the next job's inference in
the same pass; a powered-off lane's recharge run and stopping step may
wake it, and a woken lane computes in the same pass; a compute run
takes a first slice clamped at a full store in its stride (and the
one-slice transient into a saturated store's fixed point), runs at most
:data:`FUSE_HORIZON` slices and never past the job's remaining full
slices; and the loop-top test that closes the pass closes every job it
finished or ran past the deadline.  So a lane's pass ends at a shutdown,
a clamp that starts or ends saturation, a full horizon or a job's close:
city-block-1k runs 56 passes for its 3,475 scalar loop iterations.

Determinism contract
--------------------
The batched form is **bit-identical** to :func:`run_job_scalar` driven by
:meth:`Simulator._run_intermittent_event`: every ledger operation
(charge / leak / draw, the ``1e-12`` affordability epsilon, the
``min``/``max`` clamps) is replicated elementwise in the scalar operation
order, per-device trace queries reproduce ``PowerTrace._cum_at``'s
interpolation arithmetic over stacked sample/cumulative-energy rows, and
the only random draws (result difficulty and confidence entropy on a
*completed* inference) are consumed from the same per-device streams
through :class:`~repro.utils.rng.DrawBatch`.  Devices never interact, so
only the within-device operation order matters, and the micro-step loop
preserves it.

Those draws are also the only thing that differs between two episodes
of an intermittent device: storage resets, the trace and events repeat,
and no controller learns.  So the batched engine simulates episode 0
once per engine (:meth:`IntermittentFleetKernel.run_episode`) and replays
each later one (:meth:`IntermittentFleetKernel.replay_episode`): the
same completion draw, coded once in ``_completion_draws``, is taken for
every completed event in event order, and only ``correct`` / ``entropy``
are rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

#: ``miss_reason`` codes in the kernel's packed record arrays; kept equal
#: to the batched engine's codes (see ``_REASONS`` in repro.sim.batch).
REASON_NONE, REASON_BUSY, REASON_ENERGY = 0, 1, 2

#: Work below this is "done" (the scalar loop's termination epsilon).
_WORK_EPS = 1e-12

#: Logical ``intermittent.*`` profiler tallies, counted per device.  A
#: device's counts depend on its own episode alone, so a replayed episode
#: reports exactly what simulating it again would have.  The two
#: power-state transition tallies are only reported once nonzero.
_LOGICAL_TALLIES = (
    "micro_passes",
    "boundary_lanes",
    "compute_lanes",
    "recharge_lanes",
    "completed",
    "deadline_misses",
    "wake_transitions",
    "shutdown_transitions",
)

#: Micro-steps a pure-numpy fused run may commit per pass and lane: the
#: cap on a recharge run, and on a compute run, whose arrays are sized to
#: the longest remaining job below it.  Long recharge runs on the
#: profiled shapes span ~50-250 ``dt``'s between power transitions and
#: saturated compute runs go longer still; 128 is the empirical sweet
#: spot on the profiled city-block shape (64 pays too many passes, 256+
#: too much wasted tail past a run's first violation).
FUSE_HORIZON = 128


@dataclass
class IntermittentRun:
    """Outcome of one intermittent inference."""

    start_time: float
    finish_time: float
    energy_consumed_mj: float  # compute energy (the useful work)
    overhead_energy_mj: float  # checkpoint/restore energy
    power_cycles: int
    completed: bool

    @property
    def latency_s(self) -> float:
        return self.finish_time - self.start_time


def run_job_scalar(
    trace,
    mcu,
    time_step: float,
    energy_mj: float,
    t_start: float,
    storage,
    deadline: float = None,
) -> IntermittentRun:
    """Execute one job needing ``energy_mj`` of compute energy.

    Mutates ``storage`` (harvesting continues during compute and waits).
    Returns an incomplete run if ``deadline`` (default: end of trace)
    arrives first.  This is the scalar reference loop; the batched kernel
    below replicates it operation-for-operation across the device axis.
    """
    if energy_mj < 0:
        raise SimulationError("job energy cannot be negative")
    deadline = trace.duration if deadline is None else deadline
    dt = time_step
    t = t_start
    work_left = energy_mj
    consumed = 0.0
    overhead = 0.0
    cycles = 0
    shutdown_level = mcu.shutdown_threshold * storage.capacity_mj
    wakeup_level = mcu.wakeup_threshold * storage.capacity_mj
    active_power = mcu.active_power_mw
    on = storage.level_mj > shutdown_level  # can start on current charge

    while work_left > _WORK_EPS:
        if t >= deadline:
            return IntermittentRun(t_start, t, consumed, overhead, cycles, False)
        if not on:
            # Power failure: recharge until the wakeup threshold.
            storage.charge(trace.energy_between(t, t + dt))
            storage.leak(dt)
            t += dt
            if storage.level_mj >= wakeup_level:
                on = True
                cycles += 1
                # Restore checkpointed state.
                restore = min(mcu.checkpoint_energy_mj / 2, storage.level_mj)
                storage.draw(restore)
                overhead += restore
                t += mcu.checkpoint_time_s
            continue
        if cycles == 0:
            cycles = 1  # started on the initial charge, no restore cost
        # One compute step: harvest and spend simultaneously.
        step_work = min(work_left, active_power * dt)
        step_time = step_work / active_power
        storage.charge(trace.energy_between(t, t + step_time))
        storage.leak(step_time)
        if not storage.can_afford(step_work):
            step_work = max(0.0, storage.level_mj - _WORK_EPS)
        storage.draw(step_work)
        work_left -= step_work
        consumed += step_work
        t += step_time
        if work_left > _WORK_EPS and storage.level_mj <= shutdown_level:
            # Dying: checkpoint progress before the lights go out.
            save = min(mcu.checkpoint_energy_mj / 2, storage.level_mj)
            storage.draw(save)
            overhead += save
            on = False
    return IntermittentRun(t_start, t, consumed, overhead, cycles, True)


def _report_tallies(prof, tally, part) -> None:
    """Report one episode's per-device logical tallies over ``part``."""
    # The scalar-equivalent loop runs as long as its longest lane.
    steps = int(tally["micro_passes"].max(initial=0, where=part))
    prof.tally("intermittent.micro_passes", steps)
    for name in _LOGICAL_TALLIES[1:]:
        n = int(tally[name][part].sum())
        if n or not name.endswith("_transitions"):
            prof.tally(f"intermittent.{name}", n)


class IntermittentFleetKernel:
    """Lockstep multi-cycle execution for a fleet's intermittent devices.

    Construction takes the per-device environment as columns — padded
    trace sample/cumulative-energy rows, capacitor parameters, MCU
    thresholds, the fixed job (the profile's only selectable exit).
    :meth:`run_episode` then plays one whole episode (the full event
    stream) for every participating device, mutating the engine's shared
    state columns in place and returning packed per-event records.  The
    batched engine runs it once, in episode 0: a later episode repeats
    those dynamics, so :meth:`replay_episode` only takes its draws.
    """

    def __init__(
        self,
        rows,
        samples,
        cum_energy,
        n,
        dt,
        *,
        capacity,
        efficiency,
        leakage,
        mcus,
        job_exit,
        job_energy,
        job_acc,
    ):
        """One lane per engine row of ``rows``: trace rows zero-padded
        past the lane's ``n`` samples of step ``dt``, capacitor, MCU and
        the fixed job (the profile's last exit: index, energy, accuracy),
        one entry per lane."""
        self.rows = np.asarray(rows, dtype=np.int64)
        self._samples = np.asarray(samples, dtype=np.float64)
        self._cum = np.asarray(cum_energy, dtype=np.float64)
        self._n = np.asarray(n, dtype=np.int64)
        # PowerTrace.duration and total_energy_mj, from the rows.
        self._dt = np.asarray(dt, dtype=np.float64)
        self._duration = (self._n - 1) * self._dt
        self._cum_total = self._cum[np.arange(len(self._n)), self._n - 1]
        self._capacity = np.array(capacity, dtype=np.float64)
        self._efficiency = np.array(efficiency, dtype=np.float64)
        self._leakage = np.array(leakage, dtype=np.float64)
        capacity = self._capacity
        self._shutdown = np.array([m.shutdown_threshold for m in mcus]) * capacity
        self._wakeup = np.array([m.wakeup_threshold for m in mcus]) * capacity
        self._active_power = np.array([m.active_power_mw for m in mcus])
        self._ckpt_half = np.array([m.checkpoint_energy_mj / 2 for m in mcus])
        self._ckpt_time = np.array([m.checkpoint_time_s for m in mcus])
        self._job_exit = np.array(job_exit, dtype=np.int64)
        self._job_energy = np.array(job_energy, dtype=np.float64)
        self._job_acc = np.array(job_acc, dtype=np.float64)
        self._no_leak = bool((self._leakage == 0.0).all())

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------ #
    def _cum_at(self, k: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``PowerTrace._cum_at(_clip_time(t))`` over kernel rows ``k``.

        Same interpolation arithmetic bit-for-bit, including the scalar
        early-return for positions at or past the last sample.
        """
        # Every caller passes simulation times, which are never negative,
        # so the scalar's max(t, 0.0) clip is the identity here.
        tc = np.minimum(t, self._duration[k])
        pos = tc / self._dt[k]
        last = self._n[k] - 1
        past_end = pos >= last
        i = np.minimum(pos.astype(np.int64), last - 1)
        frac = pos - i
        p0 = self._samples[k, i]
        pt = (1 - frac) * p0 + frac * self._samples[k, i + 1]
        partial = self._cum[k, i] + 0.5 * (p0 + pt) * (frac * self._dt[k])
        return np.where(past_end, self._cum_total[k], partial)

    def _energy_between(self, k, t0, t1):
        """``PowerTrace.energy_between`` over kernel rows ``k``.

        Both interval endpoints are evaluated in one stacked
        :meth:`_cum_at` pass — the cumulative query is elementwise, so
        fusing halves the per-call numpy dispatch the micro-step loop
        pays, without touching any lane's arithmetic.
        """
        n = len(k)
        cum = self._cum_at(np.concatenate((k, k)), np.concatenate((t0, t1)))
        return cum[n:] - cum[:n]

    def _charge(self, k, harvested, level, charged, wasted):
        """``EnergyStorage.charge`` elementwise over kernel rows ``k``."""
        banked = harvested * self._efficiency[k]
        stored = np.minimum(banked, self._capacity[k] - level[k])
        level[k] += stored
        charged[k] += stored
        wasted[k] += banked - stored

    def _leak(self, k, elapsed, level, leaked):
        """``EnergyStorage.leak`` elementwise over kernel rows ``k``.

        Skipped outright for leak-free fleets: subtracting the exact 0.0
        the scalar path computes is the identity on non-negative levels.
        """
        if self._no_leak:
            return
        lost = np.minimum(level[k], self._leakage[k] * elapsed)
        level[k] -= lost
        leaked[k] += lost

    # ------------------------------------------------------------------ #
    def run_episode(
        self,
        part: np.ndarray,
        events: np.ndarray,
        cum_at_event: np.ndarray,
        n_events: np.ndarray,
        level: np.ndarray,
        drawn: np.ndarray,
        t_charged: np.ndarray,
        cum_charged: np.ndarray,
        busy_until: np.ndarray,
        draws,
        prof=None,
    ) -> dict:
        """Play one episode for the participating devices.

        The batched engine calls this once, for episode 0, and plays each
        later episode with :meth:`replay_episode` over the returned
        records.

        Each pass runs, for every lane that needs them: the event
        boundary (the lane's whole run of busy-missed events, then the
        charge to the next event and its job start), one recharge run
        and its stopping step, one compute run (at most
        :data:`FUSE_HORIZON` slices) and its stopping step — a lane that
        woke computes in the same pass — and the loop-top test, which
        closes every job the pass finished or ran past the deadline.  A
        lane's operations keep the scalar loop's order, so only the
        number of passes (``intermittent.kernel_passes``) depends on
        this schedule.

        ``part`` masks kernel rows; ``events`` / ``cum_at_event`` are
        ``(max_events, k)`` per-device columns; the five state columns are
        ``(k,)`` views the caller owns (mutated in place).  ``draws`` is
        the engine's :class:`~repro.utils.rng.DrawBatch`, indexed by
        *engine* rows.  Returns ``(max_events, k)`` record arrays plus the
        episode's conservation ledger (charged / leaked / wasted sums, for
        the property suite — the scalar path tracks the same totals on
        :class:`~repro.energy.storage.EnergyStorage`).

        ``prof`` is an optional :class:`~repro.obs.profiler.PhaseProfiler`
        tallying micro-step work (passes, lane counts, power-state
        transitions); it never touches ledger state or random streams, so
        results are bit-identical with or without it.  When profiling,
        the returned dict also carries the per-device logical tallies
        under ``"tallies"``, which :meth:`replay_episode` reports again.
        """
        k_total = len(self.rows)
        max_ev = events.shape[0]
        r_exit = np.full((max_ev, k_total), -1, np.int64)
        r_correct = np.zeros((max_ev, k_total), bool)
        r_latency = np.zeros((max_ev, k_total))
        r_energy = np.zeros((max_ev, k_total))
        r_entropy = np.ones((max_ev, k_total))
        r_reason = np.full((max_ev, k_total), REASON_NONE, np.int8)
        r_cycles = np.ones((max_ev, k_total), np.int64)
        charged = np.zeros(k_total)
        leaked = np.zeros(k_total)
        wasted = np.zeros(k_total)

        ev = np.zeros(k_total, np.int64)
        in_inf = np.zeros(k_total, bool)
        work = np.zeros(k_total)
        consumed = np.zeros(k_total)
        overhead = np.zeros(k_total)
        cycles = np.zeros(k_total, np.int64)
        t = np.zeros(k_total)
        start = np.zeros(k_total)
        on = np.zeros(k_total, bool)

        # Per-device tallies flushed to ``prof`` once at episode end; the
        # profiling-off path never executes a tally line.
        # ``intermittent.micro_passes`` stays the *logical* scalar-
        # equivalent count (what the pre-fusion kernel's while loop would
        # have iterated): per device it is busy boundaries + closes +
        # micro-steps, whether a step committed inside a fused run or
        # through the one-step form, and the fleet count is the max over
        # devices — so PROFILE comparisons across PRs stay meaningful.
        # ``intermittent.kernel_passes`` is the *physical* count of fused
        # passes this implementation actually ran.
        n_pass = 0
        tally = None
        if prof is not None:
            tally = {name: np.zeros(k_total, np.int64) for name in _LOGICAL_TALLIES}
            steps_log = tally["micro_passes"]
            n_bnd, n_comp = tally["boundary_lanes"], tally["compute_lanes"]
            n_rech, n_done = tally["recharge_lanes"], tally["completed"]
            n_dead = tally["deadline_misses"]

        def close(k):
            """The scalar loop-top test over in-flight lanes ``k``: close
            each finished job (completion draws, records, ledger resume),
            then each job past the deadline."""
            done = work[k] <= _WORK_EPS
            if done.any():
                ci = k[done]
                if prof is not None:
                    n_done[ci] += 1
                    steps_log[ci] += 1
                correct, entropy = self._completion_draws(ci, draws)
                e = ev[ci]
                r_exit[e, ci] = self._job_exit[ci]
                r_correct[e, ci] = correct
                r_latency[e, ci] = t[ci] - start[ci]
                r_energy[e, ci] = consumed[ci] + overhead[ci]
                r_entropy[e, ci] = entropy
                r_cycles[e, ci] = cycles[ci]
                self._close_inference(
                    ci, t, busy_until, t_charged, cum_charged, in_inf, ev
                )
                k = k[~done]
            late = t[k] >= self._duration[k]
            if late.any():
                di = k[late]
                if prof is not None:
                    n_dead[di] += 1
                    steps_log[di] += 1
                e = ev[di]
                r_reason[e, di] = REASON_ENERGY
                r_latency[e, di] = t[di] - start[di]
                r_cycles[e, di] = cycles[di]
                self._close_inference(
                    di, t, busy_until, t_charged, cum_charged, in_inf, ev
                )

        pending = part & (ev < n_events)
        while pending.any():
            if prof is not None:
                n_pass += 1
            # ---- event boundaries: busy runs, charge-to-event, job start
            bnd = pending & ~in_inf
            if bnd.any():
                go = np.nonzero(bnd)[0]
                te = events[ev[go], go]
                busy = te < busy_until[go]
                if busy.any():
                    mi = go[busy]
                    skipped = self._skip_busy(
                        mi, events, n_events, busy_until, ev, r_reason
                    )
                    if prof is not None:
                        n_bnd[mi] += skipped
                        steps_log[mi] += skipped
                    # A lane whose run of busy events ended before its
                    # last event starts that event's job now.
                    go = np.concatenate((go[~busy], mi[ev[mi] < n_events[mi]]))
                    te = events[ev[go], go]
                if go.size:
                    if prof is not None:
                        n_bnd[go] += 1
                    ce = cum_at_event[ev[go], go]
                    charging = te > t_charged[go]
                    if charging.any():
                        cg = go[charging]
                        inc = np.maximum(ce[charging] - cum_charged[cg], 0.0)
                        self._charge(cg, inc, level, charged, wasted)
                        if not self._no_leak:
                            self._leak(
                                cg,
                                te[charging] - t_charged[cg],
                                level,
                                leaked,
                            )
                        t_charged[cg] = te[charging]
                        cum_charged[cg] = ce[charging]
                    work[go] = self._job_energy[go]
                    consumed[go] = 0.0
                    overhead[go] = 0.0
                    cycles[go] = 0
                    t[go] = te
                    start[go] = te
                    on[go] = level[go] > self._shutdown[go]
                    in_inf[go] = True
                    # Loop-top test first, like the scalar while.
                    close(go)
            # ---- one multi-cycle loop iteration for in-flight inferences,
            # then the next loop-top test, which closes the jobs it ended.
            run = np.nonzero(in_inf)[0]
            if run.size:
                off = run[~on[run]]
                if off.size:
                    # Fused run: commit every consecutive recharge dt that
                    # cannot wake, clamp, or cross the deadline, then take
                    # the stopping step (wake / clamp handling) through
                    # the one-step form.
                    j_off = self._advance_recharge(off, level, t, charged, leaked)
                    if prof is not None:
                        n_rech[off] += j_off
                        steps_log[off] += j_off
                    ps = off[t[off] < self._duration[off]]
                    if ps.size:
                        if prof is not None:
                            n_rech[ps] += 1
                            steps_log[ps] += 1
                        self._recharge_step(
                            ps,
                            level,
                            drawn,
                            t,
                            on,
                            cycles,
                            overhead,
                            charged,
                            leaked,
                            wasted,
                            tally=tally,
                        )
                # A lane that just woke computes in the same pass.
                comp = run[on[run]]
                if comp.size:
                    # Same shape for compute slices: the fused run stops
                    # before any partial slice, affordability clamp, or
                    # shutdown checkpoint.
                    j_comp = self._advance_compute(
                        comp,
                        level,
                        drawn,
                        t,
                        cycles,
                        work,
                        consumed,
                        charged,
                        leaked,
                        wasted,
                    )
                    if prof is not None:
                        n_comp[comp] += j_comp
                        steps_log[comp] += j_comp
                    cs = comp[
                        (work[comp] > _WORK_EPS) & (t[comp] < self._duration[comp])
                    ]
                    if cs.size:
                        if prof is not None:
                            n_comp[cs] += 1
                            steps_log[cs] += 1
                        self._compute_step(
                            cs,
                            level,
                            drawn,
                            t,
                            on,
                            cycles,
                            work,
                            consumed,
                            overhead,
                            charged,
                            leaked,
                            wasted,
                            tally=tally,
                        )
                close(run)
            pending = part & (in_inf | (ev < n_events))
        rec = {
            "exit": r_exit,
            "correct": r_correct,
            "latency": r_latency,
            "energy": r_energy,
            "entropy": r_entropy,
            "reason": r_reason,
            "cycles": r_cycles,
            "charged": charged,
            "leaked": leaked,
            "wasted": wasted,
        }
        if prof is not None:
            prof.tally("intermittent.kernel_passes", n_pass)
            _report_tallies(prof, tally, part)
            rec["tallies"] = tally
        return rec

    def replay_episode(self, part, rec, draws, prof=None) -> None:
        """Replay the episode ``rec`` for the participating devices.

        Every episode resets storage and plays the same trace and events,
        and an intermittent device has no controller to learn, so its
        dynamics repeat exactly: every record but ``correct`` /
        ``entropy``, and every state column, is what :meth:`run_episode`
        produced in ``rec``.  Only the random streams move on.  For each
        event that completed, in event order, this takes the completion
        draw from ``draws`` and rewrites that event's ``correct`` /
        ``entropy`` in ``rec``, in place.  Each device's stream is then
        consumed exactly as simulating the episode again would consume
        it.

        ``prof`` must be profiling (or not) as it was for the
        :meth:`run_episode` that made ``rec``.  It reports the logical
        tallies again, since the replayed episode did complete that work,
        plus ``intermittent.replayed_episodes``; it never adds
        ``intermittent.kernel_passes``, since no kernel pass ran.
        """
        cols = np.nonzero(part)[0]
        # A completed event has an exit; a missed one keeps -1.
        dev, ev = np.nonzero((rec["exit"][:, cols] >= 0).T)
        # Rank each completion within its device; one draw per rank
        # then serves every device's next completion at once.
        per_dev = np.bincount(dev, minlength=cols.size)
        rank = np.arange(dev.size) - np.repeat(np.cumsum(per_dev) - per_dev, per_dev)
        order = np.argsort(rank, kind="stable")
        start = 0
        for end in np.cumsum(np.bincount(rank)).tolist():
            sel = order[start:end]
            ci, e = cols[dev[sel]], ev[sel]
            correct, entropy = self._completion_draws(ci, draws)
            rec["correct"][e, ci] = correct
            rec["entropy"][e, ci] = entropy
            start = end
        if prof is not None:
            _report_tallies(prof, rec["tallies"], part)
            prof.tally("intermittent.replayed_episodes", int(cols.size))

    def _completion_draws(self, ci, draws):
        """``(correct, entropy)`` for inferences completing on kernel rows
        ``ci``: a result difficulty, then a Beta(2, 8) confidence entropy
        if the job's accuracy beats it, else Beta(5, 3) — the scalar
        simulator's draw order."""
        er = self.rows[ci]
        difficulty = draws.random(er)
        correct = difficulty < self._job_acc[ci]
        entropy = np.empty(len(ci))
        if correct.any():
            entropy[correct] = draws.beta(2.0, 8.0, er[correct])
        wrong = ~correct
        if wrong.any():
            entropy[wrong] = draws.beta(5.0, 3.0, er[wrong])
        return correct, entropy

    # ------------------------------------------------------------------ #
    @staticmethod
    def _skip_busy(mi, events, n_events, busy_until, ev, r_reason) -> np.ndarray:
        """Mark each lane's run of consecutive busy-missed events.

        Lanes ``mi`` are at an event that arrives while the device is still
        busy.  Each lane's run reaches up to its first event at or after
        ``busy_until`` (or its last event); every event of the run is
        recorded as a busy miss and ``ev`` moves past it.  Windows of
        each lane's next events double in width, so a run of ``r`` events
        costs about ``log2(r)`` scans.  Returns the run lengths.
        """
        skipped = np.zeros(mi.size, np.int64)
        last = events.shape[0] - 1
        lanes = np.arange(mi.size)
        width = 2
        while lanes.size:
            k = mi[lanes]
            at = ev[k][:, None] + np.arange(width)
            busy = at < n_events[k][:, None]
            busy &= events[np.minimum(at, last), k[:, None]] < busy_until[k][:, None]
            run = np.where(busy.all(axis=1), width, busy.argmin(axis=1))
            row, col = np.nonzero(np.arange(width) < run[:, None])
            r_reason[at[row, col], k[row]] = REASON_BUSY
            ev[k] += run
            skipped[lanes] += run
            lanes = lanes[run == width]
            width *= 2
        return skipped

    def _close_inference(
        self, k, t, busy_until, t_charged, cum_charged, in_inf, ev
    ) -> None:
        """Inference over (completed or deadline): resume the ledger at
        the finish time, exactly like the scalar simulator does."""
        busy_until[k] = t[k]
        t_charged[k] = t[k]
        cum_charged[k] = self._cum_at(k, t[k])
        in_inf[k] = False
        ev[k] += 1

    # ------------------------------------------------------------------ #
    # Fused multi-step runs.
    #
    # ``np.cumsum`` over a float64 row is a strict sequential left fold,
    # so a committed chain value is bit-for-bit the scalar accumulator
    # (``t += dt``, ``level += stored``, ``work -= step_work``) after the
    # same number of iterations; ``x + (-w)`` is IEEE-identical to
    # ``x - w``.  A chain is only committed up to (excluding) the first
    # step where any scalar clamp or transition would fire — capacity
    # ``min``, leak ``min``, the 1e-12 affordability epsilon / ``max(0)``
    # draw guard, wake/shutdown threshold crossings, partial compute
    # slices, the loop-top deadline check — and that stopping step then
    # runs through the verified one-step form, which guarantees progress
    # even when a run fuses zero steps.
    # ------------------------------------------------------------------ #
    def _advance_recharge(self, off, level, t, charged, leaked) -> np.ndarray:
        """Commit each powered-off lane's boring recharge prefix.

        Mutates ``level`` / ``t`` / ``charged`` / ``leaked`` in place and
        returns the per-lane number of committed micro-steps (int64).  A
        run stops at any capacity clamp, so a committed step banks
        everything and never touches ``wasted``.  ``drawn`` /
        ``overhead`` are untouched too: recharge draws nothing until the
        wake step, which always runs through the one-step form.
        """
        horizon = FUSE_HORIZON
        n = off.size
        dt = self._dt[off]
        tch = np.empty((n, horizon + 1))
        tch[:, 0] = t[off]
        tch[:, 1:] = dt[:, None]
        np.cumsum(tch, axis=1, out=tch)
        cum = self._cum_at(
            np.repeat(off, horizon + 1), tch.ravel()
        ).reshape(n, horizon + 1)
        banked = (cum[:, 1:] - cum[:, :-1]) * self._efficiency[off, None]
        lost = (self._leakage[off] * dt)[:, None]
        # Interleaved level chain [l0, +banked_1, -lost, +banked_2, ...]:
        # odd columns are post-charge, even columns post-leak states.
        chain = np.empty((n, 2 * horizon + 1))
        chain[:, 0] = level[off]
        chain[:, 1::2] = banked
        chain[:, 2::2] = -lost
        np.cumsum(chain, axis=1, out=chain)
        post_charge = chain[:, 1::2]
        post_leak = chain[:, 2::2]
        prev = chain[:, 0:-1:2]  # post-leak level entering each step
        viol = banked > self._capacity[off, None] - prev  # capacity clamp
        viol |= post_charge < lost  # leak min() clamp (empty store)
        viol |= post_leak >= self._wakeup[off, None]  # wake transition
        viol |= tch[:, :-1] >= self._duration[off, None]  # deadline check
        j = np.where(viol.any(axis=1), viol.argmax(axis=1), horizon)
        lanes = np.arange(n)
        level[off] = chain[lanes, 2 * j]
        t[off] = tch[lanes, j]
        # Charged + leaked ledgers share one stacked cumsum dispatch; the
        # leaked row is dropped entirely for leak-free fleets.
        rows = n if self._no_leak else 2 * n
        led = np.empty((rows, horizon + 1))
        led[:n, 0] = charged[off]
        led[:n, 1:] = banked
        if not self._no_leak:
            led[n:, 0] = leaked[off]
            led[n:, 1:] = lost
        np.cumsum(led, axis=1, out=led)
        charged[off] = led[lanes, j]
        if not self._no_leak:
            leaked[off] = led[n + lanes, j]
        return j

    def _advance_compute(
        self, comp, level, drawn, t, cycles, work, consumed, charged,
        leaked, wasted
    ) -> np.ndarray:
        """Commit each powered-on lane's boring full-slice prefix.

        Mutates the state columns in place and returns committed
        micro-steps per lane.  ``overhead`` is untouched: a boring slice
        never checkpoints.  A run is at most :data:`FUSE_HORIZON` slices
        and never longer than the longest job's remaining full slices
        (plus the partial slice that stops it), so the arrays are sized
        to the work left.  Two fusable regimes exist:

        * **free** — the capacity ``min`` clamps on the first slice at
          most (a job that starts on a full store), so the level is a
          plain interleaved cumsum chain and only that slice wastes;
        * **saturated** — harvest outpaces draw and *every* charge
          clamps.  The post-draw level reaches an exact bitwise fixed
          point ``L`` where each step stores ``room = capacity - L``,
          leaks ``l``, draws a full slice, and lands back on ``L`` — all
          per-lane constants, so the ledgers are cumsum chains of
          constants (``wasted`` gets the varying ``banked - room``) and
          the level provably never moves.  The run's first slice may be
          the one-slice transient into ``L`` (a lane entering saturation
          from below lands a rounding step away from it), stored with
          its own room.  Without this regime a saturated device pays one
          kernel pass per micro-step and re-serializes the whole fleet.
        """
        fresh = comp[cycles[comp] == 0]
        if fresh.size:
            cycles[fresh] = 1  # started on the initial charge, no restore
        n = comp.size
        step_work = self._active_power[comp] * self._dt[comp]
        step_time = step_work / self._active_power[comp]
        horizon = int(min(FUSE_HORIZON - 1, (work[comp] / step_work).max())) + 1
        sw = step_work[:, None]
        # Time + remaining-work chains share one stacked cumsum dispatch.
        tw = np.empty((2 * n, horizon + 1))
        tw[:n, 0] = t[comp]
        tw[:n, 1:] = step_time[:, None]
        tw[n:, 0] = work[comp]
        tw[n:, 1:] = -sw
        np.cumsum(tw, axis=1, out=tw)
        tch = tw[:n]
        wch = tw[n:]
        cum = self._cum_at(
            np.repeat(comp, horizon + 1), tch.ravel()
        ).reshape(n, horizon + 1)
        banked = (cum[:, 1:] - cum[:, :-1]) * self._efficiency[comp, None]
        lost = (self._leakage[comp] * step_time)[:, None]
        lvl0 = level[comp]
        room0 = self._capacity[comp] - lvl0
        # The first slice stores what the scalar ``min`` lets it, so a job
        # starting on a full store runs on past its clamped first slice.
        stored = banked.copy()
        stored[:, 0] = np.minimum(banked[:, 0], room0)
        # Free-regime level chain with three slots per step.
        chain = np.empty((n, 3 * horizon + 1))
        chain[:, 0] = lvl0
        chain[:, 1::3] = stored
        chain[:, 2::3] = -lost
        chain[:, 3::3] = -sw
        np.cumsum(chain, axis=1, out=chain)
        post_charge = chain[:, 1::3]
        post_leak = chain[:, 2::3]
        post_draw = chain[:, 3::3]
        prev = chain[:, 0:-1:3]  # post-draw level entering each step
        late = tch[:, :-1] >= self._duration[comp, None]  # deadline check
        partial = wch[:, :-1] < sw  # partial (or finished) slice
        viol = banked > self._capacity[comp, None] - prev  # capacity clamp
        viol[:, 0] = False  # the first slice's clamp is exact
        viol |= partial | late
        viol |= post_charge < lost  # leak min() clamp
        viol |= post_leak < sw  # affordability epsilon / max(0) draw guard
        viol |= (wch[:, 1:] > _WORK_EPS) & (
            post_draw <= self._shutdown[comp, None]
        )  # shutdown transition
        j = np.where(viol.any(axis=1), viol.argmax(axis=1), horizon)
        # Saturated regime: replay one clamped scalar step from the
        # entering level to ``L``, and a second from ``L``; a lane whose
        # second step lands exactly back on ``L`` fuses on constants from
        # its first slice on.
        l1 = lost[:, 0]
        charge0 = lvl0 + room0
        fixed = charge0 - l1 - step_work
        room = self._capacity[comp] - fixed
        charge1 = fixed + room
        fp = (banked[:, 0] > room0) & (charge0 >= l1) & (charge0 - l1 >= step_work)
        fp &= (charge1 >= l1) & (charge1 - l1 >= step_work)
        fp &= charge1 - l1 - step_work == fixed
        sat = fp
        if fp.any():
            release = banked < room[:, None]  # clamp releases: regime ends
            release[:, 0] = False  # the first slice clamps (``fp``)
            sviol = partial | late | release
            sviol |= (wch[:, 1:] > _WORK_EPS) & (
                fixed <= self._shutdown[comp]
            )[:, None]  # shutdown at the fixed point
            j_sat = np.where(sviol.any(axis=1), sviol.argmax(axis=1), horizon)
            # A lane takes whichever regime commits more; past its first
            # slice a saturated lane stores ``room``.
            sat = fp & (j_sat > j)
            stored[sat, 1:] = room[sat, None]
            j = np.where(sat, j_sat, j)
        lanes = np.arange(n)
        level[comp] = np.where(sat, fixed, chain[lanes, 3 * j])
        t[comp] = tch[lanes, j]
        work[comp] = wch[lanes, j]
        # Four or five ledgers, one stacked cumsum: drawn/consumed add the
        # full slice, charged the stored energy, wasted the clamped-off
        # ``banked - stored`` (exactly 0.0 on an unclamped slice, as in
        # the scalar ledger), and leaked (when the fleet leaks at all) the
        # constant loss.
        m = 4 + (not self._no_leak)
        led = np.empty((m * n, horizon + 1))
        led[:n, 0] = drawn[comp]
        led[:n, 1:] = sw
        led[n:2 * n, 0] = consumed[comp]
        led[n:2 * n, 1:] = sw
        led[2 * n:3 * n, 0] = charged[comp]
        led[2 * n:3 * n, 1:] = stored
        led[3 * n:4 * n, 0] = wasted[comp]
        np.subtract(banked, stored, out=led[3 * n:4 * n, 1:])
        if not self._no_leak:
            led[4 * n:, 0] = leaked[comp]
            led[4 * n:, 1:] = lost
        np.cumsum(led, axis=1, out=led)
        drawn[comp] = led[lanes, j]
        consumed[comp] = led[n + lanes, j]
        charged[comp] = led[2 * n + lanes, j]
        wasted[comp] = led[3 * n + lanes, j]
        if not self._no_leak:
            leaked[comp] = led[4 * n + lanes, j]
        return j

    def _recharge_step(
        self,
        off,
        level,
        drawn,
        t,
        on,
        cycles,
        overhead,
        charged,
        leaked,
        wasted,
        tally=None,
    ) -> None:
        """One powered-off ``dt``: harvest, leak, maybe wake + restore."""
        h = self._energy_between(off, t[off], t[off] + self._dt[off])
        self._charge(off, h, level, charged, wasted)
        self._leak(off, self._dt[off], level, leaked)
        t[off] += self._dt[off]
        wake = off[level[off] >= self._wakeup[off]]
        if wake.size:
            if tally is not None:
                tally["wake_transitions"][wake] += 1
            on[wake] = True
            cycles[wake] += 1
            restore = np.minimum(self._ckpt_half[wake], level[wake])
            level[wake] = np.maximum(0.0, level[wake] - restore)
            drawn[wake] += restore
            overhead[wake] += restore
            t[wake] += self._ckpt_time[wake]

    def _compute_step(
        self,
        comp,
        level,
        drawn,
        t,
        on,
        cycles,
        work,
        consumed,
        overhead,
        charged,
        leaked,
        wasted,
        tally=None,
    ) -> None:
        """One powered-on compute slice: harvest while spending, then
        checkpoint and power down if the charge dipped to shutdown."""
        fresh = comp[cycles[comp] == 0]
        if fresh.size:
            cycles[fresh] = 1  # started on the initial charge, no restore
        step_work = np.minimum(work[comp], self._active_power[comp] * self._dt[comp])
        step_time = step_work / self._active_power[comp]
        h = self._energy_between(comp, t[comp], t[comp] + step_time)
        self._charge(comp, h, level, charged, wasted)
        self._leak(comp, step_time, level, leaked)
        short = ~(level[comp] >= step_work - _WORK_EPS)
        if short.any():
            step_work = np.where(
                short, np.maximum(0.0, level[comp] - _WORK_EPS), step_work
            )
        level[comp] = np.maximum(0.0, level[comp] - step_work)
        drawn[comp] += step_work
        work[comp] -= step_work
        consumed[comp] += step_work
        t[comp] += step_time
        dying = comp[(work[comp] > _WORK_EPS) & (level[comp] <= self._shutdown[comp])]
        if dying.size:
            if tally is not None:
                tally["shutdown_transitions"][dying] += 1
            save = np.minimum(self._ckpt_half[dying], level[dying])
            level[dying] = np.maximum(0.0, level[dying] - save)
            drawn[dying] += save
            overhead[dying] += save
            on[dying] = False
