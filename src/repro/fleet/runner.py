"""Fleet execution on the lockstep batched engine.

Every fleet runs through :class:`~repro.sim.batch.BatchedFleetEngine`:
one engine over the whole fleet when serial, one engine per *chunk* of
devices when a worker pool maps chunks (results come home as sealed
packed columns, see :mod:`repro.fleet.results`) instead of one IPC
round-trip per device.  A parallel request falls back to serial outright
when the fleet is too small — or the machine too narrow — for process
parallelism to pay for its dispatch: the measured regression this
replaces had a 32-device pool running ~0.7x serial speed.

:func:`run_device` is the scalar oracle: it materializes one
:class:`~repro.fleet.spec.DeviceSpec` with
:func:`repro.sim.devices.materialize` (the engine's own device build),
replays its episodes through the event-driven
:class:`~repro.sim.simulator.Simulator`, and returns a compact
:class:`~repro.sim.results.DeviceResult`.  No fleet executes through it;
the tests hold the engine to its results bit for bit.

Determinism: every device derives its random streams from
``SeedSequence(fleet_seed, spawn_key=(device_index,))``, computable
independently inside any worker (see :mod:`repro.sim.devices`).  The
engine consumes those streams in the oracle's per-device order
(bit-identity is enforced against ``tests/golden/``), so results do not
depend on the worker count, dispatch order, or chunking — which is what
makes ``--workers 4`` bit-identical to the serial fallback.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import struct
import threading
import time
from collections import deque
from typing import Optional

from repro.errors import ConfigError, InjectedFault, IntegrityError
from repro.faults.injector import get_fault_injector
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.fleet.results import (
    DeviceColumns,
    DeviceFailure,
    DeviceResult,
    FleetResult,
    record_outcome_metrics,
    seal_payload,
    verify_payload,
)
from repro.fleet.spec import FleetSpec
from repro.obs.recorder import Recorder, get_recorder, set_recorder
from repro.obs.tracing import span
from repro.sim.batch import BatchedFleetEngine

# The spec builders live in repro.sim.devices; they stay importable from
# here, where tests and perfbench's layer spans address them by name.
from repro.sim.devices import (
    build_controller as build_controller,
    build_events as build_events,
    build_mcu as build_mcu,
    build_storage as build_storage,
    build_trace as build_trace,
    device_seeds,
    harvest_percentiles,
    materialize,
    resolve_profile as resolve_profile,
)
from repro.sim.simulator import Simulator, SimulatorConfig

#: Below this many devices a parallel run falls back to serial: per-device
#: work is a few milliseconds, so pool dispatch + result pickling swamps
#: the compute and the pool runs *slower* than the serial loop (the PR-2
#: benches measured a 32-device pool at ~0.7x serial throughput).
MIN_PARALLEL_DEVICES = 16


def run_device(task) -> DeviceResult:
    """Simulate one device through the scalar oracle.

    ``task`` is ``(index, DeviceSpec, fleet_seed)``.  One
    :class:`~repro.sim.simulator.Simulator` replays every episode; the
    batched engine must reproduce the result bit for bit.
    """
    index, spec, fleet_seed = task
    t0 = time.perf_counter()
    seeds = device_seeds(index, fleet_seed)
    device = materialize(spec, seeds, build_trace(spec.trace, seeds[0]))
    sim = Simulator(
        device.trace,
        device.profile,
        device.controller,
        mcu=device.mcu,
        storage=device.storage,
        config=SimulatorConfig(
            mode="profile",
            execution=spec.execution,
            power_window_s=spec.power_window_s,
            seed=device.sim_seed,
        ),
    )
    result = None
    for _ in range(spec.episodes):
        result = sim.run(device.events)
    return DeviceResult.from_simulation(
        index,
        spec.name,
        result,
        device.profile,
        harvest_percentiles=harvest_percentiles([device.trace])[0],
        episodes=spec.episodes,
        wall_s=time.perf_counter() - t0,
    )


def _apply_worker_faults(ops, in_worker: bool) -> None:
    """Apply pre-execution fault directives (decided parent-side).

    ``in_worker`` distinguishes a pool child (where a crash really exits
    the process and a hang really sleeps, exercising the watchdog) from
    serial in-process dispatch (where both map to raised
    :class:`InjectedFault`s the retry loop handles — the parent process
    must never kill or block itself).
    """
    for op in ops:
        kind = op["op"]
        if kind == "crash":
            if in_worker:
                os._exit(int(op.get("exit_code", 70)))
            raise InjectedFault("injected worker crash (serial dispatch)")
        if kind == "exception":
            raise InjectedFault("injected worker exception")
        if kind == "oserror":
            raise OSError("injected transient OSError")
        if kind == "hang":
            if in_worker:
                # A straggler: sleep past the watchdog, then finish
                # normally so the parent can verify the late payload is
                # bit-identical to the accepted re-execution.
                time.sleep(float(op.get("seconds", 1.0)))
            else:
                raise InjectedFault("injected hang (serial dispatch)")
        # "corrupt_payload" is applied after sealing, not here.


def _sealed_chunk(tasks, ops) -> dict:
    """Run one chunk and seal its packed results for the wire.

    ``corrupt_payload`` directives then flip bits in the sealed body, as
    a damaged wire would, so :func:`verify_payload` must catch them.
    """
    body = seal_payload(BatchedFleetEngine(tasks).run().packed)
    for op in ops:
        if op["op"] != "corrupt_payload":
            continue
        column = body["iepmj"]
        (bits,) = struct.unpack("<Q", struct.pack("<d", column[0]))
        (column[0],) = struct.unpack("<d", struct.pack("<Q", bits ^ 0xFF))
    return body


def _run_chunk_packed(args) -> tuple:
    """Worker entry for chunked dispatch: ``(sealed body, obs wire)``.

    ``obs`` is ``None`` when the parent had observability off (and the
    wire is ``None`` too); otherwise a small flags dict.  The worker
    never writes to the parent's sinks (a fork-inherited recorder would
    share the trace file descriptor): it scopes a *fresh*
    metrics(+profiler) recorder around the batch and ships its wire
    snapshot home beside the sealed body, to be merged parent-side in
    dispatch order once the body is accepted.

    ``ops`` are the chaos directives the parent's fault injector decided
    for this attempt (empty in production).
    """
    tasks, obs, ops = args
    if ops:
        _apply_worker_faults(ops, in_worker=True)
    if obs is None:
        return _sealed_chunk(tasks, ops), None
    recorder = Recorder(metrics=True, profile=bool(obs.get("profile")))
    previous = set_recorder(recorder)
    try:
        body = _sealed_chunk(tasks, ops)
    finally:
        set_recorder(previous)
        recorder.close()
    wire = {"metrics": recorder.metrics.to_wire()}
    if recorder.profiler is not None:
        wire["profiler"] = recorder.profiler.to_wire()
    return body, wire


def _run_chunk_inline(tasks, ops) -> DeviceColumns:
    """Run one chunk in the calling process under fault directives.

    The production serial path never comes here (it runs the engine
    directly, paying nothing); this is the chaos-armed serial dispatch
    and the dispatcher's last-resort in-parent attempt.  With directives
    present the chunk goes through the same pack → seal → (corrupt) →
    verify wire cycle a pooled chunk would, so payload-corruption faults
    are exercisable serially too.
    """
    if not ops:
        return BatchedFleetEngine(tasks).run()
    _apply_worker_faults(ops, in_worker=False)
    packed, _ = verify_payload(_sealed_chunk(tasks, ops))
    return DeviceColumns(packed)


def _merge_worker_obs(rec, wires) -> None:
    """Fold worker obs snapshots into the active recorder, in dispatch
    order (which makes histogram splicing deterministic — see
    :mod:`repro.obs.metrics`)."""
    for wire in wires:
        if rec.metrics is not None and "metrics" in wire:
            rec.metrics.merge_wire(wire["metrics"])
        if rec.profiler is not None and "profiler" in wire:
            rec.profiler.merge_wire(wire["profiler"])


class _ChunkJob:
    """One unit of fault-tolerant dispatch: a chunk at a ladder stage."""

    __slots__ = ("order", "tasks", "attempts", "stage", "not_before")

    def __init__(self, order, tasks, stage="chunk"):
        self.order = order  # tuple; sorts to original submission order
        self.tasks = tasks
        self.attempts = 0  # completed (failed) attempts at this stage
        self.stage = stage  # "chunk" | "device" (post-split) | "serial"
        self.not_before = 0.0  # monotonic deadline gating the next attempt

    def indices(self):
        return tuple(t[0] for t in self.tasks)


class _FaultTolerantDispatch:
    """Executes chunk jobs with retries, a straggler watchdog, chunk
    splitting, and per-device quarantine.

    The recovery ladder per job: up to ``max_retries`` retries with
    exponential backoff at the current stage; an exhausted multi-device
    chunk splits into single-device chunks (a faulting chunk never takes
    its neighbours down); an exhausted single device gets one last
    attempt in the parent process; only then is it quarantined as a
    :class:`~repro.fleet.results.DeviceFailure`.  Spec problems
    (:class:`ConfigError`) are never retried — they would fail
    identically forever and belong to the caller.

    Retried work is deterministic by construction (per-device
    ``SeedSequence`` streams), and the dispatcher *asserts* it: every
    pooled chunk arrives sealed by :mod:`repro.store`, and a straggler
    that completes after its replacement must match the accepted digest
    bit-for-bit or the run fails with :class:`IntegrityError`.

    Accepted chunks stay packed: whole chunks, split devices and
    serial-rung devices are kept as :class:`DeviceColumns` parts and
    joined in device order once, without unpacking any.
    """

    POLL_S = 0.005

    def __init__(self, policy: RetryPolicy, pool=None):
        self.policy = policy
        self.pool = pool
        self.injector = get_fault_injector()
        self.rec = get_recorder()
        self.metrics = self.rec.metrics
        self.parts: list = []  # (job order, DeviceColumns) of accepted jobs
        self.failures: list = []  # DeviceFailure
        self._obs_wires: list = []  # (job order, wire) of accepted chunks
        self._accepted_digests: dict = {}  # device-index tuple -> digest
        self._stragglers: list = []  # (job, AsyncResult) timed-out attempts

    # ------------------------------------------------------------------ #
    # Entry
    # ------------------------------------------------------------------ #
    def run(self, chunks) -> tuple:
        """Execute ``chunks``; returns ``(DeviceColumns, failures)``, the
        accepted devices joined in device order."""
        jobs = deque(_ChunkJob((i,), chunk) for i, chunk in enumerate(chunks))
        if self.pool is None:
            self._run_serial(jobs)
        else:
            self._run_pooled(jobs)
        if self._obs_wires:
            self._obs_wires.sort(key=lambda item: item[0])
            _merge_worker_obs(self.rec, [wire for _, wire in self._obs_wires])
        self.failures.sort(key=lambda f: f.index)
        # Chunks are contiguous and a split job's order extends its
        # parent's, so job order is device order.
        self.parts.sort(key=lambda item: item[0])
        return DeviceColumns.join(part for _, part in self.parts), self.failures

    def _inc(self, name: str, n=1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, n)

    def _poll_ops(self):
        if not self.injector.enabled:
            return ()
        return tuple(f.directive() for f in self.injector.poll("fleet.chunk"))

    # ------------------------------------------------------------------ #
    # Serial dispatch (chaos-armed; the production serial path bypasses
    # the dispatcher entirely)
    # ------------------------------------------------------------------ #
    def _run_serial(self, jobs) -> None:
        while jobs:
            job = jobs.popleft()
            delay = job.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            ops = self._poll_ops()
            try:
                accepted = _run_chunk_inline(job.tasks, ops)
            except ConfigError:
                raise
            except Exception as exc:
                self._on_failure(job, exc, jobs)
                continue
            self._accept_devices(job, accepted)

    # ------------------------------------------------------------------ #
    # Pooled dispatch
    # ------------------------------------------------------------------ #
    def _run_pooled(self, jobs) -> None:
        obs = None
        if self.rec.enabled:
            obs = {"profile": self.rec.profiler is not None}
        timeout = self.policy.effective_timeout(self.injector.enabled)
        live: list = []  # [job, AsyncResult, deadline or None]
        while jobs or live:
            now = time.monotonic()
            held = deque()
            while jobs:
                job = jobs.popleft()
                if job.not_before > now:
                    held.append(job)
                    continue
                ops = self._poll_ops()
                handle = self.pool.apply_async(
                    _run_chunk_packed, ((job.tasks, obs, ops),)
                )
                deadline = None if timeout is None else now + timeout
                live.append([job, handle, deadline])
            jobs.extend(held)
            progressed = False
            for entry in list(live):
                job, handle, deadline = entry
                if handle.ready():
                    live.remove(entry)
                    progressed = True
                    try:
                        body, wire = handle.get()
                        packed, digest = verify_payload(body)
                    except ConfigError:
                        raise
                    except Exception as exc:
                        self._on_failure(job, exc, jobs)
                    else:
                        self._accept_payload(job, packed, digest, wire)
                elif deadline is not None and now >= deadline:
                    live.remove(entry)
                    progressed = True
                    self._stragglers.append((job, handle))
                    self._inc("fleet.retry.timeouts")
                    self._on_failure(
                        job,
                        TimeoutError(
                            f"chunk attempt exceeded worker_timeout={timeout:.3g}s"
                        ),
                        jobs,
                    )
            if not progressed and (jobs or live):
                time.sleep(self.POLL_S)
        self._reap_stragglers()

    # ------------------------------------------------------------------ #
    # Acceptance
    # ------------------------------------------------------------------ #
    def _accept_devices(self, job, columns) -> None:
        self.parts.append((job.order, columns))

    def _accept_payload(self, job, packed: dict, digest: str, wire) -> None:
        if wire:
            self._obs_wires.append((job.order, wire))
        self._accepted_digests[job.indices()] = digest
        self._accept_devices(job, DeviceColumns(packed))

    # ------------------------------------------------------------------ #
    # The recovery ladder
    # ------------------------------------------------------------------ #
    def _on_failure(self, job, exc, jobs) -> None:
        job.attempts += 1
        self._inc("fleet.retry.failures")
        if job.attempts <= self.policy.max_retries:
            backoff = self.policy.backoff(job.attempts - 1)
            job.not_before = time.monotonic() + backoff
            self._inc("fleet.retry.attempts")
            if self.metrics is not None:
                self.metrics.observe("fleet.retry.backoff_s", backoff)
            jobs.append(job)
            return
        if len(job.tasks) > 1:
            # Split into single-device chunks so one faulting device
            # cannot poison the whole chunk.
            self._inc("fleet.retry.splits")
            for position, task in enumerate(job.tasks):
                jobs.append(_ChunkJob(job.order + (position,), [task], "device"))
            return
        if job.stage != "serial":
            self._final_serial_attempt(job, jobs)
            return
        self._quarantine(job, exc)

    def _final_serial_attempt(self, job, jobs) -> None:
        """Last rung before quarantine: run the device in the parent.

        Survives a broken/poisoned pool outright, and still polls the
        injector, so a chaos plan hostile enough to exhaust it proves
        quarantine works.
        """
        job.stage = "serial"
        self._inc("fleet.retry.serial_attempts")
        ops = self._poll_ops()
        try:
            accepted = _run_chunk_inline(job.tasks, ops)
        except ConfigError:
            raise
        except Exception as exc:
            self._quarantine(job, exc)
            return
        self._accept_devices(job, accepted)

    def _quarantine(self, job, exc) -> None:
        index, spec, _ = job.tasks[0]
        self.failures.append(
            DeviceFailure(
                index=int(index),
                name=spec.name,
                error=f"{type(exc).__name__}: {exc}",
                attempts=job.attempts,
                stage=job.stage,
            )
        )
        self._inc("fleet.devices.quarantined")

    # ------------------------------------------------------------------ #
    # Straggler verification
    # ------------------------------------------------------------------ #
    def _reap_stragglers(self) -> None:
        """Check timed-out attempts that completed after re-dispatch.

        Re-execution is bit-identical by construction, so a straggler's
        sealed body must equal the accepted one — comparing the two seal
        digests is the cheapest end-to-end determinism assert we can run
        in production.  A straggler's obs wire is dropped unread.
        Stragglers that never surface within the grace window are
        abandoned (the pool teardown reclaims their workers).
        """
        if not self._stragglers:
            return
        deadline = time.monotonic() + self.policy.straggler_grace_s
        while time.monotonic() < deadline and any(
            not handle.ready() for _, handle in self._stragglers
        ):
            time.sleep(self.POLL_S)
        abandoned = 0
        for job, handle in self._stragglers:
            if not handle.ready():
                abandoned += 1
                self._inc("fleet.straggler.abandoned")
                self._discard(handle)
                continue
            try:
                body, _ = handle.get()
                _, digest = verify_payload(body)
            except Exception:
                self._inc("fleet.straggler.failed")
                continue
            expected = self._accepted_digests.get(job.indices())
            if expected is None:
                # The re-execution was split into single-device
                # chunks; there is no whole-chunk digest to compare.
                self._inc("fleet.straggler.unmatched")
            elif digest == expected:
                self._inc("fleet.straggler.verified")
            else:
                raise IntegrityError(
                    f"straggler re-execution diverged for devices "
                    f"{job.indices()}: a retried chunk must be bit-identical "
                    "to the accepted one (determinism violation)"
                )
        if abandoned:
            self._recycle_pool()

    def _recycle_pool(self) -> None:
        """Terminate a pool that swallowed work without returning it.

        An abandoned straggler means a worker is wedged or dead — and a
        SIGKILL'd worker can take the pool's shared task-queue lock down
        with it, after which *no* worker (including respawns) can read
        another task or the close sentinel.  A graceful
        ``close()``/``join()`` on such a pool stalls for the full
        ``JOIN_TIMEOUT_S`` escalation window, and an external long-lived
        pool (the campaign layer's) would wedge every subsequent fleet.
        Force-terminating now reclaims the processes immediately, and a
        :class:`LazyPool` transparently respawns on its next dispatch.
        """
        recycle = getattr(self.pool, "shutdown", None)
        if recycle is None:  # raw caller-owned Pool: leave teardown to them
            return
        self._inc("fleet.pool.recycled")
        recycle(force=True)

    @staticmethod
    def _discard(handle) -> None:
        """Forget an abandoned in-flight task pool-side.

        A lost task (killed or wedged worker) leaves its ``AsyncResult``
        in ``Pool._cache`` forever, and ``Pool.join`` refuses to finish
        while the cache is non-empty — the deadlock that used to wedge
        the whole parent (and leak the worker processes) on any worker
        death.  Dropping the cache entry lets a graceful
        ``close()``/``join()`` complete.
        """
        try:
            handle._cache.pop(handle._job, None)
        except AttributeError:  # pragma: no cover - non-CPython pool
            pass


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class LazyPool:
    """A ``multiprocessing.Pool`` that forks on first use, not on entry.

    The serial-fallback fix means a pooled caller (e.g. a campaign whose
    cells are all below the parallel threshold) may never dispatch a
    single chunk — eagerly forking workers would charge it the pool
    startup for nothing, which was a visible slice of the pooled-campaign
    pessimization.  ``apply_async`` materializes the real pool on demand;
    teardown is a no-op when it never started.

    ``multiprocessing.Pool`` transparently respawns a worker that dies
    (SIGKILL, ``os._exit``), but the chunk that worker held is simply
    lost — its ``AsyncResult`` never completes.  That is why the
    dispatcher above pairs every ``apply_async`` with a watchdog
    deadline instead of using blocking ``map`` (which would wedge
    forever on a killed worker, leaking the whole pool).
    """

    def __init__(self, workers: int):
        self._workers = int(workers)
        self._pool = None

    def _materialize(self):
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self._workers)
        return self._pool

    def apply_async(self, func, args=()):
        """``Pool.apply_async`` on the real pool, forking it on first use."""
        return self._materialize().apply_async(func, args)

    #: How long a graceful shutdown waits before escalating to terminate.
    JOIN_TIMEOUT_S = 10.0

    def shutdown(self, force: bool = False) -> None:
        """Tear the real pool down (``force``: terminate, no drain); the
        next :meth:`apply_async` forks a fresh one."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if force:
            pool.terminate()
            pool.join()
            return
        pool.close()
        # Bounded join: if anything is wedged despite the dispatcher's
        # bookkeeping (a worker stuck in non-interruptible C code, say),
        # escalate to terminate rather than hang the parent forever.
        waiter = threading.Thread(target=pool.join, daemon=True)
        waiter.start()
        waiter.join(self.JOIN_TIMEOUT_S)
        if waiter.is_alive():  # pragma: no cover - last-resort escalation
            pool.terminate()
            waiter.join()


@contextlib.contextmanager
def worker_pool(workers: int):
    """Yield a reusable lazy worker pool (or ``None`` when serial).

    Job-level hook for callers that execute *many* fleets — the campaign
    layer above all.  A :class:`FleetRunner` started per job would tear its
    pool (and the per-process trace and profile caches of
    :mod:`repro.sim.devices` living in the workers) down after every fleet; passing one long-lived pool to
    ``FleetRunner.run(pool=...)`` keeps workers warm, so cells that share
    trace families hit the memo instead of re-synthesizing samples.  The
    processes fork on first dispatch (:class:`LazyPool`), so jobs whose
    fleets all take the serial fallback never pay pool startup at all.
    """
    if workers <= 1:
        yield None
        return
    pool = LazyPool(workers)
    try:
        yield pool
    except BaseException:
        # Mirror `with Pool(...)`: kill queued work immediately on error or
        # Ctrl+C instead of close()-ing and waiting for the whole backlog.
        pool.shutdown(force=True)
        raise
    else:
        pool.shutdown()


class FleetRunner:
    """Executes a :class:`FleetSpec` on the batched engine, serially or
    via a process pool.

    ``workers <= 1`` runs serially in-process (debuggable with plain
    pdb/profilers); larger values fan *chunks* of devices out over a
    ``multiprocessing.Pool``.  A parallel request still runs serially when
    the fleet is smaller than ``parallel_threshold`` devices (default
    :data:`MIN_PARALLEL_DEVICES`, and only when more than one CPU is
    usable) — pool dispatch on a few milliseconds of work per device is a
    measured pessimization, and falling back is what fixes it.  Passing an
    explicit ``parallel_threshold`` overrides both the device floor and
    the CPU check (tests use ``parallel_threshold=1`` to force the pool
    path on any machine).
    """

    def __init__(
        self,
        spec: FleetSpec,
        workers: int = 1,
        chunksize: Optional[int] = None,
        parallel_threshold: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        if not isinstance(spec, FleetSpec):
            raise ConfigError("FleetRunner needs a FleetSpec")
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        if chunksize is not None and chunksize < 1:
            raise ConfigError(f"chunksize must be >= 1, got {chunksize}")
        if parallel_threshold is not None and parallel_threshold < 1:
            raise ConfigError(
                f"parallel_threshold must be >= 1, got {parallel_threshold}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigError("retry must be a RetryPolicy (or None)")
        self.spec = spec
        self.workers = int(workers)
        self.chunksize = chunksize
        self.parallel_threshold = parallel_threshold
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        #: After :meth:`run`: did the last run actually use a pool?
        self.last_run_parallel = False

    def _tasks(self) -> list:
        return [(i, d, self.spec.seed) for i, d in enumerate(self.spec.devices)]

    def _pool_fanout(self, pool) -> int:
        """How many workers the dispatch should actually chunk for.

        An external pool's own process count wins over this runner's
        ``workers`` field (which only a self-owned pool is built from) —
        otherwise ``FleetRunner(spec).run(pool=worker_pool(4))`` with the
        default ``workers=1`` would ship the whole fleet as one chunk to
        one worker.
        """
        for attr in ("_workers", "_processes"):  # LazyPool / multiprocessing.Pool
            n = getattr(pool, attr, None)
            if n:
                return max(int(n), 1)
        return max(self.workers, 1)

    def _should_parallelize(self, num_tasks: int, pool) -> bool:
        if pool is None and self.workers <= 1:
            return False
        if self.parallel_threshold is not None:
            return num_tasks >= self.parallel_threshold
        return num_tasks >= MIN_PARALLEL_DEVICES and usable_cpus() > 1

    def _batch_chunks(self, tasks, fanout: int) -> list:
        """Contiguous task chunks, one engine each: one chunk per worker
        (maximum lockstep width) unless ``chunksize`` pins the size."""
        size = self.chunksize or max(1, math.ceil(len(tasks) / fanout))
        return [tasks[i:i + size] for i in range(0, len(tasks), size)]

    def dispatch_plan(self) -> tuple:
        """``(workers, chunks)`` that :meth:`run` (with its own pool)
        dispatches.

        ``(1, 1)`` is a serial in-process run: one engine over the whole
        fleet.  Otherwise the pool fan-out and how many engine chunks it
        maps.  Decided by the same methods :meth:`run` calls, without
        simulating anything (``--explain`` prints it).
        """
        tasks = self._tasks()
        if not self._should_parallelize(len(tasks), None):
            return 1, 1
        fanout = self._pool_fanout(None)
        return fanout, len(self._batch_chunks(tasks, fanout))

    def _dispatch(self, tasks, pool) -> tuple:
        """Run chunks through the fault-tolerant dispatcher; returns
        ``(DeviceColumns, failures)``."""
        fanout = self._pool_fanout(pool) if pool is not None else 1
        dispatch = _FaultTolerantDispatch(self.retry, pool)
        return dispatch.run(self._batch_chunks(tasks, fanout))

    def run(self, pool=None) -> FleetResult:
        """Execute the fleet; ``pool`` reuses an external :func:`worker_pool`.

        When a pool is supplied its workers do the mapping (the runner's
        own ``workers`` count only shapes chunking), so a sequence of runs
        can share warm worker processes.  Results are identical either
        way: per-device streams are pinned by (fleet seed, device index),
        never by which process executes them.

        Dispatch is fault-tolerant: failed chunk attempts are retried
        with backoff per ``self.retry``, timed-out workers are
        re-dispatched, exhausted chunks split into single-device chunks
        and then get one in-parent attempt, and devices that still fail
        are quarantined on ``FleetResult.failures`` instead of aborting
        the fleet.  The serial chaos-off path skips all of it — one
        injector attribute read, then straight into the engine.
        """
        t0 = time.perf_counter()
        tasks = self._tasks()
        self.last_run_parallel = self._should_parallelize(len(tasks), pool)
        workers_used = 1
        failures: list = []
        with span(
            "fleet.run",
            fleet=self.spec.name,
            devices=len(tasks),
            parallel=self.last_run_parallel,
        ):
            if not self.last_run_parallel:
                if not get_fault_injector().enabled:
                    columns = BatchedFleetEngine(tasks).run()
                else:
                    columns, failures = self._dispatch(tasks, None)
            elif pool is not None:
                workers_used = self._pool_fanout(pool)
                columns, failures = self._dispatch(tasks, pool)
            else:
                workers_used = max(self.workers, 1)
                with worker_pool(self.workers) as owned:
                    columns, failures = self._dispatch(tasks, owned)
        result = FleetResult(
            fleet_name=self.spec.name,
            seed=self.spec.seed,
            devices=columns,
            workers=workers_used,
            wall_s=time.perf_counter() - t0,
            failures=failures,
        )
        rec = get_recorder()
        if rec.metrics is not None:
            record_outcome_metrics(
                rec.metrics,
                result._aggregator(),
                result.wall_s,
                {
                    "fleet.workers": result.workers,
                    "fleet.parallel": bool(self.last_run_parallel),
                },
            )
        return result


def run_fleet(
    spec: FleetSpec,
    workers: int = 1,
    chunksize: Optional[int] = None,
    parallel_threshold: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
) -> FleetResult:
    """One-call convenience wrapper around :class:`FleetRunner`."""
    return FleetRunner(
        spec,
        workers=workers,
        chunksize=chunksize,
        parallel_threshold=parallel_threshold,
        retry=retry,
    ).run()
