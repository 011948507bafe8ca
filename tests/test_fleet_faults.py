"""Fault-tolerant fleet dispatch: retries, watchdog, degradation, quarantine.

The contract under test: for any *recoverable* injected fault schedule —
worker crashes, raised exceptions, hangs past the watchdog, transient
OSErrors, corrupted wire payloads — the completed :class:`FleetResult`
is bit-identical to a fault-free run, with the recovery visible only in
``fleet.retry.*`` / ``fault.injected.*`` counters.  Truly unrecoverable
devices are quarantined as :class:`DeviceFailure` records instead of
aborting the fleet, and spec problems (:class:`ConfigError`) are never
retried.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigError, IntegrityError
from repro.faults import Fault, FaultPlan, RetryPolicy, chaos
from repro.fleet import DeviceSpec, FleetRunner, FleetSpec
from repro.fleet.results import (
    DeviceFailure,
    pack_device_results,
    seal_payload,
    verify_payload,
)
from repro.fleet.runner import LazyPool
from repro.obs import Recorder, recording
from repro.sim.batch import BatchedFleetEngine


def tiny_device(name: str) -> DeviceSpec:
    return DeviceSpec(
        name=name,
        trace={"family": "solar", "duration": 400.0, "dt": 1.0, "peak_mw": 0.03},
        controller={"kind": "greedy"},
        events={"kind": "uniform", "count": 15},
    )


def tiny_fleet(n=6, seed=7) -> FleetSpec:
    return FleetSpec(
        name="faults", seed=seed, devices=[tiny_device(f"dev-{i}") for i in range(n)]
    )


def run_clean(spec: FleetSpec) -> dict:
    agg = FleetRunner(spec).run().aggregate()
    agg.pop("wall_s", None)
    return agg


def aggregate_of(result) -> dict:
    agg = result.aggregate()
    agg.pop("wall_s", None)
    return agg


FAST = RetryPolicy(max_retries=3, backoff_s=0.0)


# --------------------------------------------------------------------- #
# Payload integrity primitives
# --------------------------------------------------------------------- #


class TestPayloadIntegrity:
    def test_seal_and_verify_roundtrip(self):
        tasks = [(i, d, 7) for i, d in enumerate(tiny_fleet(2).devices)]
        payload = seal_payload(pack_device_results(BatchedFleetEngine(tasks).run()))
        verify_payload(payload)  # must not raise

    def test_corruption_detected(self):
        tasks = [(i, d, 7) for i, d in enumerate(tiny_fleet(2).devices)]
        payload = seal_payload(pack_device_results(BatchedFleetEngine(tasks).run()))
        payload["iepmj"][0] += 1.0
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            verify_payload(payload)

    def test_missing_digest_detected(self):
        tasks = [(i, d, 7) for i, d in enumerate(tiny_fleet(2).devices)]
        payload = pack_device_results(BatchedFleetEngine(tasks).run())
        with pytest.raises(IntegrityError, match="missing or malformed"):
            verify_payload(payload)


# --------------------------------------------------------------------- #
# Serial dispatch under chaos
# --------------------------------------------------------------------- #


class TestSerialChaos:
    @pytest.mark.parametrize(
        "op", ["exception", "oserror", "crash", "hang", "corrupt_payload"]
    )
    def test_single_fault_recovers_bit_identical(self, op):
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan([Fault("fleet.chunk", 0, op)])
        with chaos(plan) as injector:
            result = FleetRunner(spec, retry=FAST).run()
        assert injector.fired_summary() == {f"fleet.chunk.{op}": 1}
        assert aggregate_of(result) == clean
        assert result.failures == []

    def test_retry_counters_emitted(self):
        spec = tiny_fleet()
        plan = FaultPlan([Fault("fleet.chunk", 0, "exception")])
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            FleetRunner(spec, retry=FAST).run()
        assert rec.metrics.counter_value("fleet.retry.failures") == 1
        assert rec.metrics.counter_value("fleet.retry.attempts") == 1
        assert rec.metrics.counter_value("fault.injected.fleet.chunk.exception") == 1

    def test_config_error_never_retried(self):
        spec = FleetSpec(
            name="bad",
            seed=1,
            devices=[tiny_device("ok"), tiny_device("bad-profile")],
        )
        # An unknown profile only explodes at execution time, inside the
        # chunk — exactly where retry must NOT mask it.
        object.__setattr__(spec.devices[1], "profile", "mystery-net")
        plan = FaultPlan([])
        with chaos(plan) as injector, pytest.raises(ConfigError):
            FleetRunner(spec, retry=FAST).run()
        # one dispatch attempt, no retries
        assert injector.occurrences("fleet.chunk") == 1

    def test_quarantine_after_ladder_exhausted(self):
        spec = tiny_fleet(n=1, seed=3)
        # Retry budget 0 → attempts: chunk (occurrence 0) then the final
        # in-parent serial attempt (occurrence 1); fault both.
        plan = FaultPlan(
            [
                Fault("fleet.chunk", 0, "exception"),
                Fault("fleet.chunk", 1, "exception"),
            ]
        )
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(
                spec, retry=RetryPolicy(max_retries=0, backoff_s=0.0)
            ).run()
        assert result.num_devices == 0
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert isinstance(failure, DeviceFailure)
        assert failure.index == 0 and failure.name == "dev-0"
        assert failure.stage == "serial"
        assert "InjectedFault" in failure.error
        assert rec.metrics.counter_value("fleet.devices.quarantined") == 1
        agg = result.aggregate()
        assert agg["failures"][0]["name"] == "dev-0"

    def test_fully_quarantined_fleet_aggregates_to_documented_zeros(self):
        """Losing EVERY device must degrade to a well-formed zero report.

        The aggregate's divisions (fleet IEpmJ, accuracy, exit depth) and
        percentile tables all hit their empty-input branches at once; each
        must produce its documented zero instead of raising.
        """
        spec = tiny_fleet(n=2, seed=5)
        plan = FaultPlan(
            [Fault("fleet.chunk", i, "exception") for i in range(8)]
        )
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(
                spec, retry=RetryPolicy(max_retries=0, backoff_s=0.0)
            ).run()
        assert result.num_devices == 0
        assert len(result.failures) == 2
        assert rec.metrics.counter_value("fleet.devices.quarantined") == 2
        agg = result.aggregate()
        assert agg["devices"] == 0
        assert agg["events"] == 0
        assert agg["fleet_iepmj"] == 0.0
        assert agg["average_accuracy"] == 0.0
        assert agg["mean_exit_depth"] == 0.0
        assert agg["exit_counts"] == []
        assert agg["miss_counts"] == {}
        assert agg["device_iepmj_percentiles"] == {
            "p10": 0.0, "p50": 0.0, "p90": 0.0
        }
        assert sorted(f["name"] for f in agg["failures"]) == ["dev-0", "dev-1"]
        # The zero report must survive serialization and re-aggregation.
        json.dumps(result.to_dict(include_timing=True))

    def test_multi_device_chunk_splits_before_quarantine(self):
        spec = tiny_fleet(n=4, seed=9)
        clean = run_clean(spec)
        # Exhaust the whole-chunk budget (occurrences 0 and 1), forcing a
        # split; the per-device re-runs (occurrences 2..5) run clean.
        plan = FaultPlan(
            [
                Fault("fleet.chunk", 0, "exception"),
                Fault("fleet.chunk", 1, "exception"),
            ]
        )
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(
                spec, retry=RetryPolicy(max_retries=1, backoff_s=0.0)
            ).run()
        assert rec.metrics.counter_value("fleet.retry.splits") == 1
        assert aggregate_of(result) == clean

    def test_fault_free_plan_changes_nothing(self):
        spec = tiny_fleet()
        clean = run_clean(spec)
        with chaos(FaultPlan([])):
            result = FleetRunner(spec, retry=FAST).run()
        assert aggregate_of(result) == clean


# --------------------------------------------------------------------- #
# Pooled dispatch under chaos
# --------------------------------------------------------------------- #


POOLED = dict(workers=2, parallel_threshold=1)


class TestPooledChaos:
    def test_worker_crash_recovers_bit_identical(self):
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan([Fault("fleet.chunk", 0, "crash")])
        policy = RetryPolicy(max_retries=2, worker_timeout=2.0, backoff_s=0.0)
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(spec, retry=policy, **POOLED).run()
        assert aggregate_of(result) == clean
        assert rec.metrics.counter_value("fleet.retry.timeouts") >= 1
        assert rec.metrics.counter_value("fleet.retry.attempts") >= 1

    def test_hang_straggler_verified_bit_identical(self):
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan([Fault("fleet.chunk", 0, "hang", {"seconds": 1.0})])
        policy = RetryPolicy(
            max_retries=2, worker_timeout=0.3, backoff_s=0.0, straggler_grace_s=3.0
        )
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(spec, retry=policy, **POOLED).run()
        assert aggregate_of(result) == clean
        # the sleeping attempt finished late and its payload matched the
        # accepted re-execution — the production determinism assert fired
        assert rec.metrics.counter_value("fleet.straggler.verified") >= 1

    def test_corrupt_payload_detected_and_retried(self):
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan([Fault("fleet.chunk", 0, "corrupt_payload")])
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(spec, retry=FAST, **POOLED).run()
        assert aggregate_of(result) == clean
        assert rec.metrics.counter_value("fleet.retry.failures") >= 1

    def test_rejected_and_straggling_attempts_keep_their_obs_out(self):
        """Only accepted chunks merge their worker metrics: a corrupted
        attempt and a verified straggler both ran the engine, but their
        ``batch.*`` counters must not reach the parent registry."""
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan(
            [
                Fault("fleet.chunk", 0, "corrupt_payload"),
                Fault("fleet.chunk", 1, "hang", {"seconds": 1.0}),
            ]
        )
        policy = RetryPolicy(
            max_retries=2, worker_timeout=0.3, backoff_s=0.0, straggler_grace_s=3.0
        )
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(spec, retry=policy, **POOLED).run()
        assert aggregate_of(result) == clean
        assert rec.metrics.counter_value("batch.engine.devices") == spec.num_devices
        assert rec.metrics.counter_value("fleet.straggler.verified") >= 1
        assert rec.metrics.counter_value("fleet.retry.failures") >= 2

    def test_sigkill_a_pool_child_mid_run(self):
        """The integration test: a child process is SIGKILLed from outside
        mid-dispatch; the fleet must complete bit-identically with the
        retries visible in counters (and the pool must not wedge).  A
        kill-free control run of the same runner and policy records no
        timeout and no retry, so the killed run's counters can only come
        from the kill."""
        # Each 2-device chunk (3k events of q-learning a device) runs in
        # ~0.2 s. All four are dispatched at once, so a chunk's watchdog
        # clock includes its wait behind another; the kill-free run takes
        # ~0.55 s, under a fifth of the 3 s watchdog.  The chunks keep both
        # workers busy for that long, so the kill lands mid-chunk.
        devices = [
            DeviceSpec(
                name=f"slow-{i}",
                trace={
                    "family": "solar",
                    "duration": 6000.0,
                    "dt": 1.0,
                    "peak_mw": 0.03,
                },
                controller={"kind": "qlearning"},
                events={"kind": "uniform", "count": 3000},
            )
            for i in range(8)
        ]
        spec = FleetSpec(name="sigkill", seed=21, devices=devices)
        clean = run_clean(spec)

        def runner():
            return FleetRunner(
                spec,
                workers=2,
                parallel_threshold=1,
                chunksize=2,
                retry=RetryPolicy(max_retries=1, worker_timeout=3.0, backoff_s=0.0),
            )

        with recording(Recorder(metrics=True)) as rec:
            result = runner().run()
        assert aggregate_of(result) == clean
        assert rec.metrics.counter_value("fleet.retry.timeouts") == 0
        assert rec.metrics.counter_value("fleet.retry.attempts") == 0

        # A SIGKILL can take the pool's shared task-queue lock down with
        # the worker, wedging every later dispatch — the ladder then walks
        # each chunk down to the in-parent serial attempt.  Recovery must
        # still be bit-identical.
        def run_with_assassin():
            stop = threading.Event()

            def assassin():
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and not stop.is_set():
                    children = multiprocessing.active_children()
                    if children:
                        time.sleep(0.15)  # let the child pick up its chunk
                        victims = multiprocessing.active_children()
                        if victims:
                            os.kill(victims[0].pid, signal.SIGKILL)
                        return
                    time.sleep(0.001)

            thread = threading.Thread(target=assassin)
            with recording(Recorder(metrics=True)) as rec:
                thread.start()
                try:
                    result = runner().run()
                finally:
                    stop.set()
                    thread.join()
            return result, rec

        # A kill can land on a worker that has not picked up a chunk yet
        # (the pool just respawns it and nothing is lost), so allow a few
        # attempts for the murder to hit mid-chunk. Every attempt must be
        # bit-identical regardless of where the kill landed.
        for _ in range(3):
            result, rec = run_with_assassin()
            assert aggregate_of(result) == clean
            if rec.metrics.counter_value("fleet.retry.timeouts") >= 1:
                break
        # the murdered chunk timed out and was re-dispatched
        assert rec.metrics.counter_value("fleet.retry.timeouts") >= 1
        assert rec.metrics.counter_value("fleet.retry.attempts") >= 1

    def test_pool_children_reaped_when_run_raises(self):
        """Regression: a run that raises mid-dispatch must not leak live
        worker processes from its self-owned pool."""
        spec = FleetSpec(
            name="leak", seed=1, devices=[tiny_device(f"d{i}") for i in range(4)]
        )
        object.__setattr__(spec.devices[2], "profile", "mystery-net")
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(ConfigError):
            FleetRunner(spec, workers=2, parallel_threshold=1, chunksize=1).run()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = {p.pid for p in multiprocessing.active_children()} - before
            if not leaked:
                break
            time.sleep(0.01)
        assert not leaked, f"leaked pool children: {leaked}"

    def test_external_lazy_pool_survives_chaos(self):
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan([Fault("fleet.chunk", 0, "exception")])
        pool = LazyPool(2)
        runner = FleetRunner(spec, parallel_threshold=1, retry=FAST)
        try:
            with chaos(plan):
                result = runner.run(pool=pool)
        finally:
            pool.shutdown()
        assert aggregate_of(result) == clean

    def test_abandoned_straggler_recycles_the_pool(self):
        """A straggler that never surfaces means a wedged/dead worker; the
        dispatcher must force-terminate the pool on the spot (instead of
        letting teardown stall on a join the workers can no longer reach)
        and a long-lived LazyPool must respawn cleanly on its next run."""
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan([Fault("fleet.chunk", 0, "hang", {"seconds": 30.0})])
        policy = RetryPolicy(
            max_retries=2, worker_timeout=0.2, backoff_s=0.0, straggler_grace_s=0.1
        )
        pool = LazyPool(2)
        runner = FleetRunner(spec, parallel_threshold=1, retry=policy)
        try:
            with recording(Recorder(metrics=True)) as rec, chaos(plan):
                result = runner.run(pool=pool)
            assert aggregate_of(result) == clean
            assert rec.metrics.counter_value("fleet.straggler.abandoned") >= 1
            assert rec.metrics.counter_value("fleet.pool.recycled") == 1
            # the sleeping worker was terminated with its pool, not leaked
            assert pool._pool is None
            # ... and the same LazyPool respawns for the next fleet
            assert aggregate_of(runner.run(pool=pool)) == clean
        finally:
            pool.shutdown()


# --------------------------------------------------------------------- #
# Plan replay determinism end to end
# --------------------------------------------------------------------- #


def test_replayed_plan_reproduces_fault_schedule(tmp_path):
    spec = tiny_fleet()
    plan = FaultPlan(
        [
            Fault("fleet.chunk", 0, "exception"),
            Fault("fleet.chunk", 1, "corrupt_payload"),
        ]
    )
    path = tmp_path / "plan.json"
    plan.to_json(str(path))

    def run_once():
        with chaos(FaultPlan.from_json(str(path))) as injector:
            result = FleetRunner(spec, retry=FAST).run()
        return injector.fired_summary(), aggregate_of(result)

    first, second = run_once(), run_once()
    assert first == second
    assert first[0] == {
        "fleet.chunk.exception": 1,
        "fleet.chunk.corrupt_payload": 1,
    }
    clean_json = json.dumps(run_clean(spec), sort_keys=True, default=str)
    assert json.dumps(first[1], sort_keys=True, default=str) == clean_json
