"""Batched lockstep engine equivalence tests (the PR-4 contract).

Every fleet executes on the batched engine, and the engine promises
**bit-identical** results to the scalar oracle (``run_device``: one
per-device simulator, see ``tests/conftest.py``): same per-device random
streams (`SeedSequence(fleet_seed, spawn_key=(i,))` consumed in the same
order), same ledger arithmetic, same records.  These tests pin that
promise over every registered scenario, every controller preset, the
pooled dispatch path, and (via hypothesis) randomly composed small fleets.
"""

import dataclasses
import json
import os
from contextlib import contextmanager
from unittest import mock

import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fleet import SCENARIOS, DeviceSpec, FleetRunner, FleetSpec
from repro.fleet.results import (
    FleetResult,
    pack_device_results,
    unpack_device_results,
)
from repro.obs.recorder import Recorder, recording
from repro.runtime.controller import CONTROLLER_PRESETS, controller_preset
from repro.energy.traces import synthesize_stacks
from repro.sim import batch, devices
from repro.sim.batch import _BUILD_WINDOW, BatchedFleetEngine
from repro.sim.devices import (
    build_trace,
    device_seeds,
    harvest_percentiles,
    materialize,
    resolve_profile,
)
from repro.sim.results import DeviceResult
from repro.sim.simulator import Simulator, SimulatorConfig

#: Small overrides that keep every scenario in the seconds range.
SCENARIO_CASES = [(name, {"num_devices": 4}) for name in SCENARIOS.names()]


def _payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _scalar_episodes(index, device, fleet_seed):
    """Every episode of one device through the scalar simulator, built the
    way ``run_device`` builds it (which keeps only the last episode)."""
    seeds = device_seeds(index, fleet_seed)
    objs = materialize(device, seeds, build_trace(device.trace, seeds[0]))
    sim = Simulator(
        objs.trace,
        objs.profile,
        objs.controller,
        mcu=objs.mcu,
        storage=objs.storage,
        config=SimulatorConfig(
            mode="profile",
            execution=device.execution,
            power_window_s=device.power_window_s,
            seed=objs.sim_seed,
        ),
    )
    return [sim.run(objs.events) for _ in range(device.episodes)]


def _dynamics(run):
    """What an episode's energy dynamics decide: every record but the
    draw-decided ``correct`` / entropy, plus the energy drawn."""
    rows = [
        (r.exit_index, r.first_exit_index, r.continued, r.latency_s,
         r.energy_mj, r.miss_reason, r.power_cycles)
        for r in run.records
    ]
    return rows, run.total_consumed_mj


def _draws(run):
    """What an episode's per-device random draws decide."""
    return [(r.correct, r.confidence_entropy) for r in run.records]


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name,overrides", SCENARIO_CASES,
                             ids=[c[0] for c in SCENARIO_CASES])
    def test_batched_equals_device_equals_pooled(self, name, overrides, oracle):
        spec = SCENARIOS.build(name, **overrides)
        serial = FleetRunner(spec, workers=1).run()
        pooled = FleetRunner(spec, workers=2, parallel_threshold=1).run()
        assert _payload(serial) == _payload(oracle(spec))
        assert _payload(serial) == _payload(pooled)

    def test_every_registered_scenario_builds_one_engine(self):
        """Every device of every registered scenario builds into one
        engine: nothing a scenario expresses is refused."""
        for name in SCENARIOS.names():
            spec = SCENARIOS.build(name, num_devices=8)
            tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
            engine = BatchedFleetEngine(tasks)
            assert engine._names == [d.name for d in spec.devices]
            assert engine._index.tolist() == list(range(8))

    def test_only_the_oracle_measures_device_wall_time(self, oracle):
        """The engine simulates its devices together, so it has no
        per-device wall time to report: it leaves ``wall_s`` at 0.0."""
        spec = SCENARIOS.build("dev-smoke")
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        assert all(r.wall_s == 0.0 for r in BatchedFleetEngine(tasks).run())
        assert all(d.wall_s > 0.0 for d in oracle(spec).devices)


class TestContinueRuleEquivalence:
    """Bit-identity of the batched incremental-inference path."""

    def _fleet(self, rule, controller_kind="qlearning", execution="single-cycle"):
        devices = []
        for i in range(5):
            controller = {"kind": controller_kind}
            if controller_kind == "greedy":
                controller["reserve_fraction"] = 0.1
            if rule is not None:
                controller["continue_rule"] = dict(rule)
            devices.append(
                DeviceSpec(
                    name=f"r{i}",
                    trace={"family": "solar", "duration": 500.0, "dt": 1.0,
                           "peak_mw": 0.04},
                    controller=controller,
                    events={"kind": "uniform", "count": 25},
                    episodes=2,
                    execution=execution,
                )
            )
        return FleetSpec(name="rule-fleet", seed=29, devices=devices)

    @pytest.mark.parametrize("rule", [
        {"kind": "threshold", "entropy_threshold": 0.35},
        {"kind": "learned"},
        {"kind": "learned", "epsilon": 0.3, "epsilon_decay": 0.95},
    ], ids=["threshold", "learned", "learned-tuned"])
    @pytest.mark.parametrize("kind", ["qlearning", "greedy"])
    def test_rule_fleets_bit_identical(self, rule, kind, oracle):
        spec = self._fleet(rule, controller_kind=kind)
        batched = FleetRunner(spec, workers=1).run()
        assert _payload(batched) == _payload(oracle(spec))

    def test_continuations_actually_happen(self):
        """Guard against the continue loop silently never firing (which
        would make the equivalence tests vacuous)."""
        spec = self._fleet({"kind": "threshold", "entropy_threshold": 0.1})
        result = FleetRunner(spec, workers=1).run()
        agg = result.aggregate()
        assert agg["mean_exit_depth"] > 0.0
        assert agg["processed"] > 0


class TestIntermittentEquivalence:
    """Bit-identity of the vectorized multi-cycle kernel."""

    def _fleet(self, mean_mw, capacity=1.0, initial=0.3, events=20, n=6):
        devices = [
            DeviceSpec(
                name=f"i{i}",
                trace={"family": "rf", "duration": 1000.0, "dt": 1.0,
                       "mean_mw": mean_mw},
                profile="sonic-single-exit",
                controller={"kind": "fixed", "exit_index": 0},
                storage={"capacity_mj": capacity, "initial_fraction": initial},
                events={"kind": "poisson", "rate_hz": events / 1000.0},
                execution="intermittent",
            )
            for i in range(n)
        ]
        return FleetSpec(name="int-fleet", seed=41, devices=devices)

    @pytest.mark.parametrize("mean_mw", [0.003, 0.01, 0.05],
                             ids=["starved", "weak", "comfortable"])
    def test_all_intermittent_fleet_bit_identical(self, mean_mw, oracle):
        spec = self._fleet(mean_mw)
        batched = FleetRunner(spec, workers=1).run()
        assert _payload(batched) == _payload(oracle(spec))

    def test_starved_fleet_reaches_deadline_misses(self):
        """The starved regime must actually exercise the incomplete-run
        branch (deadline miss with latency + power-cycle counts)."""
        result = FleetRunner(self._fleet(0.003), workers=1).run()
        assert result.aggregate()["miss_counts"].get("energy", 0) > 0

    def test_multi_cycle_runs_happen(self):
        result = FleetRunner(self._fleet(0.01), workers=1).run()
        processed = result.aggregate()["processed"]
        assert processed > 0

    def _pass_fleet(self, regime):
        """Fleets for the kernel's pass structure: ``busy-runs`` bursts
        events closer together than a job's latency, so runs of events
        miss busy (to the end of the stream for some devices);
        ``saturating`` harvests above the draw on a small capacitor, so
        compute lanes clamp at capacity, fall under it as the RF harvest
        fades, and clamp again; ``mixed`` puts both in one kernel beside
        a starved device that runs into the trace end."""
        def device(name, mean_mw, capacity, events, duration=1000.0):
            return DeviceSpec(
                name=name,
                trace={"family": "rf", "duration": duration, "dt": 1.0,
                       "mean_mw": mean_mw},
                profile="sonic-single-exit",
                controller={"kind": "fixed", "exit_index": 0},
                storage={"capacity_mj": capacity, "initial_fraction": 0.0},
                events=events,
                execution="intermittent",
            )

        bursts = {"kind": "burst", "num_bursts": 6, "events_per_burst": 6,
                  "burst_span": 8.0}
        busy = [device(f"b{i}", 0.01 + 0.01 * i, 1.0, bursts) for i in range(4)]
        steady = {"kind": "uniform", "count": 15}
        saturating = [
            device(f"s{i}", mean_mw, capacity, steady, duration=600.0)
            for i, (mean_mw, capacity) in enumerate(
                [(0.09, 0.15), (0.1, 0.2), (0.12, 0.3), (0.2, 0.3)]
            )
        ]
        starved = [device("late", 0.003, 1.0, {"kind": "poisson", "rate_hz": 0.02})]
        devices = {
            "busy-runs": busy,
            "saturating": saturating,
            "mixed": busy[:2] + saturating[:2] + starved,
        }[regime]
        return FleetSpec(name=f"pass-{regime}", seed=47, devices=devices)

    @pytest.mark.parametrize("regime", ["busy-runs", "saturating", "mixed"])
    def test_pass_structure_fleets_bit_identical(self, regime, oracle):
        """Serial == scalar oracle == ``advance(k)``, on fleets whose
        lanes end passes at busy runs, same-pass job closes and
        saturation entries."""
        spec = self._pass_fleet(regime)
        expected = _payload(oracle(spec))
        assert _payload(FleetRunner(spec, workers=1).run()) == expected
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        engine = BatchedFleetEngine(tasks)
        while not engine.finished:
            engine.advance(3)
        stepped = FleetResult(
            fleet_name=spec.name, seed=spec.seed, devices=engine.finalize()
        )
        assert _payload(stepped) == expected

    def test_busy_runs_fleet_misses_runs_of_events(self):
        """The busy-runs fleet is not vacuous: devices miss three or more
        events in a row, and one misses every event after its last job."""
        spec = self._pass_fleet("busy-runs")
        tails = []
        for i, device in enumerate(spec.devices):
            run = _scalar_episodes(i, device, spec.seed)[-1]
            busy = [r.miss_reason == "busy" for r in run.records]
            marks = "".join("b" if b else "." for b in busy)
            assert "bbb" in marks
            tails.append(marks.endswith("bb"))
        assert any(tails)

    def _episode_fleet(self):
        """Intermittent devices at 7, 3 and 1 episodes beside a learning
        device at 3, so later episodes drop devices out.  The 7-episode
        device completes ~42 inferences an episode, so its 256-wide
        uniform pool runs dry inside episode 6."""
        def intermittent(name, episodes, trace, capacity, events):
            return DeviceSpec(
                name=name,
                trace=trace,
                profile="sonic-single-exit",
                controller={"kind": "fixed", "exit_index": 0},
                storage={"capacity_mj": capacity},
                events=events,
                execution="intermittent",
                episodes=episodes,
            )

        rf = {"family": "rf", "duration": 1000.0, "dt": 1.0, "mean_mw": 0.01}
        devices = [
            intermittent(
                "steady-7",
                7,
                {"family": "constant", "power_mw": 0.25, "duration": 3600.0,
                 "dt": 1.0},
                4.0,
                {"kind": "uniform", "count": 80},
            ),
            intermittent("rf-3", 3, rf, 1.0, {"kind": "poisson", "rate_hz": 0.02}),
            intermittent("rf-1", 1, rf, 1.0, {"kind": "poisson", "rate_hz": 0.02}),
            DeviceSpec(
                name="learner-3",
                trace={"family": "solar", "duration": 500.0, "dt": 1.0,
                       "peak_mw": 0.04},
                controller={"kind": "qlearning",
                            "continue_rule": {"kind": "learned"}},
                events={"kind": "uniform", "count": 25},
                episodes=3,
            ),
        ]
        return FleetSpec(name="episode-fleet", seed=43, devices=devices)

    def test_multi_episode_fleet_bit_identical_on_every_path(self, oracle):
        """Serial == scalar oracle == pooled == ``advance(k)`` to
        completion, and every device's last episode equals the scalar
        simulator's record for record, ``correct`` and
        ``confidence_entropy`` included."""
        spec = self._episode_fleet()
        serial = FleetRunner(spec, workers=1).run()
        expected = _payload(serial)
        assert _payload(oracle(spec)) == expected
        pooled = FleetRunner(
            spec, workers=2, parallel_threshold=1, chunksize=2
        ).run()
        assert _payload(pooled) == expected
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        for k in (1, 3, 7):
            engine = BatchedFleetEngine(tasks)
            while not engine.finished:
                engine.advance(k)
            stepped = FleetResult(
                fleet_name=spec.name, seed=spec.seed, devices=engine.finalize()
            )
            assert _payload(stepped) == expected
        for i, device in enumerate(spec.devices):
            last = _scalar_episodes(i, device, spec.seed)[-1]
            assert _dynamics(engine.records(i)) == _dynamics(last)
            assert _draws(engine.records(i)) == _draws(last)
        # The steady device draws one uniform per completion: the 257th
        # (a pool refill) falls inside a later episode, not the first.
        done = serial.devices[0].num_processed
        assert done <= 256 < spec.devices[0].episodes * done

    def test_intermittent_episodes_differ_only_in_draws(self):
        """The assumption episode replay rests on, in the scalar oracle:
        every episode of an intermittent device has the same dynamics,
        and only the draw-decided ``correct`` / entropy differ."""
        spec = self._episode_fleet()
        device = DeviceSpec(**{**spec.devices[0].to_dict(), "episodes": 3})
        runs = _scalar_episodes(0, device, spec.seed)
        assert all(_dynamics(run) == _dynamics(runs[0]) for run in runs[1:])
        assert any(_draws(run) != _draws(runs[0]) for run in runs[1:])


class TestColumnarFinalize:
    """``finalize`` summarizes every device column-wise from the frozen
    record buffers; each result must equal the per-device summary of the
    same records, field for field and in dict key order."""

    @staticmethod
    def _fleet():
        def device(name, power_mw, events, episodes=1, initial=0.5, **extra):
            trace = extra.pop("trace", {"family": "constant", "power_mw": power_mw,
                                        "duration": 600.0, "dt": 1.0})
            return DeviceSpec(
                name=name, trace=trace, events=events, episodes=episodes,
                controller=extra.pop("controller", {"kind": "greedy",
                                                    "reserve_fraction": 0.0}),
                storage={"initial_fraction": initial}, **extra,
            )

        burst = {"kind": "burst", "num_bursts": 4, "events_per_burst": 6}
        devices = [
            device("no-events", 0.05, {"kind": "uniform", "count": 0}),
            device("starved", 0.0, {"kind": "uniform", "count": 6}, initial=0.0),
            device("one", 0.05, {"kind": "uniform", "count": 1}, episodes=2),
            device("many", 0.5, {"kind": "uniform", "count": 30}, episodes=3),
            device("energy-first", 0.02, burst, initial=0.0),
            device("busy-first", 0.02, {"kind": "uniform", "count": 40},
                   initial=0.0, episodes=2),
            device("sonic", None, {"kind": "poisson", "rate_hz": 0.05}, episodes=2,
                   trace={"family": "rf", "duration": 600.0, "dt": 1.0,
                          "mean_mw": 0.02},
                   profile="sonic-single-exit", execution="intermittent",
                   controller={"kind": "fixed", "exit_index": 0}),
            device("learner", None, {"kind": "uniform", "count": 20}, episodes=3,
                   trace={"family": "wind", "duration": 600.0, "dt": 1.0},
                   controller={"kind": "qlearning", "continue_rule": {
                       "kind": "threshold", "entropy_threshold": 0.3}}),
        ]
        return FleetSpec(name="finalize-fleet", seed=3, devices=devices)

    def test_every_field_equals_the_per_device_summary(self):
        spec = self._fleet()
        engine = BatchedFleetEngine(
            [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        )
        results = engine.run()
        for i, (got, d) in enumerate(zip(results, spec.devices)):
            # The engine keeps no trace past its build window: rebuild it.
            trace = build_trace(d.trace, device_seeds(i, spec.seed)[0])
            want = DeviceResult.from_simulation(
                i, d.name, engine.records(i), resolve_profile(d.profile),
                harvest_percentiles=harvest_percentiles([trace])[0],
                episodes=d.episodes,
            )
            # JSON without sort_keys: float bits, int/float types and
            # dict key order all count.
            assert json.dumps(dataclasses.asdict(got)) == json.dumps(
                dataclasses.asdict(want)
            )
        # The fleet reaches what the column-wise summary must get right.
        processed = {r.num_processed for r in results}
        assert {0, 1} <= processed and max(processed) >= 8
        orders = {tuple(r.miss_counts) for r in results}
        assert {("busy", "energy"), ("energy", "busy")} <= orders
        assert {len(r.exit_counts) for r in results} == {1, 3}
        assert {r.episodes for r in results} == {1, 2, 3}

    def test_a_fleet_without_events(self, oracle):
        """No device has an event, so the record buffers have no rows."""
        devices = [
            DeviceSpec(
                name=f"idle-{i}",
                trace={"family": "rf", "duration": 100.0, "dt": 1.0},
                events={"kind": "uniform", "count": 0},
            )
            for i in range(3)
        ]
        spec = FleetSpec(name="idle-fleet", seed=5, devices=devices)
        assert _payload(FleetRunner(spec, workers=1).run()) == _payload(oracle(spec))


class TestPresetEquivalence:
    @pytest.mark.parametrize("preset", sorted(CONTROLLER_PRESETS))
    def test_every_preset_is_bit_identical(self, preset, oracle):
        base = SCENARIOS.build("dev-smoke", num_devices=4)
        devices = [
            DeviceSpec(**{**d.to_dict(), "controller": controller_preset(preset)})
            for d in base.devices
        ]
        spec = FleetSpec(name=f"preset-{preset}", seed=11, devices=devices)
        batched = FleetRunner(spec, workers=1).run()
        assert _payload(batched) == _payload(oracle(spec))


class TestEligibility:
    """What a device spec may carry into the engine: declarative continue
    rules run batched; live rule objects are refused at the spec."""

    def test_intermittent_is_now_eligible(self):
        """SONIC baseline devices run in the same engine as single-cycle
        devices, through its multi-cycle kernel."""
        spec = SCENARIOS.build("mixed-harvester-city", num_devices=12)
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        intermittent = [d for d in spec.devices if d.execution == "intermittent"]
        assert 0 < len(intermittent) < len(spec.devices)
        assert len(BatchedFleetEngine(tasks)._int_kernel) == len(intermittent)

    def test_continue_rule_devices_are_eligible(self):
        for rule in (
            {"kind": "threshold", "entropy_threshold": 0.4},
            {"kind": "learned"},
        ):
            d = DeviceSpec(
                name="rule-dev",
                trace={"family": "constant", "power_mw": 0.02, "duration": 100.0},
                controller={"kind": "qlearning", "continue_rule": rule},
            )
            engine = BatchedFleetEngine([(0, d, 7)])
            assert len(engine._rule_groups) == 1
            assert len(engine.run()) == 1

    def test_instance_continue_rule_rejected(self):
        """A live ContinueRule in a controller dict is mutable state the
        spec cannot serialize or digest, and one instance shared across
        devices couples their runs: the spec refuses it, naming the
        device."""
        from repro.runtime.incremental import ThresholdContinue

        with pytest.raises(ConfigError, match="instance-rule") as err:
            DeviceSpec(
                name="instance-rule",
                trace={"family": "constant", "power_mw": 0.05, "duration": 200.0},
                controller={
                    "kind": "greedy",
                    "reserve_fraction": 0.1,
                    "continue_rule": ThresholdContinue(0.5),
                },
                events={"kind": "uniform", "count": 10},
            )
        assert "declarative" in str(err.value)
        data = SCENARIOS.build("dev-smoke", num_devices=1).devices[0].to_dict()
        data["controller"] = {"kind": "qlearning", "continue_rule": "threshold"}
        with pytest.raises(ConfigError, match="continue_rule"):
            DeviceSpec.from_dict(data)

    def test_engine_auto_splits_and_merges_in_index_order(self):
        spec = SCENARIOS.build("mixed-harvester-city", num_devices=12)
        result = FleetRunner(spec, workers=1).run()
        assert [d.index for d in result.devices] == list(range(12))


class TestPackedWireForm:
    def test_round_trip_is_exact(self):
        spec = SCENARIOS.build("mixed-harvester-city", num_devices=12)
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        results = BatchedFleetEngine(tasks).run()
        clones = unpack_device_results(pack_device_results(results))
        assert json.dumps(
            [r.to_dict(include_timing=True) for r in results], sort_keys=True
        ) == json.dumps(
            [r.to_dict(include_timing=True) for r in clones], sort_keys=True
        )
        # Plain Python types after the round trip (JSON-safe without
        # numpy-aware encoders).
        clone = clones[0]
        assert type(clone.index) is int
        assert type(clone.iepmj) is float
        assert all(type(c) is int for c in clone.exit_counts)
        assert all(type(v) is int for v in clone.miss_counts.values())

    def test_packed_payload_is_smaller_than_dataclass_pickle(self):
        import pickle

        spec = SCENARIOS.build("solar-farm-100", num_devices=16)
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        results = BatchedFleetEngine(tasks).run()
        packed = len(pickle.dumps(pack_device_results(results)))
        plain = len(pickle.dumps(list(results)))
        assert packed < plain


class TestParallelFallback:
    def test_small_fleet_falls_back_to_serial(self):
        spec = SCENARIOS.build("dev-smoke", num_devices=5)
        runner = FleetRunner(spec, workers=4)
        result = runner.run()
        assert not runner.last_run_parallel
        assert result.workers == 1  # timing section reports what really ran

    def test_explicit_threshold_forces_pool(self):
        spec = SCENARIOS.build("dev-smoke", num_devices=5)
        runner = FleetRunner(spec, workers=2, parallel_threshold=1)
        result = runner.run()
        assert runner.last_run_parallel
        assert result.workers == 2

    def test_threshold_validation(self):
        with pytest.raises(ConfigError, match="parallel_threshold"):
            FleetRunner(SCENARIOS.build("dev-smoke"), parallel_threshold=0)

    def test_dispatch_plan_is_what_run_does(self):
        spec = SCENARIOS.build("dev-smoke", num_devices=5)
        assert FleetRunner(spec, workers=4).dispatch_plan() == (1, 1)
        runner = FleetRunner(spec, workers=2, parallel_threshold=1, chunksize=2)
        assert runner.dispatch_plan() == (2, 3)
        with recording(Recorder(metrics=True)) as rec:
            result = runner.run()
        assert runner.last_run_parallel and result.workers == 2
        assert rec.metrics.counter_value("batch.engine.runs") == 3


#: Trace families with cheap synthesis for the property test.
_FAMILY = st.sampled_from(["solar", "rf", "piezo", "constant"])
_PRESET = st.sampled_from(sorted(CONTROLLER_PRESETS))
_RULE = st.sampled_from(
    [
        None,
        {"kind": "threshold", "entropy_threshold": 0.4},
        {"kind": "learned"},
    ]
)
#: Weighted toward single-cycle; intermittent still appears regularly.
_EXECUTION = st.sampled_from(
    ["single-cycle", "single-cycle", "intermittent"]
)


@st.composite
def tiny_fleets(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    duration = draw(st.sampled_from([200.0, 350.0]))
    devices = []
    for i in range(n):
        family = draw(_FAMILY)
        trace = {"family": family, "duration": duration, "dt": 1.0}
        if family == "constant":
            trace["power_mw"] = draw(st.sampled_from([0.01, 0.04]))
        elif family == "solar":
            trace["peak_mw"] = 0.03
        events = draw(
            st.sampled_from(
                [{"kind": "uniform", "count": 12}, {"kind": "poisson", "rate_hz": 0.05}]
            )
        )
        execution = draw(_EXECUTION)
        storage = {"capacity_mj": draw(st.sampled_from([1.5, 2.0, 3.0]))}
        if execution == "intermittent" and draw(st.booleans()):
            # Many-cycle stress shape: a weak, steady harvester against a
            # small capacitor forces long charge/compute ladders (dozens
            # of power cycles per event) — exactly the runs the
            # event-batched kernel fuses hardest, so equivalence here
            # guards the fused-chain commit logic, not just the happy
            # one-cycle path.
            trace = {
                "family": "constant", "duration": duration, "dt": 1.0,
                "power_mw": draw(st.sampled_from([0.004, 0.008])),
            }
            storage = {"capacity_mj": draw(st.sampled_from([0.4, 0.7]))}
        controller = controller_preset(draw(_PRESET))
        rule = draw(_RULE)
        if rule is not None:
            controller["continue_rule"] = dict(rule)
        devices.append(
            DeviceSpec(
                name=f"hyp-{i}",
                trace=trace,
                controller=controller,
                storage=storage,
                events=events,
                episodes=draw(st.integers(min_value=1, max_value=4)),
                execution=execution,
            )
        )
    return FleetSpec(
        name="hyp-fleet", seed=draw(st.integers(min_value=0, max_value=2**16)),
        devices=devices,
    )


class TestSeedPaths:
    """Seeds on and off the vectorized seeding path.  The engine seeds a
    build window's device seeds, events and simulator streams, and its
    trace rows, in bulk when every word is in [0, 2**32), and hands any
    other seed to numpy: either way it equals the scalar oracle, which
    seeds every stream through numpy itself."""

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32 + 1])
    def test_fleet_seed(self, seed, oracle):
        spec = SCENARIOS.build("dev-smoke", seed=seed)
        assert spec.seed == seed
        assert _payload(FleetRunner(spec).run()) == _payload(oracle(spec))

    @pytest.mark.parametrize("value", [0, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("part,key", [("trace", "seed"), ("events", "rng")])
    def test_pinned_stream_seed(self, part, key, value, oracle):
        devices = [
            dataclasses.replace(d, **{part: {**getattr(d, part), key: value}})
            if i % 2 else d
            for i, d in enumerate(SCENARIOS.build("dev-smoke", seed=11).devices)
        ]
        spec = FleetSpec(name="pinned", seed=11, devices=devices)
        assert _payload(FleetRunner(spec).run()) == _payload(oracle(spec))

    def test_fleet_spanning_two_build_windows(self, oracle):
        spec = SCENARIOS.build("megacity-1m", num_devices=300)
        assert spec.num_devices > _BUILD_WINDOW
        assert _payload(FleetRunner(spec).run()) == _payload(oracle(spec))


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


class TestBuildWindow:
    """Every way a build window can hand a device its trace — a stack
    row, a row shared by two devices pinning one seed, a memo hit, a
    csv or constant trace built at the device's own turn — gives the
    scalar oracle's results.  Engine and oracle each build on a cold
    memo, so neither serves the other's traces."""

    CSV = os.path.join(os.path.dirname(__file__), "golden", "csv", "harvest_2col.csv")
    TRACES = (
        {"family": "solar", "duration": 120.0, "dt": 1.0, "peak_mw": 0.03},
        {"family": "wind", "duration": 120.0, "dt": 1.0},
        {"family": "csv", "path": CSV},
        {"family": "rf", "duration": 90.0, "dt": 0.5},
        {"family": "constant", "power_mw": 0.02, "duration": 120.0, "dt": 1.0},
        {"family": "piezo", "duration": 120.0, "dt": 1.0},
        {"family": "kinetic", "duration": 120.0, "dt": 1.0},
    )

    def _fleet(self, n, pinned=4):
        """``n`` devices cycling through the trace kinds and both
        execution models; every ``pinned``-th seeded trace pins seed 5."""
        specs = []
        for i in range(n):
            trace = dict(self.TRACES[i % len(self.TRACES)])
            if i % pinned == 0 and trace["family"] not in ("csv", "constant"):
                trace["seed"] = 5
            extra = {}
            if i % 5 == 2:
                extra = dict(
                    execution="intermittent",
                    profile="sonic-single-exit",
                    controller={"kind": "fixed", "exit_index": 0},
                )
            specs.append(
                DeviceSpec(
                    name=f"w{i}",
                    trace=trace,
                    events={"kind": "uniform", "count": 6},
                    **extra,
                )
            )
        return FleetSpec(name="window-fleet", seed=19, devices=specs)

    def _check(self, spec, oracle):
        with _cold_memo():
            want = _payload(oracle(spec))
        with _cold_memo():
            assert _payload(FleetRunner(spec, workers=1).run()) == want

    def test_two_devices_pinning_one_trace_seed(self, oracle):
        spec = self._fleet(8, pinned=7)
        pins = [d.trace for d in spec.devices if "seed" in d.trace]
        assert len(pins) == 2 and pins[0] == pins[1]
        self._check(spec, oracle)

    def test_stacked_families_mixed_with_csv_and_constant(self, oracle):
        spec = self._fleet(21)
        families = {d.trace["family"] for d in spec.devices}
        assert {"csv", "constant", "solar", "rf"} <= families
        self._check(spec, oracle)

    def test_fleet_across_a_window_boundary(self, oracle):
        spec = self._fleet(_BUILD_WINDOW + 9)
        self._check(spec, oracle)

    def test_seeded_fleet_never_calls_build_trace(self):
        """A window takes every seeded trace from the memo or a stack row
        (devices pinning one seed share a row): no device calls
        ``build_trace``, and a second build of the fleet in one process
        synthesizes no row."""
        seeded = [
            d for d in self._fleet(21, pinned=7).devices
            if d.trace["family"] not in ("csv", "constant")
        ]
        tasks = [(i, d, 19) for i, d in enumerate(seeded)]
        distinct = {
            json.dumps({"seed": device_seeds(i, 19)[0], **d.trace}, sort_keys=True)
            for i, d, _ in tasks
        }
        rows = []

        def stacks(family, params):
            rows.append(len(params))
            return synthesize_stacks(family, params)

        build = mock.Mock(wraps=devices.build_trace)
        with (
            _cold_memo(),
            mock.patch.object(devices, "synthesize_stacks", stacks),
            mock.patch.object(devices, "build_trace", build),
            mock.patch.object(batch, "build_trace", build),
        ):
            BatchedFleetEngine(tasks)
            first = sum(rows)
            rows.clear()
            BatchedFleetEngine(tasks)
        assert build.call_count == 0
        assert first == len(distinct) < len(tasks)
        assert sum(rows) == 0

    def test_same_fleet_built_twice_in_one_process(self, oracle):
        """The second build reads its traces from the memo the first
        filled; both equal the oracle."""
        spec = self._fleet(21)
        with _cold_memo():
            want = _payload(oracle(spec))
        with _cold_memo():
            first = _payload(FleetRunner(spec, workers=1).run())
            second = _payload(FleetRunner(spec, workers=1).run())
        assert first == second == want


class TestPropertyEquivalence:
    @settings(max_examples=examples(12), deadline=None)
    @given(spec=tiny_fleets())
    def test_random_small_fleets_agree(self, spec, oracle):
        batched = FleetRunner(spec, workers=1).run()
        assert _payload(batched) == _payload(oracle(spec))


@pytest.mark.fleet_heavy
class TestFullScaleBatch:
    def test_city_block_1k_batched_serial_and_parallel_agree(self):
        spec = SCENARIOS.build("city-block-1k")
        assert spec.num_devices == 1000
        serial = FleetRunner(spec, workers=1).run()
        parallel = FleetRunner(spec, workers=4, parallel_threshold=1).run()
        assert serial.num_devices == 1000
        assert _payload(serial) == _payload(parallel)

    def test_city_block_1k_batched_equals_device_sample(self, oracle):
        """Spot-check the engine against the oracle at real scale on a
        slice (a full 1000-device oracle run would double the lane's cost)."""
        spec = SCENARIOS.build("city-block-1k", num_devices=64)
        assert _payload(FleetRunner(spec).run()) == _payload(oracle(spec))

    @pytest.mark.parametrize(
        "name", ["brownout-grid-256", "duty-cycle-farm-512"]
    )
    def test_intermittency_heavy_scenarios_full_scale(self, name, oracle):
        """The intermittency-heavy scenarios at their registered size:
        serial == parallel, and an oracle cross-check on a slice."""
        spec = SCENARIOS.build(name)
        serial = FleetRunner(spec, workers=1).run()
        parallel = FleetRunner(spec, workers=4, parallel_threshold=1).run()
        assert _payload(serial) == _payload(parallel)
        small = SCENARIOS.build(name, num_devices=32)
        assert _payload(FleetRunner(small).run()) == _payload(oracle(small))
