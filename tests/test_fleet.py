"""Fleet subsystem tests: specs, registry, runner determinism, CLI.

The expensive full-scale checks (``solar-farm-100`` end to end) carry the
``fleet_heavy`` marker so CI's fast lane can deselect them with
``-m "not fleet_heavy"``; everything else stays in the seconds range.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fleet import (
    SCENARIOS,
    DeviceSpec,
    FleetRunner,
    FleetSpec,
    ScenarioRegistry,
    run_device,
    run_fleet,
)
from repro.fleet.runner import build_trace, resolve_profile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_device(name="dev", **overrides) -> DeviceSpec:
    base = dict(
        name=name,
        trace={"family": "solar", "duration": 400.0, "dt": 1.0, "peak_mw": 0.03},
        controller={"kind": "greedy"},
        events={"kind": "uniform", "count": 15},
    )
    base.update(overrides)
    return DeviceSpec(**base)


def tiny_fleet(n=3, seed=5) -> FleetSpec:
    return FleetSpec(
        name="tiny", seed=seed, devices=[tiny_device(f"dev-{i}") for i in range(n)]
    )


class TestDeviceSpec:
    def test_roundtrip(self):
        spec = tiny_device(
            profile={"name": "inline", "exit_accuracies": [0.7],
                     "exit_energy_mj": [0.5], "exit_flops": [1e5]},
            episodes=4,
        )
        clone = DeviceSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_unknown_field_rejected(self):
        data = tiny_device().to_dict()
        data["battery"] = {}
        with pytest.raises(ConfigError, match="battery"):
            DeviceSpec.from_dict(data)

    def test_validation_names_offender(self):
        with pytest.raises(ConfigError, match="plutonium"):
            tiny_device(trace={"family": "plutonium"})
        with pytest.raises(ConfigError, match="bandit"):
            tiny_device(controller={"kind": "bandit"})
        with pytest.raises(ConfigError, match="storm"):
            tiny_device(events={"kind": "storm"})
        with pytest.raises(ConfigError, match="warp"):
            tiny_device(execution="warp")
        with pytest.raises(ConfigError, match="mystery-net"):
            tiny_device(profile="mystery-net")
        with pytest.raises(ConfigError, match="episodes"):
            tiny_device(episodes=0)

    def test_zoo_profile_reference_is_valid_spec(self):
        # Spec-level validation only; resolution is the runner's job.
        spec = tiny_device(profile="zoo:multi_exit_lenet")
        assert DeviceSpec.from_dict(spec.to_dict()) == spec


class TestFleetSpec:
    def test_json_roundtrip(self, tmp_path):
        spec = tiny_fleet()
        path = tmp_path / "fleet.json"
        spec.to_json(str(path))
        clone = FleetSpec.from_json(str(path))
        assert clone == spec

    def test_needs_devices(self):
        with pytest.raises(ConfigError, match="no devices"):
            FleetSpec(name="empty", devices=[])

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigError, match="seed"):
            FleetSpec(name="f", devices=[tiny_device()], seed="42")

    def test_non_int_seed_in_file_rejected_not_truncated(self):
        data = tiny_fleet().to_dict()
        data["seed"] = 4.5
        with pytest.raises(ConfigError, match="seed"):
            FleetSpec.from_dict(data)
        data["seed"] = "abc"
        with pytest.raises(ConfigError, match="seed"):
            FleetSpec.from_dict(data)

    def test_unknown_top_level_field_rejected(self):
        data = tiny_fleet().to_dict()
        data["sed"] = 99  # misspelled "seed" must not silently vanish
        with pytest.raises(ConfigError, match="sed"):
            FleetSpec.from_dict(data)

    def test_malformed_json_wrapped(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"')
        with pytest.raises(ConfigError, match="cannot load fleet spec"):
            FleetSpec.from_json(str(path))


class TestScenarioRegistry:
    def test_builtins_registered(self):
        names = SCENARIOS.names()
        for expected in (
            "solar-farm-100",
            "indoor-rf-swarm",
            "mixed-harvester-city",
            "dev-smoke",
        ):
            assert expected in names

    def test_solar_farm_default_size(self):
        assert SCENARIOS.build("solar-farm-100").num_devices == 100

    def test_overrides_reach_factory(self):
        spec = SCENARIOS.build("solar-farm-100", num_devices=7, seed=1)
        assert spec.num_devices == 7
        assert spec.seed == 1

    def test_layout_is_deterministic_in_seed(self):
        a = SCENARIOS.build("mixed-harvester-city", num_devices=10, seed=3)
        b = SCENARIOS.build("mixed-harvester-city", num_devices=10, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            SCENARIOS.build("atlantis")

    def test_unknown_override_raises_config_error(self):
        with pytest.raises(ConfigError, match="dev-smoke"):
            SCENARIOS.build("dev-smoke", bogus=1)

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()

        @registry.register("x")
        def factory():
            return tiny_fleet()

        with pytest.raises(ConfigError, match="already registered"):
            registry.register("x")(factory)

    def test_all_builtin_scenarios_expand(self):
        import inspect

        for name in SCENARIOS.names():
            params = inspect.signature(SCENARIOS.factory(name)).parameters
            if "device_range" in params:
                # Megacity-scale scenarios are sliceable by design; a full
                # default expansion (1M DeviceSpecs) belongs to the shard
                # runner, not a unit test.
                spec = SCENARIOS.build(name, device_range=(0, 8))
            else:
                spec = SCENARIOS.build(name)
            assert spec.num_devices >= 1


class TestProfiles:
    def test_inline_dict(self):
        profile = resolve_profile(
            {"name": "p", "exit_accuracies": [0.6], "exit_energy_mj": [0.5],
             "exit_flops": [1e5]}
        )
        assert profile.num_exits == 1

    def test_named_profiles_cached_per_process(self):
        assert resolve_profile("paper-multi-exit") is resolve_profile("paper-multi-exit")

    def test_unresolvable_raises(self):
        with pytest.raises(ConfigError):
            resolve_profile(3.14)

    def test_runner_binds_the_device_builders_themselves(self):
        """perfbench wraps the builders by their repro.fleet.runner names;
        a wrapper reaches materialize() only if those are the very
        repro.sim.devices objects."""
        from repro.fleet import runner
        from repro.sim import devices

        for name in ("build_trace", "build_events", "resolve_profile",
                     "build_storage", "build_mcu", "build_controller"):
            assert getattr(runner, name) is getattr(devices, name)


class TestTraceCache:
    SPEC = {"family": "solar", "duration": 400.0, "dt": 1.0, "peak_mw": 0.03}

    def test_repeated_device_spec_builds_share_one_trace(self):
        """Identical (family, params, seed) must hit the per-process memo:
        equal-valued AND the cached-identical object."""
        first = build_trace(dict(self.SPEC), fallback_seed=99)
        second = build_trace(dict(self.SPEC), fallback_seed=99)
        assert second is first
        np.testing.assert_array_equal(first.samples_mw, second.samples_mw)

    def test_different_seed_is_a_different_trace(self):
        a = build_trace(dict(self.SPEC), fallback_seed=98)
        b = build_trace(dict(self.SPEC), fallback_seed=99)
        assert a is not b
        assert not np.array_equal(a.samples_mw, b.samples_mw)

    def test_explicit_seed_beats_fallback_and_caches(self):
        pinned = dict(self.SPEC, seed=123)
        a = build_trace(dict(pinned), fallback_seed=1)
        b = build_trace(dict(pinned), fallback_seed=2)
        assert b is a

    def test_unhashable_param_skips_cache(self):
        rng = np.random.default_rng(0)
        a = build_trace(dict(self.SPEC, seed=rng), fallback_seed=0)
        b = build_trace(dict(self.SPEC, seed=rng), fallback_seed=0)
        assert a is not b  # live Generator cannot key a deterministic memo

    def test_run_device_results_unchanged_by_cache_hits(self):
        """A warm cache must never change simulated results — only speed."""
        task = (0, tiny_device(), 5)
        cold = run_device(task).to_dict()
        warm = run_device(task).to_dict()
        assert cold == warm


class TestRunner:
    def test_run_device_consistency(self):
        result = run_device((0, tiny_device(), 5))
        assert result.num_events == 15
        assert result.num_processed + result.num_missed == result.num_events
        assert result.iepmj == pytest.approx(
            result.num_correct / result.total_env_energy_mj
        )
        assert sum(result.miss_counts.values()) == result.num_missed

    def test_serial_run_is_deterministic(self):
        spec = tiny_fleet()
        a = run_fleet(spec).to_dict()
        b = run_fleet(spec).to_dict()
        assert a == b

    def test_parallel_matches_serial_bitwise(self):
        spec = SCENARIOS.build("dev-smoke", num_devices=5)
        serial = FleetRunner(spec, workers=1).run()
        parallel = FleetRunner(spec, workers=2, chunksize=1).run()
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_device_index_pins_streams(self):
        """Same device spec at different indices sees different randomness."""
        spec = tiny_fleet(n=2)
        result = run_fleet(spec)
        a, b = result.devices
        assert (a.num_correct, a.total_env_energy_mj) != (
            b.num_correct,
            b.total_env_energy_mj,
        )

    def test_aggregate_sums_devices(self):
        result = run_fleet(tiny_fleet(n=3))
        agg = result.aggregate()
        assert agg["events"] == sum(d.num_events for d in result.devices)
        assert agg["correct"] == sum(d.num_correct for d in result.devices)
        total_energy = sum(d.total_env_energy_mj for d in result.devices)
        assert agg["fleet_iepmj"] == pytest.approx(agg["correct"] / total_energy)
        assert sum(agg["miss_counts"].values()) == agg["missed"]

    def test_mixed_scenario_runs_both_execution_models(self):
        spec = SCENARIOS.build("mixed-harvester-city", num_devices=12)
        assert {d.execution for d in spec.devices} == {"single-cycle", "intermittent"}
        result = run_fleet(spec)
        assert result.num_devices == 12

    def test_typoed_build_params_become_config_errors(self):
        """Typo'd constructor params must surface as spec problems."""
        with pytest.raises(ConfigError, match="storage"):
            run_device((0, tiny_device(storage={"capacity": 3.0}), 5))
        with pytest.raises(ConfigError, match="solar trace"):
            run_device((0, tiny_device(trace={"family": "solar", "durationn": 100.0}), 5))
        with pytest.raises(ConfigError, match="mcu"):
            run_device((0, tiny_device(mcu={"thoughput_mflops": 1.0}), 5))
        with pytest.raises(ConfigError, match="controller"):
            run_device((0, tiny_device(controller={"kind": "greedy", "reserve": 0.5}), 5))
        with pytest.raises(ConfigError, match="events"):
            run_device((0, tiny_device(events={"kind": "uniform"}), 5))

    def test_bad_worker_config_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            FleetRunner(tiny_fleet(), workers=-1)
        with pytest.raises(ConfigError, match="chunksize"):
            FleetRunner(tiny_fleet(), chunksize=0)
        with pytest.raises(ConfigError, match="FleetSpec"):
            FleetRunner("solar-farm-100")


class TestCLI:
    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.fleet", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        )

    def test_list(self):
        proc = self._run("list")
        assert proc.returncode == 0
        assert "solar-farm-100" in proc.stdout

    def test_run_smoke_with_json(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run("run", "dev-smoke", "--workers", "1", "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["aggregate"]["fleet"] == "dev-smoke"
        # One device per harvesting family, so the smoke lane exercises
        # every trace builder (including wind).
        assert len(report["devices"]) == 5
        assert any(d["name"].startswith("smoke-wind") for d in report["devices"])

    def test_unknown_scenario_exits_nonzero(self):
        proc = self._run("run", "atlantis")
        assert proc.returncode == 2
        assert "unknown scenario" in proc.stderr

    def test_spec_file_rejects_scenario_overrides(self, tmp_path):
        path = tmp_path / "fleet.json"
        tiny_fleet().to_json(str(path))
        proc = self._run("run", "--spec", str(path), "--seed", "99")
        assert proc.returncode == 2
        assert "named scenarios only" in proc.stderr

    def test_scenario_name_conflicts_with_spec_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        tiny_fleet().to_json(str(path))
        proc = self._run("run", "solar-farm-100", "--spec", str(path))
        assert proc.returncode == 2
        assert "pick one" in proc.stderr


@pytest.mark.fleet_heavy
class TestFullScale:
    def test_solar_farm_100_parallel_equals_serial(self):
        spec = SCENARIOS.build("solar-farm-100")
        serial = FleetRunner(spec, workers=1).run()
        parallel = FleetRunner(spec, workers=4).run()
        assert serial.num_devices == 100
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )


class TestFleetExitDepth:
    """exit_counts / mean_exit_depth — the campaign layer's depth hooks."""

    def test_exit_counts_pad_mixed_profile_widths(self):
        result = run_fleet(tiny_fleet(n=2))
        a, b = result.devices
        # Device histograms sum into the fleet histogram, padded to the
        # deepest profile.
        width = max(len(a.exit_counts), len(b.exit_counts))
        expected = [
            (a.exit_counts[i] if i < len(a.exit_counts) else 0)
            + (b.exit_counts[i] if i < len(b.exit_counts) else 0)
            for i in range(width)
        ]
        assert result.exit_counts() == expected

    def test_mean_exit_depth_matches_histogram(self):
        result = run_fleet(tiny_fleet(n=3))
        counts = result.exit_counts()
        total = sum(counts)
        assert total > 0
        expected = sum(i * c for i, c in enumerate(counts)) / total
        assert result.mean_exit_depth == pytest.approx(expected)
        assert result.aggregate()["mean_exit_depth"] == pytest.approx(expected)

    def test_empty_histogram_is_zero_depth(self):
        from repro.fleet.results import FleetResult

        empty = FleetResult(fleet_name="x", seed=0, devices=[])
        assert empty.exit_counts() == []
        assert empty.mean_exit_depth == 0.0
