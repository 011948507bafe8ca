"""Named, parameterized fleet scenarios.

A scenario is a factory that expands a handful of knobs (device count,
seed, trace duration) into a full :class:`~repro.fleet.spec.FleetSpec`.
The registry makes scenarios addressable from the CLI
(``python -m repro.fleet run solar-farm-100``) and from tests/benchmarks,
the way the related device-server repos register per-device servers by
name.

Per-device heterogeneity (panel sizes, link budgets, machine duty cycles)
is drawn from a generator pinned by the scenario seed, so a scenario name
plus a seed pins the *whole fleet layout*; the runner then derives each
device's simulation streams from the same seed by index.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.fleet.spec import DeviceSpec, FleetSpec, check_seed
from repro.utils.rng import generators


class ScenarioRegistry:
    """Name -> spec-factory mapping with descriptions.

    ``kind`` only flavors error messages — the campaign layer reuses this
    class for its own registry of named sweep grids.
    """

    def __init__(self, kind: str = "scenario"):
        self.kind = kind
        self._factories: dict = {}
        self._descriptions: dict = {}

    def register(self, name: str, description: str = ""):
        """Decorator: register ``factory(num_devices, seed, duration)``."""

        def decorate(factory):
            if name in self._factories:
                raise ConfigError(f"{self.kind} {name!r} already registered")
            self._factories[name] = factory
            self._descriptions[name] = description or (factory.__doc__ or "").strip()
            return factory

        return decorate

    def names(self) -> list:
        return sorted(self._factories)

    def factory(self, name: str):
        """The raw registered factory — the shard layer inspects its
        signature to see whether it supports ``device_range`` slicing."""
        self._require(name)
        return self._factories[name]

    def describe(self, name: str) -> str:
        self._require(name)
        return self._descriptions[name]

    def _require(self, name: str) -> None:
        if name not in self._factories:
            raise ConfigError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )

    def build(self, name: str, **overrides):
        """Expand a named entry; ``overrides`` reach the factory (a
        ``seed`` only once :func:`~repro.fleet.spec.check_seed` passes it)."""
        self._require(name)
        if "seed" in overrides:
            check_seed(f"{self.kind} {name!r}", "seed", overrides["seed"])
        try:
            return self._factories[name](**overrides)
        except TypeError as exc:
            raise ConfigError(f"{self.kind} {name!r}: {exc}") from exc


#: The global registry the CLI and tests resolve against.
SCENARIOS = ScenarioRegistry()


def _layout_rng(seed: int) -> np.random.Generator:
    # Distinct spawn_key keeps fleet-layout draws decoupled from the
    # per-device simulation streams derived from the same seed.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xF1EE7,)))


@SCENARIOS.register(
    "solar-farm-100",
    "100 rooftop solar sensor nodes with heterogeneous panels and cloud "
    "fields, Q-learning runtimes, paper-regime multi-exit deployment.",
)
def solar_farm(num_devices: int = 100, seed: int = 42, duration: float = 7200.0) -> FleetSpec:
    gen = _layout_rng(seed)
    devices = []
    for i in range(num_devices):
        peak = 0.027 * float(gen.uniform(0.8, 1.2))      # panel size/tilt spread
        phase = float(gen.uniform(-0.05, 0.05))          # east/west orientation
        devices.append(
            DeviceSpec(
                name=f"solar-{i:03d}",
                trace={
                    "family": "solar",
                    "duration": duration,
                    "dt": 1.0,
                    "peak_mw": peak,
                    "phase": phase,
                },
                profile="paper-multi-exit",
                controller={"kind": "qlearning", "epsilon": 0.25, "epsilon_decay": 0.9},
                events={"kind": "uniform", "count": 80},
                episodes=3,
            )
        )
    return FleetSpec(
        name="solar-farm-100",
        seed=seed,
        description="heterogeneous rooftop solar farm",
        devices=devices,
    )


@SCENARIOS.register(
    "indoor-rf-swarm",
    "40 RF-harvesting indoor tags on weak, fading links; static-LUT and "
    "greedy runtimes under Poisson arrivals.",
)
def indoor_rf_swarm(num_devices: int = 40, seed: int = 17, duration: float = 5400.0) -> FleetSpec:
    gen = _layout_rng(seed)
    devices = []
    for i in range(num_devices):
        mean = float(gen.uniform(0.004, 0.012))          # distance to the RF source
        controller = (
            {"kind": "static-lut"} if i % 2 == 0 else
            {"kind": "greedy", "reserve_fraction": 0.25}
        )
        devices.append(
            DeviceSpec(
                name=f"rf-{i:03d}",
                trace={
                    "family": "rf",
                    "duration": duration,
                    "dt": 0.5,
                    "mean_mw": mean,
                },
                profile="paper-multi-exit",
                controller=controller,
                events={"kind": "poisson", "rate_hz": 0.01},
            )
        )
    return FleetSpec(
        name="indoor-rf-swarm",
        seed=seed,
        description="weak-RF indoor tag swarm",
        devices=devices,
    )


@SCENARIOS.register(
    "mixed-harvester-city",
    "City-scale mix: solar rooftops, wind masts, piezo machine mounts, "
    "kinetic wearables, and RF tags, including SONIC-style intermittent "
    "baseline nodes.",
)
def mixed_harvester_city(num_devices: int = 60, seed: int = 23, duration: float = 5400.0) -> FleetSpec:
    gen = _layout_rng(seed)
    devices = []
    for i in range(num_devices):
        family = ("solar", "wind", "piezo", "kinetic", "rf")[i % 5]
        if family == "solar":
            trace = {
                "family": "solar",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": 0.027 * float(gen.uniform(0.7, 1.3)),
            }
        elif family == "wind":
            trace = {
                "family": "wind",
                "duration": duration,
                "dt": 0.5,
                "peak_mw": float(gen.uniform(0.03, 0.09)),
                "gust_rate_hz": float(gen.uniform(0.003, 0.01)),
            }
        elif family == "piezo":
            trace = {
                "family": "piezo",
                "duration": duration,
                "dt": 0.5,
                "peak_mw": float(gen.uniform(0.02, 0.06)),
                "duty_cycle": float(gen.uniform(0.3, 0.7)),
            }
        elif family == "kinetic":
            trace = {
                "family": "kinetic",
                "duration": duration,
                "dt": 0.5,
                "burst_power_mw": float(gen.uniform(0.05, 0.12)),
                "burst_rate_hz": 0.004,
                "burst_length_s": 120.0,
                "base_mw": 0.001,
            }
        else:
            trace = {
                "family": "rf",
                "duration": duration,
                "dt": 0.5,
                "mean_mw": float(gen.uniform(0.005, 0.015)),
            }
        # Every 6th node is a SONIC-style intermittent baseline, so the
        # report contrasts execution models inside one fleet.
        if i % 6 == 5:
            profile, controller, execution = (
                "sonic-single-exit",
                {"kind": "fixed", "exit_index": 0},
                "intermittent",
            )
        else:
            profile, controller, execution = (
                "paper-multi-exit",
                {"kind": "qlearning", "epsilon": 0.25, "epsilon_decay": 0.9},
                "single-cycle",
            )
        devices.append(
            DeviceSpec(
                name=f"{family}-{i:03d}",
                trace=trace,
                profile=profile,
                controller=controller,
                events={"kind": "uniform", "count": 60},
                execution=execution,
                episodes=2 if controller["kind"] == "qlearning" else 1,
            )
        )
    return FleetSpec(
        name="mixed-harvester-city",
        seed=seed,
        description="mixed-harvester city deployment",
        devices=devices,
    )


@SCENARIOS.register(
    "city-block-1k",
    "1000 mixed-harvester devices across one city block — the batched "
    "lockstep engine's full-scale workload (fleet_heavy CI lane).  Solar "
    "rooftops, wind masts, piezo machine mounts, kinetic wearables, and "
    "RF tags; controllers rotate through the preset families and every "
    "8th node is a SONIC-style intermittent baseline.",
)
def city_block(num_devices: int = 1000, seed: int = 31, duration: float = 3600.0) -> FleetSpec:
    gen = _layout_rng(seed)
    controllers = (
        {"kind": "qlearning", "epsilon": 0.25, "epsilon_decay": 0.9},
        {"kind": "static-lut"},
        {"kind": "greedy", "reserve_fraction": 0.2},
        {"kind": "fixed", "exit_index": 0},
    )
    devices = []
    for i in range(num_devices):
        family = ("solar", "wind", "piezo", "kinetic", "rf")[i % 5]
        if family == "solar":
            trace = {
                "family": "solar",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": 0.027 * float(gen.uniform(0.75, 1.25)),
            }
        elif family == "wind":
            trace = {
                "family": "wind",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": float(gen.uniform(0.03, 0.09)),
                "gust_rate_hz": float(gen.uniform(0.003, 0.01)),
            }
        elif family == "piezo":
            trace = {
                "family": "piezo",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": float(gen.uniform(0.02, 0.06)),
                "duty_cycle": float(gen.uniform(0.3, 0.7)),
            }
        elif family == "kinetic":
            trace = {
                "family": "kinetic",
                "duration": duration,
                "dt": 1.0,
                "burst_power_mw": float(gen.uniform(0.05, 0.12)),
                "burst_rate_hz": 0.005,
                "burst_length_s": 90.0,
                "base_mw": 0.001,
            }
        else:
            trace = {
                "family": "rf",
                "duration": duration,
                "dt": 1.0,
                "mean_mw": float(gen.uniform(0.005, 0.015)),
            }
        if i % 8 == 7:
            # Intermittent baseline nodes put the multi-cycle kernel
            # inside the batched engine's full-scale workload.
            profile, controller, execution = (
                "sonic-single-exit",
                {"kind": "fixed", "exit_index": 0},
                "intermittent",
            )
        else:
            profile, execution = "paper-multi-exit", "single-cycle"
            controller = dict(controllers[i % len(controllers)])
        devices.append(
            DeviceSpec(
                name=f"{family}-{i:04d}",
                trace=trace,
                profile=profile,
                controller=controller,
                events={"kind": "uniform", "count": 40},
                execution=execution,
                episodes=2 if controller["kind"] == "qlearning" else 1,
            )
        )
    return FleetSpec(
        name="city-block-1k",
        seed=seed,
        description="1000-device mixed-harvester city block",
        devices=devices,
    )


@SCENARIOS.register(
    "brownout-grid-256",
    "256 urban grid-edge sensors riding brownout-prone harvesters: weak "
    "RF links and shaded solar with undersized capacitors, so devices "
    "power-cycle constantly.  Every other node is a SONIC-style "
    "intermittent baseline; the single-cycle half mixes Q-learning and "
    "greedy runtimes with threshold/learned continue rules — every "
    "device class the batched engine vectorizes, in one fleet.",
)
def brownout_grid(num_devices: int = 256, seed: int = 47, duration: float = 1800.0) -> FleetSpec:
    gen = _layout_rng(seed)
    devices = []
    for i in range(num_devices):
        family = ("rf", "solar", "piezo")[i % 3]
        if family == "rf":
            trace = {
                "family": "rf",
                "duration": duration,
                "dt": 1.0,
                "mean_mw": float(gen.uniform(0.003, 0.009)),
            }
        elif family == "solar":
            trace = {
                "family": "solar",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": 0.02 * float(gen.uniform(0.5, 1.0)),
                "cloud_bias": 0.8,  # heavy occlusion: long brown-out dips
            }
        else:
            trace = {
                "family": "piezo",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": float(gen.uniform(0.015, 0.04)),
                "duty_cycle": float(gen.uniform(0.25, 0.5)),
            }
        storage = {
            "capacity_mj": float(gen.uniform(0.8, 1.4)),
            "initial_fraction": 0.3,
        }
        if i % 2 == 1:
            profile, controller, execution = (
                "sonic-single-exit",
                {"kind": "fixed", "exit_index": 0},
                "intermittent",
            )
        else:
            profile, execution = "paper-multi-exit", "single-cycle"
            if i % 4 == 0:
                controller = {
                    "kind": "qlearning",
                    "epsilon": 0.25,
                    "epsilon_decay": 0.9,
                    "continue_rule": {"kind": "learned", "epsilon": 0.2},
                }
            else:
                controller = {
                    "kind": "greedy",
                    "reserve_fraction": 0.15,
                    "continue_rule": {
                        "kind": "threshold",
                        "entropy_threshold": 0.45,
                    },
                }
        devices.append(
            DeviceSpec(
                name=f"{family}-{i:03d}",
                trace=trace,
                profile=profile,
                controller=controller,
                storage=storage,
                events={"kind": "poisson", "rate_hz": 0.015},
                execution=execution,
                episodes=2 if controller["kind"] == "qlearning" else 1,
            )
        )
    return FleetSpec(
        name="brownout-grid-256",
        seed=seed,
        description="brownout-prone urban grid-edge sensors",
        devices=devices,
    )


@SCENARIOS.register(
    "duty-cycle-farm-512",
    "512 machine-mounted piezo/kinetic harvesters on a factory floor of "
    "duty-cycled equipment.  Every 4th mount is a SONIC-style "
    "intermittent baseline waiting out the off-cycles; the rest run "
    "multi-exit inference with learned continue rules, leaking a little "
    "charge between shifts — the batched engine's largest "
    "intermittency-heavy workload after city-block-1k.",
)
def duty_cycle_farm(num_devices: int = 512, seed: int = 53, duration: float = 1800.0) -> FleetSpec:
    gen = _layout_rng(seed)
    devices = []
    for i in range(num_devices):
        if i % 2 == 0:
            trace = {
                "family": "piezo",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": float(gen.uniform(0.02, 0.05)),
                "duty_cycle": float(gen.uniform(0.3, 0.6)),
                "cycle_period_s": float(gen.uniform(90.0, 180.0)),
            }
        else:
            trace = {
                "family": "kinetic",
                "duration": duration,
                "dt": 1.0,
                "burst_power_mw": float(gen.uniform(0.04, 0.1)),
                "burst_rate_hz": 0.006,
                "burst_length_s": 60.0,
                "base_mw": 0.0015,
            }
        storage = {
            "capacity_mj": 1.6,
            "initial_fraction": 0.4,
            "leakage_mw": 0.0004,
        }
        if i % 4 == 3:
            profile, controller, execution = (
                "sonic-single-exit",
                {"kind": "fixed", "exit_index": 0},
                "intermittent",
            )
        else:
            profile, execution = "paper-multi-exit", "single-cycle"
            controller = {
                "kind": "qlearning",
                "epsilon": 0.25,
                "epsilon_decay": 0.9,
                "continue_rule": {"kind": "learned"},
            }
            if i % 8 == 2:
                controller = {
                    "kind": "static-lut",
                    "continue_rule": {
                        "kind": "threshold",
                        "entropy_threshold": 0.5,
                    },
                }
        devices.append(
            DeviceSpec(
                name=f"mount-{i:03d}",
                trace=trace,
                profile=profile,
                controller=controller,
                storage=storage,
                events={"kind": "uniform", "count": 30},
                execution=execution,
                episodes=2 if controller["kind"] == "qlearning" else 1,
            )
        )
    return FleetSpec(
        name="duty-cycle-farm-512",
        seed=seed,
        description="duty-cycled factory-floor harvester farm",
        devices=devices,
    )


#: Megacity layout streams seeded per call (bounds the live Generators).
_LAYOUT_BLOCK = 4096


def _layout_streams(seed: int, start: int, end: int):
    """Megacity devices ``start``..``end - 1``'s layout Generators, from
    ``SeedSequence(seed, spawn_key=(0xC171, i))``.  One independent
    stream per device (not one sequential stream for the whole fleet) is
    the property that makes slices independently computable by any shard
    worker; they are seeded a block at a time in one vectorized pass
    (:func:`repro.utils.rng.generators`)."""
    for first in range(start, end, _LAYOUT_BLOCK):
        last = min(end, first + _LAYOUT_BLOCK)
        yield from generators(seed, (0xC171, range(first, last)))


@SCENARIOS.register(
    "megacity-1m",
    "1,000,000 city-scale devices — the scale-out target for "
    "repro.fleet.shards.  Cheap per-device workloads (short traces, few "
    "events, non-learning controllers) across four harvesting families; "
    "every 16th node is a SONIC-style intermittent baseline.  Supports "
    "device_range=(start, end) so shard workers materialize only their "
    "slice: per-device layout draws come from "
    "SeedSequence(seed, spawn_key=(0xC171, index)), making any slice "
    "O(slice length) instead of O(fleet).",
)
def megacity(
    num_devices: int = 1_000_000,
    seed: int = 101,
    duration: float = 900.0,
    device_range=None,
) -> FleetSpec:
    if device_range is None:
        device_range = (0, num_devices)
    start, end = (int(v) for v in device_range)
    if not 0 <= start < end <= num_devices:
        raise ConfigError(
            f"device_range must satisfy 0 <= start < end <= {num_devices}, "
            f"got ({start}, {end})"
        )
    controllers = (
        {"kind": "greedy", "reserve_fraction": 0.2},
        {"kind": "static-lut"},
        {"kind": "fixed", "exit_index": 0},
    )
    devices = []
    for i, gen in zip(range(start, end), _layout_streams(seed, start, end)):
        family = ("solar", "rf", "piezo", "wind")[i % 4]
        if family == "solar":
            trace = {
                "family": "solar",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": 0.025 * float(gen.uniform(0.7, 1.3)),
            }
        elif family == "rf":
            trace = {
                "family": "rf",
                "duration": duration,
                "dt": 1.0,
                "mean_mw": float(gen.uniform(0.004, 0.012)),
            }
        elif family == "piezo":
            trace = {
                "family": "piezo",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": float(gen.uniform(0.02, 0.05)),
                "duty_cycle": float(gen.uniform(0.3, 0.6)),
            }
        else:
            trace = {
                "family": "wind",
                "duration": duration,
                "dt": 1.0,
                "peak_mw": float(gen.uniform(0.03, 0.08)),
                "gust_rate_hz": float(gen.uniform(0.003, 0.01)),
            }
        if i % 16 == 15:
            profile, controller, execution = (
                "sonic-single-exit",
                {"kind": "fixed", "exit_index": 0},
                "intermittent",
            )
        else:
            profile, execution = "paper-multi-exit", "single-cycle"
            controller = dict(controllers[i % len(controllers)])
        devices.append(
            DeviceSpec(
                name=f"mc-{i:07d}",
                trace=trace,
                profile=profile,
                controller=controller,
                events={"kind": "uniform", "count": 8},
                execution=execution,
            )
        )
    return FleetSpec(
        name="megacity-1m",
        seed=seed,
        description="million-device megacity deployment (shard-by-shard)",
        devices=devices,
    )


@SCENARIOS.register(
    "dev-smoke",
    "5 tiny devices (one per harvesting family) for tests, docs, and CI.",
)
def dev_smoke(num_devices: int = 5, seed: int = 7, duration: float = 600.0) -> FleetSpec:
    families = ("solar", "kinetic", "rf", "piezo", "wind")
    devices = []
    for i in range(num_devices):
        family = families[i % len(families)]
        trace = {"family": family, "duration": duration, "dt": 1.0}
        if family == "solar":
            trace["peak_mw"] = 0.03
        devices.append(
            DeviceSpec(
                name=f"smoke-{family}-{i}",
                trace=trace,
                profile="paper-multi-exit",
                controller={"kind": "greedy", "reserve_fraction": 0.1},
                events={"kind": "uniform", "count": 20},
            )
        )
    return FleetSpec(
        name="dev-smoke",
        seed=seed,
        description="smoke-test fleet",
        devices=devices,
    )
