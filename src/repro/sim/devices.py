"""Device materialization: a declarative device spec becomes live objects.

:func:`materialize` builds one device's power trace, event stream,
profile, capacitor, MCU and exit controller for both the batched engine
(:mod:`repro.sim.batch`) and the scalar oracle
(``repro.fleet.runner.run_device``).  A spec is duck-typed: anything with
``trace``, ``events``, ``profile``, ``storage``, ``mcu`` and
``controller`` attributes materializes.  Device ``index`` of a fleet
seeded ``fleet_seed`` draws its four streams (trace, events, simulator,
controller) from ``SeedSequence(fleet_seed, spawn_key=(index,))``,
computable inside any worker without the other devices.

The one lazy import: a ``zoo:<net>`` profile loads :mod:`repro.zoo` (and
the training substrate behind it) on first use.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.energy.events import burst_events, poisson_events, uniform_random_events
from repro.energy.storage import EnergyStorage
from repro.energy.traces import (
    PowerTrace,
    constant_trace,
    kinetic_trace,
    piezo_trace,
    rf_trace,
    solar_trace,
    trace_from_csv,
    wind_trace,
)
from repro.errors import ConfigError
from repro.intermittent.mcu import MSP432, MCUSpec
from repro.runtime.controller import make_controller
from repro.sim.profiles import InferenceProfile, reference_profile, sonic_profile
from repro.sim.results import percentile_dict

_SEEDED_TRACE_BUILDERS = {
    "solar": solar_trace,
    "kinetic": kinetic_trace,
    "rf": rf_trace,
    "wind": wind_trace,
    "piezo": piezo_trace,
}

_NAMED_PROFILE_BUILDERS = {
    "paper-multi-exit": reference_profile,
    "sonic-single-exit": sonic_profile,
}

#: Trace families :func:`build_trace` builds (see repro.energy.traces).
TRACE_FAMILIES = (*_SEEDED_TRACE_BUILDERS, "constant", "csv")
#: Event-stream kinds :func:`build_events` builds (see repro.energy.events).
EVENT_KINDS = ("uniform", "poisson", "burst")
#: Profiles :func:`resolve_profile` resolves by name, without the zoo; the
#: ``zoo:<net>`` prefix additionally resolves any trained zoo network.
NAMED_PROFILES = tuple(_NAMED_PROFILE_BUILDERS)

#: Per-process cache of resolved named profiles (weights and profile maths
#: run once per worker, not once per device).
_PROFILE_CACHE: dict = {}

#: Per-process memoized traces keyed by (family, sorted params incl. the
#: resolved seed).  Identical device specs — and repeated runs of the same
#: fleet — share one PowerTrace instead of re-synthesizing 36k-43k samples
#: each time.  Traces are treated as immutable everywhere in the simulator,
#: so sharing is safe; the cap bounds worker memory on fleets with many
#: distinct environments (FIFO eviction).
_TRACE_CACHE: dict = {}
_TRACE_CACHE_MAX = 256


def _call_declarative(label: str, fn, *args, **kwargs):
    """Call a constructor with spec-provided kwargs, mapping typo'd or
    unknown parameter names to :class:`ConfigError` so they surface as
    spec problems (clean CLI error) rather than raw tracebacks."""
    try:
        return fn(*args, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _trace_cache_key(family: str, params: dict):
    """Hashable cache key, or None when a param cannot key a deterministic
    result (e.g. a live Generator, whose state advances between builds)."""
    if not all(
        value is None or isinstance(value, (bool, int, float, str))
        for value in params.values()
    ):
        return None
    return (family, tuple(sorted(params.items())))


def build_trace(trace_spec: dict, fallback_seed: int) -> PowerTrace:
    """Materialize a trace from its spec dict (memoized per process)."""
    params = dict(trace_spec)
    family = params.pop("family")
    if family == "csv":
        # File contents can change between builds; never cached.
        return _call_declarative("csv trace", trace_from_csv, **params)
    if family == "constant":
        label, builder = "constant trace", constant_trace
    else:
        builder = _SEEDED_TRACE_BUILDERS.get(family)
        if builder is None:
            raise ConfigError(f"unknown trace family {family!r}")
        params.setdefault("seed", fallback_seed)
        label = f"{family} trace"
    key = _trace_cache_key(family, params)
    if key is not None:
        cached = _TRACE_CACHE.get(key)
        if cached is not None:
            return cached
    trace = _call_declarative(label, builder, **params)
    if key is not None:
        while len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        _TRACE_CACHE[key] = trace
    return trace


def build_events(events_spec: dict, duration: float, seed: int) -> np.ndarray:
    """Materialize an event stream over ``[0, duration)``."""
    params = dict(events_spec)
    kind = params.pop("kind")
    params.setdefault("rng", seed)
    try:
        if kind == "uniform":
            return uniform_random_events(params.pop("count"), duration, **params)
        if kind == "poisson":
            return poisson_events(params.pop("rate_hz"), duration, **params)
        if kind == "burst":
            return burst_events(
                params.pop("num_bursts"),
                params.pop("events_per_burst"),
                duration,
                **params,
            )
    except KeyError as exc:
        raise ConfigError(f"{kind} events: missing parameter {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{kind} events: {exc}") from exc
    raise ConfigError(f"unknown events kind {kind!r}")


def resolve_profile(profile) -> InferenceProfile:
    """Resolve a profile reference (named / ``zoo:<net>`` / inline dict)."""
    if isinstance(profile, dict):
        return _call_declarative("inline profile", InferenceProfile, **profile)
    if isinstance(profile, str) and profile.startswith("zoo:"):
        # The training substrate loads only when a device names a zoo net;
        # the zoo memoizes its profiles per process.
        from repro import zoo

        return zoo.get_profile(profile.removeprefix("zoo:"))
    if profile not in _PROFILE_CACHE:
        builder = _NAMED_PROFILE_BUILDERS.get(profile)
        if builder is None:
            raise ConfigError(f"cannot resolve profile {profile!r}")
        _PROFILE_CACHE[profile] = builder()
    return _PROFILE_CACHE[profile]


def build_storage(storage_spec: dict) -> EnergyStorage:
    """Capacitor from overrides; defaults match the paper's 2 mJ @ 80%."""
    params = dict(storage_spec)
    capacity = float(params.pop("capacity_mj", 2.0))
    initial_fraction = float(params.pop("initial_fraction", 0.5))
    if not 0.0 <= initial_fraction <= 1.0:
        raise ConfigError(
            f"initial_fraction must be in [0, 1], got {initial_fraction!r}"
        )
    return _call_declarative(
        "storage",
        EnergyStorage,
        capacity_mj=capacity,
        efficiency=float(params.pop("efficiency", 0.8)),
        leakage_mw=float(params.pop("leakage_mw", 0.0)),
        initial_mj=capacity * initial_fraction,
        **params,
    )


def build_mcu(mcu_spec: dict) -> MCUSpec:
    """MSP432 defaults with declarative field overrides."""
    if not mcu_spec:
        return MSP432
    return _call_declarative("mcu", replace, MSP432, **mcu_spec)


def build_controller(controller_spec: dict, profile, storage, seed: int):
    """Controller from its spec; LUT/learning params derived per device."""
    params = dict(controller_spec)
    kind = params.pop("kind")
    return _call_declarative(
        f"{kind} controller",
        make_controller,
        kind,
        profile.num_exits,
        exit_energies_mj=profile.exit_energy_mj,
        capacity_mj=storage.capacity_mj,
        rng=seed,
        **params,
    )


class DeviceObjects(NamedTuple):
    """One device's live objects, in the order :func:`materialize` builds
    them, plus the seed of its simulator stream."""

    trace: PowerTrace
    events: np.ndarray
    profile: InferenceProfile
    storage: EnergyStorage
    mcu: MCUSpec
    controller: object
    sim_seed: int


def materialize(index, spec, fleet_seed) -> DeviceObjects:
    """Build device ``index`` of a fleet seeded ``fleet_seed`` from ``spec``.

    Derives the device's four streams, then calls the builders in one
    fixed order: trace, events, profile, storage, MCU, controller.
    """
    child = np.random.SeedSequence(fleet_seed, spawn_key=(int(index),))
    trace_seed, event_seed, sim_seed, ctrl_seed = (
        int(s) for s in child.generate_state(4, np.uint32)
    )
    trace = build_trace(spec.trace, trace_seed)
    events = build_events(spec.events, trace.duration, event_seed)
    profile = resolve_profile(spec.profile)
    storage = build_storage(spec.storage)
    mcu = build_mcu(spec.mcu)
    controller = build_controller(spec.controller, profile, storage, ctrl_seed)
    return DeviceObjects(trace, events, profile, storage, mcu, controller, sim_seed)


@lru_cache(maxsize=64)
def _harvest_grid(duration: float) -> np.ndarray:
    grid = np.linspace(0.0, duration, 512)
    grid.flags.writeable = False
    return grid


def harvest_percentiles(trace: PowerTrace) -> dict:
    """p10/p50/p90 of the power (mW) ``trace`` offers, on a 512-point grid.

    The fleet report's per-device harvest summary.  Grids are cached per
    trace duration, which most devices of a fleet share.
    """
    return percentile_dict(trace.power(_harvest_grid(trace.duration)), (10, 50, 90))
