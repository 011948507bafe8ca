"""Device materialization: a declarative device spec becomes live objects.

:func:`materialize` builds one device's event stream, profile,
capacitor, MCU and exit controller around its power trace for both the
batched engine (:mod:`repro.sim.batch`) and the scalar oracle
(``repro.fleet.runner.run_device``).  A spec is duck-typed: anything with
``trace``, ``events``, ``profile``, ``storage``, ``mcu`` and
``controller`` attributes materializes.  Device ``index`` of a fleet
seeded ``fleet_seed`` draws its four streams (trace, events, simulator,
controller) from ``SeedSequence(fleet_seed, spawn_key=(index,))``,
computable inside any worker without the other devices.  The scalar
oracle derives them with numpy itself (:func:`device_seeds`).  The
engine derives a build window's in one vectorized pass
(:func:`repro.utils.rng.seed_states`) and seeds the window's events
and simulator Generators in another (:func:`repro.utils.rng.generators`),
handing each device's seeds, those two Generators in their seeds'
places, to :func:`materialize`.  Either way every stream is the one
numpy seeds.

The caller hands :func:`materialize` the device's trace: the scalar
oracle's from :func:`build_trace`, the engine's from one
:func:`fetch_traces` call per window, which reads the memo once per
device and synthesizes the missing seeded traces as same-grid stacks
(:func:`repro.energy.traces.synthesize_stacks`); the engine calls
:func:`build_trace` only for a trace the stacks cannot take.  Traces are
memoized per process, except those whose params cannot key a
deterministic result (a live Generator or a None seed), so a fleet
rebuilt in one process synthesizes no trace the memo still holds.
:func:`harvest_percentiles` summarizes a window's traces a stack of
same-grid traces at a time.

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
    grid_position,
    kinetic_trace,
    piezo_trace,
    rf_trace,
    solar_trace,
    synthesize_stacks,
    trace_from_csv,
    wind_trace,
)
from repro.errors import ConfigError
from repro.intermittent.mcu import MSP432, MCUSpec
from repro.runtime.controller import make_controller
from repro.sim.profiles import InferenceProfile, reference_profile, sonic_profile
from repro.sim.results import percentile_rows

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
    """Hashable cache key, or None when the params cannot key a
    deterministic result: a live Generator, whose state advances between
    builds, or a None seed, which draws fresh OS entropy on every build."""
    if params.get("seed", 0) is None or not all(
        value is None or isinstance(value, (bool, int, float, str))
        for value in params.values()
    ):
        return None
    return (family, tuple(sorted(params.items())))


def _remember(key, trace: PowerTrace) -> None:
    while len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
        _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
    _TRACE_CACHE[key] = trace


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
        _remember(key, trace)
    return trace


def fetch_traces(specs, seeds) -> list:
    """Each spec's seeded trace, in order; None where the caller must
    call :func:`build_trace` itself.

    ``seeds`` are the devices' :func:`device_seeds` (the trace seed is
    read).  The memo is read once per spec; the traces it lacks
    synthesize as same-grid stacks and join it, one per key.  Never
    raises: a spec the stacks cannot take (csv, constant, an unhashable
    param, a failing row) comes back None, and its own
    :func:`build_trace` call, made in task order, raises that build's
    error.
    """
    out = [None] * len(specs)
    wanted: dict = {}
    for r, (spec, (trace_seed, *_)) in enumerate(zip(specs, seeds)):
        try:
            params = dict(spec.trace)
            family = params.pop("family")
            if family not in _SEEDED_TRACE_BUILDERS:
                continue
            params.setdefault("seed", trace_seed)
            key = _trace_cache_key(family, params)
            if key is None:
                continue
            out[r] = _TRACE_CACHE.get(key)
        except Exception:
            continue
        if out[r] is None:
            wanted.setdefault(family, {}).setdefault(key, (params, []))[1].append(r)
    # Evict first what the new traces will displace, so their memory is
    # free before the stacks synthesize.
    missing = sum(len(rows) for rows in wanted.values())
    while _TRACE_CACHE and len(_TRACE_CACHE) + missing > _TRACE_CACHE_MAX:
        _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
    for family, rows in wanted.items():
        stacked = synthesize_stacks(family, [params for params, _ in rows.values()])
        for (key, (_, members)), trace in zip(rows.items(), stacked):
            if trace is not None:
                _remember(key, trace)
                for r in members:
                    out[r] = trace
    return out


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
    """One device's live objects: its trace, what :func:`materialize`
    builds in the order it builds them, and its simulator stream (the
    seed, or a Generator already seeded from it)."""

    trace: PowerTrace
    events: np.ndarray
    profile: InferenceProfile
    storage: EnergyStorage
    mcu: MCUSpec
    controller: object
    sim_seed: int


def device_seeds(index, fleet_seed) -> tuple:
    """Device ``index``'s four stream seeds: trace, events, simulator and
    controller, from ``SeedSequence(fleet_seed, spawn_key=(index,))``.
    numpy's own derivation, which the engine's bulk seeding
    (:func:`repro.utils.rng.seed_states`) equals word for word."""
    child = np.random.SeedSequence(fleet_seed, spawn_key=(int(index),))
    return tuple(int(s) for s in child.generate_state(4, np.uint32))


def materialize(spec, seeds, trace: PowerTrace) -> DeviceObjects:
    """Build a device from ``spec``, its four stream seeds and its trace.

    ``seeds`` are the device's :func:`device_seeds`, derived once by the
    caller; its events and simulator entries may be Generators already
    seeded from them (the engine seeds a window's in one pass), which
    the builders take as they are.  ``trace`` is what
    :func:`build_trace` returns for the spec at the trace seed (the
    engine's comes from :func:`fetch_traces` where the stacks took it).
    The builders run in one fixed order: events, profile, storage, MCU,
    controller.
    """
    _, event_seed, sim_seed, ctrl_seed = seeds
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


#: Traces one harvest summary gathers at once (bounds its temporaries).
_HARVEST_BLOCK = 32
_HARVEST_QS = (10, 50, 90)


def harvest_percentiles(traces) -> list:
    """p10/p50/p90 of the power (mW) each trace offers, on a 512-point grid.

    The fleet report's per-device harvest summary, one dict per trace.
    Traces sharing (samples, dt) share the grid and its interpolation
    weights (:meth:`PowerTrace.power`'s arithmetic), so they interpolate,
    sort and take percentiles as stacks.  Grids are cached per trace
    duration, which most devices of a fleet share.
    """
    out = [None] * len(traces)
    grids: dict = {}
    for r, trace in enumerate(traces):
        grids.setdefault((trace.samples_mw.size, trace.dt), []).append(r)
    keys = [f"p{q:g}" for q in _HARVEST_QS]
    for (n, dt), members in grids.items():
        duration = traces[members[0]].duration
        i, frac = grid_position(_harvest_grid(duration), duration, dt, n)
        above = i + 1
        for start in range(0, len(members), _HARVEST_BLOCK):
            block = members[start : start + _HARVEST_BLOCK]
            lower = np.empty((len(block), i.size))
            upper = np.empty((len(block), i.size))
            for row, r in enumerate(block):
                samples = traces[r].samples_mw
                lower[row] = samples[i]
                upper[row] = samples[above]
            power = (1 - frac) * lower + frac * upper
            power.sort(axis=1)
            for r, points in zip(block, percentile_rows(power, _HARVEST_QS).tolist()):
                out[r] = dict(zip(keys, points))
    return out
