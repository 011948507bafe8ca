"""Declarative fleet composition: :class:`DeviceSpec` and :class:`FleetSpec`.

A device spec is plain data — trace family, storage, MCU, deployed
profile, controller, event stream — that :mod:`repro.sim.devices`
materializes into live simulator objects *inside the worker process*.
Keeping specs as dicts/str/float makes them JSON round-trippable
(mirroring :mod:`repro.compress.spec`) and cheap to pickle across
``multiprocessing`` boundaries.

Per-device randomness is not stored in the spec: all seeds derive
deterministically from the fleet seed and the device index, so a spec
file plus one integer pins an entire fleet bit-for-bit.  A spec may
still pin an explicit ``"seed"`` inside its trace/events params when a
scenario wants several devices to share one environment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.runtime.controller import CONTROLLER_KINDS
from repro.runtime.incremental import CONTINUE_RULE_KINDS

# Trace families, event kinds and named profiles are whatever the device
# builders can build, so the specs validate against the builders' tuples.
from repro.sim.devices import EVENT_KINDS, NAMED_PROFILES, TRACE_FAMILIES

#: Execution models (see repro.sim.simulator).
EXECUTIONS = ("single-cycle", "intermittent")


def check_seed(owner: str, field: str, value) -> None:
    """A seed pins its streams only as an int >= 0: numpy seeds no
    negative int, a null draws fresh OS entropy on every build, and a
    JSON ``true`` would run as seed 1.  ``owner`` and ``field`` name it
    in the :class:`ConfigError`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{owner}: {field} must be an int >= 0, got {value!r}")


def _non_finite_path(params):
    """Where the first NaN or infinite float sits in ``params`` (nested
    dicts and lists), as ``".key"``/``"[i]"`` steps; ``None`` when every
    number in it is finite."""
    if isinstance(params, dict):
        steps, step = params.items(), ".{}{}"
    elif isinstance(params, (list, tuple)):
        steps, step = enumerate(params), "[{}]{}"
    else:
        return None
    for key, value in steps:
        if isinstance(value, float):
            rest = None if math.isfinite(value) else ""
        elif isinstance(value, (dict, list, tuple)):
            rest = _non_finite_path(value)
        else:
            continue
        if rest is not None:
            return step.format(key, rest)
    return None


@dataclass
class DeviceSpec:
    """One simulated device, declaratively.

    ``trace`` holds ``{"family": <name>, **generator_params}``;
    ``profile`` is a named profile, a ``zoo:<net>`` reference, or an
    inline dict of :class:`~repro.sim.profiles.InferenceProfile` fields;
    ``controller`` holds ``{"kind": <name>, **params}``; ``storage`` and
    ``mcu`` hold constructor overrides; ``events`` holds
    ``{"kind": <name>, **params}``.
    """

    name: str
    trace: dict
    profile: object = "paper-multi-exit"
    controller: dict = field(default_factory=lambda: {"kind": "greedy"})
    storage: dict = field(default_factory=dict)
    mcu: dict = field(default_factory=dict)
    events: dict = field(default_factory=lambda: {"kind": "uniform", "count": 100})
    execution: str = "single-cycle"
    episodes: int = 1
    power_window_s: float = 30.0

    def __post_init__(self):
        if not self.name:
            raise ConfigError("device needs a non-empty name")
        family = dict(self.trace).get("family")
        if family not in TRACE_FAMILIES:
            raise ConfigError(
                f"device {self.name!r}: trace family must be one of "
                f"{TRACE_FAMILIES}, got {family!r}"
            )
        controller = dict(self.controller)
        kind = controller.get("kind")
        if kind not in CONTROLLER_KINDS:
            raise ConfigError(
                f"device {self.name!r}: controller kind must be one of "
                f"{CONTROLLER_KINDS}, got {kind!r}"
            )
        rule = controller.get("continue_rule")
        if rule is not None:
            # Only declarative {"kind": ...} dicts: a live rule object
            # carries mutable state (one instance shared across devices
            # couples their runs) and has no JSON form for the digest.
            if not isinstance(rule, dict):
                raise ConfigError(
                    f"device {self.name!r}: continue_rule must be a "
                    f"declarative {{'kind': ...}} dict, got "
                    f"{type(rule).__name__}"
                )
            if rule.get("kind") not in CONTINUE_RULE_KINDS:
                raise ConfigError(
                    f"device {self.name!r}: continue_rule kind must be one "
                    f"of {CONTINUE_RULE_KINDS}, got {rule!r}"
                )
        ekind = dict(self.events).get("kind")
        if ekind not in EVENT_KINDS:
            raise ConfigError(
                f"device {self.name!r}: events kind must be one of "
                f"{EVENT_KINDS}, got {ekind!r}"
            )
        if self.execution not in EXECUTIONS:
            raise ConfigError(
                f"device {self.name!r}: execution must be one of "
                f"{EXECUTIONS}, got {self.execution!r}"
            )
        if isinstance(self.profile, str):
            if self.profile not in NAMED_PROFILES and not self.profile.startswith("zoo:"):
                raise ConfigError(
                    f"device {self.name!r}: unknown profile {self.profile!r}; "
                    f"use one of {NAMED_PROFILES}, 'zoo:<net>', or an inline dict"
                )
        elif not isinstance(self.profile, dict):
            raise ConfigError(
                f"device {self.name!r}: profile must be a name or a dict, "
                f"got {type(self.profile).__name__}"
            )
        # bool is an int subclass, but a JSON ``true`` is not a count.
        if (
            not isinstance(self.episodes, int)
            or isinstance(self.episodes, bool)
            or self.episodes < 1
        ):
            raise ConfigError(
                f"device {self.name!r}: episodes must be a positive int, "
                f"got {self.episodes!r}"
            )
        for part, params, key in (
            ("trace", dict(self.trace), "seed"),
            ("events", dict(self.events), "rng"),
        ):
            if key in params:
                check_seed(f"device {self.name!r}", f"{part} {key}", params[key])
        # JSON reads NaN and Infinity, but no builder parameter means
        # either: they would crash deep in the engine or print as NaN.
        for part in ("trace", "events", "storage", "mcu", "controller", "profile"):
            where = _non_finite_path(getattr(self, part))
            if where is not None:
                raise ConfigError(
                    f"device {self.name!r}: {part}{where} must be a finite "
                    f"number"
                )
        window = self.power_window_s
        if (
            isinstance(window, bool)
            or not isinstance(window, (int, float))
            or not math.isfinite(window)
            or window <= 0
        ):
            raise ConfigError(
                f"device {self.name!r}: power_window_s must be a finite "
                f"positive number, got {window!r}"
            )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace": dict(self.trace),
            "profile": dict(self.profile) if isinstance(self.profile, dict) else self.profile,
            "controller": dict(self.controller),
            "storage": dict(self.storage),
            "mcu": dict(self.mcu),
            "events": dict(self.events),
            "execution": self.execution,
            "episodes": self.episodes,
            "power_window_s": self.power_window_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown DeviceSpec fields: {sorted(unknown)}")
        try:
            return cls(**{k: v for k, v in data.items()})
        except TypeError as exc:
            raise ConfigError(f"invalid DeviceSpec: {exc}") from exc


@dataclass
class FleetSpec:
    """A named fleet: one seed plus the list of devices it pins."""

    name: str
    devices: list
    seed: int = 0
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigError("fleet needs a non-empty name")
        if not self.devices:
            raise ConfigError(f"fleet {self.name!r} has no devices")
        for d in self.devices:
            if not isinstance(d, DeviceSpec):
                raise ConfigError(
                    f"fleet {self.name!r}: devices must be DeviceSpec, "
                    f"got {type(d).__name__}"
                )
        check_seed(f"fleet {self.name!r}", "seed", self.seed)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
            "devices": [d.to_dict() for d in self.devices],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        missing = {"name", "devices"} - set(data)
        if missing:
            raise ConfigError(f"fleet spec is missing fields: {sorted(missing)}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown FleetSpec fields: {sorted(unknown)}")
        # No int() coercion: the constructor rejects non-int seeds with a
        # ConfigError instead of silently truncating e.g. 4.5 to 4.
        return cls(
            name=data["name"],
            seed=data.get("seed", 0),
            description=data.get("description", ""),
            devices=[DeviceSpec.from_dict(d) for d in data["devices"]],
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def digest(self) -> str:
        """Content hash of the fleet — stamped into run manifests so an
        observability artifact pins exactly which fleet produced it."""
        import hashlib

        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, path: str) -> "FleetSpec":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load fleet spec {path!r}: {exc}") from exc
        return cls.from_dict(data)
