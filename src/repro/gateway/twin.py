"""Device twins: live fleet state behind the gateway's verbs.

A :class:`FleetTwin` owns the same numpy state columns a one-shot run
uses — each cohort of submitted devices is one
:class:`~repro.sim.batch.BatchedFleetEngine` paused between lockstep
steps (see the engine's ``begin``/``advance``/``finalize`` stepper).
Because per-device randomness is pinned by ``(fleet_seed,
device_index)`` and devices never interact, a twin advanced in any
K-way split of ``advance`` calls — across any pattern of ``submit``
cohorts — finishes with device results bit-identical to one uninterrupted
:class:`~repro.fleet.runner.FleetRunner` run over the same devices, the
contract ``tests/test_gateway.py`` enforces against the committed
goldens.

The twin also keeps an operation *journal* (create/submit/advance, plain
JSON) which is what a checkpoint stores: restore replays the journal and
determinism makes the replayed state exact, without serializing engine
internals (Q-tables, RNG pools) at all.
"""

from __future__ import annotations

from repro.errors import GatewayError
from repro.fleet.results import DeviceColumns, FleetResult
from repro.fleet.scenarios import SCENARIOS
from repro.fleet.spec import DeviceSpec, FleetSpec
from repro.sim.batch import BatchedFleetEngine


class _Cohort:
    """One ``create``/``submit`` batch: an engine over its global indices."""

    __slots__ = ("start", "specs", "engine")

    def __init__(self, start: int, specs, seed: int):
        self.start = start
        self.specs = list(specs)
        tasks = [(start + i, spec, seed) for i, spec in enumerate(self.specs)]
        self.engine = BatchedFleetEngine(tasks)
        self.engine.begin()


class FleetTwin:
    """One live fleet: cohorts of paused engines plus the op journal."""

    def __init__(self, name: str, seed: int):
        self.name = str(name)
        self.seed = int(seed)
        self.cohorts: list = []
        #: Replayable op log; a checkpoint is exactly this plus a seal.
        self.journal: list = [{"op": "create", "name": self.name, "seed": self.seed}]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scenario(cls, scenario: str, overrides=None) -> "FleetTwin":
        """A twin over a registered scenario (overrides as in the CLI)."""
        overrides = dict(overrides or {})
        spec = SCENARIOS.build(scenario, **overrides)
        twin = cls(spec.name, spec.seed)
        twin.journal[-1].update({"scenario": scenario, "overrides": overrides})
        twin._add_cohort([d.to_dict() for d in spec.devices], journal=False)
        return twin

    @classmethod
    def from_spec(cls, spec_dict: dict) -> "FleetTwin":
        """A twin over an inline :class:`~repro.fleet.spec.FleetSpec` dict."""
        spec = FleetSpec.from_dict(spec_dict)
        twin = cls(spec.name, spec.seed)
        twin.journal[-1]["spec"] = spec.to_dict()
        twin._add_cohort([d.to_dict() for d in spec.devices], journal=False)
        return twin

    @classmethod
    def from_create_op(cls, op: dict) -> "FleetTwin":
        """Rebuild from a journal ``create`` op (checkpoint restore)."""
        if "scenario" in op:
            return cls.from_scenario(op["scenario"], op.get("overrides"))
        if "spec" in op:
            return cls.from_spec(op["spec"])
        raise GatewayError("create op needs 'scenario' or 'spec'")

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        """Devices across every cohort (global index space)."""
        return sum(len(c.specs) for c in self.cohorts)

    @property
    def total_steps(self) -> int:
        """Sum of every cohort's full-run step count."""
        return sum(c.engine.total_steps for c in self.cohorts)

    @property
    def steps_done(self) -> int:
        """Lockstep steps executed so far across cohorts."""
        return sum(c.engine.steps_done for c in self.cohorts)

    @property
    def finished(self) -> bool:
        """``True`` once every cohort's engine has finished."""
        return all(c.engine.finished for c in self.cohorts)

    def _add_cohort(self, device_dicts, journal: bool = True) -> dict:
        devices = [DeviceSpec.from_dict(d) for d in device_dicts]
        if not devices:
            raise GatewayError("submit needs at least one device")
        self.cohorts.append(_Cohort(self.num_devices, devices, self.seed))
        if journal:
            self.journal.append(
                {"op": "submit", "devices": [dict(d) for d in device_dicts]}
            )
        return {
            "added": len(devices),
            "devices": self.num_devices,
            "total_steps": self.total_steps,
        }

    def submit(self, device_dicts) -> dict:
        """Add a cohort of devices to the live fleet (journaled)."""
        return self._add_cohort(device_dicts, journal=True)

    def advance(self, steps=None) -> dict:
        """Advance every unfinished cohort by up to ``steps`` lockstep
        steps (``None`` = to completion); journaled with the per-cohort
        executed counts so a restore replays exactly this slice."""
        executed = []
        for cohort in self.cohorts:
            executed.append(cohort.engine.advance(steps))
        if any(executed):
            self.journal.append({"op": "advance", "executed": executed})
        return {
            "executed": sum(executed),
            "steps_done": self.steps_done,
            "total_steps": self.total_steps,
            "finished": self.finished,
        }

    def _replay_advance(self, op: dict) -> None:
        """Apply a journal ``advance`` op exactly (restore path)."""
        executed = list(op.get("executed", []))
        if len(executed) > len(self.cohorts):
            raise GatewayError(
                f"journal advance names {len(executed)} cohorts but the "
                f"twin has {len(self.cohorts)}"
            )
        for cohort, n in zip(self.cohorts, executed):
            if n:
                ran = cohort.engine.advance(n)
                if ran != n:
                    raise GatewayError(
                        f"journal replay diverged: cohort at {cohort.start} "
                        f"executed {ran} of {n} recorded steps"
                    )

    @classmethod
    def replay(cls, journal) -> "FleetTwin":
        """Rebuild a twin by replaying a journal from its ``create`` op."""
        journal = list(journal)
        if not journal or journal[0].get("op") != "create":
            raise GatewayError("journal must start with a create op")
        twin = cls.from_create_op(journal[0])
        for op in journal[1:]:
            kind = op.get("op")
            if kind == "submit":
                twin._add_cohort(op.get("devices", []), journal=True)
            elif kind == "advance":
                twin._replay_advance(op)
                twin.journal.append(dict(op))
            else:
                raise GatewayError(f"unknown journal op {kind!r}")
        return twin

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def result(self) -> FleetResult:
        """The finished fleet's results, merged across cohorts in global
        device-index order — the same object a one-shot run produces."""
        if not self.finished:
            raise GatewayError(
                f"fleet {self.name!r} is mid-run ({self.steps_done}/"
                f"{self.total_steps} steps); advance it to completion "
                "before querying aggregates"
            )
        devices = DeviceColumns.join(c.engine.finalize() for c in self.cohorts)
        return FleetResult(fleet_name=self.name, seed=self.seed, devices=devices)

    def progress(self) -> dict:
        """Always-available run status (no results required)."""
        return {
            "fleet": self.name,
            "seed": self.seed,
            "devices": self.num_devices,
            "cohorts": len(self.cohorts),
            "steps_done": self.steps_done,
            "total_steps": self.total_steps,
            "finished": self.finished,
        }

    def query(self, what: str = "aggregate") -> dict:
        """Dispatch one ``query`` verb: ``progress`` any time; the result
        reducers (``aggregate``/``percentiles``/``exit_counts``) once
        :attr:`finished`."""
        if what == "progress":
            return self.progress()
        result = self.result()
        if what == "aggregate":
            return result.aggregate()
        if what == "percentiles":
            return {
                "device_iepmj_percentiles": result.device_iepmj_percentiles(),
                "device_latency_percentiles": result.device_latency_percentiles(),
            }
        if what == "exit_counts":
            return {
                "exit_counts": result.exit_counts(),
                "miss_counts": result.miss_counts(),
            }
        raise GatewayError(
            f"unknown query {what!r}; use progress, aggregate, "
            "percentiles, or exit_counts"
        )
