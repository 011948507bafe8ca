"""Crash-safe sharded fleet execution: the durable shard ledger.

Splits any fleet along the device axis into contiguous *shards* that
execute independently and publish one atomic, content-sealed JSON
artifact each into a **shard ledger** directory.  Because every device
derives its random streams from ``SeedSequence(fleet_seed,
spawn_key=(global_index,))``, partitioning cannot change results — the
merged aggregate is byte-identical to an unsharded run no matter how the
fleet is cut, which worker executed which shard, or how many times a
shard was re-run.

Layout under the ledger root::

    ledger.json             # fleet identity + the shard plan (claim check)
    shards/<key>.json       # one sealed artifact per completed shard
    leases/<key>.lease      # advisory claims (work-stealing efficiency)
    quarantine/<key>.json   # artifacts that failed verification
    report.json             # merged aggregate (rewritten after each merge)

Three mechanisms, in order of load-bearing-ness:

* **Publish-once artifacts** are the correctness mechanism.  A completed
  shard is published with :func:`repro.store.publish_once` (``os.link``
  of a sealed temp file) — an atomic operation that exactly one process
  can win.  A loser (late straggler, stolen-lease victim that finished
  anyway) verifies its payload digest against the winner's: a match is
  counted (``fleet.shard.straggler_verified``, the PR-7 idiom one layer
  up), a mismatch is a determinism violation and raises
  :class:`~repro.errors.IntegrityError`.
* **Leases** are an efficiency mechanism only.  A worker claims a shard
  by creating ``leases/<key>.lease`` with ``O_CREAT | O_EXCL``.  Leases
  are never renewed, so a process that dies mid-shard just leaves its
  lease behind — after the lease TTL any other worker *steals* it
  (atomic ``os.rename`` to a reap token picks exactly one thief) and
  re-executes.  Correctness never depends on a lease: double execution
  is resolved by publish-once + digest verification.
* **The merge** loads shard artifacts in plan order, verifies each
  checksum, and folds the packed device columns through
  :class:`~repro.fleet.results.ShardAggregator` — the reduction
  ``FleetResult.aggregate()`` reads, so the aggregate is bit-identical
  to an unsharded run's.  A corrupt artifact
  (:class:`~repro.errors.CorruptArtifactError`, as for campaign cells)
  is quarantined and its shard re-executed (bounded heal rounds).

Memory stays bounded: a worker holds one shard's device results at a
time (released after the artifact is published), and a ``max_rss_mb``
budget degrades gracefully — the execution sub-batch width halves
(``fleet.shard.degraded`` telemetry) instead of the process OOMing.
Sub-batch width never changes results.

Chaos sites ``fleet.shard.claim`` / ``fleet.shard.save`` /
``fleet.shard.merge`` make the whole layer testable under the PR-7
injector; all recoverable plans leave the merged report byte-identical.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import multiprocessing
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError, CorruptArtifactError
from repro.faults.injector import get_fault_injector
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.fleet.results import (
    DeviceColumns,
    ShardAggregator,
    record_outcome_metrics,
)
from repro.fleet.scenarios import SCENARIOS
from repro.fleet.spec import FleetSpec
from repro.obs.profiler import memory_snapshot
from repro.obs.recorder import get_recorder, set_recorder
from repro.obs.tracing import span
from repro.sim.batch import BatchedFleetEngine
from repro.store import (
    QUARANTINE_DIR,
    atomic_write_json,
    publish_once,
    quarantine,
    read_sealed,
    write_json,
)

#: Default lease time-to-live.  There is no lease renewal: the TTL must
#: exceed one shard's runtime, so size shards for minutes, not hours.
#: A stolen lease whose original owner was merely slow is still safe —
#: publish-once resolves the race and digest-verifies the loser.
DEFAULT_LEASE_TTL_S = 120.0

#: How many quarantine-and-re-execute rounds a merge will attempt before
#: concluding the corruption is persistent (bad disk, hostile chaos plan).
MAX_HEAL_ROUNDS = 4

#: Longest wait between work-steal scans when every incomplete shard is
#: leased by someone else (a drain child's exit ends the wait early).
DEFAULT_POLL_S = 0.05


def shard_key(start: int, end: int) -> str:
    """Canonical artifact key of the shard covering ``[start, end)``."""
    return f"s{int(start):07d}-{int(end):07d}"


class ShardPlan:
    """A contiguous partition of ``[0, num_devices)`` into shards.

    Stored as the sorted edge list ``[0, e1, ..., num_devices]`` so
    uneven, hand-crafted partitions round-trip exactly (the hypothesis
    property in ``tests/test_property_shards.py`` exercises arbitrary
    cuts, not just equal widths).
    """

    def __init__(self, num_devices: int, edges):
        self.num_devices = int(num_devices)
        self.edges = [int(e) for e in edges]
        if self.num_devices < 1:
            raise ConfigError(
                f"shard plan needs num_devices >= 1, got {num_devices}"
            )
        if (
            len(self.edges) < 2
            or self.edges[0] != 0
            or self.edges[-1] != self.num_devices
            or any(a >= b for a, b in zip(self.edges, self.edges[1:]))
        ):
            raise ConfigError(
                f"shard edges must rise strictly from 0 to "
                f"{self.num_devices}, got {self.edges}"
            )

    @classmethod
    def from_counts(
        cls,
        num_devices: int,
        shards: Optional[int] = None,
        width: Optional[int] = None,
    ) -> "ShardPlan":
        """Equal-width plan from a shard count *or* a shard width."""
        num_devices = int(num_devices)
        if (shards is None) == (width is None):
            raise ConfigError(
                "pass exactly one of shards=N or width=W to plan a partition"
            )
        if shards is not None:
            if shards < 1:
                raise ConfigError(f"shards must be >= 1, got {shards}")
            width = -(-num_devices // int(shards))  # ceil division
        if width < 1:
            raise ConfigError(f"shard width must be >= 1, got {width}")
        edges = list(range(0, num_devices, int(width))) + [num_devices]
        return cls(num_devices, edges)

    @property
    def shards(self) -> list:
        """``(start, end)`` device ranges, one per shard, in index order."""
        return list(zip(self.edges, self.edges[1:]))

    @property
    def num_shards(self) -> int:
        """How many shards the plan splits the device axis into."""
        return len(self.edges) - 1

    def keys(self) -> list:
        """The canonical ``s<start>-e<end>`` key of every shard, in order."""
        return [shard_key(s, e) for s, e in self.shards]

    def to_dict(self) -> dict:
        """JSON-safe form (round-trips through :meth:`from_dict`)."""
        return {"num_devices": self.num_devices, "edges": list(self.edges)}

    @classmethod
    def from_dict(cls, data: dict) -> "ShardPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        if not isinstance(data, dict) or "edges" not in data:
            raise ConfigError(f"not a shard plan: {data!r}")
        return cls(data.get("num_devices", 0), data["edges"])


# ---------------------------------------------------------------------- #
# Shard sources: where device specs come from
# ---------------------------------------------------------------------- #
class FleetShardSource:
    """Shard source wrapping a fully materialized :class:`FleetSpec`."""

    def __init__(self, spec: FleetSpec):
        if not isinstance(spec, FleetSpec):
            raise ConfigError("FleetShardSource needs a FleetSpec")
        self.spec = spec

    @property
    def name(self) -> str:
        """The fleet name stamped into artifacts and the merged result."""
        return self.spec.name

    @property
    def seed(self) -> int:
        """The fleet seed every shard derives device streams from."""
        return self.spec.seed

    @property
    def num_devices(self) -> int:
        """Total devices across the whole (unsharded) fleet."""
        return self.spec.num_devices

    def source_digest(self) -> str:
        """Content hash of the source fleet (pins ledger identity)."""
        return self.spec.digest()

    def device_specs(self, start: int, end: int) -> list:
        """The DeviceSpecs for one shard's ``[start, end)`` index range."""
        return self.spec.devices[start:end]


class ScenarioShardSource:
    """Shard source resolving a registered scenario lazily.

    When the scenario factory accepts ``device_range=(start, end)`` (the
    megacity contract), each shard materializes only its own slice of
    DeviceSpecs — a million-device fleet never exists in any one
    process's memory.  Factories without range support are built once and
    sliced (fine at brownout-grid scale, the memory win only matters at
    megacity scale).
    """

    def __init__(self, scenario: str, overrides: Optional[dict] = None):
        self.scenario = scenario
        self.overrides = dict(overrides or {})
        factory = SCENARIOS.factory(scenario)
        parameters = inspect.signature(factory).parameters
        self.ranged = "device_range" in parameters
        if not self.ranged:
            self._full = SCENARIOS.build(scenario, **self.overrides)
            self._name = self._full.name
            self._seed = self._full.seed
            self._num_devices = self._full.num_devices
            return
        self._full = None
        num = self.overrides.get("num_devices")
        if num is None:
            num = parameters["num_devices"].default
        self._num_devices = int(num)
        probe = SCENARIOS.build(scenario, device_range=(0, 1), **self.overrides)
        self._name = probe.name
        self._seed = probe.seed

    @property
    def name(self) -> str:
        """The fleet name stamped into artifacts and the merged result."""
        return self._name

    @property
    def seed(self) -> int:
        """The fleet seed every shard derives device streams from."""
        return self._seed

    @property
    def num_devices(self) -> int:
        """Total devices across the whole (unsharded) fleet."""
        return self._num_devices

    def source_digest(self) -> str:
        """Content hash of the scenario call (pins ledger identity)."""
        if self._full is not None:
            return self._full.digest()
        body = json.dumps(
            {
                "scenario": self.scenario,
                "overrides": self.overrides,
                "num_devices": self._num_devices,
                "seed": self._seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def device_specs(self, start: int, end: int) -> list:
        """Materialize one shard's DeviceSpecs (range-lazy when possible)."""
        if self._full is not None:
            return self._full.devices[start:end]
        return SCENARIOS.build(
            self.scenario, device_range=(int(start), int(end)), **self.overrides
        ).devices


# ---------------------------------------------------------------------- #
# The ledger
# ---------------------------------------------------------------------- #
class ShardLedger:
    """Durable, multi-process-safe shard checkpoint directory."""

    LEDGER_FILE = "ledger.json"
    REPORT_FILE = "report.json"
    SHARDS_DIR = "shards"
    LEASES_DIR = "leases"

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        # Unique per ledger *instance*, so one process can hold several
        # ledgers and a respawned pid cannot impersonate a dead claimer.
        self.owner = (
            f"{socket.gethostname()}:{os.getpid()}:{os.urandom(4).hex()}"
        )

    # ------------------------------ paths ----------------------------- #
    @property
    def ledger_path(self) -> str:
        """The fleet identity + shard plan file at the ledger root."""
        return os.path.join(self.root, self.LEDGER_FILE)

    @property
    def report_path(self) -> str:
        """The merged report file at the ledger root."""
        return os.path.join(self.root, self.REPORT_FILE)

    @property
    def shards_dir(self) -> str:
        """Directory of published (sealed) shard artifacts."""
        return os.path.join(self.root, self.SHARDS_DIR)

    @property
    def leases_dir(self) -> str:
        """Directory of live lease files."""
        return os.path.join(self.root, self.LEASES_DIR)

    @property
    def quarantine_dir(self) -> str:
        """Directory damaged artifacts are moved into before re-execution."""
        return os.path.join(self.root, QUARANTINE_DIR)

    def shard_path(self, key: str) -> str:
        """The artifact path for one shard key."""
        return os.path.join(self.shards_dir, f"{key}.json")

    def lease_path(self, key: str) -> str:
        """The lease-file path for one shard key."""
        return os.path.join(self.leases_dir, f"{key}.lease")

    # --------------------------- identity ----------------------------- #
    def read_meta(self) -> Optional[dict]:
        """The ledger's identity record, or ``None`` before initialize."""
        try:
            with open(self.ledger_path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"cannot read shard ledger {self.ledger_path!r}: {exc}"
            ) from exc

    def initialize(self, meta: dict, plan: ShardPlan, resume: bool = False) -> None:
        """Claim the directory for (fleet, plan), or validate a prior claim.

        Joining an *in-flight* ledger is the multi-worker scale-out path
        and always allowed (completed shards are simply skipped); only a
        ledger that is already **fully complete** demands an explicit
        ``resume`` — re-running a finished fleet by accident should be
        loud, re-merging it on purpose should be one flag.
        """
        os.makedirs(self.shards_dir, exist_ok=True)
        os.makedirs(self.leases_dir, exist_ok=True)
        body = {**meta, "plan": plan.to_dict()}
        existing = self.read_meta()
        if existing is None:
            # Two workers racing the first write both write identical
            # bytes (the meta is deterministic); os.replace last-wins.
            atomic_write_json(self.ledger_path, body)
            return
        if existing != body:
            raise ConfigError(
                f"shard ledger {self.root!r} belongs to fleet "
                f"{existing.get('fleet')!r} (digest "
                f"{existing.get('source_digest')!r}, "
                f"{len(existing.get('plan', {}).get('edges', [])) - 1} "
                f"shard(s)), which differs from this run; use a fresh "
                "--ledger directory"
            )
        if not resume and all(self.has_shard(k) for k in plan.keys()):
            raise ConfigError(
                f"shard ledger {self.root!r} is already complete; pass "
                "--resume to re-merge it or point --ledger elsewhere"
            )

    def plan_for(
        self,
        source,
        shards: Optional[int] = None,
        width: Optional[int] = None,
        plan: Optional[ShardPlan] = None,
    ) -> ShardPlan:
        """The shard plan a run of ``source`` over this ledger uses.

        ``plan`` if given, else an equal-width plan from ``shards`` or
        ``width``, else the plan recorded in ``ledger.json`` (the
        ``--resume`` path).  Reads the ledger but writes nothing.
        """
        if plan is None:
            if shards is None and width is None:
                meta = self.read_meta()
                if meta is None:
                    raise ConfigError(
                        "need shards=N, shard_width=W, or an existing ledger "
                        "(--resume) to determine the shard plan"
                    )
                plan = ShardPlan.from_dict(meta.get("plan", {}))
            else:
                plan = ShardPlan.from_counts(
                    source.num_devices, shards=shards, width=width
                )
        if plan.num_devices != source.num_devices:
            raise ConfigError(
                f"shard plan covers {plan.num_devices} device(s) but fleet "
                f"{source.name!r} has {source.num_devices}"
            )
        return plan

    # ---------------------------- shards ------------------------------ #
    def completed_keys(self) -> set:
        """Keys of every shard with a published artifact on disk."""
        if not os.path.isdir(self.shards_dir):
            return set()
        return {
            name[: -len(".json")]
            for name in os.listdir(self.shards_dir)
            if name.endswith(".json")
        }

    def has_shard(self, key: str) -> bool:
        """Whether ``key`` already has a published artifact."""
        return os.path.exists(self.shard_path(key))

    def save_shard(self, key: str, payload: dict) -> str:
        """Publish one completed shard; returns ``"published"`` or
        ``"verified"``.

        Exactly one writer wins the publish; a loser's digest must equal
        the incumbent's or :class:`~repro.errors.IntegrityError` is
        raised — sharded work is deterministic by construction and this
        is where that is asserted (see :func:`repro.store.publish_once`).
        """
        return publish_once(
            self.shard_path(key), payload, chaos_site="fleet.shard.save"
        )

    def load_shard(self, key: str) -> dict:
        """Load + verify one artifact for the merge path."""
        return read_sealed(self.shard_path(key), chaos_site="fleet.shard.merge")[0]

    def quarantine_shard(self, key: str) -> str:
        """Move a corrupt artifact aside; the shard becomes re-executable."""
        return quarantine(self.shard_path(key))

    # ---------------------------- leases ------------------------------ #
    def _try_lease(self, path: str, ttl_s: float) -> bool:
        os.makedirs(self.leases_dir, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            json.dump(
                {"owner": self.owner, "pid": os.getpid(), "ttl_s": float(ttl_s)},
                fh,
            )
        return True

    def claim(self, key: str, ttl_s: float = DEFAULT_LEASE_TTL_S):
        """Try to claim ``key``; returns ``"fresh"``, ``"stolen"``, or
        ``None`` (someone else holds a live lease).

        The *caller's* ``ttl_s`` governs expiry — it is an operator
        setting (``--lease-ttl``), uniform across the fleet of workers,
        so a dead process cannot pin a shard longer than the operator
        allows (the recorded lease body is post-mortem metadata only).
        Stealing renames the expired lease to a per-owner reap token
        first — ``os.rename`` is atomic, so exactly one thief wins even
        when several workers notice the expiry together.  A zero-byte
        lease (owner died between ``O_EXCL`` create and the JSON write)
        steals on the same clock.
        """
        path = self.lease_path(key)
        if self._try_lease(path, ttl_s):
            return "fresh"
        try:
            age = time.time() - os.stat(path).st_mtime
        except FileNotFoundError:
            return "fresh" if self._try_lease(path, ttl_s) else None
        if age <= float(ttl_s):
            return None
        reap = f"{path}.reap-{self.owner}"
        try:
            os.rename(path, reap)
        except FileNotFoundError:
            return None  # another thief won the reap
        os.unlink(reap)
        return "stolen" if self._try_lease(path, ttl_s) else None

    def release(self, key: str) -> None:
        """Drop our lease on ``key`` (a stranger's lease is left alone)."""
        path = self.lease_path(key)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return
        if data.get("owner") == self.owner:
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - concurrent reap
                pass

    # ---------------------------- report ------------------------------ #
    def write_report(self, report: dict) -> str:
        """Atomically write the merged report; returns its path."""
        atomic_write_json(self.report_path, report)
        return self.report_path


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #
class _ShardExecutor:
    """One worker's claim → execute → publish → release loop."""

    def __init__(
        self,
        source,
        plan: ShardPlan,
        ledger: ShardLedger,
        retry: Optional[RetryPolicy] = None,
        max_rss_mb: Optional[float] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    ):
        self.source = source
        self.plan = plan
        self.ledger = ledger
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.max_rss_mb = max_rss_mb
        self.lease_ttl_s = float(lease_ttl_s)
        self.executed = 0
        self.stolen = 0
        self.verified = 0
        self.degraded = 0
        self._exec_width: Optional[int] = None
        self._last_degrade_peak = 0.0

    def _inc(self, name: str, n: int = 1) -> None:
        metrics = get_recorder().metrics
        if metrics is not None:
            metrics.inc(name, n)

    def drain(self, children=()) -> None:
        """Work-steal until every shard in the plan has an artifact.

        ``children`` are drain processes working the same ledger (the
        parent's shard workers).  A pass that finds every remaining shard
        leased by someone else waits :data:`DEFAULT_POLL_S`, or until one
        of those children exits, whichever comes first: a child exits
        once the plan is complete, so the merge starts without sleeping
        past its last publish.  An exited child leaves the wait set, so
        a SIGKILLed child's lease is still stolen on the TTL clock, one
        scan per poll interval.
        """
        injector = get_fault_injector()
        waiting = [child.sentinel for child in children]
        while True:
            remaining = [
                (start, end)
                for start, end in self.plan.shards
                if not self.ledger.has_shard(shard_key(start, end))
            ]
            if not remaining:
                return
            progressed = False
            for start, end in remaining:
                key = shard_key(start, end)
                if self.ledger.has_shard(key):
                    progressed = True
                    continue
                if injector.enabled:
                    ops = [
                        f.directive()
                        for f in injector.poll("fleet.shard.claim")
                    ]
                    if ops:
                        # An injected claim failure: skip the shard this
                        # pass; the steal loop comes back to it.
                        self._inc("fleet.shard.claim_faults")
                        continue
                claim = self.ledger.claim(key, self.lease_ttl_s)
                if claim is None:
                    continue
                if claim == "stolen":
                    self.stolen += 1
                    self._inc("fleet.shard.leases_stolen")
                try:
                    payload = self._execute_shard(start, end)
                    outcome = self.ledger.save_shard(key, payload)
                finally:
                    self.ledger.release(key)
                self.executed += 1
                progressed = True
                self._inc("fleet.shard.completed")
                if outcome == "verified":
                    self.verified += 1
                    self._inc("fleet.shard.straggler_verified")
            if not progressed:
                _idle(waiting)

    def _execute_shard(self, start: int, end: int) -> dict:
        key = shard_key(start, end)
        with span("fleet.shard.run", shard=key, devices=end - start):
            specs = self.source.device_specs(start, end)
            tasks = [
                (start + j, spec, self.source.seed)
                for j, spec in enumerate(specs)
            ]
            parts = []
            pos = 0
            while pos < len(tasks):
                width = self._effective_width(len(tasks) - pos)
                parts.append(self._run_batch(tasks[pos:pos + width]))
                pos += width
        return {
            "key": key,
            "start": int(start),
            "end": int(end),
            "fleet": self.source.name,
            "seed": int(self.source.seed),
            # Joined, the sub-batches' columns are the shard's: the
            # artifact does not depend on the sub-batch width.
            "devices": DeviceColumns.join(parts).packed,
        }

    def _effective_width(self, remaining: int) -> int:
        """Sub-batch width, halved under RSS pressure (results invariant).

        ``ru_maxrss`` is a monotonic high-water mark, so the halving only
        re-fires when the peak *grows past* the level that triggered the
        last cut — otherwise one excursion would degrade forever.
        """
        width = self._exec_width if self._exec_width is not None else remaining
        if self.max_rss_mb is not None:
            peak = float(memory_snapshot().get("peak_rss_mb") or 0.0)
            if peak > self.max_rss_mb and peak > self._last_degrade_peak:
                width = max(1, width // 2)
                self._exec_width = width
                self._last_degrade_peak = peak
                self.degraded += 1
                self._inc("fleet.shard.degraded")
                metrics = get_recorder().metrics
                if metrics is not None:
                    metrics.set_gauge("fleet.shard.exec_width", width)
        return max(1, min(width, remaining))

    def _run_batch(self, batch) -> DeviceColumns:
        """One deterministic sub-batch with bounded in-process retries."""
        attempts = 0
        while True:
            try:
                return BatchedFleetEngine(batch).run()
            except ConfigError:
                raise  # a spec problem fails identically forever
            except Exception:
                attempts += 1
                if attempts > self.retry.max_retries:
                    raise
                self._inc("fleet.shard.retries")
                time.sleep(self.retry.backoff(attempts - 1))


def _idle(waiting: list) -> None:
    """Wait one poll interval, or until a process whose sentinel is in
    ``waiting`` exits; exited processes leave ``waiting``."""
    if not waiting:
        time.sleep(DEFAULT_POLL_S)
        return
    # Imported here: only a parent with drain children waits, and the
    # module would add ~2 ms to every fleet process's import.
    from multiprocessing.connection import wait

    for sentinel in wait(waiting, timeout=DEFAULT_POLL_S):
        waiting.remove(sentinel)


def _drain_worker(
    source, ledger_dir, plan_dict, retry, max_rss_mb, lease_ttl_s
) -> None:
    """Child-process entry: drain the ledger and exit.

    Shard workers never write to the parent's observability sinks (a
    fork-inherited trace file descriptor would interleave); outcome
    metrics are recorded once, parent-side, from the merged result.
    """
    set_recorder(None)
    executor = _ShardExecutor(
        source,
        ShardPlan.from_dict(plan_dict),
        ShardLedger(ledger_dir),
        retry=retry,
        max_rss_mb=max_rss_mb,
        lease_ttl_s=lease_ttl_s,
    )
    executor.drain()


# ---------------------------------------------------------------------- #
# Merge + result
# ---------------------------------------------------------------------- #
@dataclass
class ShardedFleetResult:
    """Aggregate-only outcome of a sharded run (no per-device list — a
    million-device fleet must never be resident at once)."""

    fleet_name: str
    seed: int
    num_devices: int
    num_shards: int
    shards_executed: int  # this run, by any worker (plan minus resumed)
    shards_resumed: int   # already complete when this run started
    shards_stolen: int
    degraded: int
    workers: int
    wall_s: float
    aggregate_data: dict = field(repr=False)

    def aggregate(self) -> dict:
        """The merged fleet summary (same key set as ``FleetResult``)."""
        return self.aggregate_data

    def to_dict(self, include_timing: bool = False) -> dict:
        """JSON-safe form; ``include_timing`` adds the wall-clock section."""
        out = {"aggregate": self.aggregate()}
        if include_timing:
            out["timing"] = {
                "workers": self.workers,
                "wall_s": self.wall_s,
                "shards": self.num_shards,
                "shards_executed": self.shards_executed,
                "shards_resumed": self.shards_resumed,
                "shards_stolen": self.shards_stolen,
                "degraded": self.degraded,
            }
        return out

    def to_json(self, path: str, include_timing: bool = False) -> None:
        """Write :meth:`to_dict` as canonical JSON to ``path``."""
        with open(path, "w") as fh:
            write_json(fh, self.to_dict(include_timing))
            fh.write("\n")


def _merge_ledger(source, plan: ShardPlan, ledger: ShardLedger) -> tuple:
    """Fold every artifact in plan order; ``(aggregator | None, corrupt)``.

    Scans the whole plan even after the first corruption so one heal
    round can quarantine every bad artifact at once.
    """
    agg = ShardAggregator(source.name, source.seed)
    corrupt = []
    for start, end in plan.shards:
        key = shard_key(start, end)
        try:
            body = ledger.load_shard(key)
        except CorruptArtifactError:
            corrupt.append(key)
            continue
        if (body.get("start"), body.get("end")) != (start, end):
            corrupt.append(key)  # content does not cover the range its key names
            continue
        if not corrupt:
            agg.add_packed(body["devices"])
    if corrupt:
        return None, corrupt
    return agg, []


def run_sharded(
    source,
    ledger_dir: str,
    *,
    shards: Optional[int] = None,
    shard_width: Optional[int] = None,
    plan: Optional[ShardPlan] = None,
    workers: int = 1,
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
    max_rss_mb: Optional[float] = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
) -> ShardedFleetResult:
    """Execute ``source`` shard-by-shard through a durable ledger.

    ``source`` is a :class:`FleetShardSource` or
    :class:`ScenarioShardSource`; the partition comes from ``shards=N``,
    ``shard_width=W``, an explicit ``plan``, or — when all are ``None`` —
    the plan recorded in an existing ledger (the ``--resume`` path).
    ``workers > 1`` forks additional drain processes that work-steal from
    the same ledger; the calling process drains too, then merges.

    Crash-anywhere safety: kill any worker (or the whole process tree) at
    any point and a later call over the same ledger re-executes only the
    unfinished shards, producing a byte-identical aggregate.
    """
    t0 = time.perf_counter()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    # A lease that expires at once lets every drain steal every live
    # shard; a budget of no memory degrades every sub-batch.
    if not lease_ttl_s > 0:
        raise ConfigError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
    if max_rss_mb is not None and not max_rss_mb > 0:
        raise ConfigError(f"max_rss_mb must be positive, got {max_rss_mb}")
    ledger = ShardLedger(ledger_dir)
    plan = ledger.plan_for(source, shards, shard_width, plan)
    meta = {
        "fleet": source.name,
        "seed": int(source.seed),
        "num_devices": source.num_devices,
        "source_digest": source.source_digest(),
    }
    ledger.initialize(meta, plan, resume=resume)
    resumed = sum(1 for key in plan.keys() if ledger.has_shard(key))
    executor = _ShardExecutor(
        source,
        plan,
        ledger,
        retry=retry,
        max_rss_mb=max_rss_mb,
        lease_ttl_s=lease_ttl_s,
    )
    with span(
        "fleet.shard.fleet",
        fleet=source.name,
        shards=plan.num_shards,
        workers=workers,
    ):
        procs = []
        for _ in range(max(workers - 1, 0)):
            proc = multiprocessing.Process(
                target=_drain_worker,
                args=(
                    source,
                    ledger.root,
                    plan.to_dict(),
                    executor.retry,
                    max_rss_mb,
                    lease_ttl_s,
                ),
            )
            proc.start()
            procs.append(proc)
        try:
            agg = None
            corrupt: list = []
            for _ in range(1 + MAX_HEAL_ROUNDS):
                executor.drain(procs)
                agg, corrupt = _merge_ledger(source, plan, ledger)
                if agg is not None:
                    break
                for key in corrupt:
                    ledger.quarantine_shard(key)
                    executor._inc("fleet.shard.quarantined")
            if agg is None:
                raise CorruptArtifactError(
                    f"shard artifact(s) {corrupt} still failed verification "
                    f"after {MAX_HEAL_ROUNDS} quarantine-and-re-run round(s)"
                )
        finally:
            for proc in procs:
                proc.join(timeout=10.0)
                if proc.is_alive():  # pragma: no cover - wedged child
                    proc.terminate()
                    proc.join()
    aggregate = agg.aggregate()
    ledger.write_report({"aggregate": aggregate})
    result = ShardedFleetResult(
        fleet_name=source.name,
        seed=int(source.seed),
        num_devices=source.num_devices,
        num_shards=plan.num_shards,
        # A successful merge means every non-resumed shard was executed
        # (and published) during this run — counting the plan, not
        # executor.executed, keeps the tally right when --shard-workers
        # children (whose counters die with their process) did the work.
        shards_executed=plan.num_shards - resumed,
        shards_resumed=resumed,
        shards_stolen=executor.stolen,
        degraded=executor.degraded,
        workers=workers,
        wall_s=time.perf_counter() - t0,
        aggregate_data=aggregate,
    )
    metrics = get_recorder().metrics
    if metrics is not None:
        record_outcome_metrics(
            metrics,
            agg,
            result.wall_s,
            {"fleet.workers": workers, "fleet.shards": plan.num_shards},
        )
        if resumed:
            metrics.inc("fleet.shard.resumed", resumed)
    return result
