"""Campaign execution: expand the grid, run cells, checkpoint, aggregate.

A cell executes as one fleet run: the scenario factory expands with the
cell's seed, every device's controller is replaced by the cell's
controller spec (same layout + traces + arrivals, different policy), and
the fleet goes through :class:`~repro.fleet.runner.FleetRunner`.

Two properties matter more than speed:

* **resumability** — each completed cell is checkpointed atomically via
  :class:`~repro.campaign.store.CampaignStore` before the next one
  starts, and a ``resume`` run loads finished cells instead of
  re-executing them;
* **determinism** — cell payloads carry only seed-pinned content, so
  resumed, re-ordered, or re-run campaigns aggregate byte-identically.

Parallel campaigns reuse one :func:`~repro.fleet.runner.worker_pool`
across *all* cells, so the per-process trace memo cache in the workers
stays warm between cells that share harvesting environments (the same
(family, params, seed) appears once per seed, not once per controller).
"""

from __future__ import annotations

import functools
import os
from dataclasses import replace
from typing import Optional

from repro.campaign.report import CampaignResult
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import CampaignStore
from repro.errors import ConfigError, CorruptArtifactError
from repro.faults.retry import RetryPolicy
from repro.fleet.runner import FleetRunner, worker_pool
from repro.obs.manifest import build_manifest
from repro.obs.recorder import get_recorder
from repro.obs.tracing import span
from repro.fleet.scenarios import SCENARIOS
from repro.fleet.spec import FleetSpec


def build_cell_fleet(cell: CampaignCell) -> FleetSpec:
    """Expand one cell into its fleet: scenario @ seed, controller swapped."""
    fleet = SCENARIOS.build(cell.scenario, seed=cell.seed, **cell.override_kwargs())
    controller = cell.controller_spec()
    devices = [replace(d, controller=dict(controller)) for d in fleet.devices]
    return replace(fleet, devices=devices, name=cell.key)


def _run_cell_sharded(cell, fleet_spec, retry, shard_devices, shard_root):
    """Route one large cell through the durable shard ledger.

    The ledger lives under ``<store>/shard-ledgers/<cell.key>``, so a
    campaign killed mid-cell resumes *inside* the cell — completed shards
    are loaded, not re-simulated — one checkpoint granularity finer than
    the cell artifact itself.  ``resume=True`` because re-entering a cell
    whose ledger happens to be complete (the cell artifact was corrupt or
    the crash hit between ledger merge and checkpoint write) is exactly
    the recovery path, never an accident worth refusing.
    """
    import tempfile as _tempfile

    from repro.fleet.shards import FleetShardSource, run_sharded

    ledger_dir = (
        os.path.join(shard_root, cell.key)
        if shard_root is not None
        else _tempfile.mkdtemp(prefix=f"shard-{cell.key}-")
    )
    return run_sharded(
        FleetShardSource(fleet_spec),
        ledger_dir,
        shard_width=int(shard_devices),
        retry=retry,
        resume=True,
    )


def run_cell(
    cell: CampaignCell,
    workers: int = 1,
    pool=None,
    retry: Optional[RetryPolicy] = None,
    shard_devices: Optional[int] = None,
    shard_root: Optional[str] = None,
) -> dict:
    """Execute one cell and summarize it as a JSON-safe checkpoint payload.

    Everything outside the ``"timing"`` key is deterministic in the cell
    alone — no wall-clock, no worker count, no shard routing (sharded
    aggregation is bit-identical by construction) — which is
    what lets resumed runs mix checkpointed and freshly-executed cells
    into one byte-identical report:
    :class:`~repro.campaign.report.CampaignResult` strips ``"timing"``
    into a side table before aggregating, so it reaches ``campaign
    report``'s per-cell columns but never ``report.json``.

    Cells larger than ``shard_devices`` execute through a durable shard
    ledger under ``shard_root`` instead of one monolithic fleet run —
    memory stays bounded by the shard width and a crash mid-cell resumes
    at shard granularity.
    """
    with span("campaign.cell", cell=cell.key):
        fleet_spec = build_cell_fleet(cell)
        if (
            shard_devices is not None
            and fleet_spec.num_devices > int(shard_devices)
        ):
            sharded = _run_cell_sharded(
                cell, fleet_spec, retry, shard_devices, shard_root
            )
            return {
                "key": cell.key,
                "scenario_label": cell.scenario_label,
                "scenario": cell.scenario,
                "overrides": cell.override_kwargs(),
                "controller_name": cell.controller_name,
                "controller": cell.controller_spec(),
                "seed": cell.seed,
                "devices": sharded.num_devices,
                "fleet": sharded.aggregate(),
                "timing": {
                    "wall_s": sharded.wall_s,
                    "workers": sharded.workers,
                    "parallel": False,
                    "shards": sharded.num_shards,
                },
            }
        runner = FleetRunner(fleet_spec, workers=workers, retry=retry)
        result = runner.run(pool=pool)
    payload = {
        "key": cell.key,
        "scenario_label": cell.scenario_label,
        "scenario": cell.scenario,
        "overrides": cell.override_kwargs(),
        "controller_name": cell.controller_name,
        "controller": cell.controller_spec(),
        "seed": cell.seed,
        "devices": result.num_devices,
        "fleet": result.aggregate(),
        "timing": {
            "wall_s": result.wall_s,
            "workers": result.workers,
            "parallel": bool(runner.last_run_parallel),
        },
    }
    if result.failures:
        # Quarantined devices are part of the deterministic payload: a
        # resumed report must state them the same way a fresh one would.
        payload["failures"] = [f.to_dict() for f in result.failures]
    return payload


class CampaignRunner:
    """Drives one campaign against a checkpoint store."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[CampaignStore] = None,
        workers: int = 1,
        resume: bool = False,
        retry: Optional[RetryPolicy] = None,
        shard_devices: Optional[int] = None,
    ):
        if not isinstance(spec, CampaignSpec):
            raise ConfigError("CampaignRunner needs a CampaignSpec")
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigError("retry must be a RetryPolicy (or None)")
        if shard_devices is not None and shard_devices < 1:
            raise ConfigError(
                f"shard_devices must be >= 1, got {shard_devices}"
            )
        self.spec = spec
        self.store = store
        self.workers = int(workers)
        self.resume = bool(resume)
        self.retry = retry
        #: Cells with more devices than this route through a durable
        #: shard ledger (``<store>/shard-ledgers/<cell-key>``) instead of
        #: one monolithic fleet run.
        self.shard_devices = shard_devices
        #: Filled by :meth:`run`: cells executed vs. loaded from checkpoints.
        self.executed = 0
        self.skipped = 0
        #: Checkpoints found corrupt on resume, moved aside, and re-run.
        self.quarantined = 0
        #: Checkpoints accepted without verification (pre-checksum
        #: artifacts with no ``"integrity"`` seal) during this run.
        self.legacy_unverified = 0

    @functools.cached_property
    def manifest(self) -> dict:
        """This run's provenance, built on first use: the store's
        ``manifest.json`` and a CLI run's trace and metrics file all
        carry this one dict."""
        return build_manifest(
            campaign=self.spec.name,
            campaign_digest=self.spec.digest(),
            workers=self.workers,
            resume=self.resume,
        )

    def _load_checkpoint(self, cell, progress):
        """Load one finished cell; quarantine and signal re-run if corrupt.

        Returns the payload, or ``None`` when the artifact failed
        verification — in which case it has been moved to
        ``quarantine/`` and the caller re-executes the cell.  Corruption
        costs one checkpoint, never the campaign.
        """
        try:
            return self.store.load_cell(cell.key)
        except CorruptArtifactError:
            self.store.quarantine_cell(cell.key)
            self.quarantined += 1
            if progress is not None:
                progress(cell, "corrupt")
            return None

    def run(self, progress=None) -> CampaignResult:
        """Execute (or finish) the grid; returns the aggregated result.

        ``progress`` is an optional ``callback(cell, status)`` with status
        ``"run"``, ``"skip"``, or ``"corrupt"`` (a checkpoint that failed
        integrity verification on resume and is being re-run), called
        before each cell — the CLI's ticker, and the injection point
        tests use to interrupt mid-grid.
        """
        cells = self.spec.cells()
        done = set()
        if self.store is not None:
            self.store.initialize(self.spec, resume=self.resume)
            self.store.write_run_manifest(self.manifest)
            if self.resume:
                done = self.store.completed_keys()
        payloads = {}
        self.executed = 0
        self.skipped = 0
        self.quarantined = 0
        legacy_before = self.store.legacy_unverified if self.store else 0
        with span(
            "campaign.run", campaign=self.spec.name, cells=len(cells)
        ), worker_pool(self.workers) as pool:
            for cell in cells:
                if cell.key in done:
                    payload = self._load_checkpoint(cell, progress)
                    if payload is not None:
                        if progress is not None:
                            progress(cell, "skip")
                        payloads[cell.key] = payload
                        self.skipped += 1
                        continue
                    # fall through: corrupt checkpoint, re-run the cell
                elif progress is not None:
                    progress(cell, "run")
                payload = run_cell(
                    cell,
                    workers=self.workers,
                    pool=pool,
                    retry=self.retry,
                    shard_devices=self.shard_devices,
                    shard_root=(
                        os.path.join(self.store.root, "shard-ledgers")
                        if self.store is not None
                        else None
                    ),
                )
                if self.store is not None:
                    self.store.save_cell(cell.key, payload)
                payloads[cell.key] = payload
                self.executed += 1
        if self.store is not None:
            self.legacy_unverified = (
                self.store.legacy_unverified - legacy_before
            )
        metrics = get_recorder().metrics
        if metrics is not None:
            metrics.inc("campaign.runs")
            metrics.inc("campaign.cells.executed", self.executed)
            metrics.inc("campaign.cells.skipped", self.skipped)
            metrics.inc("campaign.cells.quarantined", self.quarantined)
        result = CampaignResult(self.spec, payloads)
        if self.store is not None:
            self.store.write_report(result.to_dict())
        return result


def run_campaign(
    spec: CampaignSpec,
    out: Optional[str] = None,
    workers: int = 1,
    resume: bool = False,
    progress=None,
    retry: Optional[RetryPolicy] = None,
    shard_devices: Optional[int] = None,
) -> CampaignResult:
    """One-call convenience wrapper: optional store at ``out``."""
    store = CampaignStore(out) if out else None
    return CampaignRunner(
        spec,
        store=store,
        workers=workers,
        resume=resume,
        retry=retry,
        shard_devices=shard_devices,
    ).run(progress=progress)


def report_from_store(store: CampaignStore) -> CampaignResult:
    """Rebuild the aggregate report purely from checkpoints (no execution)."""
    spec = store.load_spec()
    payloads = {key: store.load_cell(key) for key in store.completed_keys()}
    return CampaignResult(spec, payloads)
