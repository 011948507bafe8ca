"""On-disk campaign checkpoints: one JSON artifact per completed cell.

Layout under the store root::

    campaign.json          # the CampaignSpec that owns this directory
    cells/<cell-key>.json  # deterministic payload of one completed cell
    report.json            # aggregate report (rewritten after every run)
    manifest.json          # provenance of the latest run (git SHA, host,
                           # versions — see repro.obs.manifest)

Every write is atomic (temp file + ``os.replace`` in the same directory),
so a campaign killed mid-cell leaves either a complete artifact or none —
never a torn file — and ``--resume`` can trust anything it finds.  Cell
payloads carry no wall-clock content, which is what makes an interrupted
and resumed campaign byte-identical to an uninterrupted one.

Atomicity protects against torn *writes*; it cannot protect a finished
artifact against what happens to it afterwards (bad disks, bit rot, a
stray editor).  Every cell is therefore sealed with a content checksum
on write and verified on load (:mod:`repro.store`):
:meth:`CampaignStore.load_cell` raises
:class:`~repro.errors.CorruptArtifactError` — naming the offending path —
for zero-byte files, torn/invalid JSON, and checksum mismatches, and the
campaign runner responds by quarantining the artifact and re-running
just that cell (see :meth:`CampaignStore.quarantine_cell`).
"""

from __future__ import annotations

import json
import os

from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigError, CorruptArtifactError
from repro.obs.recorder import get_recorder
from repro.store import atomic_write_json, quarantine, read_sealed, write_sealed


class CampaignStore:
    """Checkpoint directory for one campaign run."""

    SPEC_FILE = "campaign.json"
    REPORT_FILE = "report.json"
    MANIFEST_FILE = "manifest.json"
    CELLS_DIR = "cells"

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        #: Cells loaded without verification because they predate content
        #: checksums (no ``"integrity"`` key).  They still resume fine,
        #: but silent acceptance would hide how much of a report rests on
        #: unverifiable artifacts — so every load is counted and surfaced
        #: in the campaign summary line.
        self.legacy_unverified = 0

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    @property
    def spec_path(self) -> str:
        return os.path.join(self.root, self.SPEC_FILE)

    @property
    def report_path(self) -> str:
        return os.path.join(self.root, self.REPORT_FILE)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, self.MANIFEST_FILE)

    @property
    def cells_dir(self) -> str:
        return os.path.join(self.root, self.CELLS_DIR)

    def cell_path(self, key: str) -> str:
        return os.path.join(self.cells_dir, f"{key}.json")

    # ------------------------------------------------------------------ #
    # Spec manifest
    # ------------------------------------------------------------------ #
    def has_spec(self) -> bool:
        return os.path.exists(self.spec_path)

    def initialize(self, spec: CampaignSpec, resume: bool = False) -> None:
        """Claim the directory for ``spec`` (or validate a prior claim).

        A directory already owned by a *different* grid is always an
        error; one owned by the same grid requires ``resume`` so finished
        cells are only ever skipped on an explicit ``--resume``.
        """
        os.makedirs(self.cells_dir, exist_ok=True)
        if self.has_spec():
            existing = self.load_spec()
            if existing.digest() != spec.digest():
                raise ConfigError(
                    f"store {self.root!r} holds campaign {existing.name!r} "
                    f"(digest {existing.digest()}), which differs from "
                    f"{spec.name!r} (digest {spec.digest()}); use a fresh "
                    "--out directory"
                )
            if not resume and self.completed_keys():
                raise ConfigError(
                    f"store {self.root!r} already has "
                    f"{len(self.completed_keys())} completed cell(s); pass "
                    "--resume to continue it or point --out elsewhere"
                )
        else:
            atomic_write_json(self.spec_path, spec.to_dict())

    def load_spec(self) -> CampaignSpec:
        if not self.has_spec():
            raise ConfigError(f"no campaign spec in store {self.root!r}")
        return CampaignSpec.from_json(self.spec_path)

    # ------------------------------------------------------------------ #
    # Cells
    # ------------------------------------------------------------------ #
    def completed_keys(self) -> set:
        if not os.path.isdir(self.cells_dir):
            return set()
        return {
            name[: -len(".json")]
            for name in os.listdir(self.cells_dir)
            if name.endswith(".json")
        }

    def save_cell(self, key: str, payload: dict) -> None:
        """Checkpoint one completed cell, sealed with a content checksum.

        When chaos is armed, ``campaign.cell.save`` directives damage the
        artifact *after* the atomic write — the injected stand-in for bit
        rot and torn disks.
        """
        write_sealed(self.cell_path(key), payload, chaos_site="campaign.cell.save")

    def load_cell(self, key: str) -> dict:
        """Load and *verify* one checkpointed cell.

        Raises :class:`CorruptArtifactError` (naming the offending path)
        for any damaged artifact; the campaign runner quarantines such
        cells and re-runs them.  Transient ``OSError`` reads (and injected
        ``campaign.cell.load`` ones) are retried.  Artifacts written
        before checksums existed (no ``"integrity"`` key) load without
        verification, and are counted.
        """
        body, digest = read_sealed(
            self.cell_path(key), chaos_site="campaign.cell.load", unsealed_ok=True
        )
        if digest is None:
            # Pre-checksum artifact: accepted, but never silently.
            self.legacy_unverified += 1
            metrics = get_recorder().metrics
            if metrics is not None:
                metrics.inc("campaign.cells.legacy_unverified")
        return body

    def quarantine_cell(self, key: str) -> str:
        """Move a corrupt cell artifact aside (``quarantine/<key>.json``).

        The cells directory no longer lists the key, so the resume loop
        re-executes exactly that cell.
        """
        return quarantine(self.cell_path(key))

    # ------------------------------------------------------------------ #
    # Run manifest (provenance of the latest run; never read by resume)
    # ------------------------------------------------------------------ #
    def write_run_manifest(self, manifest: dict) -> str:
        """Stamp the store with this run's provenance ``manifest``
        (rewritten per run; see :func:`repro.obs.manifest.build_manifest`).

        The manifest is observability metadata only — resume and report
        logic never consult it, so it carries wall-clock content without
        threatening report byte-identity.
        """
        atomic_write_json(self.manifest_path, manifest)
        return self.manifest_path

    def load_run_manifest(self) -> dict:
        try:
            with open(self.manifest_path) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"cannot load run manifest {self.manifest_path!r}: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    # Report
    # ------------------------------------------------------------------ #
    def write_report(self, report: dict) -> str:
        atomic_write_json(self.report_path, report)
        return self.report_path

    def load_report(self) -> dict:
        path = self.report_path
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(
                f"cannot load campaign report {path!r}: {exc}"
            ) from exc
        if not raw.strip():
            raise CorruptArtifactError(
                f"corrupt campaign report {path!r}: zero-byte file "
                "(torn or interrupted write)"
            )
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"cannot load campaign report {path!r}: {exc}"
            ) from exc
