"""Checkpoint integrity: checksums, corruption classes, quarantine, resume.

The contract under test mirrors the paper's own premise (devices must
resume bit-exactly after power loss): a campaign checkpoint that rots on
disk — zero-byte, truncated, bit-flipped, torn JSON — is detected by
checksum/shape verification on ``--resume``, quarantined for post-mortem,
and its cell re-executed, leaving ``report.json`` byte-identical to an
uncorrupted run.  Every corruption class gets its own resume test.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import CAMPAIGNS, CampaignRunner, CampaignStore, run_campaign
from repro.errors import ConfigError, CorruptArtifactError
from repro.faults import Fault, FaultPlan, chaos
from repro.obs import Recorder, recording
from repro.store import LOAD_ATTEMPTS, cell_checksum


def smoke_spec():
    return CAMPAIGNS.build("dev-smoke")


def corrupt_zero_byte(path: str) -> None:
    with open(path, "w"):
        pass


def corrupt_truncate(path: str) -> None:
    os.truncate(path, os.path.getsize(path) // 2)


def corrupt_bitflip(path: str) -> None:
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))


def corrupt_torn_json(path: str) -> None:
    with open(path, "w") as fh:
        fh.write('{"key": "torn-off-mid-')


def corrupt_malformed_seal(path: str) -> None:
    with open(path) as fh:
        body = json.load(fh)
    body["integrity"] = "sha256"  # a seal that is not an object
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)


CORRUPTIONS = {
    "zero-byte": corrupt_zero_byte,
    "truncate": corrupt_truncate,
    "bitflip": corrupt_bitflip,
    "torn-json": corrupt_torn_json,
    "malformed-seal": corrupt_malformed_seal,
}


# --------------------------------------------------------------------- #
# Store-level integrity
# --------------------------------------------------------------------- #


class TestCellChecksums:
    def test_save_load_roundtrip_strips_integrity(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        payload = {"key": "a", "fleet": {"events": 3}, "seed": 1}
        store.save_cell("a", payload)
        on_disk = json.loads((tmp_path / "cells" / "a.json").read_text())
        assert on_disk["integrity"]["algo"] == "sha256"
        assert on_disk["integrity"]["digest"] == cell_checksum(payload)
        assert store.load_cell("a") == payload

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_corruption_detected_with_path(self, tmp_path, kind):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        store.save_cell("a", {"key": "a", "value": list(range(50))})
        path = store.cell_path("a")
        CORRUPTIONS[kind](path)
        with pytest.raises(CorruptArtifactError, match="a.json"):
            store.load_cell("a")

    def test_zero_byte_names_the_cause(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        store.save_cell("a", {"key": "a"})
        corrupt_zero_byte(store.cell_path("a"))
        with pytest.raises(CorruptArtifactError, match="zero-byte"):
            store.load_cell("a")

    def test_corrupt_cell_is_still_a_config_error(self, tmp_path):
        # back-compat: callers catching ConfigError keep working
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        store.save_cell("a", {"key": "a"})
        corrupt_bitflip(store.cell_path("a"))
        with pytest.raises(ConfigError, match=r"corrupt artifact .*a\.json"):
            store.load_cell("a")

    def test_legacy_cell_without_integrity_loads(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        legacy = {"key": "old", "fleet": {}}
        with open(store.cell_path("old"), "w") as fh:
            json.dump(legacy, fh)
        assert store.load_cell("old") == legacy

    def test_quarantine_moves_artifact_aside(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        store.save_cell("a", {"key": "a"})
        dst = store.quarantine_cell("a")
        assert not os.path.exists(store.cell_path("a"))
        assert os.path.exists(dst)
        assert "quarantine" in dst
        assert store.completed_keys() == set()

    def test_transient_oserror_on_load_is_retried(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        store.save_cell("a", {"key": "a"})
        plan = FaultPlan([Fault("campaign.cell.load", 0, "oserror")])
        with chaos(plan) as injector:
            assert store.load_cell("a") == {"key": "a"}
        assert injector.fired_summary() == {"campaign.cell.load.oserror": 1}

    def test_persistent_oserror_gives_up(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        store.save_cell("a", {"key": "a"})
        faults = [
            Fault("campaign.cell.load", i, "oserror")
            for i in range(LOAD_ATTEMPTS)
        ]
        plan = FaultPlan(faults)
        with chaos(plan), pytest.raises(ConfigError, match="cannot load"):
            store.load_cell("a")

    def test_zero_byte_report_detected(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        store.write_report({"cells": {}})
        corrupt_zero_byte(store.report_path)
        with pytest.raises(CorruptArtifactError, match="zero-byte"):
            store.load_report()


# --------------------------------------------------------------------- #
# Resume after corruption: every class re-runs just the damaged cell
# --------------------------------------------------------------------- #


class TestResumeAfterCorruption:
    def _clean_run(self, tmp_path):
        out = tmp_path / "clean"
        run_campaign(smoke_spec(), out=str(out))
        return (out / "report.json").read_bytes()

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_resume_quarantines_and_reruns(self, tmp_path, kind):
        clean_report = self._clean_run(tmp_path)
        out = tmp_path / "hurt"
        run_campaign(smoke_spec(), out=str(out))
        store = CampaignStore(str(out))
        victim = sorted(store.completed_keys())[0]
        CORRUPTIONS[kind](store.cell_path(victim))

        statuses = []
        with recording(Recorder(metrics=True)) as rec:
            runner = CampaignRunner(smoke_spec(), store=store, resume=True)
            runner.run(
                progress=lambda cell, status: statuses.append((cell.key, status))
            )
        assert (victim, "corrupt") in statuses
        assert runner.quarantined == 1
        assert runner.executed == 1  # only the damaged cell re-ran
        assert runner.skipped == len(smoke_spec().cells()) - 1
        assert rec.metrics.counter_value("campaign.cells.quarantined") == 1
        assert os.path.exists(os.path.join(str(out), "quarantine", f"{victim}.json"))
        # the re-run rewrote a valid checkpoint and the report is
        # byte-identical to a never-corrupted campaign
        assert store.load_cell(victim)["key"] == victim
        assert (out / "report.json").read_bytes() == clean_report

    def test_injected_save_corruption_heals_on_resume(self, tmp_path):
        """End-to-end chaos: the checkpoint write itself is sabotaged via
        the injector, then a plain resume must detect and heal it."""
        clean_report = self._clean_run(tmp_path)
        out = tmp_path / "chaos"
        plan = FaultPlan(
            [Fault("campaign.cell.save", 0, "truncate", {"keep_frac": 0.4})]
        )
        with chaos(plan) as injector:
            run_campaign(smoke_spec(), out=str(out))
        assert injector.fired_summary() == {"campaign.cell.save.truncate": 1}
        # the in-memory first pass already reported correctly
        assert (out / "report.json").read_bytes() == clean_report

        runner = CampaignRunner(
            smoke_spec(), store=CampaignStore(str(out)), resume=True
        )
        runner.run()
        assert runner.quarantined == 1
        assert (out / "report.json").read_bytes() == clean_report

    def test_resume_without_corruption_unaffected(self, tmp_path):
        clean_report = self._clean_run(tmp_path)
        out = tmp_path / "fine"
        run_campaign(smoke_spec(), out=str(out))
        runner = CampaignRunner(
            smoke_spec(), store=CampaignStore(str(out)), resume=True
        )
        runner.run()
        assert runner.quarantined == 0
        assert runner.executed == 0
        assert (out / "report.json").read_bytes() == clean_report


# --------------------------------------------------------------------- #
# Legacy (pre-checksum) cells: accepted, but counted and surfaced
# --------------------------------------------------------------------- #
class TestLegacyUnverifiedCells:
    def strip_seal(self, store, key):
        """Rewrite one artifact as a pre-checksum era cell (no seal)."""
        body = store.load_cell(key)
        with open(store.cell_path(key), "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)

    def test_legacy_cells_are_counted_on_resume(self, tmp_path):
        out = tmp_path / "legacy"
        run_campaign(smoke_spec(), out=str(out))
        clean_report = (out / "report.json").read_bytes()
        store = CampaignStore(str(out))
        victim = sorted(store.completed_keys())[0]
        self.strip_seal(store, victim)

        store = CampaignStore(str(out))  # fresh counter
        with recording(Recorder(metrics=True)) as rec:
            runner = CampaignRunner(smoke_spec(), store=store, resume=True)
            runner.run()
        # Accepted (resume still works), never re-executed, but counted
        # in the runner tally and the metrics registry.
        assert runner.executed == 0
        assert runner.quarantined == 0
        assert runner.legacy_unverified == 1
        assert store.legacy_unverified == 1
        assert (
            rec.metrics.counter_value("campaign.cells.legacy_unverified") == 1
        )
        # Content untouched: the report stays byte-identical.
        assert (out / "report.json").read_bytes() == clean_report

    def test_sealed_cells_count_zero(self, tmp_path):
        out = tmp_path / "sealed"
        run_campaign(smoke_spec(), out=str(out))
        store = CampaignStore(str(out))
        runner = CampaignRunner(smoke_spec(), store=store, resume=True)
        runner.run()
        assert runner.legacy_unverified == 0

    def test_summary_line_reports_legacy_tally(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        out = str(tmp_path / "cli")
        assert main(["run", "dev-smoke", "--out", out]) == 0
        store = CampaignStore(out)
        for key in sorted(store.completed_keys()):
            self.strip_seal(store, key)
        capsys.readouterr()
        assert main(["run", "dev-smoke", "--out", out, "--resume"]) == 0
        assert "2 legacy cell(s) loaded unverified" in capsys.readouterr().out
