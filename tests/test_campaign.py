"""Campaign engine tests: store atomicity, runner, resume, report, CLI.

Everything here drives the 2-cell ``dev-smoke`` campaign (2 devices,
300 s traces) so the whole file stays in the seconds range; the full-grid
sweep lives behind the ``campaign_heavy`` marker at the bottom.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign import (
    CAMPAIGNS,
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    build_cell_fleet,
    report_from_store,
    run_campaign,
)
from repro.campaign import runner as campaign_runner
from repro.errors import ConfigError
from repro.store import atomic_write_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def smoke_spec() -> CampaignSpec:
    return CAMPAIGNS.build("dev-smoke")


class TestStore:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_json(str(path), {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert os.listdir(tmp_path) == ["x.json"]

    def test_initialize_claims_and_validates(self, tmp_path):
        store = CampaignStore(str(tmp_path / "run"))
        spec = smoke_spec()
        store.initialize(spec)
        assert store.load_spec().digest() == spec.digest()
        # A different grid cannot take over the directory.
        other = CAMPAIGNS.build("policy-shootout")
        with pytest.raises(ConfigError, match="differs"):
            store.initialize(other)

    def test_populated_store_requires_resume(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        spec = smoke_spec()
        store.initialize(spec)
        store.save_cell("some-cell", {"key": "some-cell"})
        with pytest.raises(ConfigError, match="--resume"):
            store.initialize(spec, resume=False)
        store.initialize(spec, resume=True)  # and resume accepts it

    def test_completed_keys_ignores_foreign_files(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        store.save_cell("a", {})
        (tmp_path / "cells" / "junk.txt").write_text("not a cell")
        assert store.completed_keys() == {"a"}

    def test_corrupt_cell_is_a_config_error(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.initialize(smoke_spec())
        store.cell_path("bad")
        (tmp_path / "cells" / "bad.json").write_text("{notjson")
        with pytest.raises(ConfigError, match=r"corrupt artifact .*bad\.json"):
            store.load_cell("bad")


class TestCellFleet:
    def test_controller_swapped_on_every_device(self):
        cell = next(
            c for c in CAMPAIGNS.build("policy-shootout").cells()
            if c.controller_name == "qlearning"
        )
        fleet = build_cell_fleet(cell)
        assert fleet.seed == cell.seed
        assert all(d.controller["kind"] == "qlearning" for d in fleet.devices)

    def test_same_seed_same_environment_across_controllers(self):
        """The comparison contract: only the controller differs per seed."""
        cells = [c for c in smoke_spec().cells()]
        a, b = (build_cell_fleet(c) for c in cells[:2])
        assert a.seed == b.seed
        assert [d.trace for d in a.devices] == [d.trace for d in b.devices]
        assert [d.events for d in a.devices] == [d.events for d in b.devices]
        assert [d.controller for d in a.devices] != [d.controller for d in b.devices]


class TestRunner:
    def test_run_without_store(self):
        result = run_campaign(smoke_spec())
        assert len(result.cells) == 2
        for payload in result.cells:
            assert payload["fleet"]["devices"] == 2
            assert "mean_exit_depth" in payload["fleet"]

    def test_report_is_deterministic(self):
        a = run_campaign(smoke_spec()).to_dict()
        b = run_campaign(smoke_spec()).to_dict()
        assert a == b

    def test_store_checkpoints_every_cell(self, tmp_path):
        spec = smoke_spec()
        result = run_campaign(spec, out=str(tmp_path))
        store = CampaignStore(str(tmp_path))
        assert store.completed_keys() == {c.key for c in spec.cells()}
        assert store.load_report() == result.to_dict()

    def test_marginals_match_cell_arithmetic(self):
        result = run_campaign(smoke_spec())
        by_key = {c["key"]: c for c in result.cells}
        marg = result.marginals()["dev-smoke"]["fixed-first"]
        base = by_key["dev-smoke--greedy--s3"]["fleet"]
        other = by_key["dev-smoke--fixed-first--s3"]["fleet"]
        assert marg["per_seed"]["3"]["average_accuracy"] == pytest.approx(
            other["average_accuracy"] - base["average_accuracy"]
        )
        assert marg["per_seed"]["3"]["mean_exit_depth"] == pytest.approx(
            other["mean_exit_depth"] - base["mean_exit_depth"]
        )

    def test_seed_spread_has_percentiles_per_controller(self):
        result = run_campaign(smoke_spec())
        spread = result.seed_spread()["dev-smoke"]
        assert set(spread) == {"greedy", "fixed-first"}
        assert set(spread["greedy"]["fleet_iepmj"]) == {"p10", "p50", "p90"}

    def test_schema_invalid_cell_artifact_is_a_config_error(self, tmp_path):
        """Hand-edited / cross-version checkpoints must not KeyError."""
        spec = smoke_spec()
        run_campaign(spec, out=str(tmp_path))
        store = CampaignStore(str(tmp_path))
        first = spec.cells()[0]
        payload = store.load_cell(first.key)
        del payload["fleet"]["mean_exit_depth"]
        store.save_cell(first.key, payload)
        with pytest.raises(ConfigError, match="mean_exit_depth"):
            report_from_store(store)

    def test_incomplete_store_report_raises(self, tmp_path):
        spec = smoke_spec()
        store = CampaignStore(str(tmp_path))
        store.initialize(spec)
        first = spec.cells()[0]
        store.save_cell(first.key, {"key": first.key, "fleet": {}})
        with pytest.raises(ConfigError, match="missing"):
            report_from_store(store)


class TestResume:
    """The acceptance contract: kill mid-grid, resume, identical report."""

    class _KillingStore(CampaignStore):
        """Raises KeyboardInterrupt after the Nth successful checkpoint."""

        def __init__(self, root, kill_after):
            super().__init__(root)
            self.kill_after = kill_after
            self.saves = 0

        def save_cell(self, key, payload):
            super().save_cell(key, payload)
            self.saves += 1
            if self.saves >= self.kill_after:
                raise KeyboardInterrupt

    def test_resume_skips_completed_cells_and_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        spec = smoke_spec()
        reference = run_campaign(spec, out=str(tmp_path / "ref")).to_dict()

        killing = self._KillingStore(str(tmp_path / "int"), kill_after=1)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(spec, store=killing).run()
        assert killing.completed_keys() == {spec.cells()[0].key}

        executed = []
        original = campaign_runner.run_cell

        def counting_run_cell(cell, **kwargs):
            executed.append(cell.key)
            return original(cell, **kwargs)

        monkeypatch.setattr(campaign_runner, "run_cell", counting_run_cell)
        runner = CampaignRunner(
            spec, store=CampaignStore(str(tmp_path / "int")), resume=True
        )
        result = runner.run()
        # Completed cells were loaded, not re-executed...
        assert executed == [spec.cells()[1].key]
        assert runner.skipped == 1 and runner.executed == 1
        # ...and the final report equals the uninterrupted run exactly.
        assert result.to_dict() == reference
        assert (tmp_path / "int" / "report.json").read_bytes() == (
            tmp_path / "ref" / "report.json"
        ).read_bytes()

    def test_interrupted_checkpoint_leaves_no_partial_artifacts(self, tmp_path):
        killing = self._KillingStore(str(tmp_path), kill_after=2)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(smoke_spec(), store=killing).run()
        leftovers = [
            f for f in os.listdir(killing.cells_dir) if not f.endswith(".json")
        ]
        assert leftovers == []


class TestCLI:
    def _run(self, *argv, env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.update(env_extra or {})
        return subprocess.run(
            [sys.executable, "-m", "repro.campaign", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        )

    def test_list(self):
        proc = self._run("list")
        assert proc.returncode == 0
        assert "policy-shootout" in proc.stdout

    def test_show_exports_spec(self, tmp_path):
        path = tmp_path / "grid.json"
        proc = self._run("show", "policy-shootout", "--spec-json", str(path))
        assert proc.returncode == 0, proc.stderr
        assert CampaignSpec.from_json(str(path)).name == "policy-shootout"

    def test_run_report_resume_cycle(self, tmp_path):
        out = tmp_path / "run"
        proc = self._run("run", "dev-smoke", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "2 cell(s) executed" in proc.stdout
        report_bytes = (out / "report.json").read_bytes()

        # `report` re-aggregates from checkpoints without executing.
        proc = self._run("report", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "dev-smoke--greedy--s3" in proc.stdout

        # `resume` on a finished store executes nothing, rewrites the
        # byte-identical report.
        proc = self._run("resume", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "0 cell(s) executed" in proc.stdout
        assert (out / "report.json").read_bytes() == report_bytes

    def test_rerun_without_resume_is_refused(self, tmp_path):
        out = tmp_path / "run"
        assert self._run("run", "dev-smoke", "--out", str(out)).returncode == 0
        proc = self._run("run", "dev-smoke", "--out", str(out))
        assert proc.returncode == 2
        assert "--resume" in proc.stderr

    def test_unknown_campaign_exits_nonzero(self, tmp_path):
        proc = self._run("run", "atlantis", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "unknown campaign" in proc.stderr

    def test_spec_file_and_name_conflict(self, tmp_path):
        grid = tmp_path / "grid.json"
        smoke_spec().to_json(str(grid))
        proc = self._run(
            "run", "dev-smoke", "--spec", str(grid), "--out", str(tmp_path / "x")
        )
        assert proc.returncode == 2
        assert "pick one" in proc.stderr


@pytest.mark.campaign_heavy
class TestFullGrid:
    def test_policy_shootout_parallel_equals_serial(self, tmp_path):
        spec = CAMPAIGNS.build("policy-shootout")
        serial = run_campaign(spec, out=str(tmp_path / "serial"), workers=1)
        parallel = run_campaign(spec, out=str(tmp_path / "parallel"), workers=4)
        assert serial.to_dict() == parallel.to_dict()
        assert (tmp_path / "serial" / "report.json").read_bytes() == (
            tmp_path / "parallel" / "report.json"
        ).read_bytes()

    def test_harvester_ablation_completes(self, tmp_path):
        spec = CAMPAIGNS.build("harvester-ablation", num_devices=2, num_seeds=1)
        result = run_campaign(spec, out=str(tmp_path), workers=2)
        assert len(result.cells) == spec.num_cells == 6
        assert set(result.marginals()) == {"solar", "indoor-rf", "mixed-city"}
