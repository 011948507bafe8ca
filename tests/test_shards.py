"""Crash-safe sharded fleet execution: ledger, leases, merge, identity.

The load-bearing contract: per-device streams are seeded by *global*
device index, so splitting a fleet into shards — any widths, any
execution order, any number of deaths and re-runs in between — merges to
an aggregate byte-identical to the unsharded run.  Everything here
(publish-once artifacts, lease stealing, corruption quarantine, RSS
degradation, SIGKILL resume) is tested against that identity.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import ConfigError, CorruptArtifactError, IntegrityError
from repro.faults import Fault, FaultPlan, chaos
from repro.fleet.results import ShardAggregator, pack_device_results
from repro.fleet.runner import FleetRunner, run_device
from repro.fleet import shards
from repro.fleet.scenarios import SCENARIOS
from repro.fleet.shards import (
    FleetShardSource,
    ScenarioShardSource,
    ShardLedger,
    ShardPlan,
    _ShardExecutor,
    run_sharded,
    shard_key,
)
from repro.fleet.spec import DeviceSpec, FleetSpec
from repro.obs import Recorder, recording


def tiny_device(name="dev", **overrides) -> DeviceSpec:
    base = dict(
        name=name,
        trace={"family": "solar", "duration": 400.0, "dt": 1.0, "peak_mw": 0.03},
        controller={"kind": "greedy"},
        events={"kind": "uniform", "count": 15},
    )
    base.update(overrides)
    return DeviceSpec(**base)


def tiny_fleet(n=6, seed=5) -> FleetSpec:
    return FleetSpec(
        name="tiny", seed=seed,
        devices=[tiny_device(f"dev-{i}") for i in range(n)],
    )


def canonical(aggregate: dict) -> str:
    return json.dumps(aggregate, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def baseline():
    """Unsharded aggregate of the shared 6-device fleet."""
    spec = tiny_fleet()
    return spec, canonical(FleetRunner(spec).run().aggregate())


# --------------------------------------------------------------------- #
# ShardPlan
# --------------------------------------------------------------------- #
class TestShardPlan:
    def test_from_shard_count(self):
        plan = ShardPlan.from_counts(10, shards=3)
        assert plan.shards == [(0, 4), (4, 8), (8, 10)]
        assert plan.num_shards == 3

    def test_from_width(self):
        plan = ShardPlan.from_counts(10, width=4)
        assert plan.shards == [(0, 4), (4, 8), (8, 10)]

    def test_width_larger_than_fleet_is_one_shard(self):
        assert ShardPlan.from_counts(3, width=100).shards == [(0, 3)]

    def test_uneven_explicit_edges(self):
        plan = ShardPlan(7, [0, 1, 5, 7])
        assert plan.shards == [(0, 1), (1, 5), (5, 7)]
        assert plan.keys() == ["s0000000-0000001", "s0000001-0000005",
                               "s0000005-0000007"]

    def test_roundtrip(self):
        plan = ShardPlan(9, [0, 2, 9])
        assert ShardPlan.from_dict(plan.to_dict()).shards == plan.shards

    @pytest.mark.parametrize("edges", [[0], [1, 5], [0, 3], [0, 5, 3, 7],
                                       [0, 0, 7]])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ConfigError, match="edges"):
            ShardPlan(7, edges)

    def test_exactly_one_of_shards_or_width(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ShardPlan.from_counts(10)
        with pytest.raises(ConfigError, match="exactly one"):
            ShardPlan.from_counts(10, shards=2, width=5)


# --------------------------------------------------------------------- #
# JSON-safe packed round-trip
# --------------------------------------------------------------------- #
class TestPackedJsonable:
    def test_roundtrip_is_exact_through_json(self):
        results = [
            run_device((i, tiny_device(f"dev-{i}"), 5)) for i in range(3)
        ]
        packed = pack_device_results(results)
        restored = json.loads(json.dumps(packed))
        agg_a, agg_b = (ShardAggregator("t", 5) for _ in range(2))
        agg_a.add_packed(packed)
        agg_b.add_packed(restored)
        # float repr round-trips float64 bit-exactly, so the aggregates
        # (percentiles included) must be byte-equal, not just close.
        assert canonical(agg_a.aggregate()) == canonical(agg_b.aggregate())

    def test_miss_counts_in_one_order_for_every_fold(self):
        """Folding DeviceResults (serial and pooled runs) and packed
        shards (sharded merges) gives one miss_counts order, sorted by
        reason, so every kind of run prints the same report lines."""
        spec = SCENARIOS.build("brownout-grid-256", num_devices=8)
        devices = FleetRunner(spec).run().devices
        assert list(devices[0].miss_counts) == ["energy", "busy"]
        folded, merged = (ShardAggregator(spec.name, spec.seed) for _ in range(2))
        folded.add_devices(devices)
        merged.add_packed(json.loads(json.dumps(pack_device_results(devices))))
        orders = [list(agg.aggregate()["miss_counts"]) for agg in (folded, merged)]
        assert orders[0] == orders[1] == ["busy", "energy"]


# --------------------------------------------------------------------- #
# Ledger mechanics
# --------------------------------------------------------------------- #
class TestShardLedger:
    def payload(self, key="s0000000-0000002"):
        results = [run_device((i, tiny_device(f"dev-{i}"), 5)) for i in range(2)]
        packed = pack_device_results(results)
        packed["wall_s"] = [0.0] * len(results)  # as the engine publishes
        return {
            "key": key, "start": 0, "end": 2, "fleet": "tiny", "seed": 5,
            "devices": packed,
        }

    def test_save_load_roundtrip(self, tmp_path):
        ledger = ShardLedger(str(tmp_path))
        key = "s0000000-0000002"
        assert ledger.save_shard(key, self.payload()) == "published"
        body = ledger.load_shard(key)
        assert body["start"] == 0 and body["end"] == 2
        assert "integrity" not in body  # seal stripped after verification

    def test_republish_identical_is_verified(self, tmp_path):
        ledger = ShardLedger(str(tmp_path))
        key = "s0000000-0000002"
        ledger.save_shard(key, self.payload())
        # A stolen-lease victim that finished anyway republishes the same
        # bytes: publish-once resolves it as a verified straggler.
        assert ledger.save_shard(key, self.payload()) == "verified"

    def test_republish_divergent_raises_integrity(self, tmp_path):
        ledger = ShardLedger(str(tmp_path))
        key = "s0000000-0000002"
        ledger.save_shard(key, self.payload())
        mutated = self.payload()
        mutated["seed"] = 6
        with pytest.raises(IntegrityError, match="determinism"):
            ledger.save_shard(key, mutated)

    @pytest.mark.parametrize(
        "damage", ["empty", "truncate", "bitflip", "torn", "malformed-seal"]
    )
    def test_corruption_detected_and_quarantined(self, tmp_path, damage):
        ledger = ShardLedger(str(tmp_path))
        key = "s0000000-0000002"
        ledger.save_shard(key, self.payload())
        path = ledger.shard_path(key)
        if damage == "empty":
            open(path, "w").close()
        elif damage == "truncate":
            os.truncate(path, os.path.getsize(path) // 2)
        elif damage == "bitflip":
            with open(path, "r+b") as fh:
                fh.seek(os.path.getsize(path) // 2)
                byte = fh.read(1)
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte[0] ^ 0xFF]))
        elif damage == "torn":
            with open(path, "w") as fh:
                fh.write('{"key": "torn-off-mid-')
        else:
            with open(path) as fh:
                body = json.load(fh)
            body["integrity"] = ["sha256"]  # a seal that is not an object
            with open(path, "w") as fh:
                json.dump(body, fh)
        with pytest.raises(CorruptArtifactError, match=f"corrupt artifact .*{key}"):
            ledger.load_shard(key)
        ledger.quarantine_shard(key)
        assert not ledger.has_shard(key)
        assert os.path.exists(
            os.path.join(ledger.quarantine_dir, f"{key}.json")
        )

    def test_wrong_range_in_artifact_is_corrupt(self, tmp_path, baseline):
        spec, expected = baseline
        ledger_dir = str(tmp_path / "led")
        run_sharded(FleetShardSource(spec), ledger_dir, shards=3)
        ledger = ShardLedger(ledger_dir)
        # Swap two artifacts' file names: content no longer matches the
        # range its key promises; the merge must refuse and heal.
        keys = ShardPlan.from_counts(spec.num_devices, shards=3).keys()
        a, b = ledger.shard_path(keys[0]), ledger.shard_path(keys[1])
        tmp = a + ".swap"
        os.rename(a, tmp); os.rename(b, a); os.rename(tmp, b)
        result = run_sharded(FleetShardSource(spec), ledger_dir, resume=True)
        assert canonical(result.aggregate()) == expected

    def test_lease_claim_and_release(self, tmp_path):
        ledger = ShardLedger(str(tmp_path))
        os.makedirs(ledger.leases_dir)
        assert ledger.claim("s0000000-0000002", ttl_s=60.0) == "fresh"
        # A second claimer (different owner) sees a live lease.
        other = ShardLedger(str(tmp_path))
        assert other.claim("s0000000-0000002", ttl_s=60.0) is None
        ledger.release("s0000000-0000002")
        assert other.claim("s0000000-0000002", ttl_s=60.0) == "fresh"

    def test_release_leaves_strangers_lease_alone(self, tmp_path):
        a, b = ShardLedger(str(tmp_path)), ShardLedger(str(tmp_path))
        os.makedirs(a.leases_dir)
        assert a.claim("k", ttl_s=60.0) == "fresh"
        b.release("k")  # not b's lease: must be a no-op
        assert os.path.exists(a.lease_path("k"))

    def test_expired_lease_is_stolen(self, tmp_path):
        # The caller's TTL governs expiry (an operator setting, uniform
        # across workers) — a dead owner cannot pin a shard forever.
        a, b = ShardLedger(str(tmp_path)), ShardLedger(str(tmp_path))
        os.makedirs(a.leases_dir)
        assert a.claim("k", ttl_s=120.0) == "fresh"
        time.sleep(0.05)
        assert b.claim("k", ttl_s=60.0) is None  # still live on b's clock
        assert b.claim("k", ttl_s=0.01) == "stolen"

    def test_torn_lease_steals_after_caller_ttl(self, tmp_path):
        ledger = ShardLedger(str(tmp_path))
        os.makedirs(ledger.leases_dir)
        # Owner died between O_EXCL create and the JSON write.
        open(ledger.lease_path("k"), "w").close()
        time.sleep(0.05)
        assert ledger.claim("k", ttl_s=0.01) == "stolen"

    def test_initialize_rejects_foreign_ledger(self, tmp_path, baseline):
        spec, _ = baseline
        ledger_dir = str(tmp_path / "led")
        run_sharded(FleetShardSource(spec), ledger_dir, shards=2)
        other = FleetSpec(
            name="other", seed=9, devices=[tiny_device("x"), tiny_device("y")]
        )
        with pytest.raises(ConfigError, match="belongs to fleet"):
            run_sharded(FleetShardSource(other), ledger_dir, shards=2)

    def test_complete_ledger_requires_resume(self, tmp_path, baseline):
        spec, expected = baseline
        ledger_dir = str(tmp_path / "led")
        run_sharded(FleetShardSource(spec), ledger_dir, shards=2)
        with pytest.raises(ConfigError, match="--resume"):
            run_sharded(FleetShardSource(spec), ledger_dir, shards=2)
        remerged = run_sharded(
            FleetShardSource(spec), ledger_dir, shards=2, resume=True
        )
        assert remerged.shards_executed == 0
        assert remerged.shards_resumed == 2
        assert canonical(remerged.aggregate()) == expected


# --------------------------------------------------------------------- #
# Sharded == unsharded
# --------------------------------------------------------------------- #
class TestShardedIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 3, 6])
    def test_any_shard_count_is_identical(self, tmp_path, baseline, shards):
        spec, expected = baseline
        result = run_sharded(
            FleetShardSource(spec), str(tmp_path / "led"), shards=shards
        )
        assert canonical(result.aggregate()) == expected
        assert result.shards_executed == result.num_shards

    def test_uneven_plan_is_identical(self, tmp_path, baseline):
        spec, expected = baseline
        plan = ShardPlan(spec.num_devices, [0, 1, 2, 6])
        result = run_sharded(FleetShardSource(spec), str(tmp_path / "led"),
                             plan=plan)
        assert canonical(result.aggregate()) == expected

    def test_multiworker_drain_is_identical(self, tmp_path, baseline):
        spec, expected = baseline
        result = run_sharded(
            FleetShardSource(spec), str(tmp_path / "led"), shards=6, workers=3
        )
        assert canonical(result.aggregate()) == expected

    def test_resume_runs_only_missing_shards(self, tmp_path, baseline):
        spec, expected = baseline
        ledger_dir = str(tmp_path / "led")
        run_sharded(FleetShardSource(spec), ledger_dir, shards=6)
        victim = shard_key(2, 3)
        os.unlink(ShardLedger(ledger_dir).shard_path(victim))
        result = run_sharded(FleetShardSource(spec), ledger_dir)
        assert result.shards_executed == 1  # only the victim
        assert result.shards_resumed == 5
        assert canonical(result.aggregate()) == expected

    def test_rss_degradation_preserves_identity(self, tmp_path, baseline):
        spec, expected = baseline
        # An absurdly small budget: peak RSS is already above it, so the
        # executor halves its width down to 1 and keeps going.
        result = run_sharded(
            FleetShardSource(spec), str(tmp_path / "led"), shards=2,
            max_rss_mb=1.0,
        )
        assert result.degraded >= 1
        assert canonical(result.aggregate()) == expected

    def test_megacity_slice_runs_shard_by_shard(self, tmp_path):
        source = ScenarioShardSource("megacity-1m", {"num_devices": 8})
        assert source.ranged  # never materializes the full fleet
        result = run_sharded(source, str(tmp_path / "led"), shard_width=3)
        assert result.num_shards == 3
        full = SCENARIOS.build("megacity-1m", device_range=(0, 8),
                               num_devices=8)
        unsharded = FleetRunner(full).run().aggregate()
        assert canonical(result.aggregate()) == canonical(unsharded)

    def test_outcome_metrics_match_unsharded(self, tmp_path, baseline):
        spec, _ = baseline
        rec_a, rec_b = Recorder(metrics=True), Recorder(metrics=True)
        with recording(rec_a):
            FleetRunner(spec).run()
        with recording(rec_b):
            run_sharded(FleetShardSource(spec), str(tmp_path / "led"), shards=3)
        a, b = rec_a.to_dict()["metrics"], rec_b.to_dict()["metrics"]
        outcome = ("fleet.runs", "fleet.devices", "fleet.events",
                   "fleet.events.processed", "fleet.events.missed",
                   "fleet.events.correct")
        for name in outcome:
            assert a["counters"][name] == b["counters"][name], name
        # Per-device iepmj histogram: same devices, same values — the
        # whole summary (percentiles included) must agree exactly.
        assert (a["histograms"]["fleet.device.iepmj"]
                == b["histograms"]["fleet.device.iepmj"])


# --------------------------------------------------------------------- #
# Chaos at the new shard sites
# --------------------------------------------------------------------- #
class TestShardChaos:
    def test_new_sites_registered(self):
        for site in ("fleet.shard.claim", "fleet.shard.save",
                     "fleet.shard.merge"):
            FaultPlan([Fault(site=site, when=0,
                             op="oserror" if "save" not in site else "bitflip")])

    def test_save_corruption_heals_to_identity(self, tmp_path, baseline):
        spec, expected = baseline
        plan = FaultPlan([
            Fault(site="fleet.shard.save", when=1, op="bitflip",
                  params={"offset_frac": 0.4}),
            Fault(site="fleet.shard.save", when=2, op="empty"),
        ])
        with chaos(plan):
            result = run_sharded(
                FleetShardSource(spec), str(tmp_path / "led"), shards=4
            )
        assert canonical(result.aggregate()) == expected
        # The damaged artifacts were quarantined, then re-executed.
        assert os.path.isdir(str(tmp_path / "led" / "quarantine"))

    def test_claim_faults_skip_then_recover(self, tmp_path, baseline):
        spec, expected = baseline
        plan = FaultPlan([
            Fault(site="fleet.shard.claim", when=0, op="oserror"),
            Fault(site="fleet.shard.claim", when=2, op="exception"),
        ])
        with chaos(plan):
            result = run_sharded(
                FleetShardSource(spec), str(tmp_path / "led"), shards=3
            )
        assert canonical(result.aggregate()) == expected

    def test_merge_oserror_is_retried(self, tmp_path, baseline):
        spec, expected = baseline
        plan = FaultPlan([
            Fault(site="fleet.shard.merge", when=0, op="oserror"),
            Fault(site="fleet.shard.merge", when=1, op="oserror"),
        ])
        with chaos(plan):
            result = run_sharded(
                FleetShardSource(spec), str(tmp_path / "led"), shards=3
            )
        assert canonical(result.aggregate()) == expected


# --------------------------------------------------------------------- #
# Campaign routing
# --------------------------------------------------------------------- #
class TestCampaignShardRouting:
    def test_sharded_campaign_report_is_byte_identical(self, tmp_path):
        from repro.campaign import CAMPAIGNS, run_campaign

        spec = CAMPAIGNS.build("dev-smoke")
        plain = tmp_path / "plain"
        sharded = tmp_path / "sharded"
        run_campaign(spec, out=str(plain))
        run_campaign(spec, out=str(sharded), shard_devices=1)
        with open(plain / "report.json", "rb") as fh:
            a = fh.read()
        with open(sharded / "report.json", "rb") as fh:
            b = fh.read()
        assert a == b
        # Every oversized cell left a ledger behind.
        ledgers = os.listdir(sharded / "shard-ledgers")
        assert len(ledgers) == spec.num_cells

    def test_sharded_cell_resumes_at_shard_granularity(self, tmp_path):
        from repro.campaign import CAMPAIGNS, run_campaign
        from repro.campaign.store import CampaignStore

        spec = CAMPAIGNS.build("dev-smoke")
        out = tmp_path / "camp"
        run_campaign(spec, out=str(out), shard_devices=1)
        store = CampaignStore(str(out))
        baseline_report = open(out / "report.json", "rb").read()
        # Lose a cell checkpoint but keep its shard ledger: the re-run
        # must merge from shards (0 executed) instead of re-simulating.
        victim = sorted(store.completed_keys())[0]
        os.unlink(store.cell_path(victim))
        with recording(Recorder(metrics=True)) :
            run_campaign(spec, out=str(out), resume=True, shard_devices=1)
        assert open(out / "report.json", "rb").read() == baseline_report


# --------------------------------------------------------------------- #
# SIGKILL crash recovery
# --------------------------------------------------------------------- #
KILL_SCRIPT = textwrap.dedent("""
    import os, signal, sys
    sys.path.insert(0, {src!r})
    from repro.fleet.shards import FleetShardSource, ShardLedger, run_sharded
    from repro.fleet.spec import FleetSpec

    spec = FleetSpec.from_json({spec_path!r})
    ledger = ShardLedger({ledger_dir!r})
    publishes = []
    original = ShardLedger.save_shard

    def kill_after_two(self, key, payload):
        out = original(self, key, payload)
        publishes.append(key)
        if len(publishes) == 2:
            os.kill(os.getpid(), signal.SIGKILL)  # crash mid-run
        return out

    ShardLedger.save_shard = kill_after_two
    run_sharded(FleetShardSource(spec), {ledger_dir!r}, shards=6)
""")

LEASE_HOLDER_SCRIPT = textwrap.dedent("""
    import os, signal, sys
    sys.path.insert(0, {src!r})
    from repro.fleet.shards import ShardLedger

    ledger = ShardLedger({ledger_dir!r})
    os.makedirs(ledger.leases_dir, exist_ok=True)
    assert ledger.claim({key!r}, ttl_s=120.0) == "fresh"
    os.kill(os.getpid(), signal.SIGKILL)  # die holding the lease
""")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class TestSigkillRecovery:
    def test_sigkill_mid_run_then_resume_is_byte_identical(
        self, tmp_path, baseline
    ):
        spec, expected = baseline
        spec_path = str(tmp_path / "fleet.json")
        spec.to_json(spec_path)
        ledger_dir = str(tmp_path / "led")
        script = KILL_SCRIPT.format(
            src=SRC, spec_path=spec_path, ledger_dir=ledger_dir
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, timeout=120
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        survivors = ShardLedger(ledger_dir).completed_keys()
        assert len(survivors) == 2  # died right after the second publish
        result = run_sharded(FleetShardSource(spec), ledger_dir)
        assert result.shards_resumed == 2
        assert result.shards_executed == 4  # only the unfinished shards
        assert canonical(result.aggregate()) == expected

    def test_dead_workers_lease_is_stolen_and_shard_rerun(
        self, tmp_path, baseline
    ):
        spec, expected = baseline
        ledger_dir = str(tmp_path / "led")
        key = shard_key(0, 3)
        script = LEASE_HOLDER_SCRIPT.format(
            src=SRC, ledger_dir=ledger_dir, key=key
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, timeout=120
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert os.path.exists(ShardLedger(ledger_dir).lease_path(key))
        time.sleep(0.05)
        result = run_sharded(
            FleetShardSource(spec), ledger_dir, shards=2, lease_ttl_s=0.01
        )
        assert result.shards_stolen >= 1
        assert canonical(result.aggregate()) == expected


def publish_after(ledger_dir, key, delay_s):
    """A drain child's last act: publish ``key`` after ``delay_s``."""
    time.sleep(delay_s)
    ShardLedger(ledger_dir).save_shard(key, {"key": key})


class TestDrainWaits:
    """A drain pass that finds every remaining shard leased by someone
    else waits on the parent's drain children as well as the clock."""

    def leased(self, tmp_path):
        """A one-shard plan whose shard another ledger owner has leased."""
        spec = tiny_fleet(n=2)
        plan = ShardPlan.from_counts(spec.num_devices, shards=1)
        ledger_dir = str(tmp_path / "led")
        (key,) = plan.keys()
        assert ShardLedger(ledger_dir).claim(key, ttl_s=60.0) == "fresh"
        return spec, plan, ledger_dir, key

    def test_a_child_exit_wakes_the_parent(self, tmp_path, monkeypatch):
        spec, plan, ledger_dir, key = self.leased(tmp_path)
        monkeypatch.setattr(shards, "DEFAULT_POLL_S", 30.0)
        child = multiprocessing.Process(
            target=publish_after, args=(ledger_dir, key, 0.2)
        )
        child.start()
        executor = _ShardExecutor(
            FleetShardSource(spec), plan, ShardLedger(ledger_dir), lease_ttl_s=60.0
        )
        t0 = time.monotonic()
        executor.drain([child])
        elapsed = time.monotonic() - t0
        child.join()
        assert executor.executed == 0  # the child published the shard
        assert elapsed < 10.0  # not the 30 s poll interval

    def test_a_dead_child_does_not_make_the_parent_spin(self, tmp_path, monkeypatch):
        spec, plan, ledger_dir, key = self.leased(tmp_path)
        child = multiprocessing.Process(target=time.sleep, args=(60.0,))
        child.start()
        os.kill(child.pid, signal.SIGKILL)
        child.join()
        monkeypatch.setattr(shards, "DEFAULT_POLL_S", 0.02)
        executor = _ShardExecutor(
            FleetShardSource(spec), plan, ShardLedger(ledger_dir), lease_ttl_s=0.3
        )
        scans = []
        claim = executor.ledger.claim

        def counted_claim(shard, ttl_s):
            scans.append(shard)
            return claim(shard, ttl_s)

        monkeypatch.setattr(executor.ledger, "claim", counted_claim)
        executor.drain([child])
        assert (executor.stolen, executor.executed) == (1, 1)
        # One scan a poll interval until the 0.3 s TTL lets the lease be
        # stolen: about 15, where a spin on the dead child's sentinel
        # would scan thousands of times.
        assert len(scans) <= 30


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestShardCLI:
    def run_cli(self, *argv):
        from repro.fleet.__main__ import main

        return main(list(argv))

    def test_sharded_cli_matches_plain_cli(self, tmp_path, capsys):
        plain, sharded = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert self.run_cli("run", "dev-smoke", "--quiet",
                            "--json", plain) == 0
        assert self.run_cli("run", "dev-smoke", "--quiet", "--shards", "2",
                            "--ledger", str(tmp_path / "led"),
                            "--json", sharded) == 0
        a, b = json.load(open(plain)), json.load(open(sharded))
        assert canonical(a["aggregate"]) == canonical(b["aggregate"])

    def test_cli_resume_reads_plan_from_ledger(self, tmp_path, capsys):
        ledger = str(tmp_path / "led")
        out = str(tmp_path / "a.json")
        assert self.run_cli("run", "dev-smoke", "--quiet", "--shards", "2",
                            "--ledger", ledger, "--json", out) == 0
        # No --shards this time: the plan comes back from ledger.json.
        out2 = str(tmp_path / "b.json")
        assert self.run_cli("run", "dev-smoke", "--quiet", "--ledger", ledger,
                            "--resume", "--json", out2) == 0
        assert open(out).read() == open(out2).read()
        assert "2 resumed from ledger" in capsys.readouterr().out

    def test_sharding_requires_ledger(self, tmp_path, capsys):
        assert self.run_cli("run", "dev-smoke", "--shards", "2") == 2
        assert "--ledger" in capsys.readouterr().err

    def test_workers_flag_conflicts_with_sharding(self, tmp_path, capsys):
        assert self.run_cli("run", "dev-smoke", "--shards", "2",
                            "--ledger", str(tmp_path / "led"),
                            "--workers", "4") == 2
        assert "--shard-workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--shard-workers", "4"], ["--max-rss-mb", "10"], ["--lease-ttl", "5"]],
        ids=lambda flags: flags[0],
    )
    def test_sharding_flag_needs_a_sharded_run(self, capsys, flags):
        """An unsharded run would ignore these, so it refuses them, and
        so does its --explain."""
        for extra in ([], ["--explain"]):
            assert self.run_cli("run", "dev-smoke", "--quiet", *flags, *extra) == 2
            err = capsys.readouterr().err
            assert f"{flags[0]} applies to sharded runs only" in err

    def test_chunksize_conflicts_with_sharding(self, tmp_path, capsys):
        ledger = tmp_path / "led"
        argv = ["run", "dev-smoke", "--shards", "2", "--ledger", str(ledger)]
        for extra in ([], ["--explain"]):
            assert self.run_cli(*argv, "--chunksize", "2", *extra) == 2
            assert "--chunksize sizes an unsharded run" in capsys.readouterr().err
        assert not ledger.exists()

    @pytest.mark.parametrize("scenario", ["dev-smoke", "megacity-1m"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, scenario):
        """A negative --seed is a ConfigError naming the scenario and the
        field for run and --explain, serial and sharded, before any
        engine or shard starts."""
        ledger = tmp_path / "led"
        argv = ["run", scenario, "--quiet", "--devices", "16", "--seed", "-5"]
        sharded = ["--shards", "2", "--ledger", str(ledger)]
        for extra in ([], ["--explain"], sharded, [*sharded, "--explain"]):
            assert self.run_cli(*argv, *extra) == 2
            err = capsys.readouterr().err
            assert f"scenario {scenario!r}: seed must be an int >= 0" in err
        assert not ledger.exists()

    @pytest.mark.parametrize("part,key", [("trace", "seed"), ("events", "rng")])
    def test_negative_pinned_seed_in_spec_exits_2(self, tmp_path, capsys, part, key):
        data = tiny_fleet().to_dict()
        data["devices"][2][part][key] = -3
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(data))
        ledger = tmp_path / "led"
        sharded = ["--shards", "2", "--ledger", str(ledger)]
        for extra in ([], ["--explain"], sharded, [*sharded, "--explain"]):
            assert self.run_cli("run", "--spec", str(path), "--quiet", *extra) == 2
            err = capsys.readouterr().err
            assert f"device 'dev-2': {part} {key} must be an int >= 0" in err
        assert not ledger.exists()

    def test_explain_with_chaos_validates_and_lists_sites(
        self, tmp_path, capsys
    ):
        plan_path = str(tmp_path / "plan.json")
        FaultPlan([
            Fault(site="fleet.shard.save", when=0, op="empty"),
            Fault(site="fleet.chunk", when=1, op="oserror"),
        ]).to_json(plan_path)
        assert self.run_cli("run", "dev-smoke", "--explain",
                            "--chaos", plan_path) == 0
        out = capsys.readouterr().out
        assert "2 fault(s) armed" in out
        assert "fleet.chunk" in out and "fleet.shard.save" in out

    def test_explain_with_bad_chaos_site_fails_loudly(self, tmp_path, capsys):
        plan_path = str(tmp_path / "plan.json")
        with open(plan_path, "w") as fh:
            json.dump({"faults": [
                {"site": "fleet.shard.nope", "when": 0, "op": "oserror"}
            ]}, fh)
        assert self.run_cli("run", "dev-smoke", "--explain",
                            "--chaos", plan_path) == 2
        assert "fleet.shard.nope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--lease-ttl", "0"),
            ("--lease-ttl", "-1"),
            ("--max-rss-mb", "0"),
            ("--max-rss-mb", "-5"),
        ],
    )
    def test_non_positive_lease_ttl_or_rss_budget_exits_2(
        self, tmp_path, capsys, flag, value
    ):
        """A lease that expires at once would let every drain steal every
        live shard, and a non-positive budget degrades every sub-batch:
        run_sharded refuses both before any ledger exists."""
        ledger = tmp_path / "led"
        argv = ["run", "dev-smoke", "--quiet", "--shards", "2"]
        assert self.run_cli(*argv, "--ledger", str(ledger), flag, value) == 2
        name = {"--lease-ttl": "lease_ttl_s", "--max-rss-mb": "max_rss_mb"}[flag]
        assert f"{name} must be positive" in capsys.readouterr().err
        assert not ledger.exists()

    def test_max_rss_and_lease_ttl_flags_accepted(self, tmp_path, capsys):
        assert self.run_cli("run", "dev-smoke", "--quiet", "--shards", "2",
                            "--ledger", str(tmp_path / "led"),
                            "--max-rss-mb", "1", "--lease-ttl", "60") == 0
        assert "degradation(s)" in capsys.readouterr().out
