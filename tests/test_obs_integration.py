"""Observability integration: obs on/off never changes a result.

The repro.obs contract has two halves, both locked in here against real
fleet/campaign runs:

* **bit-identity** — with tracing, metrics, and the phase profiler all
  on, the engine and the scalar oracle reproduce the committed goldens
  exactly, campaign
  reports stay byte-identical, and the checkpointed ``"timing"`` block
  never leaks into ``report.json``;
* **observation correctness** — the recorded counters/spans/profiles
  actually describe the run: parent-side outcome metrics are identical
  serial vs forced-pool, worker wire snapshots merge into the parent
  registry, CLIs emit manifest-first trace files, and the campaign store
  gains a loadable provenance manifest.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.campaign import CAMPAIGNS, CampaignStore, report_from_store, run_campaign
from repro.fleet import SCENARIOS, FleetRunner, ShardLedger, ShardPlan
from repro.fleet.__main__ import main as fleet_main
from repro.obs import MANIFEST_SCHEMA, recording

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
#: A fast, representative golden subset: the 2-device smoke fleet and a
#: 4-device mixed fleet whose devices exercise the intermittent kernel.
OBS_GOLDENS = [
    os.path.join(GOLDEN_DIR, "fleet_dev-smoke_default.json"),
    os.path.join(GOLDEN_DIR, "fleet_mixed-harvester-city_4dev.json"),
    os.path.join(GOLDEN_DIR, "fleet_city-block-1k_4dev.json"),
]


def _load_golden(path):
    with open(path) as fh:
        return json.load(fh)


def _golden_id(path):
    return os.path.basename(path)[len("fleet_"):-len(".json")]


def _trace_manifest(lines):
    """The manifest a trace opens with, without its record ``type``."""
    first = dict(lines[0])
    assert first.pop("type") == "manifest"
    return first


# --------------------------------------------------------------------- #
# Bit-identity against the goldens, full observability on
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("path", OBS_GOLDENS, ids=_golden_id)
@pytest.mark.parametrize("engine", ["batched", "device"])
def test_goldens_bit_identical_with_obs_on(path, engine, tmp_path, oracle):
    """Both simulation forms — the batched engine behind FleetRunner and
    the per-device scalar oracle — reproduce the goldens with tracing,
    metrics and the phase profiler all on."""
    golden = _load_golden(path)
    spec = SCENARIOS.build(golden["scenario"], **golden["overrides"])
    trace_path = tmp_path / "trace.jsonl"
    with recording(trace_path=trace_path, profile=True) as rec:
        if engine == "batched":
            result = FleetRunner(spec, workers=1).run()
        else:
            result = oracle(spec)
    assert json.loads(json.dumps(result.aggregate())) == golden["aggregate"]
    # And the sinks actually observed the run.
    if engine == "device":
        episodes = sum(d.episodes for d in spec.devices)
        assert rec.metrics.counter_value("sim.runs") == episodes
        return
    assert rec.metrics.counter_value("fleet.runs") == 1
    assert rec.metrics.counter_value("fleet.devices") == spec.num_devices
    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert [s["name"] for s in spans if s["type"] == "span"] == ["fleet.run"]


def test_golden_bit_identical_forced_pool_with_obs_on():
    path = OBS_GOLDENS[1]
    golden = _load_golden(path)
    spec = SCENARIOS.build(golden["scenario"], **golden["overrides"])
    with recording(profile=True) as rec:
        result = FleetRunner(
            spec, workers=2, chunksize=1, parallel_threshold=1
        ).run()
    assert json.loads(json.dumps(result.aggregate())) == golden["aggregate"]
    # Engine internals came home over the wire from the worker processes.
    assert rec.metrics.counter_value("batch.engine.devices") == spec.num_devices
    assert rec.profiler.counts.get("batch.lockstep.passes", 0) > 0


# --------------------------------------------------------------------- #
# Metric content
# --------------------------------------------------------------------- #


def test_fleet_outcome_metrics_describe_the_run():
    spec = SCENARIOS.build("dev-smoke")
    with recording() as rec:
        result = FleetRunner(spec, workers=1).run()
    agg = result.aggregate()
    m = rec.metrics
    assert m.counter_value("fleet.devices") == agg["devices"]
    assert m.counter_value("fleet.events") == agg["events"]
    assert m.counter_value("fleet.events.processed") == agg["processed"]
    assert m.counter_value("fleet.events.missed") == agg["missed"]
    assert m.histogram("fleet.device.iepmj").count == agg["devices"]
    assert m.histogram("span.fleet.run.s").count == 1
    assert m.gauge_value("fleet.parallel") is False
    assert m.counter_value("batch.engine.devices") == agg["devices"]


def test_parent_outcome_metrics_identical_serial_vs_pool():
    """Worker count and chunking never change the outcome registry."""
    spec = SCENARIOS.build("mixed-harvester-city", num_devices=4)

    def outcome(registry):
        wire = registry.to_wire()
        return (
            {k: v for k, v in wire["counters"].items() if k.startswith("fleet.")},
            list(wire["histograms"]["fleet.device.iepmj"]),
        )

    with recording() as serial_rec:
        FleetRunner(spec, workers=1).run()
    with recording() as pool_rec:
        FleetRunner(spec, workers=2, chunksize=1, parallel_threshold=1).run()
    assert outcome(serial_rec.metrics) == outcome(pool_rec.metrics)
    # Engine internals are recorded where the engine runs; the *totals*
    # still agree across dispatch shapes.
    assert serial_rec.metrics.counter_value(
        "batch.engine.devices"
    ) == pool_rec.metrics.counter_value("batch.engine.devices")


def test_device_engine_counts_simulator_runs(oracle):
    spec = SCENARIOS.build("dev-smoke")
    with recording() as rec:
        oracle(spec)
    episodes = sum(d.episodes for d in spec.devices)
    assert rec.metrics.counter_value("sim.runs") == episodes
    assert rec.metrics.counter_value("batch.engine.runs") == 0


def test_intermittent_profiler_tallies():
    """The brownout grid (every other device intermittent) exercises the
    kernel; its phase profile must attribute kernel work (micro-step
    passes, power-state transitions)."""
    spec = SCENARIOS.build("brownout-grid-256", num_devices=4)
    with recording(profile=True) as rec:
        FleetRunner(spec, workers=1).run()
    counts = rec.profiler.counts
    assert counts.get("intermittent.micro_passes", 0) > 0
    assert counts.get("batch.lockstep.passes", 0) > 0
    assert "batch.intermittent" in rec.profiler.phase_wall
    assert "batch.lockstep" in rec.profiler.phase_wall
    assert rec.profiler.memory.get("batch.run", {}).get("peak_rss_mb", 0) > 0


def test_engine_phases_nest_inside_batch_run():
    """``batch.run`` spans the whole stepper, per-device finalize
    included, so the lockstep, intermittent and finalize phases it
    encloses never add up to more than it."""
    spec = SCENARIOS.build("brownout-grid-256", num_devices=4)
    with recording(profile=True) as rec:
        FleetRunner(spec, workers=1).run()
    wall = rec.profiler.phase_wall
    assert rec.profiler.phase_calls["batch.finalize"] == 1
    inner = wall["batch.lockstep"] + wall["batch.intermittent"] + wall["batch.finalize"]
    assert 0.0 < inner <= wall["batch.run"]


def test_event_batching_collapses_kernel_passes():
    """The profiled city-block-128 shape: logical micro-steps stay at the
    scalar-equivalent count, while physical kernel passes collapse by at
    least 2x — the whole point of fusing micro-steps that cannot cross a
    power boundary.  (The measured collapse is ~28x; 2x is the
    regression floor.)"""
    spec = SCENARIOS.build("city-block-1k", num_devices=128)
    with recording(profile=True) as rec:
        FleetRunner(spec, workers=1).run()
    counts = rec.profiler.counts
    micro = counts["intermittent.micro_passes"]
    physical = counts["intermittent.kernel_passes"]
    assert micro > 0 and physical > 0
    assert physical * 2 <= micro


# --------------------------------------------------------------------- #
# Fleet CLI
# --------------------------------------------------------------------- #


def test_fleet_cli_trace_metrics_profile(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    metrics_path = tmp_path / "metrics.json"
    code = fleet_main(
        [
            "run",
            "dev-smoke",
            "--quiet",
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(metrics_path),
            "--profile",
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines[0]["type"] == "manifest"
    assert lines[0]["schema"] == MANIFEST_SCHEMA
    assert lines[0]["fleet"] == "dev-smoke"
    assert lines[0]["scenario_digest"]
    assert any(r["type"] == "span" and r["name"] == "fleet.run" for r in lines[1:])
    with open(metrics_path) as fh:
        payload = json.load(fh)
    assert payload["manifest"]["schema"] == MANIFEST_SCHEMA
    assert _trace_manifest(lines) == payload["manifest"]  # one per run
    assert payload["metrics"]["counters"]["fleet.runs"] == 1
    assert payload["profiler"]["counts"]  # profile flag wired through
    out = capsys.readouterr().out
    assert "wrote trace to" in out and "wrote metrics to" in out


def test_sharded_fleet_cli_trace_and_metrics_share_one_manifest(tmp_path):
    trace_path = tmp_path / "run.jsonl"
    metrics_path = tmp_path / "metrics.json"
    argv = ["run", "dev-smoke", "--shards", "2", "--ledger", str(tmp_path / "L")]
    argv += ["--trace-out", str(trace_path), "--metrics-out", str(metrics_path)]
    assert fleet_main(argv) == 0
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    with open(metrics_path) as fh:
        payload = json.load(fh)
    assert lines[0]["fleet"] == "dev-smoke"
    assert _trace_manifest(lines) == payload["manifest"]


def test_fleet_cli_explain(capsys, monkeypatch, tmp_path):
    """One line per device plus the dispatch plan, and nothing simulated:
    an engine that refuses to build must not be reached.  A sharded
    command explains its shard plan, writes nothing, and rejects the
    flags the sharded run would reject."""

    def no_engine(tasks):
        raise AssertionError("--explain must not simulate")

    monkeypatch.setattr("repro.fleet.runner.BatchedFleetEngine", no_engine)
    monkeypatch.setattr("repro.fleet.shards.BatchedFleetEngine", no_engine)
    spec = SCENARIOS.build("dev-smoke")
    code = fleet_main(["run", "dev-smoke", "--explain"])
    assert code == 0
    out = capsys.readouterr().out
    for device in spec.devices:
        line = next(x for x in out.splitlines() if device.name in x)
        assert device.execution in line
        assert device.trace["family"] in line
        assert device.controller["kind"] in line
    assert "dispatch: serial, in-process" in out

    ledger = tmp_path / "L"
    argv = ["run", "brownout-grid-256", "--devices", "64", "--shards", "8"]
    argv += ["--ledger", str(ledger), "--explain"]
    assert fleet_main(argv + ["--shard-workers", "2"]) == 0
    out = capsys.readouterr().out
    assert f"dispatch: sharded, 8 shard(s) x 2 shard worker(s) via {ledger}" in out
    assert "rf-063" in out
    assert not ledger.exists()
    assert fleet_main(argv + ["--workers", "2"]) == 2
    assert "--workers parallelizes an unsharded run" in capsys.readouterr().err
    assert not ledger.exists()


def test_fleet_cli_explain_resume_reads_the_ledger_plan(capsys, tmp_path):
    ledger = tmp_path / "L"
    ShardLedger(str(ledger)).initialize({"fleet": "x"}, ShardPlan(64, [0, 10, 64]))
    before = sorted(p.name for p in ledger.rglob("*"))
    argv = ["run", "brownout-grid-256", "--devices", "64", "--resume"]
    assert fleet_main(argv + ["--ledger", str(ledger), "--explain"]) == 0
    out = capsys.readouterr().out
    assert f"dispatch: sharded, 2 shard(s) x 1 shard worker(s) via {ledger}" in out
    assert sorted(p.name for p in ledger.rglob("*")) == before
    assert fleet_main(argv + ["--explain"]) == 2
    assert "--ledger DIR" in capsys.readouterr().err


def test_fleet_cli_obs_off_writes_nothing(tmp_path, capsys):
    code = fleet_main(["run", "dev-smoke", "--quiet"])
    assert code == 0
    assert "wrote trace" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- #
# Campaign integration
# --------------------------------------------------------------------- #


def test_campaign_obs_on_report_byte_identical(tmp_path):
    spec = CAMPAIGNS.build("dev-smoke")
    run_campaign(spec, out=str(tmp_path / "off"))
    with recording(profile=True) as rec:
        run_campaign(spec, out=str(tmp_path / "on"))
    assert (tmp_path / "off" / "report.json").read_bytes() == (
        tmp_path / "on" / "report.json"
    ).read_bytes()
    assert rec.metrics.counter_value("campaign.runs") == 1
    assert rec.metrics.counter_value("campaign.cells.executed") == spec.num_cells
    assert rec.metrics.histogram("span.campaign.cell.s").count == spec.num_cells


def test_campaign_store_manifest(tmp_path):
    spec = CAMPAIGNS.build("dev-smoke")
    run_campaign(spec, out=str(tmp_path))
    store = CampaignStore(str(tmp_path))
    assert os.path.exists(store.manifest_path)
    manifest = store.load_run_manifest()
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["campaign"] == "dev-smoke"
    assert manifest["campaign_digest"] == spec.digest()


def test_cell_timing_checkpointed_but_stripped_from_report(tmp_path):
    spec = CAMPAIGNS.build("dev-smoke")
    result = run_campaign(spec, out=str(tmp_path))
    store = CampaignStore(str(tmp_path))
    for cell in spec.cells():
        timing = store.load_cell(cell.key)["timing"]
        assert timing["wall_s"] > 0
        assert timing["workers"] >= 1
    # The aggregated report never carries wall-clock content (the resume
    # byte-identity contract) ...
    assert '"timing"' not in (tmp_path / "report.json").read_text()
    assert all("timing" not in payload for payload in result.cells)
    # ... but the text rendering surfaces the per-cell columns.
    text = result.render_text()
    assert "wall s" in text
    for cell in spec.cells():
        assert result.cell_timing[cell.key]["wall_s"] > 0


def test_report_from_store_tolerates_missing_timing(tmp_path):
    """Checkpoints from pre-obs versions (no ``"timing"``) still load,
    rendering ``-`` placeholders instead of the timing columns."""
    spec = CAMPAIGNS.build("dev-smoke")
    run_campaign(spec, out=str(tmp_path))
    store = CampaignStore(str(tmp_path))
    first = spec.cells()[0]
    payload = store.load_cell(first.key)
    del payload["timing"]
    store.save_cell(first.key, payload)
    result = report_from_store(store)
    assert first.key not in result.cell_timing
    row = next(
        line for line in result.render_text().splitlines() if first.key in line
    )
    assert row.endswith(" -")


def test_campaign_resume_report_identical_with_obs_on(tmp_path):
    spec = CAMPAIGNS.build("dev-smoke")
    reference = run_campaign(spec, out=str(tmp_path / "ref")).to_dict()
    with recording(profile=True):
        resumed = run_campaign(spec, out=str(tmp_path / "ref"), resume=True)
    assert resumed.to_dict() == reference


def test_campaign_cli_trace_and_metrics(tmp_path):
    from repro.campaign.__main__ import main as campaign_main

    out = tmp_path / "run"
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    code = campaign_main(
        [
            "run",
            "dev-smoke",
            "--out",
            str(out),
            "--trace-out",
            str(trace_path),
            "--metrics-out",
            str(metrics_path),
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines[0]["type"] == "manifest"
    assert lines[0]["campaign"] == "dev-smoke"
    names = [r["name"] for r in lines if r.get("type") == "span"]
    assert names.count("campaign.cell") == 2
    assert names[-1] == "campaign.run"
    with open(metrics_path) as fh:
        payload = json.load(fh)
    assert _trace_manifest(lines) == payload["manifest"]  # one per run
    assert payload["metrics"]["counters"]["campaign.cells.executed"] == 2
    assert os.path.exists(os.path.join(str(out), "manifest.json"))


def test_all_goldens_cover_obs_subset():
    """The files OBS_GOLDENS points at must actually exist (renames in
    tests/golden/ should fail loudly here, not silently skip)."""
    committed = set(glob.glob(os.path.join(GOLDEN_DIR, "fleet_*.json")))
    assert set(OBS_GOLDENS) <= committed
