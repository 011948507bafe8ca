"""Report and shard-artifact bytes across every way a fleet is dispatched.

``FleetResult.to_json`` must write exactly
``json.dumps(result.to_dict(t), indent=2, sort_keys=True)`` for ``t`` in
(False, True), whatever produced the result: a serial run, a pool whose
chunks come home in different packed shapes (``keys`` or ``raw`` dict
columns, exit histograms of different widths), or a chaos-armed pool
whose recovery ladder splits a chunk and quarantines a device.  A shard
artifact's bytes must not depend on the sub-batch width its executor
ran (``max_rss_mb`` halving) or on how many shard workers drained the
ledger.  Every registered golden fleet (``tests/golden/fleet_*``) and
the csv fleet are covered.  And a ``--quiet --json`` CLI run writes its
report from packed columns alone: no ``DeviceResult`` is built on the
serial path or in a pool's parent.
"""

from __future__ import annotations

import glob
import json
import os
from unittest import mock

import pytest

from repro.faults import Fault, FaultPlan, RetryPolicy, chaos
from repro.fleet import SCENARIOS, FleetRunner, FleetShardSource, FleetSpec, run_sharded
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.results import DeviceResult, pack_device_results
from repro.fleet.runner import worker_pool
from repro.sim.batch import BatchedFleetEngine

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")


def _scenario_fleet(path: str) -> FleetSpec:
    with open(path) as fh:
        golden = json.load(fh)
    return SCENARIOS.build(golden["scenario"], **golden["overrides"])


def csv_fleet() -> FleetSpec:
    """The csv golden fleet, its trace paths resolved from the repo root."""
    with open(os.path.join(GOLDEN_DIR, "csv_fleet.json")) as fh:
        data = json.load(fh)["spec"]
    for device in data["devices"]:
        device["trace"]["path"] = os.path.join(REPO_ROOT, device["trace"]["path"])
    return FleetSpec.from_dict(data)


FLEETS = {
    os.path.basename(path)[len("fleet_"):-len(".json")]: path
    for path in sorted(glob.glob(os.path.join(GOLDEN_DIR, "fleet_*.json")))
}
FLEETS["csv"] = None


def fleet(name: str) -> FleetSpec:
    path = FLEETS[name]
    return csv_fleet() if path is None else _scenario_fleet(path)


def assert_report_bytes(result, tmp_path) -> None:
    """``to_json`` writes ``json.dumps(to_dict(t), indent=2, sort_keys=True)``."""
    for timing in (False, True):
        path = tmp_path / f"report-{int(timing)}.json"
        result.to_json(str(path), include_timing=timing)
        expected = json.dumps(result.to_dict(timing), indent=2, sort_keys=True)
        assert path.read_bytes() == expected.encode("ascii")


@pytest.fixture(scope="module")
def pool():
    """One two-worker pool for every pooled run in this module."""
    with worker_pool(2) as shared:
        yield shared


SERIAL_REPORTS: dict = {}


def serial_report(name: str) -> str:
    """The serial run's ``to_dict()`` of fleet ``name`` as sorted JSON."""
    if name not in SERIAL_REPORTS:
        result = FleetRunner(fleet(name), workers=1).run()
        SERIAL_REPORTS[name] = json.dumps(result.to_dict(), sort_keys=True)
    return SERIAL_REPORTS[name]


@pytest.mark.parametrize("name", FLEETS)
def test_serial_report_bytes(name, tmp_path):
    result = FleetRunner(fleet(name), workers=1).run()
    assert_report_bytes(result, tmp_path)
    SERIAL_REPORTS[name] = json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("chunksize", [None, 1, 3])
@pytest.mark.parametrize("name", FLEETS)
def test_pooled_report_bytes(name, chunksize, pool, tmp_path):
    spec = fleet(name)
    runner = FleetRunner(spec, workers=2, parallel_threshold=1, chunksize=chunksize)
    result = runner.run(pool=pool)
    assert runner.last_run_parallel
    assert_report_bytes(result, tmp_path)
    assert json.dumps(result.to_dict(), sort_keys=True) == serial_report(name)


def chunk_shapes(spec: FleetSpec, size: int) -> list:
    """``(miss_counts form, exit width)`` of each ``size``-device chunk's
    packed columns, as a pool worker seals them."""
    tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
    shapes = []
    for start in range(0, len(tasks), size):
        engine = BatchedFleetEngine(tasks[start:start + size])
        packed = pack_device_results(engine.run())
        form = "raw" if "raw" in packed["miss_counts"] else "keys"
        shapes.append((form, len(packed["exit_counts"][0])))
    return shapes


def test_pooled_chunks_differ_in_packed_shape():
    """The pooled runs above join chunks of different packed shapes: at
    chunksize 3 the csv fleet's chunks carry ``raw`` and ``keys``
    ``miss_counts`` columns and exit histograms of width 1 and 3."""
    shapes = chunk_shapes(csv_fleet(), 3)
    assert {form for form, _ in shapes} == {"raw", "keys"}
    assert {width for _, width in shapes} == {1, 3}


def test_chaos_split_and_quarantine_report_bytes(pool, tmp_path):
    """Chunk 0 fails (occurrence 0) and splits into single devices; its
    first device fails again (occurrence 4) and in the parent's serial
    rung (occurrence 8), so it is quarantined.  The report joins whole
    chunks, split devices and a gap."""
    spec = csv_fleet()
    plan = FaultPlan([Fault("fleet.chunk", when, "exception") for when in (0, 4, 8)])
    runner = FleetRunner(
        spec,
        workers=2,
        parallel_threshold=1,
        chunksize=4,
        retry=RetryPolicy(max_retries=0, backoff_s=0.0),
    )
    with chaos(plan) as injector:
        result = runner.run(pool=pool)
    assert injector.fired_summary() == {"fleet.chunk.exception": 3}
    assert [(f.index, f.stage) for f in result.failures] == [(0, "serial")]
    assert [d.index for d in result.devices] == list(range(1, spec.num_devices))
    assert_report_bytes(result, tmp_path)


def test_all_quarantined_pooled_report_bytes(pool, tmp_path):
    """A pooled fleet that loses every device writes a well-formed
    report with an empty ``devices`` list."""
    spec = fleet("dev-smoke_4dev")
    plan = FaultPlan([Fault("fleet.chunk", when, "exception") for when in range(16)])
    runner = FleetRunner(
        spec,
        workers=2,
        parallel_threshold=1,
        retry=RetryPolicy(max_retries=0, backoff_s=0.0),
    )
    with chaos(plan):
        result = runner.run(pool=pool)
    assert result.num_devices == 0
    assert len(result.failures) == spec.num_devices
    assert_report_bytes(result, tmp_path)


def shard_bytes(ledger) -> dict:
    shards = ledger / "shards"
    return {name: (shards / name).read_bytes() for name in sorted(os.listdir(shards))}


@pytest.mark.parametrize(
    "name", ["csv", "mixed-harvester-city_4dev", "dev-smoke_default"]
)
def test_shard_artifacts_ignore_sub_batch_width_and_workers(name, tmp_path):
    spec = fleet(name)
    shards = 2
    baseline = tmp_path / "baseline"
    run_sharded(FleetShardSource(spec), str(baseline), shards=shards)
    # Any positive budget below the process's peak RSS halves the
    # executor's sub-batch width.
    halved = tmp_path / "halved"
    result = run_sharded(
        FleetShardSource(spec), str(halved), shards=shards, max_rss_mb=1e-3
    )
    assert result.degraded >= 1
    pooled = tmp_path / "pooled"
    run_sharded(FleetShardSource(spec), str(pooled), shards=shards, workers=2)
    expected = shard_bytes(baseline)
    assert len(expected) == shards
    assert shard_bytes(halved) == expected
    assert shard_bytes(pooled) == expected


@pytest.mark.parametrize("workers", ["1", "2"], ids=["serial", "pooled"])
def test_quiet_json_run_builds_no_device_result(workers, tmp_path, capsys):
    built, parallel = [], []
    real_init, real_run = DeviceResult.__init__, FleetRunner.run

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def run(self, pool=None):
        result = real_run(self, pool)
        parallel.append(self.last_run_parallel)
        return result

    report = tmp_path / "report.json"
    argv = ["run", "solar-farm-100", "--devices", "16", "--workers", workers]
    with (
        mock.patch.object(DeviceResult, "__init__", counting_init),
        mock.patch.object(FleetRunner, "run", run),
        # A pool even on a one-CPU host.
        mock.patch("repro.fleet.runner.usable_cpus", return_value=2),
    ):
        assert fleet_main(argv + ["--quiet", "--json", str(report)]) == 0
    capsys.readouterr()
    assert parallel == [workers == "2"]
    assert built == []
    assert len(json.loads(report.read_text())["devices"]) == 16
