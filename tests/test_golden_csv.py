"""Golden regression for a fleet of csv-trace devices.

``tests/golden/csv_fleet.json`` pins a 16-device fleet whose harvesters
replay the two small files under ``tests/golden/csv/`` (one single-column
file at an explicit ``dt``, one two-column time/power file).  The fleet
mixes every controller preset, threshold and learned continue rules,
single-cycle and intermittent execution, and one- and two-episode
devices.  Its aggregate was recorded through the per-device simulator,
so every fleet path below must reproduce numbers the scalar oracle
produced.  A csv path that names no file is a spec error on every path.

``tests/golden/csv_shards/`` holds the two sealed artifacts a 2-shard
``run_sharded`` writes for the same fleet.  They pin the packed
per-device columns the shard ledger stores (the ``raw`` shape for
``miss_counts``, the ``keys`` shape for the percentile dicts, exit
histograms of width 1 and 3) byte for byte.

Trace paths in the golden spec are relative to the repository root;
:func:`_golden` resolves them, so the tests run from any directory.  If
the arithmetic changes on purpose, regenerate the aggregate with
``FleetRunner(spec, workers=1).run().aggregate()`` (and the shard files
with ``run_sharded(FleetShardSource(spec), ledger, shards=2)``) and say
why in the commit message.
"""

import json
import os
import shutil

import pytest

from repro.errors import ConfigError
from repro.fleet import FleetRunner, FleetShardSource, FleetSpec, run_sharded
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.results import unpack_device_results
from repro.gateway import FleetTwin, load_checkpoint, save_checkpoint

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
GOLDEN_PATH = os.path.join(TESTS_DIR, "golden", "csv_fleet.json")
SHARDS_DIR = os.path.join(TESTS_DIR, "golden", "csv_shards")
SHARD_FILES = ("s0000000-0000008.json", "s0000008-0000016.json")


def _golden():
    """``(FleetSpec with absolute csv paths, golden aggregate)``."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    data = golden["spec"]
    for device in data["devices"]:
        trace = device["trace"]
        trace["path"] = os.path.join(REPO_ROOT, trace["path"])
    return FleetSpec.from_dict(data), golden["aggregate"]


def _aggregate(result) -> dict:
    # The json round trip normalizes types the way the golden stores
    # them, so == is an exact, bit-level comparison.
    return json.loads(json.dumps(result.aggregate()))


def _payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def test_golden_fleet_covers_the_csv_surface():
    spec, _ = _golden()
    devices = spec.devices
    assert {d.trace["family"] for d in devices} == {"csv"}
    assert {"dt" in d.trace for d in devices} == {True, False}
    assert {d.execution for d in devices} == {"single-cycle", "intermittent"}
    assert {d.episodes for d in devices} == {1, 2}
    rules = {d.controller.get("continue_rule", {}).get("kind") for d in devices}
    assert {"threshold", "learned"} <= rules


def test_serial_matches_golden():
    spec, aggregate = _golden()
    assert _aggregate(FleetRunner(spec, workers=1).run()) == aggregate


def test_oracle_matches_golden(oracle):
    spec, aggregate = _golden()
    result = oracle(spec)
    assert _aggregate(result) == aggregate
    assert _payload(result) == _payload(FleetRunner(spec, workers=1).run())


def test_pooled_matches_golden():
    spec, aggregate = _golden()
    runner = FleetRunner(spec, workers=2, parallel_threshold=1)
    result = runner.run()
    assert runner.last_run_parallel
    assert _aggregate(result) == aggregate
    assert _payload(result) == _payload(FleetRunner(spec, workers=1).run())


@pytest.mark.parametrize("shards", [1, 3])
def test_sharded_matches_golden(tmp_path, shards):
    spec, aggregate = _golden()
    ledger = str(tmp_path / "ledger")
    result = run_sharded(FleetShardSource(spec), ledger, shards=shards)
    assert _aggregate(result) == aggregate


def _golden_shard_bytes() -> dict:
    out = {}
    for name in SHARD_FILES:
        with open(os.path.join(SHARDS_DIR, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_sharded_artifacts_match_golden_bytes(tmp_path):
    spec, _ = _golden()
    ledger = tmp_path / "ledger"
    run_sharded(FleetShardSource(spec), str(ledger), shards=2)
    written = {
        name: (ledger / "shards" / name).read_bytes()
        for name in sorted(os.listdir(ledger / "shards"))
    }
    assert written == _golden_shard_bytes()


def test_golden_artifacts_merge_without_executing(tmp_path):
    spec, aggregate = _golden()
    shards = tmp_path / "ledger" / "shards"
    shards.mkdir(parents=True)
    for name in SHARD_FILES:
        shutil.copy(os.path.join(SHARDS_DIR, name), shards / name)
    result = run_sharded(FleetShardSource(spec), str(tmp_path / "ledger"), shards=2)
    assert result.shards_executed == 0 and result.shards_resumed == 2
    assert _aggregate(result) == aggregate


def test_golden_artifacts_unpack_to_engine_results():
    spec, _ = _golden()
    serial = [d.to_dict(include_timing=True) for d in FleetRunner(spec).run().devices]
    for raw in _golden_shard_bytes().values():
        body = json.loads(raw)
        start, end = body["start"], body["end"]
        devices = unpack_device_results(body["devices"])
        assert [d.to_dict(include_timing=True) for d in devices] == serial[start:end]


def test_cli_serial_and_pooled_reports_are_identical(tmp_path, capsys):
    spec, aggregate = _golden()
    spec_path = tmp_path / "csv_fleet_spec.json"
    spec.to_json(str(spec_path))
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"report-w{workers}.json"
        argv = ["run", "--spec", str(spec_path), "--workers", workers]
        assert fleet_main(argv + ["--quiet", "--json", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["aggregate"] == aggregate


@pytest.mark.parametrize("k", [1, 7])
def test_gateway_twin_matches_golden(tmp_path, k):
    spec, aggregate = _golden()
    twin = FleetTwin.from_spec(spec.to_dict())
    twin.advance(k)
    checkpoint = tmp_path / "csv-twin.ck.json"
    save_checkpoint(twin, str(checkpoint))
    restored = load_checkpoint(str(checkpoint))
    for live in (twin, restored):
        while not live.finished:
            assert live.advance(k)["executed"] > 0
        assert json.loads(json.dumps(live.query("aggregate"))) == aggregate


def _with_missing_csv(target):
    spec, _ = _golden()
    data = spec.to_dict()
    data["devices"][5]["trace"]["path"] = str(target)
    return FleetSpec.from_dict(data)


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
def test_missing_csv_path_is_a_config_error(tmp_path, pooled):
    missing = tmp_path / "gone.csv"
    spec = _with_missing_csv(missing)
    runner = FleetRunner(spec, workers=2 if pooled else 1, parallel_threshold=1)
    with pytest.raises(ConfigError, match="does not exist") as err:
        runner.run()
    assert runner.last_run_parallel == pooled
    assert str(missing) in str(err.value)
    directory = _with_missing_csv(tmp_path)
    with pytest.raises(ConfigError, match="is a directory"):
        FleetRunner(directory, workers=1).run()


def test_cli_reports_missing_csv_path(tmp_path, capsys):
    missing = tmp_path / "gone.csv"
    spec_path = tmp_path / "spec.json"
    _with_missing_csv(missing).to_json(str(spec_path))
    for workers in ("1", "2"):
        argv = ["run", "--spec", str(spec_path), "--workers", workers, "--quiet"]
        assert fleet_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
