"""Gateway twin determinism against the committed goldens.

The gateway's hard requirement (ISSUE 10 / ROADMAP): advancing a fleet
in K increments through a :class:`~repro.gateway.twin.FleetTwin` — any
split, across checkpoint/restore cycles and ``submit`` cohorts — must
produce aggregates byte-identical to one uninterrupted
:class:`~repro.fleet.runner.FleetRunner` run.  These tests enforce it
against the same ``tests/golden/`` files that pin the engines, so a twin
that drifts from the one-shot path by a single float bit fails loudly.
"""

import glob
import json
import os

import pytest

from repro.errors import ConfigError, CorruptArtifactError, GatewayError
from repro.fleet import SCENARIOS, FleetRunner
from repro.gateway import FleetTwin, load_checkpoint, save_checkpoint

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_FILES = sorted(glob.glob(os.path.join(GOLDEN_DIR, "fleet_*.json")))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _case_id(path):
    return os.path.basename(path)[len("fleet_"):-len(".json")]


def _exact(aggregate, golden_aggregate):
    # json round-trip normalizes int/float types the same way the golden
    # file stores them, so == is an exact (bit-stable) comparison.
    assert json.loads(json.dumps(aggregate)) == golden_aggregate


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=_case_id)
@pytest.mark.parametrize("k", [1, 3, 7])
def test_incremental_advance_matches_golden(path, k):
    """Any K-way split of advance() reproduces the golden bits."""
    golden = _load(path)
    twin = FleetTwin.from_scenario(golden["scenario"], golden["overrides"])
    increments = 0
    while not twin.finished:
        assert twin.advance(k)["executed"] > 0
        increments += 1
    assert increments >= twin.total_steps // k
    _exact(twin.query("aggregate"), golden["aggregate"])


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=_case_id)
def test_checkpoint_restore_matches_golden(path, tmp_path):
    """Checkpoint mid-run, replay into a fresh twin, finish both: the
    restored twin reproduces the golden bits (and the original's)."""
    golden = _load(path)
    twin = FleetTwin.from_scenario(golden["scenario"], golden["overrides"])
    twin.advance(max(1, twin.total_steps // 3))
    ck = tmp_path / "twin.ck.json"
    summary = save_checkpoint(twin, str(ck))
    assert summary["steps_done"] == twin.steps_done
    restored = load_checkpoint(str(ck))
    assert restored.steps_done == twin.steps_done
    twin.advance(None)
    restored.advance(None)
    _exact(twin.query("aggregate"), golden["aggregate"])
    _exact(restored.query("aggregate"), golden["aggregate"])


def test_submit_cohorts_match_one_shot():
    """Devices submitted in waves aggregate identically to one fleet."""
    spec = SCENARIOS.build("mixed-harvester-city", num_devices=8)
    one = FleetRunner(spec, workers=1).run().aggregate()
    half = [d.to_dict() for d in spec.devices]
    twin = FleetTwin.from_spec(
        {"name": spec.name, "seed": spec.seed, "devices": half[:3]}
    )
    twin.advance(5)  # first cohort already mid-flight when the rest arrive
    out = twin.submit(half[3:])
    assert out["devices"] == 8 and out["added"] == 5
    twin.advance(None)
    _exact(twin.query("aggregate"), one)


def test_submit_cohorts_checkpoint_roundtrip(tmp_path):
    """The journal replays submit cohorts and partial advances exactly."""
    spec = SCENARIOS.build("dev-smoke")
    one = FleetRunner(spec, workers=1).run().aggregate()
    devices = [d.to_dict() for d in spec.devices]
    twin = FleetTwin.from_spec(
        {"name": spec.name, "seed": spec.seed, "devices": devices[:2]}
    )
    twin.advance(3)
    twin.submit(devices[2:])
    twin.advance(4)
    ck = tmp_path / "cohorts.ck.json"
    save_checkpoint(twin, str(ck))
    restored = load_checkpoint(str(ck))
    twin.advance(None)
    restored.advance(None)
    _exact(restored.query("aggregate"), one)
    _exact(twin.query("aggregate"), one)


def test_corrupt_checkpoint_is_detected(tmp_path):
    twin = FleetTwin.from_scenario("dev-smoke")
    ck = tmp_path / "ck.json"
    save_checkpoint(twin, str(ck))
    raw = bytearray(ck.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    ck.write_bytes(bytes(raw))
    with pytest.raises(CorruptArtifactError):
        load_checkpoint(str(ck))


def test_malformed_seal_is_detected(tmp_path):
    twin = FleetTwin.from_scenario("dev-smoke")
    ck = tmp_path / "ck.json"
    save_checkpoint(twin, str(ck))
    body = json.loads(ck.read_text())
    body["integrity"] = "sha256"  # a seal that is not an object
    ck.write_text(json.dumps(body))
    with pytest.raises(CorruptArtifactError, match="malformed"):
        load_checkpoint(str(ck))


def test_missing_and_empty_checkpoints(tmp_path):
    with pytest.raises(GatewayError):
        load_checkpoint(str(tmp_path / "nope.json"))
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(CorruptArtifactError):
        load_checkpoint(str(empty))


def test_query_before_finished_is_an_error():
    twin = FleetTwin.from_scenario("dev-smoke")
    twin.advance(1)
    with pytest.raises(GatewayError, match="mid-run"):
        twin.query("aggregate")
    progress = twin.query("progress")
    assert progress["steps_done"] == 1 and not progress["finished"]
    with pytest.raises(GatewayError, match="unknown query"):
        twin.advance(None)
        twin.query("nonsense")


def test_advance_rejects_negative_steps():
    twin = FleetTwin.from_scenario("dev-smoke")
    with pytest.raises(ConfigError):
        twin.advance(-1)


def test_journal_shape():
    """The journal is plain JSON data: create, then submits/advances."""
    twin = FleetTwin.from_scenario("dev-smoke")
    twin.advance(2)
    twin.advance(None)
    ops = [op["op"] for op in twin.journal]
    assert ops[0] == "create" and set(ops[1:]) == {"advance"}
    json.dumps(twin.journal)  # must be serializable as-is
