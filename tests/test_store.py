"""The sealed-artifact layer: format, verified read, publish-once.

Campaign cells, shard-ledger artifacts and gateway checkpoints all go
through :mod:`repro.store`; the campaign, shard and gateway suites drive
it through their own keys.  Pinned here: the exact bytes of a sealed
artifact, that every kind of damage is one :class:`CorruptArtifactError`
naming the path and the cause, that chaos damage applied to an already
emptied artifact is a no-op, and the publish-once paths no other suite
reaches.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.errors import ConfigError, CorruptArtifactError
from repro.faults import Fault, FaultPlan, chaos
from repro.store import cell_checksum, publish_once, read_sealed, write_sealed

PAYLOAD = {"key": "a", "values": list(range(20)), "nested": {"x": 1.5}}


def artifact(tmp_path, name="a.json"):
    directory = tmp_path / "cells"
    directory.mkdir(exist_ok=True)
    return str(directory / name)


def rewrite(path, mutate):
    body = json.loads(Path(path).read_text())
    mutate(body)
    Path(path).write_text(json.dumps(body))


def test_sealed_bytes_are_canonical_json(tmp_path):
    path = artifact(tmp_path)
    digest = write_sealed(path, PAYLOAD)
    assert digest == cell_checksum(PAYLOAD)
    sealed = {**PAYLOAD, "integrity": {"algo": "sha256", "digest": digest}}
    expected = json.dumps(sealed, indent=2, sort_keys=True) + "\n"
    assert Path(path).read_text() == expected
    assert read_sealed(path) == (PAYLOAD, digest)


#: kind -> (damage applied to a sealed artifact, the cause the error names)
DAMAGE = {
    "undecodable": (lambda p: Path(p).write_bytes(b"\xff\xfe{"), "invalid JSON"),
    "not-an-object": (lambda p: Path(p).write_text("[1, 2]"), "JSON object"),
    "unsealed": (lambda p: rewrite(p, lambda b: b.pop("integrity")), "missing"),
    "string-seal": (
        lambda p: rewrite(p, lambda b: b.update(integrity="sha256")),
        "malformed",
    ),
    "list-seal": (
        lambda p: rewrite(p, lambda b: b.update(integrity=["sha256"])),
        "malformed",
    ),
    "wrong-algo": (
        lambda p: rewrite(p, lambda b: b["integrity"].update(algo="md5")),
        "malformed",
    ),
    "no-digest": (
        lambda p: rewrite(p, lambda b: b["integrity"].pop("digest")),
        "malformed",
    ),
    "edited": (
        lambda p: rewrite(p, lambda b: b.update(key="b")),
        "checksum mismatch",
    ),
}


@pytest.mark.parametrize("kind", sorted(DAMAGE))
def test_damage_is_one_error_naming_path_and_cause(tmp_path, kind):
    path = artifact(tmp_path)
    write_sealed(path, PAYLOAD)
    damage, cause = DAMAGE[kind]
    damage(path)
    with pytest.raises(CorruptArtifactError, match=cause) as info:
        read_sealed(path)
    assert path in str(info.value)
    assert isinstance(info.value, ConfigError)


def test_damage_after_empty_is_a_no_op(tmp_path):
    path = artifact(tmp_path)
    plan = FaultPlan(
        [
            Fault("campaign.cell.save", 0, "empty"),
            Fault("campaign.cell.save", 0, "bitflip", {"offset_frac": 0.4}),
            Fault("campaign.cell.save", 0, "truncate"),
        ]
    )
    with chaos(plan) as injector:
        write_sealed(path, PAYLOAD, chaos_site="campaign.cell.save")
    assert injector.fired_summary() == {
        "campaign.cell.save.empty": 1,
        "campaign.cell.save.bitflip": 1,
        "campaign.cell.save.truncate": 1,
    }
    assert os.path.getsize(path) == 0
    with pytest.raises(CorruptArtifactError, match="zero-byte"):
        read_sealed(path)


def test_publish_once_replaces_a_corrupt_incumbent(tmp_path):
    path = artifact(tmp_path)
    publish_once(path, PAYLOAD)
    Path(path).write_text("")
    assert publish_once(path, PAYLOAD) == "published"
    assert read_sealed(path)[0] == PAYLOAD
    assert os.path.getsize(tmp_path / "quarantine" / "a.json") == 0


def test_publish_once_damages_only_what_it_published(tmp_path):
    path = artifact(tmp_path)
    plan = FaultPlan([Fault("fleet.shard.save", 1, "truncate")])
    with chaos(plan) as injector:
        assert publish_once(path, PAYLOAD, "fleet.shard.save") == "published"
        assert publish_once(path, PAYLOAD, "fleet.shard.save") == "verified"
    assert injector.fired_summary() == {}
    assert read_sealed(path)[0] == PAYLOAD
