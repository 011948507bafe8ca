"""Full-scale byte pins for fleets too large for the fast lane.

The ``fleet_*.json`` goldens hold at most 16 devices, so none of them
reaches what only large fleets exercise: trace stacks of many rows,
synthesis block boundaries, and more than one build window of the
engine's trace memo.  Each case here pins a full-scale fleet's serial
report by the sha256 of its canonical JSON (``to_dict()``,
``indent=2``, ``sort_keys=True``) and its aggregate exactly, so a drift
names the aggregate field that moved; the megacity slice also runs
sharded, as the sharded-megacity benchmark runs it, against the same
aggregate.  The lane runs them with ``-m fleet_heavy``.

If a change is intentional, regenerate the pins with::

    PYTHONPATH=src python tests/test_golden_heavy.py

and say why in the commit message — a silent regeneration defeats the net.
"""

import hashlib
import json
import os

import pytest

from repro.fleet import SCENARIOS, FleetRunner, FleetSpec
from repro.fleet.shards import ScenarioShardSource, run_sharded

PINS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "heavy_pins.json"
)

#: (case id, scenario, seed, overrides, episodes: > 0 sets every device's
#: episode count, as perfbench's brownout-replay spec does).
CASES = (
    ("city-block-1k-seed31", "city-block-1k", 31, {}, 0),
    ("megacity-1m-2000dev-seed101", "megacity-1m", 101, {"num_devices": 2000}, 0),
    ("brownout-replay-seed47", "brownout-grid-256", 47, {}, 8),
)


def build_spec(scenario, seed, overrides, episodes):
    spec = SCENARIOS.build(scenario, seed=seed, **overrides)
    if episodes:
        data = spec.to_dict()
        for device in data["devices"]:
            device["episodes"] = episodes
        spec = FleetSpec.from_dict(data)
    return spec


def serial_pin(scenario, seed, overrides, episodes) -> dict:
    """The serial report's sha256 and its aggregate."""
    spec = build_spec(scenario, seed, overrides, episodes)
    report = FleetRunner(spec, workers=1).run().to_dict()
    body = json.dumps(report, indent=2, sort_keys=True).encode()
    return {
        "report_sha256": hashlib.sha256(body).hexdigest(),
        "aggregate": report["aggregate"],
    }


def _pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


@pytest.mark.fleet_heavy
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_full_scale_serial_report_matches_pin(case):
    case_id, scenario, seed, overrides, episodes = case
    pin = _pins()[case_id]
    assert pin["scenario"] == scenario and pin["seed"] == seed
    got = serial_pin(scenario, seed, overrides, episodes)
    assert got["aggregate"] == pin["aggregate"]
    assert got["report_sha256"] == pin["report_sha256"]


@pytest.mark.fleet_heavy
def test_sharded_megacity_matches_the_serial_pin(tmp_path):
    """The sharded-megacity benchmark's own path: the 2000-device slice
    in 8 shards, drained by 2 shard workers through a fresh ledger, merges
    to the serial pin's aggregate."""
    pin = _pins()["megacity-1m-2000dev-seed101"]
    source = ScenarioShardSource(
        pin["scenario"], {**pin["overrides"], "seed": pin["seed"]}
    )
    result = run_sharded(source, str(tmp_path / "ledger"), shards=8, workers=2)
    assert result.aggregate() == pin["aggregate"]


def test_every_case_is_pinned():
    """A case without a pin (or a pin without a case) fails in the fast
    lane, not only when the heavy lane runs."""
    assert set(_pins()) == {c[0] for c in CASES}


if __name__ == "__main__":
    pins = {}
    for case_id, scenario, seed, overrides, episodes in CASES:
        pins[case_id] = {
            "scenario": scenario,
            "seed": seed,
            "overrides": overrides,
            "episodes": episodes,
            **serial_pin(scenario, seed, overrides, episodes),
        }
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
