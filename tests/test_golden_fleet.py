"""Golden-fleet regression tests.

The fleet layer promises that a (scenario, seed) pair pins results
bit-for-bit: across runs, across worker counts, and across refactors of
the trace/simulator/aggregation hot path.  The campaign layer's resume
guarantee (interrupted == uninterrupted, byte-identical reports) is built
directly on that promise, so it gets locked in here against committed
reference aggregates under ``tests/golden/``.

Aggregates are compared **exactly** — including float bits.  JSON numbers
round-trip exactly through Python floats (``repr`` <-> parse), so any
mismatch means the simulation arithmetic actually changed.  If a change
is intentional, regenerate every golden with::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.fleet import SCENARIOS, FleetRunner
    CASES = [("dev-smoke", {}), ("dev-smoke", {"num_devices": 4}),
             ("solar-farm-100", {"num_devices": 4}),
             ("indoor-rf-swarm", {"num_devices": 4}),
             ("mixed-harvester-city", {"num_devices": 4}),
             ("city-block-1k", {"num_devices": 4}),
             ("brownout-grid-256", {"num_devices": 4}),
             ("duty-cycle-farm-512", {"num_devices": 4}),
             ("megacity-1m", {"num_devices": 4})]
    for scenario, overrides in CASES:
        result = FleetRunner(SCENARIOS.build(scenario, **overrides), workers=1).run()
        suffix = f"{overrides['num_devices']}dev" if overrides else "default"
        with open(f"tests/golden/fleet_{scenario}_{suffix}.json", "w") as fh:
            json.dump({"scenario": scenario, "overrides": overrides,
                       "aggregate": result.aggregate()}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    EOF

and say why in the commit message — a silent regeneration defeats the net.
"""

import glob
import json
import os

import pytest

from repro.fleet import SCENARIOS, FleetRunner

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_FILES = sorted(glob.glob(os.path.join(GOLDEN_DIR, "fleet_*.json")))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _case_id(path):
    return os.path.basename(path)[len("fleet_"):-len(".json")]


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=_case_id)
def test_serial_aggregate_matches_golden(path):
    golden = _load(path)
    spec = SCENARIOS.build(golden["scenario"], **golden["overrides"])
    result = FleetRunner(spec, workers=1).run()
    # json round-trip normalizes int/float types the same way the golden
    # file stores them, so == is an exact (bit-stable) comparison.
    assert json.loads(json.dumps(result.aggregate())) == golden["aggregate"]


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=_case_id)
@pytest.mark.parametrize("engine", ["batched", "device"])
def test_engine_choice_matches_golden(path, engine, oracle):
    """Both simulation forms reproduce every golden (the determinism
    contract): ``batched`` is the lockstep engine every fleet runs on,
    ``device`` the per-device scalar oracle it is held to."""
    golden = _load(path)
    spec = SCENARIOS.build(golden["scenario"], **golden["overrides"])
    if engine == "batched":
        result = FleetRunner(spec, workers=1).run()
    else:
        result = oracle(spec)
    assert json.loads(json.dumps(result.aggregate())) == golden["aggregate"]


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=_case_id)
def test_parallel_aggregate_matches_golden(path):
    """Worker processes must reproduce the same bits as the serial run.

    ``parallel_threshold=1`` forces the pool path (these fleets are below
    the auto fallback floor, and the whole point here is to exercise the
    chunked batch dispatch + packed wire form end to end).
    """
    golden = _load(path)
    spec = SCENARIOS.build(golden["scenario"], **golden["overrides"])
    result = FleetRunner(spec, workers=2, chunksize=1, parallel_threshold=1).run()
    assert json.loads(json.dumps(result.aggregate())) == golden["aggregate"]


def test_goldens_exist_for_every_scenario():
    """Adding a scenario to the registry requires committing its golden."""
    covered = {_load(p)["scenario"] for p in GOLDEN_FILES}
    assert covered == set(SCENARIOS.names())
