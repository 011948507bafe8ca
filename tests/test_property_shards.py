"""Hypothesis property: ANY partition of ANY fleet shards losslessly.

The sharded-identity contract stated as a property rather than examples:
for a random heterogeneous fleet and a random partition of its device
axis — shard widths from 1 to N, deliberately uneven — executing through
the shard ledger and merging produces

* an aggregate whose canonical JSON bytes equal the unsharded
  :class:`FleetResult` aggregate's (percentiles included — the
  concatenate-before-reduce rule in
  :class:`~repro.fleet.results.ShardAggregator` is what makes float
  reductions bit-identical, not just close), and
* the same parent-side outcome metrics (counters + the per-device IEpmJ
  histogram summary) as the unsharded run, because outcome metrics are
  recorded from the merged result, never per-shard.

Partitions are drawn as random cut sets, so shrinking converges on the
smallest fleet + coarsest cut that breaks identity.
"""

from __future__ import annotations

import json
import tempfile

from deep import examples
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import (
    DeviceSpec,
    FleetRunner,
    FleetSpec,
    FleetShardSource,
    ShardPlan,
    run_sharded,
)
from repro.obs import Recorder, recording

TRACES = [
    {"family": "solar", "duration": 300.0, "dt": 1.0, "peak_mw": 0.03},
    {"family": "rf", "duration": 300.0, "dt": 1.0, "mean_mw": 0.01},
]

CONTROLLERS = [
    {"kind": "greedy"},
    {"kind": "fixed", "exit_index": 0},
]


def build_fleet(n_devices: int, seed: int) -> FleetSpec:
    devices = [
        DeviceSpec(
            name=f"prop-{i}",
            trace=dict(TRACES[i % len(TRACES)]),
            controller=dict(CONTROLLERS[i % len(CONTROLLERS)]),
            events={"kind": "uniform", "count": 10},
        )
        for i in range(n_devices)
    ]
    return FleetSpec(name="prop", seed=seed, devices=devices)


def canonical(aggregate: dict) -> str:
    return json.dumps(aggregate, sort_keys=True, separators=(",", ":"))


OUTCOME_COUNTERS = (
    "fleet.runs", "fleet.devices", "fleet.events",
    "fleet.events.processed", "fleet.events.missed", "fleet.events.correct",
)

_CLEAN_CACHE: dict = {}


def clean_run(n_devices: int, seed: int):
    """(canonical aggregate bytes, outcome-metric view) of the unsharded run."""
    key = (n_devices, seed)
    if key not in _CLEAN_CACHE:
        rec = Recorder(metrics=True)
        with recording(rec):
            result = FleetRunner(build_fleet(*key)).run()
        metrics = rec.to_dict()["metrics"]
        _CLEAN_CACHE[key] = (
            canonical(result.aggregate()),
            {name: metrics["counters"][name] for name in OUTCOME_COUNTERS},
            metrics["histograms"]["fleet.device.iepmj"],
        )
    return _CLEAN_CACHE[key]


@settings(
    max_examples=examples(12), deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_devices=st.integers(min_value=1, max_value=6),
    fleet_seed=st.integers(min_value=0, max_value=3),
    cuts=st.sets(st.integers(min_value=1, max_value=5), max_size=5),
)
def test_any_partition_merges_byte_identical(n_devices, fleet_seed, cuts):
    spec = build_fleet(n_devices, fleet_seed)
    edges = [0] + sorted(c for c in cuts if c < n_devices) + [n_devices]
    plan = ShardPlan(n_devices, edges)
    expected_agg, expected_counters, expected_hist = clean_run(
        n_devices, fleet_seed
    )
    rec = Recorder(metrics=True)
    with tempfile.TemporaryDirectory() as ledger_dir:
        with recording(rec):
            result = run_sharded(FleetShardSource(spec), ledger_dir, plan=plan)
    assert canonical(result.aggregate()) == expected_agg
    metrics = rec.to_dict()["metrics"]
    for name in OUTCOME_COUNTERS:
        assert metrics["counters"][name] == expected_counters[name], name
    assert metrics["histograms"]["fleet.device.iepmj"] == expected_hist
