"""Hypothesis property: any recoverable fault schedule leaves results
byte-identical to a fault-free run.

This is the tentpole guarantee of ``repro.faults``, stated as properties
rather than examples:

* **fleet level** — random small fleets × random seeded
  :class:`FaultPlan`\\ s over the ``fleet.chunk`` site, serial and
  forced-pool: the completed :class:`FleetResult` aggregate (and its
  canonical JSON bytes) equal the fault-free run's, with zero
  quarantines, because the plan's fault count never exceeds the retry
  budget;
* **campaign level** — random plans spanning dispatch *and* checkpoint
  sites: ``report.json`` bytes equal the fault-free run's, both on the
  chaos run itself and after a resume of its (possibly sabotaged)
  store.

Plans are generated by seed (``FaultPlan.random``), so any failing
example reduces to one integer.
"""

from __future__ import annotations

import json

from deep import examples
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaign import CAMPAIGNS, CampaignRunner, CampaignStore, run_campaign
from repro.faults import FaultPlan, RetryPolicy, chaos
from repro.fleet import DeviceSpec, FleetRunner, FleetSpec

MAX_RETRIES = 3  # plan fault counts stay <= this, so plans are recoverable
SERIAL_POLICY = RetryPolicy(max_retries=MAX_RETRIES, backoff_s=0.0)
POOL_POLICY = RetryPolicy(
    max_retries=MAX_RETRIES, worker_timeout=1.5, backoff_s=0.0, straggler_grace_s=3.0
)

TRACES = [
    {"family": "solar", "duration": 300.0, "dt": 1.0, "peak_mw": 0.03},
    {"family": "rf", "duration": 300.0, "dt": 1.0, "mean_mw": 0.01},
]


def build_fleet(n_devices: int, seed: int) -> FleetSpec:
    devices = [
        DeviceSpec(
            name=f"prop-{i}",
            trace=dict(TRACES[i % len(TRACES)]),
            controller={"kind": "greedy"},
            events={"kind": "uniform", "count": 10},
        )
        for i in range(n_devices)
    ]
    return FleetSpec(name="prop", seed=seed, devices=devices)


def canonical(result) -> str:
    agg = result.aggregate()
    agg.pop("wall_s", None)
    return json.dumps(agg, sort_keys=True, default=str)


_CLEAN_CACHE: dict = {}


def clean_bytes(n_devices: int, seed: int) -> str:
    key = (n_devices, seed)
    if key not in _CLEAN_CACHE:
        _CLEAN_CACHE[key] = canonical(FleetRunner(build_fleet(*key)).run())
    return _CLEAN_CACHE[key]


@settings(
    max_examples=examples(15),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_devices=st.integers(min_value=1, max_value=5),
    fleet_seed=st.integers(min_value=0, max_value=3),
    plan_seed=st.integers(min_value=0, max_value=10_000),
    n_faults=st.integers(min_value=0, max_value=MAX_RETRIES),
)
def test_serial_fleet_survives_any_recoverable_plan(
    n_devices, fleet_seed, plan_seed, n_faults
):
    plan = FaultPlan.random(
        plan_seed, faults=n_faults, sites=["fleet.chunk"], horizon=8, max_hang_s=0.1
    )
    spec = build_fleet(n_devices, fleet_seed)
    with chaos(plan):
        result = FleetRunner(spec, retry=SERIAL_POLICY).run()
    assert result.failures == []
    assert canonical(result) == clean_bytes(n_devices, fleet_seed)


@settings(
    max_examples=examples(5),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan_seed=st.integers(min_value=0, max_value=10_000),
    n_faults=st.integers(min_value=1, max_value=MAX_RETRIES),
)
def test_pooled_fleet_survives_any_recoverable_plan(plan_seed, n_faults):
    plan = FaultPlan.random(
        plan_seed, faults=n_faults, sites=["fleet.chunk"], horizon=6, max_hang_s=0.1
    )
    spec = build_fleet(4, 1)
    with chaos(plan):
        result = FleetRunner(
            spec, workers=2, parallel_threshold=1, retry=POOL_POLICY
        ).run()
    assert result.failures == []
    assert canonical(result) == clean_bytes(4, 1)


# --------------------------------------------------------------------- #
# Campaign level: dispatch + checkpoint sites together
# --------------------------------------------------------------------- #


_CLEAN_REPORT: dict = {}


def clean_report(tmp_path) -> bytes:
    if "bytes" not in _CLEAN_REPORT:
        out = tmp_path / "clean-baseline"
        run_campaign(CAMPAIGNS.build("dev-smoke"), out=str(out))
        _CLEAN_REPORT["bytes"] = (out / "report.json").read_bytes()
    return _CLEAN_REPORT["bytes"]


@settings(
    max_examples=examples(6),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(plan_seed=st.integers(min_value=0, max_value=10_000))
# Seed 435 puts ``empty`` then ``bitflip`` on one cell save: damage on an
# already-emptied artifact must be a no-op, not an IndexError.
@example(plan_seed=435)
def test_campaign_report_byte_identical_under_any_fault_schedule(plan_seed, tmp_path):
    expected = clean_report(tmp_path)
    plan = FaultPlan.random(
        plan_seed,
        faults=MAX_RETRIES,
        sites=["fleet.chunk", "campaign.cell.save", "campaign.cell.load"],
        horizon=6,
        max_hang_s=0.1,
    )
    out = tmp_path / f"chaos-{plan_seed}"
    with chaos(plan):
        run_campaign(CAMPAIGNS.build("dev-smoke"), out=str(out), retry=SERIAL_POLICY)
    assert (out / "report.json").read_bytes() == expected

    # ... and a plain resume of whatever the chaos run left on disk
    # (possibly sabotaged checkpoints) heals back to the same bytes.
    runner = CampaignRunner(
        CAMPAIGNS.build("dev-smoke"),
        store=CampaignStore(str(out)),
        resume=True,
        retry=SERIAL_POLICY,
    )
    runner.run()
    assert (out / "report.json").read_bytes() == expected
