"""P6 — observability overhead: the no-op path must be free.

The PR-6 contract is that a run with observability off (the default
``NULL_RECORDER``) costs nothing measurable: every hot-loop
instrumentation point reduces to one attribute read and a ``None``
check.  This bench drives a 32-device solar farm serially and gates the
no-op cost at ≤2%.

The gate is a **paired, interleaved** comparison: no-op and
fully-enabled (metrics + phase profiler) rounds alternate inside one
process, and the no-op best must stay within 2% of the enabled best.
The enabled path strictly contains all the no-op path's work, so if the
"free" path falls measurably behind the paying one, a guard inverted or
a recorder leaked into the default — the exact regressions the contract
forbids.  A direct gate against a pre-instrumentation build is
impossible (that code no longer exists in-tree), and a cross-process
gate is hopeless at the 2% level on a 1-vCPU microVM whose run-to-run
wall clock swings by tens of percent; the cross-run trajectory is gated
by ``compare.py``'s collapse thresholds.

Also asserts the stronger determinism contract end-to-end: the fleet
report is byte-identical with observability off and fully on.
"""

from __future__ import annotations

import json

from benchmarks.conftest import BENCH_SMOKE as SMOKE
from benchmarks.conftest import bench_output_path, print_table, write_bench_json
from repro.fleet import SCENARIOS, FleetRunner
from repro.obs.recorder import Recorder, recording

ROUNDS = 1 if SMOKE else 7
FLEET_SEED = 13
DEVICES = 32

#: The no-op gate: obs-off throughput must stay within this fraction of
#: the fully-enabled path measured in the same interleaved block.
NOOP_OVERHEAD_FRAC = 0.02

BENCH_JSON = bench_output_path("BENCH_p6_obs.json")

_RESULTS: dict = {}


def _spec():
    return SCENARIOS.build("solar-farm-100", num_devices=DEVICES, seed=FLEET_SEED)


def _interleaved_best(spec, rounds: int = ROUNDS):
    """(noop_best_s, obs_best_s, noop_result, obs_result), rounds paired.

    Alternating rounds share whatever the host is doing to the clock, so
    the noop/obs ratio is far more stable than either absolute number.
    A fresh Recorder per obs round pays the full cost from a cold
    registry every time.
    """
    FleetRunner(spec, workers=1).run()  # warm per-process caches
    noop_best = obs_best = float("inf")
    noop_result = obs_result = None
    for _ in range(rounds):
        noop_result = FleetRunner(spec, workers=1).run()
        noop_best = min(noop_best, noop_result.wall_s)
        with recording(Recorder(metrics=True, profile=True)):
            obs_result = FleetRunner(spec, workers=1).run()
        obs_best = min(obs_best, obs_result.wall_s)
    return noop_best, obs_best, noop_result, obs_result


def test_p6_noop_overhead_and_identity():
    spec = _spec()
    # Up to 3 attempts of the whole interleaved block: even the paired
    # ratio can lose to a burst of host contention landing on one side;
    # a real no-op-path regression fails every attempt.
    attempts = 0
    for attempts in range(1, 2 if SMOKE else 4):
        noop_best, obs_best, noop, with_obs = _interleaved_best(spec)
        if noop_best <= obs_best * (1.0 + NOOP_OVERHEAD_FRAC):
            break
    noop_dps = DEVICES / noop_best
    obs_dps = DEVICES / obs_best
    _RESULTS["obs32"] = {
        "devices": DEVICES,
        "gate_attempts": attempts,
        "noop_best_s": noop_best,
        "noop_devices_per_s": noop_dps,
        "obs_on_best_s": obs_best,
        "obs_on_devices_per_s": obs_dps,
        "noop_vs_obs_on_frac": noop_best / obs_best - 1.0,
    }
    print_table(
        f"P6: {DEVICES}-device batched fleet, observability cost (interleaved)",
        [
            ("off (no-op)", f"{noop_best * 1e3:.1f}", f"{noop_dps:.0f}"),
            ("metrics+profile", f"{obs_best * 1e3:.1f}", f"{obs_dps:.0f}"),
        ],
        ["observability", "best_ms", "devices/s"],
    )

    # Determinism contract: full obs never changes a single byte of the
    # fleet report.
    assert json.dumps(noop.to_dict(), sort_keys=True) == json.dumps(
        with_obs.to_dict(), sort_keys=True
    )

    if not SMOKE:
        assert noop_best <= obs_best * (1.0 + NOOP_OVERHEAD_FRAC), (
            f"no-op observability path more than {NOOP_OVERHEAD_FRAC:.0%} "
            f"slower than the fully-enabled path: {noop_dps:.0f} vs "
            f"{obs_dps:.0f} devices/s — is a recorder active by default?"
        )


def test_p6_write_bench_json():
    """Flush the machine-readable trajectory file (always runs last)."""
    assert "obs32" in _RESULTS, "earlier P6 section did not run"
    payload = {
        "bench": "p6_obs",
        "smoke": SMOKE,
        "rounds": ROUNDS,
        "noop_overhead_frac_gate": NOOP_OVERHEAD_FRAC,
        **_RESULTS,
    }
    payload = write_bench_json(BENCH_JSON, payload)
    print(f"\nBENCH_p6_obs: {json.dumps(payload, sort_keys=True)}")
