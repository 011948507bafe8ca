"""Observability tour (mirrors examples/fleet_demo.py).

Four stops on the :mod:`repro.obs` line:

1. scope a recorder with :func:`recording` and read the metrics a fleet
   run leaves behind (counters, gauges, timing histograms);
2. trace spans to JSON lines, manifest first, and inspect the file;
3. turn on the phase profiler and see where a batched run's wall clock
   goes (lockstep loop vs intermittent kernel);
4. prove the determinism contract: the fleet report is byte-identical
   with observability off and fully on.

Run:  python examples/obs_demo.py
"""

import json
import os
import tempfile

from repro.fleet import SCENARIOS, FleetRunner
from repro.obs import Recorder, recording, span


def fleet_metrics():
    """Counters/gauges/histograms recorded around a fleet run."""
    print("\n== metrics: what did that run actually do? ==")
    spec = SCENARIOS.build("solar-farm-100", num_devices=12)
    with recording() as rec:
        FleetRunner(spec, workers=1).run()
    metrics = rec.metrics.to_dict()
    counters, gauges = metrics["counters"], metrics["gauges"]
    print(f"  workers={gauges['fleet.workers']}  parallel={gauges['fleet.parallel']}")
    for name in ("fleet.devices", "fleet.events", "fleet.events.processed"):
        print(f"  {name:<24} {counters[name]}")
    iepmj = metrics["histograms"]["fleet.device.iepmj"]
    print(
        f"  fleet.device.iepmj       p50 {iepmj['p50']:.3f}  "
        f"p95 {iepmj['p95']:.3f}  max {iepmj['max']:.3f}"
    )


def trace_to_jsonl():
    """Span trace on disk: one manifest line, then one line per span."""
    print("\n== tracing: spans to JSON lines, provenance first ==")
    path = os.path.join(tempfile.gettempdir(), "obs_demo_trace.jsonl")
    spec = SCENARIOS.build("indoor-rf-swarm", num_devices=8)
    with recording(trace_path=path) as rec:
        rec.trace.emit({"type": "manifest", "demo": "obs"})
        with span("demo.outer", fleet=spec.name):
            FleetRunner(spec, workers=1).run()
    records = [json.loads(line) for line in open(path)]
    print(f"  {path}: {len(records)} records")
    for record in records:
        label = record.get("name") or record.get("demo")
        dur = record.get("dur_s")
        extra = f"  dur {dur:.3f}s  depth {record['depth']}" if dur is not None else ""
        print(f"    {record['type']:<8} {label}{extra}")


def batched_phase_profile():
    """Where the batched engine's wall clock goes on a mixed fleet."""
    print("\n== profiler: batched-engine phases on a mixed 32-device block ==")
    spec = SCENARIOS.build("city-block-1k", num_devices=32)
    recorder = Recorder(metrics=True, profile=True)
    with recording(recorder):
        FleetRunner(spec, workers=1).run()
    profile = recorder.profiler.to_dict()
    for name, phase in sorted(profile["phases"].items()):
        print(f"  {name:<20} {phase['wall_s'] * 1e3:8.1f} ms  x{phase['calls']}")
    counts = profile["counts"]
    print(
        f"  lockstep passes {counts.get('batch.lockstep.passes', 0)}, "
        f"intermittent micro-passes {counts.get('intermittent.micro_passes', 0)}"
    )


def identity_contract():
    """Observability never changes a byte of the fleet report."""
    print("\n== determinism: report identical with obs off and fully on ==")
    spec = SCENARIOS.build("mixed-harvester-city", num_devices=10)
    plain = FleetRunner(spec, workers=1).run()
    with recording(trace_path=os.devnull, profile=True):
        observed = FleetRunner(spec, workers=1).run()
    match = json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
        observed.to_dict(), sort_keys=True
    )
    print(f"  reports byte-identical: {match}")


def main():
    fleet_metrics()
    trace_to_jsonl()
    batched_phase_profile()
    identity_contract()


if __name__ == "__main__":
    main()
