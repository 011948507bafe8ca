"""repro.obs — zero-overhead-by-default observability for the fleet stack.

Three sinks behind one process-wide recorder:

* **metrics** — counters / gauges / timing histograms that merge across
  multiprocessing workers (:mod:`repro.obs.metrics`);
* **tracing** — nestable wall-clock spans written as JSON lines next to
  a per-run provenance manifest (:mod:`repro.obs.tracing`,
  :mod:`repro.obs.manifest`);
* **profiling** — phase wall-time + hot-loop tallies for the batched
  engines (:mod:`repro.obs.profiler`).

Off by default: the active recorder is :data:`NULL_RECORDER` and every
instrumentation point reduces to an attribute read plus a ``None``
check, keeping simulation results bit-identical and the no-op cost
inside the ≤2% budget gated by ``benchmarks/test_p6_obs.py``.

Turn it on with::

    from repro.obs import recording

    with recording(trace_path="run.jsonl", profile=True) as rec:
        result = FleetRunner(spec).run()
    print(rec.metrics.to_dict())

The CLIs scope a whole run with :func:`observed_run` instead: one
manifest per run, written as the trace's first record and into the
``--metrics-out`` payload.
"""

from repro.obs.manifest import MANIFEST_SCHEMA, build_manifest, write_manifest
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import PhaseProfiler, memory_snapshot
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    obs_enabled,
    observed_run,
    recording,
    set_recorder,
)
from repro.obs.tracing import TraceWriter, span

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "write_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "memory_snapshot",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "get_recorder",
    "obs_enabled",
    "observed_run",
    "recording",
    "set_recorder",
    "TraceWriter",
    "span",
]
