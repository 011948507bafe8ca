"""The process-wide recorder: where instrumentation points report to.

Exactly one recorder is active per process at any time.  The default is
:data:`NULL_RECORDER` — a singleton whose ``metrics`` / ``trace`` /
``profiler`` attributes are all ``None`` — so every instrumentation
point in the fleet/batch/campaign stack reduces to one attribute read
and a ``None`` check.  Observability is strictly *additive*: recorders
never touch simulation state or random streams, so results are
bit-identical with recording on or off (enforced by
``tests/test_obs_integration.py`` against the committed goldens).

Usage::

    from repro.obs import recording

    with recording(trace_path="run.jsonl", profile=True) as rec:
        result = FleetRunner(spec).run()
    print(rec.metrics.to_dict())

Worker processes never inherit the parent's sinks: the fleet dispatcher
passes a flag down and each worker chunk runs under its own fresh
metrics-only recorder, whose wire snapshot ships home with the packed
device results (see ``repro.fleet.runner._run_chunk_packed``).
"""

from __future__ import annotations

import contextlib
import json
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler


class NullRecorder:
    """Inactive recorder: all sinks absent, all operations no-ops."""

    enabled = False
    metrics = None
    trace = None
    profiler = None

    def close(self) -> None:
        """No-op (nothing to close on the null recorder)."""
        pass


#: The process-default recorder (observability off).
NULL_RECORDER = NullRecorder()


class Recorder:
    """Active observability sinks for one run.

    ``metrics``   — a :class:`~repro.obs.metrics.MetricsRegistry` (on by
                    default; pass ``metrics=False`` for trace-only runs);
    ``trace``     — a :class:`~repro.obs.tracing.TraceWriter` (or a path
                    to open one at), receiving span records as JSON lines;
    ``profiler``  — a :class:`~repro.obs.profiler.PhaseProfiler` when
                    ``profile=True``, fed by the engine hot loops.
    """

    enabled = True

    def __init__(self, metrics: bool = True, trace=None, profile: bool = False):
        from repro.obs.tracing import TraceWriter

        self.metrics = MetricsRegistry() if metrics else None
        if trace is None or isinstance(trace, TraceWriter):
            self.trace = trace
        else:
            self.trace = TraceWriter(trace)
        self.profiler = PhaseProfiler() if profile else None

    def close(self) -> None:
        """Flush and close the owned sinks (the trace stream)."""
        if self.trace is not None:
            self.trace.close()

    def to_dict(self) -> dict:
        """JSON-safe summary of everything this recorder collected."""
        out: dict = {}
        if self.metrics is not None:
            out["metrics"] = self.metrics.to_dict()
        if self.profiler is not None:
            out["profiler"] = self.profiler.to_dict()
        return out


_ACTIVE: "NullRecorder | Recorder" = NULL_RECORDER


def get_recorder():
    """The process-wide active recorder (NULL_RECORDER when off)."""
    return _ACTIVE


def set_recorder(recorder) -> object:
    """Install ``recorder`` (``None`` resets to off); returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = NULL_RECORDER if recorder is None else recorder
    return previous


def obs_enabled() -> bool:
    """Whether an active (non-null) recorder is installed."""
    return _ACTIVE.enabled


@contextlib.contextmanager
def recording(
    recorder: Optional[Recorder] = None,
    metrics: bool = True,
    trace_path=None,
    profile: bool = False,
):
    """Scope a recorder: install on entry, restore (and close) on exit.

    Pass an existing :class:`Recorder` to manage its scope, or use the
    keyword form to build one (``trace_path`` opens a JSONL sink).  The
    recorder built here is closed on exit; a caller-supplied one is not.
    """
    owned = recorder is None
    if owned:
        recorder = Recorder(metrics=metrics, trace=trace_path, profile=profile)
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
        if owned:
            recorder.close()


@contextlib.contextmanager
def observed_run(manifest, trace_out=None, metrics_out=None, profile: bool = False):
    """Scope one CLI run's observability sinks around its body.

    Off unless ``trace_out``, ``metrics_out`` or ``profile`` is given: it
    then yields ``None`` and never calls ``manifest``.  On, it calls
    ``manifest()`` once, records the body into a fresh recorder whose
    trace opens with that manifest, closes the recorder and, only if the
    body returns, writes ``metrics_out`` as ``{"manifest", "metrics"}``
    (plus ``"profiler"`` under ``profile``), so every sink of a run
    carries the same dict.
    """
    if not (trace_out or metrics_out or profile):
        yield None
        return
    header = manifest()
    with recording(trace_path=trace_out, profile=profile) as recorder:
        if recorder.trace is not None:
            recorder.trace.emit({"type": "manifest", **header})
        yield recorder
    if metrics_out:
        payload = {"manifest": header, **recorder.to_dict()}
        with open(metrics_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
