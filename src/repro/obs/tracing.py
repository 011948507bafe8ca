"""Tracing spans and their JSON-lines sink.

A span is a named wall-clock interval::

    with span("fleet.run", fleet="solar-farm-100", devices=32):
        ...

Spans nest: a thread-local stack tags each record with its depth and
parent span name, and every record carries the emitting process id and
thread id, so one JSONL file interleaving several workers/threads can be
reassembled into per-process trees.  When the active recorder also has a
metrics registry, each span mirrors its duration into the
``span.<name>.s`` histogram — timing percentiles for free.

With observability off (the default :data:`~repro.obs.recorder.NULL_RECORDER`),
``span(...)`` yields immediately without touching the clock.

Record schema (one JSON object per line)::

    {"type": "span", "name": ..., "pid": ..., "tid": ..., "depth": ...,
     "parent": ... | null, "ts_unix": ..., "dur_s": ..., "tags": {...}}

A CLI run's trace opens with its manifest as ``{"type": "manifest", ...}``
(written by :func:`repro.obs.recorder.observed_run`; see
:func:`repro.obs.manifest.build_manifest`).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

from repro.obs.recorder import get_recorder


class TraceWriter:
    """Append-only JSON-lines sink (opened lazily, one record per line)."""

    def __init__(self, path=None, stream=None):
        if (path is None) == (stream is None):
            raise ValueError("TraceWriter needs exactly one of path or stream")
        self.path = None if path is None else os.fspath(path)
        self._stream = stream
        self._owns_stream = stream is None
        self.records_written = 0

    def emit(self, record: dict) -> None:
        """Write one record as a JSON line and flush."""
        if self._stream is None:
            self._stream = open(self.path, "w")
        json.dump(record, self._stream, separators=(",", ":"), sort_keys=True)
        self._stream.write("\n")
        # On disk at once: a killed run keeps every record it emitted.
        self._stream.flush()
        self.records_written += 1

    def flush(self) -> None:
        """Flush the underlying stream if it is still open."""
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        """Close (or hand back) the underlying stream; idempotent."""
        if self._stream is not None:
            if self._owns_stream:
                self._stream.close()
            else:
                self._stream.flush()
            self._stream = None


_STACK = threading.local()


def _span_stack() -> list:
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = _STACK.spans = []
    return stack


@contextlib.contextmanager
def span(name: str, **tags):
    """Record one named wall-clock interval on the active recorder.

    No-op (beyond one attribute check) when observability is off.  Tags
    must be JSON-safe scalars; they land verbatim in the trace record.
    """
    rec = get_recorder()
    if rec.trace is None and rec.metrics is None:
        yield
        return
    stack = _span_stack()
    parent = stack[-1] if stack else None
    stack.append(name)
    ts = time.time()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dur = time.perf_counter() - t0
        stack.pop()
        if rec.metrics is not None:
            rec.metrics.observe(f"span.{name}.s", dur)
        if rec.trace is not None:
            rec.trace.emit(
                {
                    "type": "span",
                    "name": name,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "depth": len(stack),
                    "parent": parent,
                    "ts_unix": round(ts, 6),
                    "dur_s": round(dur, 9),
                    "tags": tags,
                }
            )
