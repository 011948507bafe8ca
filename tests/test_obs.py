"""Unit tests for the repro.obs primitives.

Covers the metrics registry (instruments, wire round-trip, merge
semantics), the span/TraceWriter tracing layer, the phase profiler, the
provenance manifest, recorder scoping and the CLI run scope.  The merge
property the whole parallel story rests on — splitting one serial
observation stream across worker registries and merging them in dispatch
order reproduces the serial registry bit-for-bit — is locked in with
hypothesis.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    MANIFEST_SCHEMA,
    NULL_RECORDER,
    MetricsRegistry,
    PhaseProfiler,
    Recorder,
    TraceWriter,
    build_manifest,
    get_recorder,
    memory_snapshot,
    obs_enabled,
    observed_run,
    recording,
    set_recorder,
    span,
    write_manifest,
)

# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.inc("c")
    reg.inc("c", 4)
    assert reg.counter_value("c") == 5
    assert reg.counter_value("missing") == 0
    assert reg.counter_value("missing", default=-1) == -1

    reg.set_gauge("g", 3)
    reg.set_gauge("g", 7)  # last write wins
    assert reg.gauge_value("g") == 7
    assert reg.gauge_value("missing") is None

    reg.observe("h", 1.0)
    reg.observe_many("h", [2.0, 3.0, 10.0])
    s = reg.histogram("h").summary()
    arr = np.array([1.0, 2.0, 3.0, 10.0])
    assert s["count"] == 4
    assert s["total"] == arr.sum()
    assert s["mean"] == arr.mean()
    assert s["min"] == 1.0 and s["max"] == 10.0
    assert s["p50"] == np.percentile(arr, 50.0)
    assert s["p95"] == np.percentile(arr, 95.0)


def test_empty_histogram_summary_is_count_zero():
    reg = MetricsRegistry()
    assert reg.histogram("h").summary() == {"count": 0}
    assert reg.to_dict()["histograms"]["h"] == {"count": 0}


def test_registry_names_sorted():
    reg = MetricsRegistry()
    reg.inc("z")
    reg.inc("a")
    reg.set_gauge("g", 1)
    reg.observe("h", 0.5)
    assert reg.names() == {
        "counters": ["a", "z"],
        "gauges": ["g"],
        "histograms": ["h"],
    }


def test_wire_round_trip_preserves_everything():
    reg = MetricsRegistry()
    reg.inc("c", 3)
    reg.set_gauge("g", "batched")
    reg.observe_many("h", [0.25, 0.5])
    fresh = MetricsRegistry()
    fresh.merge_wire(reg.to_wire())
    assert fresh.to_dict() == reg.to_dict()


def test_merge_semantics():
    a = MetricsRegistry()
    a.inc("c", 2)
    a.set_gauge("g", 1)
    a.observe("h", 1.0)
    b = MetricsRegistry()
    b.inc("c", 5)
    b.observe("h", 2.0)
    # b never set the gauge: its wire carries nothing to overwrite with.
    a.merge(b)
    assert a.counter_value("c") == 7
    assert a.gauge_value("g") == 1
    # Concatenation order: a's observations first, then b's.
    assert list(a.histogram("h").values()) == [1.0, 2.0]

    c = MetricsRegistry()
    c.set_gauge("g", 9)
    a.merge(c)
    assert a.gauge_value("g") == 9  # last write wins across merges


_CHUNKS = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["lat", "wall"]),
            st.floats(
                min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
            ),
        ),
        max_size=8,
    ),
    max_size=6,
)


@settings(max_examples=examples(60), deadline=None)
@given(chunks=_CHUNKS)
def test_merged_worker_registries_equal_serial(chunks):
    """Dispatch-order merge of per-chunk registries == one serial registry.

    This is exactly the fleet dispatcher's contract: each worker chunk
    builds its own registry, ships the wire form home, and the parent
    merges in dispatch order (see repro.fleet.runner._merge_worker_obs).
    """
    serial = MetricsRegistry()
    for chunk in chunks:
        serial.inc("chunks")
        for name, value in chunk:
            serial.inc(f"obs.{name}")
            serial.observe(name, value)

    merged = MetricsRegistry()
    for chunk in chunks:
        worker = MetricsRegistry()
        worker.inc("chunks")
        for name, value in chunk:
            worker.inc(f"obs.{name}")
            worker.observe(name, value)
        merged.merge_wire(worker.to_wire())

    # Bit-for-bit: summaries are floats computed from the raw columns,
    # so dict equality is exact float equality.
    assert merged.to_dict() == serial.to_dict()


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #


def test_trace_writer_needs_exactly_one_sink(tmp_path):
    with pytest.raises(ValueError):
        TraceWriter()
    with pytest.raises(ValueError):
        TraceWriter(path=tmp_path / "t.jsonl", stream=io.StringIO())


def test_trace_writer_path_lazy_and_jsonl(tmp_path):
    path = tmp_path / "trace.jsonl"
    writer = TraceWriter(path)
    assert not path.exists()  # lazy: nothing until the first record
    writer.emit({"type": "manifest", "b": 1, "a": 2})
    writer.emit({"type": "span", "name": "x"})
    writer.close()
    lines = path.read_text().splitlines()
    assert writer.records_written == 2
    assert [json.loads(line)["type"] for line in lines] == ["manifest", "span"]
    # Compact separators, sorted keys: stable byte form.
    assert lines[0] == '{"a":2,"b":1,"type":"manifest"}'


def test_trace_writer_emit_reaches_disk_before_close(tmp_path):
    """Each record is on disk once ``emit`` returns, so a run killed
    before ``close`` (SIGKILL, a crashed gateway) keeps its manifest and
    every span it emitted."""
    path = tmp_path / "trace.jsonl"
    writer = TraceWriter(path)
    writer.emit({"type": "manifest", "b": 1, "a": 2})
    assert path.read_text() == '{"a":2,"b":1,"type":"manifest"}\n'
    writer.emit({"type": "span", "name": "x"})
    assert len(path.read_text().splitlines()) == 2
    writer.close()


def test_span_is_noop_without_recorder():
    assert get_recorder() is NULL_RECORDER
    with span("nothing", tag=1):
        pass  # must not raise, must not record anywhere


def test_span_nesting_depth_parent_and_metrics_mirror():
    stream = io.StringIO()
    rec = Recorder(metrics=True, trace=TraceWriter(stream=stream))
    with recording(rec):
        with span("outer", fleet="f"):
            with span("inner"):
                pass
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    # Inner closes first.
    inner, outer = records
    assert inner["name"] == "inner" and inner["depth"] == 1
    assert inner["parent"] == "outer"
    assert outer["name"] == "outer" and outer["depth"] == 0
    assert outer["parent"] is None
    assert outer["tags"] == {"fleet": "f"}
    assert inner["dur_s"] >= 0.0 and outer["dur_s"] >= inner["dur_s"]
    assert rec.metrics.histogram("span.outer.s").count == 1
    assert rec.metrics.histogram("span.inner.s").count == 1


def test_span_metrics_only_records_no_trace():
    rec = Recorder(metrics=True)
    with recording(rec):
        with span("solo"):
            pass
    assert rec.metrics.histogram("span.solo.s").count == 1


# --------------------------------------------------------------------- #
# Profiler
# --------------------------------------------------------------------- #


def test_profiler_phase_tally_and_wire():
    prof = PhaseProfiler()
    with prof.phase("build"):
        pass
    prof.add_wall("run", 0.5, calls=2)
    prof.tally("passes", 3)
    prof.tally("passes")
    wire = prof.to_wire()
    assert wire["phases"]["build"]["calls"] == 1
    assert wire["phases"]["build"]["wall_s"] >= 0.0
    assert wire["phases"]["run"] == {"wall_s": 0.5, "calls": 2}
    assert wire["counts"] == {"passes": 4}
    # JSON-safe by contract.
    json.dumps(wire)


def test_profiler_merge_adds_walls_and_maxes_memory():
    a = PhaseProfiler()
    a.add_wall("run", 1.0)
    a.tally("lanes", 10)
    a.memory["peak"] = {"peak_rss_mb": 100.0, "note": "a"}
    b = PhaseProfiler()
    b.add_wall("run", 2.0, calls=3)
    b.tally("lanes", 5)
    b.tally("passes", 1)
    b.memory["peak"] = {"peak_rss_mb": 250.0, "note": "b"}
    a.merge_wire(b.to_wire())
    assert a.phase_wall["run"] == 3.0
    assert a.phase_calls["run"] == 4
    assert a.counts == {"lanes": 15, "passes": 1}
    assert a.memory["peak"]["peak_rss_mb"] == 250.0
    assert a.memory["peak"]["note"] == "a"  # non-numeric: first wins


def test_memory_snapshot_reports_rss():
    snap = memory_snapshot()
    assert snap["peak_rss_mb"] > 0


# --------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------- #


def test_build_manifest_fields_and_extras():
    manifest = build_manifest(fleet="solar-farm-100", devices=32)
    assert manifest["schema"] == MANIFEST_SCHEMA
    for key in (
        "git_sha",
        "git_dirty",
        "python",
        "numpy",
        "platform",
        "hostname",
        "cpu_count",
        "usable_cpus",
        "pid",
        "created_unix",
        "created_utc",
        "bench_smoke",
    ):
        assert key in manifest, key
    assert manifest["fleet"] == "solar-farm-100"
    assert manifest["devices"] == 32
    assert manifest["numpy"] == np.__version__
    json.dumps(manifest)  # JSON-safe by contract


def test_manifest_bench_smoke_tracks_env(monkeypatch):
    monkeypatch.setenv("BENCH_SMOKE", "1")
    assert build_manifest()["bench_smoke"] is True
    monkeypatch.setenv("BENCH_SMOKE", "")
    assert build_manifest()["bench_smoke"] is False


def test_write_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    written = write_manifest(path, campaign="shootout")
    with open(path) as fh:
        on_disk = json.load(fh)
    assert on_disk == json.loads(json.dumps(written))
    assert on_disk["campaign"] == "shootout"


# --------------------------------------------------------------------- #
# Recorder scoping
# --------------------------------------------------------------------- #


def test_default_recorder_is_null():
    rec = get_recorder()
    assert rec is NULL_RECORDER
    assert not obs_enabled()
    assert rec.metrics is None and rec.trace is None and rec.profiler is None
    rec.close()  # harmless


def test_recording_scopes_and_restores():
    assert get_recorder() is NULL_RECORDER
    with recording(profile=True) as rec:
        assert get_recorder() is rec
        assert obs_enabled()
        assert rec.metrics is not None and rec.profiler is not None
        with recording() as inner:
            assert get_recorder() is inner
        assert get_recorder() is rec  # nested scope restored the outer one
    assert get_recorder() is NULL_RECORDER


def test_recording_closes_owned_trace_only(tmp_path):
    owned_path = tmp_path / "owned.jsonl"
    with recording(trace_path=owned_path):
        with span("x"):
            pass
    # Owned recorder: closed (and flushed) on exit.
    assert owned_path.exists()

    stream = io.StringIO()
    mine = Recorder(metrics=False, trace=TraceWriter(stream=stream))
    with recording(mine):
        with span("y"):
            pass
    assert not stream.closed  # caller-supplied recorder is not closed
    mine.close()


def test_set_recorder_returns_previous():
    rec = Recorder()
    previous = set_recorder(rec)
    try:
        assert previous is NULL_RECORDER
        assert get_recorder() is rec
    finally:
        assert set_recorder(None) is rec
    assert get_recorder() is NULL_RECORDER


# --------------------------------------------------------------------- #
# Run scope
# --------------------------------------------------------------------- #


def _counting_manifest(calls: list):
    def manifest() -> dict:
        calls.append(1)
        return build_manifest(fleet="unit")

    return manifest


def test_observed_run_off_builds_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    with observed_run(_counting_manifest(calls)) as rec:
        assert rec is None
        assert get_recorder() is NULL_RECORDER
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("profile", [False, True])
def test_observed_run_sinks_share_one_manifest(tmp_path, profile):
    calls = []
    trace_path = tmp_path / "run.jsonl"
    metrics_path = tmp_path / "metrics.json"
    manifest = _counting_manifest(calls)
    with observed_run(manifest, trace_path, metrics_path, profile) as rec:
        assert get_recorder() is rec
        assert (rec.profiler is not None) == profile
        with span("body"):
            pass
    assert get_recorder() is NULL_RECORDER
    assert calls == [1]
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    first = records[0]
    assert first.pop("type") == "manifest"
    assert [r["name"] for r in records[1:]] == ["body"]
    payload = json.loads(metrics_path.read_text())
    keys = {"manifest", "metrics"} | ({"profiler"} if profile else set())
    assert set(payload) == keys
    assert payload["manifest"] == first
    assert payload["metrics"]["histograms"]["span.body.s"]["count"] == 1


def test_observed_run_body_error_closes_trace_and_skips_metrics(tmp_path):
    trace_path = tmp_path / "run.jsonl"
    metrics_path = tmp_path / "metrics.json"
    manifest = _counting_manifest([])
    with pytest.raises(RuntimeError, match="boom"):
        with observed_run(manifest, trace_path, metrics_path) as rec:
            raise RuntimeError("boom")
    assert get_recorder() is NULL_RECORDER
    # The writer buffers its records: the manifest line is on disk while
    # ``rec`` still holds the writer only because the scope closed it.
    assert rec.trace is not None
    first = json.loads(trace_path.read_text().splitlines()[0])
    assert first["type"] == "manifest" and first["fleet"] == "unit"
    assert not metrics_path.exists()
