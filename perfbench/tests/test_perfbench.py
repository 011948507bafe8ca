"""Tests of the benchmark itself (run explicitly; tier-1 collects tests/ only).

    PYTHONPATH=src python -m pytest perfbench/tests -q

Every workload runs at a tiny size, untraced and traced; printed metric
names and units must match BENCHMARK.json; a wrong reference digest must
trip the correctness gate; and the command must refuse to run in a
directory that holds only the benchmark.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import layers  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def units_of(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        spec = run.WORKLOADS[w["name"]]
        assert f"default {spec.default_seed}, held-out {spec.heldout_seed}" in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert units_of(SPEC["end_to_end"]) == run.E2E_UNITS
    assert units_of(SPEC["per_layer"]) == run.per_layer_units()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_workload_runs_tiny(workload):
    proc, result = bench("--workload", workload, "--tiny", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units_of(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if run.WORKLOADS[workload].gateway:
        # One session makes enough requests for ten beyond its p95.
        assert result["attempted"] >= 200
    provenance = next(
        json.loads(line.split(" ", 1)[1]) for line in proc.stdout.splitlines()
        if line.startswith("provenance ")
    )
    for key in ("usable_cpus", "cache_state", "kernel_lane", "thread_env"):
        assert key in provenance


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_tiles_the_wall(workload):
    proc, result = bench("--workload", workload, "--tiny", "--seconds", "0",
                         "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units_of(SPEC["per_layer"])
    # No layer double counts: what the spans claim fits inside the wall.
    assert metrics["residual.self_s"] >= -run.TILING_TOLERANCE * metrics["traced_wall_s"]
    assert metrics["import.calls"] == 1
    w = run.WORKLOADS[workload]
    if w.gateway:
        assert metrics["gateway.calls"] > 0 and metrics["request_p95_ms"] > 0
    elif w.shards:
        assert metrics["fleet.shards.shards"] == w.shards
    elif w.pooled:
        assert metrics["fleet.runner.dispatch.chunks"] >= 1
        assert metrics["sim.batch.build.calls"] == 0  # worker-side only
    else:
        assert metrics["energy.traces.calls"] == w.tiny_devices
        assert metrics["fleet.results.wire.calls"] == 0


def test_wrong_reference_digest_trips_the_gate(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run.Bench, "expected_digest", property(lambda self: "0" * 64))
    code = run.main(["--workload", "cold-cityblock", "--tiny", "--seconds", "0"])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "incorrect run" in err


def test_overlapping_spans_fail_the_traced_run(monkeypatch, capsys):
    real = run.layer_metrics

    def double_counted(raw, wall, *args, **kwargs):
        layers = real(raw, wall, *args, **kwargs)
        layers["residual.self_s"] = -0.1 * wall
        return layers

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "layer_metrics", double_counted)
    code = run.main(["--workload", "cold-cityblock", "--tiny", "--seconds", "0",
                     "--trace", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "layer spans overlap" in err


def test_refuses_a_directory_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    try:
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc, result = bench("--workload", "cold-cityblock", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(os.path.dirname(bare)):
            os.rmdir(os.path.dirname(bare))
    assert proc.returncode != 0 and result is None


def test_tracer_self_time_and_group_pass_through():
    tracer = layers.Tracer()
    advance = tracer.span("sim.batch.advance", lambda: 1)
    create = tracer.span("gateway.create", lambda: 2)
    restore = tracer.span("gateway.restore", lambda: advance() + create())
    assert restore() == 3
    stats = tracer.to_dict()
    assert stats["gateway.restore"]["calls"] == 1
    assert stats["sim.batch.advance"]["calls"] == 1
    # gateway.create nested in gateway.restore passes straight through.
    assert "gateway.create" not in stats
    outer = stats["gateway.restore"]
    assert abs(outer["total_s"] - outer["self_s"]
               - stats["sim.batch.advance"]["total_s"]) < 1e-9


def test_patch_skips_missing_targets():
    assert not layers.patch("repro.no_such_module:f", lambda fn: fn)
    assert not layers.patch("json:no_such_function", lambda fn: fn)
