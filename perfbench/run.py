"""The canonical cold-start fleet benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  Every measured iteration starts the
system fresh, the way a user pays for it: a new ``python -m repro.fleet``
(or ``repro.gateway`` server plus client) process with an empty trace
cache and, for sharded runs, an empty ledger directory.  The benchmark
itself imports nothing from ``repro``: it spawns the programs, times them
on the shared monotonic clock, reads each process tree's CPU time and
peak RSS from ``wait4``, and checks every report against a serial
in-process reference run of the same (fleet, seed).

Workloads (``--seed`` is the fleet seed; defaults and held-out seeds in
:data:`WORKLOADS`):

* ``cold-cityblock`` — city-block-1k, serial CLI;
* ``brownout-replay`` — brownout-grid-256 with every device at 8
  episodes, serial CLI over a generated ``--spec`` file;
* ``pooled-cityblock`` — city-block-1k with ``--workers`` = usable CPUs;
* ``sharded-megacity`` — a 2000-device megacity-1m slice through
  ``--shards 8 --shard-workers`` = usable CPUs into an empty ledger;
* ``gateway-session`` — one client on one Unix-socket connection in a
  closed loop against a fresh gateway server (see ``gwclient.py``).

End-to-end metrics (``--trace 0``), each the median over the run's
iterations, printed with quartiles and the count before the result line:
``wall_s`` (spawn until the report is on disk, or until the final
aggregate reply), ``setup_s`` (spawn until the spec is expanded and the
run starts, or until the server greeting), ``cpu_s`` (user+sys of every
spawned process tree), ``sim_events_per_s`` (inference events of every
episode of every device per second of ``wall_s``) and ``peak_rss_mb``.
The three times are seconds at the reference host speed: each
iteration's time scaled by how much slower or faster than on the
reference host a fixed numpy probe ran right before and after it
(:func:`host_probe`), so that a shared host's drift over minutes does
not read as a regression.  The provenance line carries the unscaled
median wall and the median probe.

``--trace 1`` alternates untraced iterations with traced ones, whose
children wrap each layer's public functions (``layers.py``), and reports
per-layer calls and self time with a named ``residual`` that tiles the
traced wall, plus the tracing overhead and the gateway's request
latency percentiles.  Pooled and sharded traced runs see the parent
process only; their worker-side layers are those of the serial run.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Attempted operations are devices (fleet runs) or requests (gateway);
failed ones are quarantined devices, or error replies plus client
retries; an iteration whose output differs from the reference fails all
of its operations and the command exits 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
GWCLIENT = os.path.join(HERE, "gwclient.py")
REFERENCE = os.path.join(HERE, "reference.py")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
#: Scratch space inside the checkout; removed when the run ends.
WORK_ROOT = ".perfbench"
clock = time.monotonic

#: A spawned process still running after this long is killed.
PROCESS_TIMEOUT_S = 150.0
#: Iterations of each kind a run makes however short ``--seconds`` is.
MIN_ITERATIONS = 3
#: Rounds of the host-speed probe, and the probe's median time on the
#: reference host (a 2-vCPU shared x86-64 VM, CPython 3 with numpy).
PROBE_ROUNDS = 3000
REFERENCE_PROBE_S = 0.060
#: A traced iteration whose layer spans claim more than the wall by this
#: share of it double counts, and fails the run.
TILING_TOLERANCE = 0.05

#: Modules a traced child loads before wrapping, so a layer is measured
#: even if the CLI comes to import its module lazily.
TRACE_PRELOAD = (
    "repro.fleet.runner", "repro.fleet.results", "repro.fleet.scenarios",
    "repro.fleet.spec", "repro.sim.batch", "repro.intermittent.kernel",
)

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "sim_events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: (layer, extra counters) in report order; every layer also reports
#: ``calls`` and ``self_s``.
LAYERS = (
    ("import", ()),
    ("fleet.scenarios", ()),
    ("energy.traces", ("us_per_sample",)),
    ("energy.events", ()),
    ("runtime.controller", ()),
    ("sim.batch.build", ("us_per_device",)),
    ("sim.batch.advance", ("us_per_event",)),
    ("intermittent.kernel", ("episodes", "us_per_event")),
    ("sim.batch.finalize", ("us_per_device",)),
    ("fleet.results", ("bytes_written",)),
    ("fleet.results.wire", ("bytes",)),
    ("fleet.runner.dispatch", ("chunks", "retries", "pool_start_s")),
    ("fleet.shards", ("shards", "stolen", "quarantined", "bytes_written")),
    ("gateway", ("wire_s",)),
    ("gateway.create", ()),
    ("gateway.advance", ()),
    ("gateway.query", ()),
    ("gateway.checkpoint", ()),
    ("gateway.restore", ()),
)
GATEWAY_VERBS = tuple(layer for layer, _ in LAYERS if layer.startswith("gateway."))
EXTRA_UNITS = {
    "us_per_sample": "us", "us_per_device": "us", "us_per_event": "us",
    "episodes": "count", "bytes_written": "bytes", "bytes": "bytes",
    "chunks": "count", "retries": "count", "pool_start_s": "s",
    "shards": "count", "stolen": "count", "quarantined": "count",
    "wire_s": "s",
}
#: Run-level traced metrics beside the layers.
TRACE_UNITS = {
    "residual.self_s": "s",
    "residual.share": "ratio",
    "traced_wall_s": "s",
    "tracing_overhead_s": "s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
}


def per_layer_units() -> dict:
    units = {}
    for layer, extras in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for extra in extras:
            units[f"{layer}.{extra}"] = EXTRA_UNITS[extra]
    units.update(TRACE_UNITS)
    return units


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    default_seed: int
    heldout_seed: int
    devices: int = 0  # 0 keeps the scenario's own size
    tiny_devices: int = 16
    pooled: bool = False
    shards: int = 0
    episodes: int = 0  # > 0: every device at this many episodes, via --spec
    gateway: bool = False

    @property
    def digest_key(self) -> str:
        """Sharded reports and gateway replies carry the aggregate only."""
        return "aggregate" if (self.shards or self.gateway) else "report"

    @property
    def passes(self) -> int:
        """Full fleet simulations per iteration: the gateway session also
        replays and finishes a restored replica."""
        return 2 if self.gateway else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-cityblock", "city-block-1k", 31, 1009, tiny_devices=24),
        Workload("brownout-replay", "brownout-grid-256", 47, 2003,
                 tiny_devices=12, episodes=8),
        Workload("pooled-cityblock", "city-block-1k", 31, 1009,
                 tiny_devices=48, pooled=True),
        Workload("sharded-megacity", "megacity-1m", 101, 3001, devices=2000,
                 tiny_devices=64, shards=8),
        Workload("gateway-session", "city-block-1k", 31, 1009, devices=200,
                 tiny_devices=16, gateway=True),
    )
}


def canonical_digest(obj) -> str:
    """sha256 of ``obj`` as sorted, compact JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def reap(proc, timeout: float = PROCESS_TIMEOUT_S):
    """Wait for ``proc`` (killing it after ``timeout``, or when the wait is
    interrupted); returns its process tree's rusage."""
    # os.kill, not Popen.kill: the latter polls, and a poll that reaps the
    # child would take its rusage away from wait4.
    kill = functools.partial(os.kill, proc.pid, signal.SIGKILL)
    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def host_probe() -> float:
    """Seconds the host now takes for a fixed numpy loop of many small-array
    operations, the shape of the simulator's own work.

    On a shared host the speed of a CPU drifts by tens of percent over
    minutes with its neighbours' load.  Each iteration is bracketed by two
    probes, and its end-to-end times are scaled by ``REFERENCE_PROBE_S``
    over their mean: seconds at the reference host speed.
    """
    import numpy as np  # not repro: the probe must not move with the program

    values = np.arange(2000.0)
    t0 = clock()
    for _ in range(PROBE_ROUNDS):
        np.minimum(values * 1.0001, 5.0).cumsum()[values > 3.0].sum()
    return clock() - t0


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def peak_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


class Bench:
    """One workload at one seed: set-up, then fresh-process iterations."""

    def __init__(self, workload: Workload, seed: int, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.devices = workload.tiny_devices if tiny else workload.devices
        self.cpus = usable_cpus()
        self.work = os.path.abspath(
            os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")])
        )
        self.env["TMPDIR"] = os.path.join(self.work, "tmp")
        # The provenance manifest asks git for the tree's SHA; never let
        # git search above the checkout for one.
        self.env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.path.abspath("."))
        self.spec_path = os.path.join(self.work, "spec.json")
        self.reference: dict = {}

    # ------------------------------------------------------------------ #
    def _run(self, cmd, log_path) -> int:
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=log, env=self.env
            )
            reap(proc)
        return proc.returncode

    def setup(self) -> None:
        """Byte-compile the sources, then compute the serial reference."""
        os.makedirs(self.env["TMPDIR"])
        log = os.path.join(self.work, "setup.log")
        self._run([sys.executable, "-m", "compileall", "-q", "src", HERE], log)
        w = self.workload
        overrides = {"num_devices": self.devices} if self.devices else {}
        out = os.path.join(self.work, "reference.json")
        code = self._run(
            [sys.executable, REFERENCE, out, w.scenario, str(self.seed),
             json.dumps(overrides), str(w.episodes), self.spec_path],
            log,
        )
        if code != 0:
            with open(log) as fh:
                raise RuntimeError(f"reference run failed:\n{fh.read()}")
        with open(out) as fh:
            self.reference = json.load(fh)

    @property
    def expected_digest(self) -> str:
        return self.reference[self.workload.digest_key]

    def iteration(self, index: int, traced: bool) -> dict:
        """One measured fresh-process run; its metrics and verdict."""
        folder = os.path.join(self.work, f"i{index}")
        os.makedirs(folder)
        probe = host_probe()
        try:
            if self.workload.gateway:
                it = self._gateway_iteration(folder, traced)
            else:
                it = self._fleet_iteration(folder, traced)
        finally:
            shutil.rmtree(folder, ignore_errors=True)
        it["probe"] = (probe + host_probe()) / 2
        it["events"] = self.reference["sim_events"] * self.workload.passes
        layers = it.get("layers")
        if layers and layers["residual.self_s"] < -TILING_TOLERANCE * it["wall"]:
            it["ok"] = False
            it["why"] = (f"layer spans overlap: residual {layers['residual.self_s']:.4f} s "
                         f"of a {it['wall']:.4f} s traced wall")
        if not it["ok"]:
            it["failed"] = it["attempted"]
        return it

    def _child(self, marks, traced, module, setup, preload, args) -> list:
        return [sys.executable, CHILD, marks, "1" if traced else "0", module,
                setup, ",".join(preload) or "-", "--", *args]

    def _fleet_iteration(self, folder: str, traced: bool) -> dict:
        w = self.workload
        marks_path = os.path.join(folder, "marks.json")
        report_path = os.path.join(folder, "report.json")
        if w.episodes:
            args = ["run", "--spec", self.spec_path]
        else:
            args = ["run", w.scenario, "--seed", str(self.seed)]
            if self.devices:
                args += ["--devices", str(self.devices)]
        if w.pooled:
            args += ["--workers", str(self.cpus)]
        setup, preload = "repro.fleet.runner:FleetRunner.run", ["repro.fleet.runner"]
        if w.shards:
            ledger = os.path.join(folder, "ledger")
            os.makedirs(ledger)
            args += ["--shards", str(w.shards), "--shard-workers", str(self.cpus),
                     "--ledger", ledger]
            setup, preload = "repro.fleet.shards:run_sharded", ["repro.fleet.shards"]
        args += ["--quiet", "--json", report_path]
        if traced:
            preload = list(TRACE_PRELOAD) + preload
        cmd = self._child(marks_path, traced, "repro.fleet", setup, preload, args)
        log_path = os.path.join(folder, "stderr.log")
        with open(log_path, "w") as log:
            t0 = clock()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=log, env=self.env
            )
            usage = reap(proc)
            t_exit = clock()
        it = {"attempted": self.reference["devices"], "failed": 0,
              "cpu": cpu_seconds(usage), "rss": peak_mb(usage)}
        try:
            with open(marks_path) as fh:
                marks = json.load(fh)
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            it.update(ok=False, wall=t_exit - t0, setup=t_exit - t0,
                      why=f"exit {proc.returncode}: {exc}; {_tail(log_path)}")
            return it
        doc = report if w.digest_key == "report" else {"aggregate": report["aggregate"]}
        digest = canonical_digest(doc)
        it["wall"] = marks["t_done"] - t0
        it["setup"] = marks.get("t_setup", marks["t_done"]) - t0
        it["ok"] = proc.returncode == 0 and digest == self.expected_digest
        if not it["ok"]:
            it["why"] = (f"exit {proc.returncode}, digest {digest[:12]} != "
                         f"reference {self.expected_digest[:12]}")
        it["failed"] = len(report["aggregate"].get("failures", ()))
        if traced:
            it["layers"] = layer_metrics(
                marks.get("layers", {}), it["wall"],
                self.reference["sim_events"] * w.passes,
            )
        return it

    def _gateway_iteration(self, folder: str, traced: bool) -> dict:
        # Relative socket path: AF_UNIX paths are capped near 108 bytes.
        sock = os.path.relpath(os.path.join(folder, "gw.sock"))
        marks_path = os.path.join(folder, "marks.json")
        client_path = os.path.join(folder, "client.json")
        checkpoint = os.path.join(folder, "checkpoint.json")
        preload = list(TRACE_PRELOAD) + ["repro.gateway.twin", "repro.gateway.checkpoint"]
        server_cmd = self._child(marks_path, traced, "repro.gateway", "-",
                                 preload if traced else [], ["serve", "--unix", sock])
        client_cmd = [sys.executable, GWCLIENT, sock, client_path,
                      str(self.devices), str(self.seed), checkpoint]
        log_path = os.path.join(folder, "stderr.log")
        with open(log_path, "w") as log:
            t0 = clock()
            server = subprocess.Popen(
                server_cmd, stdout=subprocess.DEVNULL, stderr=log, env=self.env
            )
            client = subprocess.Popen(
                client_cmd, stdout=subprocess.DEVNULL, stderr=log, env=self.env
            )
            try:
                client_usage = reap(client)
            finally:
                if client.returncode != 0:
                    os.kill(server.pid, signal.SIGKILL)
                server_usage = reap(server)
            t_exit = clock()
        it = {"attempted": 1, "failed": 0,
              "cpu": cpu_seconds(client_usage) + cpu_seconds(server_usage),
              "rss": max(peak_mb(client_usage), peak_mb(server_usage))}
        try:
            with open(client_path) as fh:
                session = json.load(fh)
            with open(marks_path) as fh:
                marks = json.load(fh)
        except (OSError, ValueError) as exc:
            it.update(ok=False, wall=t_exit - t0, setup=t_exit - t0,
                      why=f"exit {client.returncode}/{server.returncode}: {exc}; "
                          f"{_tail(log_path)}")
            return it
        # The restored replica reports under its own fleet name; every
        # other byte must equal the serial reference.
        fleet = self.reference["manifest"]["fleet"]
        digests = [canonical_digest({"aggregate": dict(agg, fleet=fleet)})
                   for agg in session["aggregates"]]
        it["attempted"] = len(session["requests"])
        it["failed"] = session["errors"] + session["retries"]
        it["latencies"] = [latency for _, latency in session["requests"]]
        it["wall"] = session["t_final"] - t0
        it["setup"] = session["t_greeting"] - t0
        it["ok"] = (
            client.returncode == 0 and server.returncode == 0
            and session["errors"] == 0
            and all(d == self.expected_digest for d in digests)
        )
        if not it["ok"]:
            it["why"] = (f"exit {client.returncode}/{server.returncode}, "
                         f"errors {session.get('error_messages', [])}, aggregate "
                         f"digests {[d[:12] for d in digests]} != reference "
                         f"{self.expected_digest[:12]}")
        if traced:
            twin_s = sum(marks.get("layers", {}).get(v, {}).get("total_s", 0.0)
                         for v in GATEWAY_VERBS)
            it["layers"] = layer_metrics(
                marks.get("layers", {}), it["wall"],
                self.reference["sim_events"] * self.workload.passes,
                wire_s=sum(it["latencies"]) - twin_s,
            )
        return it


def _tail(path: str, lines: int = 5) -> str:
    with open(path) as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def layer_metrics(raw: dict, wall: float, sim_events: int, wire_s: float = 0.0) -> dict:
    """Per-layer metrics of one traced iteration from the child's totals."""

    def get(layer, key):
        return float(raw.get(layer, {}).get(key, 0))

    def per(layer, count, scale=1e6):
        return get(layer, "self_s") / count * scale if count else 0.0

    out = {}
    for layer, _ in LAYERS:
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.self_s"] = get(layer, "self_s")
    for verb in GATEWAY_VERBS:
        out["gateway.calls"] += out[f"{verb}.calls"]
        out["gateway.self_s"] += out[f"{verb}.self_s"]
    out["gateway.wire_s"] = wire_s
    out["energy.traces.us_per_sample"] = per("energy.traces", get("energy.traces", "samples"))
    out["sim.batch.build.us_per_device"] = per("sim.batch.build", get("sim.batch.build", "devices"))
    advanced = sim_events if out["sim.batch.advance.calls"] else 0
    out["sim.batch.advance.us_per_event"] = per("sim.batch.advance", advanced)
    out["intermittent.kernel.episodes"] = get("intermittent.kernel", "episodes")
    out["intermittent.kernel.us_per_event"] = per(
        "intermittent.kernel", get("intermittent.kernel", "events"))
    out["sim.batch.finalize.us_per_device"] = per(
        "sim.batch.finalize", get("sim.batch.finalize", "devices"))
    out["fleet.results.bytes_written"] = get("fleet.results", "bytes_written")
    out["fleet.results.wire.bytes"] = get("fleet.results.wire", "bytes")
    out["fleet.runner.dispatch.chunks"] = get("fleet.results.wire", "chunks")
    out["fleet.runner.dispatch.retries"] = get("fleet.runner.dispatch", "retries")
    out["fleet.runner.dispatch.pool_start_s"] = get("fleet.runner.dispatch", "pool_start_s")
    for extra in ("shards", "stolen", "quarantined", "bytes_written"):
        out[f"fleet.shards.{extra}"] = get("fleet.shards", extra)
    attributed = sum(out[f"{layer}.self_s"] for layer, _ in LAYERS if layer != "gateway")
    out["residual.self_s"] = wall - attributed - wire_s
    out["residual.share"] = out["residual.self_s"] / wall
    out["traced_wall_s"] = wall
    return out


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    values = sorted(values)
    rank = max(1, -(-len(values) * q // 100))
    return values[int(rank) - 1]


def measure(bench: Bench, seconds: float, trace: bool, min_iterations: int) -> tuple:
    """Iterate for ``seconds``; with ``trace`` every other run is traced."""
    untraced, traced = [], []
    deadline = clock() + seconds
    index = 0
    while True:
        use_trace = trace and index % 2 == 1
        (traced if use_trace else untraced).append(bench.iteration(index, use_trace))
        index += 1
        enough = len(untraced) >= min_iterations and (
            not trace or len(traced) >= min_iterations)
        if enough and clock() >= deadline:
            return untraced, traced


def e2e_metrics(untraced) -> dict:
    """End-to-end series; times at the reference host speed (:func:`host_probe`)."""
    scale = [REFERENCE_PROBE_S / it["probe"] for it in untraced]
    series = {
        "wall_s": [it["wall"] * k for it, k in zip(untraced, scale)],
        "setup_s": [it["setup"] * k for it, k in zip(untraced, scale)],
        "cpu_s": [it["cpu"] * k for it, k in zip(untraced, scale)],
        "sim_events_per_s": [it["events"] / (it["wall"] * k)
                             for it, k in zip(untraced, scale)],
        "peak_rss_mb": [it["rss"] for it in untraced],
    }
    return {name: (series[name], E2E_UNITS[name]) for name in E2E_UNITS}


def trace_metrics(untraced, traced) -> dict:
    units = per_layer_units()
    # An iteration that died before writing its marks has no layers.
    layered = [it["layers"] for it in traced if "layers" in it] or [{}]
    series = {name: [layers.get(name, 0.0) for layers in layered] for name in units}
    overhead = (statistics.median(it["wall"] for it in traced)
                - statistics.median(it["wall"] for it in untraced))
    series["tracing_overhead_s"] = [overhead]
    latencies = [lat * 1e3 for it in untraced for lat in it.get("latencies", ())]
    series["request_p50_ms"] = [percentile(latencies, 50) if latencies else 0.0]
    series["request_p95_ms"] = [percentile(latencies, 95) if latencies else 0.0]
    return {name: (series[name], units[name]) for name in units}


def run_workload(workload: Workload, args) -> dict | None:
    """Set up, measure and report one workload; returns its result object,
    or ``None`` when set-up failed."""
    seed = workload.default_seed if args.seed is None else args.seed
    bench = Bench(workload, seed, args.tiny)
    try:
        bench.setup()
        untraced, traced = measure(
            bench, args.seconds, bool(args.trace), 1 if args.tiny else MIN_ITERATIONS
        )
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    runs = untraced + traced
    for it in runs:
        if not it["ok"]:
            print(f"perfbench: incorrect run: {it['why']}", file=sys.stderr)
    metrics = trace_metrics(untraced, traced) if args.trace else e2e_metrics(untraced)
    provenance = dict(bench.reference["manifest"], workload=workload.name,
                      seed=seed, default_seed=workload.default_seed,
                      heldout_seed=workload.heldout_seed, seconds=args.seconds,
                      trace=args.trace, iterations=len(runs), tiny=args.tiny,
                      reference_probe_s=REFERENCE_PROBE_S,
                      host_probe_s=statistics.median(it["probe"] for it in runs),
                      unscaled_wall_s=statistics.median(it["wall"] for it in untraced))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {}
    for name, (values, unit) in metrics.items():
        q1, median, q3 = quartiles(values)
        print(f"{name} [{unit}]: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
        result[name] = {"value": median, "unit": unit}
    return {
        "correct": all(it["ok"] for it in runs),
        "attempted": sum(it["attempted"] for it in runs),
        "failed": sum(it["failed"] for it in runs),
        "metrics": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=None,
                        help="fleet seed (default: each workload's default seed)")
    with open(BENCHMARK_JSON) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="how long to keep starting measured iterations "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny fleets and one iteration of each kind (tests)")
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps the processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        result = run_workload(WORKLOADS[name], args)
        if result is None:
            return 2
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
