"""Gateway server/client tests: sessions, isolation, chaos, CLI.

The server runs in a background thread with its own event loop (no
asyncio test plugin in the container) and is driven by the sync
:class:`~repro.gateway.client.GatewayClient` — the same deployment shape
as ``python -m repro.gateway serve``.  Aggregates fetched over the wire
are compared byte-exactly against one-shot :class:`FleetRunner` runs;
the chaos tests arm the ``fleet.gateway`` site and require the noisy
link to converge to the identical bytes.
"""

import asyncio
import contextlib
import json
import os
import re
import subprocess
import sys
import threading

import pytest

from repro.errors import GatewayError
from repro.faults import FaultPlan, chaos
from repro.faults.plan import Fault
from repro.fleet import SCENARIOS, FleetRunner
from repro.gateway import GatewayClient, GatewayServer
from repro.obs.recorder import recording


@contextlib.contextmanager
def live_server(**kwargs):
    """A GatewayServer on an ephemeral endpoint, in a daemon thread."""
    box = {}
    started = threading.Event()

    def run():
        async def main():
            server = GatewayServer(**kwargs)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server did not start"
    try:
        yield box["server"]
    finally:
        loop, server = box["loop"], box["server"]
        if thread.is_alive():
            loop.call_soon_threadsafe(server._stopping.set)
            thread.join(10)


def _client_for(server, **kw):
    if server.unix_path is not None:
        return GatewayClient(unix_path=server.unix_path, **kw)
    return GatewayClient(port=server.port, **kw)


def _one_shot(scenario, **overrides):
    spec = SCENARIOS.build(scenario, **overrides)
    return json.loads(
        json.dumps(FleetRunner(spec, workers=1).run().aggregate())
    )


def test_end_to_end_tcp(tmp_path):
    """create → incremental advance → checkpoint → restore → query, all
    over TCP, byte-identical to the one-shot run."""
    expected = _one_shot("dev-smoke")
    ck = str(tmp_path / "ck.json")
    with live_server() as server:
        with _client_for(server) as gw:
            assert gw.ping()["pong"] is True
            created = gw.create(scenario="dev-smoke")
            assert created["devices"] == 5 and not created["finished"]
            gw.advance("dev-smoke", steps=7)
            gw.checkpoint("dev-smoke", ck)
            while not gw.advance("dev-smoke", steps=5)["finished"]:
                pass
            assert gw.query("dev-smoke") == expected
            restored = gw.restore(ck, fleet="twin-b")
            assert restored["steps_done"] == 7
            gw.advance("twin-b")
            replayed = gw.query("twin-b")
            replayed["fleet"] = expected["fleet"]  # registry alias only
            assert replayed == expected
            names = [f["fleet"] for f in gw.fleets()["fleets"]]
            assert names == ["dev-smoke", "twin-b"]
            assert gw.shutdown()["stopping"] is True


def test_unix_socket_roundtrip(tmp_path):
    sock = str(tmp_path / "gw.sock")
    with live_server(unix_path=sock) as server:
        with _client_for(server) as gw:
            gw.create(scenario="dev-smoke")
            gw.advance("dev-smoke")
            assert gw.query("dev-smoke") == _one_shot("dev-smoke")


def test_concurrent_sessions_are_isolated():
    """Two sessions driving different fleets interleave arbitrarily; each
    fleet still reproduces its own one-shot bytes (per-fleet actors keep
    op order total per twin)."""
    cases = [
        ("dev-smoke", {}),
        ("mixed-harvester-city", {"num_devices": 4}),
    ]
    results = {}
    errors = []

    def drive(name, overrides, alias):
        try:
            with _client_for(server) as gw:
                gw.create(scenario=name, overrides=overrides, fleet=alias)
                while not gw.advance(alias, steps=2)["finished"]:
                    pass
                results[alias] = gw.query(alias)
        except Exception as exc:  # surfaces in the main thread
            errors.append(exc)

    with live_server() as server:
        threads = [
            threading.Thread(target=drive, args=(name, ov, f"fleet-{i}"))
            for i, (name, ov) in enumerate(cases)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    assert not errors
    for i, (name, overrides) in enumerate(cases):
        expected = _one_shot(name, **overrides)
        got = dict(results[f"fleet-{i}"])
        got["fleet"] = expected["fleet"]  # registered under the alias
        assert got == expected


def test_duplicate_request_id_is_deduped():
    """Same id twice → the cached envelope, not a second execution."""
    with live_server() as server:
        with _client_for(server) as gw:
            gw.create(scenario="dev-smoke")
            first = gw.call("advance", fleet="dev-smoke", steps=3)
            gw._next_id -= 1  # re-send the exact same request id
            again = gw.call("advance", fleet="dev-smoke", steps=3)
            assert again == first  # no extra steps executed
            progress = gw.query("dev-smoke", "progress")
            assert progress["steps_done"] == 3


def test_chaos_drop_delay_corrupt_converges_to_identical_bytes():
    """An armed fleet.gateway plan (drop + delay + corrupt) makes the
    link lossy; client retries + server dedup still produce aggregates
    byte-identical to the clean one-shot run."""
    expected = _one_shot("dev-smoke")
    plan = FaultPlan(
        [
            Fault(site="fleet.gateway", when=1, op="drop"),
            Fault(site="fleet.gateway", when=3, op="corrupt"),
            Fault(site="fleet.gateway", when=4, op="delay",
                  params={"seconds": 0.05}),
            Fault(site="fleet.gateway", when=6, op="drop"),
            Fault(site="fleet.gateway", when=8, op="corrupt"),
        ]
    )
    with chaos(plan) as injector:
        with live_server() as server:
            with _client_for(server, timeout=1.0, retries=4) as gw:
                gw.create(scenario="dev-smoke")
                while not gw.advance("dev-smoke", steps=4)["finished"]:
                    pass
                assert gw.query("dev-smoke") == expected
    fired = injector.fired_summary()
    assert fired.get("fleet.gateway.drop", 0) >= 1
    assert fired.get("fleet.gateway.corrupt", 0) >= 1


def test_error_envelopes_rebuild_repro_exceptions():
    with live_server() as server:
        with _client_for(server) as gw:
            with pytest.raises(GatewayError, match="unknown fleet"):
                gw.advance("nope")
            with pytest.raises(GatewayError, match="exactly one of"):
                gw.call("create")
            gw.create(scenario="dev-smoke")
            with pytest.raises(GatewayError, match="already exists"):
                gw.create(scenario="dev-smoke")
            with pytest.raises(GatewayError, match="mid-run|aggregates"):
                gw.advance("dev-smoke", steps=1)
                gw.query("dev-smoke", "aggregate")


def test_gateway_metrics_and_spans():
    """gateway.sessions, per-verb counters, and advance spans all land
    on the process recorder."""
    with recording() as rec:
        with live_server() as server:
            with _client_for(server) as gw:
                gw.create(scenario="dev-smoke")
                gw.advance("dev-smoke")
                gw.query("dev-smoke")
    metrics = rec.metrics.to_dict()
    counters = metrics.get("counters", metrics)
    assert counters["gateway.sessions"] >= 1
    assert counters["gateway.requests.create"] == 1
    assert counters["gateway.requests.advance"] == 1
    assert counters["gateway.requests.query"] == 1
    names = json.dumps(metrics)
    assert "span.gateway.advance.s" in names


def test_cli_serve_and_client_subprocess(tmp_path):
    """The deployment shape: ``python -m repro.gateway serve`` in one
    process, the CLI client driving it from another.  The server's trace
    and metrics file embed the same run manifest."""
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    serve = [sys.executable, "-m", "repro.gateway", "serve", "--port", "0"]
    serve += ["--trace-out", str(trace_path), "--metrics-out", str(metrics_path)]
    proc = subprocess.Popen(
        serve,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"listening on .*:(\d+)", banner)
        assert match, f"no endpoint banner: {banner!r}"
        port = int(match.group(1))
        with GatewayClient(port=port, timeout=30) as gw:
            gw.create(scenario="dev-smoke")
            gw.advance("dev-smoke")
            assert gw.query("dev-smoke") == _one_shot("dev-smoke")
            gw.shutdown()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    manifest = records[0]
    assert manifest.pop("type") == "manifest"
    assert manifest == json.loads(metrics_path.read_text())["manifest"]
