"""Gateway CLI.

    python -m repro.gateway serve [--host H] [--port P | --unix PATH]
        [--chaos PLAN.json] [--metrics-out metrics.json]
        [--trace-out run.jsonl]
    python -m repro.gateway client (--port P | --unix PATH) VERB
        [--params '{"scenario": "dev-smoke"}']

``serve`` runs a :class:`~repro.gateway.server.GatewayServer` in the
foreground until a client sends ``shutdown`` (or SIGINT); it prints the
bound endpoint as the first stdout line (``gateway listening on ...``)
so scripts can scrape an ephemeral port.  ``--chaos`` arms a
:class:`~repro.faults.plan.FaultPlan` on the ``fleet.gateway`` site;
``--metrics-out``/``--trace-out`` enable the process recorder and write
its artifacts on exit — the same observability surface as
``python -m repro.fleet run``: one run manifest, the trace's first
record and the metrics file's ``manifest``.

``client`` sends one verb from the shell and prints the JSON response —
enough for smoke tests and scripting; use
:class:`~repro.gateway.client.GatewayClient` for anything interactive
(see ``examples/gateway_demo.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.errors import ReproError
from repro.gateway.client import GatewayClient
from repro.gateway.protocol import VERBS


def _serve(args) -> int:
    # The server's engine, chaos and observability stack load here, so
    # ``client`` runs on the standard library alone.
    from repro.faults.injector import chaos
    from repro.faults.plan import FaultPlan
    from repro.gateway.server import GatewayServer
    from repro.obs.manifest import build_manifest
    from repro.obs.recorder import observed_run

    plan = FaultPlan.from_json(args.chaos) if args.chaos else None
    server = GatewayServer(
        host=args.host, port=args.port, unix_path=args.unix
    )

    async def _run() -> None:
        await server.start()
        endpoint = (
            args.unix if args.unix else f"{server.host}:{server.port}"
        )
        print(f"gateway listening on {endpoint}", flush=True)
        await server.serve_forever()

    def manifest() -> dict:
        return build_manifest(service="gateway")

    with chaos(plan), observed_run(manifest, args.trace_out, args.metrics_out):
        asyncio.run(_run())
    if args.metrics_out:
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def _client(args) -> int:
    params = json.loads(args.params) if args.params else {}
    client = GatewayClient(
        host=args.host, port=args.port, unix_path=args.unix,
        timeout=args.timeout,
    )
    with client:
        result = client.call(args.verb, **params)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="persistent async simulation gateway",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the gateway server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed on start)")
    serve.add_argument("--unix", default=None, metavar="PATH",
                       help="serve on a Unix socket instead of TCP")
    serve.add_argument("--chaos", default=None, metavar="PLAN.json",
                       help="arm a fault plan (fleet.gateway site)")
    serve.add_argument("--metrics-out", default=None, metavar="PATH")
    serve.add_argument("--trace-out", default=None, metavar="PATH")

    client = sub.add_parser("client", help="send one verb and print the reply")
    client.add_argument("verb", choices=VERBS)
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=None)
    client.add_argument("--unix", default=None, metavar="PATH")
    client.add_argument("--timeout", type=float, default=10.0)
    client.add_argument("--params", default=None, metavar="JSON",
                        help="verb parameters as a JSON object")

    args = parser.parse_args(argv)
    try:
        if args.command == "serve":
            return _serve(args)
        return _client(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
