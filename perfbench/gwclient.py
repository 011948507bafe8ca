"""The gateway-session load generator: one client, one connection.

    python perfbench/gwclient.py SOCKET OUT.json DEVICES SEED CHECKPOINT

Started beside a fresh ``python -m repro.gateway serve --unix SOCKET``,
it connects as soon as the socket accepts, then runs a closed loop with
:class:`repro.gateway.client.GatewayClient` (each request waits for the
previous reply): ``create`` city-block-1k at ``DEVICES`` devices and
``SEED``; ``advance(1)`` + ``query progress`` until half way;
``checkpoint`` to ``CHECKPOINT`` and ``restore`` it as a replica;
``advance(1)`` + ``query progress`` on the fleet and the replica in turn
to the end; ``query aggregate`` on both.  One lockstep step per
``advance`` makes about three requests per step of the fleet (245 for
city-block-1k's 80 steps), so at least ten fall beyond the p95.  It
writes the
monotonic-clock times of the greeting and of the final reply, every
request's verb and latency, the error and retry counts and both
aggregates to ``OUT.json``, then shuts the server down.
"""

import json
import sys
import time

from repro.gateway.client import GatewayClient

CONNECT_TIMEOUT_S = 60.0


class _CountingClient(GatewayClient):
    """Counts reads: one per attempt, so reads beyond calls are retries."""

    reads = 0

    def _read_matching(self, request_id):
        self.reads += 1
        return super()._read_matching(request_id)


def connect(path: str) -> _CountingClient:
    deadline = time.monotonic() + CONNECT_TIMEOUT_S
    while True:
        client = _CountingClient(unix_path=path, timeout=60.0)
        try:
            client.connect()
            return client
        except OSError:
            client.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.002)


def main(argv) -> int:
    sock, out_path, devices, seed, checkpoint = argv
    client = connect(sock)
    out = {"t_greeting": time.monotonic(), "requests": [], "errors": 0}

    def call(verb, **params):
        t0 = time.monotonic()
        try:
            return client.call(verb, **params)
        except Exception as exc:
            out["errors"] += 1
            out.setdefault("error_messages", []).append(f"{verb}: {exc!r}")
            return None
        finally:
            out["requests"].append([verb, time.monotonic() - t0])

    try:
        created = call(
            "create",
            scenario="city-block-1k",
            overrides={"num_devices": int(devices), "seed": int(seed)},
        )
        fleet = created["fleet"]
        half = created["total_steps"] // 2
        progress = created
        while progress["steps_done"] < half and not progress["finished"]:
            call("advance", fleet=fleet, steps=1)
            progress = call("query", fleet=fleet, what="progress")
        call("checkpoint", fleet=fleet, path=checkpoint)
        call("restore", path=checkpoint, fleet="replica")
        running = [fleet, "replica"]
        while running:
            for name in list(running):
                call("advance", fleet=name, steps=1)
                if call("query", fleet=name, what="progress")["finished"]:
                    running.remove(name)
        out["aggregates"] = [
            call("query", fleet=fleet, what="aggregate"),
            call("query", fleet="replica", what="aggregate"),
        ]
        out["t_final"] = time.monotonic()
        out["retries"] = max(0, client.reads - len(out["requests"]))
        client.call("shutdown")
    finally:
        client.close()
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
