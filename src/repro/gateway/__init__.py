"""Fleet-as-a-service: a persistent async simulation gateway.

The batch stack runs one-shot sweeps; this package runs the same
engines as a *service*.  A :class:`~repro.gateway.server.GatewayServer`
owns live fleets as device twins — the existing
:class:`~repro.sim.batch.BatchedFleetEngine` numpy columns, paused
between lockstep steps — and serves ``create`` / ``submit`` /
``advance`` / ``query`` / ``checkpoint`` / ``restore`` / ``shutdown``
over newline-delimited JSON (TCP or Unix socket, stdlib asyncio only).

The load-bearing guarantee is determinism: advancing a fleet in any
K-way split of ``advance`` calls, across sessions, checkpoints, and
restores, produces aggregates byte-identical to one uninterrupted
:class:`~repro.fleet.runner.FleetRunner` run — enforced against the
committed goldens in ``tests/test_gateway.py``.

Start here:

* ``docs/PROTOCOL.md`` — the wire protocol, verb by verb.
* ``docs/ARCHITECTURE.md`` — where the gateway sits in the stack.
* ``python -m repro.gateway serve`` / ``examples/gateway_demo.py``.
"""

import importlib

#: Public name -> the module that defines it.  Nothing is imported here:
#: each name loads on first access (PEP 562), so a client process
#: (:mod:`repro.gateway.client`, ``python -m repro.gateway client``)
#: loads the standard library, :mod:`repro.errors` and
#: :mod:`repro.gateway.protocol` only, never NumPy or the engine behind
#: the server.
_EXPORTS = {
    "PROTOCOL_VERSION": "repro.gateway.protocol",
    "VERBS": "repro.gateway.protocol",
    "FleetTwin": "repro.gateway.twin",
    "GatewayClient": "repro.gateway.client",
    "GatewayServer": "repro.gateway.server",
    "load_checkpoint": "repro.gateway.checkpoint",
    "save_checkpoint": "repro.gateway.checkpoint",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Resolve a public name, or a submodule, on first access."""
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module), name)
        globals()[name] = value
        return value
    # A submodule not yet imported; importing binds it on this package.
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
