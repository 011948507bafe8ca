"""Layer spans for the traced benchmark run, installed from outside ``src/``.

Each layer of the fleet stack is a set of public functions and methods.
:meth:`Tracer.install` wraps them in place — module attributes, every
``repro`` module that imported a function by name, class attributes and
instance attributes — with a span that records calls, time and *self*
time: the span's duration minus the time its nested layer spans cover on
the same thread.  A layer already open on the thread's stack passes
nested calls of its own group straight through, so recursion and
re-entry (``load_checkpoint`` replaying a ``create``) never double
count.  A target that a later refactor renames or removes is skipped and
its layer reports zero calls; nothing under ``src/`` is touched.

Only this module's own bookkeeping runs inside the child; the parent
(``run.py``) turns the written totals into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time

clock = time.monotonic


def _nbytes(packed) -> int:
    """Bytes of numpy payload in a packed wire dict (nested dicts too)."""
    total = 0
    for value in packed.values():
        if isinstance(value, dict):
            total += _nbytes(value)
        else:
            total += int(getattr(value, "nbytes", 0))
    return total


def _trace_samples(stats, args, kwargs, result):
    stats["samples"] += int(getattr(getattr(result, "samples_mw", None), "size", 0))


def _engine_devices(stats, args, kwargs, result):
    stats["devices"] += len(getattr(args[0], "devices", ()))


def _finalized_devices(stats, args, kwargs, result):
    stats["devices"] += len(result)


def _kernel_episode(stats, args, kwargs, result):
    part, n_events = args[1], args[4]
    stats["episodes"] += int(part.sum())
    stats["events"] += int(n_events[part].sum())


def _report_bytes(stats, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    stats["bytes_written"] += os.path.getsize(path)


def _wire_bytes(stats, args, kwargs, result):
    stats["bytes"] += _nbytes(args[0])
    stats["chunks"] += 1


def _shard_saved(stats, args, kwargs, result):
    ledger, key = args[0], args[1]
    stats["bytes_written"] += os.path.getsize(ledger.shard_path(key))


def _report_written(stats, args, kwargs, result):
    stats["bytes_written"] += os.path.getsize(result)


def _sharded_result(stats, args, kwargs, result):
    stats["shards"] += int(result.num_shards)
    stats["stolen"] += int(result.shards_stolen)


#: (layer, "module:qualname", hook).  A hook runs after every call of its
#: target — nested pass-through calls included — and adds the layer's
#: extra counters.
SPANS = (
    ("fleet.scenarios", "repro.fleet.scenarios:SCENARIOS.build", None),
    ("fleet.scenarios", "repro.fleet.spec:FleetSpec.from_json", None),
    ("fleet.scenarios", "repro.fleet.shards:ScenarioShardSource.__init__", None),
    ("fleet.scenarios", "repro.fleet.shards:ScenarioShardSource.device_specs", None),
    ("energy.traces", "repro.fleet.runner:build_trace", _trace_samples),
    ("energy.events", "repro.fleet.runner:build_events", None),
    ("runtime.controller", "repro.fleet.runner:build_controller", None),
    ("sim.batch.build", "repro.sim.batch:BatchedFleetEngine.__init__", _engine_devices),
    ("sim.batch.advance", "repro.sim.batch:BatchedFleetEngine.advance", None),
    (
        "intermittent.kernel",
        "repro.intermittent.kernel:IntermittentFleetKernel.run_episode",
        _kernel_episode,
    ),
    ("sim.batch.finalize", "repro.sim.batch:BatchedFleetEngine.finalize", _finalized_devices),
    ("fleet.results", "repro.fleet.results:FleetResult.aggregate", None),
    ("fleet.results", "repro.fleet.results:FleetResult.to_json", _report_bytes),
    ("fleet.results", "repro.fleet.results:ShardAggregator.aggregate", None),
    ("fleet.results", "repro.fleet.shards:ShardedFleetResult.to_json", _report_bytes),
    ("fleet.results.wire", "repro.fleet.results:pack_device_results", None),
    ("fleet.results.wire", "repro.fleet.results:seal_payload", None),
    ("fleet.results.wire", "repro.fleet.results:verify_payload", _wire_bytes),
    ("fleet.results.wire", "repro.fleet.results:unpack_device_results", None),
    ("fleet.runner.dispatch", "repro.fleet.runner:FleetRunner.run", None),
    ("fleet.shards", "repro.fleet.shards:run_sharded", _sharded_result),
    ("fleet.shards", "repro.fleet.shards:ShardLedger.save_shard", _shard_saved),
    ("fleet.shards", "repro.fleet.shards:ShardLedger.load_shard", None),
    ("fleet.shards", "repro.fleet.shards:ShardLedger.write_report", _report_written),
    ("fleet.shards", "repro.fleet.shards:_merge_ledger", None),
    ("gateway.create", "repro.gateway.twin:FleetTwin.from_scenario", None),
    ("gateway.advance", "repro.gateway.twin:FleetTwin.advance", None),
    ("gateway.query", "repro.gateway.twin:FleetTwin.query", None),
    ("gateway.checkpoint", "repro.gateway.checkpoint:save_checkpoint", None),
    ("gateway.restore", "repro.gateway.checkpoint:load_checkpoint", None),
)

#: (layer, counter, "module:qualname"): counted and timed, but no span —
#: the time stays in the enclosing layer's self time.
PROBES = (
    ("fleet.runner.dispatch", "retries", "repro.fleet.runner:_FaultTolerantDispatch._on_failure"),
    ("fleet.runner.dispatch", "pool_start", "multiprocessing:Pool"),
    ("fleet.shards", "quarantined", "repro.fleet.shards:ShardLedger.quarantine_shard"),
)


def group(layer: str) -> str:
    """Spans of one group never nest: the gateway verbs form one group."""
    return "gateway" if layer.startswith("gateway.") else layer


class _Stats(dict):
    """Per-layer totals; unknown counters read as zero."""

    def __missing__(self, key):
        return 0


class Tracer:
    """In-memory span totals for one process, keyed by layer."""

    def __init__(self):
        self.layers: dict = {}
        self._local = threading.local()

    def stats(self, layer: str) -> _Stats:
        found = self.layers.get(layer)
        if found is None:
            found = self.layers[layer] = _Stats()
        return found

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, layer: str, seconds: float) -> None:
        """Add a span measured outside any wrapper (the import phase)."""
        stats = self.stats(layer)
        stats["calls"] += 1
        stats["self_s"] += seconds

    def _run_hook(self, hook, stats, args, kwargs, result) -> None:
        # A hook reads the program's arguments and results; if a later
        # refactor changes their shape, the counter is lost, not the run.
        try:
            hook(stats, args, kwargs, result)
        except Exception:
            stats["hook_errors"] += 1

    def span(self, layer: str, fn, hook=None):
        """``fn`` wrapped in a span of ``layer`` (see the module docstring)."""
        tracer, key = self, group(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if any(frame[0] == key for frame in stack):
                result = fn(*args, **kwargs)
                if hook is not None:
                    tracer._run_hook(hook, tracer.stats(layer), args, kwargs, result)
                return result
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats = tracer.stats(layer)
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[1]
            if hook is not None:
                tracer._run_hook(hook, stats, args, kwargs, result)
            return result

        return wrapper

    def probe(self, layer: str, counter: str, fn):
        """``fn`` wrapped to count calls and their seconds, without a span."""
        stats = self.stats(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[counter] += 1
                stats[counter + "_s"] += clock() - t0

        return wrapper

    def install(self) -> None:
        """Wrap every :data:`SPANS` and :data:`PROBES` target that exists."""
        for layer, target, hook in SPANS:
            patch(target, lambda fn, l=layer, h=hook: self.span(l, fn, h))
        for layer, counter, target in PROBES:
            patch(target, lambda fn, l=layer, c=counter: self.probe(l, c, fn))

    def to_dict(self) -> dict:
        return {layer: dict(stats) for layer, stats in self.layers.items()}


def patch(target: str, wrap) -> bool:
    """Replace ``module:qualname`` with ``wrap(original)``.

    Module-level functions are also replaced in every loaded ``repro``
    module that bound them by name; class methods keep their
    classmethod/staticmethod kind.  Returns ``False`` when the module is
    not loaded or the target does not exist (patching never imports, so
    it never adds import time to the run).
    """
    module_name, _, qualname = target.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        return False
    try:
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return False
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(wrap(raw.__func__)))
    elif inspect.isclass(owner):
        setattr(owner, attr, wrap(raw))
    elif inspect.ismodule(owner):
        wrapped = wrap(raw)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == module_name or name.startswith("repro")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)
    else:  # an instance: shadow the bound method
        setattr(owner, attr, wrap(getattr(owner, attr)))
    return True
