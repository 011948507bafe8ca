"""Multi-device fleet simulation.

The paper evaluates one device against one trace; real energy-harvesting
studies deploy *fleets* — hundreds of heterogeneous nodes with distinct
harvesters, capacitors, MCUs, deployed models, and runtime policies.  This
package layers that on top of :mod:`repro.sim`, which owns how one device
spec becomes live objects (:mod:`repro.sim.devices`) and imports nothing
from here:

* :mod:`repro.fleet.spec` — declarative :class:`DeviceSpec` /
  :class:`FleetSpec` with JSON round-trip;
* :mod:`repro.fleet.scenarios` — the :data:`SCENARIOS` registry of named,
  parameterized fleets (``solar-farm-100``, ``indoor-rf-swarm``,
  ``mixed-harvester-city``, ``dev-smoke``);
* :mod:`repro.fleet.runner` — :class:`FleetRunner`, which executes every
  fleet on the lockstep batched engine (:mod:`repro.sim.batch`), serially
  or over ``multiprocessing`` in device chunks, with deterministic
  per-device seeding (worker count never changes results) and a serial
  fallback whenever pool dispatch cannot win; :func:`run_device` is the
  per-device scalar oracle the engine is tested against;
* :mod:`repro.fleet.results` — :class:`FleetResult` aggregation of the
  per-device results (:class:`DeviceResult`, defined in
  :mod:`repro.sim.results`): fleet IEpmJ, miss-reason breakdowns,
  percentile spreads, and their one packed and sealed form;
* :mod:`repro.fleet.shards` — crash-safe scale-out: split a fleet into
  device-shards executing through a durable, work-stealing shard ledger
  (:func:`run_sharded`), with byte-identical merged aggregates, resume
  after SIGKILL, and memory-bounded streaming toward ``megacity-1m``.

CLI: ``python -m repro.fleet run solar-farm-100 --workers 4 --json out.json``
or, sharded: ``python -m repro.fleet run brownout-grid-256 --shards 8
--ledger led/ --shard-workers 4``.
"""

from repro.fleet.results import (
    DeviceFailure,
    DeviceResult,
    FleetResult,
    ShardAggregator,
)
from repro.fleet.runner import (
    FleetRunner,
    run_device,
    run_fleet,
    worker_pool,
)
from repro.fleet.scenarios import SCENARIOS, ScenarioRegistry
from repro.fleet.shards import (
    FleetShardSource,
    ScenarioShardSource,
    ShardedFleetResult,
    ShardLedger,
    ShardPlan,
    run_sharded,
)
from repro.fleet.spec import DeviceSpec, FleetSpec

__all__ = [
    "DeviceFailure",
    "DeviceResult",
    "DeviceSpec",
    "FleetResult",
    "FleetRunner",
    "FleetShardSource",
    "FleetSpec",
    "SCENARIOS",
    "ScenarioRegistry",
    "ScenarioShardSource",
    "ShardAggregator",
    "ShardedFleetResult",
    "ShardLedger",
    "ShardPlan",
    "run_device",
    "run_fleet",
    "run_sharded",
    "worker_pool",
]
