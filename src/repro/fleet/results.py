"""Fleet-level result aggregation.

Every fleet path produces compact :class:`DeviceResult` summaries
(counts, metrics, percentiles) instead of full per-event records — a
100-device fleet ships kilobytes across the process boundary, not
megabytes.  The engine defines them (:mod:`repro.sim.results`; this
module re-exports the class).  They have one packed form, one seal and
one reduction:

* :func:`pack_device_results` turns a list of them into plain int/float
  list columns.  Shard artifacts store that form and pool chunks ship
  it, both sealed by :mod:`repro.store` (:func:`seal_payload` /
  :func:`verify_payload` are the pool wire's two calls).
* :class:`ShardAggregator` folds device results in device-index order —
  live objects or packed columns — and reduces them to fleet-level
  IEpmJ, miss-reason breakdowns, exit histograms and cross-device
  percentile spreads.  :class:`FleetResult` reads its numbers from one,
  so the aggregate is bit-identical however many workers or shards
  produced the parts — the property the CLI acceptance check
  (``--workers 4`` vs ``--workers 1``) relies on.
* :func:`record_outcome_metrics` records the ``fleet.*`` outcome
  metrics from that fold for serial, pooled and sharded runs alike.

Wall-clock timing lives outside the deterministic payload.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.sim.results import DeviceResult, percentile_dict
from repro.store import seal, unseal


#: Scalar DeviceResult fields, one list column each in the packed form,
#: in (attribute, type) order.
_PACK_SCALARS = (
    ("index", int), ("num_events", int), ("num_processed", int),
    ("num_missed", int), ("num_correct", int),
    ("iepmj", float), ("average_accuracy", float),
    ("processed_accuracy", float), ("mean_latency_s", float),
    ("mean_inference_energy_mj", float),
    ("total_env_energy_mj", float), ("total_consumed_mj", float),
    ("duration_s", float), ("episodes", int), ("wall_s", float),
)

#: Dict-valued DeviceResult fields, packed as key list + value rows.
_PACK_DICTS = (
    ("latency_percentiles", float),
    ("energy_percentiles", float),
    ("harvest_percentiles", float),
    ("miss_counts", int),
)


def _pack_dict_column(dicts, caster):
    """Pack per-device dicts; one (keys, rows) table when keys align."""
    keys = list(dicts[0])
    if all(list(d) == keys for d in dicts):
        return {"keys": keys, "values": [[caster(d[k]) for k in keys] for d in dicts]}
    return {"raw": [dict(d) for d in dicts]}


def _unpack_dict_column(packed, i, caster):
    if "raw" in packed:
        return dict(packed["raw"][i])
    return {k: caster(v) for k, v in zip(packed["keys"], packed["values"][i])}


def pack_device_results(results) -> dict:
    """Column form of a list of :class:`DeviceResult`: plain int/float lists.

    The one packed form of device results: shard artifacts store it and
    pool chunks ship it, both sealed by :mod:`repro.store`.  Python's
    ``json`` writes floats via ``repr``, which round-trips every float
    bit-exactly, so ``unpack_device_results(pack_device_results(rs))``
    reproduces every field bit-for-bit, through JSON or a pickle.
    Exit histograms are zero-padded to the widest one, with the true
    widths alongside.
    """
    out = {"n": len(results), "names": [r.name for r in results],
           "profiles": [r.profile for r in results]}
    for attr, caster in _PACK_SCALARS:
        out[attr] = [caster(getattr(r, attr)) for r in results]
    for attr, caster in _PACK_DICTS:
        out[attr] = _pack_dict_column([getattr(r, attr) for r in results], caster)
    counts = [r.exit_counts for r in results]
    width = max((len(c) for c in counts), default=0)
    out["exit_counts"] = [[int(x) for x in c] + [0] * (width - len(c)) for c in counts]
    out["exit_widths"] = [len(c) for c in counts]
    return out


def unpack_device_results(packed: dict) -> list:
    """Rebuild :class:`DeviceResult` objects from the packed form."""
    results = []
    for i in range(packed["n"]):
        fields = {"name": packed["names"][i], "profile": packed["profiles"][i]}
        for attr, caster in _PACK_SCALARS:
            fields[attr] = caster(packed[attr][i])
        for attr, caster in _PACK_DICTS:
            fields[attr] = _unpack_dict_column(packed[attr], i, caster)
        width = packed["exit_widths"][i]
        fields["exit_counts"] = [int(c) for c in packed["exit_counts"][i][:width]]
        results.append(DeviceResult(**fields))
    return results


def seal_payload(packed: dict) -> dict:
    """The pool wire's seal: ``packed`` as a :func:`repro.store.seal` body."""
    return seal(packed)[0]


def verify_payload(body: dict) -> tuple:
    """Check a pool wire body with :func:`repro.store.unseal`.

    Returns ``(packed, digest)``; raises
    :class:`~repro.errors.IntegrityError` (which the dispatcher retries)
    for a missing or malformed seal or a checksum mismatch.
    """
    return unseal(body)


@dataclass
class DeviceFailure:
    """A device quarantined after exhausting the retry/degradation ladder.

    Recorded on :attr:`FleetResult.failures` instead of aborting the
    fleet: the rest of the devices complete, and the failure carries
    enough to re-run the offender (index, spec name, the last error, how
    many attempts were made, and at which ladder stage it gave up).
    """

    index: int
    name: str
    error: str
    attempts: int
    stage: str = "chunk"

    def to_dict(self) -> dict:
        """JSON-safe form, as listed under the aggregate's ``failures``."""
        return {
            "index": self.index,
            "name": self.name,
            "error": self.error,
            "attempts": self.attempts,
            "stage": self.stage,
        }


@dataclass
class FleetResult:
    """Aggregate outcome of one fleet run.

    Every fleet-level number is read from one cached
    :class:`ShardAggregator` over :attr:`devices` (folded on first read),
    the same reduction a sharded merge runs, so serial, pooled and
    sharded runs share one arithmetic.
    """

    fleet_name: str
    seed: int
    devices: list = field(default_factory=list)  # DeviceResult, index order
    workers: int = 1
    wall_s: float = 0.0
    failures: list = field(default_factory=list)  # DeviceFailure, index order

    def __post_init__(self):
        self.devices = sorted(self.devices, key=lambda d: d.index)
        self.failures = sorted(self.failures, key=lambda f: f.index)
        self._agg = None

    def _aggregator(self) -> "ShardAggregator":
        if self._agg is None:
            self._agg = ShardAggregator(self.fleet_name, self.seed)
            self._agg.add_devices(self.devices)
        return self._agg

    def _summary(self) -> dict:
        return self._aggregator().aggregate()

    # ---------------- counts ---------------- #
    @property
    def num_devices(self) -> int:
        """Devices that completed (quarantined devices excluded)."""
        return len(self.devices)

    @property
    def num_failures(self) -> int:
        """Devices quarantined after the retry ladder."""
        return len(self.failures)

    @property
    def num_events(self) -> int:
        """Events offered across the fleet."""
        return self._summary()["events"]

    @property
    def num_processed(self) -> int:
        """Events that ran an inference across the fleet."""
        return self._summary()["processed"]

    @property
    def num_missed(self) -> int:
        """Events missed across the fleet (any reason)."""
        return self._summary()["missed"]

    @property
    def num_correct(self) -> int:
        """Correctly classified events across the fleet."""
        return self._summary()["correct"]

    # ---------------- fleet metrics ---------------- #
    @property
    def fleet_iepmj(self) -> float:
        """Fleet-level Eq. 1: all correct events over all offered energy."""
        return self._summary()["fleet_iepmj"]

    @property
    def average_accuracy(self) -> float:
        """Correct events over offered events, fleet-wide."""
        return self._summary()["average_accuracy"]

    def device_iepmj_percentiles(self) -> dict:
        """Spread of per-device IEpmJ — how unevenly the fleet performs."""
        return self._summary()["device_iepmj_percentiles"]

    def device_latency_percentiles(self) -> dict:
        """Spread of per-device mean latency across the fleet."""
        return self._summary()["device_latency_percentiles"]

    def miss_counts(self) -> dict:
        """Missed events across the fleet, grouped by reason."""
        return self._summary()["miss_counts"]

    def exit_counts(self) -> list:
        """Processed events per final exit, summed across devices.

        Devices may deploy profiles with different exit counts (mixed
        fleets); shorter histograms are zero-padded to the deepest one.
        Campaign reports reduce this into the exit-depth comparisons the
        paper draws in Fig. 7(b).
        """
        return self._summary()["exit_counts"]

    @property
    def mean_exit_depth(self) -> float:
        """Average final-exit index over processed events (0 = earliest).

        A controller that learns to spend energy on deeper exits moves
        this up; one that rations moves it down — the scalar the campaign
        layer uses for cross-controller exit-depth deltas.
        """
        return self._summary()["mean_exit_depth"]

    @property
    def devices_per_second(self) -> float:
        """Simulation throughput of this run (0 when timing is absent)."""
        if self.wall_s <= 0:
            return 0.0
        return self.num_devices / self.wall_s

    # ---------------- reporting ---------------- #
    def aggregate(self) -> dict:
        """Deterministic fleet-level summary (no wall-clock content).

        The ``failures`` key appears only when devices were quarantined,
        so a fully-recovered faulted run aggregates byte-identically to
        a fault-free one (the repro.faults identity contract).
        """
        out = self._summary()
        if self.failures:
            out["failures"] = [f.to_dict() for f in self.failures]
        return out

    def to_dict(self, include_timing: bool = False) -> dict:
        """JSON-safe report: the aggregate plus one row per device;
        ``include_timing`` adds the wall-clock section."""
        out = {
            "aggregate": self.aggregate(),
            "devices": [d.to_dict(include_timing) for d in self.devices],
        }
        if include_timing:
            out["timing"] = {
                "workers": self.workers,
                "wall_s": self.wall_s,
                "devices_per_second": self.devices_per_second,
            }
        return out

    def to_json(self, path: str, include_timing: bool = False) -> None:
        """Write :meth:`to_dict` as canonical JSON to ``path``."""
        import json

        with open(path, "w") as fh:
            json.dump(self.to_dict(include_timing), fh, indent=2, sort_keys=True)


class ShardAggregator:
    """The one deterministic reduction of device results to the fleet
    aggregate.

    Fold devices in global index order — :class:`DeviceResult` objects
    with :meth:`add_devices`, packed columns (a shard artifact's
    ``devices``) with :meth:`add_packed`, both through one per-device
    fold — and :meth:`aggregate` reduces them.  :class:`FleetResult`
    reads its numbers from one, so a serial run, a pooled run and a
    sharded merge over the same devices aggregate byte-identically.  The
    subtlety this class exists for: numpy's ``sum`` uses pairwise
    summation, so adding up per-shard *partial sums* would not be
    bit-identical to reducing the full column — float columns are
    therefore kept whole (8 bytes a device, in typed arrays) and reduced
    once, while the miss/exit folds (exact integer arithmetic) accumulate
    incrementally so per-device dicts can be released with their shard.
    """

    #: Per-device columns the aggregate reduces, with their dtypes.
    _COLUMNS = {
        "num_events": np.int64, "num_processed": np.int64,
        "num_missed": np.int64, "num_correct": np.int64,
        "iepmj": np.float64, "mean_latency_s": np.float64,
        "total_env_energy_mj": np.float64, "total_consumed_mj": np.float64,
    }

    def __init__(self, fleet_name: str, seed: int):
        self.fleet_name = fleet_name
        self.seed = int(seed)
        self.num_devices = 0
        self._cols: dict = {
            attr: array("q" if dtype is np.int64 else "d")
            for attr, dtype in self._COLUMNS.items()
        }
        self._miss_counts: dict = {}
        self._exit_totals: list = []

    def add_devices(self, devices) -> None:
        """Fold :class:`DeviceResult` objects (device-index order)."""
        for d in devices:
            self._fold(
                [getattr(d, attr) for attr in self._cols],
                d.miss_counts,
                d.exit_counts,
            )

    def add_packed(self, packed: dict) -> None:
        """Fold one shard's packed columns (device-index order within)."""
        columns = [packed[attr] for attr in self._cols]
        misses, exits = packed["miss_counts"], packed["exit_counts"]
        for i in range(packed["n"]):
            self._fold(
                [column[i] for column in columns],
                _unpack_dict_column(misses, i, int),
                exits[i][:packed["exit_widths"][i]],
            )

    def _fold(self, values, misses: dict, exits) -> None:
        self.num_devices += 1
        for column, value in zip(self._cols.values(), values):
            column.append(value)
        for reason, count in misses.items():
            self._miss_counts[reason] = self._miss_counts.get(reason, 0) + int(count)
        if len(exits) > len(self._exit_totals):
            self._exit_totals.extend([0] * (len(exits) - len(self._exit_totals)))
        for j, count in enumerate(exits):
            self._exit_totals[j] += int(count)

    def _column(self, attr: str) -> np.ndarray:
        return np.array(self._cols[attr], dtype=self._COLUMNS[attr])

    def aggregate(self) -> dict:
        """The fleet summary: same arithmetic, same key set and same values
        for every way the devices were folded (the sharded-identity
        contract)."""
        events = int(self._column("num_events").sum())
        processed = int(self._column("num_processed").sum())
        missed = int(self._column("num_missed").sum())
        correct = int(self._column("num_correct").sum())
        total_energy = float(self._column("total_env_energy_mj").sum())
        counts = list(self._exit_totals)
        total_exits = sum(counts)
        return {
            "fleet": self.fleet_name,
            "seed": self.seed,
            "devices": self.num_devices,
            "events": events,
            "processed": processed,
            "missed": missed,
            "correct": correct,
            "fleet_iepmj": 0.0 if total_energy <= 0 else correct / total_energy,
            "average_accuracy": 0.0 if events == 0 else correct / events,
            "device_iepmj_percentiles": percentile_dict(
                self._column("iepmj"), (10, 50, 90)
            ),
            "device_latency_percentiles": percentile_dict(
                self._column("mean_latency_s"), (10, 50, 90)
            ),
            # Reasons in sorted order: the order a fold first met them
            # depends on how the devices were folded.
            "miss_counts": dict(sorted(self._miss_counts.items())),
            "exit_counts": counts,
            "mean_exit_depth": (
                0.0 if total_exits == 0
                else sum(i * c for i, c in enumerate(counts)) / total_exits
            ),
            "total_env_energy_mj": total_energy,
            "total_consumed_mj": float(self._column("total_consumed_mj").sum()),
        }


def record_outcome_metrics(metrics, agg: ShardAggregator, wall_s: float,
                           gauges: dict) -> None:
    """Record the ``fleet.*`` outcome metrics of a finished run.

    Computed parent-side from the folded device results — serial, pooled
    and sharded runs therefore record the same names, values and order
    regardless of worker count, chunking or sharding.  ``gauges`` (the
    worker count plus ``fleet.parallel`` or ``fleet.shards``) are set
    last, in the given order.  (Engine internals — ``batch.*`` counters
    and profiler phases — are recorded where the engine runs and are
    chunking-granular by nature.)
    """
    aggregate = agg.aggregate()
    metrics.inc("fleet.runs")
    metrics.inc("fleet.devices", aggregate["devices"])
    metrics.inc("fleet.events", aggregate["events"])
    metrics.inc("fleet.events.processed", aggregate["processed"])
    metrics.inc("fleet.events.missed", aggregate["missed"])
    metrics.inc("fleet.events.correct", aggregate["correct"])
    metrics.observe_many("fleet.device.iepmj", agg._column("iepmj"))
    metrics.observe("fleet.run.wall_s", wall_s)
    for name, value in gauges.items():
        metrics.set_gauge(name, value)
