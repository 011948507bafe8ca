"""Fleet-level result aggregation.

Every fleet path produces compact per-device results (counts, metrics,
percentiles) instead of full per-event records — a 100-device fleet
ships kilobytes across the process boundary, not megabytes.  They stay
in one packed form from the engine to the report file:

* the packed form — plain int/float list columns, ``keys``/``raw`` dict
  tables, zero-padded exit histograms — lives in
  :mod:`repro.sim.results` beside :class:`DeviceResult` (this module
  re-exports both, with :func:`pack_device_results` and
  :func:`unpack_device_results`).  The engine's ``finalize`` emits it as
  a :class:`DeviceColumns`; pool chunks ship it sealed by
  :mod:`repro.store` (:func:`seal_payload` / :func:`verify_payload` are
  the wire's two calls) and the dispatcher joins verified chunks without
  unpacking them; shard artifacts and gateway cohorts carry it too.
* :class:`ShardAggregator` folds packed columns in device-index order, a
  column at a time, and reduces them to fleet-level IEpmJ, miss-reason
  breakdowns, exit histograms and cross-device percentile spreads.
  :class:`FleetResult` reads its numbers from one, so the aggregate is
  bit-identical however many workers or shards produced the parts — the
  property the CLI acceptance check (``--workers 4`` vs ``--workers 1``)
  relies on.
* :class:`FleetResult` holds a run's columns and writes its report from
  them through :func:`repro.store.write_json`; :class:`DeviceResult`
  rows are built only when :attr:`FleetResult.devices` or
  :meth:`FleetResult.to_dict` is read.
* :func:`record_outcome_metrics` records the ``fleet.*`` outcome
  metrics from that fold for serial, pooled and sharded runs alike.

Wall-clock timing lives outside the deterministic payload.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

# The packed form lives with DeviceResult in repro.sim.results; it stays
# importable from here, where pool, shard and test code address it.
from repro.sim.results import (
    DeviceColumns,
    DeviceResult as DeviceResult,
    pack_device_results as pack_device_results,
    percentile_dict,
    unpack_device_results as unpack_device_results,
)
from repro.store import ColumnRows, seal, unseal, write_json


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


class FleetResult:
    """Aggregate outcome of one fleet run.

    ``devices`` is a :class:`DeviceColumns` in device-index order (what
    the engine's ``finalize`` and the pool dispatcher produce) or any
    iterable of :class:`DeviceResult` (packed here, sorted by index).
    The result keeps the packed columns (:attr:`columns`): every
    fleet-level number is read from one cached :class:`ShardAggregator`
    folded over them on first read, the same reduction a sharded merge
    runs, so serial, pooled and sharded runs share one arithmetic, and
    :meth:`to_json` writes the device rows straight from them.  The
    :class:`DeviceResult` rows are built only when :attr:`devices` or
    :meth:`to_dict` is read.
    """

    def __init__(
        self,
        fleet_name: str,
        seed: int,
        devices=(),
        workers: int = 1,
        wall_s: float = 0.0,
        failures=(),
    ):
        if not isinstance(devices, DeviceColumns):
            devices = DeviceColumns.from_results(
                sorted(devices, key=lambda d: d.index)
            )
        self.fleet_name = fleet_name
        self.seed = seed
        #: The device results as packed columns, device-index order.
        self.columns = devices
        self.workers = workers
        self.wall_s = wall_s
        #: :class:`DeviceFailure` records, device-index order.
        self.failures = sorted(failures, key=lambda f: f.index)
        self._devices = None
        self._agg = None

    @property
    def devices(self) -> list:
        """The :class:`DeviceResult` rows, device-index order (built on
        first read)."""
        if self._devices is None:
            self._devices = list(self.columns)
        return self._devices

    def _aggregator(self) -> "ShardAggregator":
        if self._agg is None:
            self._agg = ShardAggregator(self.fleet_name, self.seed)
            self._agg.add_packed(self.columns.packed)
        return self._agg

    def _summary(self) -> dict:
        return self._aggregator().aggregate()

    # ---------------- counts ---------------- #
    @property
    def num_devices(self) -> int:
        """Devices that completed (quarantined devices excluded)."""
        return len(self.columns)

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

    def _report(self, devices, include_timing: bool) -> dict:
        out = {"aggregate": self.aggregate(), "devices": devices}
        if include_timing:
            out["timing"] = {
                "workers": self.workers,
                "wall_s": self.wall_s,
                "devices_per_second": self.devices_per_second,
            }
        return out

    def to_dict(self, include_timing: bool = False) -> dict:
        """JSON-safe report: the aggregate plus one row per device;
        ``include_timing`` adds the wall-clock section."""
        rows = [d.to_dict(include_timing) for d in self.devices]
        return self._report(rows, include_timing)

    def to_json(self, path: str, include_timing: bool = False) -> None:
        """Write :meth:`to_dict` as canonical JSON to ``path``.

        The bytes are ``json.dump(self.to_dict(include_timing), fh,
        indent=2, sort_keys=True)``'s; the device rows are encoded from
        the packed columns, a block at a time
        (:class:`repro.store.ColumnRows`), without building their dicts.
        """
        columns = self.columns
        rows = ColumnRows(
            len(columns),
            lambda start, stop: columns.report_columns(include_timing, start, stop),
        )
        with open(path, "w") as fh:
            write_json(fh, self._report(rows, include_timing))


class ShardAggregator:
    """The one deterministic reduction of device results to the fleet
    aggregate.

    Fold devices in global index order — packed columns (a pool chunk's,
    a shard artifact's ``devices``, a whole fleet's) with
    :meth:`add_packed`, :class:`DeviceResult` objects with
    :meth:`add_devices`, which packs them first — and :meth:`aggregate`
    reduces them.  :class:`FleetResult`
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
        self.add_packed(pack_device_results(list(devices)))

    def add_packed(self, packed: dict) -> None:
        """Fold packed columns — a pool chunk's, a shard artifact's
        ``devices`` or a whole fleet's — in device-index order, a column
        at a time."""
        self.num_devices += packed["n"]
        for attr, column in self._cols.items():
            column.extend(packed[attr])
        misses = packed["miss_counts"]
        if "raw" in misses:
            for row in misses["raw"]:
                for reason, count in row.items():
                    self._add_misses(reason, int(count))
        else:
            for reason, counts in zip(misses["keys"], zip(*misses["values"])):
                self._add_misses(reason, sum(counts))
        rows = packed["exit_counts"]
        width = len(rows[0]) if rows else 0
        if width > len(self._exit_totals):
            self._exit_totals.extend([0] * (width - len(self._exit_totals)))
        for j, counts in enumerate(zip(*rows)):
            self._exit_totals[j] += sum(counts)

    def _add_misses(self, reason: str, count: int) -> None:
        self._miss_counts[reason] = self._miss_counts.get(reason, 0) + count

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
