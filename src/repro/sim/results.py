"""Simulation results and the paper's figures of merit.

The headline metric is **IEpmJ** — interesting events correctly processed
per milliJoule of harvested energy (paper Eq. 1).  ``E_total`` is the
energy the *environment* offered over the simulated window (a property of
the trace, not of the policy), so maximizing IEpmJ is exactly maximizing
the average accuracy over all events, missed events counting as wrong.

Event outcomes are stored struct-of-arrays: one numpy column per field,
built by :class:`RecordColumns` as the simulator's event loop appends
outcomes.  Every aggregate (counts, IEpmJ, percentiles, exit histograms)
reduces whole columns instead of iterating per-event objects — the fleet
layer summarizes thousands of runs, so the row-oriented path must never be
on the hot path.  Callers that want per-event objects still get them:
:attr:`SimulationResult.records` lazily materializes a list of
:class:`EventRecord` snapshots on first access (read-only with respect to
the aggregates — edits to a snapshot do not flow back into the columns).

A device's run summarizes to one :class:`DeviceResult`, and a fleet's
device results have one *packed form*, defined here beside it: plain
int/float list columns (one per scalar field), ``{"keys", "values"}``
tables for dict fields whose keys agree across devices (``{"raw"}``
dicts otherwise), and exit histograms zero-padded to the widest with
their true widths alongside (:func:`pack_device_results`).
:class:`DeviceColumns` reads that form as a sequence of
:class:`DeviceResult` rows built on demand and :meth:`DeviceColumns.join`
concatenates parts without building any.  The batched engine's
``finalize`` emits it from the columns it computes; pool chunks, shard
artifacts, gateway cohorts and the fleet report
(:mod:`repro.fleet.results`) carry it from there unchanged.  The scalar
oracle's :meth:`DeviceResult.from_simulation` is the row view the
engine's columns are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Reasons an event can be missed.
MISS_BUSY = "busy"          # device still processing a previous event
MISS_ENERGY = "energy"      # no exit affordable / inference incomplete


def percentile_rows(rows: np.ndarray, qs) -> np.ndarray:
    """Percentiles ``qs`` of every row of a (rows, k) array of *sorted*
    values, k >= 1: one row of results per row.

    Replicates ``np.percentile``'s default linear-interpolation method
    bit-for-bit (same virtual-index arithmetic, same 0.5-switched lerp).
    The virtual indices depend only on k, so one pass serves every row;
    the batched engine's finalize summarizes whole groups of devices
    through here, and :func:`percentile_dict` is its one-row case.
    """
    virtual = np.true_divide(np.asarray(qs, dtype=np.float64), 100) * (rows.shape[1] - 1)
    lo = np.floor(virtual).astype(np.int64)
    g = virtual - lo
    lower = rows[:, lo]
    upper = rows[:, np.ceil(virtual).astype(np.int64)]
    diff = upper - lower
    points = lower + g * diff
    fix = g >= 0.5
    points[:, fix] = upper[:, fix] - diff[:, fix] * (1 - g[fix])
    return points


def percentile_dict(values, qs) -> dict:
    """Percentile summary keyed ``"p50"``/``"p90"``/...; zeros when empty.

    Shared by the per-run summarization hooks below and the fleet-level
    aggregators in :mod:`repro.fleet.results`.  The one-row case of
    :func:`percentile_rows`, which matches ``np.percentile`` exactly
    without its ~50 us/call dispatch, so goldens recorded against
    ``np.percentile`` output still match.
    """
    if not len(values):
        return {f"p{q:g}": 0.0 for q in qs}
    a = np.sort(np.asarray(values, dtype=np.float64))
    points = percentile_rows(a[None, :], qs)[0]
    return {f"p{q:g}": float(v) for q, v in zip(qs, points)}


def summary_delta(base: dict, other: dict, keys=None) -> dict:
    """``other - base`` over the shared scalar metrics of two summaries.

    Comparison reducer for A/B runs of the same environment under
    different policies (the campaign layer's per-cell marginals).  ``keys``
    restricts the comparison; by default every key whose value is a plain
    number in *both* dicts is compared, so nested percentile tables and
    labels pass through untouched (i.e. are ignored).
    """
    if keys is None:
        keys = [
            k
            for k, v in base.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
            and isinstance(other.get(k), (int, float))
            and not isinstance(other.get(k), bool)
        ]
    out = {}
    for k in keys:
        if k not in base or k not in other:
            raise KeyError(f"summary_delta: key {k!r} missing from a summary")
        out[k] = other[k] - base[k]
    return out


def reduce_summaries(summaries, keys, qs=(10, 50, 90)) -> dict:
    """Per-key percentile spread over a list of summary dicts.

    Used by campaign reports to collapse the seed axis: the same
    (scenario, controller) cell replicated over a seed bank reduces to
    ``{metric: {"p10": ..., "p50": ..., "p90": ...}}`` robustness tables.

    Summaries that lack a key are skipped for that key (a cell replayed
    from an older payload, or a degraded run whose summary omits optional
    metrics); a key present in *no* summary — including an empty
    ``summaries`` list, e.g. a fully-quarantined cell — reduces to the
    all-zero percentile table rather than raising.
    """
    out = {}
    for k in keys:
        out[k] = percentile_dict(
            [float(s[k]) for s in summaries if k in s], qs
        )
    return out


@dataclass(slots=True)
class EventRecord:
    """Outcome of one event (one row of the columnar result)."""

    time: float
    exit_index: int = -1          # final exit used; -1 for missed events
    first_exit_index: int = -1    # exit first selected (before incremental)
    correct: bool = False
    latency_s: float = 0.0
    energy_mj: float = 0.0
    confidence_entropy: float = 1.0
    continued: int = 0            # number of incremental continuations
    missed: bool = False
    miss_reason: str = ""
    power_cycles: int = 1

    @property
    def processed(self) -> bool:
        return not self.missed


class RecordColumns:
    """Append-only struct-of-arrays builder for event outcomes.

    The simulator appends one row per event into plain Python lists (cheap
    per-event) and :meth:`SimulationResult.from_columns` freezes them into
    numpy columns once per run.
    """

    __slots__ = (
        "time", "exit_index", "first_exit_index", "correct", "latency_s",
        "energy_mj", "confidence_entropy", "continued", "missed",
        "miss_reason", "power_cycles",
    )

    def __init__(self):
        self.time = []
        self.exit_index = []
        self.first_exit_index = []
        self.correct = []
        self.latency_s = []
        self.energy_mj = []
        self.confidence_entropy = []
        self.continued = []
        self.missed = []
        self.miss_reason = []
        self.power_cycles = []

    def __len__(self) -> int:
        return len(self.time)

    def append_missed(
        self, time: float, reason: str, latency_s: float = 0.0, power_cycles: int = 1
    ) -> None:
        self.time.append(time)
        self.exit_index.append(-1)
        self.first_exit_index.append(-1)
        self.correct.append(False)
        self.latency_s.append(latency_s)
        self.energy_mj.append(0.0)
        self.confidence_entropy.append(1.0)
        self.continued.append(0)
        self.missed.append(True)
        self.miss_reason.append(reason)
        self.power_cycles.append(power_cycles)

    def append_processed(
        self,
        time: float,
        exit_index: int,
        first_exit_index: int,
        correct: bool,
        latency_s: float,
        energy_mj: float,
        confidence_entropy: float,
        continued: int = 0,
        power_cycles: int = 1,
    ) -> None:
        self.time.append(time)
        self.exit_index.append(exit_index)
        self.first_exit_index.append(first_exit_index)
        self.correct.append(bool(correct))
        self.latency_s.append(latency_s)
        self.energy_mj.append(energy_mj)
        self.confidence_entropy.append(confidence_entropy)
        self.continued.append(continued)
        self.missed.append(False)
        self.miss_reason.append("")
        self.power_cycles.append(power_cycles)

    def append_record(self, record: EventRecord) -> None:
        self.time.append(record.time)
        self.exit_index.append(record.exit_index)
        self.first_exit_index.append(record.first_exit_index)
        self.correct.append(bool(record.correct))
        self.latency_s.append(record.latency_s)
        self.energy_mj.append(record.energy_mj)
        self.confidence_entropy.append(record.confidence_entropy)
        self.continued.append(record.continued)
        self.missed.append(bool(record.missed))
        self.miss_reason.append(record.miss_reason)
        self.power_cycles.append(record.power_cycles)


class SimulationResult:
    """Aggregate outcome of one trace run (struct-of-arrays backed).

    Construct either from a list of :class:`EventRecord` (row-oriented
    compatibility path, used by tests and hand-built results) or from a
    :class:`RecordColumns` via :meth:`from_columns` (the simulator's path).
    """

    __slots__ = (
        "total_env_energy_mj", "total_consumed_mj", "duration_s",
        "profile_name", "metadata",
        "_time", "_exit_index", "_first_exit_index", "_correct",
        "_latency_s", "_energy_mj", "_confidence_entropy", "_continued",
        "_missed", "_miss_reason", "_power_cycles", "_records",
        "_num_missed_cache", "_num_correct_cache",
    )

    def __init__(
        self,
        records,
        total_env_energy_mj: float,
        total_consumed_mj: float,
        duration_s: float,
        profile_name: str = "",
        metadata: dict = None,
    ):
        columns = RecordColumns()
        for record in records:
            columns.append_record(record)
        self._adopt_columns(columns)
        self._records = list(records)
        self.total_env_energy_mj = total_env_energy_mj
        self.total_consumed_mj = total_consumed_mj
        self.duration_s = duration_s
        self.profile_name = profile_name
        self.metadata = metadata if metadata is not None else {}

    @classmethod
    def from_columns(
        cls,
        columns: RecordColumns,
        total_env_energy_mj: float,
        total_consumed_mj: float,
        duration_s: float,
        profile_name: str = "",
        metadata: dict = None,
    ) -> "SimulationResult":
        self = cls.__new__(cls)
        self._adopt_columns(columns)
        self._records = None
        self.total_env_energy_mj = total_env_energy_mj
        self.total_consumed_mj = total_consumed_mj
        self.duration_s = duration_s
        self.profile_name = profile_name
        self.metadata = metadata if metadata is not None else {}
        return self

    def _adopt_columns(self, columns: RecordColumns) -> None:
        self._time = np.asarray(columns.time, dtype=np.float64)
        self._exit_index = np.asarray(columns.exit_index, dtype=np.int64)
        self._first_exit_index = np.asarray(columns.first_exit_index, dtype=np.int64)
        self._correct = np.asarray(columns.correct, dtype=bool)
        self._latency_s = np.asarray(columns.latency_s, dtype=np.float64)
        self._energy_mj = np.asarray(columns.energy_mj, dtype=np.float64)
        self._confidence_entropy = np.asarray(
            columns.confidence_entropy, dtype=np.float64
        )
        self._continued = np.asarray(columns.continued, dtype=np.int64)
        self._missed = np.asarray(columns.missed, dtype=bool)
        self._miss_reason = list(columns.miss_reason)
        self._power_cycles = np.asarray(columns.power_cycles, dtype=np.int64)
        # Count caches: several aggregate properties chain through these
        # reductions (iepmj -> num_correct, accuracies -> both), and the
        # fleet layer reads many such properties per device.  The columns
        # are frozen once adopted, so counting them once is safe.
        self._num_missed_cache = None
        self._num_correct_cache = None

    # ---------------- row access ---------------- #
    @property
    def records(self) -> list:
        """Per-event :class:`EventRecord` rows, materialized lazily.

        The rows are read-only *snapshots* of the numpy columns: mutating
        a returned record does not write back into the columns the
        aggregate properties reduce.  Build a new ``SimulationResult`` from
        edited records instead.
        """
        if self._records is None:
            self._records = [
                EventRecord(
                    time=t, exit_index=k, first_exit_index=fk, correct=c,
                    latency_s=lat, energy_mj=e, confidence_entropy=h,
                    continued=cont, missed=m, miss_reason=reason,
                    power_cycles=pc,
                )
                for t, k, fk, c, lat, e, h, cont, m, reason, pc in zip(
                    self._time.tolist(), self._exit_index.tolist(),
                    self._first_exit_index.tolist(), self._correct.tolist(),
                    self._latency_s.tolist(), self._energy_mj.tolist(),
                    self._confidence_entropy.tolist(), self._continued.tolist(),
                    self._missed.tolist(), self._miss_reason,
                    self._power_cycles.tolist(),
                )
            ]
        return self._records

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return (
            self.total_env_energy_mj == other.total_env_energy_mj
            and self.total_consumed_mj == other.total_consumed_mj
            and self.duration_s == other.duration_s
            and self.profile_name == other.profile_name
            and self.metadata == other.metadata
            and self._miss_reason == other._miss_reason
            and np.array_equal(self._time, other._time)
            and np.array_equal(self._exit_index, other._exit_index)
            and np.array_equal(self._first_exit_index, other._first_exit_index)
            and np.array_equal(self._correct, other._correct)
            and np.array_equal(self._latency_s, other._latency_s)
            and np.array_equal(self._energy_mj, other._energy_mj)
            and np.array_equal(self._confidence_entropy, other._confidence_entropy)
            and np.array_equal(self._continued, other._continued)
            and np.array_equal(self._missed, other._missed)
            and np.array_equal(self._power_cycles, other._power_cycles)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationResult(events={self.num_events}, "
            f"correct={self.num_correct}, iepmj={self.iepmj:.4f}, "
            f"profile={self.profile_name!r})"
        )

    # ---------------- counts ---------------- #
    @property
    def num_events(self) -> int:
        return int(self._time.size)

    @property
    def num_processed(self) -> int:
        return int(self._time.size) - self.num_missed

    @property
    def num_missed(self) -> int:
        if self._num_missed_cache is None:
            self._num_missed_cache = int(np.count_nonzero(self._missed))
        return self._num_missed_cache

    @property
    def num_correct(self) -> int:
        if self._num_correct_cache is None:
            self._num_correct_cache = int(
                np.count_nonzero(self._correct & ~self._missed)
            )
        return self._num_correct_cache

    # ---------------- paper metrics ---------------- #
    @property
    def iepmj(self) -> float:
        """Interesting Events per milliJoule (Eq. 1)."""
        if self.total_env_energy_mj <= 0:
            return 0.0
        return self.num_correct / self.total_env_energy_mj

    @property
    def average_accuracy(self) -> float:
        """Accuracy over ALL events; missed events count as wrong."""
        if not self.num_events:
            return 0.0
        return self.num_correct / self.num_events

    @property
    def processed_accuracy(self) -> float:
        """Accuracy over processed events only (paper Section V-C)."""
        processed = self.num_processed
        if processed == 0:
            return 0.0
        return self.num_correct / processed

    # ---------------- latency ---------------- #
    @property
    def mean_latency_s(self) -> float:
        """Per-event latency: event occurrence to end of inference."""
        lats = self._latency_s[~self._missed]
        return float(np.mean(lats)) if lats.size else 0.0

    @property
    def mean_inference_energy_mj(self) -> float:
        vals = self._energy_mj[~self._missed]
        return float(np.mean(vals)) if vals.size else 0.0

    def latency_percentiles(self, qs=(50, 90, 99)) -> dict:
        """Latency percentiles (s) over processed events, keyed ``"p50"``…

        Summarization hook for fleet aggregation: workers ship percentile
        dicts instead of full event records.
        """
        return percentile_dict(self._latency_s[~self._missed], qs)

    def energy_percentiles(self, qs=(50, 90, 99)) -> dict:
        """Per-inference energy percentiles (mJ) over processed events."""
        return percentile_dict(self._energy_mj[~self._missed], qs)

    # ---------------- exit usage ---------------- #
    def exit_counts(self, num_exits: int) -> list:
        """Processed-event count per final exit (Fig. 7(b))."""
        exits = self._exit_index[~self._missed]
        exits = exits[(exits >= 0) & (exits < num_exits)]
        counts = np.bincount(exits, minlength=num_exits)
        return [int(c) for c in counts[:num_exits]]

    def exit_fractions(self, num_exits: int) -> list:
        """Fraction of ALL events resolved at each exit (the paper's p_i)."""
        if not self.num_events:
            return [0.0] * num_exits
        return [c / self.num_events for c in self.exit_counts(num_exits)]

    def miss_counts(self) -> dict:
        """Missed events grouped by reason."""
        out: dict = {}
        for reason, missed in zip(self._miss_reason, self._missed.tolist()):
            if missed:
                out[reason] = out.get(reason, 0) + 1
        return out

    def summary(self) -> dict:
        """Flat dict of the headline numbers (for benches/EXPERIMENTS.md)."""
        return {
            "profile": self.profile_name,
            "events": self.num_events,
            "processed": self.num_processed,
            "missed": self.num_missed,
            "correct": self.num_correct,
            "iepmj": self.iepmj,
            "average_accuracy": self.average_accuracy,
            "processed_accuracy": self.processed_accuracy,
            "mean_latency_s": self.mean_latency_s,
            "total_env_energy_mj": self.total_env_energy_mj,
            "total_consumed_mj": self.total_consumed_mj,
        }


@dataclass
class DeviceResult:
    """Compact outcome of one device's simulation (last episode).

    What the batched engine's ``finalize`` and the scalar oracle
    (``repro.fleet.runner.run_device``) both return per device.
    """

    index: int
    name: str
    profile: str
    num_events: int
    num_processed: int
    num_missed: int
    num_correct: int
    iepmj: float
    average_accuracy: float
    processed_accuracy: float
    mean_latency_s: float
    mean_inference_energy_mj: float
    latency_percentiles: dict
    energy_percentiles: dict
    harvest_percentiles: dict  # instantaneous harvested power (mW) over the trace
    miss_counts: dict
    exit_counts: list
    total_env_energy_mj: float
    total_consumed_mj: float
    duration_s: float
    episodes: int = 1
    #: Seconds this device took, measured only by the per-device
    #: ``repro.fleet.runner.run_device`` oracle.  The batched engine
    #: simulates devices together and leaves it 0.0, so packed (and
    #: sealed) engine results carry 0.0.  Never part of ``aggregate()``.
    wall_s: float = 0.0

    @classmethod
    def from_simulation(
        cls,
        index,
        name,
        result,
        profile,
        harvest_percentiles=None,
        episodes=1,
        wall_s=0.0,
    ):
        """Summarize a :class:`SimulationResult`."""
        return cls(
            index=int(index),
            name=name,
            profile=profile.name,
            num_events=result.num_events,
            num_processed=result.num_processed,
            num_missed=result.num_missed,
            num_correct=result.num_correct,
            iepmj=result.iepmj,
            average_accuracy=result.average_accuracy,
            processed_accuracy=result.processed_accuracy,
            mean_latency_s=result.mean_latency_s,
            mean_inference_energy_mj=result.mean_inference_energy_mj,
            latency_percentiles=result.latency_percentiles(),
            energy_percentiles=result.energy_percentiles(),
            harvest_percentiles=dict(harvest_percentiles or {}),
            miss_counts=result.miss_counts(),
            exit_counts=result.exit_counts(profile.num_exits),
            total_env_energy_mj=result.total_env_energy_mj,
            total_consumed_mj=result.total_consumed_mj,
            duration_s=result.duration_s,
            episodes=int(episodes),
            wall_s=float(wall_s),
        )

    def to_dict(self, include_timing: bool = False) -> dict:
        """JSON-safe report row; ``include_timing`` adds ``wall_s``."""
        out = {
            "index": self.index,
            "name": self.name,
            "profile": self.profile,
            "events": self.num_events,
            "processed": self.num_processed,
            "missed": self.num_missed,
            "correct": self.num_correct,
            "iepmj": self.iepmj,
            "average_accuracy": self.average_accuracy,
            "processed_accuracy": self.processed_accuracy,
            "mean_latency_s": self.mean_latency_s,
            "mean_inference_energy_mj": self.mean_inference_energy_mj,
            "latency_percentiles": dict(self.latency_percentiles),
            "energy_percentiles": dict(self.energy_percentiles),
            "harvest_percentiles": dict(self.harvest_percentiles),
            "miss_counts": dict(self.miss_counts),
            "exit_counts": list(self.exit_counts),
            "total_env_energy_mj": self.total_env_energy_mj,
            "total_consumed_mj": self.total_consumed_mj,
            "duration_s": self.duration_s,
            "episodes": self.episodes,
        }
        if include_timing:
            out["wall_s"] = self.wall_s
        return out


# ---------------------------------------------------------------------- #
# The packed form
# ---------------------------------------------------------------------- #
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

#: (row key, packed column) of every plain value in a
#: :meth:`DeviceResult.to_dict` row but ``wall_s``.
_ROW_COLUMNS = (
    ("index", "index"), ("name", "names"), ("profile", "profiles"),
    ("events", "num_events"), ("processed", "num_processed"),
    ("missed", "num_missed"), ("correct", "num_correct"),
    ("iepmj", "iepmj"), ("average_accuracy", "average_accuracy"),
    ("processed_accuracy", "processed_accuracy"),
    ("mean_latency_s", "mean_latency_s"),
    ("mean_inference_energy_mj", "mean_inference_energy_mj"),
    ("total_env_energy_mj", "total_env_energy_mj"),
    ("total_consumed_mj", "total_consumed_mj"),
    ("duration_s", "duration_s"), ("episodes", "episodes"),
)


def pack_dict_column(dicts, caster) -> dict:
    """Pack per-device dicts: one ``{"keys", "values"}`` table when every
    dict has the same keys in the same order, else ``{"raw": dicts}``."""
    keys = list(dicts[0]) if dicts else []
    if all(list(d) == keys for d in dicts):
        return {"keys": keys, "values": [[caster(d[k]) for k in keys] for d in dicts]}
    return {"raw": [dict(d) for d in dicts]}


def _unpack_dict_column(packed, i, caster):
    if "raw" in packed:
        return dict(packed["raw"][i])
    return {k: caster(v) for k, v in zip(packed["keys"], packed["values"][i])}


def _join_dict_columns(columns) -> dict:
    """One packed dict column over ``columns`` (canonical, non-empty), in
    order: what :func:`pack_dict_column` gives their concatenated dicts."""
    keys = columns[0].get("keys")
    if keys is not None and all(c.get("keys") == keys for c in columns):
        return {"keys": keys, "values": [row for c in columns for row in c["values"]]}
    raw = []
    for c in columns:
        if "raw" in c:
            raw.extend(c["raw"])
        else:
            raw.extend(dict(zip(c["keys"], row)) for row in c["values"])
    return {"raw": raw}


def _dict_block(column, start: int, stop: int):
    """Rows ``start``..``stop - 1`` of a packed dict column, as a
    report column: the row dicts (``raw``) or one value list per key."""
    if "raw" in column:
        return column["raw"][start:stop]
    values = column["values"][start:stop]
    return {key: [row[j] for row in values] for j, key in enumerate(column["keys"])}


def pack_device_results(results) -> dict:
    """The packed form of device results: plain int/float list columns.

    ``results`` is a sequence of :class:`DeviceResult`.  Shard artifacts
    store this form and pool chunks ship it, both sealed by
    :mod:`repro.store`.  Python's ``json`` writes floats via ``repr``,
    which round-trips every float bit-exactly, so
    ``unpack_device_results(pack_device_results(rs))`` reproduces every
    field bit-for-bit, through JSON or a pickle.  Exit histograms are
    zero-padded to the widest one, with the true widths alongside.
    """
    out = {"n": len(results), "names": [r.name for r in results],
           "profiles": [r.profile for r in results]}
    for attr, caster in _PACK_SCALARS:
        out[attr] = [caster(getattr(r, attr)) for r in results]
    for attr, caster in _PACK_DICTS:
        out[attr] = pack_dict_column([getattr(r, attr) for r in results], caster)
    counts = [r.exit_counts for r in results]
    width = max((len(c) for c in counts), default=0)
    out["exit_counts"] = [[int(x) for x in c] + [0] * (width - len(c)) for c in counts]
    out["exit_widths"] = [len(c) for c in counts]
    return out


def _unpack_row(packed: dict, i: int) -> DeviceResult:
    fields = {"name": packed["names"][i], "profile": packed["profiles"][i]}
    for attr, caster in _PACK_SCALARS:
        fields[attr] = caster(packed[attr][i])
    for attr, caster in _PACK_DICTS:
        fields[attr] = _unpack_dict_column(packed[attr], i, caster)
    width = packed["exit_widths"][i]
    fields["exit_counts"] = [int(c) for c in packed["exit_counts"][i][:width]]
    return DeviceResult(**fields)


def unpack_device_results(packed: dict) -> list:
    """Rebuild :class:`DeviceResult` objects from the packed form."""
    return [_unpack_row(packed, i) for i in range(packed["n"])]


class DeviceColumns:
    """Device results in their packed form, read as a sequence of rows.

    ``packed`` is the plain-list column dict :func:`pack_device_results`
    builds (see there); this is the form
    :meth:`repro.sim.batch.BatchedFleetEngine.finalize` emits, pool
    chunks seal, shard artifacts store and fleet reports are written
    from.  Indexing or iterating builds :class:`DeviceResult` rows on
    demand; :meth:`join` concatenates parts without building any.
    """

    __slots__ = ("packed",)

    def __init__(self, packed: dict):
        self.packed = packed

    @classmethod
    def from_results(cls, results) -> "DeviceColumns":
        """The packed columns of a list of :class:`DeviceResult`."""
        return cls(pack_device_results(results))

    @classmethod
    def join(cls, parts) -> "DeviceColumns":
        """``parts`` (each in device order) concatenated in order: the
        packed form :func:`pack_device_results` gives their rows, built
        column by column.  A dict column keeps its ``keys`` table only
        when every part has the same keys, and exit histograms are
        re-padded to the widest part."""
        packs = [part.packed for part in parts if part.packed["n"]]
        if len(packs) == 1:
            return cls(packs[0])
        if not packs:
            return cls(pack_device_results([]))
        out = {"n": sum(p["n"] for p in packs)}
        for key in ("names", "profiles", *(attr for attr, _ in _PACK_SCALARS)):
            out[key] = [value for p in packs for value in p[key]]
        for attr, _ in _PACK_DICTS:
            out[attr] = _join_dict_columns([p[attr] for p in packs])
        width = max(len(p["exit_counts"][0]) for p in packs)
        out["exit_counts"] = [
            row if len(row) == width else row + [0] * (width - len(row))
            for p in packs for row in p["exit_counts"]
        ]
        out["exit_widths"] = [w for p in packs for w in p["exit_widths"]]
        return cls(out)

    def __len__(self) -> int:
        return self.packed["n"]

    def __getitem__(self, i: int) -> DeviceResult:
        n = len(self)
        if not -n <= i < n:
            raise IndexError("device index out of range")
        return _unpack_row(self.packed, i % n)

    def __iter__(self):
        return (_unpack_row(self.packed, i) for i in range(len(self)))

    def report_columns(self, include_timing: bool, start: int, stop: int) -> dict:
        """Rows ``start``..``stop - 1`` of :meth:`DeviceResult.to_dict`,
        as :class:`repro.store.ColumnRows` reads them: one list of
        values (or one nested mapping) per row key."""
        p = self.packed
        out = {key: p[attr][start:stop] for key, attr in _ROW_COLUMNS}
        if include_timing:
            out["wall_s"] = p["wall_s"][start:stop]
        for attr, _ in _PACK_DICTS:
            out[attr] = _dict_block(p[attr], start, stop)
        out["exit_counts"] = [
            row[:width] for row, width in
            zip(p["exit_counts"][start:stop], p["exit_widths"][start:stop])
        ]
        return out
