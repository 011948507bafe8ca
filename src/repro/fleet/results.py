"""Fleet-level result aggregation.

Workers return compact :class:`DeviceResult` summaries (counts, metrics,
percentiles) instead of full per-event records — a 100-device fleet ships
kilobytes across the process boundary, not megabytes.  The
:class:`FleetResult` aggregator then reports fleet-level IEpmJ,
miss-reason breakdowns, and cross-device percentile spreads.

Everything in :meth:`FleetResult.aggregate` is computed in device-index
order from per-device summaries, so the aggregate is bit-identical
regardless of how many workers produced the parts — the property the CLI
acceptance check (``--workers 4`` vs ``--workers 1``) relies on.
Wall-clock timing lives outside the deterministic payload.
"""

from __future__ import annotations

import hashlib

from dataclasses import dataclass, field

import numpy as np

from repro.errors import IntegrityError
from repro.sim.results import percentile_dict


@dataclass
class DeviceResult:
    """Compact outcome of one device's simulation (last episode)."""

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
    #: :func:`~repro.fleet.runner.run_device` oracle.  The batched engine
    #: simulates devices together and leaves it 0.0.  Never part of
    #: ``aggregate()`` or payload digests.
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
        """Summarize a :class:`~repro.sim.results.SimulationResult`."""
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


#: Scalar DeviceResult fields shipped as one numpy column each in the
#: packed wire form, in (attribute, dtype) order.
_PACK_SCALARS = (
    ("index", np.int64), ("num_events", np.int64), ("num_processed", np.int64),
    ("num_missed", np.int64), ("num_correct", np.int64),
    ("iepmj", np.float64), ("average_accuracy", np.float64),
    ("processed_accuracy", np.float64), ("mean_latency_s", np.float64),
    ("mean_inference_energy_mj", np.float64),
    ("total_env_energy_mj", np.float64), ("total_consumed_mj", np.float64),
    ("duration_s", np.float64), ("episodes", np.int64), ("wall_s", np.float64),
)

#: Dict-valued DeviceResult fields packed as key-table + value matrix.
_PACK_DICTS = (
    ("latency_percentiles", np.float64),
    ("energy_percentiles", np.float64),
    ("harvest_percentiles", np.float64),
    ("miss_counts", np.int64),
)


def _pack_dict_column(dicts, dtype):
    """Pack per-device dicts; one (keys, matrix) table when keys align."""
    keys = list(dicts[0])
    if all(list(d) == keys for d in dicts):
        values = np.array([[d[k] for k in keys] for d in dicts], dtype=dtype)
        return {"keys": keys, "values": values}
    return {"raw": [dict(d) for d in dicts]}


def _unpack_dict_column(packed, i, caster):
    if "raw" in packed:
        return dict(packed["raw"][i])
    row = packed["values"][i]
    return {k: caster(v) for k, v in zip(packed["keys"], row)}


def pack_device_results(results) -> dict:
    """Struct-of-arrays wire form of a list of :class:`DeviceResult`.

    Worker processes return whole chunks of devices at once; pickling one
    numpy column per field costs a fraction of pickling per-device
    dataclasses full of Python dicts and floats.  Exact round-trip:
    ``unpack_device_results(pack_device_results(rs))`` reproduces every
    field bit-for-bit (plain Python types restored).
    """
    out = {"n": len(results), "names": [r.name for r in results],
           "profiles": [r.profile for r in results]}
    for attr, dtype in _PACK_SCALARS:
        out[attr] = np.array([getattr(r, attr) for r in results], dtype=dtype)
    for attr, dtype in _PACK_DICTS:
        out[attr] = _pack_dict_column([getattr(r, attr) for r in results], dtype)
    counts = [r.exit_counts for r in results]
    width = max((len(c) for c in counts), default=0)
    exit_matrix = np.zeros((len(results), width), dtype=np.int64)
    for i, c in enumerate(counts):
        exit_matrix[i, :len(c)] = c
    out["exit_counts"] = exit_matrix
    out["exit_widths"] = np.array([len(c) for c in counts], dtype=np.int64)
    return out


def unpack_device_results(packed: dict) -> list:
    """Rebuild :class:`DeviceResult` objects from the packed wire form."""
    results = []
    for i in range(packed["n"]):
        fields = {"name": packed["names"][i], "profile": packed["profiles"][i]}
        for attr, dtype in _PACK_SCALARS:
            value = packed[attr][i]
            fields[attr] = int(value) if dtype is np.int64 else float(value)
        for attr, dtype in _PACK_DICTS:
            caster = int if dtype is np.int64 else float
            fields[attr] = _unpack_dict_column(packed[attr], i, caster)
        width = int(packed["exit_widths"][i])
        fields["exit_counts"] = [int(c) for c in packed["exit_counts"][i, :width]]
        results.append(DeviceResult(**fields))
    return results


def packed_to_jsonable(packed: dict) -> dict:
    """JSON-safe form of a packed wire payload (numpy columns → lists).

    This is what the shard ledger persists: Python's ``json`` writes
    floats via ``repr``, which round-trips every ``float64`` bit-exactly,
    so ``jsonable_to_packed(packed_to_jsonable(p))`` reproduces each
    column with the same dtype and the same bits — the property that lets
    a resumed run aggregate shard artifacts byte-identically to a fresh
    execution.
    """
    out: dict = {"n": int(packed["n"]), "names": list(packed["names"]),
                 "profiles": list(packed["profiles"])}
    for attr, dtype in _PACK_SCALARS:
        out[attr] = np.asarray(packed[attr], dtype=dtype).tolist()
    for attr, _ in _PACK_DICTS:
        column = packed[attr]
        if "raw" in column:
            out[attr] = {"raw": [dict(d) for d in column["raw"]]}
        else:
            out[attr] = {"keys": list(column["keys"]),
                         "values": column["values"].tolist()}
    out["exit_counts"] = packed["exit_counts"].tolist()
    out["exit_widths"] = packed["exit_widths"].tolist()
    return out


def jsonable_to_packed(data: dict) -> dict:
    """Rebuild the numpy wire form from :func:`packed_to_jsonable` output."""
    n = int(data["n"])
    out: dict = {"n": n, "names": list(data["names"]),
                 "profiles": list(data["profiles"])}
    for attr, dtype in _PACK_SCALARS:
        out[attr] = np.asarray(data[attr], dtype=dtype)
    for attr, dtype in _PACK_DICTS:
        column = data[attr]
        if "raw" in column:
            out[attr] = {"raw": [dict(d) for d in column["raw"]]}
        else:
            keys = list(column["keys"])
            values = np.asarray(column["values"], dtype=dtype).reshape(n, len(keys))
            out[attr] = {"keys": keys, "values": values}
    widths = np.asarray(data["exit_widths"], dtype=np.int64)
    width = int(widths.max()) if n else 0
    out["exit_counts"] = np.asarray(
        data["exit_counts"], dtype=np.int64
    ).reshape(n, width)
    out["exit_widths"] = widths
    return out


#: Payload keys excluded from the content digest: ``digest`` is the seal
#: itself, ``obs`` and ``wall_s`` carry wall-clock content that differs
#: between bit-identical executions of the same chunk.
_DIGEST_SKIP = ("digest", "obs", "wall_s")


def _digest_value(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode())
        h.update(str(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(str(key).encode())
            _digest_value(h, value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            _digest_value(h, item)
    else:
        h.update(repr(value).encode())


def payload_digest(packed: dict) -> str:
    """Content digest of a packed chunk payload (deterministic fields only).

    Wall-clock fields are excluded, so two bit-identical executions of
    the same chunk — the guarantee per-device ``SeedSequence`` streams
    make — produce the same digest even though their timings differ.
    That is what lets the dispatcher detect a corrupted wire payload
    *and* assert that a retried or straggling chunk reproduced the
    accepted one exactly.
    """
    h = hashlib.sha256()
    for key in sorted(packed):
        if key in _DIGEST_SKIP:
            continue
        h.update(key.encode())
        _digest_value(h, packed[key])
    return h.hexdigest()


def seal_payload(packed: dict) -> dict:
    """Stamp ``packed`` with its content digest (in place); returns it."""
    packed["digest"] = payload_digest(packed)
    return packed


def verify_payload(packed: dict) -> dict:
    """Check a sealed payload's digest; raises :class:`IntegrityError`."""
    sealed = packed.get("digest")
    if sealed is None:
        raise IntegrityError("chunk payload arrived without a content digest")
    actual = payload_digest(packed)
    if actual != sealed:
        raise IntegrityError(
            f"chunk payload digest mismatch (sealed {sealed[:12]}…, got "
            f"{actual[:12]}…): the wire payload was corrupted in transit"
        )
    return packed


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
        return {
            "index": self.index,
            "name": self.name,
            "error": self.error,
            "attempts": self.attempts,
            "stage": self.stage,
        }


@dataclass
class FleetResult:
    """Aggregate outcome of one fleet run."""

    fleet_name: str
    seed: int
    devices: list = field(default_factory=list)  # DeviceResult, index order
    workers: int = 1
    wall_s: float = 0.0
    failures: list = field(default_factory=list)  # DeviceFailure, index order

    def __post_init__(self):
        self.devices = sorted(self.devices, key=lambda d: d.index)
        self.failures = sorted(self.failures, key=lambda f: f.index)
        self._column_cache: dict = {}

    def _column(self, attr: str, dtype) -> np.ndarray:
        """Per-device field as a numpy column (cached).

        Fleet aggregation reduces these arrays instead of re-iterating the
        DeviceResult dataclasses per metric.  Columns are built in device-
        index order from the sorted list, so every reduction is the same
        arithmetic regardless of worker count — the bit-identity the
        serial-vs-parallel acceptance check relies on.
        """
        col = self._column_cache.get(attr)
        if col is None:
            col = np.array([getattr(d, attr) for d in self.devices], dtype=dtype)
            self._column_cache[attr] = col
        return col

    # ---------------- counts ---------------- #
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_failures(self) -> int:
        return len(self.failures)

    @property
    def num_events(self) -> int:
        return int(self._column("num_events", np.int64).sum())

    @property
    def num_processed(self) -> int:
        return int(self._column("num_processed", np.int64).sum())

    @property
    def num_missed(self) -> int:
        return int(self._column("num_missed", np.int64).sum())

    @property
    def num_correct(self) -> int:
        return int(self._column("num_correct", np.int64).sum())

    # ---------------- fleet metrics ---------------- #
    @property
    def fleet_iepmj(self) -> float:
        """Fleet-level Eq. 1: all correct events over all offered energy."""
        total_energy = float(self._column("total_env_energy_mj", np.float64).sum())
        if total_energy <= 0:
            return 0.0
        return self.num_correct / total_energy

    @property
    def average_accuracy(self) -> float:
        if self.num_events == 0:
            return 0.0
        return self.num_correct / self.num_events

    def device_iepmj_percentiles(self, qs=(10, 50, 90)) -> dict:
        """Spread of per-device IEpmJ — how unevenly the fleet performs."""
        return percentile_dict(self._column("iepmj", np.float64), qs)

    def device_latency_percentiles(self, qs=(10, 50, 90)) -> dict:
        """Spread of per-device mean latency across the fleet."""
        return percentile_dict(self._column("mean_latency_s", np.float64), qs)

    def miss_counts(self) -> dict:
        """Missed events across the fleet, grouped by reason."""
        out: dict = {}
        for d in self.devices:
            for reason, count in d.miss_counts.items():
                out[reason] = out.get(reason, 0) + count
        return out

    def exit_counts(self) -> list:
        """Processed events per final exit, summed across devices.

        Devices may deploy profiles with different exit counts (mixed
        fleets); shorter histograms are zero-padded to the deepest one.
        Campaign reports reduce this into the exit-depth comparisons the
        paper draws in Fig. 7(b).
        """
        width = max((len(d.exit_counts) for d in self.devices), default=0)
        totals = [0] * width
        for d in self.devices:
            for i, count in enumerate(d.exit_counts):
                totals[i] += int(count)
        return totals

    @property
    def mean_exit_depth(self) -> float:
        """Average final-exit index over processed events (0 = earliest).

        A controller that learns to spend energy on deeper exits moves
        this up; one that rations moves it down — the scalar the campaign
        layer uses for cross-controller exit-depth deltas.
        """
        counts = self.exit_counts()
        total = sum(counts)
        if total == 0:
            return 0.0
        return sum(i * c for i, c in enumerate(counts)) / total

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
        out = {
            "fleet": self.fleet_name,
            "seed": self.seed,
            "devices": self.num_devices,
            "events": self.num_events,
            "processed": self.num_processed,
            "missed": self.num_missed,
            "correct": self.num_correct,
            "fleet_iepmj": self.fleet_iepmj,
            "average_accuracy": self.average_accuracy,
            "device_iepmj_percentiles": self.device_iepmj_percentiles(),
            "device_latency_percentiles": self.device_latency_percentiles(),
            "miss_counts": self.miss_counts(),
            "exit_counts": self.exit_counts(),
            "mean_exit_depth": self.mean_exit_depth,
            "total_env_energy_mj": float(
                self._column("total_env_energy_mj", np.float64).sum()
            ),
            "total_consumed_mj": float(
                self._column("total_consumed_mj", np.float64).sum()
            ),
        }
        if self.failures:
            out["failures"] = [f.to_dict() for f in self.failures]
        return out

    def to_dict(self, include_timing: bool = False) -> dict:
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
        import json

        with open(path, "w") as fh:
            json.dump(self.to_dict(include_timing), fh, indent=2, sort_keys=True)


class ShardAggregator:
    """Deterministic shard-order reduction to the fleet aggregate.

    Feed the packed payload of every shard *in plan order* (global device
    indices ascending) and :meth:`aggregate` produces a dict byte-identical
    (as canonical JSON) to ``FleetResult.aggregate()`` over the same
    devices.  The subtlety this class exists for: numpy's ``sum`` uses
    pairwise summation, so adding up per-shard *partial sums* would not be
    bit-identical to reducing the full column — shard columns are therefore
    **concatenated** before any float reduction, while the miss/exit folds
    (exact integer arithmetic) accumulate incrementally so per-device dicts
    can be released with their shard.
    """

    _INT_COLS = ("num_events", "num_processed", "num_missed", "num_correct")
    _FLOAT_COLS = (
        "iepmj", "mean_latency_s", "total_env_energy_mj", "total_consumed_mj",
    )

    def __init__(self, fleet_name: str, seed: int):
        self.fleet_name = fleet_name
        self.seed = int(seed)
        self.num_devices = 0
        self._cols: dict = {
            attr: [] for attr in self._INT_COLS + self._FLOAT_COLS
        }
        self._miss_counts: dict = {}
        self._exit_totals: list = []

    def add_packed(self, packed: dict) -> None:
        """Fold one shard's packed payload (device-index order within)."""
        n = int(packed["n"])
        self.num_devices += n
        for attr in self._INT_COLS:
            self._cols[attr].append(np.asarray(packed[attr], dtype=np.int64))
        for attr in self._FLOAT_COLS:
            self._cols[attr].append(np.asarray(packed[attr], dtype=np.float64))
        miss_column = packed["miss_counts"]
        for i in range(n):
            for reason, count in _unpack_dict_column(miss_column, i, int).items():
                self._miss_counts[reason] = self._miss_counts.get(reason, 0) + count
        widths, matrix = packed["exit_widths"], packed["exit_counts"]
        for i in range(n):
            width = int(widths[i])
            if width > len(self._exit_totals):
                self._exit_totals.extend([0] * (width - len(self._exit_totals)))
            for j in range(width):
                self._exit_totals[j] += int(matrix[i][j])

    def _column(self, attr: str) -> np.ndarray:
        parts = self._cols[attr]
        dtype = np.int64 if attr in self._INT_COLS else np.float64
        if not parts:
            return np.array([], dtype=dtype)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def aggregate(self) -> dict:
        """The merged fleet summary — same arithmetic, same key set, same
        values as ``FleetResult.aggregate()`` over the concatenated
        devices (the sharded-identity contract)."""
        events = int(self._column("num_events").sum())
        processed = int(self._column("num_processed").sum())
        missed = int(self._column("num_missed").sum())
        correct = int(self._column("num_correct").sum())
        total_energy = float(self._column("total_env_energy_mj").sum())
        counts = [int(c) for c in self._exit_totals]
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
            "miss_counts": dict(self._miss_counts),
            "exit_counts": counts,
            "mean_exit_depth": (
                0.0 if total_exits == 0
                else sum(i * c for i, c in enumerate(counts)) / total_exits
            ),
            "total_env_energy_mj": total_energy,
            "total_consumed_mj": float(self._column("total_consumed_mj").sum()),
        }
