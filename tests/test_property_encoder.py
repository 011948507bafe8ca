"""The canonical JSON encoder of :mod:`repro.store`, held to ``json``.

``repro.store.write_json`` must write exactly what ``json.dump(value,
fh, indent=2, sort_keys=True)`` writes, for every JSON value: nested
and empty containers, strings that need escapes or are not ASCII,
non-finite floats, negative zero, subnormals, ints past 2**53, bools,
None and float subclasses such as ``numpy.float64``.  A
:class:`~repro.store.ColumnRows` array must encode as its list of row
dicts would, across row blocks.  ``FleetResult.to_json``, which writes
the device rows from packed columns, must write the bytes of
``json.dump(result.to_dict(t), ...)`` for any device results: with and
without timing, with quarantined devices, and with no devices at all;
and packed parts joined column by column must be the packed form of
their concatenated rows, folding to the same aggregate.
"""

from __future__ import annotations

import io
import json
from unittest import mock

import numpy as np
from deep import examples
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store
from repro.fleet.results import DeviceFailure, FleetResult, ShardAggregator
from repro.sim.results import DeviceColumns, DeviceResult, pack_device_results
from repro.store import ColumnRows, write_json

FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, float("nan")]
)
INTS = st.integers() | st.integers(min_value=2**53 - 2, max_value=2**80)
TEXT = st.text() | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x7f", "é", "日本", "%s%%"]
)
SCALARS = (
    st.none()
    | st.booleans()
    | INTS
    | FLOATS
    | FLOATS.map(np.float64)
    | TEXT
    | st.lists(FLOATS, max_size=6)
    | st.lists(INTS, max_size=6)
    | st.lists(TEXT, max_size=6)
)


def containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4)


JSON = st.recursive(SCALARS, containers, max_leaves=30)
KEYS = st.integers() | FLOATS | st.booleans() | st.none()


def dumped(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def encoded(value) -> str:
    fh = io.StringIO()
    write_json(fh, value)
    return fh.getvalue()


@settings(max_examples=examples(100), deadline=None)
@given(JSON)
def test_encoder_matches_json(value):
    assert encoded(value) == dumped(value)


@settings(max_examples=examples(30), deadline=None)
@given(st.dictionaries(KEYS, JSON, max_size=1))
def test_non_string_keys_match_json(value):
    assert encoded(value) == dumped(value)


@st.composite
def column_rows(draw):
    """``(n, columns, rows)``: rows as columns (leaf lists and nested
    mappings), and the same rows as dicts."""
    n = draw(st.integers(0, 9))
    keys = draw(st.lists(TEXT, unique=True, max_size=4))
    columns, rows = {}, [{} for _ in range(n)]
    for key in keys:
        if draw(st.booleans()):
            sub_keys = draw(st.lists(TEXT, unique=True, max_size=3))
            columns[key] = {}
            for row in rows:
                row[key] = {}
            for sub in sub_keys:
                values = draw(st.lists(JSON, min_size=n, max_size=n))
                columns[key][sub] = values
                for row, value in zip(rows, values):
                    row[key][sub] = value
        else:
            values = draw(st.lists(JSON, min_size=n, max_size=n))
            columns[key] = values
            for row, value in zip(rows, values):
                row[key] = value
    return n, columns, rows


@settings(max_examples=examples(40), deadline=None)
@given(column_rows(), st.integers(1, 4), JSON)
def test_column_rows_match_their_row_dicts(case, block, other):
    n, columns, rows = case
    calls = []

    def block_columns(start, stop):
        calls.append((start, stop))
        return {
            key: (
                {sub: values[start:stop] for sub, values in column.items()}
                if isinstance(column, dict)
                else column[start:stop]
            )
            for key, column in columns.items()
        }

    value = {"rows": ColumnRows(n, block_columns), "other": other}
    with mock.patch.object(repro.store, "ROW_BLOCK", block):
        text = encoded(value)
    assert text == dumped({"rows": rows, "other": other})
    assert calls == [(a, min(a + block, n)) for a in range(0, n, block)]


REPORT_FLOATS = st.floats(-1e12, 1e12)
PERCENTILES = st.sampled_from([("p50", "p90", "p99"), ("p10", "p50", "p90"), ()])
REASONS = st.lists(st.sampled_from(["busy", "energy"]), unique=True)


@st.composite
def device_results(draw, index):
    counts = draw(st.lists(st.integers(0, 50), max_size=4))

    def table(keys, values):
        return {key: draw(values) for key in keys}

    return DeviceResult(
        index=index,
        name=draw(TEXT),
        profile=draw(st.sampled_from(["paper-multi-exit", "tiny"])),
        num_events=draw(st.integers(0, 10**6)),
        num_processed=draw(st.integers(0, 10**6)),
        num_missed=draw(st.integers(0, 10**6)),
        num_correct=draw(st.integers(0, 10**6)),
        iepmj=draw(REPORT_FLOATS),
        average_accuracy=draw(REPORT_FLOATS),
        processed_accuracy=draw(REPORT_FLOATS),
        mean_latency_s=draw(REPORT_FLOATS),
        mean_inference_energy_mj=draw(REPORT_FLOATS),
        latency_percentiles=table(("p50", "p90", "p99"), REPORT_FLOATS),
        energy_percentiles=table(draw(PERCENTILES), REPORT_FLOATS),
        harvest_percentiles=table(draw(PERCENTILES), REPORT_FLOATS),
        miss_counts=table(draw(REASONS), st.integers(1, 10**6)),
        exit_counts=counts,
        total_env_energy_mj=draw(REPORT_FLOATS),
        total_consumed_mj=draw(REPORT_FLOATS),
        duration_s=draw(REPORT_FLOATS),
        episodes=draw(st.integers(1, 8)),
        wall_s=draw(REPORT_FLOATS),
    )


@st.composite
def fleet_results(draw):
    n = draw(st.integers(0, 12))
    devices = [draw(device_results(i)) for i in range(n)]
    failures = [
        DeviceFailure(index=n + i, name=f"lost-{i}", error="boom", attempts=2)
        for i in range(draw(st.integers(0, 2)))
    ]
    return FleetResult(
        fleet_name=draw(TEXT),
        seed=draw(st.integers(0, 2**40)),
        devices=devices,
        workers=draw(st.integers(1, 4)),
        wall_s=draw(REPORT_FLOATS),
        failures=failures,
    )


@settings(max_examples=examples(30), deadline=None)
@given(fleet_results(), st.booleans())
def test_report_file_matches_json_dump(tmp_path_factory, result, timing):
    path = tmp_path_factory.mktemp("report") / "report.json"
    result.to_json(str(path), include_timing=timing)
    expected = dumped(result.to_dict(timing))
    assert path.read_text() == expected


@st.composite
def packed_parts(draw):
    """Device results cut into consecutive parts, some of them empty."""
    parts, index = [], 0
    for size in draw(st.lists(st.integers(0, 4), max_size=4)):
        parts.append([draw(device_results(index + i)) for i in range(size)])
        index += size
    return parts


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


@settings(max_examples=examples(30), deadline=None)
@given(packed_parts(), st.booleans(), st.integers(0, 2))
def test_joined_parts_pack_report_and_fold_as_one(
    tmp_path_factory, parts, timing, lost
):
    joined = DeviceColumns.join(DeviceColumns.from_results(p) for p in parts)
    rows = [device for part in parts for device in part]
    assert canonical(joined.packed) == canonical(pack_device_results(rows))
    failures = [
        DeviceFailure(index=len(rows) + i, name=f"lost-{i}", error="x", attempts=1)
        for i in range(lost)
    ]
    result = FleetResult("joined", 7, devices=joined, failures=failures)
    path = tmp_path_factory.mktemp("joined") / "report.json"
    result.to_json(str(path), include_timing=timing)
    assert path.read_text() == dumped(result.to_dict(timing))
    folded = ShardAggregator("joined", 7)
    for part in parts:
        folded.add_packed(pack_device_results(part))
    expected = result.aggregate()
    assert [f["name"] for f in expected.pop("failures", [])] == [
        f.name for f in failures
    ]
    assert canonical(folded.aggregate()) == canonical(expected)
