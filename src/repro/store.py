"""Sealed JSON artifacts and the canonical JSON text they are written in.

Campaign cells (:mod:`repro.campaign.store`), shard-ledger artifacts
(:mod:`repro.fleet.shards`) and gateway checkpoints
(:mod:`repro.gateway.checkpoint`) are canonical JSON objects sealed with
a sha256 content digest under an ``"integrity"`` key.  This module owns
that format and how its failures are handled — the in-memory
:func:`seal`/:func:`unseal` pair, the sealed atomic write
(:func:`write_sealed`), the publish-once write (:func:`publish_once`),
the verified read (:func:`read_sealed`) and the quarantine move
(:func:`quarantine`) — so callers only map their keys to paths and name
their chaos sites.  Pool chunks (:mod:`repro.fleet.runner`) cross the
process boundary as :func:`seal` bodies and are checked with
:func:`unseal`.

It also owns the canonical JSON *text* every artifact and report file is
written in: :func:`write_json` writes exactly what ``json.dump(value,
fh, indent=2, sort_keys=True)`` writes.  ``indent`` sends the json
module to its pure-Python encoder, a generator per container that
yields a token at a time; this encoder builds each container's text
with one ``join``, encodes a list of plain ints, floats or strings with
one ``map``, and a list of such lists (a packed column's rows) with one
``map`` over all their items.  A :class:`ColumnRows` value — a JSON
array of objects held as columns, the shape of a fleet report's device
rows — is encoded a block of rows at a time, through one ``%`` template
per block, without building the row dicts.  It sits below every package
that writes artifacts and loads only :mod:`repro.errors` and the fault
injector.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, Optional

from repro.errors import ConfigError, CorruptArtifactError, IntegrityError
from repro.faults.injector import get_fault_injector

#: Attempts per artifact read — tolerates up to three transient OSErrors,
#: one more than the dispatch retry default, so a fault plan that is
#: recoverable for the fleet layer is recoverable here too.
LOAD_ATTEMPTS = 4

#: Where :func:`quarantine` moves damaged artifacts, beside the directory
#: that holds them (``cells/x.json`` → ``quarantine/x.json``).
QUARANTINE_DIR = "quarantine"

#: Rows of a :class:`ColumnRows` value encoded (and written) at a time.
ROW_BLOCK = 256

_INDENT = "  "
_INF = float("inf")


class ColumnRows:
    """A JSON array of objects, held as columns until it is encoded.

    ``columns(start, stop)`` returns rows ``start``..``stop - 1`` as a
    mapping from each object key to either a list of that key's values,
    one per row, or a nested mapping of the same kind (an object whose
    keys every row shares).  :func:`write_json` encodes the array a
    :data:`ROW_BLOCK` of rows at a time, as the list of row dicts would
    encode, so the rows never exist as dicts and the text of the whole
    array never exists as one string.
    """

    __slots__ = ("n", "columns")

    def __init__(self, n: int, columns: Callable[[int, int], dict]):
        self.n = int(n)
        self.columns = columns

    def _chunks(self, level: int):
        if not self.n:
            yield "[]"
            return
        inner = "\n" + _INDENT * (level + 1)
        yield "[" + inner
        for start in range(0, self.n, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, self.n)
            rows = _rows_text(self.columns(start, stop), stop - start, level + 1)
            yield ("," + inner).join(rows)
            if stop < self.n:
                yield "," + inner
        yield "\n" + _INDENT * level + "]"


def _float_text(value) -> str:
    """A float as ``json`` writes it (``repr``, or its non-finite names)."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    """A dict key as ``json`` writes it: strings as they are, and
    floats, bools, None and ints by their JSON spelling, in quotes."""
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = _float_text(key)
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
        )
    return _encode_str(key)


def _items_text(values, level: int) -> list:
    """The text of each of ``values``, each placed at ``level``.

    A list of plain floats, ints or strings (exact types: bools and
    numpy scalars take the general path) encodes in one ``map``; a list
    of lists (a packed column's rows) encodes all their items at once.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        if all(map(math.isfinite, values)):
            return list(map(float.__repr__, values))
        return list(map(_float_text, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(_encode_str, values))
    if kinds == {list}:
        return _lists_text(values, level)
    return [_text(value, level) for value in values]


def _lists_text(lists: list, level: int) -> list:
    """The text of each of ``lists``, each placed at ``level``: their
    items are encoded in one pass, then cut back into lists."""
    texts = _items_text([item for items in lists for item in items], level + 1)
    inner = "\n" + _INDENT * (level + 1)
    sep = "," + inner
    close = "\n" + _INDENT * level + "]"
    out = []
    start = 0
    for items in lists:
        stop = start + len(items)
        out.append("[" + inner + sep.join(texts[start:stop]) + close if items else "[]")
        start = stop
    return out


def _text(value, level: int) -> str:
    """``value``'s canonical JSON text, its first line at ``level``."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = "\n" + _INDENT * (level + 1)
        items = _items_text(value, level + 1)
        return "[" + inner + ("," + inner).join(items) + "\n" + _INDENT * level + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = "\n" + _INDENT * (level + 1)
        items = [
            _key_text(key) + ": " + _text(item, level + 1)
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + "\n" + _INDENT * level + "}"
    raise TypeError(
        f"Object of type {value.__class__.__name__} is not JSON serializable"
    )


def _row_template(columns: dict, level: int) -> tuple:
    """``(template, leaves)`` for rows of ``columns`` placed at ``level``:
    the row text with a ``%s`` for every leaf column, and the leaf
    columns with the level their values sit at, in template order."""
    if not columns:
        return "{}", []
    inner = "\n" + _INDENT * (level + 1)
    parts, leaves = [], []
    for key, column in sorted(columns.items()):
        head = _key_text(key).replace("%", "%%") + ": "
        if isinstance(column, dict):
            sub, sub_leaves = _row_template(column, level + 1)
            parts.append(head + sub)
            leaves.extend(sub_leaves)
        else:
            parts.append(head + "%s")
            leaves.append((column, level + 1))
    text = "{" + inner + ("," + inner).join(parts) + "\n" + _INDENT * level + "}"
    return text, leaves


def _rows_text(columns: dict, n: int, level: int) -> list:
    """The text of each of ``n`` rows given as ``columns``, at ``level``."""
    template, leaves = _row_template(columns, level)
    if not leaves:
        return [template % ()] * n
    texts = [_items_text(column, column_level) for column, column_level in leaves]
    return [template % row for row in zip(*texts)]


def _chunks(value, level: int):
    """Canonical JSON text of ``value`` in pieces; :class:`ColumnRows`
    values (at any depth of dicts) are encoded a block at a time."""
    if isinstance(value, ColumnRows):
        yield from value._chunks(level)
    elif isinstance(value, dict) and value:
        inner = "\n" + _INDENT * (level + 1)
        sep = "{" + inner
        for key, item in sorted(value.items()):
            yield sep + _key_text(key) + ": "
            yield from _chunks(item, level + 1)
            sep = "," + inner
        yield "\n" + _INDENT * level + "}"
    else:
        yield _text(value, level)


def write_json(fh, value) -> None:
    """Write ``value`` to the text file ``fh`` as canonical JSON: the
    bytes ``json.dump(value, fh, indent=2, sort_keys=True)`` writes."""
    for chunk in _chunks(value, 0):
        fh.write(chunk)


def _dump_temp(directory: str, payload: dict) -> str:
    """Write ``payload`` as canonical JSON to a new temp file; its path."""
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            write_json(fh, payload)
            fh.write("\n")
    except BaseException:
        # Includes KeyboardInterrupt: never leave a half-written temp file
        # that a later directory scan could mistake for an artifact.
        os.unlink(tmp)
        raise
    return tmp


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as canonical JSON via rename (all-or-nothing)."""
    tmp = _dump_temp(os.path.dirname(os.path.abspath(path)), payload)
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cell_checksum(payload: dict) -> str:
    """Canonical content digest of an artifact payload (sans integrity seal)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def seal(payload: dict) -> tuple:
    """``(body, digest)``: a copy of ``payload`` carrying its seal."""
    body = dict(payload)
    body.pop("integrity", None)
    digest = cell_checksum(body)
    body["integrity"] = {"algo": "sha256", "digest": digest}
    return body, digest


def unseal(body: dict) -> tuple:
    """``(payload, digest)``: a copy of ``body`` verified against its seal,
    with the seal stripped.

    Raises :class:`~repro.errors.IntegrityError` for a missing or
    malformed seal or a checksum mismatch.
    """
    payload = dict(body)
    stamp = payload.pop("integrity", None)
    sealed = stamp.get("digest") if isinstance(stamp, dict) else None
    if not isinstance(sealed, str) or stamp.get("algo") != "sha256":
        raise IntegrityError(f"missing or malformed sha256 seal {str(stamp)[:40]!r}")
    digest = cell_checksum(payload)
    if sealed != digest:
        raise IntegrityError(
            f"checksum mismatch (stored {sealed[:12]}…, computed {digest[:12]}…)"
        )
    return payload, digest


def _apply_save_faults(path: str, site: Optional[str]) -> None:
    """Damage a just-written artifact per the directives injected at
    ``site`` — the chaos stand-in for bit rot, torn disks, and truncated
    writes that :func:`read_sealed` must catch."""
    injector = get_fault_injector()
    if site is None or not injector.enabled:
        return
    for fault in injector.poll(site):
        size = os.path.getsize(path)
        if size == 0:
            continue  # an emptied artifact is already damaged
        if fault.op == "empty":
            with open(path, "w"):
                pass
        elif fault.op == "truncate":
            keep = int(size * float(fault.params.get("keep_frac", 0.5)))
            os.truncate(path, keep)
        elif fault.op == "bitflip":
            frac = float(fault.params.get("offset_frac", 0.5))
            offset = min(int(size * frac), size - 1)
            with open(path, "r+b") as fh:
                fh.seek(max(offset, 0))
                byte = fh.read(1)
                fh.seek(max(offset, 0))
                fh.write(bytes([byte[0] ^ 0xFF]))


def write_sealed(path: str, payload: dict, chaos_site: Optional[str] = None) -> str:
    """Seal ``payload`` and write it atomically; returns its digest.

    ``chaos_site`` names the fault site whose save directives damage the
    file after the write.
    """
    body, digest = seal(payload)
    atomic_write_json(path, body)
    _apply_save_faults(path, chaos_site)
    return digest


def publish_once(path: str, payload: dict, chaos_site: Optional[str] = None) -> str:
    """Seal and publish ``payload`` unless ``path`` already exists; returns
    ``"published"`` or ``"verified"``.

    Exactly one writer wins the atomic ``os.link``.  A loser compares
    digests with the incumbent: equal means a re-execution reproduced it
    bit-for-bit; different raises :class:`~repro.errors.IntegrityError`,
    since only deterministic work is published this way.  A corrupt
    incumbent is quarantined and the publish retried once (our copy is
    known-good).  Only the winner polls ``chaos_site``.
    """
    body, digest = seal(payload)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    for _ in range(2):  # second pass only after quarantining a corrupt winner
        tmp = _dump_temp(directory, body)
        try:
            os.link(tmp, path)
            published = True
        except FileExistsError:
            published = False
        finally:
            os.unlink(tmp)
        if published:
            _apply_save_faults(path, chaos_site)
            return "published"
        try:
            _, incumbent = read_sealed(path)
        except CorruptArtifactError:
            quarantine(path)
            continue
        if incumbent == digest:
            return "verified"
        raise IntegrityError(
            f"re-execution diverged from the published artifact {path!r} "
            f"(ours {digest[:12]}…, published {incumbent[:12]}…): re-run "
            "work must be bit-identical (determinism violation)"
        )
    raise CorruptArtifactError(  # pragma: no cover - needs a racing corruptor
        f"corrupt artifact {path!r}: could not publish over a persistently "
        "corrupt incumbent"
    )


def read_sealed(
    path: str, chaos_site: Optional[str] = None, unsealed_ok: bool = False
) -> tuple:
    """Read and verify one artifact; returns ``(body, digest)`` with the
    seal stripped from ``body``.

    Raises :class:`~repro.errors.CorruptArtifactError`, naming the path
    and the cause, for a zero-byte file, undecodable or torn JSON, a
    non-object, a missing or malformed seal, or a checksum mismatch.
    Transient ``OSError`` reads (and ``oserror`` directives injected at
    ``chaos_site``) are retried :data:`LOAD_ATTEMPTS` times in all before
    a plain :class:`~repro.errors.ConfigError`.  ``unsealed_ok`` accepts
    an artifact with no ``"integrity"`` key, with digest ``None``.
    """
    injector = get_fault_injector()
    last_os_error = None
    for _ in range(LOAD_ATTEMPTS):
        try:
            if chaos_site is not None and injector.enabled:
                for fault in injector.poll(chaos_site):
                    if fault.op == "oserror":
                        raise OSError("injected transient read failure")
            with open(path, "rb") as fh:
                raw = fh.read()
            break
        except OSError as exc:
            last_os_error = exc
    else:
        raise ConfigError(
            f"cannot load artifact {path!r}: {last_os_error}"
        ) from last_os_error

    def corrupt(cause: str) -> CorruptArtifactError:
        return CorruptArtifactError(f"corrupt artifact {path!r}: {cause}")

    if not raw.strip():
        raise corrupt("zero-byte file (torn or interrupted write)")
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise corrupt(f"invalid JSON ({exc})") from exc
    if not isinstance(body, dict):
        raise corrupt(f"expected a JSON object, got {type(body).__name__}")
    if unsealed_ok and "integrity" not in body:
        return body, None
    try:
        return unseal(body)
    except IntegrityError as exc:
        raise corrupt(str(exc)) from exc


def quarantine(path: str) -> str:
    """Move a damaged artifact into :data:`QUARANTINE_DIR` for post-mortem;
    returns its new path.  Its own directory no longer lists it, so the
    caller re-executes exactly that piece of work."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(path)))
    os.makedirs(os.path.join(root, QUARANTINE_DIR), exist_ok=True)
    dst = os.path.join(root, QUARANTINE_DIR, os.path.basename(path))
    os.replace(path, dst)
    return dst
