"""Sealed JSON artifacts: the write and checksum primitives every durable
writer shares.

Campaign cells (:mod:`repro.campaign.store`), shard-ledger artifacts
(:mod:`repro.fleet.shards`) and gateway checkpoints
(:mod:`repro.gateway.checkpoint`) are all canonical JSON files sealed with
a sha256 content digest and written all-or-nothing.  This module sits
below every package that writes them, so none of those layers has to
import another to share the format; it imports the standard library
only.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as canonical JSON via rename (all-or-nothing)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        # Includes KeyboardInterrupt: never leave a half-written temp file
        # that a later directory scan could mistake for an artifact.
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cell_checksum(payload: dict) -> str:
    """Canonical content digest of an artifact payload (sans integrity seal)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def apply_save_faults(path: str, ops) -> None:
    """Damage a just-written artifact per injected save directives
    (``campaign.cell.save``, ``fleet.shard.save``) — the chaos stand-in
    for bit rot, torn disks, and truncated writes that the load-side
    verification must catch."""
    for op in ops:
        kind = op["op"]
        size = os.path.getsize(path)
        if kind == "empty":
            with open(path, "w"):
                pass
        elif kind == "truncate":
            keep = int(size * float(op.get("keep_frac", 0.5)))
            os.truncate(path, keep)
        elif kind == "bitflip":
            offset = min(int(size * float(op.get("offset_frac", 0.5))), size - 1)
            with open(path, "r+b") as fh:
                fh.seek(max(offset, 0))
                byte = fh.read(1)
                fh.seek(max(offset, 0))
                fh.write(bytes([byte[0] ^ 0xFF]))
