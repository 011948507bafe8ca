"""Sealed gateway checkpoints: the twin journal, atomically written.

A checkpoint is *not* a dump of engine internals — it is the twin's
replayable op journal (create/submit/advance with exact executed step
counts) plus a sha256 seal, written with the atomic-write and checksum
helpers of :mod:`repro.store`.  Restore replays the journal through the
same deterministic engines, so the restored twin's numpy state is
bit-identical to the one that was checkpointed (enforced against the
goldens in ``tests/test_gateway.py``).  The on-disk format is documented
in ``docs/PROTOCOL.md``.
"""

from __future__ import annotations

import json
import os

from repro.errors import CorruptCellError, GatewayError
from repro.gateway.twin import FleetTwin
from repro.store import atomic_write_json, cell_checksum

#: Stamped into every checkpoint; readers reject other formats.
CHECKPOINT_FORMAT = "repro-gateway-checkpoint"
#: Bumped on any incompatible change to the checkpoint payload.
CHECKPOINT_VERSION = 1


def save_checkpoint(twin: FleetTwin, path: str) -> dict:
    """Atomically write ``twin``'s sealed journal; returns the summary
    (path, digest, journal length) the ``checkpoint`` verb responds with."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "fleet": {"name": twin.name, "seed": twin.seed},
        "steps_done": twin.steps_done,
        "journal": [dict(op) for op in twin.journal],
    }
    digest = cell_checksum(payload)
    payload["integrity"] = {"algo": "sha256", "digest": digest}
    atomic_write_json(path, payload)
    return {
        "path": os.path.abspath(path),
        "digest": digest,
        "journal_ops": len(twin.journal),
        "steps_done": twin.steps_done,
    }


def load_checkpoint(path: str) -> FleetTwin:
    """Verify the seal and replay the journal into a fresh twin.

    Zero-byte, torn, or bit-flipped files raise
    :class:`~repro.errors.CorruptCellError` (the same failure shape the
    campaign store gives damaged cells); a valid file whose journal
    cannot replay raises :class:`~repro.errors.GatewayError`.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise GatewayError(f"no checkpoint at {path!r}") from None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCellError(
            f"checkpoint {path!r} is unreadable: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCellError(
            f"checkpoint {path!r} is not a {CHECKPOINT_FORMAT} file"
        )
    if payload.get("version") != CHECKPOINT_VERSION:
        raise GatewayError(
            f"checkpoint {path!r} has version {payload.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    seal = payload.pop("integrity", None)
    if not isinstance(seal, dict) or seal.get("algo") != "sha256":
        raise CorruptCellError(f"checkpoint {path!r} has no sha256 seal")
    digest = cell_checksum(payload)
    if seal.get("digest") != digest:
        raise CorruptCellError(
            f"checkpoint {path!r} failed its checksum: sealed "
            f"{seal.get('digest')!r} != computed {digest!r}"
        )
    return FleetTwin.replay(payload.get("journal", []))
