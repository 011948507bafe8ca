"""Sealed gateway checkpoints: the twin journal, atomically written.

A checkpoint is *not* a dump of engine internals — it is the twin's
replayable op journal (create/submit/advance with exact executed step
counts) sealed with sha256 and written atomically by :mod:`repro.store`,
which also verifies it on load.  Restore replays the journal through the
same deterministic engines, so the restored twin's numpy state is
bit-identical to the one that was checkpointed (enforced against the
goldens in ``tests/test_gateway.py``).  The on-disk format is documented
in ``docs/PROTOCOL.md``.
"""

from __future__ import annotations

import os

from repro.errors import CorruptArtifactError, GatewayError
from repro.gateway.twin import FleetTwin
from repro.store import read_sealed, write_sealed

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
    digest = write_sealed(path, payload)
    return {
        "path": os.path.abspath(path),
        "digest": digest,
        "journal_ops": len(twin.journal),
        "steps_done": twin.steps_done,
    }


def load_checkpoint(path: str) -> FleetTwin:
    """Verify the seal and replay the journal into a fresh twin.

    A missing file raises :class:`~repro.errors.GatewayError`; a damaged
    one (zero-byte, torn, bit-flipped, unsealed) or a sealed file that is
    not a checkpoint raises :class:`~repro.errors.CorruptArtifactError`,
    the failure shape of every sealed artifact; a valid file whose
    journal cannot replay raises :class:`~repro.errors.GatewayError`.
    """
    if not os.path.exists(path):
        raise GatewayError(f"no checkpoint at {path!r}")
    payload, _ = read_sealed(path)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CorruptArtifactError(
            f"checkpoint {path!r} is not a {CHECKPOINT_FORMAT} file"
        )
    if payload.get("version") != CHECKPOINT_VERSION:
        raise GatewayError(
            f"checkpoint {path!r} has version {payload.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    return FleetTwin.replay(payload.get("journal", []))
