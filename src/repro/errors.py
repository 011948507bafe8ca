"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ShapeError(ReproError):
    """An array did not have the expected shape or rank."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied to a constructor."""


class IntegrityError(ReproError):
    """A content checksum did not match — a wire payload or on-disk
    artifact was corrupted in transit, truncated, or bit-flipped, or a
    re-executed chunk diverged from its first execution (a determinism
    violation)."""


class CorruptArtifactError(ConfigError):
    """A sealed on-disk artifact (campaign cell, shard-ledger artifact or
    gateway checkpoint) failed verification: zero-byte, undecodable or
    torn JSON, not a JSON object, a missing or malformed seal, or a
    checksum mismatch.  The message names the path and the cause.
    Subclasses :class:`ConfigError` so existing callers keep working; the
    campaign runner and the sharded merge catch it specifically to
    quarantine the artifact and re-execute its work instead of
    aborting."""


class InjectedFault(ReproError):
    """A fault deliberately raised by the chaos injector (never seen in
    production runs; the fault-tolerant dispatcher retries it)."""


class CompressionError(ReproError):
    """A compression specification could not be applied to a network."""


class EnergyError(ReproError):
    """An energy-accounting invariant was violated (e.g. negative charge)."""


class SimulationError(ReproError):
    """The event-driven simulator reached an inconsistent state."""


class SerializationError(ReproError):
    """A model or result artifact could not be saved or loaded."""


class GatewayError(ReproError):
    """A gateway request failed server-side (unknown fleet, bad verb,
    querying aggregates before the fleet finished, ...).  The server
    ships it across the wire as an error envelope and the client
    re-raises it, so gateway misuse reads the same locally and
    remotely."""
