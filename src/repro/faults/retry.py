"""Retry policy for fault-tolerant dispatch.

One small frozen dataclass shared by the fleet dispatcher and the
campaign runner: how many times a failed chunk is retried, how long a
worker may hold a chunk before the straggler watchdog re-dispatches it,
and the exponential backoff between attempts.  Kept separate from the
runner so CLIs, campaigns, and tests can build one policy and thread it
through every layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

#: Watchdog timeout applied when chaos is on but no explicit
#: ``worker_timeout`` was configured — an injected crash would otherwise
#: hang the dispatch forever (a killed pool worker never completes its
#: AsyncResult; only the deadline notices).
DEFAULT_CHAOS_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs for one dispatch.

    ``max_retries``
        Retries per chunk *before* escalation (so a chunk runs at most
        ``max_retries + 1`` times at each ladder stage).  The ladder
        after exhaustion: a multi-device chunk splits into
        single-device chunks; a single device gets one last in-parent
        attempt; only then is it quarantined as a ``DeviceFailure``.
    ``worker_timeout``
        Seconds a pooled chunk attempt may run before the straggler
        watchdog gives up on it and re-dispatches (``None``: no
        deadline, except under chaos — see
        :data:`DEFAULT_CHAOS_TIMEOUT_S`).
    ``backoff_s`` / ``backoff_factor``
        Exponential backoff: retry *k* (0-based) waits
        ``backoff_s * backoff_factor**k`` seconds.
    ``straggler_grace_s``
        How long the end of a run waits for timed-out attempts to
        surface so their payloads can be checked bit-identical against
        the accepted re-execution (the determinism assert).
    """

    max_retries: int = 2
    worker_timeout: Optional[float] = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    straggler_grace_s: float = 0.5

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ConfigError(
                f"worker_timeout must be > 0 (or None), got {self.worker_timeout}"
            )
        if self.backoff_s < 0:
            raise ConfigError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.straggler_grace_s < 0:
            raise ConfigError(
                f"straggler_grace_s must be >= 0, got {self.straggler_grace_s}"
            )

    def backoff(self, retry_index: int) -> float:
        """Seconds to wait before 0-based retry ``retry_index``."""
        return self.backoff_s * self.backoff_factor ** max(int(retry_index), 0)

    def effective_timeout(self, chaos_on: bool) -> Optional[float]:
        """The watchdog deadline for one pooled attempt (None: no limit)."""
        if self.worker_timeout is not None:
            return self.worker_timeout
        return DEFAULT_CHAOS_TIMEOUT_S if chaos_on else None


#: The default policy: a couple of retries, no watchdog unless chaos is on.
DEFAULT_RETRY_POLICY = RetryPolicy()
