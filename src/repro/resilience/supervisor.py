"""Supervision policy: the knobs every pooled backend runs under.

The supervised loop itself is :class:`repro.core.parallel.PoolBackend`
-- there is no unsupervised pool and no wrapper around one -- so this
module holds only policy: :class:`RetryPolicy`, what callers configure,
and the constants the pool runs by (:data:`DEGRADATION_LADDER` among
them).  It imports nothing from :mod:`repro.core`, which is what lets
the pool live there without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ResilienceError
from repro.resilience.faults import _mix

#: The degradation ladder, most to least capable.  The last rung is the
#: pool running its units inline, in the calling thread.
DEGRADATION_LADDER = ("processes", "threads", "serial")

#: Each further retry of the same task multiplies the delay by this.
BACKOFF_FACTOR = 2.0
#: Deterministic jitter: a delay is scaled by a per-(batch, task,
#: attempt) factor in ``[1, 1 + JITTER]``.
JITTER = 0.25
#: Consecutive pool-level failures (broken pool or timeout) before a
#: pool steps down the degradation ladder.
DEGRADE_AFTER = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs (defaults documented in docs/robustness.md)."""

    #: Retries per task beyond its first execution (0 = fail fast).
    max_retries: int = 3
    #: Seconds to wait on one task's result before declaring it hung
    #: (``None`` disables timeouts; the inline rung never times out).
    task_timeout: Optional[float] = 30.0
    #: First retry delay in seconds; multiplied by ``BACKOFF_FACTOR`` per
    #: further retry of the same task, capped at ``backoff_max``.
    backoff_base: float = 0.05
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ResilienceError(
                f"retries must be >= 0, got {self.max_retries}"
            )
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise ResilienceError(
                f"task timeout must be > 0 seconds, got {self.task_timeout}"
            )
        if not (self.backoff_base >= 0 and self.backoff_max >= 0):
            raise ResilienceError(
                f"backoff must be >= 0 seconds, got base "
                f"{self.backoff_base}, max {self.backoff_max}"
            )

    def delay_for(self, batch: int, index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` of one task (seconds)."""
        delay = self.backoff_base * BACKOFF_FACTOR ** max(0, attempt - 1)
        delay = min(delay, self.backoff_max)
        u = _mix(0, batch, index, attempt) / float(1 << 64)
        return delay * (1.0 + JITTER * u)
