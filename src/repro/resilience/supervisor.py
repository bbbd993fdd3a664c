"""Supervision policy: the knobs every pooled backend runs under.

The supervised loop itself is :class:`repro.core.parallel.PoolBackend`
-- there is no unsupervised pool and no wrapper around one -- so this
module holds only what callers configure: :class:`RetryPolicy` and the
:data:`DEGRADATION_LADDER` the pool steps down.  It imports nothing
from :mod:`repro.core`, which is what lets the pool live there without
an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.resilience.faults import _mix

#: The degradation ladder, most to least capable.  The last rung is the
#: pool running its units inline, in the calling thread.
DEGRADATION_LADDER = ("processes", "threads", "serial")


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs (defaults documented in docs/robustness.md)."""

    #: Retries per task beyond its first execution (0 = fail fast).
    max_retries: int = 3
    #: Seconds to wait on one task's result before declaring it hung
    #: (``None`` disables timeouts; the inline rung never times out).
    task_timeout: Optional[float] = 30.0
    #: First retry delay in seconds; doubles (``backoff_factor``) per
    #: further retry of the same task, capped at ``backoff_max``.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: Deterministic jitter: the delay is scaled by a per-(task, attempt)
    #: factor in ``[1, 1 + jitter]`` derived from ``seed``.
    jitter: float = 0.25
    #: Consecutive pool-level failures (broken pool or timeout) before
    #: stepping down the degradation ladder.
    degrade_after: int = 2
    seed: int = 0

    def delay_for(self, batch: int, index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` of one task (seconds)."""
        delay = self.backoff_base * self.backoff_factor ** max(
            0, attempt - 1
        )
        delay = min(delay, self.backoff_max)
        u = _mix(self.seed, batch, index, attempt) / float(1 << 64)
        return delay * (1.0 + self.jitter * u)
