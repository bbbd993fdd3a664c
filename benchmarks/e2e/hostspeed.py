"""How fast this host is right now, against a fixed piece of work.

The hosts this benchmark runs on share their cores: the same sweep
takes a quarter longer for a minute and is back the next, in wall time
and in CPU time alike, and no estimator over a ten-second run can see
through that.  So every timed operation is bracketed by two *bursts* --
a fixed computation that never touches the program -- and its seconds
are scaled by ``REFERENCE_S / burst seconds``: what the operation would
have taken had the host run the burst in exactly ``REFERENCE_S``.
Medians of those scaled seconds repeat within a few percent where the
raw ones swing by twenty; ``detail.host_speed`` in every run's output
is the factor that was applied, so the raw seconds can be had back.

The burst mixes interpreter work (a dict-updating loop) and, where
numpy is installed, array work over a buffer that outgrows the L2
cache, because the program does both and a neighbour slows them
differently.
"""

from __future__ import annotations

from time import perf_counter, process_time
from typing import Tuple

try:
    import numpy as _np
except ImportError:  # the burst is then interpreter work alone
    _np = None

#: The burst's duration on the reference host (this benchmark's first
#: host when quiet).  Only a scale: changing it rescales every time.
REFERENCE_S = 0.050

_KEYS = 1023
_ARRAY = None if _np is None else (
    _np.arange(60_000, dtype=_np.int64) * 2_654_435_761 % 1_048_573
)

Burst = Tuple[float, float]  # (wall s, cpu s)


def burst() -> Burst:
    """Do the fixed work once; how long it took on the wall and in CPU."""
    c0, t0 = process_time(), perf_counter()
    counts: dict = {}
    for i in range(160_000):
        counts[i & _KEYS] = counts.get(i & _KEYS, 0) + i
    if _ARRAY is not None:
        for _ in range(2):
            uniq = _np.unique(_ARRAY)
            _np.cumsum(_np.isin(_ARRAY, uniq[::2]))
    return perf_counter() - t0, process_time() - c0


def speed(before: Burst, after: Burst) -> Tuple[float, float]:
    """``(wall factor, cpu factor)`` for what ran between two bursts:
    multiply measured seconds by it to get reference-host seconds."""
    return (2 * REFERENCE_S / (before[0] + after[0]),
            2 * REFERENCE_S / (before[1] + after[1]))
