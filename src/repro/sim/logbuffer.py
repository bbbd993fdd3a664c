"""The 8 KB per-thread log buffer coupling application and lifeguard.

LBA captures an instruction log at the application core and ships it
through the L2 to the lifeguard core; when the lifeguard is slower, the
application stalls on a full buffer (paper Section 7.1), which is why
the measured execution time equals lifeguard processing time in the
paper's experiments.

The system model's event streams are long enough that the fill/drain
transient is negligible, so the buffer enters it only through its
steady-state consequence, :func:`coupled_time`.
"""

from __future__ import annotations


def coupled_time(app_cycles: int, lifeguard_cycles: int) -> int:
    """Steady-state execution time of an application whose log buffer
    back-pressures it: the slower side dictates the pace."""
    return max(app_cycles, lifeguard_cycles)
