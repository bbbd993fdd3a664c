"""The L1D / shared-L2 / DRAM hierarchy of Table 1.

One :class:`MemoryHierarchy` instance models one core's data path; the
L2 is shared, so cores constructed via :class:`SharedL2` reference a
common second level (which is how cross-thread sharing shows up as L2
hits instead of memory accesses).
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.cache import SetAssocCache
from repro.sim.config import MachineConfig


class SharedL2:
    """The banked, shared L2.  Bank conflicts are not modeled; bank
    count only appears in the Table 1 rendering."""

    def __init__(self, config: MachineConfig) -> None:
        self.cache = SetAssocCache(config.l2, name="L2")
        self.latency = config.l2.latency_cycles
        self.memory_latency = config.memory_latency

    def access(self, addr: int) -> int:
        """Cycles beyond the L1 for an L1-missing access."""
        if self.cache.access(addr):
            return self.latency
        return self.latency + self.memory_latency


class MemoryHierarchy:
    """One core's L1D backed by the shared L2."""

    def __init__(self, config: MachineConfig, l2: SharedL2) -> None:
        self.l1d = SetAssocCache(config.l1d, name="L1D")
        self.l1_latency = config.l1d.latency_cycles
        self.l2 = l2

    def access(self, addr: int) -> int:
        """Cycle cost of one data access."""
        cost = self.l1_latency
        if not self.l1d.access(addr):
            cost += self.l2.access(addr)
        return cost


def build_hierarchies(
    config: MachineConfig, num_cores: Optional[int] = None
) -> List[MemoryHierarchy]:
    """Per-core hierarchies sharing one L2."""
    shared = SharedL2(config)
    n = num_cores if num_cores is not None else config.cores
    return [MemoryHierarchy(config, shared) for _ in range(n)]
