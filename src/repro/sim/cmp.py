"""In-order cores executing event traces.

A :class:`Core` charges one cycle per instruction plus the data-path
cost of each location in their access stream (addresses are abstract
locations scaled to bytes).  This is the application side of the
paper's machine; the lifeguard side's costs live in :mod:`repro.sim.lba`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.columnar import access_stream
from repro.sim.config import MachineConfig
from repro.sim.memory import MemoryHierarchy, build_hierarchies
from repro.trace.interleave import round_robin
from repro.trace.program import TraceProgram

#: Bytes per abstract location when mapped onto the cache hierarchy.
LOCATION_STRIDE = 8


@dataclass
class CoreResult:
    """One core's execution outcome."""

    instructions: int
    memory_accesses: int
    cycles: int


class Core:
    """An in-order scalar core (1 GHz, Table 1)."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

    def execute(self, accessed: Sequence[int], instructions: int) -> CoreResult:
        """Run ``instructions`` events that dereference ``accessed``, in
        order: one cycle each, plus each access's data-path cost."""
        access = self.hierarchy.access
        cycles = sum(access(loc * LOCATION_STRIDE) for loc in accessed)
        return CoreResult(instructions, len(accessed), instructions + cycles)


@dataclass
class CMPResult:
    """Parallel execution outcome: per-thread results and the critical
    path (max thread time)."""

    per_thread: List[CoreResult]

    @property
    def cycles(self) -> int:
        return max((r.cycles for r in self.per_thread), default=0)


def run_parallel(program: TraceProgram, config: MachineConfig) -> CMPResult:
    """Execute each thread on its own core over a shared L2."""
    hierarchies = build_hierarchies(config, program.num_threads)
    results = [
        Core(h).execute(access_stream(trace.columns)[1].tolist(), len(trace))
        for h, trace in zip(hierarchies, program.threads)
    ]
    return CMPResult(per_thread=results)


def run_serialized(
    program: TraceProgram,
    config: MachineConfig,
    order: Optional[Sequence[int]] = None,
) -> CoreResult:
    """Execute all threads' events on a single core: in the given
    schedule (one thread id per event), else the recorded order, else
    round-robin."""
    if order is None:
        order = program.true_order
    if order is None:
        order = round_robin(program, quantum=64)
    core = Core(build_hierarchies(config, 1)[0])
    walk = program.walk(order)
    accessed = [loc for *_, locs in walk for loc in locs]
    return core.execute(accessed, len(order))
