"""In-order cores executing event traces.

A :class:`Core` charges one cycle per instruction plus the data-path
cost of each touched location (addresses are abstract locations scaled
to bytes).  This is the application side of the paper's machine; the
lifeguard side's costs live in :mod:`repro.sim.lba`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.sim.config import MachineConfig
from repro.sim.memory import MemoryHierarchy, SharedL2, build_hierarchies
from repro.trace.events import Instr
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

    def execute(self, instrs: Iterable[Instr]) -> CoreResult:
        cycles = 0
        count = 0
        mem = 0
        for instr in instrs:
            count += 1
            cycles += 1
            for loc in instr.accessed:
                mem += 1
                cycles += self.hierarchy.access(loc * LOCATION_STRIDE)
        return CoreResult(instructions=count, memory_accesses=mem, cycles=cycles)


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
        Core(h).execute(trace)
        for h, trace in zip(hierarchies, program.threads)
    ]
    return CMPResult(per_thread=results)


def run_serialized(
    program: TraceProgram,
    config: MachineConfig,
    order: Optional[list] = None,
) -> CoreResult:
    """Execute all threads' events on a single core: in the given
    order, else the recorded order, else round-robin."""
    hierarchy = build_hierarchies(config, 1)[0]
    core = Core(hierarchy)
    if order is None:
        order = program.true_order
    if order is not None:
        stream = (program.instr_at(ref) for ref in order)
    else:
        from repro.trace.interleave import round_robin

        stream = (
            program.instr_at(ref) for ref in round_robin(program, quantum=64)
        )
    return core.execute(stream)
