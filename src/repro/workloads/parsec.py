"""Synthetic Parsec 2.0 benchmark: BLACKSCHOLES.

Blackscholes is the paper's embarrassingly parallel, compute-dominated
outlier: each thread re-prices its private slice of options every
iteration, so (a) memory operations are a small fraction of the
instruction stream, (b) reuse is extreme -- the unflushed timesliced
filter removes nearly every check, making the timesliced baseline very
fast -- and (c) there is no cross-thread sharing, hence no false
positives.  In Figure 11 it is the one benchmark where the timesliced
baseline still wins at eight threads, with butterfly scaling toward the
crossover.
"""

from __future__ import annotations

import random
from typing import List

from repro.trace.events import Instr
from repro.trace.program import TraceProgram
from repro.workloads.base import (
    BenchmarkGenerator,
    PhasedTraceBuilder,
    WorkloadSpec,
    thread_region,
)


class Blackscholes(BenchmarkGenerator):
    """Option pricing: private data, heavy compute, extreme reuse."""

    spec = WorkloadSpec(
        name="BLACKSCHOLES",
        suite="Parsec 2.0",
        input_desc="16384 options (simmedium)",
        mem_fraction=0.35,
        reuse=0.95,
        sharing=0.0,
        imbalance=0.03,
    )

    OPTIONS = 232  #: options per thread
    FIELDS = 6  #: spot, strike, rate, volatility, time, result

    def _generate(
        self, num_threads: int, events_per_thread: int, seed: int
    ) -> TraceProgram:
        rng = random.Random(seed)
        b = PhasedTraceBuilder(num_threads, rng)
        spec = self.spec
        cpm = round((1 - spec.mem_fraction) / spec.mem_fraction)
        footprint = self.OPTIONS * self.FIELDS
        data = [thread_region(t) for t in range(num_threads)]

        b.phase(
            [
                [Instr.write(data[t] + i) for i in range(footprint)]
                for t in range(num_threads)
            ]
        )

        per_option = self.FIELDS + self.FIELDS * cpm
        iter_cost = self.OPTIONS * per_option
        iters = max(1, events_per_thread // iter_cost)
        for _ in range(iters):
            phase: List[List[Instr]] = []
            for t in range(num_threads):
                evs: List[Instr] = []
                for opt in range(self.OPTIONS):
                    base = data[t] + opt * self.FIELDS
                    for f in range(self.FIELDS - 1):
                        evs.append(Instr.read(base + f))
                        evs.extend(Instr.nop() for _ in range(cpm))
                    evs.append(Instr.write(base + self.FIELDS - 1))
                    evs.extend(Instr.nop() for _ in range(cpm))
                phase.append(evs)
            b.phase(phase)
        preallocated = frozenset(
            loc
            for t in range(num_threads)
            for loc in range(data[t], data[t] + footprint)
        )
        return b.build(preallocated=preallocated)
