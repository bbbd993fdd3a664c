"""Synthetic Splash-2 benchmarks: BARNES, FFT, FMM, OCEAN, LU.

Each generator reproduces the stream statistics that matter to the
paper's evaluation (see the subpackage docstring).  The crucial knob is
the *handoff gap*: the number of same-thread events between an
allocation-state change and the first potentially-concurrent cross-
thread use.  A handoff is provably safe once the gap spans two epochs,
so gaps chosen between the two evaluated epoch sizes make false
positives appear only at the larger epoch -- the Figure 13 mechanism.

Startup allocations (the program's long-lived arrays) are modeled as
*pre-allocated* state: the paper measures billions of instructions where
the startup transient is negligible, whereas in a scaled trace an
initial malloc sits within an epoch or two of its first cross-thread
use and would drown the measurement in artifacts.  Only genuine
steady-state allocation churn (tree rebuilds, exchange buffers) remains
dynamic.

Default gaps assume the harness's scaled epoch sizes (512 / 4096
events; 1/16 of the paper's 8K / 64K instructions).
"""

from __future__ import annotations

import random
from typing import List

from repro.trace.program import TraceProgram
from repro.workloads.base import (
    BenchmarkGenerator,
    PhasedTraceBuilder,
    StreamingWorkingSet,
    WorkloadSpec,
    shuffle_since,
    thread_region,
)


def _skewed(base: int, tid: int, imbalance: float) -> int:
    """Deterministic per-thread load skew."""
    factor = 1.0 + imbalance * ((tid % 4) - 1.5) / 1.5
    return max(1, int(base * factor))


def _region_set(bases: List[int], size: int) -> frozenset:
    out = set()
    for base in bases:
        out.update(range(base, base + size))
    return frozenset(out)


class Barnes(BenchmarkGenerator):
    """N-body tree code: per-step tree rebuild (allocation churn), then
    a force phase reading other threads' tree cells with poor locality.
    The rebuild-to-force gap sits between the evaluated epoch sizes, so
    its false-positive rate jumps by orders of magnitude at the large
    epoch (Figure 13)."""

    spec = WorkloadSpec(
        name="BARNES",
        suite="Splash-2",
        input_desc="16384 bodies",
        mem_fraction=0.65,
        reuse=0.15,
        sharing=0.5,
        imbalance=0.08,
    )

    NODES = 48  #: tree cells allocated per thread per step
    BODIES = 24576  #: private body footprint per thread (streams past any filter)
    GAP = 1750  #: events between rebuild and cross-thread force reads
    CROSS = 2  #: cells sampled from each other thread per step

    def _generate(
        self, num_threads: int, events_per_thread: int, seed: int
    ) -> TraceProgram:
        rng = random.Random(seed)
        b = PhasedTraceBuilder(num_threads, rng)
        spec = self.spec
        cpm = round((1 - spec.mem_fraction) / spec.mem_fraction)

        bodies = [thread_region(t) for t in range(num_threads)]
        body_streams = [
            StreamingWorkingSet(rng, bodies[t], self.BODIES, spec.reuse, cpm)
            for t in range(num_threads)
        ]
        # Double-buffered tree cells: a buffer freed at step s was last
        # read at step s-2, a full step's worth of events earlier.
        cells = [
            [thread_region(t) + (1 << 19), thread_region(t) + (1 << 19) + 8192]
            for t in range(num_threads)
        ]

        step_cost = self.NODES * 2 + self.GAP + 600
        steps = max(1, events_per_thread // step_cost)
        for step in range(steps):
            cur = step % 2
            # Rebuild: retire the tree from two steps ago, build this one.
            for t, out in enumerate(b.threads):
                if step >= 2:
                    out.free(cells[t][cur], self.NODES)
                out.malloc(cells[t][cur], self.NODES)
                for i in range(self.NODES):
                    out.write(cells[t][cur] + i)
            b.phase()
            # Local body updates: the handoff gap.
            for t, out in enumerate(b.threads):
                body_streams[t].emit(
                    out, _skewed(self.GAP, t, spec.imbalance)
                )
            b.phase()
            # Force computation: own cells heavily, others sampled.
            for t, out in enumerate(b.threads):
                start = len(out)
                for _ in range(200):
                    out.read(cells[t][cur] + rng.randrange(self.NODES))
                for t2 in range(num_threads):
                    if t2 == t:
                        continue
                    for _ in range(self.CROSS):
                        out.read(cells[t2][cur] + rng.randrange(self.NODES))
                for _ in range(100):
                    out.write(bodies[t] + rng.randrange(self.BODIES))
                shuffle_since(rng, out, start)
            b.phase()
        return b.build(preallocated=_region_set(bodies, self.BODIES))


class FFT(BenchmarkGenerator):
    """Radix-sqrt(n) FFT: long-lived partitions (no allocation churn),
    local butterflies with moderate reuse, and all-to-all transpose
    phases reading remote rows.  With no steady-state allocation churn,
    its false positives stay near zero at both epoch sizes."""

    spec = WorkloadSpec(
        name="FFT",
        suite="Splash-2",
        input_desc="m = 20 (2^20 sized matrix)",
        mem_fraction=0.55,
        reuse=0.50,
        sharing=0.2,
        imbalance=0.05,
    )

    ROWS = 16384  #: per-thread matrix partition (locations)

    def _generate(
        self, num_threads: int, events_per_thread: int, seed: int
    ) -> TraceProgram:
        rng = random.Random(seed)
        b = PhasedTraceBuilder(num_threads, rng)
        spec = self.spec
        cpm = round((1 - spec.mem_fraction) / spec.mem_fraction)
        part = [thread_region(t) for t in range(num_threads)]
        part_streams = [
            StreamingWorkingSet(rng, part[t], self.ROWS, spec.reuse, cpm)
            for t in range(num_threads)
        ]

        phase_cost = 1400
        iters = max(1, events_per_thread // (2 * phase_cost))
        for it in range(iters):
            # Local butterfly stage.
            for t, out in enumerate(b.threads):
                part_streams[t].emit(
                    out, _skewed(phase_cost, t, spec.imbalance)
                )
            b.phase()
            # Transpose: strided remote reads, local writes.  The slice
            # is sampled so one transpose costs about one phase budget.
            chunk = self.ROWS // max(1, num_threads)
            points_total = phase_cost // (2 + cpm)
            points_per_peer = max(1, points_total // max(1, num_threads))
            stride = max(2, chunk // points_per_peer)
            offset = (it * 3) % stride  # rotate the sampled slice so
            # successive transposes touch fresh locations
            for t, out in enumerate(b.threads):
                for t2 in range(num_threads):
                    base = part[t2] + t * chunk
                    for i in range(offset, chunk, stride):
                        out.read(base + i)
                        out.write(part[t] + (t2 * chunk + i) % self.ROWS)
                        for _ in range(cpm):
                            out.nop()
            b.phase()
        return b.build(preallocated=_region_set(part, self.ROWS))


class FMM(BenchmarkGenerator):
    """Fast multipole: cell-list churn like BARNES but with handoff gaps
    wider than two large epochs, so its false positives stay low at both
    evaluated epoch sizes; load imbalance is the worst of the six."""

    spec = WorkloadSpec(
        name="FMM",
        suite="Splash-2",
        input_desc="32768 bodies",
        mem_fraction=0.65,
        reuse=0.15,
        sharing=0.3,
        imbalance=0.12,
    )

    CELLS = 48
    BODIES = 24576
    GAP = 8700  #: spans two epochs even at the large epoch size
    CROSS = 12

    def _generate(
        self, num_threads: int, events_per_thread: int, seed: int
    ) -> TraceProgram:
        rng = random.Random(seed)
        b = PhasedTraceBuilder(num_threads, rng)
        spec = self.spec
        cpm = round((1 - spec.mem_fraction) / spec.mem_fraction)
        bodies = [thread_region(t) for t in range(num_threads)]
        body_streams = [
            StreamingWorkingSet(rng, bodies[t], self.BODIES, spec.reuse, cpm)
            for t in range(num_threads)
        ]
        cells = [
            [thread_region(t) + (1 << 19), thread_region(t) + (1 << 19) + 8192]
            for t in range(num_threads)
        ]
        step_cost = self.CELLS * 2 + self.GAP + 400
        steps = max(1, events_per_thread // step_cost)
        for step in range(steps):
            cur = step % 2
            for t, out in enumerate(b.threads):
                if step >= 2:
                    out.free(cells[t][cur], self.CELLS)
                out.malloc(cells[t][cur], self.CELLS)
                for i in range(self.CELLS):
                    out.write(cells[t][cur] + i)
            b.phase()
            for t, out in enumerate(b.threads):
                body_streams[t].emit(
                    out, _skewed(self.GAP, t, spec.imbalance)
                )
            b.phase()
            for t, out in enumerate(b.threads):
                start = len(out)
                for _ in range(150):
                    out.read(cells[t][cur] + rng.randrange(self.CELLS))
                for t2 in range(num_threads):
                    if t2 != t:
                        for _ in range(self.CROSS):
                            out.read(
                                cells[t2][cur] + rng.randrange(self.CELLS)
                            )
                shuffle_since(rng, out, start)
            b.phase()
        return b.build(preallocated=_region_set(bodies, self.BODIES))


class Ocean(BenchmarkGenerator):
    """Grid solver with per-iteration boundary-exchange buffers: each
    iteration allocates fresh exchange rows, neighbours read them after
    one compute gap, and the owner frees them a gap later.  The gap
    jitters around the small-epoch safety threshold, so a few exchanges
    are flagged even at the small epoch and *every* exchange is flagged
    at the large one -- the paper's worst false-positive case, and the
    reason OCEAN's large-epoch configuration is slower (Figure 12):
    flag-handling costs offset the amortized barriers."""

    spec = WorkloadSpec(
        name="OCEAN",
        suite="Splash-2",
        input_desc="Grid size: 258 x 258",
        mem_fraction=0.55,
        reuse=0.15,
        sharing=0.9,
        imbalance=0.10,
    )

    GRID = 8192
    #: Boundary-buffer locations per neighbour handoff; shrinks with the
    #: thread count like a 2D decomposition's surface-to-volume ratio.
    EXCHANGE_BASE = 80
    GAP = 1450  #: nominal compute events separating alloc/read/free

    @staticmethod
    def exchange_size(num_threads: int) -> int:
        return max(8, int(Ocean.EXCHANGE_BASE / num_threads ** 0.5))

    def _generate(
        self, num_threads: int, events_per_thread: int, seed: int
    ) -> TraceProgram:
        rng = random.Random(seed)
        b = PhasedTraceBuilder(num_threads, rng)
        spec = self.spec
        cpm = round((1 - spec.mem_fraction) / spec.mem_fraction)
        grid = [thread_region(t) for t in range(num_threads)]
        grid_streams = [
            StreamingWorkingSet(rng, grid[t], self.GRID, spec.reuse, cpm)
            for t in range(num_threads)
        ]
        buf = [thread_region(t) + (1 << 19) for t in range(num_threads)]

        exchange = self.exchange_size(num_threads)
        iter_cost = 2 * self.GAP + 3 * exchange + 2
        iters = max(1, events_per_thread // iter_cost)
        for _ in range(iters):
            # Allocate and fill this iteration's exchange buffers.
            for t, out in enumerate(b.threads):
                out.malloc(buf[t], exchange)
                for i in range(exchange):
                    out.write(buf[t] + i)
            b.phase()
            # Interior stencil sweep (the handoff gap, jittered around
            # the small-epoch safety threshold).
            gap = int(self.GAP * rng.uniform(0.66, 1.28))
            for t, out in enumerate(b.threads):
                grid_streams[t].emit(out, _skewed(gap, t, spec.imbalance))
            b.phase()
            # Read both neighbours' boundary buffers.
            for t, out in enumerate(b.threads):
                for nb in ((t - 1) % num_threads, (t + 1) % num_threads):
                    if nb == t:
                        continue
                    for i in range(exchange):
                        out.read(buf[nb] + i)
            b.phase()
            # Second sweep, then retire the buffers.
            gap = int(self.GAP * rng.uniform(0.66, 1.28))
            for t, out in enumerate(b.threads):
                grid_streams[t].emit(out, _skewed(gap, t, spec.imbalance))
            b.phase()
            for t, out in enumerate(b.threads):
                out.free(buf[t], exchange)
            b.phase()
        return b.build(preallocated=_region_set(grid, self.GRID))


class LU(BenchmarkGenerator):
    """Blocked dense LU: long-lived blocks, very high reuse inside them
    (the unflushed timesliced filter eliminates nearly all checks,
    making the timesliced baseline fast), and pipeline-shaped imbalance.
    No allocation churn, so essentially no false positives at either
    epoch size."""

    spec = WorkloadSpec(
        name="LU",
        suite="Splash-2",
        input_desc="Matrix size: 1024 x 1024, b = 64",
        mem_fraction=0.50,
        reuse=0.90,
        sharing=0.3,
        imbalance=0.30,
    )

    BLOCK = 64
    BLOCKS_PER_THREAD = 4

    def _generate(
        self, num_threads: int, events_per_thread: int, seed: int
    ) -> TraceProgram:
        rng = random.Random(seed)
        b = PhasedTraceBuilder(num_threads, rng)
        spec = self.spec
        cpm = round((1 - spec.mem_fraction) / spec.mem_fraction)
        footprint = self.BLOCK * self.BLOCKS_PER_THREAD
        blocks = [thread_region(t) for t in range(num_threads)]
        block_streams = [
            StreamingWorkingSet(rng, blocks[t], footprint, spec.reuse, cpm)
            for t in range(num_threads)
        ]
        phase_cost = 1500
        steps = max(1, events_per_thread // phase_cost)
        for k in range(steps):
            owner = k % num_threads
            # Diagonal factorization: the owner works hardest; the
            # pipeline leaves other threads unevenly loaded.
            for t, out in enumerate(b.threads):
                if t == owner:
                    n = phase_cost // 2
                else:
                    n = _skewed(phase_cost // 3, t, spec.imbalance)
                start = len(out)
                block_streams[t].emit(out, n)
                if t != owner:
                    # Read the pivot block from the owner: high-reuse
                    # remote reads of a small, stable region.
                    pivot = (
                        blocks[owner]
                        + (k % self.BLOCKS_PER_THREAD) * self.BLOCK
                    )
                    for _ in range(80):
                        out.read(pivot + rng.randrange(self.BLOCK))
                    shuffle_since(rng, out, start)
            b.phase()
        return b.build(preallocated=_region_set(blocks, footprint))
