"""Workload-generator scaffolding.

Benchmarks are built from *phases* separated by barriers, the SPMD
structure of every Splash-2/Parsec program we model.  Within a phase,
threads' events interleave randomly in recorded ground truth; across a
barrier, everything in phase ``p`` precedes everything in phase
``p+1``.  Generators that respect a simple discipline -- memory is
allocated in an earlier phase than any cross-thread access, and freed
in a later one -- therefore produce executions with *zero true
AddrCheck errors*, so every flag a lifeguard raises on them is a false
positive (exactly the Figure 13 setting).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.columnar import ColumnAppender
from repro.errors import WorkloadError
from repro.trace.program import ThreadTrace, TraceProgram


@dataclass(frozen=True)
class WorkloadSpec:
    """A benchmark's identity and qualitative character.

    The character fields are the stream statistics that drive the
    paper's results (see the subpackage docstring); ``input_desc``
    reproduces Table 1's input-data-set column.
    """

    name: str
    suite: str
    input_desc: str
    #: Fraction of instructions that touch memory (rest are compute).
    mem_fraction: float
    #: Qualitative reuse: how effectively LBA's idempotent filter
    #: collapses repeated checks (0 = streaming, 1 = tight reuse).
    reuse: float
    #: Cross-thread allocation handoff intensity (drives butterfly
    #: false positives near epoch boundaries).
    sharing: float
    #: Load imbalance (0 = perfectly balanced).
    imbalance: float


class PhasedTraceBuilder:
    """Accumulates per-thread events phase by phase, recording a valid
    ground-truth interleaving.

    A generator appends thread ``t``'s events to ``threads[t]`` (a
    :class:`~repro.core.columnar.ColumnAppender`) and closes each
    barrier-delimited phase with :meth:`phase`."""

    def __init__(self, num_threads: int, rng: random.Random) -> None:
        if num_threads < 1:
            raise WorkloadError("need at least one thread")
        self.num_threads = num_threads
        self.rng = rng
        self.threads = [ColumnAppender() for _ in range(num_threads)]
        self._phase_start = [0] * num_threads
        #: The two schedules as runs: thread ``ids[k]`` for ``runs[k]``
        #: events.
        self._order: Tuple[List[int], List[int]] = ([], [])
        self._timesliced: Tuple[List[int], List[int]] = ([], [])

    def phase(self) -> None:
        """Close one phase: the events each thread appended since the
        last one interleave in geometric chunks in the recorded order."""
        lengths = [
            len(out) - start
            for out, start in zip(self.threads, self._phase_start)
        ]
        self._phase_start = [len(out) for out in self.threads]
        ids, runs = self._order
        cursors = [0] * self.num_threads
        live = [t for t in range(self.num_threads) if lengths[t]]
        while live:
            t = self.rng.choice(live)
            # Geometric chunk, mean ~8 events, models parallel drift.
            chunk = 1 + min(int(self.rng.expovariate(1 / 8.0)), 64)
            run = min(chunk, lengths[t] - cursors[t])
            ids.append(t)
            runs.append(run)
            cursors[t] += run
            if cursors[t] >= lengths[t]:
                live.remove(t)
        # The timesliced execution runs each thread's whole phase chunk
        # back-to-back (barriers force every other thread to wait until
        # the phase completes anyway).
        self._timesliced[0].extend(range(self.num_threads))
        self._timesliced[1].extend(lengths)

    def build(self, preallocated: frozenset = frozenset()) -> TraceProgram:
        program = TraceProgram(
            [ThreadTrace(columns=out.block()) for out in self.threads],
            true_order=np.repeat(*self._order),
            preallocated=preallocated,
            timesliced_order=np.repeat(*self._timesliced),
        )
        program.validate()
        return program


class BenchmarkGenerator(abc.ABC):
    """One synthetic benchmark."""

    spec: WorkloadSpec

    def generate(
        self, num_threads: int, events_per_thread: int, seed: int = 0
    ) -> TraceProgram:
        """Produce a trace with ~``events_per_thread`` events per thread."""
        if events_per_thread < 1:
            raise WorkloadError("need at least one event per thread")
        return self._generate(num_threads, events_per_thread, seed)

    @abc.abstractmethod
    def _generate(
        self, num_threads: int, events_per_thread: int, seed: int
    ) -> TraceProgram:
        """The trace, for a validated ``events_per_thread``."""


# -- shared building blocks ------------------------------------------------

#: Locations per thread-private heap region; regions never overlap.
REGION = 1 << 20


def thread_region(tid: int) -> int:
    """Base location of thread ``tid``'s private heap."""
    return (tid + 1) * REGION


class StreamingWorkingSet:
    """One thread's memory-access generator: hot set plus a stream.

    A fraction ``reuse`` of the accesses hit a small resident *hot set*
    (which any idempotent filter keeps collapsing); the rest stream
    across the footprint with a **persistent cursor**, never revisiting
    a position until the whole footprint has been swept -- so a finite
    filter gains nothing from the stream, exactly like the paper's
    streaming benchmarks whose working sets dwarf any hardware table.
    ``reuse`` therefore directly sets the achievable filter rate.
    """

    def __init__(
        self,
        rng: random.Random,
        base: int,
        footprint: int,
        reuse: float,
        compute_per_mem: int,
    ) -> None:
        if footprint < 8:
            raise WorkloadError("footprint must be at least 8 locations")
        self.rng = rng
        self.base = base
        self.footprint = footprint
        self.reuse = reuse
        self.compute_per_mem = compute_per_mem
        self.hot = max(4, footprint // 20)
        self._cursor = 0

    def emit(self, out: ColumnAppender, n: int) -> None:
        """Append the next ``n`` events (memory ops interleaved with
        compute) to ``out``."""
        rng = self.rng
        compute = self.compute_per_mem
        stream_span = max(1, self.footprint - self.hot)
        while n > 0:
            if rng.random() < self.reuse:
                loc = self.base + rng.randrange(self.hot)
            else:
                # Sequential sweep (array-walk locality: ~8 locations
                # per cache line) that never revisits a location until
                # the whole footprint has been covered.
                loc = self.base + self.hot + (self._cursor % stream_span)
                self._cursor += 1
            if rng.random() < 0.5:
                out.read(loc)
            else:
                out.write(loc)
            nops = min(compute, n - 1)
            for _ in range(nops):
                out.nop()
            n -= 1 + nops


def shuffle_since(rng: random.Random, out: ColumnAppender, start: int) -> None:
    """Shuffle ``out``'s events from ``start`` on, drawing from ``rng``
    exactly what ``rng.shuffle`` of a list of them would."""
    order = list(range(len(out) - start))
    rng.shuffle(order)
    out.permute(start, order)
