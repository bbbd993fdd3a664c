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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import WorkloadError
from repro.trace.events import Instr
from repro.trace.program import GlobalRef, ThreadTrace, TraceProgram


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
    ground-truth interleaving."""

    def __init__(self, num_threads: int, rng: random.Random) -> None:
        if num_threads < 1:
            raise WorkloadError("need at least one thread")
        self.num_threads = num_threads
        self.rng = rng
        self._traces: List[List[Instr]] = [[] for _ in range(num_threads)]
        self._order: List[GlobalRef] = []
        self._timesliced: List[GlobalRef] = []
        self._ts_cursors: List[int] = [0] * num_threads

    def phase(self, per_thread: Sequence[Sequence[Instr]]) -> None:
        """One barrier-delimited phase: ``per_thread[t]`` is thread
        ``t``'s event list; events of different threads interleave in
        geometric chunks in the recorded order."""
        if len(per_thread) != self.num_threads:
            raise WorkloadError(
                f"phase needs {self.num_threads} event lists, "
                f"got {len(per_thread)}"
            )
        cursors = [0] * self.num_threads
        live = [t for t in range(self.num_threads) if per_thread[t]]
        while live:
            t = self.rng.choice(live)
            # Geometric chunk, mean ~8 events, models parallel drift.
            chunk = 1 + min(
                int(self.rng.expovariate(1 / 8.0)), 64
            )
            seq = per_thread[t]
            for _ in range(chunk):
                if cursors[t] >= len(seq):
                    break
                self._order.append((t, len(self._traces[t])))
                self._traces[t].append(seq[cursors[t]])
                cursors[t] += 1
            if cursors[t] >= len(seq):
                live.remove(t)
        # The timesliced execution runs each thread's whole phase chunk
        # back-to-back (barriers force every other thread to wait until
        # the phase completes anyway).
        for t in range(self.num_threads):
            end = len(self._traces[t])
            self._timesliced.extend(
                (t, i) for i in range(self._ts_cursors[t], end)
            )
            self._ts_cursors[t] = end

    def build(self, preallocated: frozenset = frozenset()) -> TraceProgram:
        program = TraceProgram(
            [ThreadTrace(tr) for tr in self._traces],
            true_order=self._order,
            preallocated=preallocated,
            timesliced_order=self._timesliced,
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

    def events(self, n: int) -> List[Instr]:
        """The next ``n`` events (memory ops interleaved with compute)."""
        out: List[Instr] = []
        rng = self.rng
        stream_span = max(1, self.footprint - self.hot)
        while len(out) < n:
            if rng.random() < self.reuse:
                loc = self.base + rng.randrange(self.hot)
            else:
                # Sequential sweep (array-walk locality: ~8 locations
                # per cache line) that never revisits a location until
                # the whole footprint has been covered.
                loc = self.base + self.hot + (self._cursor % stream_span)
                self._cursor += 1
            if rng.random() < 0.5:
                out.append(Instr.read(loc))
            else:
                out.append(Instr.write(loc))
            for _ in range(self.compute_per_mem):
                if len(out) < n:
                    out.append(Instr.nop())
        return out[:n]
