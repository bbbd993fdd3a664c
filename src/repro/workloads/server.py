"""A TaintCheck-oriented workload: a multi-threaded request server.

The Table 1 benchmarks exercise AddrCheck (the paper's evaluation);
this generator provides the equivalent stress for TaintCheck.  Thread 0
is the *receiver*: for every request it taints a per-worker request
slot (untrusted bytes arrive), validates, and untaints it.  Worker
threads then use their slot in a critical way (an indirect jump).  In
the recorded execution the sanitization always happens strictly before
the use, so the run is exploit-free -- unless ``attack_rate`` > 0, in
which case some requests skip validation and the use is a true
tainted-jump error under every ordering.

The taint-to-use distance is the same knob as the Splash-2 generators'
handoff gap: when it spans two epochs the sanitization is visible in
the SOS and butterfly TaintCheck stays silent; when the window is
wider than the gap, the receiver's taint sits in the wings of the
worker's jump and a false positive fires.
"""

from __future__ import annotations

import random
from typing import List

from repro.trace.events import Instr
from repro.trace.generator import alloc_handoff_program
from repro.trace.program import TraceProgram
from repro.workloads.base import (
    BenchmarkGenerator,
    PhasedTraceBuilder,
    StreamingWorkingSet,
    WorkloadSpec,
    thread_region,
)


class SecureServer(BenchmarkGenerator):
    """Receiver + workers with per-request taint/sanitize/use cycles."""

    spec = WorkloadSpec(
        name="SECURE-SERVER",
        suite="synthetic",
        input_desc="per-request taint/sanitize/use",
        mem_fraction=0.45,
        reuse=0.6,
        sharing=0.7,
        imbalance=0.05,
    )

    SLOT_FIELDS = 16  #: request-slot locations per worker
    GAP = 1400  #: events between sanitization and the worker's use

    def __init__(self, attack_rate: float = 0.0) -> None:
        self.attack_rate = attack_rate

    def _generate(
        self, num_threads: int, events_per_thread: int, seed: int
    ) -> TraceProgram:
        if num_threads < 2:
            raise ValueError("the server needs a receiver and >= 1 worker")
        rng = random.Random(seed)
        b = PhasedTraceBuilder(num_threads, rng)
        spec = self.spec
        cpm = round((1 - spec.mem_fraction) / spec.mem_fraction)
        workers = range(1, num_threads)
        slots = {w: thread_region(w) + (1 << 18) for w in workers}
        scratch = [
            StreamingWorkingSet(
                rng, thread_region(t), 4096, spec.reuse, cpm
            )
            for t in range(num_threads)
        ]

        iter_cost = 3 * self.GAP + 4 * self.SLOT_FIELDS
        iters = max(1, events_per_thread // iter_cost)
        attacks = []
        for _ in range(iters):
            attacked = {
                w for w in workers if rng.random() < self.attack_rate
            }
            attacks.append(attacked)
            # Requests arrive: receiver taints every worker's slot.
            receive: List[List[Instr]] = [[] for _ in range(num_threads)]
            for w in workers:
                receive[0].extend(
                    Instr.taint(slots[w] + f) for f in range(self.SLOT_FIELDS)
                )
            b.phase(receive)
            # Validation delay: everyone computes.
            b.phase(
                [scratch[t].events(self.GAP) for t in range(num_threads)]
            )
            # Sanitization (skipped for attacked requests).
            sanitize: List[List[Instr]] = [[] for _ in range(num_threads)]
            for w in workers:
                if w in attacked:
                    continue
                sanitize[0].extend(
                    Instr.untaint(slots[w] + f)
                    for f in range(self.SLOT_FIELDS)
                )
            b.phase(sanitize)
            # More compute: the sanitize-to-use gap.
            b.phase(
                [scratch[t].events(self.GAP) for t in range(num_threads)]
            )
            # Workers use their request in a critical way.
            use: List[List[Instr]] = [[] for _ in range(num_threads)]
            for w in workers:
                use[w].extend(
                    Instr.jump(slots[w] + f)
                    for f in range(0, self.SLOT_FIELDS, 4)
                )
            b.phase(use)
            # Response/cooldown: keeps the next request's taint from
            # landing adjacent to this request's use.
            b.phase(
                [scratch[t].events(self.GAP) for t in range(num_threads)]
            )
        program = b.build()
        return program


class AllocHandoff(BenchmarkGenerator):
    """``--benchmark HANDOFF``: :func:`alloc_handoff_program` under the
    registry's interface.  Like :class:`SecureServer` it is not one of
    Table 1's six, so the figures never loop over it; it is the
    workload whose AddrCheck false-positive rate genuinely grows with
    the epoch size, which makes it ``repro sweep``'s precision subject
    (``docs/tuning.md``)."""

    spec = WorkloadSpec(
        name="HANDOFF",
        suite="synthetic",
        input_desc="malloc handed to the other threads at once",
        mem_fraction=0.9,
        reuse=0.9,
        sharing=1.0,
        imbalance=0.0,
    )

    def _generate(
        self, num_threads: int, events_per_thread: int, seed: int
    ) -> TraceProgram:
        return alloc_handoff_program(
            random.Random(seed),
            num_threads=num_threads,
            events_per_thread=events_per_thread,
        )
