"""Random trace generation used by tests and property-based checks.

Two flavours:

- *Raw* generators emit arbitrary event soup; useful for exercising the
  dataflow machinery where no well-formedness is required.
- *Simulated-execution* generators model an actual run: a scheduler picks
  a thread each step and the thread emits an event that is legal in the
  current global state (e.g. only freeing allocated memory).  These
  record the interleaving in ``TraceProgram.true_order``, giving tests a
  ground truth against which butterfly analysis can only ever produce
  false positives -- exactly the paper's setting.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.columnar import (
    NO_DST,
    OP_ASSIGN,
    OP_FREE,
    OP_JUMP,
    OP_MALLOC,
    OP_READ,
    OP_TAINT,
    OP_UNTAINT,
    OP_WRITE,
    ColumnarBlock,
)
from repro.core.epoch import Block
from repro.core.stream import EpochSource
from repro.trace.events import Instr, Op
from repro.trace.program import GlobalRef, ThreadTrace, TraceProgram


def random_program(
    rng: random.Random,
    num_threads: int = 2,
    length: int = 4,
    num_locations: int = 4,
    ops: Sequence[Op] = (Op.WRITE, Op.READ, Op.ASSIGN, Op.NOP),
) -> TraceProgram:
    """Unconstrained random events; no ground-truth order recorded."""
    threads = []
    for _ in range(num_threads):
        instrs: List[Instr] = []
        for _ in range(length):
            op = rng.choice(list(ops))
            if op is Op.WRITE:
                instrs.append(Instr.write(rng.randrange(num_locations)))
            elif op is Op.READ:
                instrs.append(Instr.read(rng.randrange(num_locations)))
            elif op is Op.ASSIGN:
                dst = rng.randrange(num_locations)
                nsrc = rng.randint(1, 2)
                srcs = [rng.randrange(num_locations) for _ in range(nsrc)]
                instrs.append(Instr.assign(dst, *srcs))
            elif op is Op.MALLOC:
                instrs.append(Instr.malloc(rng.randrange(num_locations)))
            elif op is Op.FREE:
                instrs.append(Instr.free(rng.randrange(num_locations)))
            elif op is Op.TAINT:
                instrs.append(Instr.taint(rng.randrange(num_locations)))
            elif op is Op.UNTAINT:
                instrs.append(Instr.untaint(rng.randrange(num_locations)))
            elif op is Op.JUMP:
                instrs.append(Instr.jump(rng.randrange(num_locations)))
            else:
                instrs.append(Instr.nop())
        threads.append(ThreadTrace(instrs))
    return TraceProgram(threads)


def adversarial_instrs(
    rng: random.Random,
    length: int,
    num_locations: int = 4,
    ops: Sequence[Op] = (Op.WRITE, Op.READ, Op.MALLOC, Op.FREE, Op.NOP),
    hot_locations: Optional[Sequence[int]] = None,
    straddle_stride: int = 0,
    max_extent: int = 1,
) -> List[Instr]:
    """One thread's worth of deliberately hostile events.

    The knobs bias toward the cases that historically break analyses:

    - ``hot_locations`` concentrates every address choice on a tiny set,
      maximizing cross-thread conflicts (wing-heavy butterflies);
    - ``straddle_stride`` > 0 aligns sized MALLOC/FREE/range bases just
      *under* multiples of the stride so their extents straddle it
      (shadow-page and bitset-word boundaries);
    - ``max_extent`` > 1 enables sized allocation events at all.

    Unlike the simulated-execution generators this draws arbitrary
    event soup: illegal frees, double mallocs and reads of unallocated
    memory are all fair game, which is exactly what a differential
    harness wants (both sides of every pair must agree on the errors).
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")

    def pick_loc() -> int:
        if hot_locations:
            return rng.choice(list(hot_locations))
        return rng.randrange(num_locations)

    def pick_base_size() -> "tuple[int, int]":
        size = rng.randint(1, max_extent)
        if straddle_stride > 0 and size > 1 and rng.random() < 0.75:
            # Start size-1..1 slots before a stride multiple so the
            # extent crosses it.
            k = rng.randrange(1, max(2, num_locations // straddle_stride + 1))
            base = max(0, k * straddle_stride - rng.randint(1, size - 1))
            return base, size
        return pick_loc(), size

    instrs: List[Instr] = []
    for _ in range(length):
        op = rng.choice(list(ops))
        if op is Op.WRITE:
            instrs.append(Instr.write(pick_loc()))
        elif op is Op.READ:
            instrs.append(Instr.read(pick_loc()))
        elif op is Op.MALLOC:
            base, size = pick_base_size()
            instrs.append(Instr.malloc(base, size))
        elif op is Op.FREE:
            base, size = pick_base_size()
            instrs.append(Instr.free(base, size))
        elif op is Op.ASSIGN:
            dst = pick_loc()
            srcs = [pick_loc() for _ in range(rng.randint(1, 2))]
            instrs.append(Instr.assign(dst, *srcs))
        elif op is Op.TAINT:
            instrs.append(Instr.taint(pick_loc()))
        elif op is Op.UNTAINT:
            instrs.append(Instr.untaint(pick_loc()))
        elif op is Op.JUMP:
            instrs.append(Instr.jump(pick_loc()))
        else:
            instrs.append(Instr.nop())
    return instrs


#: :func:`simulated_alloc_program`: the chance that an event accesses an
#: allocated location rather than allocating or freeing one.
ACCESS_BIAS = 0.6


def simulated_alloc_program(
    rng: random.Random,
    num_threads: int = 2,
    total_events: int = 32,
    num_locations: int = 8,
    inject_error_rate: float = 0.0,
) -> TraceProgram:
    """Simulate a correct (or deliberately buggy) allocating execution.

    A global scheduler interleaves threads one event at a time.  Each
    event respects the *current* global allocation state: threads only
    access or free allocated locations and only allocate free ones, so
    the recorded execution contains no true AddrCheck errors -- unless
    ``inject_error_rate`` > 0, in which case illegal events (access to
    unallocated memory, double free, double malloc) are mixed in and any
    lifeguard must flag them.
    """
    allocated: set = set()
    traces: List[List[Instr]] = [[] for _ in range(num_threads)]
    order: List[GlobalRef] = []

    for _ in range(total_events):
        t = rng.randrange(num_threads)
        bad = rng.random() < inject_error_rate
        instr = _next_alloc_event(rng, allocated, num_locations, bad)
        order.append((t, len(traces[t])))
        traces[t].append(instr)
        # Track state transitions regardless of legality (a double free
        # still leaves the location free, etc.).
        if instr.op is Op.MALLOC:
            allocated.update(instr.extent)
        elif instr.op is Op.FREE:
            allocated.difference_update(instr.extent)

    program = TraceProgram([ThreadTrace(tr) for tr in traces], true_order=order)
    program.validate()
    return program


#: :func:`alloc_handoff_program`: global events between two handoffs,
#: and how many of the newest allocations the accesses target.
HANDOFF_PERIOD = 12
RECENCY_WINDOW = 4


def alloc_handoff_program(
    rng: random.Random,
    num_threads: int = 4,
    events_per_thread: int = 256,
    num_locations: int = 64,
) -> TraceProgram:
    """An allocation-*handoff* execution: the epoch-size FP workload.

    One thread mallocs a location; the other threads immediately start
    using it.  In the recorded order every access is strictly after its
    malloc (zero true AddrCheck errors), but under butterfly analysis
    the malloc stays *concurrent* with roughly one epoch's worth of the
    accesses that follow it -- those accesses see the location outside
    the LSOS and are flagged.  The number of accesses inside that
    uncertainty window scales with the epoch size, so this workload's
    false-positive rate grows with ``h`` (the paper's Figure 13 shape),
    which is what ``repro sweep --benchmark HANDOFF`` charts and what
    makes epoch-size tuning a real precision/latency tradeoff.  (Contrast
    :func:`simulated_alloc_program`, whose uniform churn produces FPs
    dominated by stale *frees* instead.)

    Every ``HANDOFF_PERIOD`` global events the scheduled thread
    allocates a fresh location; accesses always target the
    ``RECENCY_WINDOW`` most recent allocations (recency is what keeps
    accesses near their malloc); retired locations are freed only after
    falling out of use, so frees are strictly ordered too.
    """
    traces: List[List[Instr]] = [[] for _ in range(num_threads)]
    order: List[GlobalRef] = []
    live: List[int] = []  # allocation order, oldest first
    next_loc = 0
    total_events = num_threads * events_per_thread

    def schedule() -> int:
        open_threads = [
            t for t in range(num_threads)
            if len(traces[t]) < events_per_thread
        ]
        return rng.choice(open_threads)

    for step in range(total_events):
        t = schedule()
        instr: Instr
        if step % HANDOFF_PERIOD == 0 and len(live) < num_locations:
            free_choices = [
                loc for loc in range(num_locations) if loc not in live
            ]
            loc = free_choices[next_loc % len(free_choices)]
            next_loc += 1
            live.append(loc)
            instr = Instr.malloc(loc)
        elif len(live) > 2 * RECENCY_WINDOW and rng.random() < 0.1:
            # Retire the oldest allocation: long strictly-ordered by
            # now, so the free itself is never uncertain.
            instr = Instr.free(live.pop(0))
        elif live:
            recent = live[-RECENCY_WINDOW:]
            loc = rng.choice(recent)
            instr = (
                Instr.read(loc) if rng.random() < 0.5 else Instr.write(loc)
            )
        else:
            instr = Instr.nop()
        order.append((t, len(traces[t])))
        traces[t].append(instr)

    program = TraceProgram(
        [ThreadTrace(tr) for tr in traces], true_order=order
    )
    program.validate()
    return program


def _next_alloc_event(
    rng: random.Random,
    allocated: set,
    num_locations: int,
    bad: bool,
) -> Instr:
    free_locs = [x for x in range(num_locations) if x not in allocated]
    alloc_locs = sorted(allocated)
    if bad:
        # Deliberately illegal event (true error under every ordering).
        choices = []
        if free_locs:
            choices.append("access_free")
            choices.append("double_free")
        if alloc_locs:
            choices.append("double_malloc")
        if not choices:
            return Instr.nop()
        kind = rng.choice(choices)
        if kind == "access_free":
            loc = rng.choice(free_locs)
            return Instr.read(loc) if rng.random() < 0.5 else Instr.write(loc)
        if kind == "double_free":
            return Instr.free(rng.choice(free_locs))
        return Instr.malloc(rng.choice(alloc_locs))

    if alloc_locs and rng.random() < ACCESS_BIAS:
        loc = rng.choice(alloc_locs)
        return Instr.read(loc) if rng.random() < 0.5 else Instr.write(loc)
    if free_locs and (not alloc_locs or rng.random() < 0.5):
        return Instr.malloc(rng.choice(free_locs))
    if alloc_locs:
        return Instr.free(rng.choice(alloc_locs))
    return Instr.nop()


class _ColumnarSource(EpochSource):
    """What the two columnar-native generators share: the shape check,
    the row loop and the size.

    Block ``(l, t)`` is ``_block_columns(l, t)``, a pure function of
    ``(seed, l, t)``, so ``epochs(start)`` regenerates identical blocks
    on checkpoint resume, and every consumer -- both kernels, a stream
    dump -- sees the same trace.
    """

    def __init__(
        self,
        seed: int,
        num_threads: int,
        num_epochs: int,
        events_per_block: int,
        num_locations: int,
        error_rate: float,
        preallocated: Sequence[int] = (),
    ) -> None:
        if events_per_block < 1 or num_epochs < 0 or num_threads < 1:
            raise ValueError("bad workload shape")
        super().__init__(num_threads, num_epochs, preallocated)
        self.seed = seed
        self.events_per_block = events_per_block
        self.num_locations = num_locations
        self.error_rate = error_rate

    @property
    def total_events(self) -> int:
        return self.num_threads * self.num_epochs * self.events_per_block

    def epochs(self, start: int = 0) -> Iterator[List[Block]]:
        h = self.events_per_block
        for lid in range(start, self.num_epochs):
            yield [
                Block(lid, tid, lid * h, columns=self._block_columns(lid, tid))
                for tid in range(self.num_threads)
            ]

    def as_objects(self) -> "_ColumnarSource":
        """This source itself, as the reference leg's source: a block
        the per-``Instr`` kernel (``use_columnar_kernel=False``) scans
        materializes its ``Instr`` objects on first read, so the
        consumer pays for them."""
        return self


class ColumnarAllocSource(_ColumnarSource):
    """Columnar-native allocation workload for large-trace benchmarks.

    Synthesizes an AddrCheck-style workload *directly as column
    arrays*: no :class:`Instr` is ever created on this path, which is
    what lets the bench measure the vector kernels against traces of
    tens of millions of events without generator overhead dominating.

    Shape: every thread's block holds ``events_per_block`` events --
    mostly READ/WRITE over a preallocated pool of ``num_locations``
    addresses (always legal), with a MALLOC/FREE pair of the thread's
    private scratch location every ``change_period`` events (legal, and
    isolation-silent because no other thread touches it).  With
    ``error_rate`` > 0 a fraction of accesses target a never-allocated
    location instead, each a guaranteed first-pass error.
    """

    def __init__(
        self,
        seed: int,
        num_threads: int = 4,
        num_epochs: int = 16,
        events_per_block: int = 4096,
        num_locations: int = 256,
        change_period: int = 128,
        error_rate: float = 0.0,
    ) -> None:
        if change_period < 2:
            raise ValueError("change_period must be >= 2")
        super().__init__(
            seed, num_threads, num_epochs, events_per_block, num_locations,
            error_rate, preallocated=range(num_locations),
        )
        self.change_period = change_period
        #: One never-touched-by-others scratch location per thread.
        self._scratch_base = num_locations
        #: Accesses with injected errors hit this never-allocated slot.
        self._bad_loc = num_locations + num_threads

    def _block_columns(self, lid: int, tid: int) -> ColumnarBlock:
        h = self.events_per_block
        scratch = self._scratch_base + tid
        # Change slots: one every change_period events, alternating
        # MALLOC/FREE.  Parity continues across blocks so the scratch
        # location's allocation state stays consistent for any h.
        per_block = h // self.change_period
        start_parity = (lid * per_block) % 2
        rng = np.random.default_rng((self.seed, lid, tid))
        is_write = rng.integers(0, 2, size=h, dtype=np.int64)
        loc = rng.integers(0, self.num_locations, size=h, dtype=np.int64)
        if self.error_rate > 0.0:
            loc[rng.random(h) < self.error_rate] = self._bad_loc
        ops = np.where(is_write, OP_WRITE, OP_READ).astype(np.uint8)
        dst = np.where(is_write, loc, NO_DST)
        change_pos = np.arange(
            self.change_period - 1, h, self.change_period, dtype=np.int64
        )
        parities = (np.arange(change_pos.shape[0]) + start_parity) % 2
        ops[change_pos] = np.where(parities == 0, OP_MALLOC, OP_FREE)
        dst[change_pos] = scratch
        is_read = ops == OP_READ
        src_off = np.zeros(h + 1, dtype=np.int64)
        np.cumsum(is_read.astype(np.int64), out=src_off[1:])
        src_val = loc[is_read]
        size = np.ones(h, dtype=np.int64)
        return ColumnarBlock(h, ops, dst, size, src_off, src_val)


class ColumnarTaintSource(_ColumnarSource):
    """Columnar-native TaintCheck workload for large-trace benchmarks.

    The taint analog of :class:`ColumnarAllocSource`: blocks are
    synthesized directly as column arrays, READ-heavy (READs never move
    taint, so they are exactly the rows the vector kernels skip) with a
    sparse taint chain every ``taint_period`` events.  The chain cycles
    through the four taint-relevant shapes on two thread-private
    scratch locations ``s``/``p``:

    ``TAINT s`` -> ``ASSIGN p := s`` -> ``JUMP`` -> ``UNTAINT s``

    The JUMP step targets a plain data location (never tainted, so the
    trace is error-free) unless ``error_rate`` rolls an injected error,
    in which case it targets ``p`` -- tainted in program order by the
    preceding ASSIGN and untouched by every other thread, hence a true
    TAINTED_JUMP under *every* valid ordering.
    """

    def __init__(
        self,
        seed: int,
        num_threads: int = 4,
        num_epochs: int = 16,
        events_per_block: int = 4096,
        num_locations: int = 256,
        taint_period: int = 128,
        error_rate: float = 0.0,
    ) -> None:
        if taint_period < 2:
            raise ValueError("taint_period must be >= 2")
        super().__init__(
            seed, num_threads, num_epochs, events_per_block, num_locations,
            error_rate,
        )
        self.taint_period = taint_period

    def _scratch(self, tid: int) -> tuple:
        base = self.num_locations + 2 * tid
        return base, base + 1

    def _block_columns(self, lid: int, tid: int) -> ColumnarBlock:
        h = self.events_per_block
        s, p = self._scratch(tid)
        # The 4-step chain continues across blocks so each JUMP-at-p
        # slot is preceded (in program order) by its TAINT/ASSIGN pair.
        per_block = h // self.taint_period
        start_step = (lid * per_block) % 4
        rng = np.random.default_rng((self.seed, lid, tid))
        loc = rng.integers(0, self.num_locations, size=h, dtype=np.int64)
        ops = np.full(h, OP_READ, dtype=np.uint8)
        dst = np.full(h, NO_DST, dtype=np.int64)
        srcv = loc.copy()
        counts = np.ones(h, dtype=np.int64)
        slots = np.arange(
            self.taint_period - 1, h, self.taint_period, dtype=np.int64
        )
        steps = (np.arange(slots.shape[0]) + start_step) % 4
        ops[slots] = np.array(
            [OP_TAINT, OP_ASSIGN, OP_JUMP, OP_UNTAINT], dtype=np.uint8
        )[steps]
        dst[slots] = np.array([s, p, NO_DST, s], dtype=np.int64)[steps]
        counts[slots[(steps == 0) | (steps == 3)]] = 0
        srcv[slots[steps == 1]] = s
        jump_slots = slots[steps == 2]
        if self.error_rate > 0.0 and jump_slots.shape[0]:
            bad = rng.random(jump_slots.shape[0]) < self.error_rate
            targets = loc[jump_slots].copy()
            targets[bad] = p
            srcv[jump_slots] = targets
        src_off = np.zeros(h + 1, dtype=np.int64)
        np.cumsum(counts, out=src_off[1:])
        src_val = srcv[counts == 1]
        size = np.ones(h, dtype=np.int64)
        return ColumnarBlock(h, ops, dst, size, src_off, src_val)


def simulated_taint_program(
    rng: random.Random,
    num_threads: int = 2,
    total_events: int = 32,
    num_locations: int = 8,
    taint_rate: float = 0.1,
    untaint_rate: float = 0.1,
    jump_rate: float = 0.1,
) -> TraceProgram:
    """Simulate an execution mixing taint sources, propagation and uses.

    The recorded interleaving is the ground truth for whether each JUMP
    consumed tainted data; sequential TaintCheck over ``true_order``
    computes the true error set.
    """
    traces: List[List[Instr]] = [[] for _ in range(num_threads)]
    order: List[GlobalRef] = []

    for _ in range(total_events):
        t = rng.randrange(num_threads)
        r = rng.random()
        if r < taint_rate:
            instr = Instr.taint(rng.randrange(num_locations))
        elif r < taint_rate + untaint_rate:
            instr = Instr.untaint(rng.randrange(num_locations))
        elif r < taint_rate + untaint_rate + jump_rate:
            instr = Instr.jump(rng.randrange(num_locations))
        else:
            dst = rng.randrange(num_locations)
            nsrc = rng.randint(1, 2)
            srcs = [rng.randrange(num_locations) for _ in range(nsrc)]
            instr = Instr.assign(dst, *srcs)
        order.append((t, len(traces[t])))
        traces[t].append(instr)

    program = TraceProgram([ThreadTrace(tr) for tr in traces], true_order=order)
    program.validate()
    return program
