"""Uncertainty epochs and blocks (paper Section 4.1).

A heartbeat signal partitions each thread's dynamic trace into *blocks*;
the ``l``-th block of every thread together forms *epoch* ``l``.  Epoch
boundaries are not synchronized across threads (heartbeat delivery skews),
so blocks within an epoch may have different sizes -- the model only
guarantees that instructions in non-adjacent epochs are strictly ordered.

A block is addressed by ``(l, t)`` and an instruction by ``(l, t, i)``
with ``i`` an offset from the block start, exactly the paper's notation.

Heartbeat policies
------------------

Where the cuts land is a *policy*, not a property of the partition: the
paper's prototype fires a heartbeat every ``h`` events, but nothing in
the analysis depends on that -- only on the boundary stream itself.
Each policy is one function from a program to an
:class:`EpochPartition` (:func:`partition_fixed`,
:func:`partition_by_global_order`, :func:`partition_with_skew`,
:func:`partition_auto`, :func:`partition_from_boundaries`), and the
partition's explicit ``boundaries`` are what travels on.  Downstream
layers (the stream writer, checkpoints, the serve daemon) carry
those *explicit boundaries*, never the policy's parameters, so
re-running, resuming, or re-checking a trace always reproduces
identical cuts -- the invariant the differential harness's
variable-partition mode enforces.

The one *online* policy lives here too: an :class:`EpochController`
picks how many producer epochs the engine coalesces into one analysis
epoch (:func:`merge_block_run`) -- a coarser heartbeat chosen while the
run is live, recorded as explicit boundaries like every other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import ColumnarBlock
from repro.errors import PartitionError, ReproError
from repro.trace.events import Instr

if TYPE_CHECKING:  # trace.program builds its columns with core.columnar
    from repro.trace.program import GlobalRef, TraceProgram

#: A block address (epoch id, thread id).
BlockId = Tuple[int, int]
#: An instruction address (epoch id, thread id, offset in block).
InstrId = Tuple[int, int, int]


class Block:
    """A contiguous run of one thread's instructions within one epoch.

    A block's events are a :class:`~repro.core.columnar.ColumnarBlock`
    of parallel arrays, which the lifeguards' first-pass kernels scan.
    ``instrs`` is the same events as :class:`Instr` objects, for what
    iterates them (the dataflow analyses, the reference kernels): a
    partition of a thread built from ``Instr`` objects (a fuzz or test
    program) hands over the program's own (never rebuilt from the
    columns a reference is diffed against); any other block -- a
    registered workload's, a trace file's -- materializes them from the
    columns on first use.

    Blocks are immutable value objects: equality and hashing use the
    block address plus event content.  Pickling ships the columns only
    -- a few flat byte strings instead of a tree of per-event objects
    -- which is what makes process-pool task payloads cheap.
    """

    __slots__ = ("lid", "tid", "start", "block_id", "columns", "_instrs")

    def __init__(
        self,
        lid: int,
        tid: int,
        start: int,
        columns: ColumnarBlock,
        instrs: Optional[Tuple[Instr, ...]] = None,
    ) -> None:
        self.lid = lid
        self.tid = tid
        #: ``(lid, tid)``, built once: the engine and the lifeguards key
        #: every per-block table by it.
        self.block_id: BlockId = (lid, tid)
        #: offset of the first instruction within the thread trace
        self.start = start
        self.columns = columns
        self._instrs = instrs

    @property
    def instrs(self) -> Tuple[Instr, ...]:
        """The events as ``Instr`` objects (materialized on demand)."""
        if self._instrs is None:
            self._instrs = self.columns.to_instrs()
        return self._instrs

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def iter_ids(self) -> Iterator[Tuple[InstrId, Instr]]:
        """Iterate ``((l, t, i), instr)`` pairs."""
        for i, instr in enumerate(self.instrs):
            yield (self.lid, self.tid, i), instr

    def global_ref(self, i: int) -> GlobalRef:
        """Map offset ``i`` back to a ``(thread, trace index)`` ref."""
        return (self.tid, self.start + i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return (self.lid, self.tid, self.start, self.columns) == (
            other.lid, other.tid, other.start, other.columns
        )

    def __hash__(self) -> int:
        return hash((self.lid, self.tid, self.start, len(self)))

    def __repr__(self) -> str:
        return (
            f"Block(lid={self.lid}, tid={self.tid}, start={self.start}, "
            f"len={len(self)})"
        )

    def __getstate__(self):
        # Ship columns, never Instr objects: the columnar wire form is
        # flat bytes, so pool tasks carry no per-event object graph.
        return (self.lid, self.tid, self.start, self.columns)

    def __setstate__(self, state) -> None:
        self.lid, self.tid, self.start, self.columns = state
        self.block_id = (self.lid, self.tid)
        self._instrs = None


class EpochPartition:
    """A trace program cut into epochs.

    ``boundaries[t]`` is the strictly increasing list of cut points in
    thread ``t``'s trace (exclusive block ends), with the final entry
    equal to the trace length.  All threads have the same number of
    blocks (trailing blocks may be empty), so every epoch is a full row.
    """

    def __init__(
        self, program: TraceProgram, boundaries: Sequence[Sequence[int]]
    ) -> None:
        if len(boundaries) != program.num_threads:
            raise PartitionError(
                "need one boundary list per thread "
                f"({len(boundaries)} given, {program.num_threads} threads)"
            )
        num_epochs = None
        for t, cuts in enumerate(boundaries):
            n = len(program.threads[t])
            if not cuts or cuts[-1] != n:
                raise PartitionError(
                    f"thread {t}: boundaries must end at trace length {n}"
                )
            if any(b < a for a, b in zip(cuts, cuts[1:])):
                raise PartitionError(f"thread {t}: boundaries must be sorted")
            if any(c < 0 for c in cuts):
                raise PartitionError(f"thread {t}: negative boundary")
            if num_epochs is None:
                num_epochs = len(cuts)
            elif len(cuts) != num_epochs:
                raise PartitionError(
                    "all threads must have the same epoch count "
                    f"(thread {t} has {len(cuts)}, expected {num_epochs})"
                )
        self.program = program
        self.boundaries = [list(cuts) for cuts in boundaries]
        self._num_epochs = num_epochs or 0
        self._blocks: dict = {}

    # -- shape --------------------------------------------------------

    @property
    def num_epochs(self) -> int:
        return self._num_epochs

    @property
    def num_threads(self) -> int:
        return self.program.num_threads

    # -- access ---------------------------------------------------------

    def block(self, lid: int, tid: int) -> Block:
        """The block ``(l, t)``; empty tuple blocks are legal."""
        key = (lid, tid)
        cached = self._blocks.get(key)
        if cached is not None:
            return cached
        if not 0 <= lid < self._num_epochs:
            raise PartitionError(f"epoch {lid} out of range")
        if not 0 <= tid < self.num_threads:
            raise PartitionError(f"thread {tid} out of range")
        cuts = self.boundaries[tid]
        start = cuts[lid - 1] if lid > 0 else 0
        end = cuts[lid]
        trace = self.program.threads[tid]
        blk = Block(lid, tid, start, *trace.cut(start, end))
        self._blocks[key] = blk
        return blk

    def epoch_blocks(self, lid: int) -> List[Block]:
        """All blocks in epoch ``l``, one per thread."""
        return [self.block(lid, t) for t in range(self.num_threads)]

    def iter_blocks(self) -> Iterator[Block]:
        for lid in range(self._num_epochs):
            for tid in range(self.num_threads):
                yield self.block(lid, tid)

    def evict_blocks(self, older_than: int) -> None:
        """Drop cached :class:`Block` objects for epochs ``< older_than``.

        The cache is semantically transparent -- :meth:`block` rebuilds
        an evicted entry on demand -- but left alone it grows one entry
        per block ever touched, O(total blocks).  The engine (and
        :class:`~repro.core.stream.PartitionSource`) evict it in step
        with the sliding window so a long run's bookkeeping stays
        O(window).
        """
        for key in [k for k in self._blocks if k[0] < older_than]:
            del self._blocks[key]

    def instr(self, iid: InstrId) -> Instr:
        lid, tid, i = iid
        return self.block(lid, tid).instrs[i]

    def global_ref_of(self, iid: InstrId) -> GlobalRef:
        lid, tid, i = iid
        return self.block(lid, tid).global_ref(i)


# ---------------------------------------------------------------------------
# Heartbeat policies: program -> partition
# ---------------------------------------------------------------------------


def _check_epoch_size(epoch_size: int) -> None:
    if epoch_size < 1:
        raise PartitionError("epoch_size must be >= 1")


def _epoch_count(lengths: Sequence[int], epoch_size: int) -> int:
    _check_epoch_size(epoch_size)
    return max(1, max((-(-n // epoch_size) for n in lengths), default=1))


def partition_fixed(program: TraceProgram, epoch_size: int) -> EpochPartition:
    """A heartbeat every ``epoch_size`` instructions of each thread.

    This is the LBA software heartbeat of Section 7.1: a marker is
    inserted into each thread's log every ``h`` instructions.
    """
    lengths = [len(t) for t in program.threads]
    num_epochs = _epoch_count(lengths, epoch_size)
    return EpochPartition(program, [
        [min((k + 1) * epoch_size, n) for k in range(num_epochs)]
        for n in lengths
    ])


def partition_with_skew(
    program: TraceProgram,
    epoch_size: int,
    max_skew: int,
    rng: Optional[random.Random] = None,
) -> EpochPartition:
    """Fixed-size epochs with per-thread heartbeat delivery jitter.

    Each boundary lands within ``max_skew`` instructions of its nominal
    position, modelling non-simultaneous heartbeat reception (Section
    4.1).  ``max_skew`` must be less than half the epoch size so that
    blocks never invert.  Determinism: the jitter stream is drawn from
    ``rng`` (default ``random.Random(0)``) in a fixed thread-major,
    cut-minor order, so equal seeds cut equally.
    """
    lengths = [len(t) for t in program.threads]
    num_epochs = _epoch_count(lengths, epoch_size)
    if max_skew < 0 or 2 * max_skew >= epoch_size:
        raise PartitionError("max_skew must satisfy 0 <= 2*skew < epoch_size")
    if rng is None:
        rng = random.Random(0)
    boundaries = []
    for n in lengths:
        cuts = []
        for k in range(num_epochs - 1):
            nominal = (k + 1) * epoch_size
            jitter = rng.randint(-max_skew, max_skew)
            cuts.append(max(0, min(nominal + jitter, n)))
        cuts.append(n)
        # Jitter near the trace tail can produce non-monotone cuts;
        # clamp forward so every cut list stays sorted.
        for k in range(1, len(cuts)):
            cuts[k] = max(cuts[k], cuts[k - 1])
        boundaries.append(cuts)
    return EpochPartition(program, boundaries)


def partition_by_global_order(
    program: TraceProgram, epoch_size: int
) -> EpochPartition:
    """Heartbeats in *global execution time* (the paper's footnote 4).

    The LBA prototype issues a heartbeat after ``h * n`` instructions
    have executed across all ``n`` application threads, cutting every
    thread's log at its position *at that moment*; block sizes therefore
    differ across threads ("Butterfly analysis does not require balanced
    workloads within an epoch").  Requires the trace's recorded
    ground-truth order as the notion of time.
    """
    _check_epoch_size(epoch_size)
    ids = program.recorded_order()
    interval = epoch_size * program.num_threads
    # Global event counts at which a heartbeat fires; thread t's cut
    # there is how many of its events the schedule ran before it.
    beats = np.arange(interval, len(ids) + 1, interval)
    # Close the final epoch at each trace's end.  When the last
    # heartbeat landed exactly at the end, a final (possibly empty)
    # epoch is still appended so every thread agrees.
    boundaries = [
        np.searchsorted(np.flatnonzero(ids == tid), beats).tolist()
        + [len(trace)]
        for tid, trace in enumerate(program.threads)
    ]
    return EpochPartition(program, boundaries)


def partition_auto(program: TraceProgram, epoch_size: int) -> EpochPartition:
    """The LBA substrate's default cutting rule: heartbeats fire in
    *execution time* when the trace recorded its ground-truth global
    order (paper footnote 4), and per-thread instruction counts
    otherwise.  Shared by the CLI, the LBA simulator and the streaming
    trace writer so every path cuts a given trace identically."""
    if program.true_order is not None:
        return partition_by_global_order(program, epoch_size)
    return partition_fixed(program, epoch_size)


def partition_from_boundaries(
    program: TraceProgram, boundaries: Sequence[Sequence[int]]
) -> EpochPartition:
    """A recorded boundary stream replayed verbatim.

    This is how cuts travel between layers: resume replays the
    boundaries the interrupted run recorded, the adaptive serve daemon's
    offline re-check replays the boundaries the controller actually
    chose, and tests hand-craft irregular geometries.
    """
    return EpochPartition(program, boundaries)


# ---------------------------------------------------------------------------
# Online coalescing: the fold-factor controller (a coarser heartbeat)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SloConfig:
    """The latency/precision SLO the controller holds.

    ``target_fold_ms`` is the hard latency objective: one fold (receive
    + first pass + the previous epoch's second pass) must not take
    longer than this, or results are arriving late.  The queue
    watermarks steer precision: a backed-up queue means the producer is
    bursting and per-epoch overhead is the bottleneck (grow the fold),
    a drained queue means there is headroom to run precise (shrink
    toward ``min_fold``).
    """

    target_fold_ms: float = 50.0
    queue_high: int = 3
    queue_low: int = 1
    min_fold: int = 1
    max_fold: int = 64

    def __post_init__(self) -> None:
        if self.min_fold < 1:
            raise ReproError("min_fold must be >= 1")
        if self.max_fold < self.min_fold:
            raise ReproError("max_fold must be >= min_fold")
        if self.target_fold_ms <= 0:
            raise ReproError("target_fold_ms must be > 0")


class EpochController:
    """Deterministic fold-factor control loop (AIMD-flavoured).

    Grows multiplicatively under burst (a deep queue doubles the fold:
    catching up is urgent and amortization is the only lever), shrinks
    additively when the queue drains (precision is cheap again), and
    halves outright when a fold breaches the latency SLO -- the one
    signal that must win every argument.  A fold that surfaced new
    errors shrinks by one before the queue gets a say.  Decisions
    depend only on the observation stream, so a replayed observation
    sequence reproduces the same fold factors; live runs are still timing-dependent, which
    is why the engine records the boundaries it used instead of
    assuming anyone can re-derive them.
    """

    def __init__(self, slo: Optional[SloConfig] = None) -> None:
        self.slo = slo or SloConfig()
        self.fold_factor = self.slo.min_fold
        self.observations = 0
        self.slo_breaches = 0

    def observe(
        self,
        queue_depth: int,
        fold_ns: int,
        rows: int,
        errors_delta: int = 0,
    ) -> int:
        """Fold ``rows`` producer rows took ``fold_ns`` with
        ``queue_depth`` rows still waiting; returns the next fold
        factor."""
        slo = self.slo
        self.observations += 1
        if fold_ns > slo.target_fold_ms * 1e6:
            self.slo_breaches += 1
            self.fold_factor = max(slo.min_fold, self.fold_factor // 2)
        elif errors_delta > 0:
            # Reports are exactly the signal precision exists for, so
            # bias toward tight windows while they are firing.
            self.fold_factor = max(slo.min_fold, self.fold_factor - 1)
        elif queue_depth >= slo.queue_high:
            self.fold_factor = min(slo.max_fold, self.fold_factor * 2)
        elif queue_depth <= slo.queue_low:
            self.fold_factor = max(slo.min_fold, self.fold_factor - 1)
        return self.fold_factor


def merge_block_run(lid: int, blocks: Sequence[Block]) -> Block:
    """One thread's consecutive blocks -> one block at epoch ``lid``.

    The columns are concatenated (the serve hot path: stream rows decode
    straight to columns).  ``start`` is inherited from the first block,
    so the merged block's global refs are identical to the unmerged
    ones'.
    """
    first = blocks[0]
    if len(blocks) == 1:
        if first.lid == lid:
            return first
        return Block(lid, first.tid, first.start, first.columns, first._instrs)
    merged = ColumnarBlock.concat([b.columns for b in blocks])
    return Block(lid, first.tid, first.start, merged)
