"""The generic two-pass butterfly engine (paper Section 4.3).

The lifeguard writer supplies a :class:`ButterflyAnalysis`; the engine
sequences the four steps over the sliding window:

1. **first pass** -- each newly received block is analyzed with locally
   available state only, producing a summary;
2. **meet** -- for each body block whose full wings are now available,
   the wing summaries are combined;
3. **second pass** -- the body is re-analyzed with wing state and the
   lifeguard's checks run;
4. **epoch update** -- once every body in an epoch finished its second
   pass, the epoch is summarized and ``SOS_{l+2}`` is published.

A butterfly with body in epoch ``l`` needs epoch ``l+1`` in its wings,
so the engine processes bodies one epoch behind the newest received
epoch; the final epoch's bodies run once the trace ends (their wings
simply lack a ``l+1`` row, mirroring the paper's first/last butterflies).

Parallel execution
------------------

Steps 1 and 3 are embarrassingly parallel across the threads of an
epoch (the paper's whole point), and the engine can fan them out over
an :class:`~repro.core.parallel.ExecutionBackend`.  To keep results
bit-identical to the serial schedule, a parallelizable analysis splits
each pass into a *pure* stage and an ordered *commit* stage:

- first pass: ``first_pass_context`` (serial; may read published
  state), a picklable *scanner* from ``make_scanner`` (pure; fans out),
  and ``commit_scan`` (serial, ascending thread order);
- second pass: ``meet`` + ``check_body`` (pure given published
  summaries; fan out) and ``commit_check`` (serial, ascending thread
  order).

Analyses advertise the split via ``parallel_first_pass`` /
``parallel_second_pass``; everything else transparently runs on the
serial path, so legacy analyses that override ``first_pass`` /
``second_pass`` directly keep working on any backend.

The same independence serves the serial schedule: before calling
``first_pass`` block by block it announces the row (``stage_row``), and
the first call scans the whole row (``Scanner.scan_row``), which the
columnar kernels do as one stream.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Generic, Iterator, List, Optional,
    Sequence, Tuple, TypeVar, Union,
)

from repro.core.epoch import (
    Block,
    BlockId,
    EpochController,
    EpochPartition,
    merge_block_run,
)
from repro.core.parallel import ExecutionBackend, get_backend
from repro.core.stream import EpochSource
from repro.core.window import Butterfly, butterflies_for_epoch
from repro.errors import AnalysisError, CheckpointError
from repro.obs.recorder import NULL_RECORDER, Recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.checkpoint import Checkpoint

Summary = TypeVar("Summary")
SideIn = TypeVar("SideIn")

class Scanner:
    """A pure, picklable first-pass work unit: ``scanner(block, context)``
    scans one block (what a pooled backend fans out), :meth:`scan_row`
    an epoch row's ``(block, context)`` pairs (what the serial schedule
    calls).  A kernel defines one; the other defaults to it."""

    def __call__(self, block: Block, context: Any) -> Any:
        return self.scan_row([(block, context)])[0]

    def scan_row(self, items: Sequence[Tuple[Block, Any]]) -> List[Any]:
        return [self(block, context) for block, context in items]


#: Most events a columnar row scan (AddrCheck's, TaintCheck's) hands its
#: kernel as one group: a factor of two below the group sizes that lost
#: to per-block scans on some run (docs/perf.md, "One scan per row").
GROUP_EVENTS = 4096


def row_groups(
    items: Sequence[Tuple[Block, Any]], same: Optional[Callable] = None
) -> Iterator[List[Tuple[Block, Any]]]:
    """An epoch row's ``(block, context)`` items in the groups a columnar
    kernel scans as one stream: consecutive items of summed length within
    :data:`GROUP_EVENTS` whose contexts ``same(first, context)`` pairs."""
    group: List[Tuple[Block, Any]] = []
    events = 0
    for item in items:
        n = len(item[0])
        if group and (
            events + n > GROUP_EVENTS
            or (same is not None and not same(group[0][1], item[1]))
        ):
            yield group
            group, events = [], 0
        group.append(item)
        events += n
    if group:
        yield group


@dataclass
class EngineStats:
    """Work counters the timing substrate converts into cycles."""

    epochs_processed: int = 0
    first_pass_instructions: int = 0
    second_pass_instructions: int = 0
    meets: int = 0
    wing_summaries_combined: int = 0


class ButterflyAnalysis(abc.ABC, Generic[Summary, SideIn]):
    """Lifeguard-writer interface: the four knobs of Section 4.3.

    Implementations own their SOS/LSOS (update rules differ between the
    reaching-definitions and reaching-expressions families) and their
    error reporting.

    Subclasses implement either the classic whole-pass methods
    (``first_pass`` / ``second_pass``) or the split stages documented in
    the module docstring; the default whole-pass methods compose the
    split stages, so implementing the split gives both execution modes.
    """

    #: Set True when the scan stage may fan out across an epoch's
    #: blocks.  Requires ``make_scanner``/``commit_scan``, and
    #: ``first_pass_context`` must not depend on same-epoch commits.
    parallel_first_pass: bool = False
    #: Set True when ``meet``/``check_body`` only read published state
    #: and all mutation happens in ``commit_check``.
    parallel_second_pass: bool = False

    #: The announced row until its first ``first_pass`` scans it, then
    #: the ``(block, scan)`` pairs still to commit, last thread first.
    _staged_row: Sequence[Block] = ()
    _staged_scans: Sequence[Tuple[Block, Any]] = ()

    #: Observability hook; the engine points this at its own recorder on
    #: :meth:`ButterflyEngine.attach`.  Lifeguards emit error-provenance
    #: events through it from their serial commit paths only (guarded by
    #: ``recorder.enabled`` so the disabled path stays free).
    recorder: Recorder = NULL_RECORDER

    @cached_property
    def summaries(self) -> Dict[BlockId, Summary]:
        """The summary window, ``BlockId`` -> first-pass summary: the
        engine alone fills and evicts it, the hooks only read it."""
        return {}

    def emit_metrics(self, recorder: Recorder) -> None:
        """Publish end-of-run gauges (footprint sizes, conflict counts,
        ...) to ``recorder``.  Called once by the engine after
        the final epoch; the default publishes nothing."""

    # -- step 1 ----------------------------------------------------------

    def first_pass_context(self, block: Block) -> Any:
        """Serial pre-stage: snapshot the published state the scanner
        needs (e.g. the LSOS).  Must not depend on commits of blocks in
        ``block``'s own epoch."""
        return None

    def make_scanner(self) -> Optional[Scanner]:
        """A pure, picklable ``(block, context) -> scan`` callable, or
        ``None`` when the analysis does not implement the split."""
        return None

    def commit_scan(self, block: Block, scan: Any) -> Summary:
        """Ordered post-stage: apply a scan's effects (errors, counters)
        to shared state; return the block summary (by default, the scan)."""
        return scan

    def stage_row(self, blocks: Sequence[Block]) -> None:
        """Announce the epoch row the serial schedule is about to hand
        to :meth:`first_pass` block by block, in this order (``()``
        once it is through, or abandoned).  Only sent when
        ``parallel_first_pass`` is set, so every context of the row may
        be computed before any of its commits."""
        self._staged_row = blocks
        self._staged_scans = ()

    def first_pass(self, block: Block) -> Summary:
        """Step 1: analyze ``block`` with local state; return its summary
        (a staged row is scanned whole by its first call)."""
        scanner = self._scanner()
        if scanner is None:
            raise NotImplementedError(
                "implement first_pass() or the make_scanner()/commit_scan() split"
            )
        pending = self._staged_scans
        if not (pending and pending[-1][0] is block):
            row, self._staged_row = self._staged_row, ()
            if not (row and row[0] is block):
                row = (block,)
            items = [(b, self.first_pass_context(b)) for b in row]
            scans = scanner.scan_row(items)
            pending = self._staged_scans = list(zip(row, scans))[::-1]
        return self.commit_scan(*pending.pop())

    def _scanner(self) -> Optional[Scanner]:
        cache = self.__dict__
        if "_scanner_cache" not in cache:
            cache["_scanner_cache"] = self.make_scanner()
        return cache["_scanner_cache"]

    # -- step 2 ----------------------------------------------------------

    @abc.abstractmethod
    def meet(self, butterfly: Butterfly, wing_summaries: List[Summary]) -> SideIn:
        """Step 2: combine the wings' summaries into the side-in value."""

    # -- step 3 ----------------------------------------------------------

    def check_body(self, butterfly: Butterfly, side_in: SideIn) -> Any:
        """Pure stage of the second pass: compute checks/derived facts
        from published state without mutating it."""
        raise NotImplementedError

    def commit_check(
        self, butterfly: Butterfly, side_in: SideIn, result: Any
    ) -> None:
        """Ordered stage of the second pass: apply a body's results."""
        raise NotImplementedError

    def second_pass(self, butterfly: Butterfly, side_in: SideIn) -> None:
        """Step 3: re-analyze the body with wing state; run checks."""
        self.commit_check(
            butterfly, side_in, self.check_body(butterfly, side_in)
        )

    # -- step 4 ----------------------------------------------------------

    @abc.abstractmethod
    def epoch_update(self, lid: int, summaries: Dict[BlockId, Summary]) -> None:
        """Step 4: summarize epoch ``l`` and publish ``SOS_{l+2}``."""

    def evict_history(self, before: int) -> None:
        """Drop per-epoch bookkeeping for epochs ``< before``.

        Called by the engine on streamed runs once those epochs can no
        longer be read: after body ``l`` is folded in, the next second
        pass reads ``SOS_{l+1}`` and the next :meth:`epoch_update`
        reads the frontier, so anything older is dead.  Analyses that
        keep per-epoch state (the SOS history) override this to stay
        O(window); the default keeps everything, preserving post-run
        inspection of materialized runs."""


class _WindowView:
    """The partition facade over the engine's resident block window.

    :func:`~repro.core.window.butterflies_for_epoch` only needs three
    things from a "partition": ``num_threads``, ``num_epochs`` and
    ``block(lid, tid)``.  The engine satisfies them from the blocks it
    currently holds -- ``num_epochs`` is the number of epochs *received
    so far*, which reproduces the materialized tail semantics exactly
    (a body's tail exists iff its epoch has arrived), so streamed and
    materialized runs build bit-identical butterflies.
    """

    __slots__ = ("_blocks", "num_threads", "num_epochs")

    def __init__(
        self, blocks: Dict[BlockId, Block], num_threads: int, num_epochs: int
    ) -> None:
        self._blocks = blocks
        self.num_threads = num_threads
        self.num_epochs = num_epochs

    def block(self, lid: int, tid: int) -> Block:
        return self._blocks[(lid, tid)]


#: What :func:`_span` hands out while recording is off: one shared,
#: stateless context manager, so that path builds nothing per epoch.
_NO_SPAN = NULL_RECORDER.span("")


def _span(recorder: Optional[Recorder], name: str, *fields: Any) -> Any:
    """A ``name`` span on a live ``recorder``; a no-op when it is ``None``.

    ``fields`` are the span's fields as flat ``key, value`` pairs, so
    the recorder-off path builds no span and no kwargs.
    """
    if recorder is None:
        return _NO_SPAN
    return recorder.span(name, **dict(zip(fields[::2], fields[1::2])))


def _spanned(recorder: Recorder, name: str, blocks, key: str, counts, steps):
    """Re-yield lazy per-block ``steps``, running each inside a
    ``name`` span (``epoch``/``thread`` of its block, ``key``=count).
    Only a live recorder pays for this wrapper."""
    for block, count in zip(blocks, counts):
        with recorder.span(
            name, epoch=block.lid, thread=block.tid, **{key: count}
        ):
            result = next(steps)
        yield result


class ButterflyEngine(Generic[Summary, SideIn]):
    """Drives a :class:`ButterflyAnalysis` over an epoch partition.

    Supports one-shot :meth:`run` over a materialized partition, the
    incremental :meth:`feed_epoch` / :meth:`finish` pair used by the
    LBA substrate (epochs arrive as the application executes), and the
    bounded-memory streaming entry point :meth:`run_source` /
    :meth:`feed_blocks`, which consumes any
    :class:`~repro.core.stream.EpochSource` -- a stream trace file, a
    generated workload, a socket -- without a partition in memory.

    Memory model (the sliding-window invariant): the engine retains
    block summaries (in :attr:`ButterflyAnalysis.summaries`, their one
    home) and window blocks only for the butterfly window.  After epoch
    ``l``'s bodies commit and ``epoch_update(l)`` publishes their
    effects into the SOS, summaries for epochs ``< l-1`` and blocks for
    epochs ``< l`` are evicted, so at any instant at most **3 epochs x
    num_threads** summaries are resident regardless of trace length.
    The bound is enforced (a violation raises :class:`AnalysisError`),
    tracked in :attr:`window_high_water`, and exported as the
    ``engine.window_resident_blocks`` gauge.

    Coordinates: callers always feed *producer rows* -- ``feed_blocks``
    ids, :attr:`resume_position`, :attr:`rows_folded` and the
    completeness check in :meth:`finish` all count them.  Without a
    ``controller`` every row is one *analysis epoch*; with one, rows
    buffer until the controller's fold factor is reached and then merge
    (:func:`~repro.core.epoch.merge_block_run`) into a single analysis
    epoch, whose cuts :attr:`recorded_boundaries` keeps so the run can
    be replayed offline (``docs/tuning.md``).

    Parameters
    ----------
    analysis:
        The lifeguard to drive.
    backend:
        Execution backend for the parallelizable stages: a name from
        :data:`~repro.core.parallel.BACKEND_CHOICES` or a constructed
        :class:`~repro.core.parallel.ExecutionBackend`.  Backends
        created from a name are owned (and shut down) by the engine.
    recorder:
        Observability recorder (see :mod:`repro.obs`).  Defaults to the
        shared null recorder, in which case no instrumentation executes;
        with a live :class:`~repro.obs.recorder.Recorder` the engine
        emits per-epoch/per-pass/per-block spans, per-epoch summary
        events, and wires the recorder into the analysis (error
        provenance) and the backend (fan-out telemetry).
    controller:
        Fold-factor controller coalescing producer rows into larger
        analysis epochs; ``None`` (the default) analyzes every fed row
        as its own epoch.
    """

    def __init__(
        self,
        analysis: ButterflyAnalysis,
        backend: Union[str, ExecutionBackend] = "serial",
        recorder: Recorder = NULL_RECORDER,
        controller: Optional[EpochController] = None,
    ) -> None:
        self.analysis = analysis
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = get_backend(backend)
        self.recorder = recorder
        if recorder.enabled:
            self.backend.recorder = recorder
        self.controller = controller
        self._checkpointer: Optional[Any] = None
        self.reset()

    # -- lifecycle ------------------------------------------------------

    def enable_checkpoints(self, checkpointer: Any) -> None:
        """Snapshot run state after committed epochs.

        ``checkpointer`` is typically a
        :class:`~repro.resilience.checkpoint.Checkpointer`; its
        ``after_epoch(engine, lid)`` is called each time epoch ``lid``'s
        bodies have committed and its SOS advance has been published --
        the engine's natural safe point for resume.  The checkpointer's
        ``position`` starts at :attr:`resume_position`: after a
        resuming attach, the snapshot the engine was restored from.
        """
        self._checkpointer = checkpointer
        checkpointer.position = self.resume_position

    def checkpoint_now(self) -> int:
        """Force a durable snapshot through the attached checkpointer --
        the save path a serve session takes on failure, outside the
        per-epoch cadence -- and return the resume position it holds
        (:attr:`resume_position` when checkpointing is off).

        A failed engine is never snapshotted: its analysis may hold half
        an epoch.  The checkpointer makes its newest good snapshot
        durable instead, and that snapshot's position is returned.
        """
        checkpointer = self._checkpointer
        if checkpointer is None:
            return self.resume_position
        if self._failed:
            checkpointer.flush()
        else:
            checkpointer.save_now(self)
        return checkpointer.position

    @property
    def resume_position(self) -> int:
        """The next producer row a restarted feeder must send: every
        row below it is part of a committed analysis epoch (a
        rolled-back feed does not advance it, rows still buffered for
        the next fold are not covered, a restored snapshot sets it)."""
        return self.rows_folded

    def note_queue_depth(self, depth: int) -> None:
        """Latest backpressure observation (rows waiting behind the one
        being fed); the controller samples it at each fold."""
        self._queue_depth = depth

    def snapshot_state(self) -> Dict[str, Any]:
        """Everything :meth:`restore_state` needs to continue this run.

        Holds live references (the analysis object included): pickle it
        before feeding further.  Rows buffered for the next fold are not
        part of it -- :attr:`resume_position` tells the feeder to
        re-send them.
        """
        return {
            "stats": self.stats,
            # The resident block window (<= 2 epochs at a checkpoint
            # boundary): what lets a streamed resume seek the reader
            # forward instead of re-reading the whole prefix.
            "window": self._window,
            "window_high_water": self.window_high_water,
            "first_pass_errors": self._first_pass_errors,
            "next_to_receive": self._next_to_receive,
            "next_to_process": self._next_to_process,
            "rows_folded": self.rows_folded,
            # ``None`` for a fixed engine -- which is also how a reader
            # tells the two kinds of run apart.
            "boundaries": self.recorded_boundaries,
            # Event-log position: resume continues the numbering from
            # here, so truncate-at-boundary(interrupted log) + resumed
            # log equals the uninterrupted log.
            "events_emitted": self.recorder.seq,
            "analysis": self.analysis,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Fast-forward this engine to a :meth:`snapshot_state`: the
        second half of an attach given a checkpoint.

        The engine must have been constructed around the snapshot's
        ``analysis`` object and attached to the same (identically cut)
        trace; the next :meth:`feed_blocks` then continues the run at
        :attr:`resume_position`.
        """
        self._require_usable()
        if self.analysis is not state["analysis"]:
            raise CheckpointError(
                "engine must be constructed around the checkpoint's "
                "analysis object (engine.analysis is not it)"
            )
        self.stats = state["stats"]
        self._window = state["window"]
        self.window_high_water = state["window_high_water"]
        self._first_pass_errors = state["first_pass_errors"]
        self._next_to_receive = state["next_to_receive"]
        self._next_to_process = state["next_to_process"]
        self.rows_folded = state["rows_folded"]
        self.recorded_boundaries = state["boundaries"]
        if self.recorder.enabled:
            self.recorder.resume_from(state["events_emitted"])

    def reset(self) -> None:
        """Detach from the current partition and zero all run state.

        Required before re-attaching a used engine -- including after an
        :class:`AnalysisError` aborted a run partway, which would
        otherwise leave stale counters behind.  The analysis object's
        own state is *not* touched; reuse generally wants a fresh
        analysis too.
        """
        self.stats = EngineStats()
        self._partition: Optional[EpochPartition] = None
        self._source: Optional[EpochSource] = None
        self._attached = False
        self._num_threads = 0
        self._expected_epochs: Optional[int] = None
        self._window: Dict[BlockId, Block] = {}
        self._first_pass_errors: Dict[int, int] = {}
        self._next_to_receive = 0
        self._next_to_process = 0
        self._finished = False
        self._failed = False
        #: Peak resident block summaries over the run -- the quantity
        #: the sliding-window invariant bounds at 3 x num_threads.
        self.window_high_water = 0
        #: Producer rows folded into committed analysis epochs.
        self.rows_folded = 0
        #: With a controller: the cuts actually analyzed, per thread
        #: (exclusive block ends).  ``None`` on a fixed engine.
        self.recorded_boundaries: Optional[List[List[int]]] = None
        self._pending: List[List[Block]] = []
        self._queue_depth = 0

    def close(self) -> None:
        """Shut down an engine-owned backend's worker pool."""
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ButterflyEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- one-shot -----------------------------------------------------

    def run(self, partition: EpochPartition) -> EngineStats:
        """Process an entire partition and return the work counters."""
        self.attach(partition)
        for lid in range(partition.num_epochs):
            self.feed_epoch(lid)
        self.finish()
        return self.stats

    def run_source(self, source: EpochSource) -> EngineStats:
        """Stream an :class:`~repro.core.stream.EpochSource` end to end.

        The bounded-memory counterpart of :meth:`run`: epochs are
        consumed one at a time and never rematerialized, so peak
        resident state is the three-epoch window no matter how long the
        stream runs.  Results are bit-identical to :meth:`run` over the
        equivalently partitioned trace.
        """
        self.attach_source(source)
        for lid, blocks in enumerate(source.epochs()):
            self.feed_blocks(lid, blocks)
        self.finish()
        return self.stats

    # -- streaming ------------------------------------------------------

    def attach(
        self,
        partition: EpochPartition,
        checkpoint: Optional[Checkpoint] = None,
    ) -> None:
        """Bind the engine to a partition and announce the run, or,
        given a loaded :class:`Checkpoint`, continue the checkpointed
        run (see :meth:`attach_source`)."""
        self._bind(partition.num_threads, partition.num_epochs, checkpoint)
        self._partition = partition

    def attach_source(
        self, source: EpochSource, checkpoint: Optional[Checkpoint] = None
    ) -> None:
        """Bind the engine to a streaming epoch source.

        The caller then drives :meth:`feed_blocks` with the source's
        epoch rows (or uses :meth:`run_source`, which does exactly
        that).  A fresh run emits ``run.attach``.  With ``checkpoint``
        the engine continues that run from its
        :attr:`~Checkpoint.next_epoch` instead: no ``run.attach`` (the
        uninterrupted run emitted it; the resumed log is its exact
        suffix past the checkpoint boundary), and the checkpointed
        state is restored.  A checkpoint position outside
        ``0..num_epochs`` is refused with :class:`CheckpointError`
        before anything is bound.
        """
        self._bind(source.num_threads, source.num_epochs, checkpoint)
        self._source = source

    def _bind(
        self,
        num_threads: int,
        num_epochs: Optional[int],
        checkpoint: Optional[Checkpoint],
    ) -> None:
        if self._attached:
            raise AnalysisError(
                "engine already attached to a partition; call reset() "
                "to reuse it"
            )
        if checkpoint is not None:
            position = checkpoint.next_epoch
            if position < 0 or (
                num_epochs is not None and position > num_epochs
            ):
                raise CheckpointError(
                    f"checkpoint resumes at epoch {position}, outside "
                    f"this {num_epochs}-epoch input"
                )
        self.reset()  # guard: never start a run with stale counters
        self._attached = True
        self._num_threads = num_threads
        self._expected_epochs = num_epochs
        if self.controller is not None:
            self.recorded_boundaries = [[] for _ in range(num_threads)]
        if self.recorder.enabled:
            self.analysis.recorder = self.recorder
            # The backend name stays out of analysis-level events so
            # logs compare equal across backends; the streamed and
            # materialized paths emit the identical event.
            if checkpoint is None:
                self.recorder.event(
                    "run.attach", epochs=num_epochs, threads=num_threads
                )
        if checkpoint is None:
            self.analysis.summaries.clear()
        else:  # the restored analysis carries its summary window
            self.restore_state(checkpoint.state)

    def feed_epoch(self, lid: int) -> None:
        """Receive epoch ``l`` from the attached partition: first-pass
        its blocks, then process the bodies of epoch ``l - 1`` whose
        wings are now complete."""
        partition = self._require_partition()
        self.feed_blocks(lid, partition.epoch_blocks(lid))

    def feed_blocks(self, lid: int, blocks: List[Block]) -> None:
        """Receive producer row ``lid`` as an explicit block row (the
        streaming primitive behind :meth:`feed_epoch` and
        :meth:`run_source`).

        Without a controller the row is analysis epoch ``lid``; with
        one it is buffered, and the buffer folds into one analysis
        epoch once it holds the controller's fold factor of rows.

        Failed feeds are atomic at the engine level: a feed that raises
        rolls the engine's receipt bookkeeping (window blocks, block
        summaries, progress counters, recorded boundaries) back to the
        previous epoch boundary.  Validation failures -- out-of-order
        rows, a malformed row -- leave the engine fully usable (the row
        was never buffered); an exception escaping the analysis or a
        checkpointer mid-feed marks the engine *failed* (the analysis
        may have partially absorbed the epoch), after which further
        feeds raise until :meth:`reset`.
        """
        self._require_usable()
        if self._finished:
            raise AnalysisError("cannot feed epochs after finish()")
        expected = self.rows_folded + len(self._pending)
        if lid != expected:
            raise AnalysisError(
                f"epochs must arrive in order: expected {expected}, "
                f"got {lid}"
            )
        if len(blocks) != self._num_threads:
            raise AnalysisError(
                f"epoch {lid}: expected one block per thread "
                f"({self._num_threads}), got {len(blocks)}"
            )
        for tid, block in enumerate(blocks):
            if block.block_id != (lid, tid):
                raise AnalysisError(
                    f"epoch {lid}: block {tid} carries id "
                    f"{block.block_id}, expected {(lid, tid)}"
                )
        if self.controller is None:
            self._commit(lid, blocks, 1)
            return
        self._pending.append(blocks)
        if len(self._pending) >= self.controller.fold_factor:
            self._fold()

    def _fold(self) -> None:
        """Commit the buffered rows as one analysis epoch, then let the
        controller observe the fold and pick the next factor."""
        rows = self._pending
        lid = self._next_to_receive
        merged = [
            merge_block_run(lid, [row[tid] for row in rows])
            for tid in range(self._num_threads)
        ]
        errors_before = self._error_count()
        started = time.perf_counter_ns()
        self._commit(lid, merged, len(rows))
        self._pending = []
        self.controller.observe(
            queue_depth=self._queue_depth,
            fold_ns=time.perf_counter_ns() - started,
            rows=len(rows),
            errors_delta=self._error_count() - errors_before,
        )

    def _commit(self, lid: int, blocks: List[Block], rows: int) -> None:
        """Receive analysis epoch ``lid`` -- ``rows`` producer rows'
        worth of blocks -- atomically.

        Row progress and the epoch's cuts are booked *before* the
        analysis runs, so a checkpoint taken mid-feed (``after_epoch``
        fires inside) snapshots progress matching the engine state it
        rides with; a raise unbooks them again.
        """
        cuts = self.recorded_boundaries
        if cuts is not None:
            for tid, block in enumerate(blocks):
                cuts[tid].append(block.start + len(block))
        self.rows_folded += rows
        try:
            self._receive(lid, blocks)
        except Exception:
            # Roll receipt bookkeeping back to the epoch boundary so
            # the failure surface is clean; the analysis itself may be
            # mid-epoch, so require reset() before further feeding.
            for block in blocks:
                self._window.pop(block.block_id, None)
                self.analysis.summaries.pop(block.block_id, None)
            self._first_pass_errors.pop(lid, None)
            self._next_to_receive = lid
            self.rows_folded -= rows
            if cuts is not None:
                for thread_cuts in cuts:
                    del thread_cuts[lid:]
            self._failed = True
            raise

    def _receive(self, lid: int, blocks: List[Block]) -> None:
        analysis = self.analysis
        for block in blocks:
            self._window[block.block_id] = block
        scanner = (
            analysis._scanner()
            if self.backend.concurrent
            and analysis.parallel_first_pass
            and len(blocks) > 1
            else None
        )
        recorder = self.recorder if self.recorder.enabled else None
        errors_before = 0 if recorder is None else self._error_count()
        with _span(
            recorder, "pass.first", "epoch", lid, "blocks", len(blocks)
        ):
            self._first_pass(analysis, blocks, scanner, recorder)
        self._next_to_receive += 1
        if recorder is not None:
            self._first_pass_errors[lid] = self._error_count() - errors_before
            if self._source is not None:
                recorder.count("stream.epochs_received")
        self._note_residency()
        if lid >= 1:
            self._process_epoch(lid - 1)

    def _first_pass(
        self,
        analysis: ButterflyAnalysis,
        blocks: List[Block],
        scanner: Optional[Scanner],
        recorder: Optional[Recorder],
    ) -> None:
        """Step 1 over one received epoch (fanned out when possible).

        ``steps`` is lazy -- each ``next`` runs one block's (commit)
        stage, in ascending thread order -- so both schedules and both
        recorder states share the loop below.  The ``block.first_pass``
        span carries the same name on both schedules so logs compare
        equal across backends; fanned out, it covers the commit stage
        only (the scan ran in the pool).  The serial schedule announces
        the row first (:meth:`ButterflyAnalysis.stage_row`): the hook is
        still called -- and timed -- once per block, but an analysis may
        then do the row's scans in its first call.
        """
        staged = scanner is None and analysis.parallel_first_pass
        if scanner is not None:
            # Contexts snapshot published state only, so computing them
            # up front matches the serial schedule exactly.
            items = [
                (block, analysis.first_pass_context(block))
                for block in blocks
            ]
            scans = self.backend.map_ordered(scanner, items)
            steps = map(analysis.commit_scan, blocks, scans)
        else:
            if staged:
                analysis.stage_row(blocks)
            steps = map(analysis.first_pass, blocks)
        if recorder is not None:
            steps = _spanned(
                recorder, "block.first_pass", blocks,
                "instrs", map(len, blocks), steps,
            )
        summaries = analysis.summaries
        try:
            for block in blocks:
                summaries[block.block_id] = next(steps)
                self.stats.first_pass_instructions += len(block)
        finally:
            if staged:
                analysis.stage_row(())

    def finish(self) -> None:
        """End of trace: fold any buffered rows, then process the final
        epoch's bodies.

        With a partition (or a source whose length is known up front)
        an early finish is an error; an unbounded source's stream ends
        wherever the feeder stops.
        """
        self._require_usable()
        if self._finished:
            return
        received = self.rows_folded + len(self._pending)
        if (
            self._expected_epochs is not None
            and received != self._expected_epochs
        ):
            raise AnalysisError(
                "finish() called before all epochs were fed "
                f"({received}/{self._expected_epochs})"
            )
        if self._pending:
            self._fold()
        last = self._next_to_receive - 1
        if last >= 0 and self._next_to_process == last:
            try:
                self._process_epoch(last)
            except Exception:
                # The final commit died mid-epoch; a retry would replay
                # partial analysis effects, so require a reset instead.
                self._failed = True
                raise
        self._finished = True
        if self.recorder.enabled:
            self.analysis.emit_metrics(self.recorder)
            self.recorder.event(
                "run.finish",
                epochs_processed=self.stats.epochs_processed,
                first_pass_instructions=self.stats.first_pass_instructions,
                second_pass_instructions=self.stats.second_pass_instructions,
                meets=self.stats.meets,
                errors_total=self._error_count(),
            )

    # -- internals ------------------------------------------------------

    def _require_partition(self) -> EpochPartition:
        if self._partition is None:
            raise AnalysisError("engine not attached to a partition")
        return self._partition

    def _require_usable(self) -> None:
        if not self._attached:
            raise AnalysisError("engine not attached to a partition")
        if self._failed:
            raise AnalysisError(
                "engine is in a failed state after an earlier feed "
                "error; call reset() and re-attach to reuse it"
            )

    def _window_view(self) -> _WindowView:
        return _WindowView(
            self._window, self._num_threads, self._next_to_receive
        )

    def _note_residency(self) -> None:
        """Track the high-water mark and enforce the window invariant.

        After any receive or commit, resident summaries must cover at
        most the three epochs of the butterfly window.
        """
        resident = len(self.analysis.summaries)
        if resident > self.window_high_water:
            self.window_high_water = resident
        limit = 3 * self._num_threads
        if resident > limit:
            raise AnalysisError(
                f"sliding-window invariant violated: {resident} resident "
                f"block summaries exceed 3 epochs x {self._num_threads} "
                f"threads = {limit}"
            )
        if self.recorder.enabled:
            self.recorder.gauge("engine.window_resident_blocks", resident)

    def _process_epoch(self, lid: int) -> None:
        if lid != self._next_to_process:
            raise AnalysisError(
                f"bodies must be processed in epoch order: expected "
                f"{self._next_to_process}, got {lid}"
            )
        analysis = self.analysis
        summaries = analysis.summaries
        num_threads = self._num_threads
        recorder = self.recorder if self.recorder.enabled else None
        errors_before = 0 if recorder is None else self._error_count()
        butterflies = butterflies_for_epoch(self._window_view(), lid)
        wings = [
            [summaries[b.block_id] for b in bf.wings] for bf in butterflies
        ]
        with _span(
            recorder, "pass.second", "epoch", lid, "bodies", len(butterflies)
        ):
            self._second_pass(analysis, butterflies, wings, recorder)
        epoch_summaries = {
            (lid, tid): summaries[(lid, tid)]
            for tid in range(num_threads)
        }
        first_errors = self._first_pass_errors.pop(lid, 0)
        with _span(recorder, "epoch.update", "epoch", lid):
            analysis.epoch_update(lid, epoch_summaries)
        if recorder is not None:
            errors_total = self._error_count()
            recorder.event(
                "epoch.summary",
                epoch=lid,
                instructions=sum(len(bf.body) for bf in butterflies),
                meets=len(butterflies),
                first_pass_errors=first_errors,
                second_pass_errors=errors_total - errors_before,
                errors_total=errors_total,
            )
        self.stats.epochs_processed += 1
        self._next_to_process += 1
        # Epoch ``lid`` is folded into the SOS now.  The next body is
        # ``lid+1``, whose butterflies reach back only to its head
        # ``lid`` -- so summaries and blocks for ``lid-1`` are dead,
        # and the resident window peaks at exactly the three epochs
        # ``lid..lid+2`` when the next epoch is received.
        for tid in range(num_threads):
            summaries.pop((lid - 1, tid), None)
            self._window.pop((lid - 1, tid), None)
        if self._partition is not None:
            # The partition's block cache duplicates the window; keep
            # its bookkeeping O(window) too.
            self._partition.evict_blocks(lid)
        if self._source is not None:
            # Streamed runs promise O(window) residency overall, so the
            # analysis sheds its own per-epoch history as well.  Only
            # SOS_{lid+1} (next body) and the frontier stay readable.
            analysis.evict_history(lid + 1)
        self._note_residency()
        if self._checkpointer is not None:
            self._checkpointer.after_epoch(self, lid)

    def _second_pass(
        self,
        analysis: ButterflyAnalysis,
        butterflies: List[Butterfly],
        wings: List[List[Any]],
        recorder: Optional[Recorder],
    ) -> None:
        """Steps 2-3 over one epoch's bodies (fanned out when possible).

        As in the first pass, ``steps`` is lazy and ``block.second_pass``
        names the span on both schedules; fanned out, it covers the
        commit stage only.
        """
        stats = self.stats
        if (
            self.backend.concurrent
            and self.backend.shares_memory
            and analysis.parallel_second_pass
            and len(butterflies) > 1
        ):
            # Pure stages fan out; commits land in ascending tid order,
            # reproducing the serial schedule bit for bit.
            def compute(bf: Butterfly, ws: List[Any]) -> Any:
                side_in = analysis.meet(bf, ws)
                return side_in, analysis.check_body(bf, side_in)

            results = self.backend.map_ordered(
                compute, list(zip(butterflies, wings))
            )
            steps = (
                analysis.commit_check(bf, side_in, result)
                for bf, (side_in, result) in zip(butterflies, results)
            )
        else:
            steps = (
                analysis.second_pass(bf, analysis.meet(bf, ws))
                for bf, ws in zip(butterflies, wings)
            )
        if recorder is not None:
            steps = _spanned(
                recorder, "block.second_pass",
                [bf.body for bf in butterflies],
                "wings", map(len, wings), steps,
            )
        for bf, ws in zip(butterflies, wings):
            stats.meets += 1
            stats.wing_summaries_combined += len(ws)
            next(steps)
            stats.second_pass_instructions += len(bf.body)

    def _error_count(self) -> int:
        """Size of the analysis's error log, for lifeguards that keep
        one (analyses without an ``errors`` attribute report 0)."""
        errors = getattr(self.analysis, "errors", None)
        return len(errors) if errors is not None else 0
