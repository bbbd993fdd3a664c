"""Adaptive epoch sizing: the online h-controller and ``repro tune``.

Epoch size ``h`` is the paper's one tuning knob (Sections 4 and 8):
small epochs keep the concurrency window tight (few false positives,
low result latency) but pay fixed per-epoch costs -- dispatch,
checkpoint writes, IPC for process shards -- on every heartbeat; large
epochs amortize those costs but widen the window the analysis must
treat as concurrent.  This module owns both sides of tuning that knob:

**Online** (``repro serve --adaptive-epoch``): an
:class:`EpochController` watches the live signals the PR-2 observability
work exposed -- per-stream queue depth (the backpressure signal), the
wall-clock latency of each fold, and the per-fold error rate -- and
picks a *fold factor*: how many incoming producer epochs to coalesce
into one analysis epoch.  :class:`AdaptiveEngine` applies the decision,
merging consecutive producer rows (column-level concatenation, no
per-event objects) and recording the boundary stream it actually used
so the run stays *replayable*: an offline re-check over the recorded
boundaries (:class:`~repro.core.epoch.ExplicitHeartbeat`) is
bit-identical to what the daemon reported -- the ``adaptive`` fuzz mode
enforces exactly that.

Coalescing never splits a producer block, so adaptive boundaries are
always a subset of the producer's cut points; this is what keeps resume
coordinates (producer rows) and analysis coordinates (adaptive epochs)
mutually reconstructible.

**Offline** (``repro tune``): sweep a workload across epoch sizes,
measure the false-positive rate against the sequential oracle and the
wall-clock cost per epoch, and fit the tradeoff curve (FP rate is
linear-ish in ``log2 h``; per-epoch latency is linear in ``h``).  The
fitted curve is what BENCH schema 8 records and what the CI
``tune-smoke`` job asserts is monotone in FP rate.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.columnar import ColumnarBlock
from repro.core.epoch import Block, partition_auto
from repro.core.framework import ButterflyEngine
from repro.errors import AnalysisError, ReproError


# ---------------------------------------------------------------------------
# The online controller
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
    #: Shrink when a fold surfaced new errors: reports are exactly the
    #: signal precision exists for, so bias toward tight windows while
    #: they are firing.
    error_bias: bool = True

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
    signal that must win every argument.  Decisions depend only on the
    observation stream, so a replayed observation sequence reproduces
    the same fold factors; live runs are still timing-dependent, which
    is why :class:`AdaptiveEngine` records boundaries instead of
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
        elif slo.error_bias and errors_delta > 0:
            self.fold_factor = max(slo.min_fold, self.fold_factor - 1)
        elif queue_depth >= slo.queue_high:
            self.fold_factor = min(slo.max_fold, self.fold_factor * 2)
        elif queue_depth <= slo.queue_low:
            self.fold_factor = max(slo.min_fold, self.fold_factor - 1)
        return self.fold_factor


# ---------------------------------------------------------------------------
# Block coalescing
# ---------------------------------------------------------------------------


def merge_block_run(lid: int, blocks: Sequence[Block]) -> Block:
    """One thread's consecutive blocks -> one block at epoch ``lid``.

    Stays columnar when every input is (the serve hot path: stream rows
    decode straight to columns); otherwise concatenates the object
    tuples.  ``start`` is inherited from the first block, so the merged
    block's global refs are identical to the unmerged ones'.
    """
    first = blocks[0]
    if len(blocks) == 1:
        if first.lid == lid:
            return first
        return Block(
            lid, first.tid, first.start,
            instrs=first._instrs, columns=first._columns,
        )
    if all(b.has_columns for b in blocks):
        merged = ColumnarBlock.concat([b.columns for b in blocks])
        return Block(lid, first.tid, first.start, columns=merged)
    instrs = tuple(
        itertools.chain.from_iterable(b.instrs for b in blocks)
    )
    return Block(lid, first.tid, first.start, instrs=instrs)


# ---------------------------------------------------------------------------
# The adaptive engine wrapper
# ---------------------------------------------------------------------------


class AdaptiveEngine:
    """A :class:`ButterflyEngine` facade that coalesces producer epochs.

    Callers keep talking producer-row coordinates (``feed_blocks(lid,
    row)`` with the pushed file's epoch ids); internally rows buffer
    until the controller's fold factor is reached, then merge into one
    analysis epoch per :func:`merge_block_run`.  The wrapper exposes the
    engine surface the shard backends drive -- everything it does not
    override delegates to the wrapped engine, so checkpointing sees the
    real engine state.

    Coordinates:

    - :attr:`resume_position` / ``rows_folded`` count *producer rows*
      absorbed into committed engine feeds -- the resume coordinate the
      serve protocol advertises (buffered rows are not covered by any
      checkpoint, so a resuming producer re-sends them).
    - The wrapped engine's own ``resume_position`` counts *analysis
      epochs* -- the coordinate checkpoints snapshot and restore.

    Bookkeeping is updated *before* the wrapped feed runs (and rolled
    back if it raises) so a checkpoint taken mid-feed -- the engine's
    ``after_epoch`` hook fires inside ``feed_blocks`` -- snapshots the
    producer-row progress that matches the engine state it rides with.
    """

    def __init__(
        self,
        engine: ButterflyEngine,
        controller: EpochController,
        num_threads: int,
    ) -> None:
        self.engine = engine
        self.controller = controller
        self.num_threads = num_threads
        self._pending: List[List[Block]] = []
        #: Producer rows folded into the wrapped engine.
        self.rows_folded = 0
        #: The boundary stream actually used, per thread (exclusive
        #: block-end offsets) -- what the report and checkpoints carry.
        self.recorded_boundaries: List[List[int]] = [
            [] for _ in range(num_threads)
        ]
        self._queue_depth = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self.engine, name)

    # -- the serve-facing surface --------------------------------------

    @property
    def resume_position(self) -> int:
        """Producer-row resume coordinate (see class docstring)."""
        return self.rows_folded

    def note_queue_depth(self, depth: int) -> None:
        """Latest queue-depth observation (rows waiting behind this
        one); sampled by the controller at each fold."""
        self._queue_depth = depth

    def feed_blocks(self, lid: int, row: List[Block]) -> None:
        expected = self.rows_folded + len(self._pending)
        if lid != expected:
            raise AnalysisError(
                f"producer epochs must arrive in order: expected "
                f"{expected}, got {lid}"
            )
        self._pending.append(row)
        if len(self._pending) >= self.controller.fold_factor:
            self._fold(len(self._pending))

    def finish(self) -> None:
        if self._pending:
            self._fold(len(self._pending))
        self.engine.finish()

    def extra_state(self) -> Dict[str, Any]:
        """The checkpoint rider reconstructing adaptive progress."""
        return {
            "rows_folded": self.rows_folded,
            "boundaries": [list(c) for c in self.recorded_boundaries],
        }

    def restore_extra(self, extra: Dict[str, Any]) -> None:
        self.rows_folded = extra["rows_folded"]
        self.recorded_boundaries = [
            list(c) for c in extra["boundaries"]
        ]

    # -- internals ------------------------------------------------------

    def _fold(self, count: int) -> None:
        rows = self._pending[:count]
        alid = self.engine.resume_position
        merged = [
            merge_block_run(alid, [rows[k][tid] for k in range(count)])
            for tid in range(self.num_threads)
        ]
        saved_rows = self.rows_folded
        saved_cut_lens = [len(c) for c in self.recorded_boundaries]
        for tid, blk in enumerate(merged):
            self.recorded_boundaries[tid].append(blk.start + len(blk))
        self.rows_folded += count
        del self._pending[:count]
        errors_before = ButterflyEngine._error_count(self.engine.analysis)
        started = time.perf_counter_ns()
        try:
            self.engine.feed_blocks(alid, merged)
        except Exception:
            # Mirror the engine's own epoch-boundary rollback so the
            # checkpointed/advertised progress never covers a feed that
            # did not commit.
            self.rows_folded = saved_rows
            for tid, n in enumerate(saved_cut_lens):
                del self.recorded_boundaries[tid][n:]
            self._pending[:0] = rows
            raise
        self.controller.observe(
            queue_depth=self._queue_depth,
            fold_ns=time.perf_counter_ns() - started,
            rows=count,
            errors_delta=(
                ButterflyEngine._error_count(self.engine.analysis)
                - errors_before
            ),
        )


# ---------------------------------------------------------------------------
# Offline sweep + curve fitting (``repro tune``)
# ---------------------------------------------------------------------------

#: Lifeguards ``repro tune``/``repro sweep`` can ground-truth: the
#: sweep's FP-rate column needs a sequential oracle for the *same*
#: lifeguard, and AddrCheck is the one the repo has.
ORACLE_LIFEGUARDS = ("addrcheck",)


@dataclass
class TunePoint:
    """One epoch size's measured position on the tradeoff curve."""

    epoch_size: int
    epochs: int
    flagged: int
    false_positives: int
    fp_rate: float
    mean_epoch_ms: float
    max_epoch_ms: float
    events_per_s: float


@dataclass
class TradeoffCurve:
    """The fitted FP-rate/latency tradeoff for one workload.

    ``fp_rate ~ fp_intercept + fp_slope * log2(h)`` and
    ``mean_epoch_ms ~ latency_intercept + latency_slope * h``: both
    least-squares over the sweep's points.  ``fp_monotone`` is the raw
    (not fitted) check CI asserts: measured FP rate never decreases as
    ``h`` grows.
    """

    points: List[TunePoint] = field(default_factory=list)
    fp_slope: float = 0.0
    fp_intercept: float = 0.0
    latency_slope: float = 0.0
    latency_intercept: float = 0.0
    fp_monotone: bool = True

    def to_record(self) -> Dict[str, Any]:
        return {
            "points": [asdict(p) for p in self.points],
            "fit": {
                "fp_rate_vs_log2_h": {
                    "slope": self.fp_slope,
                    "intercept": self.fp_intercept,
                },
                "mean_epoch_ms_vs_h": {
                    "slope": self.latency_slope,
                    "intercept": self.latency_intercept,
                },
            },
            "fp_monotone_nondecreasing": self.fp_monotone,
        }


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> "tuple[float, float]":
    """Least-squares ``(slope, intercept)`` (pure Python; numpy-free)."""
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n == 1:
        return 0.0, float(ys[0])
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0, mean_y
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def measure_point(
    program: Any,
    epoch_size: int,
    truth_errors: Sequence[Any],
    make_guard: Callable[[], Any],
    backend: str = "serial",
) -> TunePoint:
    """Run one epoch size over ``program`` and measure its tradeoff
    position: per-epoch wall latency from timed feeds, FP rate against
    the precomputed sequential-oracle errors."""
    from repro.lifeguards.reports import compare_reports

    partition = partition_auto(program, epoch_size)
    guard = make_guard()
    epoch_ns: List[int] = []
    started = time.perf_counter_ns()
    with ButterflyEngine(guard, backend=backend) as engine:
        engine.attach(partition)
        for lid in range(partition.num_epochs):
            t0 = time.perf_counter_ns()
            engine.feed_epoch(lid)
            epoch_ns.append(time.perf_counter_ns() - t0)
        engine.finish()
    elapsed_s = (time.perf_counter_ns() - started) / 1e9
    precision = compare_reports(
        truth_errors, guard.errors, program.memory_op_count
    )
    total = program.total_instructions
    return TunePoint(
        epoch_size=epoch_size,
        epochs=partition.num_epochs,
        flagged=precision.flagged,
        false_positives=precision.false_positives,
        fp_rate=precision.false_positive_rate,
        mean_epoch_ms=sum(epoch_ns) / len(epoch_ns) / 1e6,
        max_epoch_ms=max(epoch_ns) / 1e6,
        events_per_s=total / elapsed_s if elapsed_s > 0 else 0.0,
    )


def fit_tradeoff(points: Sequence[TunePoint]) -> TradeoffCurve:
    """Fit the tradeoff curve over measured sweep points."""
    pts = sorted(points, key=lambda p: p.epoch_size)
    fp_slope, fp_icpt = fit_line(
        [math.log2(p.epoch_size) for p in pts],
        [p.fp_rate for p in pts],
    )
    lat_slope, lat_icpt = fit_line(
        [float(p.epoch_size) for p in pts],
        [p.mean_epoch_ms for p in pts],
    )
    monotone = all(
        a.fp_rate <= b.fp_rate for a, b in zip(pts, pts[1:])
    )
    return TradeoffCurve(
        points=list(pts),
        fp_slope=fp_slope,
        fp_intercept=fp_icpt,
        latency_slope=lat_slope,
        latency_intercept=lat_icpt,
        fp_monotone=monotone,
    )


def tune_workload(
    program: Any,
    epoch_sizes: Sequence[int],
    lifeguard: str = "addrcheck",
    backend: str = "serial",
) -> TradeoffCurve:
    """Sweep ``epoch_sizes`` over one workload; the fitted curve.

    Only oracle-backed lifeguards are tunable (the FP-rate axis *is*
    the oracle comparison); anything else raises :class:`ReproError`
    with the supported list.
    """
    if lifeguard not in ORACLE_LIFEGUARDS:
        raise ReproError(
            f"lifeguard {lifeguard!r} has no sequential oracle to "
            f"measure false positives against; tunable lifeguards: "
            f"{', '.join(ORACLE_LIFEGUARDS)}"
        )
    from repro.lifeguards.addrcheck import ButterflyAddrCheck
    from repro.lifeguards.sequential import SequentialAddrCheck

    truth = SequentialAddrCheck(program.preallocated)
    truth.run_order(program)
    points = [
        measure_point(
            program,
            h,
            truth.errors,
            lambda: ButterflyAddrCheck(
                initially_allocated=program.preallocated
            ),
            backend=backend,
        )
        for h in epoch_sizes
    ]
    return fit_tradeoff(points)
