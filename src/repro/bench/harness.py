"""Runs benchmark x system x parameter configurations, with caching.

The scaling rule (DESIGN.md section 3): all event counts are 1/16 of
the paper's instruction counts, so the paper's epoch sizes h in {8K,
64K} instructions become {512, 4096} events while preserving the
epochs-per-run and gap-vs-window ratios that drive both performance
amortization and false-positive behaviour.

What the epoch size does to one trace is measured in one place,
:func:`measure_epoch_size`: ``repro sweep``, Figures 11-13
(:meth:`ExperimentSuite.point`) and ``examples/epoch_size_tuning.py``
read its :class:`TunePoint`; :func:`fit_tradeoff` fits a sweep of them
(``docs/tuning.md``).  Simulated cycles are computed when something
reads them: a point prices its run on first read of
:attr:`TunePoint.butterfly`, and the suite builds each baseline on
first request, so Figure 13 -- precision only -- simulates nothing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Sequence,
    Tuple,
)

from repro.core.epoch import BlockId, EpochPartition, partition_auto
from repro.core.framework import ButterflyEngine
from repro.core.stream import PartitionSource
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.reports import (
    ErrorReport,
    PrecisionReport,
    compare_reports,
)
from repro.lifeguards.sequential import SequentialAddrCheck
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.lba import LBASystem, SimResult
from repro.trace.program import TraceProgram
from repro.workloads.registry import get_benchmark

#: Scale factor between the paper's instruction counts and our event
#: counts (16x smaller traces, same structure).
SCALE = 16

#: The paper's epoch sizes, in monitored instructions.
PAPER_EPOCHS = {"8K": 8 * 1024, "64K": 64 * 1024}

#: Scaled stand-ins for the paper's h = 8K and 64K: the two epoch sizes
#: Figures 12-13 compare, and Figure 11's h (the large one).
EPOCH_SMALL = PAPER_EPOCHS["8K"] // SCALE
EPOCH_LARGE = PAPER_EPOCHS["64K"] // SCALE


@dataclass(frozen=True)
class ExperimentConfig:
    """Suite-wide knobs; their defaults are the figure commands'."""

    events_per_thread: int = 32768
    thread_counts: Tuple[int, ...] = (2, 4, 8)
    seed: int = 1


class Oracle:
    """Ground truth for one trace: sequential AddrCheck replayed over
    the recorded order.  It does not depend on the epoch size, so one
    oracle scores every run of a sweep (Figure 13's false positives).
    Nor does the trace's application side, which the oracle holds too
    (:attr:`app`), so a sweep simulates it once."""

    def __init__(self, program: TraceProgram) -> None:
        self.program = program
        truth = SequentialAddrCheck(program.preallocated)
        truth.run_order(program)
        self.errors = truth.errors
        self.memory_ops = program.memory_op_count

    def score(self, flagged: Iterable[ErrorReport]) -> PrecisionReport:
        return compare_reports(self.errors, flagged, self.memory_ops)

    @cached_property
    def app(self) -> SimResult:
        """Parallel, No Monitoring, simulated on first read: Figure 11's
        third bar, and the application side every point's
        :attr:`TunePoint.butterfly` runs beside its lifeguard."""
        return LBASystem().unmonitored_parallel(self.program)


@dataclass
class TunePoint:
    """Everything measured for one (trace, epoch size) point: the one
    row ``repro sweep``, Figures 11-13 and the tradeoff fit read."""

    epoch_size: int
    epochs: int
    events: int
    #: Flags against the oracle (deterministic): Figure 13's quantity.
    precision: PrecisionReport
    #: Host wall clock: each epoch's feed, and the whole run.
    epoch_seconds: List[float]
    wall_seconds: float
    #: How the run cut the trace, the lifeguard's work counters for
    #: every block, and the oracle that scored it (which holds the
    #: trace's application side): what :attr:`butterfly` is priced from.
    partition: EpochPartition
    block_work: Dict[BlockId, Dict[str, int]]
    oracle: Oracle

    @cached_property
    def butterfly(self) -> SimResult:
        """Simulated time (deterministic): Figures 11-12's quantity,
        priced by the cycle model on first read."""
        return LBASystem().butterfly(
            self.partition, self.block_work, self.precision.flagged,
            self.oracle.app,
        )

    @property
    def fp_rate(self) -> float:
        return self.precision.false_positive_rate

    @property
    def mean_epoch_ms(self) -> float:
        return 1e3 * sum(self.epoch_seconds) / len(self.epoch_seconds)

    @property
    def max_epoch_ms(self) -> float:
        return 1e3 * max(self.epoch_seconds)

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds else 0.0

    def to_record(self) -> Dict[str, Any]:
        return {
            "epoch_size": self.epoch_size,
            "epochs": self.epochs,
            "flagged": self.precision.flagged,
            "false_positives": self.precision.false_positives,
            "fp_rate": self.fp_rate,
            "mean_epoch_ms": self.mean_epoch_ms,
            "max_epoch_ms": self.max_epoch_ms,
            "events_per_s": self.events_per_s,
        }


def measure_epoch_size(
    program: TraceProgram,
    epoch_size: int,
    oracle: Oracle,
    backend: Any = "serial",
    recorder: Recorder = NULL_RECORDER,
) -> TunePoint:
    """Run butterfly AddrCheck over ``program`` at one epoch size and
    score it against ``oracle`` -- the single way this repo measures
    what the paper's knob does at one setting.

    The engine runs on the given execution backend (results are
    backend-independent) and is fed one epoch row at a time, so its
    resident state is the three-epoch window however long the trace --
    the lifeguard's work ledger included, so each epoch's rows are
    copied out here before the window moves past them.  ``recorder``
    threads an observability recorder through to the engine.
    """
    # Heartbeats fire in execution time (paper footnote 4), so cut by
    # the recorded global order when one exists.
    partition = partition_auto(program, epoch_size)
    guard = ButterflyAddrCheck(initially_allocated=program.preallocated)
    source = PartitionSource(partition)
    block_work: Dict[BlockId, Dict[str, int]] = {}
    epoch_seconds = []
    started = time.perf_counter()
    with ButterflyEngine(guard, backend=backend, recorder=recorder) as engine:
        engine.attach_source(source)
        for lid, blocks in enumerate(source.epochs()):
            fed = time.perf_counter()
            engine.feed_blocks(lid, blocks)
            epoch_seconds.append(time.perf_counter() - fed)
            # The guard keeps a committed epoch's (final) rows for one
            # more feed; rows copied early are copied again.
            block_work.update(guard.block_work)
        engine.finish()
        block_work.update(guard.block_work)
    return TunePoint(
        epoch_size=epoch_size,
        epochs=partition.num_epochs,
        events=program.total_instructions,
        precision=oracle.score(guard.errors),
        epoch_seconds=epoch_seconds,
        wall_seconds=time.perf_counter() - started,
        partition=partition,
        block_work=block_work,
        oracle=oracle,
    )


@dataclass
class TradeoffCurve:
    """The fitted FP-rate/latency tradeoff for one workload.

    ``fp_rate ~ fp_intercept + fp_slope * log2(h)`` and
    ``mean_epoch_ms ~ latency_intercept + latency_slope * h``: both
    least-squares over the sweep's points.  ``fp_monotone`` is the raw
    (not fitted) point-to-point check -- measured FP rate never
    decreases as ``h`` grows -- recorded for inspection only; CI gates
    on ``fp_slope >= 0``.
    """

    points: List[TunePoint] = field(default_factory=list)
    fp_slope: float = 0.0
    fp_intercept: float = 0.0
    latency_slope: float = 0.0
    latency_intercept: float = 0.0
    fp_monotone: bool = True

    def to_record(self) -> Dict[str, Any]:
        return {
            "points": [p.to_record() for p in self.points],
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


class ExperimentSuite:
    """Memoises each quantity the figures read, separately, so a figure
    computes only what it prints: traces, their oracles, the three
    epoch-size independent baselines (shared across Figure 12's h
    sweep) and one :class:`TunePoint` per (benchmark, threads, h)."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._memo: Dict[Tuple[Any, ...], Any] = {}

    def _cached(self, key: Tuple[Any, ...], build: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def program(self, benchmark: str, threads: int) -> TraceProgram:
        return self._cached(
            ("program", benchmark, threads),
            lambda: get_benchmark(benchmark).generate(
                threads, self.config.events_per_thread, seed=self.config.seed
            ),
        )

    def oracle(self, benchmark: str, threads: int) -> Oracle:
        return self._cached(
            ("oracle", benchmark, threads),
            lambda: Oracle(self.program(benchmark, threads)),
        )

    def sequential(self, benchmark: str, threads: int) -> SimResult:
        """Sequential unmonitored: the normalizer."""
        return self._cached(
            ("sequential", benchmark, threads),
            lambda: LBASystem().unmonitored_sequential(
                self.program(benchmark, threads)
            ),
        )

    def parallel(self, benchmark: str, threads: int) -> SimResult:
        return self.oracle(benchmark, threads).app

    def timesliced(self, benchmark: str, threads: int) -> SimResult:
        return self._cached(
            ("timesliced", benchmark, threads),
            lambda: LBASystem().timesliced(self.program(benchmark, threads)),
        )

    def point(
        self, benchmark: str, threads: int, epoch_size: int
    ) -> TunePoint:
        return self._cached(
            ("point", benchmark, threads, epoch_size),
            lambda: measure_epoch_size(
                self.program(benchmark, threads),
                epoch_size,
                self.oracle(benchmark, threads),
            ),
        )

    def normalized(
        self, benchmark: str, threads: int, result: SimResult
    ) -> float:
        """Execution time normalized to sequential unmonitored."""
        return result.cycles / self.sequential(benchmark, threads).cycles
