"""Runs benchmark x system x parameter configurations, with caching.

The scaling rule (DESIGN.md section 3): all event counts are 1/16 of
the paper's instruction counts, so the paper's epoch sizes h in {8K,
64K} instructions become {512, 4096} events while preserving the
epochs-per-run and gap-vs-window ratios that drive both performance
amortization and false-positive behaviour.

What the epoch size does to one trace is measured in one place,
:func:`measure_epoch_size`: ``repro sweep``, Figures 12-13
(:meth:`ExperimentSuite.run`) and ``examples/epoch_size_tuning.py``
read its :class:`TunePoint`; :func:`fit_tradeoff` fits a sweep of them
(``docs/tuning.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lifeguards.reports import (
    ErrorReport,
    PrecisionReport,
    compare_reports,
)
from repro.lifeguards.sequential import SequentialAddrCheck
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.config import LifeguardCostModel
from repro.sim.lba import LBASystem, SimResult
from repro.trace.program import TraceProgram
from repro.workloads.registry import get_benchmark

#: Scale factor between the paper's instruction counts and our event
#: counts (16x smaller traces, same structure).
SCALE = 16

#: The paper's epoch sizes, in monitored instructions.
PAPER_EPOCHS = {"8K": 8 * 1024, "64K": 64 * 1024}


@dataclass(frozen=True)
class ExperimentConfig:
    """Suite-wide knobs."""

    events_per_thread: int = 8192
    thread_counts: Tuple[int, ...] = (2, 4, 8)
    #: Scaled stand-ins for the paper's h = 8K and 64K.
    epoch_small: int = PAPER_EPOCHS["8K"] // SCALE
    epoch_large: int = PAPER_EPOCHS["64K"] // SCALE
    seed: int = 1
    costs: LifeguardCostModel = field(default_factory=LifeguardCostModel)
    #: Execution backend the butterfly engine fans out on ("serial",
    #: "threads", or "processes") -- results are backend-independent.
    backend: str = "serial"


@dataclass
class RunRecord:
    """Everything measured for one (benchmark, threads, h)."""

    benchmark: str
    threads: int
    epoch_size: int
    seq_unmonitored: SimResult
    par_unmonitored: SimResult
    timesliced: SimResult
    butterfly: SimResult
    precision: PrecisionReport

    def normalized(self, result: SimResult) -> float:
        """Execution time normalized to sequential unmonitored."""
        return result.cycles / self.seq_unmonitored.cycles

    @property
    def timesliced_norm(self) -> float:
        return self.normalized(self.timesliced)

    @property
    def butterfly_norm(self) -> float:
        return self.normalized(self.butterfly)

    @property
    def parallel_norm(self) -> float:
        return self.normalized(self.par_unmonitored)


class Oracle:
    """Ground truth for one trace: sequential AddrCheck replayed over
    the recorded order.  It does not depend on the epoch size, so one
    oracle scores every run of a sweep (Figure 13's false positives)."""

    def __init__(self, program: TraceProgram) -> None:
        truth = SequentialAddrCheck(program.preallocated)
        truth.run_order(program)
        self.errors = truth.errors
        self.memory_ops = program.memory_op_count

    def score(self, flagged: Iterable[ErrorReport]) -> PrecisionReport:
        return compare_reports(self.errors, flagged, self.memory_ops)


@dataclass
class TunePoint:
    """Everything measured for one (trace, epoch size) point: the one
    row ``repro sweep``, Figures 12-13 and the tradeoff fit read."""

    epoch_size: int
    epochs: int
    events: int
    #: Simulated time (deterministic): Figure 12's quantity.
    butterfly: SimResult
    #: Flags against the oracle (deterministic): Figure 13's quantity.
    precision: PrecisionReport
    #: Host wall clock: each epoch's feed, and the whole run.
    epoch_seconds: List[float]
    wall_seconds: float

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
    system: Optional[LBASystem] = None,
    backend: Any = "serial",
    recorder: Recorder = NULL_RECORDER,
) -> TunePoint:
    """Run butterfly AddrCheck over ``program`` at one epoch size and
    score it against ``oracle`` -- the single way this repo measures
    what the paper's knob does at one setting."""
    run = (system or LBASystem()).butterfly(
        program, epoch_size, backend=backend, recorder=recorder
    )
    return TunePoint(
        epoch_size=epoch_size,
        epochs=run.partition.num_epochs,
        events=program.total_instructions,
        butterfly=run.result,
        precision=oracle.score(run.guard.errors),
        epoch_seconds=run.epoch_seconds,
        wall_seconds=run.wall_seconds,
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
    """Caches traces and per-configuration runs across figures."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or ExperimentConfig()
        self._programs: Dict[Tuple[str, int], TraceProgram] = {}
        self._baselines: Dict[Tuple[str, int], Tuple[SimResult, SimResult, SimResult, Oracle]] = {}
        self._runs: Dict[Tuple[str, int, int], RunRecord] = {}
        self._system = LBASystem(costs=self.config.costs)

    # -- building blocks --------------------------------------------------

    def program(self, benchmark: str, threads: int) -> TraceProgram:
        key = (benchmark, threads)
        if key not in self._programs:
            gen = get_benchmark(benchmark)
            self._programs[key] = gen.generate(
                threads, self.config.events_per_thread, seed=self.config.seed
            )
        return self._programs[key]

    def baselines(
        self, benchmark: str, threads: int
    ) -> Tuple[SimResult, SimResult, SimResult, Oracle]:
        """(sequential unmonitored, parallel unmonitored, timesliced,
        oracle) -- epoch-size independent, shared across Figure 12's h
        sweep."""
        key = (benchmark, threads)
        if key not in self._baselines:
            program = self.program(benchmark, threads)
            self._baselines[key] = (
                self._system.unmonitored_sequential(program),
                self._system.unmonitored_parallel(program),
                self._system.timesliced(program),
                Oracle(program),
            )
        return self._baselines[key]

    # -- full runs -----------------------------------------------------------

    def run(self, benchmark: str, threads: int, epoch_size: int) -> RunRecord:
        key = (benchmark, threads, epoch_size)
        if key in self._runs:
            return self._runs[key]
        program = self.program(benchmark, threads)
        seq_res, par_res, ts_res, oracle = self.baselines(benchmark, threads)
        point = measure_epoch_size(
            program, epoch_size, oracle,
            system=self._system, backend=self.config.backend,
        )
        record = RunRecord(
            benchmark=benchmark,
            threads=threads,
            epoch_size=epoch_size,
            seq_unmonitored=seq_res,
            par_unmonitored=par_res,
            timesliced=ts_res,
            butterfly=point.butterfly,
            precision=point.precision,
        )
        self._runs[key] = record
        return record
