"""Offline epoch-size tuning: the ``repro tune`` sweep and curve fit.

Epoch size ``h`` is the paper's one tuning knob (Sections 4 and 8):
small epochs keep the concurrency window tight (few false positives,
low result latency) but pay fixed per-epoch costs -- dispatch,
checkpoint writes, IPC for process shards -- on every heartbeat; large
epochs amortize those costs but widen the window the analysis must
treat as concurrent.

This module measures that tradeoff offline: sweep a workload across
epoch sizes, measure the false-positive rate against the sequential
oracle and the wall-clock cost per epoch, and fit the curve (FP rate is
linear-ish in ``log2 h``; per-epoch latency is linear in ``h``).  The
CI ``tune-smoke`` job gates on the fitted FP-rate slope being >= 0.
The *online* side of the knob -- the fold-factor controller the engine
consults while a stream is live -- is
:class:`~repro.core.epoch.EpochController`; see ``docs/tuning.md``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.core.epoch import partition_auto
from repro.core.framework import ButterflyEngine


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
    (not fitted) point-to-point check -- measured FP rate never
    decreases as ``h`` grows -- recorded for inspection only.
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
    backend: str = "serial",
) -> TradeoffCurve:
    """Sweep ``epoch_sizes`` over one workload; the fitted curve.

    The FP-rate axis *is* the comparison against a sequential oracle
    for the same lifeguard, and AddrCheck is the lifeguard the repo has
    one for -- so AddrCheck is what gets tuned.
    """
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
