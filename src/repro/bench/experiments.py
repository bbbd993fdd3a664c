"""One function per table/figure of the paper's evaluation (Section 7).

Each returns structured data (for assertions and benches) and can
render itself as text in the paper's presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.harness import EPOCH_LARGE, EPOCH_SMALL, ExperimentSuite
from repro.bench.reporting import (
    format_rate,
    render_grouped_bars,
    render_table,
)
from repro.sim.config import MachineConfig
from repro.workloads.registry import BENCHMARKS, benchmark_table_rows


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


@dataclass
class Table1:
    """Simulator and benchmark parameters."""

    simulation_rows: List[Tuple[str, str]]
    benchmark_rows: List[Tuple[str, str, str]]

    def render(self) -> str:
        sim = render_table(("Parameter", "Value"), self.simulation_rows)
        bench = render_table(
            ("Application", "Suite", "Input Data Set"), self.benchmark_rows
        )
        return (
            "Table 1: Simulator and Benchmark Parameters\n\n"
            + sim
            + "\n\n"
            + bench
        )


def table1() -> Table1:
    """Regenerate Table 1 (the core count column shows {4,8,16})."""
    rows = MachineConfig().table_rows()
    # The paper's table shows the whole sweep in one row.
    rows[0] = ("Cores", "{4,8,16} cores")
    l2_row = (
        "L2",
        "{2,4,8}MB, 8-way set-assoc, 4 banks, 6 cycle latency",
    )
    rows[5] = l2_row
    return Table1(simulation_rows=rows, benchmark_rows=benchmark_table_rows())


# ---------------------------------------------------------------------------
# Figure 11: relative performance
# ---------------------------------------------------------------------------


@dataclass
class Figure11:
    """Execution time normalized to sequential unmonitored execution.

    ``data[benchmark][threads]`` holds the three bars:
    (timesliced, butterfly, parallel-no-monitoring), all at
    ``EPOCH_LARGE``.
    """

    data: Dict[str, Dict[int, Tuple[float, float, float]]]

    def render(self) -> str:
        groups: Dict[str, Dict[str, float]] = {}
        for bench, per_threads in self.data.items():
            series: Dict[str, float] = {}
            for threads, (ts, bf, par) in sorted(per_threads.items()):
                series[f"{threads}t timesliced"] = ts
                series[f"{threads}t butterfly "] = bf
                series[f"{threads}t no-monitor"] = par
            groups[bench] = series
        return render_grouped_bars(
            "Figure 11: relative performance "
            "(normalized to sequential unmonitored; lower is better)",
            groups,
        )


def figure11(suite: ExperimentSuite) -> Figure11:
    data: Dict[str, Dict[int, Tuple[float, float, float]]] = {}
    for bench in BENCHMARKS:
        data[bench] = {}
        for threads in suite.config.thread_counts:
            data[bench][threads] = tuple(
                suite.normalized(bench, threads, result)
                for result in (
                    suite.timesliced(bench, threads),
                    suite.point(bench, threads, EPOCH_LARGE).butterfly,
                    suite.parallel(bench, threads),
                )
            )
    return Figure11(data=data)


# ---------------------------------------------------------------------------
# Figure 12: performance sensitivity to epoch size
# ---------------------------------------------------------------------------


@dataclass
class Figure12:
    """Butterfly execution time (normalized) at both epoch sizes.

    ``data[benchmark][threads]`` = (time at small h, time at large h).
    """

    data: Dict[str, Dict[int, Tuple[float, float]]]

    def render(self) -> str:
        rows = []
        for bench, per in self.data.items():
            for threads, (small, large) in sorted(per.items()):
                rows.append(
                    (
                        bench,
                        threads,
                        f"{small:.2f}x",
                        f"{large:.2f}x",
                        "larger epoch faster"
                        if large < small
                        else "smaller epoch faster",
                    )
                )
        return (
            "Figure 12: performance sensitivity to epoch size "
            f"(h={EPOCH_SMALL} vs h={EPOCH_LARGE} events; "
            "paper: 8K vs 64K instructions)\n"
            + render_table(
                ("Benchmark", "Threads", "h=8K", "h=64K", "Direction"), rows
            )
        )


def figure12(suite: ExperimentSuite) -> Figure12:
    data: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for bench in BENCHMARKS:
        data[bench] = {}
        for threads in suite.config.thread_counts:
            data[bench][threads] = tuple(
                suite.normalized(
                    bench, threads, suite.point(bench, threads, h).butterfly
                )
                for h in (EPOCH_SMALL, EPOCH_LARGE)
            )
    return Figure12(data=data)


# ---------------------------------------------------------------------------
# Figure 13: false-positive sensitivity to epoch size
# ---------------------------------------------------------------------------


@dataclass
class Figure13:
    """False positives as a fraction of memory accesses, both epoch sizes.

    ``data[benchmark][threads]`` = (rate at small h, rate at large h).
    """

    data: Dict[str, Dict[int, Tuple[float, float]]]

    def render(self) -> str:
        rows = []
        for bench, per in self.data.items():
            for threads, (small, large) in sorted(per.items()):
                rows.append(
                    (bench, threads, format_rate(small), format_rate(large))
                )
        return (
            "Figure 13: false positives as % of memory accesses "
            f"(h={EPOCH_SMALL} vs h={EPOCH_LARGE} events)\n"
            + render_table(
                ("Benchmark", "Threads", "h=8K", "h=64K"), rows
            )
        )


def figure13(suite: ExperimentSuite) -> Figure13:
    data: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for bench in BENCHMARKS:
        data[bench] = {}
        for threads in suite.config.thread_counts:
            data[bench][threads] = tuple(
                suite.point(bench, threads, h).fp_rate
                for h in (EPOCH_SMALL, EPOCH_LARGE)
            )
    return Figure13(data=data)
