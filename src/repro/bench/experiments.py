"""One function per table/figure of the paper's evaluation (Section 7).

Each returns structured data (for assertions and benches) and can
render itself as text in the paper's presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import ExperimentConfig, ExperimentSuite
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


def table1(cores: int = 4) -> Table1:
    """Regenerate Table 1 (the core count column shows {4,8,16})."""
    config = MachineConfig(cores=cores)
    rows = config.table_rows()
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
    (timesliced, butterfly, parallel-no-monitoring).
    """

    epoch_size: int
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


def figure11(
    suite: ExperimentSuite, epoch_size: Optional[int] = None
) -> Figure11:
    h = epoch_size if epoch_size is not None else suite.config.epoch_large
    data: Dict[str, Dict[int, Tuple[float, float, float]]] = {}
    for bench in BENCHMARKS:
        data[bench] = {}
        for threads in suite.config.thread_counts:
            record = suite.run(bench, threads, h)
            data[bench][threads] = (
                record.timesliced_norm,
                record.butterfly_norm,
                record.parallel_norm,
            )
    return Figure11(epoch_size=h, data=data)


# ---------------------------------------------------------------------------
# Figure 12: performance sensitivity to epoch size
# ---------------------------------------------------------------------------


@dataclass
class Figure12:
    """Butterfly execution time (normalized) at both epoch sizes.

    ``data[benchmark][threads]`` = (time at small h, time at large h).
    """

    epoch_small: int
    epoch_large: int
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
            f"(h={self.epoch_small} vs h={self.epoch_large} events; "
            "paper: 8K vs 64K instructions)\n"
            + render_table(
                ("Benchmark", "Threads", "h=8K", "h=64K", "Direction"), rows
            )
        )


def figure12(suite: ExperimentSuite) -> Figure12:
    cfg = suite.config
    data: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for bench in BENCHMARKS:
        data[bench] = {}
        for threads in cfg.thread_counts:
            small = suite.run(bench, threads, cfg.epoch_small)
            large = suite.run(bench, threads, cfg.epoch_large)
            data[bench][threads] = (
                small.butterfly_norm,
                large.butterfly_norm,
            )
    return Figure12(
        epoch_small=cfg.epoch_small, epoch_large=cfg.epoch_large, data=data
    )


# ---------------------------------------------------------------------------
# Figure 13: false-positive sensitivity to epoch size
# ---------------------------------------------------------------------------


@dataclass
class Figure13:
    """False positives as a fraction of memory accesses, both epoch sizes.

    ``data[benchmark][threads]`` = (rate at small h, rate at large h).
    """

    epoch_small: int
    epoch_large: int
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
            f"(h={self.epoch_small} vs h={self.epoch_large} events)\n"
            + render_table(
                ("Benchmark", "Threads", "h=8K", "h=64K"), rows
            )
        )


def figure13(suite: ExperimentSuite) -> Figure13:
    cfg = suite.config
    data: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for bench in BENCHMARKS:
        data[bench] = {}
        for threads in cfg.thread_counts:
            small = suite.run(bench, threads, cfg.epoch_small)
            large = suite.run(bench, threads, cfg.epoch_large)
            data[bench][threads] = (
                small.precision.false_positive_rate,
                large.precision.false_positive_rate,
            )
    return Figure13(
        epoch_small=cfg.epoch_small, epoch_large=cfg.epoch_large, data=data
    )
