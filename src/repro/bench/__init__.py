"""Experiment harness regenerating the paper's Table 1 and Figures 11-13.

- :mod:`repro.bench.harness` -- runs one (benchmark, threads, epoch
  size) configuration through all system models, with caching so the
  three figures share runs, and holds the one (trace, epoch size)
  measurement ``repro sweep`` shares with them;
- :mod:`repro.bench.experiments` -- assembles each table/figure's rows
  or series from harness runs;
- :mod:`repro.bench.reporting` -- plain-text rendering of tables and
  bar series, mirroring the paper's presentation.
"""

from repro.bench.harness import ExperimentConfig, ExperimentSuite, RunRecord
from repro.bench.experiments import (
    figure11,
    figure12,
    figure13,
    table1,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentSuite",
    "RunRecord",
    "figure11",
    "figure12",
    "figure13",
    "table1",
]
