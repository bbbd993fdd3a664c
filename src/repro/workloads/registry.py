"""Benchmark registry: the six programs of Table 1, and the workloads
selectable by name beside them."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import BenchmarkGenerator
from repro.workloads.parsec import Blackscholes
from repro.workloads.server import AllocHandoff, SecureServer
from repro.workloads.splash2 import FFT, FMM, LU, Barnes, Ocean

#: Table 1's benchmark order.
BENCHMARKS: Dict[str, BenchmarkGenerator] = {
    "BARNES": Barnes(),
    "FFT": FFT(),
    "FMM": FMM(),
    "OCEAN": Ocean(),
    "BLACKSCHOLES": Blackscholes(),
    "LU": LU(),
}


#: Everything ``--benchmark`` accepts: Table 1 plus the epoch-size
#: precision workload and the one workload with taint traffic
#: (``--lifeguard taintcheck`` checks nothing on the others), which the
#: table and the figures leave out.
WORKLOADS: Dict[str, BenchmarkGenerator] = {
    **BENCHMARKS,
    "HANDOFF": AllocHandoff(),
    "SECURE-SERVER": SecureServer(),
}


def get_benchmark(name: str) -> BenchmarkGenerator:
    try:
        return WORKLOADS[name.upper()]
    except KeyError:
        raise WorkloadError(
            f"unknown benchmark {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


def benchmark_table_rows() -> List[Tuple[str, str, str]]:
    """Table 1's (Application, Suite, Input Data Set) rows."""
    return [
        (gen.spec.name, gen.spec.suite, gen.spec.input_desc)
        for gen in BENCHMARKS.values()
    ]
