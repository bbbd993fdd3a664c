"""Golden digests of Table 1 and Figures 11-13 on a small suite, and of
every system configuration's cycles on an allocation-heavy trace.

Each figure is digested twice: its rendered text, and the ``repr`` of
its data, whose normalized times are exact ratios of simulated cycles
-- so a change to any cycle count changes a digest even where the
rendering rounds it away.  Table 1's six workloads allocate and free
rarely, so the filter's and the metadata TLB's handling of MALLOC/FREE
extents is pinned by HANDOFF's ``SimResult``s, extras included.  The
values were recorded when the timing model still walked ``Instr``
objects; the model over columns must reproduce them bit for bit.
"""

import hashlib

import pytest

from repro.bench.experiments import figure11, figure12, figure13, table1
from repro.bench.harness import (
    ExperimentConfig,
    ExperimentSuite,
    Oracle,
    measure_epoch_size,
)
from repro.sim.lba import LBASystem
from repro.workloads.registry import get_benchmark

#: name -> (sha256 of ``render()``, sha256 of ``repr(data)``).
GOLDEN = {
    "figure11": (
        "aef52a689428c021309278d68085ca88a16b3dcee4ef5a7ab16ee275ea9ebb85",
        "8876dddde135565cbde31e1508e4465654f2abfffe6f899cba3122920688c192",
    ),
    "figure12": (
        "694bedbff59d7d1a28dfc28eaae670705af6e6d8ce1bad3e1bec683abc2265e6",
        "f1e7c3a7d1b05f834b726b148dda73f183a83950ef36b0d33fa278878f1dd362",
    ),
    "figure13": (
        "9073349830b2c432461185222be22b6237db8f3aa8f2af8bf5659b0dde4eaa61",
        "b7d4ce4a16ea3c4db8a8918dc77050dd289d68ebfd98732a22035988c6f48583",
    ),
}
TABLE1 = "42b931520e47d84242c2b4e49453fd3691f1fc23d0a036a6b2f14ac7e9aad321"
#: HANDOFF, 3 threads x 2,000 events, seed 1: timesliced, sequential,
#: parallel, then butterfly at h = 64 and 512.
HANDOFF = "1ed6f05bc76f6fe1d923578ef251236a2af0d823bda1d4ab9d95b735d583bdef"
FIGURES = {"figure11": figure11, "figure12": figure12, "figure13": figure13}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(
        ExperimentConfig(events_per_thread=3000, thread_counts=(2, 3))
    )


def test_table1_matches_golden():
    assert sha256(table1().render()) == TABLE1


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_matches_golden(suite, name):
    fig = FIGURES[name](suite)
    assert (sha256(fig.render()), sha256(repr(fig.data))) == GOLDEN[name]


def test_allocation_heavy_cycles_match_golden():
    program = get_benchmark("HANDOFF").generate(3, 2000, seed=1)
    system = LBASystem()
    oracle = Oracle(program)
    results = [
        system.timesliced(program),
        system.unmonitored_sequential(program),
        system.unmonitored_parallel(program),
    ] + [measure_epoch_size(program, h, oracle).butterfly for h in (64, 512)]
    assert sha256(repr(results)) == HANDOFF
