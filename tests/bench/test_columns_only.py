"""The check and figure paths build no ``Instr``.

A registered workload is generated straight into columns, partitioned
into column slices, scanned by the columnar kernels, scored by an
oracle that walks the columns, reported from the error log's raw
entries, and timed by a cycle model that replays the columns' access
stream -- so ``repro check --benchmark``, Table 1 and Figures 11-13
construct no per-event object at all.  A counting
``Instr.__post_init__`` proves it.
"""

import pytest

from repro.bench.experiments import figure11, figure12, figure13, table1
from repro.bench.harness import ExperimentConfig, ExperimentSuite
from repro.cli import main
from repro.trace.events import Instr


@pytest.fixture
def instrs_built(monkeypatch):
    """The ops of every ``Instr`` constructed while the test runs."""
    built = []
    validate = Instr.__post_init__

    def counted(self):
        built.append(self.op)
        validate(self)

    monkeypatch.setattr(Instr, "__post_init__", counted)
    return built


def test_the_counter_counts(instrs_built):
    Instr.write(1)
    assert len(instrs_built) == 1


@pytest.mark.parametrize("lifeguard", ["addrcheck", "race", "taintcheck"])
def test_check_benchmark_builds_no_instr(instrs_built, capsys, lifeguard):
    assert main([
        "check", "--benchmark", "OCEAN", "--threads", "4",
        "--events", "11500", "--epoch-size", "4096",
        "--lifeguard", lifeguard,
    ]) == 0
    out = capsys.readouterr().out
    assert "flags: " in out
    if lifeguard == "addrcheck":
        assert "flags: 0" not in out and "oracle" in out
    assert instrs_built == []


def test_figure13_builds_no_instr(instrs_built):
    fig = figure13(ExperimentSuite(
        ExperimentConfig(events_per_thread=6000, thread_counts=(2,))
    ))
    assert any(small or large for per in fig.data.values()
               for small, large in per.values())
    assert instrs_built == []


def test_table1_and_cycle_figures_build_no_instr(instrs_built):
    """Figures 11-12 run every cycle model: the sequential, parallel and
    timesliced baselines and the butterfly pricing at both epoch
    sizes."""
    suite = ExperimentSuite(
        ExperimentConfig(events_per_thread=3000, thread_counts=(2,))
    )
    table1().render()
    eleven = figure11(suite)
    twelve = figure12(suite)
    assert all(ts > 0 and bf > 0 and par > 0
               for per in eleven.data.values()
               for ts, bf, par in per.values())
    assert all(small > 0 and large > 0 for per in twelve.data.values()
               for small, large in per.values())
    assert instrs_built == []
