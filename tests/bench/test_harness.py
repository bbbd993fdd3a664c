"""Tests for the experiment harness (small scale for speed)."""

import pytest

from repro.bench.experiments import figure11, figure12, figure13
from repro.bench.harness import (
    EPOCH_LARGE,
    EPOCH_SMALL,
    PAPER_EPOCHS,
    SCALE,
    ExperimentConfig,
    ExperimentSuite,
)
from repro.sim import lba
from repro.sim.accelerators import MetadataTLB
from repro.sim.cmp import Core
from repro.sim.lba import LBASystem
from repro.workloads.registry import BENCHMARKS


@pytest.fixture(scope="module")
def small_suite():
    return ExperimentSuite(
        ExperimentConfig(events_per_thread=3000, thread_counts=(2,))
    )


class TestConfig:
    def test_default_epochs_are_scaled_paper_values(self):
        assert EPOCH_SMALL == PAPER_EPOCHS["8K"] // SCALE == 512
        assert EPOCH_LARGE == PAPER_EPOCHS["64K"] // SCALE == 4096


class TestSuite:
    def test_program_cached(self, small_suite):
        a = small_suite.program("LU", 2)
        b = small_suite.program("LU", 2)
        assert a is b

    def test_baselines_shared_across_epoch_sizes(self, monkeypatch):
        suite = ExperimentSuite(
            ExperimentConfig(events_per_thread=1500, thread_counts=(2,))
        )
        built = []
        for name in ("unmonitored_sequential", "unmonitored_parallel",
                     "timesliced"):
            def counted(system, program, _real=getattr(LBASystem, name),
                        _name=name):
                built.append(_name)
                return _real(system, program)
            monkeypatch.setattr(LBASystem, name, counted)
        for h in (128, 1024):
            point = suite.point("LU", 2, h)
            suite.normalized("LU", 2, point.butterfly)
            suite.normalized("LU", 2, suite.parallel("LU", 2))
            suite.normalized("LU", 2, suite.timesliced("LU", 2))
        assert sorted(built) == [
            "timesliced", "unmonitored_parallel", "unmonitored_sequential",
        ]
        # Both sizes cut the one trace and score against the one oracle.
        small, large = suite.point("LU", 2, 128), suite.point("LU", 2, 1024)
        assert small.partition.program is large.partition.program
        assert suite.oracle("LU", 2) is suite.oracle("LU", 2)

    def test_app_side_simulated_once_per_program(self, monkeypatch):
        """Figure 11's no-monitoring bar and every butterfly point of
        Figures 11-12 share one parallel run of each program."""
        runs = []
        real = lba.run_parallel

        def counted(program, config):
            runs.append(program)
            return real(program, config)

        monkeypatch.setattr(lba, "run_parallel", counted)
        suite = ExperimentSuite(
            ExperimentConfig(events_per_thread=1500, thread_counts=(2,))
        )
        figure11(suite)
        figure12(suite)
        programs = [suite.program(bench, 2) for bench in BENCHMARKS]
        assert len(runs) == len(programs)
        assert all(any(run is p for run in runs) for p in programs)

    def test_run_cached(self, small_suite):
        a = small_suite.point("LU", 2, 128)
        b = small_suite.point("LU", 2, 128)
        assert a is b
        # Priced once, on first read.
        assert a.butterfly is b.butterfly

    def test_record_normalization(self, small_suite):
        seq = small_suite.sequential("LU", 2)
        point = small_suite.point("LU", 2, 128)
        assert small_suite.normalized("LU", 2, seq) == pytest.approx(1.0)
        assert small_suite.normalized("LU", 2, point.butterfly) > 0
        assert small_suite.normalized(
            "LU", 2, small_suite.parallel("LU", 2)
        ) < 1.0

    def test_precision_attached(self, small_suite):
        point = small_suite.point("LU", 2, 128)
        assert point.precision.false_negatives == 0
        assert point.precision.memory_ops > 0


class TestRunAll:
    def test_covers_the_grid_at_one_epoch_size(self):
        suite = ExperimentSuite(
            ExperimentConfig(events_per_thread=1500, thread_counts=(2,))
        )
        for bench in BENCHMARKS:
            for threads in suite.config.thread_counts:
                point = suite.point(bench, threads, 512)
                assert point.precision.false_negatives == 0


class TestFigure13:
    def test_simulates_no_cycles(self, monkeypatch):
        """Figure 13 prints precision only, so it runs the lifeguard and
        the oracle and none of the cycle model."""
        def refuse(*args, **kwargs):
            raise AssertionError("Figure 13 simulated cycles")
        monkeypatch.setattr(Core, "execute", refuse)
        monkeypatch.setattr(LBASystem, "timesliced", refuse)
        monkeypatch.setattr(MetadataTLB, "lookup", refuse)
        fig = figure13(ExperimentSuite(
            ExperimentConfig(events_per_thread=1500, thread_counts=(2,))
        ))
        assert set(fig.data) == set(BENCHMARKS)
        assert all(set(per) == {2} for per in fig.data.values())
