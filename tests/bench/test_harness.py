"""Tests for the experiment harness (small scale for speed)."""

import pytest

from repro.bench.harness import (
    PAPER_EPOCHS,
    SCALE,
    ExperimentConfig,
    ExperimentSuite,
)


@pytest.fixture(scope="module")
def small_suite():
    return ExperimentSuite(
        ExperimentConfig(
            events_per_thread=3000,
            thread_counts=(2,),
            epoch_small=128,
            epoch_large=1024,
        )
    )


class TestConfig:
    def test_default_epochs_are_scaled_paper_values(self):
        cfg = ExperimentConfig()
        assert cfg.epoch_small == PAPER_EPOCHS["8K"] // SCALE == 512
        assert cfg.epoch_large == PAPER_EPOCHS["64K"] // SCALE == 4096


class TestSuite:
    def test_program_cached(self, small_suite):
        a = small_suite.program("LU", 2)
        b = small_suite.program("LU", 2)
        assert a is b

    def test_baselines_shared_across_epoch_sizes(self, small_suite):
        r1 = small_suite.run("LU", 2, 128)
        r2 = small_suite.run("LU", 2, 1024)
        assert r1.seq_unmonitored is r2.seq_unmonitored
        assert r1.timesliced is r2.timesliced

    def test_run_cached(self, small_suite):
        a = small_suite.run("LU", 2, 128)
        b = small_suite.run("LU", 2, 128)
        assert a is b

    def test_record_normalization(self, small_suite):
        record = small_suite.run("LU", 2, 128)
        assert record.normalized(record.seq_unmonitored) == pytest.approx(1.0)
        assert record.butterfly_norm > 0
        assert record.parallel_norm < 1.0

    def test_precision_attached(self, small_suite):
        record = small_suite.run("LU", 2, 128)
        assert record.precision.false_negatives == 0
        assert record.precision.memory_ops > 0


class TestRunAll:
    def test_covers_the_grid_at_one_epoch_size(self):
        suite = ExperimentSuite(
            ExperimentConfig(
                events_per_thread=1500,
                thread_counts=(2,),
                epoch_small=64,
                epoch_large=512,
            )
        )
        from repro.workloads.registry import BENCHMARKS

        for bench in BENCHMARKS:
            for threads in suite.config.thread_counts:
                record = suite.run(bench, threads, 512)
                assert record.precision.false_negatives == 0
