"""Figure 13: precision sensitivity to epoch size -- false positives as
a percentage of memory accesses (log scale in the paper).

Shape contract: false negatives are impossible; false-positive rates
are (weakly) increasing in the epoch size; OCEAN is the worst case at
the large epoch (expensive enough to explain its Figure 12 reversal);
BARNES grows by orders of magnitude between the two sizes while FFT,
FMM, LU, and BLACKSCHOLES stay low; with the small epoch everything is
far below the paper's 0.001 % line.
"""

import pytest

from repro.bench.experiments import figure13
from repro.workloads.registry import BENCHMARKS

from .conftest import emit


@pytest.fixture(scope="module")
def fig13(suite):
    return figure13(suite)


def test_zero_false_negatives_everywhere(suite, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cfg = suite.config
    for bench in BENCHMARKS:
        for threads in cfg.thread_counts:
            for h in (cfg.epoch_small, cfg.epoch_large):
                record = suite.run(bench, threads, h)
                assert record.precision.false_negatives == 0, (
                    bench, threads, h
                )


def test_rates_weakly_increase_with_epoch_size(fig13, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for bench, per in fig13.data.items():
        for threads, (small, large) in per.items():
            assert large >= small, (bench, threads)


def test_small_epoch_rates_below_paper_line(fig13, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # The paper: "With the smaller epoch size, all programs have false
    # positive rates well below 0.001% of memory accesses."
    for bench, per in fig13.data.items():
        for threads, (small, _large) in per.items():
            assert small < 1e-5, (bench, threads, small)


def test_ocean_is_worst_at_large_epoch(fig13, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    data = fig13.data
    worst = max(data, key=lambda b: max(r[1] for r in data[b].values()))
    assert worst == "OCEAN"


def test_barnes_grows_orders_of_magnitude(fig13, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    per = fig13.data["BARNES"]
    for threads, (small, large) in per.items():
        # From (effectively) zero to a measurable rate.
        assert large > max(small * 100, 1e-4), (threads, small, large)


def test_no_churn_benchmarks_stay_low(fig13, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for bench in ("FFT", "LU", "BLACKSCHOLES"):
        for threads, (small, large) in fig13.data[bench].items():
            assert large < 1e-3, (bench, threads, large)


def test_figure13_render(fig13, benchmark):
    rendered = benchmark.pedantic(fig13.render, rounds=1, iterations=1)
    assert "Figure 13" in rendered
    emit(rendered)
