"""Figure 11: relative performance, normalized to sequential unmonitored
execution, for 2/4/8 application threads.

Shape contract (Section 7.2's prose, which this reproduction validates):

- "Parallel, No Monitoring" is the fastest configuration everywhere.
- At two threads butterfly vs. timesliced is mixed: better for BARNES
  and FMM, in between for FFT and OCEAN, significantly worse for
  BLACKSCHOLES and LU.
- Butterfly speeds up with threads, while timesliced does not.
- At eight threads butterfly outperforms timesliced in five of six
  cases; the exception is BLACKSCHOLES, which is still approaching the
  crossover.
"""

import pytest

from repro.bench.experiments import figure11
from repro.workloads.registry import BENCHMARKS

from .conftest import emit


@pytest.fixture(scope="module")
def fig11(suite):
    return figure11(suite)


def test_no_monitoring_is_always_fastest(fig11, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for bench, per in fig11.data.items():
        for threads, (ts, bf, par) in per.items():
            assert par < bf, (bench, threads)
            assert par < ts, (bench, threads)


def test_two_threads_mixed_results(fig11, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    data = fig11.data
    # Significantly better for BARNES and FMM.
    for bench in ("BARNES", "FMM"):
        ts, bf, _ = data[bench][2]
        assert bf < ts, bench
    # Significantly worse for BLACKSCHOLES and LU.
    for bench in ("BLACKSCHOLES", "LU"):
        ts, bf, _ = data[bench][2]
        assert bf > 1.3 * ts, bench


def test_butterfly_scales_with_threads(fig11, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for bench, per in fig11.data.items():
        assert per[8][1] < per[4][1] < per[2][1], bench


def test_eight_threads_butterfly_wins_five_of_six(fig11, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    wins = [b for b, per in fig11.data.items() if per[8][1] < per[8][0]]
    assert len(wins) == 5, wins
    assert "BLACKSCHOLES" not in wins


def test_blackscholes_approaches_crossover(fig11, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    per = fig11.data["BLACKSCHOLES"]
    ts8, bf8, _ = per[8]
    # Not yet crossed, but within 25% -- "speeding up well ... has not
    # quite reached the crossover point with eight threads".
    assert bf8 > ts8
    assert bf8 < 1.25 * ts8


def test_monitoring_never_faster_than_no_monitoring(fig11, benchmark):
    benchmark.extra_info["assertions"] = "shape"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for bench, per in fig11.data.items():
        for threads, (ts, bf, par) in per.items():
            assert bf >= par

def test_figure11_render(fig11, benchmark):
    rendered = benchmark.pedantic(fig11.render, rounds=1, iterations=1)
    assert "Figure 11" in rendered
    emit(rendered)
