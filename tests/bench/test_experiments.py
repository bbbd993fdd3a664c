"""Tests for the table/figure assembly (small scale)."""

import pytest

from repro.bench.experiments import figure11, figure12, figure13, table1
from repro.bench.harness import ExperimentConfig, ExperimentSuite
from repro.bench.reporting import (
    format_rate,
    render_bars,
    render_grouped_bars,
    render_table,
)
from repro.workloads.registry import BENCHMARKS


@pytest.fixture(scope="module")
def small_suite():
    return ExperimentSuite(
        ExperimentConfig(
            events_per_thread=2500,
            thread_counts=(2,),
            epoch_small=128,
            epoch_large=1024,
        )
    )


class TestTable1:
    def test_has_both_halves(self):
        t1 = table1()
        assert len(t1.simulation_rows) == 8
        assert len(t1.benchmark_rows) == 6

    def test_render_contains_everything(self):
        text = table1().render()
        for name in BENCHMARKS:
            assert name in text
        assert "8KB" in text


class TestFigures:
    def test_figure11_covers_grid(self, small_suite):
        fig = figure11(small_suite)
        assert set(fig.data) == set(BENCHMARKS)
        for per in fig.data.values():
            assert set(per) == {2}
            ts, bf, par = per[2]
            assert ts > 0 and bf > 0 and par > 0
        assert "Figure 11" in fig.render()

    def test_figure12_pairs(self, small_suite):
        fig = figure12(small_suite)
        for per in fig.data.values():
            small, large = per[2]
            assert small > 0 and large > 0
        assert "Figure 12" in fig.render()

    def test_figure13_rates(self, small_suite):
        fig = figure13(small_suite)
        for per in fig.data.values():
            small, large = per[2]
            assert 0.0 <= small <= 1.0
            assert 0.0 <= large <= 1.0
        assert "Figure 13" in fig.render()


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(("a", "bbb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len({len(l) for l in lines}) == 1

    def test_render_bars_scales(self):
        text = render_bars("t", {"x": 1.0, "y": 2.0}, width=10)
        assert text.count("#") > 10

    def test_render_bars_empty(self):
        assert render_bars("title", {}) == "title"

    def test_render_grouped(self):
        text = render_grouped_bars("T", {"g": {"x": 1.0}})
        assert "[g]" in text

    def test_format_rate(self):
        assert "below measurement floor" in format_rate(0.0)
        assert format_rate(0.01) == "1%"
