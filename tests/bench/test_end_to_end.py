"""End-to-end integration: generate -> persist -> reload -> analyze.

Exercises the full user journey across subpackage boundaries and pins
down that persistence is analysis-transparent.
"""

import io

import pytest

from repro.core.epoch import partition_by_global_order
from repro.core.framework import ButterflyEngine
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.reports import compare_reports
from repro.lifeguards.sequential import SequentialAddrCheck
from repro.trace.serialize import dump, load
from repro.workloads.registry import get_benchmark


@pytest.fixture(scope="module")
def journey():
    original = get_benchmark("BARNES").generate(3, 5000, seed=21)
    buf = io.StringIO()
    dump(original, buf)
    buf.seek(0)
    reloaded = load(buf)
    return original, reloaded


class TestPersistenceTransparency:
    def test_analysis_identical_after_reload(self, journey):
        original, reloaded = journey

        def flags(program):
            guard = ButterflyAddrCheck(
                initially_allocated=program.preallocated
            )
            ButterflyEngine(guard).run(
                partition_by_global_order(program, 512)
            )
            return {r.identity() for r in guard.errors}

        assert flags(original) == flags(reloaded)

    def test_precision_identical_after_reload(self, journey):
        original, reloaded = journey
        results = []
        for program in (original, reloaded):
            truth = SequentialAddrCheck(program.preallocated)
            truth.run_order(program)
            guard = ButterflyAddrCheck(
                initially_allocated=program.preallocated
            )
            ButterflyEngine(guard).run(
                partition_by_global_order(program, 2048)
            )
            pr = compare_reports(
                truth.errors, guard.errors, program.memory_op_count
            )
            results.append((pr.flagged, pr.false_positives,
                            pr.false_negatives))
        assert results[0] == results[1]
