"""The premise that makes the theorems apply to recorded executions:

when heartbeats are cut in *execution time* (``partition_by_global_order``),
the recorded interleaving is itself a valid ordering of the resulting
partition -- instructions of epoch ``l`` really do all precede
instructions of epoch ``l+2``.  This is the bridge between the paper's
machine model (finite buffering bounds how stale a visible instruction
can be) and the analysis' two-epoch rule.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.epoch import partition_by_global_order
from repro.core.ordering import is_valid_ordering
from repro.trace.generator import simulated_alloc_program
from repro.workloads.registry import BENCHMARKS, get_benchmark

from tests.properties.test_ordering_properties import instr_ids
from tests.trace.test_program import schedule_refs


class TestRecordedOrderIsValid:
    @given(
        seed=st.integers(0, 5000),
        threads=st.integers(1, 4),
        h=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_simulated_executions(self, seed, threads, h):
        prog = simulated_alloc_program(
            random.Random(seed), num_threads=threads, total_events=40,
            num_locations=6,
        )
        part = partition_by_global_order(prog, h)
        ids = instr_ids(part)
        order = [ids[ref] for ref in schedule_refs(prog.recorded_order())]
        assert is_valid_ordering(part, order)

    @given(
        name=st.sampled_from(sorted(BENCHMARKS)),
        h=st.sampled_from([64, 256, 1024]),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=15, deadline=None)
    def test_benchmark_workloads(self, name, h, seed):
        prog = get_benchmark(name).generate(3, 2500, seed=seed)
        part = partition_by_global_order(prog, h)
        ids = instr_ids(part)
        order = [ids[ref] for ref in schedule_refs(prog.recorded_order())]
        assert is_valid_ordering(part, order)
