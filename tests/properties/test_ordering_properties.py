"""Property-based tests for valid orderings and interleavings."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.epoch import partition_fixed
from repro.core.ordering import (
    is_valid_ordering,
    random_valid_ordering,
)
from repro.trace.events import Instr
from repro.trace.interleave import (
    random_interleave,
    round_robin,
)
from repro.trace.program import TraceProgram


def reference_round_robin(lengths, quantum):
    """``round_robin`` as a walk: each pass gives every thread up to
    ``quantum`` more of its events."""
    cursors = [0] * len(lengths)
    order = []
    while sum(cursors) < sum(lengths):
        for t, n in enumerate(lengths):
            take = min(quantum, n - cursors[t])
            order.extend([t] * take)
            cursors[t] += take
    return order


def program_of(lengths):
    return TraceProgram.from_lists(
        *[[Instr.write(t * 100 + i) for i in range(n)] for t, n in enumerate(lengths)]
    )


def instr_ids(part):
    """``(thread, trace index) -> (epoch, thread, offset)`` over every
    block: turns a recorded interleaving into an ordering."""
    return {
        block.global_ref(i): (block.lid, block.tid, i)
        for block in part.iter_blocks()
        for i in range(len(block))
    }


class TestOrderingProperties:
    @given(
        lengths=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        h=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60)
    def test_random_valid_ordering_is_valid(self, lengths, h, seed):
        part = partition_fixed(program_of(lengths), h)
        order = random_valid_ordering(part, random.Random(seed))
        assert is_valid_ordering(part, order)
        assert len(order) == sum(lengths)

    @given(
        lengths=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60)
    def test_sc_interleavings_are_valid_orderings_single_epoch(
        self, lengths, seed
    ):
        """With everything in one epoch, every SC interleaving is a
        valid ordering (epoch constraints are vacuous)."""
        prog = program_of(lengths)
        part = partition_fixed(prog, sum(lengths) + 1)
        inter = random_interleave(prog, random.Random(seed))
        ids = instr_ids(part)
        order = [ids[ref] for ref in inter]
        assert is_valid_ordering(part, order)

    @given(
        lengths=st.lists(st.integers(1, 10), min_size=1, max_size=4),
        quantum=st.integers(1, 5),
    )
    def test_round_robin_always_valid_sc(self, lengths, quantum):
        prog = program_of(lengths)
        prog.true_order = round_robin(prog, quantum=quantum)
        prog.validate()
        assert prog.true_order.tolist() == reference_round_robin(
            lengths, quantum
        )

    @given(
        lengths=st.lists(st.integers(1, 8), min_size=2, max_size=3),
        h=st.integers(1, 3),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=60)
    def test_program_order_embedded_in_valid_orderings(
        self, lengths, h, seed
    ):
        part = partition_fixed(program_of(lengths), h)
        order = random_valid_ordering(part, random.Random(seed))
        for t in range(len(lengths)):
            own = [iid for iid in order if iid[1] == t]
            assert own == sorted(own)
