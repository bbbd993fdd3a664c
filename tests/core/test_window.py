"""Unit tests for butterfly windows."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.epoch import partition_fixed, partition_from_boundaries
from repro.core.window import butterflies_for_epoch
from repro.trace.events import Instr
from repro.trace.program import TraceProgram


def partition(threads=3, per_thread=9, h=3):
    prog = TraceProgram.from_lists(
        *[[Instr.nop() for _ in range(per_thread)] for _ in range(threads)]
    )
    return partition_fixed(prog, h)


def butterfly_for(part, lid, tid):
    return butterflies_for_epoch(part, lid)[tid]


def wing_ids(bf):
    return [b.block_id for b in bf.wings]


def concurrent(bf, other):
    """The paper's definition: another thread's block within one epoch
    of the body (Section 4.1)."""
    lid, tid = other
    return tid != bf.body.tid and abs(lid - bf.body.lid) <= 1


class TestButterflyStructure:
    def test_interior_body(self):
        bf = butterfly_for(partition(), 1, 0)
        assert bf.body.block_id == (1, 0)
        assert bf.head.block_id == (0, 0)
        assert bf.tail.block_id == (2, 0)
        # Wings: epochs 0..2 of the other two threads.
        assert sorted(wing_ids(bf)) == [
            (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)
        ]

    def test_wings_are_epoch_major_in_thread_order(self):
        # Isolation provenance blames the first wing with a change.
        bf = butterfly_for(partition(threads=4), 1, 2)
        assert wing_ids(bf) == [
            (lid, tid) for lid in (0, 1, 2) for tid in (0, 1, 3)
        ]
        assert [b.block_id for b in butterflies_for_epoch(
            partition(threads=4), 1
        )[0].wings] == [(lid, tid) for lid in (0, 1, 2) for tid in (1, 2, 3)]

    def test_first_epoch_has_no_head(self):
        bf = butterfly_for(partition(), 0, 1)
        assert bf.head is None
        assert {w[0] for w in wing_ids(bf)} == {0, 1}

    def test_last_epoch_has_no_tail(self):
        part = partition()
        bf = butterfly_for(part, part.num_epochs - 1, 2)
        assert bf.tail is None

    def test_wings_never_include_own_thread(self):
        bf = butterfly_for(partition(), 1, 1)
        assert all(t != 1 for (_, t) in wing_ids(bf))

    def test_single_thread_has_empty_wings(self):
        prog = TraceProgram.from_lists([Instr.nop()] * 6)
        from repro.core.epoch import partition_fixed

        bf = butterfly_for(partition_fixed(prog, 2), 1, 0)
        assert bf.wings == ()


class TestConcurrencyPredicate:
    def test_adjacent_other_thread_is_concurrent(self):
        bf = butterfly_for(partition(), 1, 0)
        assert (0, 1) in wing_ids(bf)
        assert (2, 2) in wing_ids(bf)

    def test_same_thread_never_concurrent(self):
        bf = butterfly_for(partition(), 1, 0)
        assert (1, 0) not in wing_ids(bf)
        assert (0, 0) not in wing_ids(bf)

    def test_distant_epoch_not_concurrent(self):
        part = partition(per_thread=15, h=3)
        bf = butterfly_for(part, 1, 0)
        assert (3, 1) not in wing_ids(bf)

    def test_all_blocks_includes_window(self):
        bf = butterfly_for(partition(), 1, 0)
        ids = {b.block_id for b in (bf.body, bf.head, bf.tail, *bf.wings)}
        assert (1, 0) in ids and (0, 0) in ids and (2, 0) in ids
        assert len(ids) == 9  # 3 own + 6 wings


class TestConcurrencyMatchesWings:
    """The wings are exactly the blocks the paper calls potentially
    concurrent with the body, including the window's first/last-epoch
    truncations."""

    @given(
        lengths=st.lists(st.integers(0, 6), min_size=1, max_size=4),
        h=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=80)
    def test_predicate_agrees_with_wing_membership(self, lengths, h, data):
        if not any(lengths):
            lengths = list(lengths)
            lengths[0] = 1
        prog = TraceProgram.from_lists(
            *[[Instr.nop()] * n for n in lengths]
        )
        num_epochs = (max(lengths) + h - 1) // h
        boundaries = [
            [min((k + 1) * h, n) for k in range(num_epochs)]
            for n in lengths
        ]
        part = partition_from_boundaries(prog, boundaries)
        all_ids = [
            (l, t)
            for l in range(part.num_epochs)
            for t in range(part.num_threads)
        ]
        for lid in range(part.num_epochs):
            for tid in range(part.num_threads):
                bf = butterfly_for(part, lid, tid)
                wings = set(wing_ids(bf))
                for other in all_ids:
                    assert concurrent(bf, other) == (other in wings), (
                        bf.body.block_id, other
                    )

    def test_first_and_last_epoch_explicitly(self):
        part = partition(threads=2, per_thread=6, h=2)
        first = butterfly_for(part, 0, 0)
        last = butterfly_for(part, part.num_epochs - 1, 0)
        for bf in (first, last):
            wings = set(wing_ids(bf))
            for l in range(part.num_epochs):
                for t in range(part.num_threads):
                    assert concurrent(bf, (l, t)) == ((l, t) in wings)

