"""Unit tests for epoch partitioning."""

import pickle
import random

import pytest

from repro.core.columnar import ColumnarBlock
from repro.errors import PartitionError
from repro.trace.events import Instr
from repro.trace.generator import simulated_taint_program
from repro.trace.program import TraceProgram
from repro.core.epoch import (
    Block,
    EpochPartition,
    merge_block_run,
    partition_by_global_order,
    partition_fixed,
    partition_from_boundaries,
    partition_with_skew,
)


def program(lengths):
    return TraceProgram.from_lists(
        *[[Instr.nop() for _ in range(n)] for n in lengths]
    )


class TestPartitionFixed:
    def test_even_split(self):
        part = partition_fixed(program([6, 6]), 2)
        assert part.num_epochs == 3
        assert all(len(part.block(l, t)) == 2 for l in range(3) for t in range(2))

    def test_ragged_tail(self):
        part = partition_fixed(program([5]), 2)
        assert part.num_epochs == 3
        assert [len(part.block(l, 0)) for l in range(3)] == [2, 2, 1]

    def test_uneven_threads_get_empty_blocks(self):
        part = partition_fixed(program([4, 2]), 2)
        assert part.num_epochs == 2
        assert len(part.block(1, 1)) == 0

    def test_blocks_tile_the_trace(self):
        prog = TraceProgram.from_lists(
            [Instr.write(i) for i in range(7)]
        )
        part = partition_fixed(prog, 3)
        recovered = [
            i for l in range(part.num_epochs) for i in part.block(l, 0)
        ]
        assert [i.dst for i in recovered] == list(range(7))

    def test_bad_epoch_size(self):
        with pytest.raises(PartitionError):
            partition_fixed(program([4]), 0)


class TestBlockAddressing:
    def test_instr_lookup(self):
        prog = TraceProgram.from_lists([Instr.write(i) for i in range(6)])
        part = partition_fixed(prog, 2)
        assert part.instr((1, 0, 1)).dst == 3

    def test_global_ref_round_trip(self):
        prog = TraceProgram.from_lists([Instr.write(i) for i in range(6)])
        part = partition_fixed(prog, 2)
        refs = [
            part.global_ref_of(iid)
            for block in part.iter_blocks()
            for iid, _instr in block.iter_ids()
        ]
        assert refs == [(0, idx) for idx in range(6)]

    def test_out_of_range_block(self):
        part = partition_fixed(program([4]), 2)
        with pytest.raises(PartitionError):
            part.block(9, 0)
        with pytest.raises(PartitionError):
            part.block(0, 3)

    def test_iter_blocks_count(self):
        part = partition_fixed(program([6, 6]), 2)
        assert len(list(part.iter_blocks())) == 6


class TestSkewedPartition:
    def test_respects_skew_bound(self):
        part = partition_with_skew(
            program([100, 100]), 10, 4, rng=random.Random(0)
        )
        for t in range(2):
            for k, cut in enumerate(part.boundaries[t][:-1]):
                nominal = (k + 1) * 10
                assert abs(cut - nominal) <= 4

    def test_invalid_skew(self):
        with pytest.raises(PartitionError):
            partition_with_skew(program([10]), 4, 2)

    def test_blocks_still_tile(self):
        prog = TraceProgram.from_lists([Instr.write(i) for i in range(50)])
        part = partition_with_skew(prog, 10, 3, rng=random.Random(1))
        recovered = [
            i.dst
            for l in range(part.num_epochs)
            for i in part.block(l, 0)
        ]
        assert recovered == list(range(50))


class TestGlobalOrderPartition:
    def test_global_heartbeats_align_wall_clock(self):
        # Two threads, strictly alternating; heartbeat every 2*2=4
        # global events cuts each thread at 2 local events.
        prog = TraceProgram.from_lists(
            [Instr.nop()] * 6, [Instr.nop()] * 6
        )
        prog.true_order = [
            (t, i) for i in range(6) for t in (0, 1)
        ]
        part = partition_by_global_order(prog, 2)
        assert part.boundaries[0][:-1] == [2, 4, 6][: len(part.boundaries[0]) - 1]

    def test_imbalanced_threads_get_unequal_blocks(self):
        # Thread 0 executes 3x as fast as thread 1.
        order = []
        c = [0, 0]
        while c[0] < 9 or c[1] < 3:
            for _ in range(3):
                if c[0] < 9:
                    order.append((0, c[0]))
                    c[0] += 1
            if c[1] < 3:
                order.append((1, c[1]))
                c[1] += 1
        prog = TraceProgram.from_lists(
            [Instr.nop()] * 9, [Instr.nop()] * 3
        )
        prog.true_order = order
        part = partition_by_global_order(prog, 2)
        sizes0 = [len(part.block(l, 0)) for l in range(part.num_epochs)]
        sizes1 = [len(part.block(l, 1)) for l in range(part.num_epochs)]
        assert sum(sizes0) == 9 and sum(sizes1) == 3
        assert sizes0[0] > sizes1[0]

    def test_requires_recorded_order(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            partition_by_global_order(program([4]), 2)


class TestExplicitBoundaries:
    def test_valid(self):
        part = partition_from_boundaries(program([4, 4]), [[2, 4], [1, 4]])
        assert len(part.block(0, 1)) == 1
        assert len(part.block(1, 1)) == 3

    def test_must_end_at_length(self):
        with pytest.raises(PartitionError):
            partition_from_boundaries(program([4]), [[2, 3]])

    def test_must_be_sorted(self):
        with pytest.raises(PartitionError):
            partition_from_boundaries(program([4]), [[3, 2, 4]])

    def test_epoch_counts_must_agree(self):
        with pytest.raises(PartitionError):
            partition_from_boundaries(program([4, 4]), [[2, 4], [4]])

    def test_one_list_per_thread(self):
        with pytest.raises(PartitionError):
            partition_from_boundaries(program([4, 4]), [[4]])


class TestBlocksAreColumnSlices:
    def test_every_cut_policy_slices_the_thread_columns(self):
        """Each policy's blocks are views of the program's columns: equal
        to a fresh conversion of their ``Instr`` objects with their own
        offsets from 0, merging back to the concatenation, and pickled
        with their own events' bytes only."""
        prog = simulated_taint_program(
            random.Random(5), num_threads=3, total_events=120
        )
        assert prog.threads[0].columns.src_val.shape[0] > 0
        lengths = [len(t) for t in prog.threads]
        gapped = [[0, n // 2, n // 2, n, n] for n in lengths]
        partitions = {
            "fixed": partition_fixed(prog, 7),
            "global-order": partition_by_global_order(prog, 5),
            "skew": partition_with_skew(prog, 9, 4, random.Random(1)),
            "empty-and-trailing": partition_from_boundaries(prog, gapped),
        }
        for name, part in partitions.items():
            for tid, trace in enumerate(prog.threads):
                blocks = [
                    part.block(lid, tid) for lid in range(part.num_epochs)
                ]
                for block in blocks:
                    fresh = ColumnarBlock.from_instrs(block.instrs)
                    assert block.columns == fresh, name
                    assert block.columns.src_off[0] == 0, name
                    assert block.instrs == tuple(
                        trace.instrs[block.start:block.start + len(block)]
                    )
                    rebuilt = Block(block.lid, tid, block.start, fresh)
                    assert pickle.dumps(block) == pickle.dumps(rebuilt), name
                for lo in range(len(blocks)):
                    merged = merge_block_run(0, blocks[lo:])
                    assert merged.columns == ColumnarBlock.from_instrs(
                        trace.instrs[blocks[lo].start:]
                    ), name
                    assert merged.start == blocks[lo].start
        gaps = partitions["empty-and-trailing"]
        assert [len(gaps.block(lid, 0)) for lid in (0, 2, 4)] == [0, 0, 0]
