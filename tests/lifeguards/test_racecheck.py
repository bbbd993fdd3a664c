"""Tests for the butterfly conflict (race) detector."""

import pickle
import random

import pytest

from repro.core.epoch import (
    Block,
    partition_by_global_order,
    partition_fixed,
    partition_with_skew,
)
from repro.core.framework import ButterflyEngine
from repro.core.stream import ShapeSource
from repro.lifeguards.racecheck import ButterflyRaceCheck
from repro.trace.events import Instr
from repro.trace.generator import simulated_alloc_program
from repro.trace.program import TraceProgram
from repro.workloads.registry import get_benchmark
from tests.lifeguards.bitmask import BitInterner


def run(program, h):
    guard = ButterflyRaceCheck()
    ButterflyEngine(guard).run(partition_fixed(program, h))
    return guard


class TestBasicConflicts:
    def test_concurrent_write_write(self):
        prog = TraceProgram.from_lists([Instr.write(5)], [Instr.write(5)])
        guard = run(prog, 1)
        assert any(r.kind == "write-write" for r in guard.races)

    def test_concurrent_read_write(self):
        prog = TraceProgram.from_lists([Instr.read(5)], [Instr.write(5)])
        guard = run(prog, 1)
        kinds = {r.kind for r in guard.races}
        assert "read-write" in kinds

    def test_concurrent_reads_are_fine(self):
        prog = TraceProgram.from_lists([Instr.read(5)], [Instr.read(5)])
        guard = run(prog, 1)
        assert not guard.races

    def test_disjoint_locations_are_fine(self):
        prog = TraceProgram.from_lists([Instr.write(5)], [Instr.write(6)])
        guard = run(prog, 1)
        assert not guard.races

    def test_same_thread_never_races(self):
        prog = TraceProgram.from_lists(
            [Instr.write(5), Instr.write(5), Instr.read(5)]
        )
        guard = run(prog, 1)
        assert not guard.races

    def test_two_epoch_separation_is_ordered(self):
        prog = TraceProgram.from_lists(
            [Instr.write(5), Instr.nop(), Instr.nop(), Instr.nop()],
            [Instr.nop(), Instr.nop(), Instr.nop(), Instr.write(5)],
        )
        guard = run(prog, 1)
        assert not guard.races

    def test_adjacent_epoch_conflict_detected(self):
        prog = TraceProgram.from_lists(
            [Instr.write(5), Instr.nop()],
            [Instr.nop(), Instr.write(5)],
        )
        guard = run(prog, 1)
        assert guard.races

    def test_malloc_free_act_as_writes(self):
        prog = TraceProgram.from_lists(
            [Instr.malloc(5)], [Instr.read(5)]
        )
        guard = run(prog, 1)
        assert guard.races


class TestOnWorkloads:
    def test_blackscholes_is_race_free(self):
        # Thread-private data: no conflicts at any epoch size.
        prog = get_benchmark("BLACKSCHOLES").generate(4, 4000, seed=3)
        guard = ButterflyRaceCheck()
        ButterflyEngine(guard).run(partition_by_global_order(prog, 512))
        assert not guard.races

    def test_ocean_handoffs_surface_at_large_epochs(self):
        prog = get_benchmark("OCEAN").generate(4, 8192, seed=3)
        small = ButterflyRaceCheck()
        ButterflyEngine(small).run(partition_by_global_order(prog, 256))
        large = ButterflyRaceCheck()
        ButterflyEngine(large).run(partition_by_global_order(prog, 4096))
        # The boundary-buffer handoffs are unsynchronized *within the
        # window*: with a big window they are flagged as potential
        # races; with a small one they are provably ordered.
        assert len(large.races) > len(small.races)

    def test_summaries_evicted(self):
        prog = get_benchmark("LU").generate(2, 4000, seed=3)
        guard = ButterflyRaceCheck()
        ButterflyEngine(guard).run(partition_by_global_order(prog, 256))
        # Only the trailing window worth of summaries is retained.
        assert len(guard._summaries) <= 3 * prog.num_threads


class MaskRaceCheck(ButterflyRaceCheck):
    """The conflict check the set intersections replaced, kept as
    their reference: every location ever seen is interned, a block's
    footprints are masks as wide as the table, the wings' masks are
    ORed and the conflicts are bitwise ANDs."""

    def __init__(self):
        super().__init__()
        self._loc_bits = BitInterner()
        self._masks = {}

    def commit_scan(self, block, scan):
        mask = self._loc_bits.mask
        self._masks[block.block_id] = (mask(scan.reads), mask(scan.writes))
        return super().commit_scan(block, scan)

    def check_body(self, butterfly, side_in):
        reads, writes = self._masks[butterfly.body.block_id]
        wing_reads = wing_writes = 0
        for w in side_in:
            wing_reads |= self._masks[w.block_id][0]
            wing_writes |= self._masks[w.block_id][1]
        decode = self._loc_bits.decode
        return (
            set(decode(writes & wing_writes)),
            set(decode(writes & wing_reads)),
            set(decode(reads & wing_writes)),
        )


class TestSetIntersectionsAgainstTheMasks:
    CUTS = [
        lambda prog: partition_fixed(prog, 4),
        lambda prog: partition_by_global_order(prog, 16),
        lambda prog: partition_with_skew(prog, 12, 5, random.Random(9)),
    ]

    @pytest.mark.parametrize("seed", range(12))
    def test_equal_conflict_sets_on_seeded_alloc_traces(self, seed):
        prog = simulated_alloc_program(
            random.Random(seed), num_threads=3 + seed % 2,
            total_events=400, num_locations=16,
        )
        for cut in self.CUTS:
            new, old = ButterflyRaceCheck(), MaskRaceCheck()
            ButterflyEngine(new).run(cut(prog))
            ButterflyEngine(old).run(cut(prog))
            assert new.races, "the trace must race for this to mean much"
            assert set(new.races) == set(old.races)
            assert len(new.races) == len(old.races)
            assert {r.identity() for r in new.errors} == {
                r.identity() for r in old.errors
            }

    def test_state_is_sized_by_the_window_not_the_stream(self):
        # 4 threads x 64 never-seen-before locations per epoch.  The
        # interned masks grew with every location the stream had ever
        # touched (547 KB at epoch 200, 8.07 MB at epoch 2,000 -- what
        # a serve checkpoint wrote per epoch); the summaries' own sets
        # only ever cover the window.
        threads, fresh = 4, 64
        guard = ButterflyRaceCheck()
        engine = ButterflyEngine(guard)
        engine.attach_source(ShapeSource(threads))
        size = {}
        for lid in range(2001):
            engine.feed_blocks(lid, [
                Block(lid, tid, lid * fresh, instrs=tuple(
                    Instr.write((lid * threads + tid) * fresh + i)
                    for i in range(fresh)
                ))
                for tid in range(threads)
            ])
            if lid in (200, 2000):
                size[lid] = len(pickle.dumps(guard))
        assert size[2000] <= 1.5 * size[200], size
        assert len(guard._summaries) <= 3 * threads
