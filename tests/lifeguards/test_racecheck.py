"""Tests for the butterfly conflict (race) detector."""

import pickle
import random

import pytest

from repro.core.columnar import ColumnarBlock
from repro.core.epoch import (
    Block,
    partition_by_global_order,
    partition_fixed,
    partition_with_skew,
)
from repro.core.framework import ButterflyEngine
from repro.core.stream import EpochSource, PartitionSource
from repro.lifeguards.racecheck import ButterflyRaceCheck
from repro.trace.events import Instr
from repro.trace.generator import simulated_alloc_program
from repro.trace.program import TraceProgram
from repro.trace.serialize import (
    iter_load, load_file, save_file, save_stream_file,
)
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
        assert any(
            r.detail == "potential write-write conflict" for r in guard.errors
        )

    def test_concurrent_read_write(self):
        prog = TraceProgram.from_lists([Instr.read(5)], [Instr.write(5)])
        guard = run(prog, 1)
        details = {r.detail for r in guard.errors}
        assert "potential read-write conflict" in details

    def test_concurrent_reads_are_fine(self):
        prog = TraceProgram.from_lists([Instr.read(5)], [Instr.read(5)])
        guard = run(prog, 1)
        assert not guard.errors

    def test_disjoint_locations_are_fine(self):
        prog = TraceProgram.from_lists([Instr.write(5)], [Instr.write(6)])
        guard = run(prog, 1)
        assert not guard.errors

    def test_same_thread_never_races(self):
        prog = TraceProgram.from_lists(
            [Instr.write(5), Instr.write(5), Instr.read(5)]
        )
        guard = run(prog, 1)
        assert not guard.errors

    def test_two_epoch_separation_is_ordered(self):
        prog = TraceProgram.from_lists(
            [Instr.write(5), Instr.nop(), Instr.nop(), Instr.nop()],
            [Instr.nop(), Instr.nop(), Instr.nop(), Instr.write(5)],
        )
        guard = run(prog, 1)
        assert not guard.errors

    def test_adjacent_epoch_conflict_detected(self):
        prog = TraceProgram.from_lists(
            [Instr.write(5), Instr.nop()],
            [Instr.nop(), Instr.write(5)],
        )
        guard = run(prog, 1)
        assert guard.errors

    def test_malloc_free_act_as_writes(self):
        prog = TraceProgram.from_lists(
            [Instr.malloc(5)], [Instr.read(5)]
        )
        guard = run(prog, 1)
        assert guard.errors


class TestOnWorkloads:
    def test_blackscholes_is_race_free(self):
        # Thread-private data: no conflicts at any epoch size.
        prog = get_benchmark("BLACKSCHOLES").generate(4, 4000, seed=3)
        guard = ButterflyRaceCheck()
        ButterflyEngine(guard).run(partition_by_global_order(prog, 512))
        assert not guard.errors

    def test_ocean_handoffs_surface_at_large_epochs(self):
        prog = get_benchmark("OCEAN").generate(4, 8192, seed=3)
        small = ButterflyRaceCheck()
        ButterflyEngine(small).run(partition_by_global_order(prog, 256))
        large = ButterflyRaceCheck()
        ButterflyEngine(large).run(partition_by_global_order(prog, 4096))
        # The boundary-buffer handoffs are unsynchronized *within the
        # window*: with a big window they are flagged as potential
        # races; with a small one they are provably ordered.
        assert len(large.errors) > len(small.errors)

    def test_summaries_evicted(self):
        prog = get_benchmark("LU").generate(2, 4000, seed=3)
        guard = ButterflyRaceCheck()
        ButterflyEngine(guard).run(partition_by_global_order(prog, 256))
        # Only the trailing window worth of summaries is retained.
        assert len(guard.summaries) <= 3 * prog.num_threads


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
        self._masks[block.block_id] = (
            mask(scan.reads.locs.tolist()), mask(scan.writes.locs.tolist())
        )
        return super().commit_scan(block, scan)

    def check_body(self, butterfly, side_in):
        reads, writes = self._masks[butterfly.body.block_id]
        wing_reads = wing_writes = 0
        for w in butterfly.wings:
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
            assert new.errors, "the trace must race for this to mean much"
            assert set(new.errors) == set(old.errors)
            assert len(new.errors) == len(old.errors)
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
        engine.attach_source(EpochSource(threads))
        size = {}
        for lid in range(2001):
            engine.feed_blocks(lid, [
                Block(lid, tid, lid * fresh, ColumnarBlock.from_instrs([
                    Instr.write((lid * threads + tid) * fresh + i)
                    for i in range(fresh)
                ]))
                for tid in range(threads)
            ])
            if lid in (200, 2000):
                size[lid] = len(pickle.dumps(guard))
        assert size[2000] <= 1.5 * size[200], size
        assert len(guard.summaries) <= 3 * threads


class TestNoInstrOnTheProductionPath:
    @pytest.mark.parametrize("layout", ["v2", "v1"])
    def test_a_stream_file_run_builds_no_instr(
        self, tmp_path, monkeypatch, layout
    ):
        """The columnar scan reads a block's columns alone, and a file's
        threads and blocks are decoded straight to columns: with
        ``Instr`` materialization refused, a run over a stream file, or
        over a program file's partition, still reports exactly what the
        generated program's partition run does."""
        prog = simulated_alloc_program(
            random.Random(3), num_threads=3, total_events=600,
            num_locations=16,
        )
        part = partition_by_global_order(prog, 32)
        path = str(tmp_path / "trace.jsonl")
        save_stream_file(part, path)
        expected = ButterflyRaceCheck()
        expected_stats = ButterflyEngine(expected).run(part)

        def refuse(self):
            raise AssertionError("an Instr was built on the production path")

        monkeypatch.setattr(ColumnarBlock, "to_instrs", refuse)
        if layout == "v1":
            save_file(prog, path)
            monkeypatch.setattr(Instr, "__post_init__", refuse)
            source = PartitionSource(
                partition_by_global_order(load_file(path), 32)
            )
        else:
            source = iter_load(path)
        guard = ButterflyRaceCheck()
        stats = ButterflyEngine(guard).run_source(source)
        assert len(expected.errors) > 0
        assert list(guard.errors) == list(expected.errors)
        assert stats == expected_stats
