"""Property-based tests (hypothesis) for epoch partitioning."""

import os
import random
import tempfile

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.core.epoch import (
    partition_by_global_order,
    partition_fixed,
    partition_from_boundaries,
    partition_with_skew,
)
from repro.core.framework import ButterflyEngine
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.resilience import Checkpointer, load_checkpoint
from repro.trace.events import Instr
from repro.trace.program import TraceProgram
from repro.trace.serialize import iter_load, save_stream_file

lengths_st = st.lists(st.integers(0, 30), min_size=1, max_size=4)


def program_of(lengths):
    return TraceProgram.from_lists(
        *[[Instr.write(i) for i in range(n)] for n in lengths]
    )


class TestPartitionInvariants:
    @given(lengths=lengths_st, h=st.integers(1, 10))
    def test_blocks_tile_every_thread(self, lengths, h):
        prog = program_of(lengths)
        part = partition_fixed(prog, h)
        for t, n in enumerate(lengths):
            recovered = [
                i.dst
                for l in range(part.num_epochs)
                for i in part.block(l, t)
            ]
            assert recovered == list(range(n))

    @given(
        lengths=st.lists(st.integers(20, 60), min_size=1, max_size=3),
        h=st.integers(6, 12),
        skew=st.integers(0, 2),
        seed=st.integers(0, 100),
    )
    def test_skewed_partition_tiles(self, lengths, h, skew, seed):
        import random

        prog = program_of(lengths)
        part = partition_with_skew(prog, h, skew, rng=random.Random(seed))
        for t, n in enumerate(lengths):
            recovered = [
                i.dst
                for l in range(part.num_epochs)
                for i in part.block(l, t)
            ]
            assert recovered == list(range(n))

    @given(
        lengths=st.lists(st.integers(1, 20), min_size=2, max_size=3),
        h=st.integers(1, 6),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40)
    def test_global_order_partition_tiles(self, lengths, h, seed):
        import random

        prog = program_of(lengths)
        rng = random.Random(seed)
        from repro.trace.interleave import random_interleave

        prog.true_order = [t for t, _ in random_interleave(prog, rng)]
        part = partition_by_global_order(prog, h)
        for t, n in enumerate(lengths):
            recovered = [
                i.dst
                for l in range(part.num_epochs)
                for i in part.block(l, t)
            ]
            assert recovered == list(range(n))


def _fingerprint(guard, stats):
    return (
        (stats.epochs_processed, stats.first_pass_instructions,
         stats.second_pass_instructions, stats.meets),
        [(r.kind, r.location, r.ref, r.block, r.detail)
         for r in guard.errors],
    )


def _run(partition):
    guard = ButterflyAddrCheck()
    stats = ButterflyEngine(guard).run(partition)
    return _fingerprint(guard, stats)


class TestSkewTailClamping:
    """partition_with_skew's jittered cuts are clamped twice (into the
    thread's [0, n] range, then forward-monotone); these are the
    invariants every downstream consumer leans on."""

    @given(
        lengths=lengths_st,
        h=st.integers(2, 12),
        skew=st.integers(0, 5),
        seed=st.integers(0, 500),
    )
    def test_cuts_are_monotone_in_range_and_aligned(
        self, lengths, h, skew, seed
    ):
        assume(2 * skew < h)
        prog = program_of(lengths)
        part = partition_with_skew(prog, h, skew, rng=random.Random(seed))
        counts = {len(cuts) for cuts in part.boundaries}
        assert len(counts) == 1  # every thread has every heartbeat
        for n, cuts in zip(lengths, part.boundaries):
            assert cuts[-1] == n
            assert all(0 <= c <= n for c in cuts)
            assert all(a <= b for a, b in zip(cuts, cuts[1:]))

    @given(
        lengths=st.lists(st.integers(0, 24), min_size=2, max_size=3),
        h=st.integers(2, 6),
        skew=st.integers(0, 2),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_zero_length_tails_round_trip(self, lengths, h, skew, seed):
        """A short thread's clamped tail (zero-length blocks) survives
        the stream format and checkpoint/resume bit-identically."""
        assume(2 * skew < h)
        assume(max(lengths) - min(lengths) >= h)  # favors clamped tails
        prog = program_of(lengths)
        part = partition_with_skew(prog, h, skew, rng=random.Random(seed))
        # Only cases where clamping really produced a zero-length tail
        # block are interesting here (single-epoch partitions have no
        # tail to clamp).
        assume(any(
            len(cuts) >= 2 and cuts[-2] == cuts[-1]
            for cuts in part.boundaries
        ))
        reference = _run(partition_from_boundaries(prog, part.boundaries))

        with tempfile.TemporaryDirectory() as tmp:
            # Stream round-trip.
            path = os.path.join(tmp, "t.stream.jsonl")
            save_stream_file(
                partition_from_boundaries(prog, part.boundaries), path
            )
            guard = ButterflyAddrCheck()
            stats = ButterflyEngine(guard).run_source(iter_load(path))
            assert _fingerprint(guard, stats) == reference

            # Checkpoint/resume round-trip (kill after two epochs).
            live = partition_from_boundaries(prog, part.boundaries)
            assume(live.num_epochs >= 3)
            ck_path = os.path.join(tmp, "run.ckpt")
            engine = ButterflyEngine(ButterflyAddrCheck())
            engine.enable_checkpoints(
                Checkpointer(ck_path, {"case": "skew-tail"})
            )
            engine.attach(live)
            for lid in range(2):
                engine.feed_epoch(lid)
            ck = load_checkpoint(ck_path)
            resumed = ButterflyEngine(ck.analysis)
            resumed.attach(
                partition_from_boundaries(prog, part.boundaries), ck
            )
            for lid in range(ck.next_epoch, live.num_epochs):
                resumed.feed_epoch(lid)
            resumed.finish()
            assert _fingerprint(ck.analysis, resumed.stats) == reference
