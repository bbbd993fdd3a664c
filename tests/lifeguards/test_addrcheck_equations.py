"""AddrCheck's SOS/LSOS equations, exercised directly.

AddrCheck instantiates the reaching-expressions rules with allocation
elements (Section 6.1); these tests pin the epoch-level GEN/KILL and
the LSOS construction at that instantiation.
"""

from dataclasses import dataclass

import pytest

from repro.core.dataflow import BlockFacts
from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyEngine
from repro.lifeguards.addrcheck import (
    AddrSummary,
    ButterflyAddrCheck,
    _final_kills,
)
from repro.trace.events import Instr
from repro.trace.generator import ColumnarAllocSource
from repro.trace.program import TraceProgram
from repro.verify.reference import ReferenceAddrCheck, WingSummary
from repro.workloads import get_benchmark
from tests.lifeguards.bitmask import BitInterner


def run(program, h, **kwargs):
    guard = ButterflyAddrCheck(**kwargs)
    ButterflyEngine(guard).run(partition_fixed(program, h))
    return guard


class TestEpochGen:
    def test_isolated_allocation_enters_sos(self):
        prog = TraceProgram.from_lists(
            [Instr.malloc(5)] + [Instr.nop()] * 3,
            [Instr.nop()] * 4,
        )
        guard = run(prog, 1)
        assert 5 in guard.sos.get(2)

    def test_concurrent_free_blocks_epoch_gen(self):
        # Thread 0 allocates while thread 1 frees the same location in
        # the same epoch: no ordering guarantee, so the allocation must
        # NOT be promised by the SOS.
        prog = TraceProgram.from_lists(
            [Instr.malloc(5), Instr.nop(), Instr.nop(), Instr.nop()],
            [Instr.free(5), Instr.nop(), Instr.nop(), Instr.nop()],
        )
        guard = run(prog, 1, initially_allocated=[5])
        assert 5 not in guard.sos.get(2)

    def test_both_threads_allocating_enters_sos(self):
        prog = TraceProgram.from_lists(
            [Instr.malloc(5), Instr.nop(), Instr.nop(), Instr.nop()],
            [Instr.malloc(5), Instr.nop(), Instr.nop(), Instr.nop()],
        )
        guard = run(prog, 1)
        # (Flagged as a double allocation, but the location is
        # certainly allocated afterwards under every ordering.)
        assert 5 in guard.sos.get(2)


class TestEpochKill:
    def test_free_removes_from_sos(self):
        prog = TraceProgram.from_lists(
            [Instr.free(5)] + [Instr.nop()] * 3,
        )
        guard = run(prog, 1, initially_allocated=[5])
        assert 5 not in guard.sos.get(2)

    def test_free_then_realloc_same_block_stays(self):
        prog = TraceProgram.from_lists(
            [Instr.free(5), Instr.malloc(5), Instr.nop(), Instr.nop()],
        )
        guard = run(prog, 2, initially_allocated=[5])
        assert 5 in guard.sos.get(guard.sos.frontier)


class TestLSOS:
    def test_head_allocation_visible_to_body(self):
        # Alloc in epoch 0 (head of body epoch 1): the body's access
        # must be clean even though the SOS lags.
        prog = TraceProgram.from_lists(
            [Instr.malloc(5), Instr.read(5)],
        )
        guard = run(prog, 1)
        assert len(guard.errors) == 0

    def test_sibling_free_in_l_minus_2_poisons_head_alloc(self):
        # Head allocates in epoch 1; sibling frees the same location in
        # epoch 0 (adjacent to the head!): the allocation's visibility
        # is not guaranteed at the body... but a free of an unallocated
        # location is itself flagged.  The key assertion: the body's
        # access is conservatively flagged.
        prog = TraceProgram.from_lists(
            [Instr.nop(), Instr.malloc(5), Instr.read(5), Instr.nop()],
            [Instr.free(5), Instr.nop(), Instr.nop(), Instr.nop()],
        )
        guard = run(prog, 1, initially_allocated=[5])
        flagged_refs = {r.ref for r in guard.errors if r.ref}
        assert (0, 2) in flagged_refs  # the read at thread 0, index 2


# -- the LSOS algebra against the paper's formula ---------------------------
#
# The guard evaluates LSOS_{l,t} = GEN_{l-1,t} U (SOS_l - KILL_{l-1,t})
# as a view of SOS_l with the head block's edits in its overlay.  The
# reference below is the same line written element by element, straight
# from Section 5.2.1 (one KILL-membership test per SOS element, one scan
# of the resident summaries per head allocation): slow, obviously the
# formula, and the oracle for everything in this section.


def _block_kills(facts, loc):
    """loc in KILL_{l,t}: the block's last allocation event on ``loc``
    is a free (a location the block only ever freed has no other)."""
    state = facts.last_event.get(loc)
    if state is not None:
        return state == "kill"
    return loc in facts.killed_vars


def reference_lsos(guard, lid, tid):
    sos = guard.sos.get(lid)
    head = guard.summaries.get((lid - 1, tid)) if lid >= 1 else None
    if head is None:
        return set(sos)
    lsos = set()
    for loc in head.facts.gen:
        sibling_killed = any(
            l == lid - 2 and t != tid and _block_kills(s.facts, loc)
            for (l, t), s in guard.summaries.items()
        )
        if not sibling_killed:
            lsos.add(loc)
    for loc in sos:
        if not _block_kills(head.facts, loc):
            lsos.add(loc)
    return lsos


# What the view / in-place delta / change-set code replaced, kept here
# as it was: one ``set(sos)`` per block, one ``difference | gen`` copy
# per epoch, and a meet / isolation check over three interned bitsets
# per summary (of which the check only ever read ``gen | kill``).


def copied_lsos(guard, lid, tid):
    lsos = set(guard.sos.get(lid))
    head = guard._facts(lid - 1, tid) if lid >= 1 else None
    if head is None:
        return lsos
    lsos -= _final_kills(head)
    killers = guard._epoch_killers.get(lid - 2, {})
    for loc in head.gen:
        if killers.get(loc, tid) == tid:
            lsos.add(loc)
    return lsos


def copied_sos_update(guard, prev, lid, summaries):
    """``SOS_{l+2}`` from a copy of ``SOS_{l+1}``, given epoch ``l``'s
    published killer map."""
    gen_l = {
        loc
        for (_, t), s in summaries.items()
        for loc in s.facts.gen
        if guard._epoch_gen_holds(loc, lid, t, len(summaries))
    }
    return frozenset(prev.difference(guard._epoch_killers[lid]) | gen_l)


@dataclass
class WingMask:
    gen: int
    kill: int
    access: int
    meet_work: int


def popcount(mask):
    return bin(mask).count("1")


def masked_meet(masks, wing_summaries):
    gen = kill = access = work = 0
    for s in wing_summaries:
        all_gen_mask, killed_mask, access_mask = masks[s.facts.block_id]
        gen |= all_gen_mask
        kill |= killed_mask
        access |= access_mask
        work += (
            popcount(all_gen_mask)
            + popcount(killed_mask)
            + popcount(access_mask)
        )
    return WingMask(gen=gen, kill=kill, access=access, meet_work=work)


def masked_check_body(masks, body_id, side_in):
    all_gen_mask, killed_mask, access_mask = masks[body_id]
    wing_changed = side_in.gen | side_in.kill
    changed = all_gen_mask | killed_mask
    return changed & wing_changed, access_mask & wing_changed


class CheckedAddrCheck(ButterflyAddrCheck):
    """Asserts the formula and the replaced code at every LSOS, SOS,
    meet and isolation check the run computes, and keeps each LSOS for
    the scenario's own assertions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lsos_seen = {}
        self.overlaid = 0  # LSOS views that differed from their SOS
        self.sos_changed = 0
        self.isolation_hits = 0
        self._loc_bits = BitInterner()
        self._masks = {}

    def _compute_lsos(self, lid, tid):
        lsos = super()._compute_lsos(lid, tid)
        assert lsos == reference_lsos(self, lid, tid), (lid, tid)
        assert lsos == copied_lsos(self, lid, tid), (lid, tid)
        assert lsos.base is self.sos.get(lid).base  # shared, not copied
        self.overlaid += bool(lsos.added or lsos.removed)
        self.lsos_seen[(lid, tid)] = set(lsos)
        return lsos

    def epoch_update(self, lid, summaries):
        prev = frozenset(self.sos.get(lid + 1))
        super().epoch_update(lid, summaries)
        expected = copied_sos_update(self, prev, lid, summaries)
        assert self.sos.get(lid + 2) == expected, lid
        self.sos_changed += expected != prev

    def commit_scan(self, block, scan):
        summary = super().commit_scan(block, scan)
        self._keep_masks(
            block, summary.facts, summary.first_access.locs.tolist()
        )
        return summary

    def _keep_masks(self, block, facts, access):
        mask = self._loc_bits.mask
        self._masks[block.block_id] = (
            mask(facts.all_gen), mask(facts.killed_vars), mask(access),
        )

    def meet(self, butterfly, wings):
        # The side-in and the meet work booked must equal the meet of
        # this butterfly's wings, made of masks.
        body_id = butterfly.body.block_id
        work = self.block_work[body_id]
        meet_before = work["meet"]
        side_in = super().meet(butterfly, wings)
        masked = masked_meet(
            self._masks, [self.summaries[w.block_id] for w in butterfly.wings]
        )
        decode = self._loc_bits.decode
        changed = set(decode(masked.gen | masked.kill))
        if isinstance(side_in, WingSummary):
            assert side_in.changed == changed
            assert side_in.access == set(decode(masked.access))
        else:
            assert side_in == changed
        assert work["meet"] - meet_before == masked.meet_work
        return side_in

    def check_body(self, butterfly, side_in):
        body_id = butterfly.body.block_id
        masked_side_in = masked_meet(
            self._masks, [self.summaries[w.block_id] for w in butterfly.wings]
        )
        change_hits, access_hits = super().check_body(butterfly, side_in)
        masked = masked_check_body(self._masks, body_id, masked_side_in)
        decode = self._loc_bits.decode
        assert set(decode(masked[0])) == change_hits
        assert set(decode(masked[1])) == access_hits
        self.isolation_hits += len(change_hits) + len(access_hits)
        return change_hits, access_hits

    def commit_check(self, butterfly, side_in, result):
        body_id = butterfly.body.block_id
        iso_before = self.block_work[body_id]["iso"]
        super().commit_check(butterfly, side_in, result)
        all_gen_mask, killed_mask, access_mask = self._masks[body_id]
        assert self.block_work[body_id]["iso"] - iso_before == popcount(
            all_gen_mask | killed_mask
        ) + popcount(access_mask)


class CheckedReference(CheckedAddrCheck, ReferenceAddrCheck):
    """The same assertions around the reference lifeguard's passes (its
    whole-pass second pass never reaches ``check_body``, but its full
    ``(GEN, KILL, ACCESS)`` meet is asserted like the production one)."""

    def first_pass(self, block):
        summary = super().first_pass(block)
        self._keep_masks(block, summary.facts, summary.access)
        return summary


def checked(optimized, **kwargs):
    return (CheckedAddrCheck if optimized else CheckedReference)(**kwargs)


def run_checked(program, h, optimized=True, **kwargs):
    guard = checked(optimized, **kwargs)
    ButterflyEngine(guard).run(partition_fixed(program, h))
    return guard


def _pad(instrs, n):
    return instrs + [Instr.nop()] * (n - len(instrs))


@pytest.mark.parametrize("optimized", [True, False])
class TestLSOSAlgebra:
    def test_no_head_is_a_private_copy_of_the_sos(self, optimized):
        prog = TraceProgram.from_lists([Instr.read(5), Instr.malloc(6)])
        guard = run_checked(
            prog, 2, initially_allocated=[5], optimized=optimized
        )
        assert guard.lsos_seen[(0, 0)] == {5}
        # The scan's mutations (malloc 6) stayed in its private copy.
        assert guard.sos.get(0) == {5}

    def test_head_malloc_then_free_leaves_location_dead(self, optimized):
        prog = TraceProgram.from_lists(
            [Instr.malloc(5), Instr.free(5), Instr.nop(), Instr.nop()],
        )
        guard = run_checked(prog, 2, optimized=optimized)
        assert 5 not in guard.lsos_seen[(1, 0)]
        # ...and kills an SOS entry just the same.
        guard = run_checked(
            prog, 2, initially_allocated=[5], optimized=optimized
        )
        assert 5 not in guard.lsos_seen[(1, 0)]

    def test_head_free_then_malloc_leaves_location_live(self, optimized):
        prog = TraceProgram.from_lists(
            [Instr.free(5), Instr.malloc(5), Instr.nop(), Instr.nop()],
        )
        guard = run_checked(
            prog, 2, initially_allocated=[5], optimized=optimized
        )
        assert 5 in guard.lsos_seen[(1, 0)]

    def test_sibling_free_in_l_minus_2_drops_head_allocation(self, optimized):
        prog = TraceProgram.from_lists(
            _pad([Instr.nop(), Instr.malloc(5)], 4),
            _pad([Instr.free(5)], 4),
        )
        guard = run_checked(
            prog, 1, initially_allocated=[5], optimized=optimized
        )
        assert 5 not in guard.lsos_seen[(2, 0)]

    def test_own_free_in_l_minus_2_does_not_drop_it(self, optimized):
        # Same thread, program order: free (epoch 0) precedes malloc
        # (epoch 1) on every valid ordering.
        prog = TraceProgram.from_lists(
            _pad([Instr.free(5), Instr.malloc(5)], 4),
            _pad([], 4),
        )
        guard = run_checked(
            prog, 1, initially_allocated=[5], optimized=optimized
        )
        assert 5 in guard.lsos_seen[(2, 0)]

    def test_own_and_sibling_free_in_l_minus_2_drops_it(self, optimized):
        prog = TraceProgram.from_lists(
            _pad([Instr.free(5), Instr.malloc(5)], 4),
            _pad([Instr.free(5)], 4),
        )
        guard = run_checked(
            prog, 1, initially_allocated=[5], optimized=optimized
        )
        assert 5 not in guard.lsos_seen[(2, 0)]
        # The other thread sees two frees too, one of them a sibling's.
        prog = TraceProgram.from_lists(
            _pad([Instr.free(5)], 4),
            _pad([Instr.free(5), Instr.malloc(5)], 4),
        )
        guard = run_checked(
            prog, 1, initially_allocated=[5], optimized=optimized
        )
        assert 5 not in guard.lsos_seen[(2, 1)]

    def test_large_untouched_heap_passes_through(self, optimized):
        heap = set(range(100_000))
        prog = TraceProgram.from_lists(
            [Instr.malloc(200_000), Instr.read(200_000),
             Instr.free(200_000), Instr.read(7)] * 2,
            _pad([Instr.read(99_999), Instr.malloc(200_001)], 8),
        )
        guard = run_checked(
            prog, 2, initially_allocated=heap, optimized=optimized
        )
        assert len(guard.errors) == 0
        for (lid, tid), lsos in guard.lsos_seen.items():
            assert lsos >= heap, (lid, tid)
        assert guard.lsos_seen[(3, 1)] - heap == {200_001}
        assert guard.sos.get(guard.sos.frontier) >= heap

    def test_generated_traces(self, optimized):
        # Small epochs for many LSOS/SOS steps; one OCEAN run at the
        # benchmark's shape (h = 1024 over a 24k-location heap) for the
        # sharing that makes the isolation check fire.
        for workload, events, h in (
            ("OCEAN", 400, 64), ("LU", 400, 64), ("OCEAN", 3000, 1024)
        ):
            overlaid = sos_changed = isolation_hits = 0
            for seed in range(3 if h == 64 else 1):
                prog = get_benchmark(workload).generate(3, events, seed=seed)
                guard = run_checked(
                    prog, h,
                    initially_allocated=prog.preallocated,
                    optimized=optimized,
                )
                assert len(guard.lsos_seen) > 3
                overlaid += guard.overlaid
                sos_changed += guard.sos_changed
                isolation_hits += guard.isolation_hits
            # CheckedAddrCheck's assertions had something to compare
            # (LU never allocates: its heap only passes through).
            if workload == "OCEAN":
                assert overlaid >= 3 and sos_changed > 1, h
            if optimized and h == 1024:
                assert isolation_hits > 100

    def test_error_injected_columnar_blocks(self, optimized):
        # Column-backed blocks (the vector kernel).  43 changes per block,
        # an odd number: every other block leaves its scratch location
        # allocated for the next to free, which keeps the overlay busy;
        # injected accesses to a never-allocated slot flag.
        for seed in range(2):
            source = ColumnarAllocSource(
                seed, num_threads=3, num_epochs=6, events_per_block=301,
                num_locations=64, change_period=7, error_rate=0.02,
            )
            guard = checked(
                optimized, initially_allocated=source.preallocated
            )
            ButterflyEngine(guard).run_source(source)
            assert len(guard.lsos_seen) == 18
            assert guard.overlaid > 3 and guard.sos_changed > 0
            assert len(guard.errors) > 10


class TestFinalKillFallback:
    """``killed_vars`` entries absent from ``last_event``: the block
    freed the location and recorded no event order for it.  The scanner
    never builds such facts, but the KILL-membership rule defines them
    (the fallback branch of ``_kills``), so the set form must agree."""

    def _guard(self, epochs, initially_allocated=()):
        """Commit hand-built facts ``{(lid, tid): BlockFacts}`` and
        summarize every epoch but the last."""
        guard = ButterflyAddrCheck(initially_allocated=initially_allocated)
        last = max(lid for lid, _ in epochs)
        for lid in range(last + 1):
            row = {
                key: AddrSummary(facts, {}, {}, 0)
                for key, facts in epochs.items() if key[0] == lid
            }
            guard.summaries.update(row)
            if lid < last:
                guard.epoch_update(lid, row)
        return guard

    def test_final_kills_is_the_kills_predicate_as_a_set(self):
        facts = BlockFacts(
            block_id=(0, 0),
            gen={1},
            all_gen={1, 2},
            killed_vars={2, 3, 4},
            last_event={1: "gen", 2: "kill", 4: "gen", 6: "kill"},
        )
        guard = ButterflyAddrCheck()
        assert _final_kills(facts) == {
            loc for loc in range(8) if guard._kills(facts, loc)
        } == {2, 3, 6}

    def test_head_fallback_kill_removes_sos_entry(self):
        guard = self._guard(
            {(0, 0): BlockFacts(block_id=(0, 0), killed_vars={7})},
            initially_allocated=[7, 8],
        )
        assert guard._compute_lsos(1, 0) == reference_lsos(guard, 1, 0) == {8}

    def test_fallback_kill_leaves_the_published_sos(self):
        guard = self._guard(
            {
                (0, 0): BlockFacts(block_id=(0, 0), killed_vars={7}),
                (1, 0): BlockFacts(block_id=(1, 0)),
            },
            initially_allocated=[7, 8],
        )
        assert guard.sos.get(2) == {8}

    def test_sibling_fallback_kill_drops_head_allocation(self):
        guard = self._guard({
            (0, 0): BlockFacts(block_id=(0, 0)),
            (0, 1): BlockFacts(block_id=(0, 1), killed_vars={9}),
            (1, 0): BlockFacts(
                block_id=(1, 0), gen={9}, all_gen={9}, last_event={9: "gen"}
            ),
            (1, 1): BlockFacts(block_id=(1, 1)),
            (2, 0): BlockFacts(block_id=(2, 0)),
            (2, 1): BlockFacts(block_id=(2, 1)),
        })
        assert guard._compute_lsos(2, 0) == reference_lsos(guard, 2, 0) == set()
        # Thread 1's own kill does not poison its own later allocation.
        guard.summaries[(1, 1)].facts.gen.add(9)
        assert guard._compute_lsos(2, 1) == reference_lsos(guard, 2, 1) == {9}
