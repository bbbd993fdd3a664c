"""White-box tests for TaintCheck's Check-algorithm machinery."""

import random

import pytest

from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyEngine
from repro.lifeguards import taintcheck
from repro.lifeguards.taintcheck import (
    BOT,
    TOP,
    ButterflyTaintCheck,
    TaintSummary,
    _RuleGraph,
    _strictly_before,
)
from repro.trace.events import Instr
from repro.trace.generator import simulated_taint_program
from repro.trace.program import TraceProgram
from repro.verify.generator import FAMILIES, AdversarialCaseGenerator


def summary(block_id, rules=None, jumps=()):
    return TaintSummary.from_rules(block_id, rules or {}, jumps)


def jumps_of(s):
    """A summary's critical uses as ``(offset, location)`` pairs."""
    return list(zip(s.jump_off.tolist(), s.jump_loc.tolist()))


def rules_of(s):
    """A summary's rules as ``location -> [(offset, value), ...]``,
    ascending by location, read off its columns directly (not through
    ``TaintSummary.writes``, which the walk reads)."""
    offsets, kinds = s.offsets.tolist(), s.kind.tolist()
    par_off, par_val = s.par_off.tolist(), s.par_val.tolist()
    return {
        loc: [
            (offsets[r], BOT if kinds[r] == taintcheck._K_BOT
             else TOP if kinds[r] == taintcheck._K_TOP
             else tuple(par_val[par_off[r]:par_off[r + 1]]))
            for r in range(lo, hi)
        ]
        for loc, (lo, hi) in s.written.items()
    }


def graph(wings, body, mode="relaxed", fallback=None, max_steps=4096):
    guard = ButterflyTaintCheck(mode=mode, max_steps=max_steps)
    return _RuleGraph(wings, body, guard, fallback=fallback)


class TestStrictlyBefore:
    def test_no_bound_allows_anything(self):
        assert _strictly_before((5, 0, 3), None)

    def test_two_epochs_apart(self):
        assert _strictly_before((1, 0, 0), (3, 1, 0))
        assert not _strictly_before((2, 0, 0), (3, 1, 0))

    def test_same_thread_program_order(self):
        assert _strictly_before((2, 1, 3), (2, 1, 4))
        assert not _strictly_before((2, 1, 4), (2, 1, 4))
        assert _strictly_before((1, 1, 9), (2, 1, 0))

    def test_cross_thread_adjacent_rejected(self):
        assert not _strictly_before((2, 0, 0), (2, 1, 0))


class TestLocalAnchoring:
    def test_last_write_before_offset(self):
        body = summary((0, 0), rules={7: [(1, BOT), (3, TOP)]})
        g = graph([], body)
        assert g._local_write_before(7, 2) == (1, BOT)
        assert g._local_write_before(7, 4) == (3, TOP)
        assert g._local_write_before(7, 0) is None
        assert g._local_write_before(8, 5) is None

    def test_local_chain_follows_program_order(self):
        # x <- y at offset 2; y <- BOT at 0, y <- TOP at 1.
        body = summary(
            (0, 0), rules={1: [(2, (2,))], 2: [(0, BOT), (1, TOP)]}
        )
        g = graph([], body)
        assert not g.tainted_parents((2,), 2, set())
        # But before the TOP overwrite the taint is live.
        assert g._local_chain_tainted((2,), 1, frozenset())


class TestWingTaint:
    def test_own_block_rules_not_directly_visible(self):
        # Body taints 5 at a *later* offset: the check at offset 0 must
        # not see it (no wing captured it).
        body = summary((0, 0), rules={5: [(3, BOT)]})
        g = graph([], body)
        assert not g.tainted_parents((5,), 0, set())

    def test_wing_rule_exposes_taint(self):
        wing = summary((0, 1), rules={5: [(0, BOT)]})
        body = summary((0, 0))
        g = graph([wing], body)
        assert g.tainted_parents((5,), 0, set())

    def test_wing_chain_through_own_block(self):
        # A wing copies the body's later taint: z <- 5 in the wing, the
        # body taints 5 afterwards in program order -- but the wing may
        # have read it in between, so a check on z must flag.
        wing = summary((0, 1), rules={9: [(0, (5,))]})
        body = summary((0, 0), rules={5: [(3, BOT)]})
        g = graph([wing], body)
        assert g.tainted_parents((9,), 0, set())

    def test_lsos_base_taints(self):
        body = summary((0, 0))
        g = graph([], body)
        assert g.tainted_parents((5,), 0, {5})
        assert not g.tainted_parents((5,), 0, {6})


class TestSCCounters:
    def test_same_thread_rules_must_descend(self):
        # Wing thread 1: a <- b at offset 4; b <- BOT at offset 6
        # (AFTER): the SC chain a->b->BOT needs thread 1 to go
        # backwards -- rejected; relaxed accepts.
        wing = summary((0, 1), rules={1: [(4, (2,))], 2: [(6, BOT)]})
        body = summary((0, 0))
        for mode, expected in (("relaxed", True), ("sc", False)):
            g = graph([wing], body, mode=mode)
            assert g.tainted_parents((1,), 0, set()) is expected

    def test_descending_chain_accepted_under_sc(self):
        wing = summary((0, 1), rules={1: [(4, (2,))], 2: [(2, BOT)]})
        body = summary((0, 0))
        g = graph([wing], body, mode="sc")
        assert g.tainted_parents((1,), 0, set())

    def test_cross_thread_hops_unconstrained_first_use(self):
        wing1 = summary((0, 1), rules={1: [(0, (2,))]})
        wing2 = summary((0, 2), rules={2: [(5, BOT)]})
        body = summary((0, 0))
        g = graph([wing1, wing2], body, mode="sc")
        assert g.tainted_parents((1,), 0, set())


class TestPhaseFallback:
    def test_phase2_leaf_consults_phase1(self):
        # Phase 1 (epochs l-1, l) taints y; phase 2 (epochs l, l+1) has
        # a chain x -> y with no taint of its own: Lemma 6.3 case 3.
        p1_wing = summary((0, 1), rules={7: [(0, BOT)]})
        body = summary((1, 0))
        phase1 = graph([p1_wing], body)
        p2_wing = summary((2, 1), rules={3: [(0, (7,))]})
        g2 = graph([p2_wing], body, fallback=phase1)
        assert g2.tainted_parents((3,), 0, set())

    def test_phase2_without_fallback_match_misses(self):
        body = summary((1, 0))
        p2_wing = summary((2, 1), rules={3: [(0, (7,))]})
        g2 = graph([p2_wing], body, fallback=None)
        assert not g2.tainted_parents((3,), 0, set())

    def test_query_memoization(self):
        p1_wing = summary((0, 1), rules={7: [(0, BOT)]})
        body = summary((1, 0))
        phase1 = graph([p1_wing], body)
        assert phase1.query_taint(7, frozenset())
        assert phase1._query_memo[7] is True
        assert phase1.query_taint(7, frozenset())

    def test_cyclic_rules_terminate(self):
        wing = summary(
            (0, 1), rules={1: [(0, (2,))], 2: [(1, (1,))]}
        )
        body = summary((0, 0))
        for mode in ("relaxed", "sc"):
            g = graph([wing], body, mode=mode)
            assert not g.tainted_parents((1,), 0, set())


# -- on-demand rule buckets ---------------------------------------------------
#
# The graph keeps references to the summaries it was handed and buckets
# a location's rules the first time a check asks for it.  The reference
# below is the merge its constructor used to run -- every rule of every
# in-phase summary copied into one dict up front -- kept here as the
# oracle for bucket content *and order* (SC search order, error order
# and report digests all follow it).


def reference_buckets(wings, body):
    rules = {}
    for s in wings:
        lid, tid = s.block_id
        for loc, writes in rules_of(s).items():
            bucket = rules.setdefault(loc, [])
            for offset, value in writes:
                bucket.append(((lid, tid, offset), value))
    blid, btid = body.block_id
    for loc, writes in rules_of(body).items():
        bucket = rules.setdefault(loc, [])
        for offset, value in writes:
            bucket.append(((blid, btid, offset), value))
    return rules


class EagerRuleGraph(_RuleGraph):
    """``_RuleGraph`` answering from the eager merge."""

    def __init__(self, wings, body, guard, fallback=None):
        super().__init__(wings, body, guard, fallback=fallback)
        self.rules = reference_buckets(wings, body)

    def _rules_for(self, loc):
        return self.rules.get(loc, ())


class TestOnDemandBuckets:
    def test_hand_built_window_matches_the_eager_merge(self):
        wings = [
            summary((0, 1), rules={1: [(0, BOT), (4, TOP)], 2: [(2, (1, 3))]}),
            summary((1, 2), rules={1: [(1, (2,))], 5: [(0, TOP)]}),
            summary((1, 1), rules={2: [(3, BOT)], 1: [(5, (7,))]}),
        ]
        body = summary(
            (1, 0), rules={1: [(2, TOP)], 6: [(0, (1,)), (3, BOT)]},
        )
        g = graph(wings, body)
        assert g._buckets == {}  # construction copies nothing
        expected = reference_buckets(wings, body)
        assert set(expected) == {1, 2, 5, 6}
        for loc, bucket in expected.items():
            assert g._rules_for(loc) == bucket, loc
        # In several wings and the body: side_in order, then the body.
        assert g._rules_for(1) == [
            ((0, 1, 0), BOT), ((0, 1, 4), TOP),
            ((1, 2, 1), (2,)),
            ((1, 1, 5), (7,)),
            ((1, 0, 2), TOP),
        ]
        assert g._rules_for(6) == [((1, 0, 0), (1,)), ((1, 0, 3), BOT)]
        assert g._rules_for(99) == []
        # Bucketed once, then reused.
        assert g._rules_for(1) is g._rules_for(1)
        assert set(g._buckets) == {1, 2, 5, 6, 99}

    def test_wing_order_is_the_order_given(self):
        a = summary((0, 1), rules={1: [(0, BOT)]})
        b = summary((0, 2), rules={1: [(0, TOP)]})
        body = summary((0, 0))
        assert graph([a, b], body)._rules_for(1) == [
            ((0, 1, 0), BOT), ((0, 2, 0), TOP),
        ]
        assert graph([b, a], body)._rules_for(1) == [
            ((0, 2, 0), TOP), ((0, 1, 0), BOT),
        ]

    @pytest.mark.parametrize("two_phase", [True, False])
    @pytest.mark.parametrize("mode", ["relaxed", "sc"])
    def test_generated_runs_agree_with_the_eager_merge(
        self, mode, two_phase, monkeypatch
    ):
        seen = {"buckets": 0, "bodies": 0, "flagged": 0, "tainted": 0}

        class Audited(_RuleGraph):
            """Every graph ``check_body`` builds: a fresh twin answers
            for every location of every summary it was handed."""

            def __init__(self, wings, body, guard, fallback=None):
                super().__init__(wings, body, guard, fallback=fallback)
                assert self._buckets == {}
                twin = _RuleGraph(wings, body, guard)
                for loc, bucket in reference_buckets(wings, body).items():
                    assert twin._rules_for(loc) == bucket, (body.block_id, loc)
                    seen["buckets"] += 1

        class Checked(ButterflyTaintCheck):
            def check_body(self, butterfly, side_in):
                with monkeypatch.context() as patch:
                    patch.setattr(taintcheck, "_RuleGraph", Audited)
                    result = super().check_body(butterfly, side_in)
                with monkeypatch.context() as patch:
                    patch.setattr(taintcheck, "_RuleGraph", EagerRuleGraph)
                    expected = super().check_body(butterfly, side_in)
                assert result == expected, butterfly.body.block_id
                lastcheck, flagged = result
                seen["bodies"] += 1
                seen["flagged"] += len(flagged)
                seen["tainted"] += sum(
                    v is BOT for v in lastcheck.values()
                )
                return result

        def guard():
            return Checked(mode=mode, two_phase=two_phase)

        gen = AdversarialCaseGenerator(4)
        families = set()
        for i in range(4 * len(FAMILIES)):
            case = gen.case(i)
            families.add(case.label)
            ButterflyEngine(guard()).run(case.partition())
        assert families == set(FAMILIES)
        for seed in range(3):
            prog = simulated_taint_program(
                random.Random(seed), num_threads=3, total_events=240,
                taint_rate=0.2, untaint_rate=0.2,
            )
            ButterflyEngine(guard()).run(partition_fixed(prog, 8))
        assert seen["buckets"] > 500
        assert seen["bodies"] > 100
        assert seen["flagged"] > 0 and seen["tainted"] > 10


# -- the touched / untouched split ------------------------------------------------
#
# ``check_body`` walks Algorithm 1 only for the locations some rule of
# the window writes and answers the rest with one intersection against
# the LSOS.  The reference below is the loop it replaced -- every check,
# touched or not, through the walk against a plain-set LSOS --
# kept as the oracle for verdicts *and order* (error order and report
# digests follow ``flagged``; ``epoch_update`` iterates ``lastcheck``).


def reference_check_body(guard, butterfly, side_in):
    lid, tid = butterfly.body.block_id
    own = guard._summaries[lid, tid]
    tainted = guard._algorithm1(
        side_in, own, set(guard._compute_lsos(lid, tid))
    )

    lastcheck = {}
    for loc, writes in rules_of(own).items():
        offset, value = writes[-1]
        if value is not BOT and value is not TOP:
            value = BOT if tainted(value, offset) else TOP
        lastcheck[loc] = value
    flagged = [
        (offset, loc) for offset, loc in jumps_of(own)
        if tainted((loc,), offset)
    ]
    return lastcheck, flagged


class SplitChecked(ButterflyTaintCheck):
    """Asserts every body's ``check_body`` equals the reference loop,
    order included, and records the locations Algorithm 1 walked."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.bodies = 0
        self.walked = {}  # body block id -> parents handed to the walk
        self.lastchecks = {}

    def check_body(self, butterfly, side_in):
        expected = reference_check_body(self, butterfly, side_in)
        walked = self.walked.setdefault(butterfly.body.block_id, [])
        walk = _RuleGraph.tainted_parents

        def logged(graph, parents, offset, base):
            walked.append(parents)
            return walk(graph, parents, offset, base)

        _RuleGraph.tainted_parents = logged
        try:
            result = super().check_body(butterfly, side_in)
        finally:
            _RuleGraph.tainted_parents = walk
        assert result == expected, butterfly.body.block_id
        assert list(result[0]) == list(expected[0]), butterfly.body.block_id
        self.bodies += 1
        self.lastchecks[butterfly.body.block_id] = result[0]
        return result


def run_split_checked(threads, h, **kwargs):
    guard = SplitChecked(**kwargs)
    ButterflyEngine(guard).run(
        partition_fixed(TraceProgram.from_lists(*threads), h)
    )
    flags = [(e.location, e.ref) for e in guard.errors]
    return guard, flags


CONFIGS = [
    pytest.param(
        {"mode": mode, "two_phase": two_phase},
        id=f"{mode}-{'two' if two_phase else 'one'}-phase",
    )
    for mode in ("relaxed", "sc")
    for two_phase in (True, False)
]
nop = Instr.nop


@pytest.mark.parametrize("config", CONFIGS)
class TestTouchedUntouchedSplit:
    def test_untouched_target_tainted_two_epochs_back_is_flagged_wholesale(
        self, config
    ):
        # Thread 0 taints 5 in epoch 0 and jumps through it in epoch 2:
        # nothing in that body's window writes 5, SOS_2 holds it.
        guard, flags = run_split_checked(
            [
                [Instr.taint(5), nop(), Instr.jump(5)],
                [nop(), nop(), nop()],
            ],
            1, **config,
        )
        assert flags == [(5, (0, 2))]
        assert guard.walked[2, 0] == []

    def test_target_only_a_next_epoch_wing_taints_is_walked(self, config):
        guard, flags = run_split_checked(
            [[Instr.jump(5), nop()], [nop(), Instr.taint(5)]], 1, **config
        )
        assert flags == [(5, (0, 0))]
        assert set(guard.walked[0, 0]) == {(5,)}

    def test_target_the_body_writes_only_after_the_jump(self, config):
        # The body's later TAINT is not visible to its earlier jump, but
        # it makes 5 a written location: the verdict comes from the
        # walk (no local write before offset 0, no wing, empty LSOS).
        guard, flags = run_split_checked(
            [[Instr.jump(5), Instr.taint(5)], [nop(), nop()]], 2, **config
        )
        assert flags == []
        assert set(guard.walked[0, 0]) == {(5,)}
        # And with 5 tainted two epochs back, the later UNTAINT does not
        # hide the entry state from the jump before it.
        guard, flags = run_split_checked(
            [
                [Instr.taint(5), nop(), nop(), nop(),
                 Instr.jump(5), Instr.untaint(5)],
                [nop()] * 6,
            ],
            2, **config,
        )
        assert flags == [(5, (0, 4))]
        assert set(guard.walked[2, 0]) == {(5,)}

    def test_last_write_assign_with_one_touched_and_one_untouched_parent(
        self, config
    ):
        def lastcheck_of_9(wing_op, taint_untouched):
            guard, _ = run_split_checked(
                [
                    [Instr.taint(2) if taint_untouched else nop(), nop(),
                     Instr.assign(9, 1, 2)],
                    [nop(), nop(), wing_op(1)],
                ],
                1, **config,
            )
            return guard.lastchecks[2, 0][9], guard.walked[2, 0]

        # 1 is written by the wing (touched), 2 by nothing in the window.
        verdict, walked = lastcheck_of_9(Instr.taint, False)
        assert verdict is BOT and set(walked) == {(1,)}
        verdict, walked = lastcheck_of_9(Instr.untaint, False)
        assert verdict is TOP and set(walked) == {(1,)}
        # 2 tainted two epochs back: the intersection answers, no walk.
        verdict, walked = lastcheck_of_9(Instr.untaint, True)
        assert verdict is BOT and walked == []

    def test_head_untaint_with_a_sibling_resurrection(self, config):
        # Thread 1 tainted 3 in epoch 0, thread 0's head untaints it in
        # epoch 1: the untaint may have run first, 3 stays in the LSOS.
        guard, flags = run_split_checked(
            [
                [nop(), Instr.untaint(3), Instr.jump(3)],
                [Instr.taint(3), nop(), nop()],
            ],
            1, **config,
        )
        assert flags == [(3, (0, 2))]
        assert guard.walked[2, 0] == []
        # The thread's own taint is dead after its own untaint (the
        # view's ``removed``); the head's taint is live (``added``).
        guard, flags = run_split_checked(
            [
                [Instr.taint(3), Instr.untaint(3), Instr.jump(3)],
                [nop(), nop(), nop()],
            ],
            1, **config,
        )
        assert flags == [] and guard.walked[2, 0] == []
        guard, flags = run_split_checked(
            [[nop(), Instr.taint(7), Instr.jump(7)], [nop(), nop(), nop()]],
            1, **config,
        )
        assert flags == [(7, (0, 2))] and guard.walked[2, 0] == []

    def test_generated_runs_agree_with_the_per_check_loop(self, config):
        seen = {"bodies": 0, "flagged": 0, "tainted": 0, "walked": 0}

        def run(partition):
            guard = SplitChecked(**config)
            ButterflyEngine(guard).run(partition)
            seen["bodies"] += guard.bodies
            seen["flagged"] += len(guard.errors)
            seen["walked"] += sum(map(len, guard.walked.values()))
            seen["tainted"] += sum(
                v is BOT
                for lastcheck in guard.lastchecks.values()
                for v in lastcheck.values()
            )

        gen = AdversarialCaseGenerator(4)
        families = set()
        for i in range(4 * len(FAMILIES)):
            case = gen.case(i)
            families.add(case.label)
            run(case.partition())
        assert families == set(FAMILIES)
        for seed in range(3):
            prog = simulated_taint_program(
                random.Random(seed), num_threads=3, total_events=240,
                taint_rate=0.2, untaint_rate=0.2,
            )
            run(partition_fixed(prog, 8))
        # A sparse program: most checks name locations nothing writes.
        prog = simulated_taint_program(
            random.Random(9), num_threads=3, total_events=600,
            num_locations=4096, taint_rate=0.2, untaint_rate=0.05,
        )
        run(partition_fixed(prog, 16))
        assert seen["bodies"] > 150
        assert seen["flagged"] > 0 and seen["tainted"] > 10
        assert seen["walked"] > 100


# -- the tainted-address LSOS / SOS algebra ----------------------------------
#
# The guard overlays a view of the SOS with a visit of the head's
# LASTCHECK only; the references below are the same rules written one
# SOS element at a time (LSOS) and through the KILL predicate (SOS), as
# the oracle.


def reference_lsos(guard, lid, tid):
    sos = guard.sos.get(lid)
    head = guard._summaries.get((lid - 1, tid)) if lid >= 1 else None
    if head is None:
        return set(sos)
    lsos = {loc for loc, v in head.lastcheck.items() if v is BOT}
    for loc in sos:
        if head.lastcheck.get(loc) is not TOP:
            lsos.add(loc)
        elif any(
            l == lid - 2 and t != tid and s.lastcheck.get(loc) is BOT
            for (l, t), s in guard._summaries.items()
        ):
            lsos.add(loc)
    return lsos


def checked(summary_rows, sos=None):
    """A guard holding hand-resolved ``{(lid, tid): {loc: verdict}}``
    LASTCHECK maps, with ``sos`` published for every epoch up to the
    last one present."""
    guard = ButterflyTaintCheck()
    for block_id, lastcheck in summary_rows.items():
        s = TaintSummary(block_id=block_id)
        s.lastcheck.update(lastcheck)
        guard._summaries[block_id] = s
    last = max(lid for lid, _ in summary_rows)
    for lid in range(last - 1):
        guard.sos.publish(lid, set(sos or ()), set())
    return guard


class TestTaintLSOSAlgebra:
    def test_no_head_is_a_private_copy_of_the_sos(self):
        guard = ButterflyTaintCheck()
        guard.sos.publish(0, {1, 2}, set())
        lsos = guard._compute_lsos(2, 0)
        assert lsos == reference_lsos(guard, 2, 0) == {1, 2}
        lsos.add(3)
        assert guard.sos.get(2) == {1, 2}
        assert guard._compute_lsos(0, 0) == set()

    def test_head_verdicts_edit_the_sos(self):
        guard = checked(
            {
                (0, 0): {}, (0, 1): {},
                # taints 7 (new), untaints 2 (in SOS) and 9 (not in it)
                (1, 0): {7: BOT, 2: TOP, 9: TOP},
                (1, 1): {},
                (2, 0): {}, (2, 1): {},
            },
            sos={1, 2, 3},
        )
        assert guard._compute_lsos(2, 0) == reference_lsos(guard, 2, 0)
        assert guard._compute_lsos(2, 0) == {1, 3, 7}
        # The sibling's view has no head verdicts: the SOS unchanged.
        assert guard._compute_lsos(2, 1) == reference_lsos(guard, 2, 1)
        assert guard._compute_lsos(2, 1) == {1, 2, 3}

    def test_sibling_taint_in_l_minus_2_resurrects_an_untaint(self):
        rows = {
            (0, 0): {2: BOT}, (0, 1): {3: BOT},
            (1, 0): {2: TOP, 3: TOP}, (1, 1): {},
            (2, 0): {}, (2, 1): {},
        }
        guard = checked(rows, sos={2, 3})
        # 3 was tainted by the sibling next to the head: the untaint may
        # have run first.  2 was tainted by this thread itself: dead.
        assert guard._compute_lsos(2, 0) == reference_lsos(guard, 2, 0) == {3}

    def test_large_untouched_sos_passes_through(self):
        heap = set(range(100_000))
        guard = checked(
            {
                (0, 0): {}, (0, 1): {100_001: BOT},
                (1, 0): {100_000: BOT, 100_001: TOP, 5: TOP}, (1, 1): {},
                (2, 0): {}, (2, 1): {},
            },
            sos=heap | {100_001},
        )
        lsos = guard._compute_lsos(2, 0)
        assert lsos == reference_lsos(guard, 2, 0)
        assert lsos == (heap - {5}) | {100_000, 100_001}

    def test_generated_runs_agree_with_the_reference(self):
        class Checked(ButterflyTaintCheck):
            lsos_checked = 0
            sos_changed = 0

            def _compute_lsos(self, lid, tid):
                lsos = super()._compute_lsos(lid, tid)
                assert lsos == reference_lsos(self, lid, tid), (lid, tid)
                Checked.lsos_checked += 1
                return lsos

            def epoch_update(self, lid, summaries):
                # SOS_{l+2} one element of SOS_{l+1} at a time, through
                # the KILL predicate.
                # (a copy: publishing rewrites the view's base in place)
                prev = set(self.sos.get(lid + 1))
                threads = sorted(t for _, t in summaries)
                gen, kill = set(), set()
                for (_, t), s in summaries.items():
                    for loc, verdict in s.lastcheck.items():
                        if verdict is BOT:
                            gen.add(loc)
                        elif all(
                            self._lastcheck_span(loc, lid, t2) in (TOP, None)
                            for t2 in threads if t2 != t
                        ):
                            kill.add(loc)
                kill -= gen
                expected = {loc for loc in prev if loc not in kill} | gen
                super().epoch_update(lid, summaries)
                assert self.sos.get(lid + 2) == expected, lid
                Checked.sos_changed += expected != prev

        for seed in range(4):
            prog = simulated_taint_program(
                random.Random(seed), num_threads=3, total_events=240,
                taint_rate=0.2, untaint_rate=0.2,
            )
            ButterflyEngine(Checked()).run(partition_fixed(prog, 8))
        assert Checked.lsos_checked > 100
        assert Checked.sos_changed > 10
