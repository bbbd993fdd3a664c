"""Unit and oracle tests for dynamic parallel reaching definitions."""

import random

import pytest

from repro.core.dataflow import Definition
from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyEngine
from repro.core.ordering import all_valid_orderings, serialize_ordering
from repro.core.reaching_defs import ReachingDefinitions
from repro.trace.events import Instr, Op
from repro.trace.generator import random_program
from repro.trace.program import TraceProgram


def run_defs(program, h, **kwargs):
    analysis = ReachingDefinitions(**kwargs)
    ButterflyEngine(analysis).run(partition_fixed(program, h))
    return analysis


def sequential_reaching(instr_seq):
    """Oracle: last definition per variable after executing a sequence."""
    last = {}
    for iid, instr in instr_seq:
        if instr.op in (Op.WRITE, Op.ASSIGN, Op.TAINT, Op.UNTAINT):
            if instr.dst is not None:
                last[instr.dst] = Definition(instr.dst, iid)
    return set(last.values())


class TestBasics:
    def test_single_thread_matches_sequential(self):
        prog = TraceProgram.from_lists(
            [Instr.write(0), Instr.write(1), Instr.write(0)]
        )
        analysis = run_defs(prog, 1)
        # After all epochs, SOS for the epoch after the last+2 holds
        # exactly the downward-exposed defs.
        final = analysis.sos.get(analysis.sos.frontier)
        assert final == {
            Definition(0, (2, 0, 0)),
            Definition(1, (1, 0, 0)),
        }

    def test_cross_thread_defs_may_all_reach(self):
        # Both threads define x concurrently: both defs reach (exists
        # semantics -- either write may be last).
        prog = TraceProgram.from_lists([Instr.write(7)], [Instr.write(7)])
        analysis = run_defs(prog, 1)
        final = analysis.sos.get(analysis.sos.frontier)
        assert final == {
            Definition(7, (0, 0, 0)),
            Definition(7, (0, 1, 0)),
        }

    def test_strictly_later_write_kills(self):
        # Thread 0 defines x in epoch 0; thread 1 redefines it two
        # epochs later -- the old def cannot survive.
        prog = TraceProgram.from_lists(
            [Instr.write(5), Instr.nop(), Instr.nop()],
            [Instr.nop(), Instr.nop(), Instr.write(5)],
        )
        analysis = run_defs(prog, 1)
        final = analysis.sos.get(analysis.sos.frontier)
        assert Definition(5, (0, 0, 0)) not in final
        assert Definition(5, (2, 1, 0)) in final

    def test_gen_side_in_union_of_wings(self):
        prog = TraceProgram.from_lists(
            [Instr.nop(), Instr.nop()],
            [Instr.write(3), Instr.write(4)],
        )
        analysis = run_defs(prog, 1)
        # Body (0,0) sees thread 1's defs from epochs 0..1 in its wings.
        side = analysis.side_in[(0, 0)]
        assert Definition(3, (0, 1, 0)) in side
        assert Definition(4, (1, 1, 0)) in side

    def test_block_in_includes_lsos_and_side(self):
        prog = TraceProgram.from_lists(
            [Instr.write(1), Instr.nop(), Instr.read(1)],
            [Instr.write(2), Instr.nop(), Instr.nop()],
        )
        analysis = run_defs(prog, 1)
        in_set = analysis.block_in[(2, 0)]
        assert Definition(1, (0, 0, 0)) in in_set  # via SOS/LSOS

    def test_instruction_hook_fires(self):
        seen = []
        prog = TraceProgram.from_lists([Instr.write(0), Instr.read(0)])
        analysis = ReachingDefinitions(
            check=lambda iid, instr, ins: seen.append((iid, len(ins))) or ()
        )
        ButterflyEngine(analysis).run(partition_fixed(prog, 1))
        assert len(seen) == 2


class TestLemma51:
    """Lemma 5.1: GEN_l membership has an ordering witness; KILL_l
    membership means killed under every valid ordering."""

    @pytest.mark.parametrize("seed", range(12))
    def test_sos_invariant_against_oracle(self, seed):
        rng = random.Random(seed)
        prog = random_program(
            rng, num_threads=2, length=3, num_locations=3,
            ops=(Op.WRITE, Op.NOP, Op.READ),
        )
        h = 1
        part = partition_fixed(prog, h)
        analysis = run_defs(prog, h)

        # Oracle: a def is in SOS_{l} iff some valid ordering of epochs
        # [0, l-2] ends with it reaching (Lemma 5.2's invariant).
        for lid in range(2, part.num_epochs + 2):
            upto = lid - 2
            reachable = set()
            for order in all_valid_orderings(part, up_to_epoch=upto):
                seq = [(iid, part.instr(iid)) for iid in order]
                reachable |= sequential_reaching(seq)
            sos = analysis.sos.get(lid)
            # Soundness (no false negatives): every truly reachable def
            # is preserved in the SOS.
            assert reachable <= sos, (
                f"epoch {lid}: missing {reachable - sos}"
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_precision_not_absurd(self, seed):
        # The SOS may over-approximate, but only with defs that exist.
        rng = random.Random(seed + 100)
        prog = random_program(
            rng, num_threads=2, length=3, num_locations=2,
            ops=(Op.WRITE, Op.NOP),
        )
        analysis = run_defs(prog, 1)
        all_defs = set()
        part = partition_fixed(prog, 1)
        for block in part.iter_blocks():
            for iid, instr in block.iter_ids():
                if instr.dst is not None:
                    all_defs.add(Definition(instr.dst, iid))
        assert analysis.sos.get(analysis.sos.frontier) <= all_defs


class TestLSOSResurrection:
    def test_head_kill_of_adjacent_sibling_def_does_not_remove(self):
        # Thread 1 defines x in epoch 0 (lands in SOS_2).  Thread 0's
        # head (epoch 1) redefines x.  Because epoch 0 (other thread)
        # and epoch 1 are adjacent, the head's write may precede the
        # sibling's -- the sibling def must stay in LSOS_{2,0}.
        prog = TraceProgram.from_lists(
            [Instr.nop(), Instr.write(9), Instr.read(9)],
            [Instr.write(9), Instr.nop(), Instr.nop()],
        )
        analysis = run_defs(prog, 1)
        lsos = analysis.block_lsos[(2, 0)]
        assert Definition(9, (0, 1, 0)) in lsos
        assert Definition(9, (1, 0, 0)) in lsos

    def test_head_kill_of_distant_def_removes(self):
        # Sibling defined x in epoch 0; head is epoch 2 -- strictly
        # after -- so the head's redefinition kills it in LSOS_{3,0}.
        prog = TraceProgram.from_lists(
            [Instr.nop(), Instr.nop(), Instr.write(9), Instr.read(9)],
            [Instr.write(9), Instr.nop(), Instr.nop(), Instr.nop()],
        )
        analysis = run_defs(prog, 1)
        lsos = analysis.block_lsos[(3, 0)]
        assert Definition(9, (0, 1, 0)) not in lsos
        assert Definition(9, (2, 0, 0)) in lsos
