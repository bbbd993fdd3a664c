"""Unit tests for GEN/KILL primitives and block summaries."""

from repro.core.dataflow import (
    BlockFacts,
    Definition,
    DefinitionDomain,
    Expression,
    ExpressionDomain,
    summarize_block,
    union_side_out_gen,
    union_side_out_kill,
)
from repro.core.epoch import Block
from repro.trace.events import Instr


def block(instrs, lid=0, tid=0):
    return Block(lid=lid, tid=tid, start=0, instrs=tuple(instrs))


class TestDefinitionDomain:
    domain = DefinitionDomain()

    def test_write_defines(self):
        facts = summarize_block(block([Instr.write(5)]), self.domain)
        assert facts.gen == {Definition(5, (0, 0, 0))}
        assert facts.killed_vars == {5}

    def test_redefinition_shadows(self):
        facts = summarize_block(
            block([Instr.write(5), Instr.write(5)]), self.domain
        )
        # Only the last definition is downward-exposed.
        assert facts.gen == {Definition(5, (0, 0, 1))}
        # But both appear in GEN-SIDE-OUT.
        assert facts.all_gen == {
            Definition(5, (0, 0, 0)),
            Definition(5, (0, 0, 1)),
        }

    def test_kill_of_foreign_definition(self):
        facts = summarize_block(block([Instr.write(5)]), self.domain)
        foreign = Definition(5, (9, 9, 9))
        assert facts.kills(foreign, self.domain)
        other_var = Definition(6, (9, 9, 9))
        assert not facts.kills(other_var, self.domain)

    def test_own_exposed_def_not_killed(self):
        facts = summarize_block(block([Instr.write(5)]), self.domain)
        own = Definition(5, (0, 0, 0))
        assert not facts.kills(own, self.domain)
        assert facts.gens(own)

    def test_shadowed_def_is_killed(self):
        facts = summarize_block(
            block([Instr.write(5), Instr.write(5)]), self.domain
        )
        first = Definition(5, (0, 0, 0))
        assert facts.kills(first, self.domain)

    def test_reads_define_nothing(self):
        facts = summarize_block(block([Instr.read(5)]), self.domain)
        assert not facts.gen and not facts.killed_vars


class TestExpressionDomain:
    domain = ExpressionDomain()

    def test_assign_generates_expression(self):
        facts = summarize_block(block([Instr.assign(0, 1, 2)]), self.domain)
        assert facts.gen == {Expression.of(1, 2)}

    def test_operand_order_canonical(self):
        assert Expression.of(2, 1) == Expression.of(1, 2)

    def test_tag_distinguishes_operators(self):
        assert Expression.of(1, 2, tag="add") != Expression.of(1, 2, tag="sub")

    def test_writing_operand_kills_expression(self):
        facts = summarize_block(
            block([Instr.assign(0, 1, 2), Instr.write(1)]), self.domain
        )
        assert facts.gen == set()
        assert facts.kills(Expression.of(1, 2), self.domain)

    def test_recompute_after_kill_is_exposed(self):
        facts = summarize_block(
            block(
                [
                    Instr.assign(0, 1, 2),
                    Instr.write(1),
                    Instr.assign(3, 1, 2),
                ]
            ),
            self.domain,
        )
        assert Expression.of(1, 2) in facts.gen
        assert not facts.kills(Expression.of(1, 2), self.domain)

    def test_foreign_expression_killed_by_operand_write(self):
        facts = summarize_block(block([Instr.write(7)]), self.domain)
        assert facts.kills(Expression.of(7, 8), self.domain)
        assert not facts.kills(Expression.of(8, 9), self.domain)


class TestSideOutMeets:
    def test_gen_side_in_is_union(self):
        d = DefinitionDomain()
        f1 = summarize_block(block([Instr.write(1)], tid=1), d)
        f2 = summarize_block(block([Instr.write(2)], tid=2), d)
        side = union_side_out_gen([f1, f2])
        assert side == f1.all_gen | f2.all_gen

    def test_kill_side_in_is_union_of_vars(self):
        d = ExpressionDomain()
        f1 = summarize_block(block([Instr.write(1)], tid=1), d)
        f2 = summarize_block(block([Instr.write(2)], tid=2), d)
        assert union_side_out_kill([f1, f2]) == {1, 2}

    def test_empty_wings(self):
        assert union_side_out_gen([]) == set()
        assert union_side_out_kill([]) == set()
