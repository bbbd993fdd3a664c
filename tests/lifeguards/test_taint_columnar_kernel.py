"""Bit-identity of the vectorized TaintCheck first-pass kernel.

The columnar :class:`TaintScanner` must produce *exactly* the scalar
kernel's :class:`TaintSummary` -- same rules per location in the same
program order, same dict insertion order, same BOT/TOP singletons, same
critical-use list, plain Python ints throughout -- for any block.
"""

import pickle
import random

from repro.core.columnar import ColumnarBlock
from repro.core.epoch import Block, partition_from_boundaries
from repro.core.framework import ButterflyEngine
from repro.lifeguards.taintcheck import (
    BOT,
    TOP,
    ButterflyTaintCheck,
    TaintScanner,
)
from repro.trace.events import Instr, Op
from repro.trace.generator import adversarial_instrs
from repro.trace.program import ThreadTrace, TraceProgram
from repro.verify.generator import FAMILIES, AdversarialCaseGenerator
from repro.verify.reference import ReferenceTaintScanner

_ALL_OPS = (Op.WRITE, Op.READ, Op.MALLOC, Op.FREE, Op.ASSIGN,
            Op.TAINT, Op.UNTAINT, Op.JUMP, Op.NOP)


def _summary_dict(summary):
    return {
        "block_id": summary.block_id,
        "rules": summary.rules,
        # Dict equality ignores insertion order; the kernels must also
        # agree on it (downstream iteration order feeds LASTCHECK).
        "rule_order": list(summary.rules),
        "jumps": summary.jumps,
        "lastcheck": summary.lastcheck,
    }


def _assert_kernels_agree(instrs, lid=0, tid=0):
    block = Block(lid, tid, 0, ColumnarBlock.from_instrs(instrs))
    obj = ReferenceTaintScanner()(block, None)
    col = TaintScanner()(block, None)
    assert _summary_dict(col) == _summary_dict(obj)
    # Values must be the BOT/TOP singletons (``is`` checks everywhere)
    # over plain Python ints, never numpy scalars.
    for loc, writes in col.rules.items():
        assert type(loc) is int
        for offset, value in writes:
            assert type(offset) is int
            if value is not BOT and value is not TOP:
                assert type(value) is tuple
                for parent in value:
                    assert type(parent) is int
    for offset, loc in col.jumps:
        assert type(offset) is int
        assert type(loc) is int


class TestKernelIdentity:
    def test_corner_cases(self):
        cases = [
            [],
            [Instr.nop()],
            [Instr.read(5)],
            # Every rule-producing op, plus a critical use.
            [Instr.taint(1), Instr.untaint(2), Instr.write(3),
             Instr.assign(4, 1, 2), Instr.jump(4)],
            # ASSIGN with one source and (via raw Instr) with none --
            # the no-source ASSIGN resolves to TOP.
            [Instr.assign(0, 1), Instr(Op.ASSIGN, dst=2)],
            # Repeated writes to one location: program order of the
            # per-location rule list must survive vectorization.
            [Instr.taint(6), Instr.write(6), Instr.assign(6, 6),
             Instr.untaint(6), Instr.taint(6)],
            # Rule-free noise around a single JUMP.
            [Instr.read(1), Instr.malloc(2, size=4), Instr.jump(1),
             Instr.free(2, size=4), Instr.nop()],
            # Block with no relevant events at all.
            [Instr.read(0), Instr.nop(), Instr.malloc(5)],
            # JUMP first and last.
            [Instr.jump(3)],
            [Instr.taint(3), Instr.jump(3)],
        ]
        for instrs in cases:
            _assert_kernels_agree(instrs)

    def test_random_blocks(self):
        rng = random.Random(41)
        for trial in range(60):
            instrs = adversarial_instrs(
                rng,
                rng.randrange(0, 120),
                num_locations=12,
                ops=_ALL_OPS,
                hot_locations=(1, 2, 3) if trial % 3 == 0 else None,
                straddle_stride=4 if trial % 2 == 0 else 0,
                max_extent=6,
            )
            _assert_kernels_agree(instrs, lid=trial % 5, tid=trial % 3)

    def test_every_adversarial_family(self):
        """Replay every generator family's blocks through both kernels.

        The families cover the historically hard shapes (wing-heavy
        conflicts, epoch-boundary state changes, single-instruction
        blocks, empty threads, page straddles, taint chains); the
        kernels must agree on each block of each case regardless of the
        case's target lifeguard.
        """
        gen = AdversarialCaseGenerator(seed=23)
        seen = set()
        for index in range(4 * len(FAMILIES)):
            case = gen.case(index)
            seen.add(case.label)
            partition = case.partition()
            for block in partition.iter_blocks():
                _assert_kernels_agree(block.instrs, *block.block_id)
        assert seen == set(FAMILIES)

    def test_kernel_reads_columns_only(self):
        """The default kernel never materializes a block's objects."""
        instrs = (Instr.taint(1), Instr.assign(2, 1), Instr.jump(2))
        block = Block(0, 0, 0, ColumnarBlock.from_instrs(instrs))
        assert ButterflyTaintCheck().make_scanner() == TaintScanner()
        summary = TaintScanner()(block, None)
        assert block._instrs is None
        assert _summary_dict(summary) == _summary_dict(
            ReferenceTaintScanner()(block, None)
        )


class TestEngineIdentity:
    """Forced-kernel engine runs must agree end to end: errors (in
    stream order), engine stats, and resolved LASTCHECK state."""

    def _case_runs(self, seed):
        gen = AdversarialCaseGenerator(seed=seed)
        # Family index 5 is taint_chain; take several of them.
        for index in range(5, 5 + 6 * len(FAMILIES), len(FAMILIES)):
            case = gen.case(index)
            assert case.lifeguard == "taintcheck"
            runs = []
            for kernel in (False, True):
                guard = ButterflyTaintCheck(use_columnar_kernel=kernel)
                with ButterflyEngine(guard) as engine:
                    engine.run(case.partition())
                runs.append((guard, engine.stats))
            yield case, runs

    def test_errors_and_stats_identical(self):
        for case, ((obj_guard, obj_stats), (col_guard, col_stats)) in (
            self._case_runs(11)
        ):
            obj_ids = [r.identity() for r in obj_guard.errors]
            col_ids = [r.identity() for r in col_guard.errors]
            assert col_ids == obj_ids, case.label
            assert col_stats == obj_stats, case.label

    def test_error_order_is_stream_position(self):
        """Within one block the flagged jumps come out ordered by
        stream position under either kernel."""
        instrs = [Instr.taint(1), Instr.jump(1), Instr.taint(2),
                  Instr.jump(2), Instr.jump(1)]
        for kernel in (False, True):
            guard = ButterflyTaintCheck(use_columnar_kernel=kernel)
            program = TraceProgram([ThreadTrace(list(instrs))])
            partition = partition_from_boundaries(program, [[len(instrs)]])
            with ButterflyEngine(guard) as engine:
                engine.run(partition)
            offsets = [r.ref[1] for r in guard.errors]
            assert offsets == sorted(offsets)
            assert len(offsets) == 3


class TestPoolPayload:
    """A taint first-pass task on the columnar path ships the scanner,
    column bytes and a ``None`` context -- no ``Instr`` object trees."""

    def test_task_payload_is_object_free(self):
        guard = ButterflyTaintCheck()
        scanner = guard.make_scanner()
        rng = random.Random(3)
        instrs = adversarial_instrs(rng, 300, num_locations=8,
                                    ops=_ALL_OPS, max_extent=3)
        block = Block(0, 0, 0, ColumnarBlock.from_instrs(instrs))
        context = guard.first_pass_context(block)
        payload = pickle.dumps((scanner, (block, context)))
        assert b"Instr" not in payload
        assert b"repro.trace.events" not in payload
