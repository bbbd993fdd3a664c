"""Bit-identity of the vectorized TaintCheck first-pass kernel.

The columnar :class:`TaintScanner` must produce *exactly* the scalar
kernel's :class:`TaintSummary` -- same (location, offset)-sorted rule
columns, same last-write view, same critical uses, same BOT/TOP
singletons over plain Python ints wherever a check reads them -- for
any block, and for every block of a row it scans in groups.
"""

import pickle
import random

import numpy as np
import pytest

from repro.core.columnar import ColumnarBlock
from repro.core.epoch import Block, partition_from_boundaries
from repro.core.framework import GROUP_EVENTS, ButterflyEngine
from repro.lifeguards import taintcheck
from repro.lifeguards.taintcheck import (
    BOT,
    TOP,
    ButterflyTaintCheck,
    TaintScanner,
    TaintSummary,
)
from repro.trace.events import Instr, Op
from repro.trace.generator import adversarial_instrs
from repro.trace.program import ThreadTrace, TraceProgram
from repro.verify.generator import FAMILIES, AdversarialCaseGenerator
from repro.verify.reference import ReferenceTaintScanner

_ALL_OPS = (Op.WRITE, Op.READ, Op.MALLOC, Op.FREE, Op.ASSIGN,
            Op.TAINT, Op.UNTAINT, Op.JUMP, Op.NOP)


def jumps_of(s):
    """A summary's critical uses as ``(offset, location)`` pairs."""
    return list(zip(s.jump_off.tolist(), s.jump_loc.tolist()))


def own(s):
    """Everything a summary says, its own rules cut out of the rule
    columns a row scan's summaries share: what two kernels must agree
    on."""
    runs = list(s.written.values())
    lo = runs[0][0] if runs else 0
    hi = runs[-1][1] if runs else 0
    p_lo, p_hi = s.par_off[lo], s.par_off[hi]
    return (
        s.block_id,
        [(loc, a - lo, b - lo) for loc, (a, b) in s.written.items()],
        s.offsets[lo:hi].tolist(), s.kind[lo:hi].tolist(),
        (s.par_off[lo:hi + 1] - p_lo).tolist(), s.par_val[p_lo:p_hi].tolist(),
        jumps_of(s), list(s.last_bot), list(s.last_assigns), s.lastcheck,
    )


def _assert_plain(summary):
    """Everything a check reads is BOT/TOP singletons (``is`` checks
    everywhere) over plain Python ints, never numpy scalars."""
    assert list(summary.written) == sorted(summary.written)
    for loc, (lo, hi) in summary.written.items():
        assert type(loc) is int and type(lo) is int and type(hi) is int
        rules = summary.rules(loc)
        assert len(rules) == hi - lo > 0, loc
        for (lid, tid, offset), value in rules:
            assert (lid, tid) == summary.block_id
            assert type(offset) is int
            if value is not BOT and value is not TOP:
                assert type(value) is tuple
                assert all(type(parent) is int for parent in value)
        (_, _, offset), value = rules[-1]
        assert summary.write_before(loc, offset + 1) == (offset, value)
        assert type(summary.write_before(loc, offset + 1)[0]) is int
    assert all(type(loc) is int for loc in summary.last_bot)
    for loc, offset, parents in summary.last_assigns:
        assert type(loc) is int and type(offset) is int
        assert type(parents) is tuple
        assert all(type(parent) is int for parent in parents)
    for offset, loc in jumps_of(summary):
        assert type(offset) is int and type(loc) is int


def _assert_same(col, obj):
    assert own(col) == own(obj), col.block_id
    for loc in obj.written:
        assert col.rules(loc) == obj.rules(loc), loc
    _assert_plain(col)


def _assert_kernels_agree(instrs, lid=0, tid=0):
    block = Block(lid, tid, 0, ColumnarBlock.from_instrs(instrs))
    _assert_same(
        TaintScanner()(block, None), ReferenceTaintScanner()(block, None)
    )


def _assert_row_agrees(blocks):
    """``scan_row`` over the row equals the reference, block by block;
    returns the group sizes the kernel was handed."""
    groups = []
    kernel = taintcheck._scan_group

    def spy(group):
        groups.append(len(group))
        return kernel(group)

    taintcheck._scan_group = spy
    try:
        got = TaintScanner().scan_row([(b, None) for b in blocks])
    finally:
        taintcheck._scan_group = kernel
    assert len(got) == len(blocks)
    for block, col in zip(blocks, got):
        _assert_same(col, ReferenceTaintScanner()(block, None))
    return groups


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
        assert own(summary) == own(ReferenceTaintScanner()(block, None))


def _block(tid, instrs, lid=2):
    return Block(lid, tid, 0, ColumnarBlock.from_instrs(instrs))


def _taint_mix(n, tid):
    """``n`` events cycling through every rule shape -- ASSIGN with 0,
    1 and 2 sources, TAINT, UNTAINT, WRITE -- with a JUMP first and
    last, over a few locations shared by every thread."""
    shapes = [
        lambda i: Instr.taint(i % 5),
        lambda i: Instr(Op.ASSIGN, dst=i % 7),
        lambda i: Instr.assign(i % 7, (i + tid) % 5),
        lambda i: Instr.assign(i % 3, i % 5, (i + 1) % 7),
        lambda i: Instr.untaint(i % 5),
        lambda i: Instr.write((i + tid) % 7),
        lambda i: Instr.read(i % 9),
        lambda i: Instr.jump(i % 7),
    ]
    body = [shapes[i % len(shapes)](i) for i in range(max(n - 2, 0))]
    if n == 1:
        return [Instr.jump(tid)]
    return [Instr.jump(tid), *body, Instr.jump(3)] if n else []


def _reads(n, tid):
    return [Instr.read((i * 7 + tid) % 11) for i in range(n)]


class TestGroupCuts:
    """Rows whose blocks the kernel scans as segments of one stream:
    every block's summary equals the reference leg's at each cut."""

    @pytest.mark.parametrize(
        "lengths, groups",
        [
            ([0, 0, 0, 0], [4]),
            ([1, 1], [2]),
            ([0, 1, 0], [3]),
            ([GROUP_EVENTS - 1, 1], [2]),
            ([GROUP_EVENTS - 1, 2], [1, 1]),
            ([GROUP_EVENTS], [1]),
            ([GROUP_EVENTS, 1, 1], [1, 2]),
            ([1, GROUP_EVENTS], [1, 1]),
            ([GROUP_EVENTS + 1, 0], [1, 1]),
            ([32, GROUP_EVENTS + 1, 32, 32], [1, 1, 2]),
        ],
    )
    def test_block_lengths_at_the_group_cut(self, lengths, groups):
        blocks = [_block(t, _taint_mix(n, t)) for t, n in enumerate(lengths)]
        assert _assert_row_agrees(blocks) == groups

    def test_a_taint_block_beside_read_only_blocks(self):
        for at in range(4):
            blocks = [
                _block(t, _taint_mix(40, t) if t == at else _reads(40, t))
                for t in range(4)
            ]
            assert _assert_row_agrees(blocks) == [4]

    def test_segments_writing_the_same_locations(self):
        # Every thread writes the same handful of locations: a run must
        # end at its segment's cut even when the next segment's first
        # rule has the same location.
        blocks = [_block(t, _taint_mix(64, 0)) for t in range(4)]
        assert _assert_row_agrees(blocks) == [4]
        summaries = TaintScanner().scan_row([(b, None) for b in blocks])
        assert all(list(s.written) == list(summaries[0].written)
                   for s in summaries)

    def test_jump_first_and_last(self):
        for n in (1, 2, 3, 9):
            instrs = _taint_mix(n, 1)
            assert instrs[0].op is Op.JUMP and instrs[-1].op is Op.JUMP
            blocks = [_block(0, _reads(5, 0)), _block(1, instrs)]
            assert _assert_row_agrees(blocks) == [2]
            jumps = jumps_of(TaintScanner()(blocks[1], None))
            assert jumps[0][0] == 0 and jumps[-1][0] == n - 1

    def test_random_rows(self):
        rng = random.Random(5)
        for trial in range(40):
            blocks = [
                _block(t, adversarial_instrs(
                    rng, rng.choice((0, 1, 3, 40, 300)), num_locations=9,
                    ops=_ALL_OPS, hot_locations=(1, 2) if trial % 2 else None,
                    max_extent=3,
                ), lid=trial % 4)
                for t in range(rng.randrange(1, 6))
            ]
            _assert_row_agrees(blocks)


class TestSummaryForm:
    def test_from_rules_sorts_by_location_and_keeps_program_order(self):
        s = TaintSummary.from_rules(
            (1, 0),
            {9: [(0, (1, 2)), (5, BOT)], 2: [(3, TOP), (4, (9,))], 4: []},
            [(1, 9), (6, 2)],
        )
        assert list(s.written.items()) == [(2, (0, 2)), (9, (2, 4))]
        assert s.offsets.tolist() == [3, 4, 0, 5]
        assert s.par_off.tolist() == [0, 0, 1, 3, 3]
        assert s.par_val.tolist() == [9, 1, 2]
        assert s.last_bot == [9]
        assert s.last_assigns == [(2, 4, (9,))]
        assert jumps_of(s) == [(1, 9), (6, 2)]
        assert s.rules(9) == [((1, 0, 0), (1, 2)), ((1, 0, 5), BOT)]
        assert s.rules(4) == []
        assert s.write_before(9, 5) == (0, (1, 2))
        assert s.write_before(9, 0) is None
        assert s.write_before(4, 9) is None

    def test_a_row_shares_its_rule_columns(self):
        blocks = [_block(t, _taint_mix(30, t)) for t in range(3)]
        summaries = TaintScanner().scan_row([(b, None) for b in blocks])
        assert all(s.offsets is summaries[0].offsets for s in summaries)
        runs = [bounds for s in summaries for bounds in s.written.values()]
        assert runs == sorted(runs)
        assert [b for a, b in runs[:-1]] == [a for a, b in runs[1:]]

    def test_pickle_keeps_the_columns_and_drops_the_cache(self):
        block = _block(0, _taint_mix(50, 2))
        s = TaintScanner()(block, None)
        s.rules(3)
        s.lastcheck[3] = BOT
        back = pickle.loads(pickle.dumps(s))
        assert own(back) == own(s) and back._rules == {}
        assert back.lastcheck == {3: BOT}
        assert back.rules(3) == s.rules(3)
        assert isinstance(back.offsets, np.ndarray)


class TestSharedReaders:
    def test_threads_reading_fresh_summaries_agree(self):
        """The readers' caches (``rules`` lists, the group's memoryviews)
        fill lazily on summaries the second pass shares across threads:
        eight threads racing on fresh copies, at a tiny switch interval,
        read exactly what one thread reads."""
        import sys
        import threading

        blocks = [_block(t, _taint_mix(300, t)) for t in range(4)]
        fresh = TaintScanner().scan_row([(b, None) for b in blocks])
        want = [
            ({loc: list(s.rules(loc)) for loc in s.written},
             {(loc, o): s.write_before(loc, o)
              for loc in s.written for o in range(0, 300, 7)})
            for s in fresh
        ]
        shared = [pickle.loads(pickle.dumps(s)) for s in fresh]
        got, errors = [], []

        def read():
            try:
                got.append([
                    ({loc: list(s.rules(loc)) for loc in s.written},
                     {(loc, o): s.write_before(loc, o)
                      for loc in s.written for o in range(0, 300, 7)})
                    for s in shared
                ])
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(got) == 8
        assert all(reading == want for reading in got)


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
