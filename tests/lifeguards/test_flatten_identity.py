"""The columnar AddrCheck kernel's rewritten sections against the numpy
idioms they replaced.

The access-stream flatten (:func:`repro.core.columnar.access_stream`)
must return exactly the arrays the parent's flatten returned -- kept
test-local in :mod:`tests.lifeguards.flatten_reference` -- and
``scan_row`` (whose ``_occurrences`` now reads ``mark.take(key)``) must
hand back exactly the :class:`AddrScan` of the per-block kernel built on
that flatten (:mod:`tests.lifeguards.per_block_scan`).  Inputs:
generator blocks at 512 and 25 000 events, every adversarial family,
non-access events carrying sources, empty and access-free blocks, and
multi-segment groups.
"""

import numpy as np
import pytest

from repro.core.columnar import (
    OP_ASSIGN, OP_WRITE, ColumnarBlock, access_stream,
)
from repro.core.epoch import Block
from repro.trace.events import Instr, Op
from repro.trace.generator import ColumnarAllocSource
from repro.verify.generator import FAMILIES, AdversarialCaseGenerator

from tests.lifeguards.flatten_reference import flatten
from tests.lifeguards.test_row_kernel import (
    assert_row_matches_per_block,
    _views,
)

def _generated_rows(h, threads, epochs):
    source = ColumnarAllocSource(
        11, num_threads=threads, num_epochs=epochs, events_per_block=h,
        error_rate=0.01, change_period=max(2, h // 16),
    )
    return source.preallocated, list(source.epochs())


def _adversarial_rows():
    """``(label, preallocated, rows)`` for two rounds of every family,
    each block carrying columns only."""
    gen = AdversarialCaseGenerator(41, num_locations=24)
    out = []
    for index in range(2 * len(FAMILIES)):
        case = gen.case(index)
        part = case.partition()
        rows = [
            [
                Block(lid, tid, block.start, columns=block.columns)
                for tid in range(part.num_threads)
                for block in (part.block(lid, tid),)
            ]
            for lid in range(part.num_epochs)
        ]
        out.append((case.label, frozenset(case.preallocated), rows))
    assert {label for label, _, _ in out} == set(FAMILIES)
    return out


#: TAINT/NOP/MALLOC/FREE/UNTAINT events with sources sit between access
#: events: the flatten's filter branch.
_SOURCES_ON_NON_ACCESS = [
    Instr(Op.MALLOC, dst=1000, srcs=(3, 4), size=2),
    Instr.read(1),
    Instr(Op.TAINT, dst=7, srcs=(1, 2, 3)),
    Instr(Op.WRITE, dst=5, srcs=(9,)),
    Instr(Op.NOP, srcs=(500, 501)),
    Instr.assign(2, 1000, 21),
    Instr(Op.UNTAINT, dst=7, srcs=(8,)),
    Instr(Op.FREE, dst=1000, srcs=(6,)),
    Instr.jump(1000),
]

#: No READ/WRITE/ASSIGN/JUMP at all: an empty access stream.
_ACCESS_FREE = [
    Instr.malloc(40, 3),
    Instr.nop(),
    Instr.taint(41),
    Instr(Op.UNTAINT, dst=41, srcs=(7,)),
    Instr.free(40, 3),
]


def _column_inputs():
    """``(name, ColumnarBlock)`` pairs: single blocks and concatenated
    multi-segment groups."""
    out = []
    for h, threads, epochs in ((512, 4, 2), (25_000, 2, 1)):
        _, rows = _generated_rows(h, threads, epochs)
        for lid, row in enumerate(rows):
            for tid, block in enumerate(row):
                out.append((f"gen{h}-{lid}-{tid}", block.columns))
            out.append((f"gen{h}-{lid}-row", ColumnarBlock.concat(
                [b.columns for b in row]
            )))
    for label, _, rows in _adversarial_rows():
        for lid, row in enumerate(rows):
            for tid, block in enumerate(row):
                out.append((f"{label}-{lid}-{tid}", block.columns))
            out.append((f"{label}-{lid}-row", ColumnarBlock.concat(
                [b.columns for b in row]
            )))
    sources = ColumnarBlock.from_instrs(_SOURCES_ON_NON_ACCESS)
    access_free = ColumnarBlock.from_instrs(_ACCESS_FREE)
    empty = ColumnarBlock.from_instrs(())
    out += [
        ("sources-on-non-access", sources),
        ("access-free", access_free),
        ("empty", empty),
        ("mixed-row", ColumnarBlock.concat(
            [sources, empty, access_free, sources]
        )),
    ]
    return out


def test_flatten_matches_the_reference():
    inputs = _column_inputs()
    assert len(inputs) > 100
    branches = set()
    for name, cols in inputs:
        acc_off, acc_loc, tot = access_stream(cols)
        want_off, want_loc = flatten(cols)
        assert acc_off.dtype == want_off.dtype == np.int64, name
        assert acc_loc.dtype == want_loc.dtype == np.int64, name
        assert np.array_equal(acc_off, want_off), name
        assert np.array_equal(acc_loc, want_loc), name
        assert np.array_equal(tot, want_off[1:] - want_off[:-1]), name
        has_dst = int(np.isin(cols.op, [OP_WRITE, OP_ASSIGN]).sum())
        branches.add(
            "empty" if not acc_loc.shape[0]
            else "filter" if acc_loc.shape[0] - has_dst != len(cols.src_val)
            else "usual"
        )
    assert branches == {"empty", "filter", "usual"}


@pytest.mark.parametrize("use_filter", [True, False])
@pytest.mark.parametrize("h,threads,epochs", [(512, 4, 3), (25_000, 2, 2)])
def test_generator_rows_scan_identically(h, threads, epochs, use_filter):
    """512-event rows are one four-segment group; a 25 000-event block
    is a group of one."""
    pre, rows = _generated_rows(h, threads, epochs)
    for row in rows:
        assert_row_matches_per_block(
            _views(row, frozenset(pre), lambda tid: [tid, 10_000 + tid]),
            use_filter,
        )


@pytest.mark.parametrize("use_filter", [True, False])
def test_every_adversarial_family_scans_identically(use_filter):
    for _, pre, rows in _adversarial_rows():
        for row in rows:
            assert_row_matches_per_block(
                _views(row, pre, lambda tid: [tid]), use_filter
            )


@pytest.mark.parametrize("use_filter", [True, False])
def test_edge_blocks_scan_identically(use_filter):
    """Sources on non-access events, an access-free block and empty
    blocks, alone and as segments of one group."""
    def block(tid, instrs):
        return Block(2, tid, 0, columns=ColumnarBlock.from_instrs(instrs))

    base = frozenset(range(0, 12)) | {500, 1000}
    events = [
        _SOURCES_ON_NON_ACCESS, _ACCESS_FREE, [], _SOURCES_ON_NON_ACCESS,
    ]
    blocks = [block(tid, e) for tid, e in enumerate(events)]
    for items in (
        _views(blocks, base, lambda tid: [tid, 41]),
        *([item] for item in _views(blocks, base)),
    ):
        assert_row_matches_per_block(items, use_filter)
