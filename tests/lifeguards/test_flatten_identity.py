"""The columnar AddrCheck kernel's rewritten sections against the numpy
idioms they replaced.

The access-stream flatten (:func:`repro.lifeguards.addrcheck._access_stream`)
must return exactly the arrays the parent's flatten returned -- kept
test-local in :mod:`tests.lifeguards.flatten_reference` -- and
``scan_row`` (whose ``_occurrences`` now reads ``mark.take(key)``) must
hand back exactly the :class:`AddrScan` of the per-block kernel built on
that flatten (:mod:`tests.lifeguards.per_block_scan`).  Inputs:
generator blocks at 512 and 25 000 events, every adversarial family,
non-access events carrying sources, empty and access-free blocks, and
multi-segment groups.  The array checks need numpy; the scan checks run
without it too, where both sides are the object kernel.
"""

import pytest

from repro.core.columnar import (
    HAVE_NUMPY,
    OP_ASSIGN,
    OP_WRITE,
    ColumnarBlock,
    np,
)
from repro.core.epoch import Block
from repro.lifeguards import addrcheck
from repro.trace.generator import ColumnarAllocSource
from repro.verify.generator import FAMILIES, AdversarialCaseGenerator

from tests.lifeguards.flatten_reference import flatten
from tests.lifeguards.test_row_kernel import (
    assert_row_matches_per_block,
    _views,
)

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the flatten and its reference are numpy code"
)


def _generated_rows(h, threads, epochs):
    source = ColumnarAllocSource(
        11, num_threads=threads, num_epochs=epochs, events_per_block=h,
        error_rate=0.01, change_period=max(2, h // 16),
    )
    return source.preallocated, list(source.epochs())


def _adversarial_rows():
    """``(label, preallocated, rows)`` for two rounds of every family,
    each block columnar-backed."""
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


#: TAINT/NOP/MALLOC/FREE/UNTAINT rows with sources sit between access
#: events: the flatten's filter branch.
_SOURCES_ON_NON_ACCESS = [
    ["malloc", 1000, [3, 4], 2],
    ["read", None, [1], 1],
    ["taint", 7, [1, 2, 3], 1],
    ["write", 5, [9], 1],
    ["nop", None, [500, 501], 1],
    ["assign", 2, [1000, 21], 1],
    ["untaint", 7, [8], 1],
    ["free", 1000, [6], 1],
    ["jump", None, [1000], 1],
]

#: No READ/WRITE/ASSIGN/JUMP at all: an empty access stream.
_ACCESS_FREE = [
    ["malloc", 40, [], 3],
    ["nop", None, [], 1],
    ["taint", 41, [], 1],
    ["untaint", 41, [7], 1],
    ["free", 40, [], 3],
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
    sources = ColumnarBlock.from_rows(_SOURCES_ON_NON_ACCESS)
    access_free = ColumnarBlock.from_rows(_ACCESS_FREE)
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


@needs_numpy
def test_flatten_matches_the_reference():
    inputs = _column_inputs()
    assert len(inputs) > 100
    branches = set()
    for name, cols in inputs:
        acc_off, acc_loc, tot = addrcheck._access_stream(cols)
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
    def block(tid, rows):
        return Block(2, tid, 0, columns=ColumnarBlock.from_rows(rows))

    base = frozenset(range(0, 12)) | {500, 1000}
    rows = [_SOURCES_ON_NON_ACCESS, _ACCESS_FREE, [], _SOURCES_ON_NON_ACCESS]
    blocks = [block(tid, r) for tid, r in enumerate(rows)]
    for items in (
        _views(blocks, base, lambda tid: [tid, 41]),
        *([item] for item in _views(blocks, base)),
    ):
        assert_row_matches_per_block(items, use_filter)
