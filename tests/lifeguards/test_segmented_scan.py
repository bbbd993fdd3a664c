"""The columnar first pass's segmented scan against the replay it
replaced.

:meth:`AddrScanner._scan_columns` reads every MALLOC/FREE error, every
check of a changed location and each changed pair's summary parts off
one sorted pass over ``(segment, location)`` runs.  The loop that
replayed each change event against the live view is kept test-local as
the reference (:mod:`tests.lifeguards.replay_reference`).  Every row
below is scanned three ways -- the segmented scan, that reference and
the per-``Instr`` kernel -- and all three must agree on every
:class:`AddrScan` field, on the key order of ``first_change`` and
``last_event``, and on the overlay each view is left with, under both
filter settings.

Inputs: every adversarial family, and a change-heavy family of double
mallocs, double frees, frees before mallocs, reallocations, overlapping
multi-location extents, accesses between a location's changes, changes
as a block's first or last event, and a row whose neighbouring segments
change the same location across their edge.
"""

import random

import pytest

from repro.core.columnar import ColumnarBlock
from repro.core.epoch import Block
from repro.core.state import SOSView
from repro.lifeguards.addrcheck import AddrScanner
from repro.lifeguards.reports import ErrorKind
from repro.trace.events import Instr
from repro.verify.reference import ReferenceAddrScanner

from tests.lifeguards.replay_reference import ReplayScanner
from tests.lifeguards.test_flatten_identity import _adversarial_rows
from tests.lifeguards.test_row_kernel import FIELDS, _copy, _views


def _overlay(view):
    return (set(view.added), set(view.removed))


def assert_three_kernels_agree(items, use_filter):
    """Scan ``items`` (``[(block, view), ...]``, one shared base) with
    the segmented scan, the replay reference and the per-``Instr``
    kernel, each on its own copies of the views; return the scans."""
    runs = {}
    for name, scan_row in (
        ("scan", AddrScanner(use_filter).scan_row),
        ("replay", ReplayScanner(use_filter).scan_row),
        ("objects", ReferenceAddrScanner(use_filter).scan_row),
    ):
        views = [_copy(v) for _, v in items]
        scans = scan_row([(b, v) for (b, _), v in zip(items, views)])
        runs[name] = (scans, [_overlay(v) for v in views])
    got, got_overlays = runs.pop("scan")
    for name, (want, want_overlays) in runs.items():
        assert len(got) == len(want) == len(items)
        for tid, (g, w) in enumerate(zip(got, want)):
            for field in FIELDS:
                assert getattr(g, field) == getattr(w, field), (
                    name, tid, field
                )
            assert list(g.first_change) == list(w.first_change), (name, tid)
            assert list(g.last_event) == list(w.last_event), (name, tid)
        assert got_overlays == want_overlays, name
    return got


@pytest.mark.parametrize("use_filter", [True, False])
def test_every_adversarial_family(use_filter):
    for _, pre, rows in _adversarial_rows():
        for row in rows:
            assert_three_kernels_agree(
                _views(row, pre, lambda tid: [tid]), use_filter
            )


def _block(tid, instrs):
    return Block(2, tid, 0, columns=ColumnarBlock.from_instrs(instrs))


#: One thread each: the allocation errors a change can make, a
#: realloc, overlapping extents, and changes opening and closing a
#: block, with accesses between a location's changes throughout.
_HAND_ROW = [
    # Double malloc and double free of 3; accesses between them.
    [Instr.malloc(3), Instr.read(3), Instr.malloc(3), Instr.write(3),
     Instr.free(3), Instr.read(3), Instr.free(3), Instr.read(3)],
    # A free before a malloc, then a realloc of 5.
    [Instr.read(5), Instr.free(5), Instr.read(5), Instr.malloc(5),
     Instr.write(5), Instr.free(5), Instr.malloc(5), Instr.read(5)],
    # Overlapping multi-location extents over 10..15.
    [Instr.malloc(10, size=4), Instr.read(11), Instr.free(12, size=4),
     Instr.read(13), Instr.assign(14, 11, 12), Instr.malloc(14, size=2),
     Instr.read(15), Instr.read(12)],
    # A change as the block's first and last event.
    [Instr.free(1), Instr.read(1), Instr.read(2), Instr.assign(2, 1),
     Instr.malloc(1)],
    # The same location changed on both sides of a segment edge.
    [Instr.read(7), Instr.malloc(7)],
    [Instr.free(7), Instr.read(7), Instr.malloc(7, size=3)],
]


def _hand_items(tweak):
    blocks = [_block(tid, instrs) for tid, instrs in enumerate(_HAND_ROW)]
    return _views(blocks, frozenset({1, 2, 5, 11, 12, 13}), tweak)


@pytest.mark.parametrize("use_filter", [True, False])
@pytest.mark.parametrize("tweak", [
    lambda tid: [],
    # Each thread's head freed or allocated what the thread changes.
    lambda tid: [3, 5, 7, 12, 14][: tid + 1],
])
def test_hand_built_change_row(use_filter, tweak):
    items = _hand_items(tweak)
    scans = assert_three_kernels_agree(items, use_filter)
    kinds = {kind for scan in scans for kind, _, _, _ in scan.errors}
    assert kinds == {
        ErrorKind.MALLOC_ALLOCATED,
        ErrorKind.FREE_UNALLOCATED,
        ErrorKind.ACCESS_UNALLOCATED,
    }
    # One group: the last two blocks meet at a change of 7.
    assert sum(len(b) for b, _ in items) <= 4096
    # Segments alone: the same rows scanned one block at a time.
    for item in items:
        assert_three_kernels_agree([item], use_filter)


def _change_heavy_block(rng):
    """A dozen or so events over locations 0..11: changes of one to
    three locations (sometimes a free-then-malloc realloc), accesses in
    between, and maybe a change first or last."""
    instrs = []
    for _ in range(rng.randint(4, 16)):
        loc = rng.randrange(12)
        roll = rng.random()
        if roll < 0.45:
            op = rng.choice((Instr.malloc, Instr.free))
            instrs.append(op(loc, size=rng.choice((1, 1, 2, 3))))
        elif roll < 0.55:
            size = rng.choice((1, 2))
            instrs += [Instr.free(loc, size=size),
                       Instr.malloc(loc, size=size)]
        elif roll < 0.75:
            instrs.append(Instr.read(loc))
        elif roll < 0.9:
            instrs.append(Instr.write(loc))
        else:
            instrs.append(Instr.assign(loc, rng.randrange(12),
                                       rng.randrange(12)))
    if rng.random() < 0.3:
        instrs.insert(0, Instr.free(rng.randrange(12)))
    if rng.random() < 0.3:
        instrs.append(Instr.malloc(rng.randrange(12)))
    return instrs


def _change_heavy_rows(count):
    rng = random.Random(20)
    for _ in range(count):
        threads = rng.randint(1, 5)
        blocks = [
            _block(tid, _change_heavy_block(rng))
            for tid in range(threads)
        ]
        base = frozenset(rng.sample(range(12), 6))
        flips = {tid: rng.sample(range(12), rng.randint(0, 3))
                 for tid in range(threads)}
        yield _views(blocks, base, flips.__getitem__)


@pytest.mark.parametrize("use_filter", [True, False])
def test_change_heavy_family(use_filter):
    kinds = set()
    edges = 0
    for items in _change_heavy_rows(300):
        scans = assert_three_kernels_agree(items, use_filter)
        kinds |= {kind for scan in scans for kind, _, _, _ in scan.errors}
        for (left, _), (right, _) in zip(items, items[1:]):
            last, first = left.instrs[-1], right.instrs[0]
            edges += bool(
                last.extent and first.extent
                and set(last.extent) & set(first.extent)
            )
    assert kinds == {
        ErrorKind.MALLOC_ALLOCATED,
        ErrorKind.FREE_UNALLOCATED,
        ErrorKind.ACCESS_UNALLOCATED,
    }
    assert edges > 0  # a location changed on both sides of an edge


def test_a_changed_pair_asks_its_view_once():
    """The scan reads a changed pair's state through its view before
    the pair's first change and never after: one membership question
    per changed ``(segment, location)``, however many changes follow."""
    asked = []

    class CountingView(SOSView):
        def __contains__(self, loc):
            asked.append(loc)
            return super().__contains__(loc)

    block = _block(0, [Instr.malloc(4), Instr.free(4), Instr.malloc(4),
                       Instr.read(4), Instr.free(4), Instr.read(9)])
    view = CountingView(frozenset({9}))
    AddrScanner(True).scan_row([(block, view)])
    assert asked == [4]
