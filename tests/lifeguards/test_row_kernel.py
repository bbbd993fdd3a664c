"""``AddrScanner.scan_row`` against the per-block kernel it replaced.

A row scan must hand back, for every block, *exactly* the
:class:`AddrScan` the per-block first pass produced -- all twelve
fields, error order included -- and leave each view's overlay as that
scan left it.  The reference is the parent commit's kernel, kept
test-local in :mod:`tests.lifeguards.per_block_scan`; without numpy it
is the object kernel, which is what ``scan_row`` must degrade to, so
this module runs in both environments.

Rows come from real runs (the LSOS views the engine computed, one
differing overlay per thread) and are each checked a second time over
a shared base that is wrong at every third location the row names,
with every thread's overlay putting it right.
"""

import dataclasses

import pytest

from repro.core.columnar import HAVE_NUMPY, ColumnarBlock
from repro.core.epoch import Block, partition_auto
from repro.core.framework import ButterflyEngine
from repro.core.state import SOSView
from repro.lifeguards import addrcheck
from repro.lifeguards.addrcheck import AddrScanner, ButterflyAddrCheck
from repro.trace.events import Instr
from repro.trace.generator import ColumnarAllocSource
from repro.trace.serialize import iter_load, save_stream_file
from repro.workloads.registry import get_benchmark

from tests.lifeguards.per_block_scan import per_block_scan

FIELDS = [f.name for f in dataclasses.fields(addrcheck.AddrScan)]
CAP = addrcheck._GROUP_EVENTS


def _copy(view):
    out = SOSView(view.base)
    out.added = set(view.added)
    out.removed = set(view.removed)
    return out


def _named(block):
    if not block.has_columns:  # and stays that way
        return {
            loc for i in block.instrs for loc in (*i.accessed, *i.extent)
        }
    cols = block.columns
    locs = set(cols.src_val.tolist())
    for dst, size in zip(cols.dst.tolist(), cols.size.tolist()):
        if dst >= 0:
            locs.update(range(dst, dst + size))
    return locs


def _rebased(items):
    """The same row over one shared base that is wrong at every third
    location the row names (and at every location an overlay names),
    each thread's overlay correcting what is wrong for that thread."""
    named = set()
    for block, view in items:
        named |= {loc for loc in _named(block) if loc % 3 == 0}
        named |= view.added | view.removed
    base = frozenset(set(items[0][1].base) ^ named)
    out = []
    for block, view in items:
        fixed = SOSView(base)
        for loc in named:
            if loc in view:
                fixed.add(loc)
            else:
                fixed.discard(loc)
        out.append((block, fixed))
    return out


def assert_row_matches_per_block(items, use_filter, columnar=None):
    assert len({id(view.base) for _, view in items}) == 1
    for variant in (items, _rebased(items)):
        got_items = [(b, _copy(v)) for b, v in variant]
        want_items = [(b, _copy(v)) for b, v in variant]
        got = AddrScanner(use_filter, columnar).scan_row(got_items)
        want = [per_block_scan(b, v, use_filter) for b, v in want_items]
        assert len(got) == len(want) == len(items)
        for tid, (g, w) in enumerate(zip(got, want)):
            for name in FIELDS:
                assert getattr(g, name) == getattr(w, name), (tid, name)
            assert all(type(x) is int for x in set(g.first_access) | g.gen)
        for (_, g), (_, w) in zip(got_items, want_items):
            assert (g.added, g.removed) == (w.added, w.removed)
            assert g.base is w.base


class _RecordingScanner(AddrScanner):
    """Keeps a copy of every row it is handed, then scans it."""

    rows = None  # set per run; a frozen dataclass takes no new fields

    def scan_row(self, items):
        type(self).rows.append([(b, _copy(v)) for b, v in items])
        return super().scan_row(items)


def _rows_of_a_run(source, use_filter):
    """Every ``scan_row`` argument of a serial run over ``source``: the
    real LSOS views, head edits in their per-thread overlays."""

    class Scanner(_RecordingScanner):
        rows = []

    class Guard(ButterflyAddrCheck):
        def make_scanner(self):
            return Scanner(self.use_idempotent_filter, None)

    guard = Guard(
        initially_allocated=source.preallocated,
        use_idempotent_filter=use_filter,
    )
    ButterflyEngine(guard).run_source(source)
    return Scanner.rows, guard


@pytest.mark.parametrize("use_filter", [True, False])
class TestRowsOfRealRuns:
    @pytest.mark.parametrize("h", [64, 1024])
    def test_ocean_stream_file_rows(self, tmp_path, h, use_filter):
        program = get_benchmark("OCEAN").generate(4, 3000, seed=3)
        path = str(tmp_path / "ocean.jsonl")
        save_stream_file(partition_auto(program, h), path)
        rows, _ = _rows_of_a_run(iter_load(path), use_filter)
        assert len(rows) > 2 and all(len(row) == 4 for row in rows)
        assert any(v.added or v.removed for row in rows for _, v in row)
        for row in rows:
            assert all(b.has_columns for b, _ in row)
            assert_row_matches_per_block(row, use_filter)

    @pytest.mark.parametrize("threads,h", [(4, 128), (4, 512), (8, 256)])
    def test_error_injected_alloc_rows(self, threads, h, use_filter):
        source = ColumnarAllocSource(
            5, num_threads=threads, num_epochs=6, events_per_block=h,
            # Three change events a block: every other block ends with
            # its scratch location allocated, so heads leave overlays.
            error_rate=0.02, change_period=h // 3,
        )
        rows, guard = _rows_of_a_run(source, use_filter)
        assert len(rows) == 6 and len(guard.errors) > 0
        assert any(  # per-thread overlays that differ
            len({frozenset(v.added) for _, v in row}) == threads
            for row in rows
        )
        for row in rows:
            assert_row_matches_per_block(row, use_filter)


def _block(tid, instrs=None, rows=None, lid=2):
    if rows is not None:
        return Block(lid, tid, 0, columns=ColumnarBlock.from_rows(rows))
    return Block(lid, tid, 0, columns=ColumnarBlock.from_instrs(instrs))


def _views(blocks, base, tweak=lambda tid: ()):
    """One view per block over ``base``; ``tweak(tid)`` lists locations
    whose membership thread ``tid``'s overlay flips."""
    items = []
    for tid, block in enumerate(blocks):
        view = SOSView(base)
        for loc in tweak(tid):
            if loc in view:
                view.discard(loc)
            else:
                view.add(loc)
        items.append((block, view))
    return items


def _busy(tid, n=40, stride=1):
    """Accesses over a shared pool, a private malloc/free pair, a
    double free and reads of a location only some threads hold."""
    out = [Instr.malloc(1000 + tid, size=2)]
    for i in range(n):
        loc = (i * 7 + tid) % 23 * stride
        out.append(Instr.write(loc) if i % 3 else Instr.read(loc))
        if i % 11 == 5:
            out.append(Instr.read(1000 + tid))
            out.append(Instr.assign(loc, 500 * stride, 1001 + tid))
    out += [Instr.free(1000 + tid), Instr.read(1000 + tid),
            Instr.free(1000 + tid), Instr.read(500 * stride)]
    return out


@pytest.mark.parametrize("use_filter", [True, False])
class TestHandBuiltRows:
    BASE = frozenset(range(0, 23)) | {500}

    def _tweak(self, tid):
        # Thread tid sees location tid freed by its head, 500 only on
        # even threads, and its scratch location already allocated on
        # thread 1 (a malloc-of-allocated error there alone).
        return [tid] + ([500] if tid % 2 else []) + (
            [1001] if tid == 1 else []
        )

    def test_row_with_an_empty_block(self, use_filter):
        blocks = [_block(0, _busy(0)), _block(1, []), _block(2, _busy(2)),
                  _block(3, [Instr.nop()])]
        assert_row_matches_per_block(
            _views(blocks, self.BASE, self._tweak), use_filter
        )
        empty = [_block(0, []), _block(1, [])]
        assert_row_matches_per_block(_views(empty, self.BASE), use_filter)

    def test_row_mixing_object_and_columnar_blocks(self, use_filter):
        blocks = [
            _block(0, _busy(0)),
            Block(2, 1, 0, tuple(_busy(1))),
            _block(2, _busy(2)),
            _block(3, _busy(3)),
        ]
        assert not blocks[1].has_columns
        assert_row_matches_per_block(
            _views(blocks, self.BASE, self._tweak), use_filter
        )
        assert not blocks[1].has_columns  # never converted to vectorize
        # Forced kernels take every block, whatever backs it.
        for columnar in (True, False):
            if columnar and not HAVE_NUMPY:
                continue
            items = _views(blocks, self.BASE, self._tweak)
            got = AddrScanner(use_filter, columnar).scan_row(
                [(b, _copy(v)) for b, v in items]
            )
            want = [
                AddrScanner(use_filter, columnar=False)(b, _copy(v))
                for b, v in items
            ]
            assert got == want

    def test_oversized_block_splits_the_row(self, use_filter, monkeypatch):
        """Groups 1 | 1 | 2: the second block alone exceeds the cap."""
        small = ColumnarAllocSource(
            9, num_threads=4, num_epochs=3, events_per_block=96,
            error_rate=0.05, change_period=16,
        )
        big = ColumnarAllocSource(
            9, num_threads=4, num_epochs=3, events_per_block=CAP + 1,
            error_rate=0.01,
        )
        small_row, big_row = list(small.epochs())[2], list(big.epochs())[2]
        blocks = [
            Block(2, tid, 0, columns=row[tid].columns)
            for tid, row in enumerate(
                [small_row, big_row, small_row, small_row]
            )
        ]
        items = _views(blocks, frozenset(small.preallocated), self._tweak)
        if HAVE_NUMPY:
            groups = []
            kernel = AddrScanner._scan_columns

            def spy(self, group):
                groups.append(len(group))
                return kernel(self, group)

            monkeypatch.setattr(AddrScanner, "_scan_columns", spy)
        assert_row_matches_per_block(items, use_filter)
        if HAVE_NUMPY:
            assert groups == [1, 1, 2] * 2

    def test_views_over_different_bases_do_not_share_a_probe(
        self, use_filter
    ):
        blocks = [_block(tid, _busy(tid)) for tid in range(3)]
        items = [
            (block, SOSView(frozenset(self.BASE - {tid, tid + 5})))
            for tid, block in enumerate(blocks)
        ]
        got = AddrScanner(use_filter).scan_row(
            [(b, _copy(v)) for b, v in items]
        )
        want = [per_block_scan(b, _copy(v), use_filter) for b, v in items]
        assert got == want

    def test_sparse_location_domain(self, use_filter, monkeypatch):
        """Locations a million apart: first occurrences come from
        ``np.unique``'s sort, not the dense scatter."""
        blocks = [_block(tid, _busy(tid, stride=10**6)) for tid in range(4)]
        base = frozenset(loc * 10**6 for loc in self.BASE)
        tweak = lambda tid: [loc * 10**6 for loc in self._tweak(tid)]  # noqa: E731
        calls = self._count_unique(monkeypatch)
        assert_row_matches_per_block(_views(blocks, base, tweak), use_filter)
        assert bool(calls) == HAVE_NUMPY

    def test_dense_test_is_taken_on_the_widened_key_space(
        self, use_filter, monkeypatch
    ):
        """Each block alone is dense (span 30 000 <= 65 536); four of
        them keyed by ``(segment, location)`` are not."""
        blocks = [_block(tid, _busy(tid, stride=60)) for tid in range(4)]
        base = frozenset(loc * 60 for loc in self.BASE)
        tweak = lambda tid: [loc * 60 for loc in self._tweak(tid)]  # noqa: E731
        items = _views(blocks, base, tweak)
        calls = self._count_unique(monkeypatch)
        if HAVE_NUMPY:
            scanner = AddrScanner(use_filter)
            scanner.scan_row([(b, _copy(v)) for b, v in items[:1]])
            assert not calls
            scanner.scan_row([(b, _copy(v)) for b, v in items])
            assert len(calls) == 1
        assert_row_matches_per_block(items, use_filter)

    @staticmethod
    def _count_unique(monkeypatch):
        calls = []
        if HAVE_NUMPY:
            unique = addrcheck.np.unique

            def spy(*args, **kwargs):
                calls.append(1)
                return unique(*args, **kwargs)

            monkeypatch.setattr(addrcheck.np, "unique", spy)
        return calls

    def test_non_access_events_carrying_sources(self, use_filter):
        """TAINT/NOP/MALLOC rows with sources: they are not
        dereferences, so the kernel filters them out of the flattened
        source stream (its ``kept_ev`` branch)."""
        def rows(tid):
            return [
                ["malloc", 1000 + tid, [3, 4], 2],
                ["read", None, [tid], 1],
                ["taint", 7, [1, 2, 3], 1],
                ["write", 5 + tid, [9], 1],
                ["nop", None, [500, 501], 1],
                ["assign", 2, [1000 + tid, 21], 1],
                ["untaint", 7, [8], 1],
                ["free", 1000 + tid, [6], 1],
                ["jump", None, [1000 + tid], 1],
            ]

        blocks = [_block(tid, rows=rows(tid)) for tid in range(4)]
        assert_row_matches_per_block(
            _views(blocks, self.BASE, self._tweak), use_filter
        )


class TestGuardWithoutAStagedRow:
    """``guard.first_pass(block)`` from a direct caller is a row of
    one, staged rows are consumed in order, and nothing staged is left
    behind."""

    def _row(self):
        source = ColumnarAllocSource(
            1, num_threads=3, num_epochs=1, events_per_block=64,
            error_rate=0.05, change_period=8,
        )
        return source, next(iter(source.epochs()))

    def _summaries(self, guard, row):
        return [
            (s.facts.all_gen, s.num_accessed, dict(s.first_access))
            for s in map(guard.first_pass, row)
        ]

    def test_unstaged_calls_equal_a_staged_row(self):
        source, row = self._row()
        direct = ButterflyAddrCheck(source.preallocated)
        staged = ButterflyAddrCheck(source.preallocated)
        staged.stage_row(row)
        assert self._summaries(direct, row) == self._summaries(staged, row)
        assert [
            (r.kind, r.location, r.ref) for r in direct.errors.reports
        ] == [(r.kind, r.location, r.ref) for r in staged.errors.reports]
        assert not staged._staged_row and not staged._staged_scans
        assert not direct._staged_row and not direct._staged_scans

    def test_a_block_outside_the_staged_row_drops_the_row(self):
        source, row = self._row()
        reference = ButterflyAddrCheck(source.preallocated)
        guard = ButterflyAddrCheck(source.preallocated)
        guard.stage_row(row)
        # Out of order: block 1 first.  Every call is then a row of one.
        order = [row[1], row[0], row[2]]
        assert self._summaries(guard, order) == self._summaries(
            reference, order
        )
        assert not guard._staged_row and not guard._staged_scans
