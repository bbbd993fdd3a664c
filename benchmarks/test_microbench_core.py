"""Microbenchmarks for the analysis core (pytest-benchmark proper).

These measure throughput of the hot paths: block summarization, the
two-pass engine, butterfly AddrCheck's first pass, and TaintCheck's
check resolution.  Useful for tracking regressions; absolute numbers
are host-dependent.
"""

import ast
import gc
import pathlib
import random
import sys
import time

import pytest

import repro
from repro.core.dataflow import DefinitionDomain, summarize_block
from repro.core.epoch import partition_fixed, partition_from_boundaries
from repro.core.framework import ButterflyEngine
from repro.core.reaching_defs import ReachingDefinitions
from repro.core.state import SOSHistory, SOSView
from repro.lifeguards import addrcheck
from repro.lifeguards.addrcheck import AddrScanner, ButterflyAddrCheck
from repro.lifeguards import taintcheck
from repro.lifeguards.racecheck import RaceScanner
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.trace.events import Instr
from repro.trace.generator import (
    ColumnarAllocSource,
    ColumnarTaintSource,
    simulated_alloc_program,
    simulated_taint_program,
)
from repro.trace.program import TraceProgram
from repro.verify.reference import ReferenceAddrCheck, ReferenceRaceScanner
from repro.workloads.registry import get_benchmark

from tests.lifeguards import flatten_reference

from .conftest import timing_asserts_enabled


@pytest.fixture(scope="module")
def alloc_program():
    return simulated_alloc_program(
        random.Random(7), num_threads=4, total_events=8000,
        num_locations=256,
    )


@pytest.fixture(scope="module")
def taint_program():
    return simulated_taint_program(
        random.Random(7), num_threads=4, total_events=2000,
        num_locations=64,
    )


def test_summarize_block_throughput(benchmark):
    prog = TraceProgram.from_lists(
        [Instr.write(i % 64) for i in range(4096)]
    )
    block = partition_fixed(prog, 4096).block(0, 0)
    domain = DefinitionDomain()
    facts = benchmark(summarize_block, block, domain)
    assert len(facts.gen) == 64


def test_addrcheck_end_to_end_throughput(benchmark, alloc_program):
    def run():
        guard = ButterflyAddrCheck()
        ButterflyEngine(guard).run(partition_fixed(alloc_program, 512))
        return guard

    guard = benchmark(run)
    assert sum(w["events"] for w in guard.block_work.values()) == 8000


def test_reaching_definitions_throughput(benchmark, alloc_program):
    """The check-free analysis, which no command runs: the per-instruction
    scalar walk.  Mean 37.7 ms under the interned-bitset mask kernel this
    replaced, ~284 ms without it (7.5x; a quieter run of the same 2-vCPU
    host: 23.0 -> 189 ms).  The kernel went because no command, script,
    example or e2e workload could select it (``LifeguardSpec.build()``
    always gives the analysis a check)."""

    def run():
        analysis = ReachingDefinitions(keep_history=False)
        ButterflyEngine(analysis).run(partition_fixed(alloc_program, 512))
        return analysis

    analysis = benchmark(run)
    assert analysis.sos.frontier >= 2


def test_taintcheck_resolution_throughput(benchmark, taint_program):
    def run():
        guard = ButterflyTaintCheck()
        ButterflyEngine(guard).run(partition_fixed(taint_program, 128))
        return guard

    guard = benchmark(run)
    assert guard.sos.frontier >= 2


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_optimized_addrcheck_beats_reference(timing_guard, alloc_program):
    """The scanner fast path must outrun the per-instruction reference
    implementation (timing-sensitive: skipped in CI)."""
    partition = partition_fixed(alloc_program, 512)

    def run(guard_class):
        ButterflyEngine(guard_class()).run(partition)

    reference = _best_of(lambda: run(ReferenceAddrCheck))
    optimized = _best_of(lambda: run(ButterflyAddrCheck))
    assert optimized < reference, (optimized, reference)


def test_columnar_race_scan_beats_the_reference(timing_guard):
    """RaceCheck's columnar scan of one 4 096-event LU block against the
    per-``Instr`` reference scan of the same block (its ``Instr``
    objects already built, as a partition hands them over), alternating
    best-of-7.  Measured ~10x (2-vCPU Xeon, numpy 2.4); the bound is
    that the columnar scan wins."""
    program = get_benchmark("LU").generate(1, 16384, seed=0)
    block = partition_fixed(program, 4096).block(0, 0)
    assert len(block) == 4096
    block.instrs  # built outside the timed region

    def best_us(scanner):
        t0 = time.perf_counter()
        for _ in range(5):
            scanner(block, None)
        return 1e6 * (time.perf_counter() - t0) / 5

    new = old = float("inf")
    for _ in range(7):
        new = min(new, best_us(RaceScanner()))
        old = min(old, best_us(ReferenceRaceScanner()))
    assert new < old, (new, old)


class _HooksTimed(ButterflyAddrCheck):
    """Accumulates the wall time of the guard's first-pass hook (LSOS
    construction + scan + commit) and of its epoch-update hook (epoch
    GEN/KILL + SOS publish), as ``benchmarks/e2e`` attributes them."""

    first_pass_s = 0.0
    epoch_update_s = 0.0

    def first_pass(self, block):
        t0 = time.perf_counter()
        try:
            return super().first_pass(block)
        finally:
            self.first_pass_s += time.perf_counter() - t0

    def epoch_update(self, lid, summaries):
        t0 = time.perf_counter()
        try:
            return super().epoch_update(lid, summaries)
        finally:
            self.epoch_update_s += time.perf_counter() - t0


def _heap_scaling_runs():
    """``run(heap, columnar)`` over the same 20 blocks -- five epochs of
    four ~2 000-event blocks -- against a live heap of ``heap``
    locations beside the program's own 256, untouched."""
    program = simulated_alloc_program(
        random.Random(7), num_threads=4, total_events=40_000,
        num_locations=256,
    )
    longest = max(len(thread) for thread in program.threads)
    partition = partition_fixed(program, -(-longest // 5))
    # Cut once, outside every timed region (the partition caches them).
    blocks = [
        partition.block(lid, tid)
        for lid in range(partition.num_epochs)
        for tid in range(partition.num_threads)
    ]
    assert len(blocks) == 20

    def run(heap, columnar=None):
        guard = _HooksTimed(
            initially_allocated=range(1_000_000, 1_000_000 + heap),
            use_columnar_kernel=columnar,
        )
        ButterflyEngine(guard).run(partition)
        return guard

    return run


def _best_alternating(seconds_at, repeats=7):
    """Best-of-``repeats`` ``seconds_at(heap)`` at the 1k and the 64k
    heap, the two sides taking turns so that a slow stretch of the host
    lands on both."""
    small = large = float("inf")
    for _ in range(repeats):
        small = min(small, seconds_at(1_000))
        large = min(large, seconds_at(64_000))
    return small, large


def test_first_pass_cost_does_not_scale_with_the_heap():
    """Per-block state cost is O(block), not O(|SOS|): the same 20
    blocks against a 1k-location and a 64k-location live heap.  The
    LSOS is a view of the shared SOS with the head's changes in an
    overlay, so nothing on this path copies or visits the heap; what
    remains is that a probe into a 64k-entry hash table misses cache
    more often than one into a 1k-entry table, hence 1.3 and not 1.0.
    One ``set(sos)`` copy per block measured 1.8-1.9 here; one Python
    visit per SOS element per block 4.5 (object kernel) and 5.7
    (columnar).  The reports of the two kernels and of the two heaps
    must agree always; the wall-clock ratio is only asserted where
    clocks can be trusted (not under ``REPRO_CI``)."""
    run = _heap_scaling_runs()
    reports = {
        (heap, columnar): list(run(heap, columnar).errors)
        for heap in (1_000, 64_000)
        for columnar in (False, True)
    }
    assert len(reports[1_000, False]) > 0
    assert all(r == reports[1_000, False] for r in reports.values())

    if not timing_asserts_enabled():
        return
    for columnar in (False, True):
        small, large = _best_alternating(
            lambda heap: run(heap, columnar).first_pass_s
        )
        assert large <= 1.3 * small, (columnar, small, large)


def test_first_pass_cost_does_not_scale_with_the_thread_count(timing_guard):
    """The same 2 048 events per epoch as 8 x 256-event blocks and as
    2 x 1 024-event blocks: first-pass wall per epoch (contexts, scans
    and commits, as ``benchmarks/e2e`` attributes it), alternating
    best-of-7.  The columnar kernel's ~75 numpy calls cost the same
    whatever the array length, so one scan per *block* made the narrow
    row 2.6-3.4x the wide one at the parent commit (1 030-1 210 vs
    330-470 us here; 951 vs 366 where the issue was sized).
    ``scan_row`` scans a row's small blocks as segments of one stream:
    measured 1.57-1.72 (335-500 vs 206-290 us), ~30 us a block of it
    building each block's ``access`` set and ``first_access`` dict.
    Since the summaries keep slices of the kernel's sorted arrays
    instead: 1.47-1.53 (316-327 vs 211-217 us, 2-vCPU Xeon, numpy
    2.4; 1.65-1.67 at the commit before, same host and hour).  What
    still scales with the thread count is each block's LSOS view, its
    per-segment replay and result sets, its commit and its summary:
    ~17 us a block -- hence 1.75, not 1.5, which the change would have
    had to reach 1.35 to take."""
    epochs = 40

    def first_pass_us(threads, events):
        source = ColumnarAllocSource(
            7, num_threads=threads, num_epochs=epochs,
            events_per_block=events, error_rate=1e-3,
        )
        rows = list(source.epochs())

        def once():
            guard = _HooksTimed(initially_allocated=source.preallocated)
            engine = ButterflyEngine(guard)
            engine.attach_source(source)
            for lid, row in enumerate(rows):
                engine.feed_blocks(lid, row)
            engine.finish()
            assert len(guard.errors) > 0
            return 1e6 * guard.first_pass_s / epochs

        return once

    narrow_once, wide_once = first_pass_us(8, 256), first_pass_us(2, 1024)
    narrow = wide = float("inf")
    for _ in range(7):
        narrow = min(narrow, narrow_once())
        wide = min(wide, wide_once())
    assert narrow <= 1.75 * wide, (narrow, wide)


def test_taint_first_pass_cost_does_not_scale_with_the_thread_count(
    monkeypatch,
):
    """The same 128 events a row as four 32-event blocks and as one
    128-event block (``ColumnarTaintSource``, a taint-moving event every
    16): ``TaintScanner.scan_row`` wall per row, alternating best-of-9.
    The parent commit scanned block by block -- ~10 numpy calls each
    plus a Python loop over the taint-moving events -- so the narrow
    row cost 4.1-4.9x the wide one (67-81 vs 16.4-16.5 us on a 2-vCPU
    Xeon).  Now a row's small blocks are one group
    (``framework.row_groups``) and one pass of the vectorized kernel:
    1.8-2.3x (63-72 vs 31-32 us).  What still scales with the thread
    count is the segment bookkeeping of a multi-block group (the joined
    columns, the (segment, location) sort, the cuts) and one summary
    per block -- ~35 us over a ~30 us group, hence 2.75 and not the
    1.5 a kernel pass alone would give.  The count half always runs:
    a row of small blocks is one kernel pass."""
    rows = {
        shape: [
            [(block, None) for block in row]
            for row in ColumnarTaintSource(
                7, num_threads=shape[0], num_epochs=60,
                events_per_block=shape[1], taint_period=16,
                error_rate=1e-2,
            ).epochs()
        ]
        for shape in ((4, 32), (1, 128))
    }
    scanner = taintcheck.TaintScanner()
    kernel, passes = taintcheck._scan_group, []

    def counted(blocks):
        passes.append(len(blocks))
        return kernel(blocks)

    with monkeypatch.context() as patch:
        patch.setattr(taintcheck, "_scan_group", counted)
        for row in rows[4, 32]:
            assert len(scanner.scan_row(row)) == 4
    assert passes == [4] * len(rows[4, 32])

    if not timing_asserts_enabled():
        return

    def us_per_row(shape):
        t0 = time.perf_counter()
        for row in rows[shape]:
            scanner.scan_row(row)
        return 1e6 * (time.perf_counter() - t0) / len(rows[shape])

    narrow = wide = float("inf")
    for _ in range(9):
        narrow = min(narrow, us_per_row((4, 32)))
        wide = min(wide, us_per_row((1, 128)))
    assert narrow <= 2.75 * wide, (narrow, wide)


def test_first_pass_cost_follows_the_events_not_the_change_events(
    timing_guard,
):
    """The same four 25 000-event blocks' worth of accesses with a
    MALLOC/FREE of each thread's scratch location every 128 events (195
    a block, ``cols_addr``'s shape) and every 8 (3 125, 16x the change
    events): scan wall per block, alternating best-of-7.  The columnar
    kernel used to replay each change event in Python against the live
    view, ~1.2 us apiece: the dense blocks cost 4.7-6.1x the sparse
    ones (4 510-7 780 vs 950-1 270 us, 2-vCPU Xeon, numpy 2.4, four
    runs).  Its segmented scan sorts the expanded change entries once
    and reads them in one pass over plain lists, ~0.3 us apiece:
    1.9-2.2x (2 000-3 450 vs 940-1 550 us, same host and hour).  The
    bound is 3.0."""

    def scan_us(period):
        source = ColumnarAllocSource(
            7, num_threads=4, num_epochs=1, events_per_block=25_000,
            change_period=period, error_rate=1e-3,
        )
        blocks = next(iter(source.epochs()))
        base = source.preallocated
        scanner = AddrScanner(True)

        def once():
            t0 = time.perf_counter()
            for block in blocks:
                scanner.scan_row([(block, SOSView(base))])
            return 1e6 * (time.perf_counter() - t0) / len(blocks)

        return once

    sparse_once, dense_once = scan_us(128), scan_us(8)
    sparse = dense = float("inf")
    for _ in range(7):
        sparse = min(sparse, sparse_once())
        dense = min(dense, dense_once())
    assert dense <= 3.0 * sparse, (sparse, dense)


def _resident_block_growth(num_locations):
    """``sys.getallocatedblocks()`` growth over feeding twelve epochs of
    four 4 096-event blocks (no finish, so the window stays resident),
    and the mean distinct locations a resident summary accessed."""
    source = ColumnarAllocSource(
        7, num_threads=4, num_epochs=12, events_per_block=4096,
        num_locations=num_locations, error_rate=1e-3,
    )
    rows = list(source.epochs())
    guard = ButterflyAddrCheck(initially_allocated=source.preallocated)
    engine = ButterflyEngine(guard)
    engine.attach_source(source)
    gc.collect()
    before = sys.getallocatedblocks()
    for lid, row in enumerate(rows):
        engine.feed_blocks(lid, row)
    gc.collect()
    growth = sys.getallocatedblocks() - before
    resident = guard.summaries.values()
    return growth, sum(s.num_accessed for s in resident) / len(resident)


def test_resident_state_does_not_scale_with_distinct_locations():
    """No wall clock: the same stream shape over a 32- and a 512-location
    pool, so every block accesses 16x the distinct locations, and the
    interpreter's allocated blocks counted after feeding (the engine's
    window, its ~12 resident summaries, the SOS, errors and work rows).
    Summaries that built an ``access`` set and a ``first_access`` dict
    per block grew 483-488 -> 7 391-7 392 blocks, two objects per
    distinct location per summary; keeping slices of the kernel's
    arrays, 446-469 -> 545-559 -- the ~90 more are scratch-location
    keys past the small-int cache, whatever the pool."""
    narrow, narrow_distinct = _resident_block_growth(32)
    wide, wide_distinct = _resident_block_growth(512)
    assert wide_distinct >= 15 * narrow_distinct
    assert wide <= 1.5 * narrow, (narrow, wide)


def test_flatten_stays_off_numpys_slow_paths(timing_guard):
    """The access-stream flatten of one 25 000-event block against the
    parent's (``tests/lifeguards/flatten_reference.py``: uint8-indexed
    tables, ``flatnonzero`` over int64, boolean-mask scatter),
    alternating best-of-15.  Measured 3.2x (~305 vs ~980 us, 2-vCPU
    Xeon, numpy 2.4); the bound is 1.5x."""
    source = ColumnarAllocSource(
        7, num_threads=1, num_epochs=1, events_per_block=25_000,
        error_rate=1e-3,
    )
    cols = next(iter(source.epochs()))[0].columns

    def best_us(flatten):
        t0 = time.perf_counter()
        for _ in range(20):
            flatten(cols)
        return 1e6 * (time.perf_counter() - t0) / 20

    new = old = float("inf")
    for _ in range(15):
        new = min(new, best_us(addrcheck._access_stream))
        old = min(old, best_us(flatten_reference.flatten))
    assert 1.5 * new <= old, (new, old)


def _table_reads_by_subscript(source):
    """Line numbers at which an op-class table -- a ``*_LUT`` name, or
    what a ``*_lut(...)`` factory returns -- is read by subscript rather
    than ``.take``.  Stores (building a table) and constant subscripts
    pass."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and not isinstance(node.slice, ast.Constant)
        ):
            continue
        table = node.value.func if isinstance(node.value, ast.Call) else (
            node.value
        )
        name = getattr(table, "id", None) or getattr(table, "attr", "")
        if name.upper().endswith("_LUT"):
            lines.append(node.lineno)
    return sorted(lines)


def test_op_class_tables_are_read_with_take():
    """No wall clock: indexing a 256-entry table with the uint8 op column
    is numpy's slow path (~2.7x ``TABLE.take(ops)`` at 25 000 events),
    which the timing guards only see on a quiet host.  So no ``*_LUT``
    in ``src/repro`` is subscripted by an array -- and the tables the
    kernels use are there, read with ``take``, so this cannot pass by
    finding nothing."""
    root = pathlib.Path(repro.__file__).parent
    bad, takes = [], 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        bad += [f"{path.relative_to(root)}:{n}"
                for n in _table_reads_by_subscript(text)]
        takes += sum(
            isinstance(node, ast.Attribute) and node.attr == "take"
            and "_LUT" in ast.unparse(node.value).upper()
            for node in ast.walk(ast.parse(text))
        )
    assert bad == []
    # AddrCheck's flatten and TaintCheck.  The dataflow summarizer's
    # row-filter table was a third until its columnar path went: no
    # command reached it, and the object walk has no table.
    assert takes >= 2


def test_the_table_guard_bites():
    seeded = (
        "_ACC_LUT = np.zeros(256, dtype=bool)\n"
        "_ACC_LUT[[OP_READ, OP_WRITE]] = True\n"
        "first = _ACC_LUT[0]\n"
        "ok = _ACC_LUT.take(ops)\n"
        "is_acc = _ACC_LUT[ops]\n"
        "idx = np.flatnonzero(_relevant_lut(codes)[cols.op])\n"
        "rows = taintcheck._TAINT_EVENT_LUT[ops[1:]]\n"
    )
    assert _table_reads_by_subscript(seeded) == [5, 6, 7]


def test_epoch_update_cost_does_not_scale_with_the_heap():
    """The per-epoch twin: ``SOS_{l+2}`` is published by applying
    ``GEN_l``/``KILL_l`` to the one live set in place, so an epoch
    update costs what the epoch changed.  ``SOS_{l+1}.difference(KILL)
    | GEN`` plus a ``frozenset`` of it -- three heap-sized copies per
    epoch -- measured 3.4x here.  The published states must agree
    (shifted by the heap) always; the ratio is asserted only where
    clocks can be trusted."""
    run = _heap_scaling_runs()
    small, large = run(1_000), run(64_000)
    assert small.sos.frontier == large.sos.frontier == 6
    for lid, state in small.sos.published().items():
        assert (
            {loc for loc in state if loc < 1_000_000}
            == {loc for loc in large.sos.get(lid) if loc < 1_000_000}
        )
        assert len(large.sos.get(lid)) - len(state) == 63_000

    if not timing_asserts_enabled():
        return
    small_s, large_s = _best_alternating(lambda heap: run(heap).epoch_update_s)
    assert large_s <= 1.5 * small_s, (small_s, large_s)


class _SecondPassTimed(ButterflyTaintCheck):
    """Accumulates the wall time of the guard's second-pass hook (LSOS
    construction + check resolution + commit), as ``benchmarks/e2e``
    attributes it."""

    second_pass_s = 0.0

    def second_pass(self, butterfly, side_in):
        t0 = time.perf_counter()
        try:
            return super().second_pass(butterfly, side_in)
        finally:
            self.second_pass_s += time.perf_counter() - t0


def test_taint_second_pass_cost_follows_the_checks_not_the_window():
    """A body's second pass costs what its checks reach, not what its
    wings and the SOS hold.  Four threads of ~2 000-event blocks over
    five epochs, their checks confined to 256 locations, measured twice
    over:

    (a) beside a fifth thread whose blocks carry 2 000 vs 32 000 WRITE
        rules to locations nothing reads -- every body's wings hold
        them, no check asks for them.  What legitimately remains is
        that thread's own LASTCHECK loop (measured ratio 1.2-1.9;
        copying the window into each body's graph measured 7.8);
    (b) with 16 vs 64 000 tainted locations in the SOS, again beside
        the program's own.  Nothing remains: the LSOS is a view, the
        wholesale verdicts intersect its three plain sets with the few
        locations asked about, and the walk probes it (measured
        1.00-1.02; one C-level ``set`` copy of it per body measured
        1.65-1.9, one more ``frozenset`` per *check* 5.3).

    Hence the bounds of 3 and 1.5.  The reports must agree always; the
    ratios are only asserted where clocks can be trusted (not under
    ``REPRO_CI``)."""
    program = simulated_taint_program(
        random.Random(7), num_threads=4, total_events=40_000,
        num_locations=256,
    )
    epochs = 5
    real = [list(thread) for thread in program.threads]
    real_cuts = [
        [-(-len(thread) * (e + 1) // epochs) for e in range(epochs)]
        for thread in real
    ]

    def window(unread_rules):
        """The program beside one more thread writing ``unread_rules``
        fresh locations per block."""
        extra = [
            Instr.write(1_000_000 + i) for i in range(epochs * unread_rules)
        ]
        cuts = [(e + 1) * unread_rules for e in range(epochs)]
        return partition_from_boundaries(
            TraceProgram.from_lists(*real, extra), real_cuts + [cuts]
        )

    def run(partition, tainted):
        guard = _SecondPassTimed()
        guard.sos = SOSHistory(range(2_000_000, 2_000_000 + tainted))
        ButterflyEngine(guard).run(partition)
        return guard

    configs = {
        "1x rules": (window(2_000), 16),
        "16x rules": (window(32_000), 16),
        "64k tainted": (window(2_000), 64_000),
    }
    reports = {
        name: list(run(*config).errors) for name, config in configs.items()
    }
    assert len(reports["1x rules"]) > 1_000
    assert all(r == reports["1x rules"] for r in reports.values())

    if not timing_asserts_enabled():
        return
    cost = {
        name: min(run(*config).second_pass_s for _ in range(3))
        for name, config in configs.items()
    }
    assert cost["16x rules"] <= 3 * cost["1x rules"], cost
    assert cost["64k tainted"] <= 1.5 * cost["1x rules"], cost


def test_taint_second_pass_walks_only_where_the_window_writes(monkeypatch):
    """Counts, no wall clock: a check on a location no rule of the
    window writes is answered by the LSOS intersection, so a body whose
    4 096 jump targets nothing writes builds no ``_RuleGraph`` and makes
    no ``tainted_parents`` call -- and with one target a wing does
    write, Algorithm 1 walks exactly that one."""
    built, walked = [], []

    class Counted(taintcheck._RuleGraph):
        def __init__(self, wings, body, guard, fallback=None):
            built.append(body.block_id)
            super().__init__(wings, body, guard, fallback=fallback)

        def tainted_parents(self, parents, offset, base):
            walked.append(parents)
            return super().tainted_parents(parents, offset, base)

    monkeypatch.setattr(taintcheck, "_RuleGraph", Counted)
    jumps = [Instr.jump(100_000 + i) for i in range(4096)]

    def flagged(wing):
        del built[:], walked[:]
        guard = ButterflyTaintCheck()
        program = TraceProgram.from_lists(jumps, wing)
        ButterflyEngine(guard).run(partition_fixed(program, 4096))
        return [e.location for e in guard.errors]

    wing = [Instr.taint(i) for i in range(64)]
    assert flagged(wing) == []
    assert built == [] and walked == []
    assert flagged(wing + [Instr.taint(100_017)]) == [100_017]
    assert set(walked) == {(100_017,)}
    assert built == [(0, 0), (0, 0)]  # the jumping body's two phases


def test_engine_overhead_on_nops(benchmark):
    prog = TraceProgram.from_lists([Instr.nop()] * 20000)

    def run():
        guard = ButterflyAddrCheck()
        return ButterflyEngine(guard).run(partition_fixed(prog, 1000))

    stats = benchmark(run)
    assert stats.first_pass_instructions == 20000
