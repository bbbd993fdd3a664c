"""Regression guard for the vectorized TaintCheck first-pass scan.

On a READ-heavy trace (the realistic shape: most events never move
taint) the columnar TaintCheck scanner must stay >= 3x faster than the
per-``Instr`` object path -- the PR acceptance floor; the measured gap
on an idle host is far larger because the LUT pass skips the READ
majority entirely.  This pins the floor so an accidental
de-vectorization fails loudly instead of silently eating the speedup.

Skips under ``REPRO_CI=1`` (wall-clock ratios flake on shared
runners).
"""

import time

from repro.lifeguards.taintcheck import TaintScanner
from repro.trace.generator import ColumnarTaintSource
from repro.verify.reference import ReferenceTaintScanner

#: 1M events across 10 blocks -- large enough that per-event dispatch
#: dominates the object path, small enough to keep the guard quick.
_EVENTS = 1_000_000
_BLOCKS = 10


def _blocks():
    source = ColumnarTaintSource(
        seed=17,
        num_threads=1,
        num_epochs=_BLOCKS,
        events_per_block=_EVENTS // _BLOCKS,
        num_locations=1024,
        taint_period=512,
    )
    return [row[0] for row in source.epochs()]


def _scan_all(scanner, blocks):
    work = 0
    for block in blocks:
        summary = scanner(block, None)
        work += summary.jump_off.shape[0] + sum(
            hi - lo for lo, hi in summary.written.values()
        )
    return work


def _timed(scanner, blocks):
    t0 = time.perf_counter()
    work = _scan_all(scanner, blocks)
    return time.perf_counter() - t0, work


def test_vectorized_taint_scan_at_least_3x_over_object_path(timing_guard):
    blocks = _blocks()
    for block in blocks:
        block.instrs  # materialize up front: time kernels, not conversion

    vec = TaintScanner()
    obj = ReferenceTaintScanner()

    # Warm both paths (imports, allocator, branch caches).
    _scan_all(vec, blocks[:1])
    _scan_all(obj, blocks[:1])

    # Interleaved best-of-5: the per-path minimum is the least
    # noise-contaminated estimate of a deterministic kernel's cost, and
    # alternating the paths keeps a scheduler burst from landing on all
    # of one side's repeats.
    vec_s = obj_s = float("inf")
    vec_work = obj_work = None
    for _ in range(5):
        t, vec_work = _timed(vec, blocks)
        vec_s = min(vec_s, t)
        t, obj_work = _timed(obj, blocks)
        obj_s = min(obj_s, t)

    assert vec_work == obj_work  # same rules/jumps, bit-identical kernels
    assert vec_work > 0  # the trace actually contains taint traffic
    speedup = obj_s / vec_s
    assert speedup >= 3.0, (
        f"vectorized taint scan only {speedup:.2f}x over per-event path "
        f"(vec {vec_s:.3f}s, obj {obj_s:.3f}s) -- floor is 3x"
    )
