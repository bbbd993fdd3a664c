"""Regression guard for the vectorized AddrCheck first-pass scan.

The columnar kernel's reason to exist is raw throughput: on a
million-event trace the vectorized first pass must stay >= 5x faster
than the per-``Instr`` scalar path (the issue's acceptance floor; the
measured gap on an idle host is ~10x end to end).  This test pins that
floor so an accidental de-vectorization (a stray per-event Python loop,
a dtype regression forcing object arrays) fails loudly instead of
silently eating the speedup.

Skips without numpy (there is no vector kernel to guard) and under
``REPRO_CI=1`` (wall-clock ratios flake on shared runners).
"""

import time

import pytest

np = pytest.importorskip("numpy")

from repro.core.columnar import HAVE_NUMPY  # noqa: E402
from repro.core.state import SOSView  # noqa: E402
from repro.lifeguards.addrcheck import AddrScanner  # noqa: E402
from repro.trace.generator import ColumnarAllocSource  # noqa: E402

if not HAVE_NUMPY:  # REPRO_NO_NUMPY forces the fallback even with numpy
    pytest.skip("columnar vector kernel disabled", allow_module_level=True)

#: 1M events across 10 blocks -- large enough that per-event dispatch
#: dominates the scalar path, small enough to keep the guard quick.
_EVENTS = 1_000_000
_BLOCKS = 10


def _blocks():
    source = ColumnarAllocSource(
        seed=17,
        num_threads=1,
        num_epochs=_BLOCKS,
        events_per_block=_EVENTS // _BLOCKS,
        num_locations=1024,
        change_period=512,
    )
    return [row[0] for row in source.epochs()], source.preallocated


def _scan_all(scanner, blocks, preallocated):
    checks = 0
    for block in blocks:
        scan = scanner(block, SOSView(preallocated))
        checks += scan.checks
    return checks


def _timed(scanner, blocks, preallocated):
    t0 = time.perf_counter()
    checks = _scan_all(scanner, blocks, preallocated)
    return time.perf_counter() - t0, checks


def test_vectorized_scan_at_least_5x_over_object_path(timing_guard):
    blocks, preallocated = _blocks()
    for block in blocks:
        block.instrs  # materialize up front: time kernels, not conversion

    vec = AddrScanner(True, columnar=True)
    obj = AddrScanner(True, columnar=False)

    # Warm both paths (imports, allocator, branch caches).
    _scan_all(vec, blocks[:1], preallocated)
    _scan_all(obj, blocks[:1], preallocated)

    # Interleaved best-of-5: the per-path minimum is the least
    # noise-contaminated estimate of a deterministic kernel's cost, and
    # alternating the paths keeps a scheduler burst from landing on all
    # of one side's repeats.
    vec_s = obj_s = float("inf")
    vec_checks = obj_checks = None
    for _ in range(5):
        t, vec_checks = _timed(vec, blocks, preallocated)
        vec_s = min(vec_s, t)
        t, obj_checks = _timed(obj, blocks, preallocated)
        obj_s = min(obj_s, t)

    assert vec_checks == obj_checks  # same work, bit-identical kernels
    speedup = obj_s / vec_s
    assert speedup >= 5.0, (
        f"vectorized scan only {speedup:.2f}x over per-event path "
        f"(vec {vec_s:.3f}s, obj {obj_s:.3f}s) -- floor is 5x"
    )
