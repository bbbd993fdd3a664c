"""Bit-identity of the vectorized AddrCheck first-pass kernel.

The columnar kernel must produce *exactly* the scalar kernel's
:class:`AddrScan` -- same summary sets, same error records in the same
order, same counters, same mutation of the running LSOS -- for any
block, or differential modes downstream would drown in kernel noise.
These tests formalize that contract over random, adversarial, and
hand-picked corner-case blocks; the fuzz campaign's ``columnar`` mode
extends the same check end to end.
"""

import pickle
import random

import pytest

from repro.core.columnar import HAVE_NUMPY
from repro.core.epoch import Block
from repro.core.state import SOSView
from repro.lifeguards.addrcheck import AddrScanner, ButterflyAddrCheck
from repro.trace.events import Instr, Op
from repro.trace.generator import adversarial_instrs

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vector kernel requires numpy"
)

_ALL_OPS = (Op.WRITE, Op.READ, Op.MALLOC, Op.FREE, Op.ASSIGN,
            Op.TAINT, Op.UNTAINT, Op.JUMP, Op.NOP)


def _scan_dict(scan):
    return {
        "gen": scan.gen,
        "all_gen": scan.all_gen,
        "killed_vars": scan.killed_vars,
        "last_event": scan.last_event,
        "first_change": scan.first_change,
        "first_access": dict(scan.first_access),
        "num_accessed": scan.num_accessed,
        "errors": scan.errors,
        "events": scan.events,
        "checks": scan.checks,
        "accesses": scan.accesses,
        "allocs": scan.allocs,
    }


def _views_of(running, instrs):
    """``running`` as the LSOS views a scan can be handed: the set
    itself as the base, and a base that is wrong at every third
    location the block names with the overlay putting it right (what a
    head's frees and allocations look like)."""
    yield SOSView(running)
    named = {
        loc
        for i in instrs
        for loc in (*i.accessed, *i.extent)
        if loc % 3 == 0
    }
    view = SOSView(frozenset(running) ^ named)
    for loc in named:
        if loc in running:
            view.add(loc)
        else:
            view.discard(loc)
    assert named <= view.added | view.removed
    yield view


def _assert_kernels_agree(instrs, running, use_filter):
    block = Block(0, 0, 0, tuple(instrs))
    for running_obj, running_col in zip(
        _views_of(running, instrs), _views_of(running, instrs)
    ):
        obj = AddrScanner(use_filter, columnar=False)(block, running_obj)
        col = AddrScanner(use_filter, columnar=True)(block, running_col)
        assert _scan_dict(col) == _scan_dict(obj)
        # Same running state left behind, in the overlay alone.
        assert running_col.added == running_obj.added
        assert running_col.removed == running_obj.removed
        assert running_col.base == running_obj.base
        # Results must be built from plain Python ints, not numpy
        # scalars: summaries feed sets/dicts that are later pickled.
        for x in col.gen | set(col.first_access) | running_col.added:
            assert type(x) is int


class TestKernelIdentity:
    @pytest.mark.parametrize("use_filter", [True, False])
    def test_corner_cases(self, use_filter):
        cases = [
            [],
            [Instr.nop()],
            [Instr.read(5)],
            [Instr.malloc(3), Instr.read(3), Instr.free(3), Instr.read(3)],
            # Sized extents arm/kill ranges of locations.
            [Instr.malloc(0, size=8), Instr.write(7), Instr.free(2, size=4),
             Instr.read(3), Instr.read(7)],
            # Double malloc / double free / free-before-malloc.
            [Instr.malloc(1), Instr.malloc(1), Instr.free(1),
             Instr.free(1), Instr.write(1)],
            # Change event as the very first and very last event.
            [Instr.malloc(2)],
            [Instr.read(2), Instr.free(2)],
            # ASSIGN reads two sources and writes its destination.
            [Instr.malloc(0, size=3), Instr.assign(0, 1, 2),
             Instr.assign(4, 0)],
            # TAINT/UNTAINT/JUMP mix in non-allocation change-free noise.
            [Instr.taint(1), Instr.jump(1), Instr.untaint(1),
             Instr.read(1)],
            # Same location checked repeatedly (filter's bread and
            # butter) with an intervening re-arm.
            [Instr.read(4)] * 5 + [Instr.malloc(4)] + [Instr.read(4)] * 5,
        ]
        for instrs in cases:
            for running in (set(), {0, 1, 2, 3, 4, 5, 6, 7}, {2}):
                _assert_kernels_agree(instrs, running, use_filter)

    @pytest.mark.parametrize("use_filter", [True, False])
    def test_random_blocks(self, use_filter):
        rng = random.Random(97 + use_filter)
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
            running = {
                loc for loc in range(16) if rng.random() < 0.5
            }
            _assert_kernels_agree(instrs, running, use_filter)

    def test_error_order_matches_event_order(self):
        """Errors must come out in event order even though the vector
        kernel discovers them per-segment via sorted unique locations."""
        instrs = [Instr.read(9), Instr.write(3), Instr.read(7),
                  Instr.malloc(5), Instr.read(9), Instr.write(3)]
        block = Block(0, 0, 0, tuple(instrs))
        scan = AddrScanner(True, columnar=True)(block, SOSView(set()))
        indices = [err[2] for err in scan.errors]
        assert indices == sorted(indices)


class TestLargeLSOS:
    """The shape a real run has and the blocks above do not: an LSOS of
    the whole live heap (100k locations) probed by a block of under a
    thousand events.  Membership is answered per *block* location
    against the set, in both location-domain branches of the kernel."""

    #: Every even location below 200k is allocated.
    LSOS = frozenset(range(0, 200_000, 2))

    def _block(self, rng, pool, events=800):
        instrs = []
        for _ in range(events):
            a, b, c = (rng.choice(pool) for _ in range(3))
            roll = rng.random()
            if roll < 0.45:
                instrs.append(Instr.read(a))
            elif roll < 0.65:
                instrs.append(Instr.write(a))
            elif roll < 0.80:
                instrs.append(Instr.assign(a, b, c))
            elif roll < 0.90:
                instrs.append(Instr.malloc(a, size=rng.randrange(1, 4)))
            else:
                instrs.append(Instr.free(a, size=rng.randrange(1, 4)))
        return instrs

    @pytest.mark.parametrize("use_filter", [True, False])
    def test_dense_span(self, use_filter):
        rng = random.Random(11 + use_filter)
        # 300 neighbouring locations, half of them allocated: the span
        # is far below the kernel's dense limit.
        pool = range(50_000, 50_300)
        instrs = self._block(rng, pool)
        assert any(i.op is Op.MALLOC for i in instrs)
        assert any(i.op is Op.FREE for i in instrs)
        _assert_kernels_agree(instrs, self.LSOS, use_filter)

    @pytest.mark.parametrize("use_filter", [True, False])
    def test_sparse_span(self, use_filter):
        rng = random.Random(13 + use_filter)
        # 64 locations scattered over 2**40: the span rules out the
        # dense tables and the kernel takes the np.unique path.  Half
        # fall inside the LSOS's range, on both parities.
        pool = sorted(
            [rng.randrange(0, 200_000) for _ in range(32)]
            + [rng.randrange(200_000, 1 << 40) for _ in range(32)]
        )
        instrs = self._block(rng, pool)
        total = sum(len(i.accessed) for i in instrs)
        assert pool[-1] - pool[0] > max(4 * total, 1 << 16)
        _assert_kernels_agree(instrs, self.LSOS, use_filter)

    def test_change_free_block(self):
        # No MALLOC/FREE at all: every location is stable and the
        # changed-set probe is skipped.
        rng = random.Random(17)
        instrs = [Instr.read(rng.randrange(60_000, 60_400))
                  for _ in range(500)]
        for use_filter in (True, False):
            _assert_kernels_agree(instrs, self.LSOS, use_filter)


class TestPoolPayload:
    """The processes-backend fix: a first-pass task's payload is columnar
    bytes plus a location set -- never ``Instr`` object trees and never
    anything owned by the guard's ``BitInterner``."""

    def _payload(self):
        guard = ButterflyAddrCheck(initially_allocated=range(8))
        scanner = guard.make_scanner()
        rng = random.Random(3)
        instrs = adversarial_instrs(rng, 300, num_locations=8,
                                    ops=_ALL_OPS, max_extent=3)
        block = Block(0, 0, 0, tuple(instrs))
        block.columns  # columnar-backed, as on the streamed fast path
        context = guard.first_pass_context(block)
        return scanner, block, context

    def test_task_payload_is_object_free(self):
        scanner, block, context = self._payload()
        payload = pickle.dumps((scanner, (block, context)))
        assert b"BitInterner" not in payload
        assert b"Instr" not in payload
        assert b"repro.trace.events" not in payload
        assert b"repro.core.bitset" not in payload

    def test_scan_result_is_object_free(self):
        scanner, block, context = self._payload()
        scan = scanner(block, context)
        payload = pickle.dumps(scan)
        assert b"BitInterner" not in payload
        assert b"repro.core.bitset" not in payload
        clone = pickle.loads(payload)
        assert _scan_dict(clone) == _scan_dict(scan)
