"""Oracle-backed provenance for error events.

Every ``error`` event the instrumented lifeguards emit carries
``(epoch, thread, index, ref)`` naming the body-side instruction and,
for second-pass flags, a ``wing`` naming the concurrent block being
blamed.  These tests pin the provenance contract on tiny traces:

- **Structural**: ``(epoch, thread)`` is a real block, ``index`` is in
  range, ``ref`` is exactly that block's global ref of ``index``, and a
  ``wing`` is genuinely wing-adjacent (different thread, at most one
  epoch away) and really performs the kind of operation it is blamed
  for at the flagged location.
- **Ordering oracle**: for AddrCheck first-pass errors (idempotent
  filter off, so flags are instruction-precise), the flagged ``(ref,
  location)`` must be an error some *valid ordering* of the trace
  produces under the original sequential lifeguard -- the butterfly
  LSOS only drops allocations that fail along every ordering, so each
  first-pass flag must be reproducible by at least one interleaving
  enumerated by :func:`repro.core.ordering.all_valid_orderings`.
"""

import random

import pytest

from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyEngine
from repro.core.ordering import all_valid_orderings
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.racecheck import ButterflyRaceCheck
from repro.lifeguards.sequential import SequentialAddrCheck
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.obs import Recorder
from repro.trace.events import Op
from repro.trace.generator import random_program
from repro.verify.reference import ReferenceAddrCheck

ADDR_OPS = (Op.MALLOC, Op.FREE, Op.READ, Op.WRITE, Op.NOP)
TAINT_OPS = (Op.TAINT, Op.UNTAINT, Op.ASSIGN, Op.JUMP, Op.NOP)
RACE_OPS = (Op.MALLOC, Op.FREE, Op.READ, Op.WRITE, Op.ASSIGN, Op.NOP)


def tiny_trace(seed, ops, threads=2, length=4, locations=3):
    return random_program(
        random.Random(seed),
        num_threads=threads,
        length=length,
        num_locations=locations,
        ops=ops,
    )


def error_events(guard, part):
    rec = Recorder()
    with ButterflyEngine(guard, recorder=rec) as engine:
        engine.run(part)
    return [ev for ev in rec.events if ev["ev"] == "error"]


def assert_structural(part, ev):
    """The body-side provenance names a real instruction."""
    epoch, thread, index = ev["epoch"], ev["thread"], ev["index"]
    block = part.block(epoch, thread)
    assert 0 <= index < len(block), ev
    assert tuple(ev["ref"]) == block.global_ref(index), ev
    assert ev["stage"] in ("first", "second"), ev
    wing = ev.get("wing")
    if wing is not None:
        wl, wt = wing
        assert wt != thread, ev
        assert abs(wl - epoch) <= 1, ev
        part.block(wl, wt)  # raises if out of range


def changes_alloc_state(block, loc):
    return any(
        instr.op in (Op.MALLOC, Op.FREE) and loc in instr.extent
        for instr in block
    )


def touches(block, loc, side):
    """Whether ``block`` reads (side='reads') or writes ``loc``."""
    for instr in block:
        if side == "reads":
            if loc in instr.srcs:
                return True
        else:
            if instr.op in (Op.MALLOC, Op.FREE):
                if loc in instr.extent:
                    return True
            elif instr.dst == loc and instr.op in (
                Op.WRITE, Op.ASSIGN, Op.TAINT, Op.UNTAINT
            ):
                return True
    return False


def addrcheck_oracle(part):
    """Union of sequential AddrCheck errors over every valid ordering,
    as (global ref, location) pairs."""
    found = set()
    for order in all_valid_orderings(part):
        guard = SequentialAddrCheck()
        for iid in order:
            guard.process(iid, part.instr(iid))
        for report in guard.errors:
            found.add((part.global_ref_of(report.ref), report.location))
    return found


class TestAddrCheckProvenance:
    @pytest.mark.parametrize("seed", range(20))
    def test_first_pass_flags_reproducible_by_some_ordering(self, seed):
        prog = tiny_trace(seed, ADDR_OPS)
        part = partition_fixed(prog, 2)
        guard = ButterflyAddrCheck(use_idempotent_filter=False)
        events = error_events(guard, part)
        oracle = addrcheck_oracle(part)
        for ev in events:
            assert_structural(part, ev)
            if ev["stage"] == "first":
                assert (tuple(ev["ref"]), ev["location"]) in oracle, (
                    f"seed {seed}: first-pass flag not reproducible "
                    f"by any valid ordering: {ev}"
                )

    @pytest.mark.parametrize("seed", range(20))
    def test_isolation_flags_blame_a_real_state_change(self, seed):
        """Second-pass UNSAFE_ISOLATION events must name a wing, and
        that wing must actually change the allocation state of the
        flagged location (that is what the intersection tested)."""
        prog = tiny_trace(seed, ADDR_OPS)
        part = partition_fixed(prog, 2)
        guard = ButterflyAddrCheck(use_idempotent_filter=False)
        for ev in error_events(guard, part):
            if ev["stage"] != "second":
                continue
            assert ev["wing"] is not None, ev
            wing_block = part.block(*ev["wing"])
            assert changes_alloc_state(wing_block, ev["location"]), ev

    @pytest.mark.parametrize("seed", range(10))
    def test_optimized_and_reference_attribute_identically(self, seed):
        prog = tiny_trace(seed, ADDR_OPS, threads=3)
        part = partition_fixed(prog, 2)

        def keyed(events):
            return sorted(
                (ev["kind"], ev["location"], tuple(ev["ref"]),
                 ev["stage"],
                 tuple(ev["wing"]) if ev["wing"] else None)
                for ev in events
            )

        opt = error_events(
            ButterflyAddrCheck(use_idempotent_filter=False),
            partition_fixed(prog, 2),
        )
        ref = error_events(
            ReferenceAddrCheck(use_idempotent_filter=False),
            part,
        )
        assert keyed(opt) == keyed(ref)


class TestRaceCheckProvenance:
    @pytest.mark.parametrize("seed", range(20))
    def test_conflicts_blame_a_wing_that_touches_the_location(self, seed):
        prog = tiny_trace(seed, RACE_OPS, threads=3)
        part = partition_fixed(prog, 2)
        for ev in error_events(ButterflyRaceCheck(), part):
            assert_structural(part, ev)
            assert ev["stage"] == "second", ev
            assert ev["conflict"] in ("write-write", "read-write"), ev
            assert ev["wing"] is not None, ev
            wing_block = part.block(*ev["wing"])
            body_block = part.block(ev["epoch"], ev["thread"])
            # The body side touches the location at the flagged index,
            # and the blamed wing touches it concurrently -- i.e. both
            # accesses exist and sit in wing-adjacent blocks, which is
            # exactly the window's potentially-concurrent criterion.
            body_instr = body_block.instrs[ev["index"]]
            loc = ev["location"]
            assert (
                loc in body_instr.srcs
                or body_instr.dst == loc
                or (body_instr.op in (Op.MALLOC, Op.FREE)
                    and loc in body_instr.extent)
            ), ev
            side = (
                "reads"
                if ev["conflict"] == "read-write"
                and touches(wing_block, loc, "reads")
                else "writes"
            )
            assert touches(wing_block, loc, side), ev


class TestTaintCheckProvenance:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("mode", ["relaxed", "sc"])
    def test_tainted_jumps_name_a_real_jump(self, seed, mode):
        prog = tiny_trace(seed, TAINT_OPS)
        part = partition_fixed(prog, 2)
        for ev in error_events(ButterflyTaintCheck(mode=mode), part):
            assert_structural(part, ev)
            assert ev["kind"] == "tainted-jump", ev
            assert ev["stage"] == "second", ev
            block = part.block(ev["epoch"], ev["thread"])
            instr = block.instrs[ev["index"]]
            assert instr.op is Op.JUMP, ev
            assert ev["location"] in instr.srcs, ev
