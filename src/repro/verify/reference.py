"""Per-``Instr`` references the production lifeguards are diffed against.

:class:`~repro.lifeguards.addrcheck.ButterflyAddrCheck` scans blocks
with picklable kernels and intersects the body with the wings'
*change* sets only.  :class:`ReferenceAddrCheck`, the paper-faithful
AddrCheck (Section 6.1), is what it is measured against: one Python
loop per instruction that flags as it goes, the full ``S = (GEN,
KILL, ACCESS)`` meet, and a whole-pass second pass -- on the serial
schedule only.  It shares the production class's state rules (LSOS,
SOS update, eviction) and must report bit-identically to it: the
``optref`` fuzz preset, the determinism and provenance property tests
and the core microbenchmark all diff the two.

:class:`ReferenceAddrScanner`, :class:`ReferenceRaceScanner` and
:class:`ReferenceTaintScanner` are the three lifeguards' first-pass
kernels one ``Instr`` at a time, the legs the columnar kernels must
match bit for bit.  ``use_columnar_kernel=False`` swaps them into the
production lifeguards, which is how the ``columnar`` fuzz mode and the
kernel benchmarks run them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.columnar import SortedFirstAccess
from repro.core.dataflow import BlockFacts
from repro.core.epoch import Block
from repro.core.framework import Scanner
from repro.core.state import SOSView
from repro.core.window import Butterfly
from repro.lifeguards.addrcheck import (
    _DETAIL_ACCESS,
    _DETAIL_ACCESS_RACE,
    _DETAIL_CHANGE_RACE,
    _DETAIL_FREE,
    _DETAIL_MALLOC,
    AddrScan,
    ButterflyAddrCheck,
)
from repro.lifeguards.racecheck import AccessSummary
from repro.lifeguards.reports import ErrorKind, emit_error_event
from repro.lifeguards.taintcheck import BOT, TOP, TaintSummary, Value
from repro.trace.events import Instr, Op


@dataclass
class ReferenceSummary:
    """The reference's ``s_{l,t} = (GEN, KILL, ACCESS)`` in plain sets and
    dicts of its own, so the oracle never reads the representation the
    production summary keeps.  The state rules it shares with the
    production class read ``facts`` only."""

    facts: BlockFacts
    access: Set[int]
    first_change: Dict[int, int]
    first_access: Dict[int, int]


@dataclass
class WingSummary:
    """The meet of the wings: elementwise union of their summaries."""

    gen: Set[int]
    kill: Set[int]
    access: Set[int]

    @property
    def changed(self) -> Set[int]:
        return self.gen | self.kill


class ReferenceAddrCheck(ButterflyAddrCheck):
    """Per-instruction AddrCheck: same constructor, same reports, same
    work counters as the production class, none of its fast paths."""

    parallel_first_pass = False

    # -- step 1: local pass with LSOS checks ------------------------------

    def first_pass(self, block: Block) -> ReferenceSummary:
        lid, tid = block.block_id
        running = self._compute_lsos(lid, tid)
        facts = BlockFacts(block_id=block.block_id)
        summary = ReferenceSummary(
            facts=facts, access=set(), first_change={}, first_access={}
        )
        gen = facts.gen
        all_gen = facts.all_gen
        killed_vars = facts.killed_vars
        last_event = facts.last_event
        access = summary.access
        first_change = summary.first_change
        first_access = summary.first_access
        # Idempotent-filter state: one filter per thread, flushed at
        # every heartbeat -- i.e. per-block scope.
        checked: Set[int] = set()
        events = 0
        checks = 0
        accesses = 0
        allocs = 0
        flags_before = len(self.errors)
        rec = self.recorder
        emit = rec.enabled

        for i, instr in enumerate(block.instrs):
            events += 1
            op = instr.op
            if op is Op.MALLOC:
                for loc in instr.extent:
                    allocs += 1
                    checked.discard(loc)
                    if loc in running:
                        if self.errors.record(
                            ErrorKind.MALLOC_ALLOCATED,
                            loc,
                            ref=block.global_ref(i),
                            detail=_DETAIL_MALLOC,
                        ) and emit:
                            emit_error_event(
                                rec, block, ErrorKind.MALLOC_ALLOCATED, loc, i,
                                "first",
                            )
                    running.add(loc)
                    gen.add(loc)
                    all_gen.add(loc)
                    last_event[loc] = "gen"
                    first_change.setdefault(loc, i)
            elif op is Op.FREE:
                for loc in instr.extent:
                    allocs += 1
                    checked.discard(loc)
                    if loc not in running:
                        if self.errors.record(
                            ErrorKind.FREE_UNALLOCATED,
                            loc,
                            ref=block.global_ref(i),
                            detail=_DETAIL_FREE,
                        ) and emit:
                            emit_error_event(
                                rec, block, ErrorKind.FREE_UNALLOCATED, loc, i,
                                "first",
                            )
                    running.discard(loc)
                    killed_vars.add(loc)
                    gen.discard(loc)
                    last_event[loc] = "kill"
                    first_change.setdefault(loc, i)
            else:
                for loc in instr.accessed:
                    accesses += 1
                    access.add(loc)
                    first_access.setdefault(loc, i)
                    if self.use_idempotent_filter and loc in checked:
                        continue
                    checked.add(loc)
                    checks += 1
                    if loc not in running:
                        if self.errors.record(
                            ErrorKind.ACCESS_UNALLOCATED,
                            loc,
                            ref=block.global_ref(i),
                            detail=_DETAIL_ACCESS,
                        ) and emit:
                            emit_error_event(
                                rec, block, ErrorKind.ACCESS_UNALLOCATED,
                                loc, i, "first",
                            )
        if not self.replaying:
            self.recorded_accesses += accesses
            self.block_work[block.block_id] = {
                "events": events,
                "checks": checks,
                "accesses": accesses,
                "allocs": allocs,
                "flags": len(self.errors) - flags_before,
                "meet": 0,
                "iso": 0,
            }
        return summary

    # -- step 2: meet (elementwise union of wing summaries) ----------------

    def meet(
        self, butterfly: Butterfly, wings: List[ReferenceSummary]
    ) -> WingSummary:
        gen_set: Set[int] = set()
        kill_set: Set[int] = set()
        access_set: Set[int] = set()
        work = 0
        for s in wings:
            gen, kill = s.facts.all_gen, s.facts.killed_vars
            gen_set |= gen
            kill_set |= kill
            access_set |= s.access
            work += len(gen) + len(kill) + len(s.access)
        self.block_work[butterfly.body.block_id]["meet"] += work
        return WingSummary(gen=gen_set, kill=kill_set, access=access_set)

    # -- step 3: isolation check -------------------------------------------

    def second_pass(self, butterfly: Butterfly, side_in: WingSummary) -> None:
        """Flag every location where the body's allocation-state changes
        collide with concurrent wing operations (and vice versa for the
        body's accesses against wing state changes)."""
        body = butterfly.body
        s = self.summaries[body.block_id]
        flags_before = len(self.errors)
        rec = self.recorder
        emit = rec.enabled
        changed = s.facts.all_gen | s.facts.killed_vars
        wing_changed = side_in.changed
        # Sorted location order, matching the production path: raw set
        # intersection order is hash-dependent, and a multi-location
        # extent would flag its locations in an arbitrary order.
        # (s.GEN U s.KILL) n (S.GEN U S.KILL): racing state changes.
        for loc in sorted(changed & wing_changed):
            if self.errors.record(
                ErrorKind.UNSAFE_ISOLATION,
                loc,
                ref=body.global_ref(s.first_change[loc]),
                block=body.block_id,
                detail=_DETAIL_CHANGE_RACE,
            ) and emit:
                emit_error_event(
                    rec, body, ErrorKind.UNSAFE_ISOLATION, loc,
                    s.first_change[loc], "second",
                    self._wing_with_change(butterfly, loc),
                )
        # s.ACCESS n (S.GEN U S.KILL): access during a concurrent change.
        for loc in sorted(s.access & wing_changed):
            if self.errors.record(
                ErrorKind.UNSAFE_ISOLATION,
                loc,
                ref=body.global_ref(s.first_access[loc]),
                block=body.block_id,
                detail=_DETAIL_ACCESS_RACE,
            ) and emit:
                emit_error_event(
                    rec, body, ErrorKind.UNSAFE_ISOLATION, loc,
                    s.first_access[loc], "second",
                    self._wing_with_change(butterfly, loc),
                )
        # S.ACCESS n (s.GEN U s.KILL) is caught symmetrically when each
        # wing block is processed as its own butterfly's body (the wing
        # relation is symmetric), so flagging it here would only
        # duplicate reports.
        work = self.block_work[body.block_id]
        work["flags"] += len(self.errors) - flags_before
        work["iso"] += len(changed) + len(s.access)


@dataclass(frozen=True)
class ReferenceAddrScanner(Scanner):
    """AddrCheck's first pass one ``Instr`` at a time, with the
    interface of :class:`~repro.lifeguards.addrcheck.AddrScanner` and
    bit-identical :class:`AddrScan` results.  Each block is scanned on
    its own."""

    use_idempotent_filter: bool

    def __call__(self, block: Block, running: SOSView) -> AddrScan:
        # ``loc in running`` / ``running.add`` / ``running.discard``
        # below are SOSView's methods written out against its three
        # plain sets: this loop runs per event.
        base = running.base
        added = running.added
        removed = running.removed
        gen: Set[int] = set()
        all_gen: Set[int] = set()
        killed_vars: Set[int] = set()
        last_event: Dict[int, str] = {}
        first_change: Dict[int, int] = {}
        first_access: Dict[int, int] = {}
        errors: List[Tuple[ErrorKind, int, int, str]] = []
        # Idempotent-filter state: one filter per thread, flushed at
        # every heartbeat -- i.e. per-block scope.
        checked: Set[int] = set()
        events = 0
        checks = 0
        accesses = 0
        allocs = 0
        use_filter = self.use_idempotent_filter
        op_malloc = Op.MALLOC
        op_free = Op.FREE
        op_read = Op.READ
        op_jump = Op.JUMP
        op_write = Op.WRITE
        op_assign = Op.ASSIGN

        for i, instr in enumerate(block.instrs):
            events += 1
            op = instr.op
            if op is op_malloc:
                dst = instr.dst
                for loc in range(dst, dst + instr.size):
                    allocs += 1
                    checked.discard(loc)
                    if loc in base:
                        live = loc not in removed
                        removed.discard(loc)
                    else:
                        live = loc in added
                        added.add(loc)
                    if live:
                        errors.append(
                            (ErrorKind.MALLOC_ALLOCATED, loc, i, _DETAIL_MALLOC)
                        )
                    gen.add(loc)
                    all_gen.add(loc)
                    last_event[loc] = "gen"
                    if loc not in first_change:
                        first_change[loc] = i
            elif op is op_free:
                dst = instr.dst
                for loc in range(dst, dst + instr.size):
                    allocs += 1
                    checked.discard(loc)
                    if loc in base:
                        live = loc not in removed
                        removed.add(loc)
                    else:
                        live = loc in added
                        added.discard(loc)
                    if not live:
                        errors.append(
                            (ErrorKind.FREE_UNALLOCATED, loc, i, _DETAIL_FREE)
                        )
                    killed_vars.add(loc)
                    gen.discard(loc)
                    last_event[loc] = "kill"
                    if loc not in first_change:
                        first_change[loc] = i
            else:
                # Inlined Instr.accessed: READ/JUMP dereference their
                # source; WRITE/ASSIGN their sources plus destination.
                if op is op_read or op is op_jump:
                    locs = instr.srcs
                elif op is op_write or op is op_assign:
                    locs = instr.srcs + (instr.dst,)
                else:
                    continue
                for loc in locs:
                    accesses += 1
                    if loc not in first_access:
                        first_access[loc] = i
                    if use_filter and loc in checked:
                        continue
                    checked.add(loc)
                    checks += 1
                    if (
                        loc in removed if loc in base else loc not in added
                    ):
                        errors.append(
                            (ErrorKind.ACCESS_UNALLOCATED, loc, i, _DETAIL_ACCESS)
                        )
        return AddrScan(
            gen=gen,
            all_gen=all_gen,
            killed_vars=killed_vars,
            last_event=last_event,
            first_change=first_change,
            first_access=SortedFirstAccess.from_dict(first_access),
            errors=errors,
            events=events,
            checks=checks,
            accesses=accesses,
            allocs=allocs,
        )


@dataclass(frozen=True)
class ReferenceRaceScanner(Scanner):
    """RaceCheck's first pass one ``Instr`` at a time, with the
    interface of :class:`~repro.lifeguards.racecheck.RaceScanner` and
    bit-identical :class:`AccessSummary` results."""

    def __call__(self, block: Block, context: object) -> AccessSummary:
        first_read: Dict[int, int] = {}
        first_write: Dict[int, int] = {}
        for i, instr in enumerate(block.instrs):
            if instr.op in (Op.MALLOC, Op.FREE):
                # An allocation-state change writes its whole extent.
                for loc in instr.extent:
                    first_write.setdefault(loc, i)
                continue
            for loc in instr.srcs:
                first_read.setdefault(loc, i)
            if instr.op in (Op.WRITE, Op.ASSIGN, Op.TAINT, Op.UNTAINT):
                first_write.setdefault(instr.dst, i)
        return AccessSummary(
            block.block_id,
            SortedFirstAccess.from_dict(first_read),
            SortedFirstAccess.from_dict(first_write),
        )


@dataclass(frozen=True)
class ReferenceTaintScanner(Scanner):
    """TaintCheck's first pass one ``Instr`` at a time, with the
    interface of :class:`~repro.lifeguards.taintcheck.TaintScanner` and
    bit-identical :class:`TaintSummary` results."""

    def __call__(self, block: Block, context: object) -> TaintSummary:
        rules: Dict[int, List[Tuple[int, Value]]] = {}
        jumps: List[Tuple[int, int]] = []
        for i, instr in enumerate(block.instrs):
            written = _value_of(instr)
            if written is not None:
                rules.setdefault(written[0], []).append((i, written[1]))
            elif instr.op is Op.JUMP:
                jumps.append((i, instr.srcs[0]))
        return TaintSummary.from_rules(block.block_id, rules, jumps)


def _value_of(instr: Instr) -> Optional[Tuple[int, Value]]:
    """Map an event to its transfer-function RHS, or None if it writes
    no taint metadata."""
    if instr.op is Op.TAINT:
        return instr.dst, BOT
    if instr.op in (Op.UNTAINT, Op.WRITE):
        if instr.dst is None:
            return None
        return instr.dst, TOP
    if instr.op is Op.ASSIGN:
        if not instr.srcs:
            return instr.dst, TOP
        return instr.dst, tuple(instr.srcs)
    return None
