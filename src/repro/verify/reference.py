"""The paper-faithful reference AddrCheck (Section 6.1), kept for diffing.

:class:`~repro.lifeguards.addrcheck.ButterflyAddrCheck` scans blocks
with picklable kernels, commits raw error tuples and intersects the
body with the wings' *change* sets only.  This subclass is what it is
measured against: one Python loop per instruction that flags through
constructed :class:`ErrorReport` objects, the full ``S = (GEN, KILL,
ACCESS)`` meet, and a whole-pass second pass -- on the serial schedule
only.  It shares the production class's state rules (LSOS, SOS update,
eviction) and must report bit-identically to it: the ``optref`` fuzz
preset, the determinism and provenance property tests and the core
microbenchmark all diff the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.core.dataflow import BlockFacts
from repro.core.epoch import Block
from repro.core.window import Butterfly
from repro.lifeguards.addrcheck import (
    _DETAIL_ACCESS,
    _DETAIL_ACCESS_RACE,
    _DETAIL_CHANGE_RACE,
    _DETAIL_FREE,
    _DETAIL_MALLOC,
    ButterflyAddrCheck,
)
from repro.lifeguards.reports import ErrorKind, ErrorReport
from repro.trace.events import Op


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
    parallel_second_pass = False

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
        emit = self.recorder.enabled

        for i, instr in enumerate(block.instrs):
            events += 1
            op = instr.op
            if op is Op.MALLOC:
                for loc in instr.extent:
                    allocs += 1
                    checked.discard(loc)
                    if loc in running:
                        if self.errors.flag(
                            ErrorReport(
                                ErrorKind.MALLOC_ALLOCATED,
                                loc,
                                ref=block.global_ref(i),
                                detail=_DETAIL_MALLOC,
                            )
                        ) and emit:
                            self._emit_first_pass_event(
                                block, ErrorKind.MALLOC_ALLOCATED, loc, i
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
                        if self.errors.flag(
                            ErrorReport(
                                ErrorKind.FREE_UNALLOCATED,
                                loc,
                                ref=block.global_ref(i),
                                detail=_DETAIL_FREE,
                            )
                        ) and emit:
                            self._emit_first_pass_event(
                                block, ErrorKind.FREE_UNALLOCATED, loc, i
                            )
                    running.discard(loc)
                    killed_vars.add(loc)
                    gen.discard(loc)
                    last_event[loc] = "kill"
                    first_change.setdefault(loc, i)
            else:
                for loc in instr.accessed:
                    accesses += 1
                    self.recorded_accesses += 1
                    access.add(loc)
                    first_access.setdefault(loc, i)
                    if self.use_idempotent_filter and loc in checked:
                        continue
                    checked.add(loc)
                    checks += 1
                    if loc not in running:
                        if self.errors.flag(
                            ErrorReport(
                                ErrorKind.ACCESS_UNALLOCATED,
                                loc,
                                ref=block.global_ref(i),
                                detail=_DETAIL_ACCESS,
                            )
                        ) and emit:
                            self._emit_first_pass_event(
                                block, ErrorKind.ACCESS_UNALLOCATED, loc, i
                            )
        self.block_work[block.block_id] = {
            "events": events,
            "checks": checks,
            "accesses": accesses,
            "allocs": allocs,
            "flags": len(self.errors) - flags_before,
            "meet": 0,
            "iso": 0,
        }
        self._summaries[block.block_id] = summary
        return summary

    def _emit_first_pass_event(
        self, block: Block, kind: ErrorKind, loc: int, i: int
    ) -> None:
        """Provenance event for a freshly flagged first-pass error (the
        production class emits from :meth:`commit_scan`)."""
        lid, tid = block.block_id
        self.recorder.event(
            "error",
            kind=kind.value,
            location=loc,
            epoch=lid,
            thread=tid,
            index=i,
            ref=list(block.global_ref(i)),
            stage="first",
            wing=None,
        )

    # -- step 2: meet (elementwise union of wing summaries) ----------------

    def meet(
        self, butterfly: Butterfly, wing_summaries: List[ReferenceSummary]
    ) -> WingSummary:
        gen_set: Set[int] = set()
        kill_set: Set[int] = set()
        access_set: Set[int] = set()
        work = 0
        for s in wing_summaries:
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
        s = self._summaries[body.block_id]
        flags_before = len(self.errors)
        emit = self.recorder.enabled
        changed = s.facts.all_gen | s.facts.killed_vars
        wing_changed = side_in.changed
        # Sorted location order, matching the production path: raw set
        # intersection order is hash-dependent, and a multi-location
        # extent would flag its locations in an arbitrary order.
        # (s.GEN U s.KILL) n (S.GEN U S.KILL): racing state changes.
        for loc in sorted(changed & wing_changed):
            if self.errors.flag(
                ErrorReport(
                    ErrorKind.UNSAFE_ISOLATION,
                    loc,
                    ref=body.global_ref(s.first_change[loc]),
                    block=body.block_id,
                    detail=_DETAIL_CHANGE_RACE,
                )
            ) and emit:
                self._emit_isolation_event(
                    butterfly, loc, s.first_change[loc]
                )
        # s.ACCESS n (S.GEN U S.KILL): access during a concurrent change.
        for loc in sorted(s.access & wing_changed):
            if self.errors.flag(
                ErrorReport(
                    ErrorKind.UNSAFE_ISOLATION,
                    loc,
                    ref=body.global_ref(s.first_access[loc]),
                    block=body.block_id,
                    detail=_DETAIL_ACCESS_RACE,
                )
            ) and emit:
                self._emit_isolation_event(
                    butterfly, loc, s.first_access[loc]
                )
        # S.ACCESS n (s.GEN U s.KILL) is caught symmetrically when each
        # wing block is processed as its own butterfly's body (the wing
        # relation is symmetric), so flagging it here would only
        # duplicate reports.
        work = self.block_work[body.block_id]
        work["flags"] += len(self.errors) - flags_before
        work["iso"] += len(changed) + len(s.access)
