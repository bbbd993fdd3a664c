"""Butterfly conflict (race) detection.

The paper argues butterfly analysis applies to "a wide variety of
interesting dynamic program monitoring tools" beyond AddrCheck and
TaintCheck, citing race detectors among the lifeguards sharing the
generate/propagate structure (Section 5).  This module is that
demonstration: a happens-before-style conflict detector that needs *no*
synchronization tracking at all -- the butterfly window is the
happens-before relation.

Two accesses conflict when they touch the same location, at least one
is a write, and they are *potentially concurrent* -- i.e. they sit in
wing-adjacent blocks of different threads.  Accesses two or more epochs
apart are strictly ordered by construction and can never race.

As with the other lifeguards this is conservative: every pair of
accesses that could overlap in some valid ordering is flagged (no false
negatives with respect to the window model), while a program whose
sharing is always separated by two epochs -- e.g. phase-disciplined
SPMD code with the heartbeat slower than its barriers -- stays silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.epoch import Block, BlockId
from repro.core.framework import ButterflyAnalysis
from repro.core.window import Butterfly
from repro.lifeguards.reports import ErrorLog, ErrorReport, ErrorKind
from repro.trace.events import Instr, Op


@dataclass
class AccessSummary:
    """Per-block read/write footprints with first-occurrence offsets."""

    block_id: BlockId
    reads: Set[int] = field(default_factory=set)
    writes: Set[int] = field(default_factory=set)
    first_read: Dict[int, int] = field(default_factory=dict)
    first_write: Dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RaceScanner:
    """Picklable first-pass work unit: one block's access footprints."""

    def __call__(self, block: Block, context: Any) -> AccessSummary:
        summary = AccessSummary(block_id=block.block_id)
        for i, instr in enumerate(block.instrs):
            op = instr.op
            if op in (Op.MALLOC, Op.FREE):
                # Allocation-state changes behave as writes to the
                # covered locations for conflict purposes.
                for loc in instr.extent:
                    summary.writes.add(loc)
                    summary.first_write.setdefault(loc, i)
                continue
            for loc in instr.srcs:
                summary.reads.add(loc)
                summary.first_read.setdefault(loc, i)
            if instr.dst is not None and op in (
                Op.WRITE, Op.ASSIGN, Op.TAINT, Op.UNTAINT
            ):
                summary.writes.add(instr.dst)
                summary.first_write.setdefault(instr.dst, i)
        return summary


@dataclass(frozen=True)
class RaceReport:
    """One potential conflict: location plus the body-side access."""

    location: int
    body_ref: tuple
    kind: str  # "write-write" or "read-write"


class ButterflyRaceCheck(
    ButterflyAnalysis[AccessSummary, List[AccessSummary]]
):
    """Conflict detection over the butterfly window.

    ``races`` collects :class:`RaceReport` entries; ``errors`` mirrors
    them as standard reports (kind ``UNSAFE_ISOLATION`` -- a race *is*
    a metadata-free isolation violation) for uniform accounting.
    """

    parallel_first_pass = True
    parallel_second_pass = True

    def __init__(self) -> None:
        self.errors = ErrorLog()
        self.races: List[RaceReport] = []
        self._summaries: Dict[BlockId, AccessSummary] = {}

    # -- step 1 ----------------------------------------------------------

    def make_scanner(self) -> RaceScanner:
        return RaceScanner()

    def commit_scan(self, block: Block, scan: AccessSummary) -> AccessSummary:
        self._summaries[block.block_id] = scan
        return scan

    # -- step 2 ------------------------------------------------------------

    def meet(
        self, butterfly: Butterfly, wing_summaries: List[AccessSummary]
    ) -> List[AccessSummary]:
        # No union is built: each conflict class intersects the body
        # with one wing at a time, so the work is sized by the smaller
        # footprint and nothing outlives the window.
        return wing_summaries

    # -- step 3 --------------------------------------------------------------

    def check_body(
        self, butterfly: Butterfly, side_in: List[AccessSummary]
    ) -> Tuple[Set[int], Set[int], Set[int]]:
        """Pure conflict intersections, accumulated over the wings:
        write-write, body write vs wing read, body read vs wing write."""
        s = self._summaries[butterfly.body.block_id]
        ww: Set[int] = set()
        wr: Set[int] = set()
        rw: Set[int] = set()
        for w in side_in:
            ww |= s.writes & w.writes
            wr |= s.writes & w.reads
            rw |= s.reads & w.writes
        return ww, wr, rw

    def commit_check(
        self,
        butterfly: Butterfly,
        side_in: List[AccessSummary],
        result: Tuple[Set[int], Set[int], Set[int]],
    ) -> None:
        ww, wr, rw = result
        s = self._summaries[butterfly.body.block_id]
        # Ascending location within each conflict class: set order is
        # hash-dependent, sorting makes the flag order a function of
        # the trace alone.
        for loc in sorted(ww):
            self._flag(
                butterfly, loc, s.first_write[loc], "write-write", "writes"
            )
        for loc in sorted(wr):
            self._flag(
                butterfly, loc, s.first_write[loc], "read-write", "reads"
            )
        for loc in sorted(rw):
            self._flag(
                butterfly, loc, s.first_read[loc], "read-write", "writes"
            )

    def _flag(
        self,
        butterfly: Butterfly,
        loc: int,
        offset: int,
        kind: str,
        wing_side: str,
    ) -> None:
        body = butterfly.body
        ref = body.global_ref(offset)
        if self.errors.record(
            ErrorKind.UNSAFE_ISOLATION,
            loc,
            ref=ref,
            block=body.block_id,
            detail=f"potential {kind} conflict",
        ):
            self.races.append(
                RaceReport(location=loc, body_ref=ref, kind=kind)
            )
            rec = self.recorder
            if rec.enabled:
                wing = self._wing_touching(butterfly, loc, wing_side)
                rec.event(
                    "error",
                    kind=ErrorKind.UNSAFE_ISOLATION.value,
                    location=loc,
                    epoch=body.block_id[0],
                    thread=body.block_id[1],
                    index=offset,
                    ref=list(ref),
                    stage="second",
                    conflict=kind,
                    wing=list(wing) if wing is not None else None,
                )

    def _wing_touching(
        self, butterfly: Butterfly, loc: int, side: str
    ) -> Optional[BlockId]:
        """Provenance: the first wing whose ``side`` footprint (reads or
        writes) involves ``loc`` -- the access the conflict is blamed
        on."""
        for wing in butterfly.wings:
            s = self._summaries.get(wing.block_id)
            if s is not None and loc in getattr(s, side):
                return wing.block_id
        return None

    def emit_metrics(self, recorder: Any) -> None:
        """End-of-run gauge: the conflict count."""
        recorder.gauge("racecheck.races", len(self.races))

    # -- step 4 --------------------------------------------------------------

    def epoch_update(self, lid: int, summaries: Dict[BlockId, AccessSummary]) -> None:
        # Conflict detection is stateless beyond the sliding window.
        stale = lid - 1
        for key in [k for k in self._summaries if k[0] < stale]:
            del self._summaries[key]
