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

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.columnar import (
    OP_ASSIGN, OP_FREE, OP_MALLOC, OP_TAINT, OP_UNTAINT, OP_WRITE,
    ColumnarBlock, SortedFirstAccess, expand_extents,
)
from repro.core.epoch import Block, BlockId
from repro.core.framework import ButterflyAnalysis, Scanner
from repro.core.window import Butterfly
from repro.lifeguards.reports import ErrorKind, ErrorLog, emit_error_event

#: Ops that write a location for conflict purposes -- a destination
#: store, a MALLOC/FREE's extent -- read with ``.take``.
_WRITE_LUT = np.zeros(256, dtype=bool)
_WRITE_LUT[[OP_WRITE, OP_ASSIGN, OP_TAINT, OP_UNTAINT, OP_MALLOC, OP_FREE]] = 1


@dataclass
class AccessSummary:
    """Per-block read and write footprints, each location beside the
    block offset of its first read or write."""

    block_id: BlockId
    reads: SortedFirstAccess
    writes: SortedFirstAccess


def _read_stream(cols: ColumnarBlock, is_change: Any) -> Tuple[Any, Any]:
    """Every source of every event but a MALLOC/FREE, in event order:
    ``(event, location)`` arrays."""
    counts = cols.src_off[1:] - cols.src_off[:-1]
    ev = np.repeat(np.arange(cols.length, dtype=np.int64), counts)
    locs = cols.src_val
    if counts.take(np.flatnonzero(is_change)).any():
        kept = np.flatnonzero(~is_change.take(ev))
        ev, locs = ev[kept], locs[kept]
    return ev, locs


def _write_stream(cols: ColumnarBlock, is_change: Any) -> Tuple[Any, Any]:
    """Every written location in event order, ``(event, location)``:
    the destination of a WRITE/ASSIGN/TAINT/UNTAINT, each location of a
    MALLOC/FREE's extent."""
    idx = np.flatnonzero(_WRITE_LUT.take(cols.op))
    extent = np.where(is_change.take(idx), cols.size.take(idx), 1)
    return expand_extents(cols.dst, idx, extent)


def _footprints(
    run: Any, rel: Any, locs: Any, nruns: int
) -> List[SortedFirstAccess]:
    """One footprint per run of a stream of touches (``locs[k]`` at
    offset ``rel[k]`` in run ``run[k]``, each run in event order): one
    stable sort by (run, location) heads each run with its first touch."""
    order = np.lexsort((locs, run))
    s_loc, s_run = locs[order], run[order]
    head = np.empty(order.shape[0], dtype=bool)
    head[:1] = True
    np.not_equal(s_loc[1:], s_loc[:-1], out=head[1:])
    head[1:] |= s_run[1:] != s_run[:-1]
    at = np.flatnonzero(head)
    uniq, offsets = s_loc[at], rel[order[at]]
    cut = s_run[at].searchsorted(np.arange(nruns + 1)).tolist()
    return [
        SortedFirstAccess(uniq[a:b], offsets[a:b])
        for a, b in zip(cut, cut[1:])
    ]


@dataclass(frozen=True)
class RaceScanner(Scanner):
    """Picklable first-pass work unit: access footprints from columns.

    A row's blocks are concatenated and scanned as one stream, so the
    kernel's fixed numpy calls are paid once per row: block ``s``'s
    reads are run ``2s`` and its writes run ``2s + 1`` of one sort
    (:func:`_footprints`).  The per-``Instr`` loop it must match bit for
    bit is :class:`repro.verify.reference.ReferenceRaceScanner`."""

    def scan_row(
        self, items: Sequence[Tuple[Block, Any]]
    ) -> List[AccessSummary]:
        blocks = [block for block, _ in items]
        cols = ColumnarBlock.concat([block.columns for block in blocks])
        ops = cols.op
        is_change = (ops == OP_MALLOC) | (ops == OP_FREE)
        read_ev, read_loc = _read_stream(cols, is_change)
        write_ev, write_loc = _write_stream(cols, is_change)
        ev = np.concatenate((read_ev, write_ev))
        ev_lo = np.array([0, *accumulate(map(len, blocks))], dtype=np.int64)
        seg = ev_lo.searchsorted(ev, side="right") - 1
        rel = ev - ev_lo.take(seg)
        seg *= 2
        seg[read_ev.shape[0]:] += 1
        fps = _footprints(
            seg, rel, np.concatenate((read_loc, write_loc)), 2 * len(blocks)
        )
        return [
            AccessSummary(block.block_id, fps[2 * s], fps[2 * s + 1])
            for s, block in enumerate(blocks)
        ]


class ButterflyRaceCheck(
    ButterflyAnalysis[AccessSummary, Tuple[Any, Any]]
):
    """Conflict detection over the butterfly window.

    Each conflict is flagged in ``errors`` like any lifeguard's finding:
    kind ``UNSAFE_ISOLATION`` (a race *is* a metadata-free isolation
    violation), the body-side access as ``ref``, and the conflict class
    in ``detail`` (``"potential write-write conflict"``).

    ``use_columnar_kernel=False`` scans per ``Instr`` with the reference
    kernel (:class:`repro.verify.reference.ReferenceRaceScanner`), else
    the columnar :class:`RaceScanner` runs.
    """

    parallel_first_pass = True
    parallel_second_pass = True

    def __init__(self, use_columnar_kernel: Optional[bool] = None) -> None:
        self.use_columnar_kernel = use_columnar_kernel
        self.errors = ErrorLog()

    # -- step 1 ----------------------------------------------------------

    def make_scanner(self) -> Scanner:
        if self.use_columnar_kernel is False:
            from repro.verify.reference import ReferenceRaceScanner

            return ReferenceRaceScanner()
        return RaceScanner()

    # -- step 2 ------------------------------------------------------------

    def meet(
        self, butterfly: Butterfly, wings: List[AccessSummary]
    ) -> Tuple[Any, Any]:
        """The wings' read and write locations, each side one
        concatenation (repeats and all: the check only probes them)."""
        if not wings:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return (
            np.concatenate([w.reads.locs for w in wings]),
            np.concatenate([w.writes.locs for w in wings]),
        )

    # -- step 3 --------------------------------------------------------------

    def check_body(
        self, butterfly: Butterfly, side_in: Tuple[Any, Any]
    ) -> Tuple[Set[int], Set[int], Set[int]]:
        """Pure conflict intersections with the wings' union:
        write-write, body write vs wing read, body read vs wing write."""
        s = self.summaries[butterfly.body.block_id]
        wing_reads, wing_writes = side_in
        return (
            s.writes.hits(wing_writes),
            s.writes.hits(wing_reads),
            s.reads.hits(wing_writes),
        )

    def commit_check(
        self,
        butterfly: Butterfly,
        side_in: Tuple[Any, Any],
        result: Tuple[Set[int], Set[int], Set[int]],
    ) -> None:
        ww, wr, rw = result
        if not (ww or wr or rw):
            return
        body = butterfly.body
        s = self.summaries[body.block_id]
        rec = self.recorder
        # Ascending location within each conflict class: set order is
        # hash-dependent, sorting makes the flag order a function of
        # the trace alone.
        for hits, body_side, kind, wing_side in (
            (ww, s.writes, "write-write", "writes"),
            (wr, s.writes, "read-write", "reads"),
            (rw, s.reads, "read-write", "writes"),
        ):
            hits = sorted(hits)
            for loc, offset in zip(hits, body_side.first_offsets(hits)):
                if self.errors.record(
                    ErrorKind.UNSAFE_ISOLATION,
                    loc,
                    ref=body.global_ref(offset),
                    block=body.block_id,
                    detail=f"potential {kind} conflict",
                ) and rec.enabled:
                    wing = self._wing_touching(butterfly, loc, wing_side)
                    emit_error_event(
                        rec, body, ErrorKind.UNSAFE_ISOLATION, loc, offset,
                        "second", wing, conflict=kind,
                    )

    def _wing_touching(
        self, butterfly: Butterfly, loc: int, side: str
    ) -> Optional[BlockId]:
        """Provenance: the first wing whose ``side`` footprint (reads or
        writes) involves ``loc`` -- the access the conflict is blamed
        on."""
        for wing in butterfly.wings:
            if loc in getattr(self.summaries[wing.block_id], side):
                return wing.block_id
        return None

    def emit_metrics(self, recorder: Any) -> None:
        """End-of-run gauge: the conflict count."""
        recorder.gauge("racecheck.races", len(self.errors))

    # -- step 4 --------------------------------------------------------------

    def epoch_update(self, lid: int, summaries: Dict[BlockId, AccessSummary]) -> None:
        """Nothing to publish: conflict detection is stateless beyond
        the sliding window."""
