"""Error reports and false-positive accounting.

Butterfly analysis trades precision for concurrency: every true error is
flagged (Theorems 6.1/6.2) but some safe events are flagged too.  The
harness quantifies that trade the way Figure 13 does -- flagged events
that the sequential lifeguard (run over the recorded ground-truth
interleaving) does not report are false positives, normalized by the
number of memory-accessing events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Set, Tuple

from repro.trace.program import GlobalRef


class ErrorKind(enum.Enum):
    """Canonical error vocabulary shared by sequential and butterfly
    lifeguards so reports are comparable across implementations."""

    #: AddrCheck: load/store/jump touched unallocated memory.
    ACCESS_UNALLOCATED = "access-unallocated"
    #: AddrCheck: free of memory that is not allocated (double free).
    FREE_UNALLOCATED = "free-unallocated"
    #: AddrCheck: malloc of memory that is already allocated.
    MALLOC_ALLOCATED = "malloc-allocated"
    #: AddrCheck (butterfly only): an allocation-state change was not
    #: isolated from potentially concurrent operations -- a race on the
    #: metadata state (Section 6.1).
    UNSAFE_ISOLATION = "unsafe-isolation"
    #: TaintCheck: tainted data used in a critical way (jump target).
    TAINTED_JUMP = "tainted-jump"


@dataclass(frozen=True)
class ErrorReport:
    """One flagged event.

    ``ref`` is the global ``(thread, trace index)`` of the flagged
    instruction when the error is instruction-precise; block-granularity
    errors (isolation violations) carry the block id in ``block`` and a
    representative ``ref`` of the first offending instruction.
    """

    kind: ErrorKind
    location: int
    ref: Optional[GlobalRef] = None
    block: Optional[Tuple[int, int]] = None
    detail: str = ""

    def identity(self) -> Tuple:
        """Dedup/matching key: where and what, ignoring prose."""
        return (self.kind, self.location, self.ref, self.block)


class ErrorLog:
    """Collects reports with deduplication.

    Two write paths share one log: :meth:`flag` takes a constructed
    :class:`ErrorReport`, while :meth:`record` takes the raw fields and
    defers constructing the report object until the log is read.  The
    raw path exists because report construction dominates hot lifeguard
    loops on error-dense workloads; reads see identical reports either
    way.
    """

    def __init__(self) -> None:
        #: Entries are ErrorReport objects or raw (kind, location, ref,
        #: block, detail) tuples; tuples are materialized lazily.
        self._entries: List[Any] = []
        self._seen: Set[Tuple] = set()
        self._has_raw = False

    def flag(self, report: ErrorReport) -> bool:
        """Record a report; returns False if an identical one exists."""
        key = report.identity()
        if key in self._seen:
            return False
        self._seen.add(key)
        self._entries.append(report)
        return True

    def record(
        self,
        kind: ErrorKind,
        location: int,
        ref: Optional[GlobalRef] = None,
        block: Optional[Tuple[int, int]] = None,
        detail: str = "",
    ) -> bool:
        """Deduplicating fast path: append raw fields, materialize later."""
        key = (kind, location, ref, block)
        seen = self._seen
        if key in seen:
            return False
        seen.add(key)
        self._entries.append((kind, location, ref, block, detail))
        self._has_raw = True
        return True

    @property
    def reports(self) -> List[ErrorReport]:
        if self._has_raw:
            entries = self._entries
            for i, e in enumerate(entries):
                if type(e) is tuple:
                    entries[i] = ErrorReport(
                        e[0], e[1], ref=e[2], block=e[3], detail=e[4]
                    )
            self._has_raw = False
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.reports)


@dataclass
class PrecisionReport:
    """False-positive accounting for one butterfly run vs. ground truth."""

    true_errors: int
    flagged: int
    true_positives: int
    false_positives: int
    false_negatives: int
    memory_ops: int

    @property
    def false_positive_rate(self) -> float:
        """False positives as a fraction of memory accesses (Figure 13)."""
        if self.memory_ops == 0:
            return 0.0
        return self.false_positives / self.memory_ops


def compare_reports(
    truth: Iterable[ErrorReport],
    flagged: Iterable[ErrorReport],
    memory_ops: int,
) -> PrecisionReport:
    """Match butterfly reports against sequential ground truth.

    A flagged event counts as a true positive when the ground truth
    contains an error at the same ``(ref, location)``; block-granularity
    flags match any truth event on the same location within the block's
    instruction range (conservative credit).  Everything else flagged is
    a false positive.  False negatives -- truth events never flagged --
    must be zero by Theorems 6.1/6.2 and the suite asserts exactly that.
    """
    truth_events: Set[Tuple[GlobalRef, int]] = set()
    for r in truth:
        if r.ref is not None:
            truth_events.add((r.ref, r.location))
    truth_locs = {loc for (_, loc) in truth_events}

    tp = 0
    fp = 0
    matched: Set[Tuple[GlobalRef, int]] = set()
    for r in flagged:
        if r.ref is not None and (r.ref, r.location) in truth_events:
            tp += 1
            matched.add((r.ref, r.location))
        elif r.block is not None and r.location in truth_locs:
            tp += 1
        else:
            fp += 1
    fn = len(truth_events - matched)
    # Any truth event whose location was flagged at block granularity is
    # still "caught" in the paper's sense; remove those from fn.
    flagged_block_locs = {
        r.location for r in flagged if r.block is not None
    }
    flagged_instr = {
        (r.ref, r.location) for r in flagged if r.ref is not None
    }
    fn = sum(
        1
        for ev in truth_events
        if ev not in flagged_instr and ev[1] not in flagged_block_locs
    )
    total_flagged = tp + fp
    return PrecisionReport(
        true_errors=len(truth_events),
        flagged=total_flagged,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        memory_ops=memory_ops,
    )
