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
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    """Collects flags with deduplication, each as the row a report carries.

    A row is ``(kind, location, ref, block, detail)``: ``kind`` an
    :class:`ErrorKind`'s value, ``ref`` and ``block`` int pairs or
    ``None``.  Atomic values only (no enum member, no list), so the cyclic
    collector untracks a row once it survives a collection and never
    walks it again.  :meth:`record` is the one way in; :attr:`reports`
    builds :class:`ErrorReport` objects from :attr:`rows`.
    """

    def __init__(self, rows: Iterable[Tuple] = ()) -> None:
        #: The flags, in flag order.  Not to be mutated.
        self.rows: List[Tuple] = list(rows)
        self._seen: Set[Tuple] = {row[:4] for row in self.rows}

    def record(
        self,
        kind: ErrorKind,
        location: int,
        ref: Optional[GlobalRef] = None,
        block: Optional[Tuple[int, int]] = None,
        detail: str = "",
    ) -> bool:
        """Append a flag's row; returns False if one with the same first
        four fields (:meth:`ErrorReport.identity`) exists."""
        # ``_value_`` is the member's plain attribute: ``kind.value`` is
        # a Python-level property, and the str hashes in C.
        key = (kind._value_, location, ref, block)
        seen = self._seen
        if key in seen:
            return False
        seen.add(key)
        self.rows.append(key + (detail,))
        return True

    @property
    def reports(self) -> List[ErrorReport]:
        return [
            ErrorReport(ErrorKind(kind), location, ref, block, detail)
            for kind, location, ref, block, detail in self.rows
        ]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.reports)


#: A flag row's ``kind`` and ``detail`` as JSON strings, by value: a
#: run flags a handful of distinct strings thousands of times.
_JSON_TEXT: Dict[str, str] = {}


def _json_text(text: str) -> str:
    encoded = _JSON_TEXT.get(text)
    if encoded is None:
        encoded = _JSON_TEXT[text] = json.dumps(text)
    return encoded


def row_lines(rows: Sequence[Tuple]) -> str:
    """``rows`` as JSON lines, one ``[kind, location, ref, block,
    detail]`` array each -- the form a REPORT carries a flag in.

    Formatted directly (the fields are a string, an int, two int pairs
    or ``None``, and a string): ``json.dumps`` per row costs three times
    as much."""
    return "".join([
        f'[{_json_text(kind)},{location},'
        f'{"null" if ref is None else "[%d,%d]" % ref},'
        f'{"null" if block is None else "[%d,%d]" % block},'
        f'{_json_text(detail)}]\n'
        for kind, location, ref, block, detail in rows
    ])


def emit_error_event(
    recorder: Any,
    block: Any,
    kind: ErrorKind,
    location: int,
    index: int,
    stage: str,
    wing: Optional[Tuple[int, int]] = None,
    **extra: Any,
) -> None:
    """The ``error`` provenance event of one fresh flag (the schema in
    ``docs/observability.md``): the flagged instruction as its block id,
    offset and global ref, the pass that flagged it (``"first"`` or
    ``"second"``), the wing block blamed (``None`` when no single wing
    is), and a lifeguard's extra fields (RaceCheck's ``conflict``).
    Callers guard it with ``recorder.enabled``."""
    lid, tid = block.block_id
    recorder.event(
        "error",
        kind=kind.value,
        location=location,
        epoch=lid,
        thread=tid,
        index=index,
        ref=list(block.global_ref(index)),
        stage=stage,
        **extra,
        wing=list(wing) if wing is not None else None,
    )


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
    contains an error at the same ``(ref, location)``; a block-granularity
    flag matches any truth event on the same location, anywhere in the
    trace -- not only within the flagged block (conservative credit), and
    a truth event whose location was so flagged counts as caught.
    Everything else flagged is a false positive.  False negatives -- truth
    events never flagged -- must be zero by Theorems 6.1/6.2 and the
    suite asserts exactly that.
    """
    truth_events: Set[Tuple[GlobalRef, int]] = set()
    for r in truth:
        if r.ref is not None:
            truth_events.add((r.ref, r.location))
    truth_locs = {loc for (_, loc) in truth_events}

    tp = 0
    fp = 0
    # ``flagged`` may be a one-shot iterable: read it once.  A truth
    # event whose location was flagged at block granularity is still
    # "caught" in the paper's sense.
    flagged_instr: Set[Tuple[GlobalRef, int]] = set()
    flagged_block_locs: Set[int] = set()
    for r in flagged:
        if r.ref is not None:
            flagged_instr.add((r.ref, r.location))
        if r.block is not None:
            flagged_block_locs.add(r.location)
        if r.ref is not None and (r.ref, r.location) in truth_events:
            tp += 1
        elif r.block is not None and r.location in truth_locs:
            tp += 1
        else:
            fp += 1
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
