"""The original sequential lifeguards (paper Section 2).

These play two roles in the reproduction:

1. **Timesliced baseline** (Figure 11's state of the art): all
   application threads are interleaved onto one event stream and a
   single sequential lifeguard consumes it.
2. **Ground-truth oracle**: run over a *recorded* interleaving, the
   sequential lifeguard defines the true error set for that execution;
   butterfly reports are scored against it.

Both guards consume one ``Instr`` at a time (:meth:`process`): in the
recorded order (:meth:`run_order`) or in one the caller enumerates
(:meth:`run`, :func:`true_errors_under_any_ordering`).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.lifeguards.reports import ErrorKind, ErrorLog, ErrorReport
from repro.trace.events import Instr, Op
from repro.trace.program import GlobalRef, TraceProgram


class _SequentialBase:
    """Shared stream plumbing for the two sequential guards."""

    def __init__(self) -> None:
        self.errors = ErrorLog()
        self.events_processed = 0

    def process(self, ref: Optional[GlobalRef], instr: Instr) -> None:
        raise NotImplementedError

    def run(
        self, stream: Iterable[Tuple[Optional[GlobalRef], Instr]]
    ) -> ErrorLog:
        for ref, instr in stream:
            self.process(ref, instr)
        return self.errors

    def run_order(self, program: TraceProgram) -> ErrorLog:
        """Run over the program's recorded ground-truth interleaving."""
        return self.run(program.iter_recorded())


class SequentialAddrCheck(_SequentialBase):
    """AddrCheck over a single serialized event stream.

    Maintains per-location allocation metadata; flags accesses to
    unallocated memory, double frees, and double allocations.
    """

    def __init__(self, initially_allocated: Iterable[int] = ()) -> None:
        super().__init__()
        self.allocated: Set[int] = set(initially_allocated)

    def process(self, ref: Optional[GlobalRef], instr: Instr) -> None:
        """Consume one event; ``ref`` labels error reports."""
        self.events_processed += 1
        if instr.op is Op.MALLOC:
            for loc in instr.extent:
                if loc in self.allocated:
                    self.errors.flag(
                        ErrorReport(
                            ErrorKind.MALLOC_ALLOCATED, loc, ref=ref,
                            detail="malloc of already-allocated location",
                        )
                    )
                self.allocated.add(loc)
        elif instr.op is Op.FREE:
            for loc in instr.extent:
                if loc not in self.allocated:
                    self.errors.flag(
                        ErrorReport(
                            ErrorKind.FREE_UNALLOCATED, loc, ref=ref,
                            detail="free of unallocated location",
                        )
                    )
                self.allocated.discard(loc)
        else:
            for loc in instr.accessed:
                if loc not in self.allocated:
                    self.errors.flag(
                        ErrorReport(
                            ErrorKind.ACCESS_UNALLOCATED, loc, ref=ref,
                            detail="access to unallocated location",
                        )
                    )

    # -- snapshot/restore (oracle prefix memoization) ------------------

    def snapshot_state(self) -> FrozenSet[int]:
        """Copy of the mutable metadata (the error log is append-only
        and deduplicating, so it is never rolled back)."""
        return frozenset(self.allocated)

    def restore_state(self, state: FrozenSet[int]) -> None:
        self.allocated = set(state)


class SequentialTaintCheck(_SequentialBase):
    """TaintCheck over a single serialized event stream.

    Tracks a tainted-location set; ASSIGN propagates the OR of its
    sources into the destination; WRITE stores trusted data (untaints);
    JUMP on a tainted location is an error.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tainted: Set[int] = set()

    def process(self, ref: Optional[GlobalRef], instr: Instr) -> None:
        self.events_processed += 1
        if instr.op is Op.TAINT:
            self.tainted.add(instr.dst)
        elif instr.op in (Op.UNTAINT, Op.WRITE):
            if instr.dst is not None:
                self.tainted.discard(instr.dst)
        elif instr.op is Op.ASSIGN:
            if any(s in self.tainted for s in instr.srcs):
                self.tainted.add(instr.dst)
            else:
                self.tainted.discard(instr.dst)
        elif instr.op is Op.JUMP:
            loc = instr.srcs[0]
            if loc in self.tainted:
                self.errors.flag(
                    ErrorReport(
                        ErrorKind.TAINTED_JUMP, loc, ref=ref,
                        detail="tainted data used as jump target",
                    )
                )

    # -- snapshot/restore (oracle prefix memoization) ------------------

    def snapshot_state(self) -> FrozenSet[int]:
        """See :meth:`SequentialAddrCheck.snapshot_state`."""
        return frozenset(self.tainted)

    def restore_state(self, state: FrozenSet[int]) -> None:
        self.tainted = set(state)


def true_errors_under_any_ordering(
    program: Optional[TraceProgram],
    orders: Iterable[List[GlobalRef]],
    lifeguard: str = "addrcheck",
    *,
    preallocated: Iterable[int] = (),
    instr_of: Optional[Callable[[GlobalRef], Instr]] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Dict[Tuple, ErrorReport]:
    """Union of sequential-lifeguard errors over a set of orderings.

    The zero-false-negative theorems quantify over *valid orderings*;
    this helper computes, for small traces, every error any ordering
    exhibits, keyed by identity, so tests can assert butterfly coverage.

    Consecutive orderings out of :func:`repro.core.ordering.
    all_valid_orderings` are DFS siblings sharing long common prefixes,
    so instead of a fresh full replay per ordering the enumerator keeps
    one guard plus a per-position stack of state snapshots: each new
    ordering restores the snapshot at its longest common prefix with
    the previous one and replays only the divergent suffix.  The error
    log is never rolled back -- a report emitted during a suffix replay
    is genuinely reachable under that ordering (the metadata state was
    restored exactly), and the union over orderings is insensitive to
    which ordering first exhibits an identity.

    ``instr_of`` maps an ordering ref to its :class:`Instr` (defaults
    to ``program.instr_at``, for refs that are global ``(tid, index)``
    pairs; pass e.g. ``partition.instr`` for ``(lid, tid, i)`` ids).
    ``stats``, when given, is filled with ``orderings``,
    ``events_total`` (what fresh per-ordering replays would cost) and
    ``events_replayed`` (suffix events actually processed).
    """
    if instr_of is None:
        if program is None:
            raise ValueError("need a program or an explicit instr_of")
        instr_of = program.instr_at
    guard = (
        SequentialAddrCheck(preallocated)
        if lifeguard == "addrcheck"
        else SequentialTaintCheck()
    )
    # snapshots[k] is the metadata state after the previous ordering's
    # first k events.
    snapshots: List = [guard.snapshot_state()]
    prev: List[GlobalRef] = []
    orderings = 0
    events_total = 0
    for order in orders:
        orderings += 1
        events_total += len(order)
        k = 0
        limit = min(len(prev), len(order))
        while k < limit and prev[k] == order[k]:
            k += 1
        guard.restore_state(snapshots[k])
        del snapshots[k + 1:]
        for ref in order[k:]:
            guard.process(ref, instr_of(ref))
            snapshots.append(guard.snapshot_state())
        prev = list(order)
    if stats is not None:
        stats["orderings"] = orderings
        stats["events_total"] = events_total
        stats["events_replayed"] = guard.events_processed
    return {r.identity(): r for r in guard.errors}
