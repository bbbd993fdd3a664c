"""The original sequential lifeguards (paper Section 2).

These play two roles in the reproduction:

1. **Timesliced baseline** (Figure 11's state of the art): all
   application threads are interleaved onto one event stream and a
   single sequential lifeguard consumes it.
2. **Ground-truth oracle**: run over a *recorded* interleaving, the
   sequential lifeguard defines the true error set for that execution;
   butterfly reports are scored against it.

Both guards consume one event at a time through one per-event core
(``_step``, on an op code, destination, extent and sources): an
``Instr`` (:meth:`process`) in an order the caller enumerates
(:meth:`run`, :func:`true_errors_under_any_ordering`), or the recorded
order read straight off the threads' columns (:meth:`run_order`).
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

from repro.core.columnar import (
    OP_ASSIGN,
    OP_CODES,
    OP_FREE,
    OP_JUMP,
    OP_MALLOC,
    OP_NOP,
    OP_READ,
    OP_TAINT,
    OP_UNTAINT,
    OP_WRITE,
)
from repro.lifeguards.reports import ErrorKind, ErrorLog, ErrorReport
from repro.trace.events import Instr
from repro.trace.program import GlobalRef, TraceProgram


class _SequentialBase:
    """Shared stream plumbing for the two sequential guards."""

    def __init__(self) -> None:
        self.errors = ErrorLog()
        self.events_processed = 0

    def _step(self, ref, code, dst, size, srcs) -> None:
        """The per-event core: one event as its op code, destination
        (read only by the ops that have one), extent and sources;
        ``ref`` labels error reports."""
        raise NotImplementedError

    def process(self, ref: Optional[GlobalRef], instr: Instr) -> None:
        """Consume one ``Instr``."""
        self.events_processed += 1
        self._step(ref, OP_CODES[instr.op], instr.dst, instr.size, instr.srcs)

    def run(
        self, stream: Iterable[Tuple[Optional[GlobalRef], Instr]]
    ) -> ErrorLog:
        for ref, instr in stream:
            self.process(ref, instr)
        return self.errors

    def run_order(self, program: TraceProgram) -> ErrorLog:
        """Run over the program's recorded ground-truth interleaving,
        one per-thread cursor into the columns advancing per entry."""
        columns = [
            (c.op.tolist(), c.dst.tolist(), c.size.tolist(),
             c.src_off.tolist(), c.src_val.tolist())
            for c in (trace.columns for trace in program.threads)
        ]
        cursors = [0] * len(columns)
        step = self._step
        schedule = program.recorded_order().tolist()
        for t in schedule:
            i = cursors[t]
            cursors[t] = i + 1
            ops, dsts, sizes, offs, vals = columns[t]
            code = ops[i]
            if code != OP_NOP:  # nothing to either guard
                srcs = vals[offs[i]:offs[i + 1]]
                step((t, i), code, dsts[i], sizes[i], srcs)
        self.events_processed += len(schedule)
        return self.errors


class SequentialAddrCheck(_SequentialBase):
    """AddrCheck over a single serialized event stream.

    Maintains per-location allocation metadata; flags accesses to
    unallocated memory, double frees, and double allocations.
    """

    def __init__(self, initially_allocated: Iterable[int] = ()) -> None:
        super().__init__()
        self.allocated: Set[int] = set(initially_allocated)

    def _step(self, ref, code, dst, size, srcs) -> None:
        allocated = self.allocated
        if code == OP_MALLOC:
            for loc in range(dst, dst + size):
                if loc in allocated:
                    self.errors.record(
                        ErrorKind.MALLOC_ALLOCATED, loc, ref=ref,
                        detail="malloc of already-allocated location",
                    )
                allocated.add(loc)
            return
        if code == OP_FREE:
            for loc in range(dst, dst + size):
                if loc not in allocated:
                    self.errors.record(
                        ErrorKind.FREE_UNALLOCATED, loc, ref=ref,
                        detail="free of unallocated location",
                    )
                allocated.discard(loc)
            return
        # What the event dereferences (``Instr.accessed``).
        if code == OP_READ or code == OP_JUMP:
            accessed = srcs
        elif code == OP_WRITE or code == OP_ASSIGN:
            accessed = (*srcs, dst)
        else:
            return
        for loc in accessed:
            if loc not in allocated:
                self.errors.record(
                    ErrorKind.ACCESS_UNALLOCATED, loc, ref=ref,
                    detail="access to unallocated location",
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

    def _step(self, ref, code, dst, size, srcs) -> None:
        tainted = self.tainted
        if code == OP_TAINT:
            tainted.add(dst)
        elif code == OP_UNTAINT or code == OP_WRITE:
            tainted.discard(dst)
        elif code == OP_ASSIGN:
            if any(s in tainted for s in srcs):
                tainted.add(dst)
            else:
                tainted.discard(dst)
        elif code == OP_JUMP:
            loc = srcs[0]
            if loc in tainted:
                self.errors.record(
                    ErrorKind.TAINTED_JUMP, loc, ref=ref,
                    detail="tainted data used as jump target",
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
