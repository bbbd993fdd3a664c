"""Butterfly AddrCheck (paper Section 6.1).

AddrCheck instantiates reaching expressions with allocation as GEN and
deallocation as KILL: a location "reaches" a point iff it is allocated
along every valid ordering.  The checking algorithm has two parts:

1. **First pass (thread-local)**: every access or free must find its
   location allocated in the incrementally updated ``LSOS_{l,t,i}``;
   every malloc must find it deallocated.
2. **Second pass (isolation)**: using the wing summaries
   ``S = (GEN, KILL, ACCESS)``, any overlap between the body's
   allocation-state changes and the wings' operations -- or between the
   body's accesses and the wings' state changes -- is a race on the
   metadata state and is flagged (Figure 9's non-isolated allocation).

Zero false negatives (Theorem 6.1) holds because the valid orderings
considered are a superset of real machine orderings; the price is false
positives near epoch boundaries, which Figure 13 quantifies.

The first pass runs as a picklable :class:`AddrScanner` against a
pre-computed LSOS view (so the engine may fan blocks out across a
backend), errors are recorded via the raw tuple fast path, and the
isolation check intersects the body with the union of the wings'
*change* sets only -- the one thing it reads.  The per-instruction
implementation this replaced lives on as the differential-testing
oracle of the ``optref`` fuzz mode,
:class:`repro.verify.reference.ReferenceAddrCheck`, with identical
reports and identical work counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.core.columnar import (
    HAVE_NUMPY,
    OP_ASSIGN,
    OP_FREE,
    OP_JUMP,
    OP_MALLOC,
    OP_READ,
    OP_WRITE,
    ColumnarBlock,
    np,
)
from repro.core.dataflow import BlockFacts
from repro.core.epoch import Block, BlockId
from repro.core.framework import ButterflyAnalysis
from repro.core.state import SOSHistory, SOSView
from repro.core.window import Butterfly
from repro.lifeguards.reports import ErrorKind, ErrorLog
from repro.trace.events import Op

if HAVE_NUMPY:
    # Op-class lookup tables indexed by the uint8 op column: one fancy
    # index replaces a chain of elementwise comparisons per block.
    _ACC_LUT = np.zeros(256, dtype=bool)
    _ACC_LUT[[OP_READ, OP_WRITE, OP_ASSIGN, OP_JUMP]] = True
    _DST_LUT = np.zeros(256, dtype=np.int64)
    _DST_LUT[[OP_WRITE, OP_ASSIGN]] = 1
else:  # pragma: no cover - tables are only consulted on the numpy path
    _ACC_LUT = _DST_LUT = None

_DETAIL_MALLOC = "malloc of location believed allocated"
_DETAIL_FREE = "free of location believed unallocated"
_DETAIL_ACCESS = "access to location believed unallocated"
_DETAIL_CHANGE_RACE = "allocation-state change concurrent with another"
_DETAIL_ACCESS_RACE = "access concurrent with an allocation-state change"


#: ``_epoch_killers`` value for a location two or more threads finally
#: free in one epoch (no thread id is negative).
_MANY_KILLERS = -1


def _final_kills(facts: BlockFacts) -> Set[int]:
    """``KILL_{l,t}`` as a set: every location whose last allocation
    event in the block is a free, i.e. exactly the ``loc`` for which
    :meth:`ButterflyAddrCheck._kills` holds.  Sized by the block's own
    MALLOC/FREE events."""
    last_event = facts.last_event
    kills = {loc for loc, event in last_event.items() if event == "kill"}
    kills.update(facts.killed_vars - last_event.keys())
    return kills


@dataclass
class AddrSummary:
    """Per-block summary ``s_{l,t} = (GEN, KILL, ACCESS)``.

    ``facts`` carries the allocation-domain block facts (downward-exposed
    allocations, freed locations, last-event map) used by the SOS/LSOS
    rules; ``gen``/``kill``/``access`` are the side-out views (union over
    instructions) used by the isolation check.
    """

    facts: BlockFacts
    access: Set[int] = field(default_factory=set)
    first_change: Dict[int, int] = field(default_factory=dict)
    first_access: Dict[int, int] = field(default_factory=dict)

    @property
    def gen(self) -> Set[int]:
        """All locations allocated anywhere in the block."""
        return self.facts.all_gen

    @property
    def kill(self) -> Set[int]:
        """All locations freed anywhere in the block."""
        return self.facts.killed_vars

    @property
    def block_id(self) -> BlockId:
        return self.facts.block_id


class WingChanges(NamedTuple):
    """The isolation check's side-in: the union of the wings' GEN and KILL --
    all the isolation check reads of them -- and the meet's element
    count, which the (pure) meet defers to the ordered commit."""

    changed: Set[int]
    meet_work: int


@dataclass
class AddrScan:
    """Raw result of scanning one block: summary sets, error records as
    ``(kind, location, instr index, detail)`` tuples, and counters."""

    gen: Set[int]
    all_gen: Set[int]
    killed_vars: Set[int]
    last_event: Dict[int, str]
    access: Set[int]
    first_change: Dict[int, int]
    first_access: Dict[int, int]
    errors: List[Tuple[ErrorKind, int, int, str]]
    events: int
    checks: int
    accesses: int
    allocs: int


@dataclass(frozen=True)
class AddrScanner:
    """Picklable first-pass work unit.

    ``context`` is the block's starting LSOS, an
    :class:`~repro.core.state.SOSView`: the published ``SOS_l`` as the
    shared, read-only ``base`` under the head's GEN/KILL in a private
    overlay.  That overlay is the scan's running state -- a malloc or
    free edits ``added``/``removed``, never the base -- so an epoch's
    scans may run concurrently on any backend, and everything else the
    scan needs travels with the block, so the unit crosses process
    boundaries.  The LSOS is the whole live heap and a block touches a
    sliver of it, so both kernels only ever *probe* it -- per location
    the block names -- and never copy, enumerate or re-encode it.

    Two interchangeable scan kernels produce bit-identical
    :class:`AddrScan` results (the ``columnar`` differential-fuzz mode
    diffs them end to end):

    - the *object* kernel, a per-``Instr`` Python loop;
    - the *columnar* kernel, vectorized over the block's column arrays.

    ``columnar=None`` picks automatically: the vector kernel runs when
    numpy is available and the block is already columnar-backed, so
    neither kernel ever pays a representation conversion (converting an
    object block just to vectorize costs as much as scanning it).
    ``True``/``False`` force a kernel (benchmarks and the differential
    harness use both).
    """

    use_idempotent_filter: bool
    columnar: Optional[bool] = None

    def __call__(self, block: Block, running: SOSView) -> AddrScan:
        if HAVE_NUMPY and self.columnar is not False:
            if self.columnar or block.has_columns:
                return self._scan_columns(block.columns, running)
        return self._scan_objects(block, running)

    def _scan_objects(self, block: Block, running: SOSView) -> AddrScan:
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
        access: Set[int] = set()
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
                    access.add(loc)
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
            access=access,
            first_change=first_change,
            first_access=first_access,
            errors=errors,
            events=events,
            checks=checks,
            accesses=accesses,
            allocs=allocs,
        )

    def _scan_columns(
        self, cols: ColumnarBlock, running: SOSView
    ) -> AddrScan:
        """Vectorized first pass over column arrays.

        Key observation: MALLOC/FREE events only ever change the
        allocation state and filter arming of the locations in their
        extents.  Call a location *stable* when no change event in the
        block touches it: a stable location's ``running`` membership and
        filter state are constant across the whole block, so all of its
        checks reduce to one block-level membership query -- no matter
        how many change events interleave.  The kernel therefore
        flattens every dereferenced location into one access stream
        (CSR expansion, srcs before dst exactly like ``Instr.accessed``)
        and resolves stable locations wholesale with a handful of
        C-level passes over the block's arrays (plus one ``running.base``
        probe per unique location, patched at the few locations
        ``running``'s overlay names); only the (typically rare) accesses
        to changed locations plus the change events themselves are
        replayed with the exact scalar semantics, and every error record
        carries its stream position so the merged error list comes out
        in event order.  The result is bit-identical to
        :meth:`_scan_objects`.
        """
        n = cols.length
        ops = np.asarray(cols.op)
        dst_col = np.asarray(cols.dst)
        size_col = np.asarray(cols.size)
        src_off = np.asarray(cols.src_off)
        src_val = np.asarray(cols.src_val)

        gen: Set[int] = set()
        all_gen: Set[int] = set()
        killed_vars: Set[int] = set()
        last_event: Dict[int, str] = {}
        access: Set[int] = set()
        first_change: Dict[int, int] = {}
        first_access: Dict[int, int] = {}
        errors: List[Tuple[ErrorKind, int, int, str]] = []
        checked: Set[int] = set()
        checks = 0
        accesses = 0
        allocs = 0
        use_filter = self.use_idempotent_filter

        # Flatten every dereferenced location into ``acc_loc``: per
        # event, sources in order then (for WRITE/ASSIGN) the
        # destination -- the exact order of the scalar loop.  Op-class
        # tests are one table-lookup pass over the uint8 op column.
        cnt = np.diff(src_off)
        is_acc = _ACC_LUT[ops]
        src_cnt = np.where(is_acc, cnt, 0)
        dst_extra = _DST_LUT[ops]
        tot = src_cnt + dst_extra
        acc_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(tot, out=acc_off[1:])
        total = int(acc_off[-1])
        acc_loc = np.empty(total, dtype=np.int64)
        if total:
            dst_ev = np.flatnonzero(dst_extra)
            dst_pos = acc_off[dst_ev] + src_cnt[dst_ev]
            if bool((cnt[~is_acc] != 0).any()):
                # Some non-access event carries sources: filter them out
                # of the flattened source stream before scattering.
                src_ev = np.repeat(np.arange(n, dtype=np.int64), cnt)
                keep = is_acc[src_ev]
                kept_ev = src_ev[keep]
                # The kept sources of event e are contiguous starting at
                # kept_start[e]; shift each run to its slot in acc_loc.
                kept_start = np.cumsum(src_cnt) - src_cnt
                pos = (acc_off[:-1] - kept_start)[kept_ev] + np.arange(
                    kept_ev.shape[0], dtype=np.int64
                )
                acc_loc[pos] = src_val[keep]
            elif src_val.shape[0]:
                # All sources belong to access events (the usual case):
                # the slots that are not destination slots are exactly
                # the sources in stream order.
                is_src_slot = np.ones(total, dtype=bool)
                is_src_slot[dst_pos] = False
                acc_loc[is_src_slot] = src_val
            acc_loc[dst_pos] = dst_col[dst_ev]

        def _ev_at(pos: Any) -> Any:
            # Recover event ids for (sparse) occurrence positions: event
            # ``e`` owns access slots ``acc_off[e] .. acc_off[e+1]-1``,
            # so a binary search beats materializing the full repeat.
            return np.searchsorted(acc_off, pos, side="right") - 1

        change_idx = np.flatnonzero((ops == OP_MALLOC) | (ops == OP_FREE))
        change_list = change_idx.tolist()
        change_ops = ops[change_idx].tolist()
        change_dst = dst_col[change_idx].tolist()
        change_size = size_col[change_idx].tolist()
        #: Access-stream slots preceding each change event: accesses at
        #: positions < change_off[ci] happen before change event ci.
        change_off = acc_off[change_idx].tolist()

        changed_locs: Set[int] = set()
        for d, s in zip(change_dst, change_size):
            changed_locs.update(range(d, d + s))

        # Errors are collected with a stream-position sort key and
        # merged at the end: access errors at occurrence position ``p``
        # key as ``(p, 1, ...)``, change-event errors at event ``ci``
        # (whose extent locations error in order ``k``) key as
        # ``(change_off[ci], 0, ci, k)`` -- an access sharing a change's
        # offset happens *after* it, hence the 1-vs-0 middle component.
        keyed: List[Tuple[Tuple[int, int, int, int],
                          Tuple[ErrorKind, int, int, str]]] = []

        # Replayed occurrences: accesses whose location a change event
        # touches, as (position, location, event) in stream order.
        sub: List[Tuple[int, int, int]] = []

        accesses = total
        if total:
            # ``access``/``first_access`` are pure functions of the
            # access stream (no allocation state, no filter), computed
            # wholesale: the first occurrence of a location in the
            # stream IS its first occurrence in event order.
            lo = int(acc_loc.min())
            hi = int(acc_loc.max())
            span = hi - lo + 1
            dense = span <= max(4 * total, 1 << 16)
            if dense:
                # Dense location domain (the usual case): reversed
                # scatter-assign finds first occurrences in O(n + span)
                # without the sort ``np.unique`` would pay.
                rel = acc_loc - lo
                first_slot = np.full(span, -1, dtype=np.int64)
                first_slot[rel[::-1]] = np.arange(
                    total - 1, -1, -1, dtype=np.int64
                )
                uniq_rel = np.flatnonzero(first_slot >= 0)
                uniq = uniq_rel + lo
                first_pos = first_slot[uniq_rel]
                inv = None
            else:
                uniq, first_pos, inv = np.unique(
                    acc_loc, return_index=True, return_inverse=True
                )
                rel = uniq_rel = None

            uniq_list = uniq.tolist()
            access.update(uniq_list)
            first_access.update(zip(uniq_list, _ev_at(first_pos).tolist()))

            # Membership of the block's unique locations in the LSOS and
            # in the changed set: probe the Python sets already in hand,
            # one hash lookup per *block* location.  Turning the LSOS
            # into an array to vectorize the test costs O(|LSOS|) per
            # block, and the LSOS is the whole live heap.  The probe goes
            # to the view's base at C level; its overlay (the head's few
            # changes) then overrides the entries it names (``uniq`` is
            # ascending on both branches above).
            n_uniq = len(uniq_list)
            in_run = np.fromiter(
                map(running.base.__contains__, uniq_list),
                dtype=bool,
                count=n_uniq,
            )
            for locs, member in (
                (running.removed, False), (running.added, True)
            ):
                if locs:
                    ov = np.fromiter(locs, dtype=np.int64, count=len(locs))
                    at = np.minimum(np.searchsorted(uniq, ov), n_uniq - 1)
                    in_run[at[uniq[at] == ov]] = member
            if changed_locs:
                is_changed = np.fromiter(
                    map(changed_locs.__contains__, uniq_list),
                    dtype=bool,
                    count=n_uniq,
                )
                stable = ~is_changed
                if is_changed.any():
                    if dense:
                        mark = np.zeros(span, dtype=bool)
                        mark[uniq_rel[is_changed]] = True
                        occ = mark[rel]
                    else:
                        occ = is_changed[inv]
                    sub_pos = np.flatnonzero(occ)
                    sub = list(zip(
                        sub_pos.tolist(),
                        acc_loc[sub_pos].tolist(),
                        _ev_at(sub_pos).tolist(),
                    ))
            else:
                stable = np.ones(uniq.shape[0], dtype=bool)

            if use_filter:
                # Each stable location: exactly one check, at its first
                # occurrence, against the initial running set.
                checks += int(stable.sum())
                checked.update(uniq[stable].tolist())
                bad_u = stable & ~in_run
                if bad_u.any():
                    bad_pos = first_pos[bad_u]
                    for p, u, e in zip(
                        bad_pos.tolist(),
                        uniq[bad_u].tolist(),
                        _ev_at(bad_pos).tolist(),
                    ):
                        keyed.append((
                            (p, 1, 0, 0),
                            (ErrorKind.ACCESS_UNALLOCATED, u, e,
                             _DETAIL_ACCESS),
                        ))
            else:
                # Every occurrence of a stable location is a check (and
                # an error per occurrence when unallocated).
                checks += total - len(sub)
                bad_u = stable & ~in_run
                if bad_u.any():
                    if dense:
                        mark = np.zeros(span, dtype=bool)
                        mark[uniq_rel[bad_u]] = True
                        occ = mark[rel]
                    else:
                        occ = bad_u[inv]
                    bad_pos = np.flatnonzero(occ)
                    for p, u, e in zip(
                        bad_pos.tolist(),
                        acc_loc[bad_pos].tolist(),
                        _ev_at(bad_pos).tolist(),
                    ):
                        keyed.append((
                            (p, 1, 0, 0),
                            (ErrorKind.ACCESS_UNALLOCATED, u, e,
                             _DETAIL_ACCESS),
                        ))

        # Replay, in stream order, the accesses that touch changed
        # locations interleaved with the change events themselves --
        # exact scalar semantics against the live ``running``/filter.
        def _replay_access(p: int, u: int, e: int) -> None:
            nonlocal checks
            if use_filter:
                if u in checked:
                    return
                checked.add(u)
            checks += 1
            if u not in running:
                keyed.append((
                    (p, 1, 0, 0),
                    (ErrorKind.ACCESS_UNALLOCATED, u, e, _DETAIL_ACCESS),
                ))

        si = 0
        nsub = len(sub)
        for ci, c in enumerate(change_list):
            coff = change_off[ci]
            while si < nsub and sub[si][0] < coff:
                _replay_access(*sub[si])
                si += 1
            dst = change_dst[ci]
            if change_ops[ci] == OP_MALLOC:
                for k, loc in enumerate(range(dst, dst + change_size[ci])):
                    allocs += 1
                    checked.discard(loc)
                    if loc in running:
                        keyed.append((
                            (coff, 0, ci, k),
                            (ErrorKind.MALLOC_ALLOCATED, loc, c,
                             _DETAIL_MALLOC),
                        ))
                    running.add(loc)
                    gen.add(loc)
                    all_gen.add(loc)
                    last_event[loc] = "gen"
                    if loc not in first_change:
                        first_change[loc] = c
            else:
                for k, loc in enumerate(range(dst, dst + change_size[ci])):
                    allocs += 1
                    checked.discard(loc)
                    if loc not in running:
                        keyed.append((
                            (coff, 0, ci, k),
                            (ErrorKind.FREE_UNALLOCATED, loc, c,
                             _DETAIL_FREE),
                        ))
                    running.discard(loc)
                    killed_vars.add(loc)
                    gen.discard(loc)
                    last_event[loc] = "kill"
                    if loc not in first_change:
                        first_change[loc] = c
        while si < nsub:
            _replay_access(*sub[si])
            si += 1

        keyed.sort(key=lambda kv: kv[0])
        errors.extend(rec for _, rec in keyed)
        return AddrScan(
            gen=gen,
            all_gen=all_gen,
            killed_vars=killed_vars,
            last_event=last_event,
            access=access,
            first_change=first_change,
            first_access=first_access,
            errors=errors,
            events=n,
            checks=checks,
            accesses=accesses,
            allocs=allocs,
        )


class ButterflyAddrCheck(ButterflyAnalysis[AddrSummary, Any]):
    """The parallel, heap-only AddrCheck of the paper's evaluation.

    Parameters
    ----------
    initially_allocated:
        Locations treated as allocated from the start (e.g. globals);
        the paper's heap-only lifeguard starts empty.
    use_idempotent_filter:
        Model LBA's idempotent filtering (Section 7.1): repeated checks
        of a location within one block are skipped, and the filter is
        conceptually flushed at every epoch boundary (filtering never
        crosses epochs).  An allocation-state change re-arms the check.
    use_columnar_kernel:
        Kernel selection for the first pass: ``None`` (auto,
        the default -- vectorize when numpy is available and the block
        is columnar-backed), ``True`` (always vectorize) or ``False``
        (always scan per-``Instr``).  See :class:`AddrScanner`.
    """

    parallel_first_pass = True
    parallel_second_pass = True

    def __init__(
        self,
        initially_allocated: Iterable[int] = (),
        use_idempotent_filter: bool = True,
        use_columnar_kernel: Optional[bool] = None,
    ) -> None:
        self.sos = SOSHistory(initial=initially_allocated)
        self.use_idempotent_filter = use_idempotent_filter
        self.use_columnar_kernel = use_columnar_kernel
        self.errors = ErrorLog()
        self._summaries: Dict[BlockId, AddrSummary] = {}
        #: Per resident epoch: location -> the one thread whose block
        #: finally frees it there, or ``_MANY_KILLERS`` (built once per
        #: epoch by :meth:`epoch_update`, evicted with the summaries).
        self._epoch_killers: Dict[int, Dict[int, int]] = {}
        #: Per-block work counters consumed by the timing substrate:
        #: ``events`` (log records dispatched), ``checks`` (metadata
        #: checks after idempotent filtering), ``accesses`` (pre-filter
        #: location accesses), ``flags`` (errors raised), ``meet`` and
        #: ``iso`` (set-operation element counts in steps 2-3).  The
        #: per-epoch maxima of these drive the barrier-synchronized
        #: lifeguard timing model.
        self.block_work: Dict[BlockId, Dict[str, int]] = {}
        self.recorded_accesses = 0

    def emit_metrics(self, recorder: Any) -> None:
        """End-of-run gauges: access volume and errors, deterministic
        functions of the trace (they compare equal across backends)."""
        recorder.gauge("addrcheck.recorded_accesses", self.recorded_accesses)
        recorder.gauge("addrcheck.errors", len(self.errors))

    # -- step 1: local pass with LSOS checks ------------------------------

    def make_scanner(self) -> AddrScanner:
        return AddrScanner(self.use_idempotent_filter, self.use_columnar_kernel)

    def first_pass_context(self, block: Block) -> SOSView:
        lid, tid = block.block_id
        return self._compute_lsos(lid, tid)

    def commit_scan(self, block: Block, scan: AddrScan) -> AddrSummary:
        block_id = block.block_id
        facts = BlockFacts(
            block_id=block_id,
            gen=scan.gen,
            all_gen=scan.all_gen,
            killed_vars=scan.killed_vars,
            last_event=scan.last_event,
        )
        summary = AddrSummary(
            facts=facts,
            access=scan.access,
            first_change=scan.first_change,
            first_access=scan.first_access,
        )
        errors = self.errors
        flags = 0
        rec = self.recorder
        emit = rec.enabled
        for kind, loc, i, detail in scan.errors:
            if errors.record(kind, loc, ref=block.global_ref(i), detail=detail):
                flags += 1
                if emit:
                    rec.event(
                        "error",
                        kind=kind.value,
                        location=loc,
                        epoch=block_id[0],
                        thread=block_id[1],
                        index=i,
                        ref=list(block.global_ref(i)),
                        stage="first",
                        wing=None,
                    )
        self.recorded_accesses += scan.accesses
        self.block_work[block_id] = {
            "events": scan.events,
            "checks": scan.checks,
            "accesses": scan.accesses,
            "allocs": scan.allocs,
            "flags": flags,
            "meet": 0,
            "iso": 0,
        }
        self._summaries[block_id] = summary
        return summary

    # -- step 2: meet (elementwise union of wing summaries) ----------------

    def meet(
        self, butterfly: Butterfly, wing_summaries: List[AddrSummary]
    ) -> WingChanges:
        # The wings' ACCESS sets count as meet work (the paper's
        # S = (GEN, KILL, ACCESS)) but no check reads their union, so
        # only the change sets -- tens of locations -- are built.
        changed: Set[int] = set()
        work = 0
        for s in wing_summaries:
            f = s.facts
            changed |= f.all_gen
            changed |= f.killed_vars
            work += len(f.all_gen) + len(f.killed_vars) + len(s.access)
        return WingChanges(changed, work)

    # -- step 3: isolation check -------------------------------------------

    def check_body(
        self, butterfly: Butterfly, side_in: WingChanges
    ) -> Tuple[Set[int], Set[int]]:
        """Pure isolation intersections against the wings' change set
        (each sized by the smaller operand): racing state changes and
        accesses racing a state change."""
        s = self._summaries[butterfly.body.block_id]
        f = s.facts
        wing_changed = side_in.changed
        return (
            (f.all_gen | f.killed_vars) & wing_changed,
            s.access & wing_changed,
        )

    def commit_check(
        self,
        butterfly: Butterfly,
        side_in: WingChanges,
        result: Tuple[Set[int], Set[int]],
    ) -> None:
        change_hits, access_hits = result
        body = butterfly.body
        block_id = body.block_id
        s = self._summaries[block_id]
        errors = self.errors
        rec = self.recorder
        emit = rec.enabled
        flags = 0
        # Sorted location order: set order is hash-dependent; sorting
        # makes the report order a function of the trace alone, so this
        # class and the reference one are bit-identical (the fuzz
        # harness's optref mode diffs them report-for-report).
        for loc in sorted(change_hits):
            if errors.record(
                ErrorKind.UNSAFE_ISOLATION,
                loc,
                ref=body.global_ref(s.first_change[loc]),
                block=block_id,
                detail=_DETAIL_CHANGE_RACE,
            ):
                flags += 1
                if emit:
                    self._emit_isolation_event(
                        butterfly, loc, s.first_change[loc]
                    )
        for loc in sorted(access_hits):
            if errors.record(
                ErrorKind.UNSAFE_ISOLATION,
                loc,
                ref=body.global_ref(s.first_access[loc]),
                block=block_id,
                detail=_DETAIL_ACCESS_RACE,
            ):
                flags += 1
                if emit:
                    self._emit_isolation_event(
                        butterfly, loc, s.first_access[loc]
                    )
        work = self.block_work[block_id]
        work["flags"] += flags
        work["iso"] += len(s.facts.all_gen | s.facts.killed_vars) + len(
            s.access
        )
        work["meet"] += side_in.meet_work

    def _wing_with_change(
        self, butterfly: Butterfly, loc: int
    ) -> Optional[BlockId]:
        """Provenance: the first wing block whose GEN/KILL involves
        ``loc`` -- the concurrent state change the isolation flag is
        blaming.  Set-based so the reference class attributes
        identically."""
        for wing in butterfly.wings:
            s = self._summaries.get(wing.block_id)
            if s is None:
                continue
            facts = s.facts
            if loc in facts.all_gen or loc in facts.killed_vars:
                return wing.block_id
        return None

    def _emit_isolation_event(
        self, butterfly: Butterfly, loc: int, offset: int
    ) -> None:
        body = butterfly.body
        wing = self._wing_with_change(butterfly, loc)
        self.recorder.event(
            "error",
            kind=ErrorKind.UNSAFE_ISOLATION.value,
            location=loc,
            epoch=body.block_id[0],
            thread=body.block_id[1],
            index=offset,
            ref=list(body.global_ref(offset)),
            stage="second",
            wing=list(wing) if wing is not None else None,
        )

    # -- step 4: epoch summary and SOS update --------------------------------

    def epoch_update(
        self, lid: int, summaries: Dict[BlockId, AddrSummary]
    ) -> None:
        """Reaching-expressions epoch rules with allocation elements:
        ``KILL_l`` is any block-level kill; ``GEN_l`` keeps allocations
        every other thread either window-exposes or never frees."""
        num_threads = len(summaries)
        gen_l: Set[int] = set()
        for (l, t), s in summaries.items():
            for loc in s.facts.gen:
                if self._epoch_gen_holds(loc, lid, t, num_threads):
                    gen_l.add(loc)

        # Who finally kills what in this epoch: location -> the killing
        # thread, or _MANY_KILLERS.  Its keys are KILL_l; the LSOS of
        # epoch l+2 reads it for the sibling-kill rule.
        killers: Dict[int, int] = {}
        for (_, t), s in summaries.items():
            for loc in _final_kills(s.facts):
                killers[loc] = t if loc not in killers else _MANY_KILLERS
        self._epoch_killers[lid] = killers

        self.sos.publish(lid, gen_l, killers.keys())
        self._evict(lid - 1)

    def evict_history(self, before: int) -> None:
        self.sos.evict(before)

    # -- helpers ----------------------------------------------------------------

    def _facts(self, lid: int, tid: int) -> Optional[BlockFacts]:
        s = self._summaries.get((lid, tid))
        return s.facts if s is not None else None

    def _kills(self, facts: BlockFacts, loc: int) -> bool:
        state = facts.last_event.get(loc)
        if state is not None:
            return state == "kill"
        return loc in facts.killed_vars

    def _epoch_gen_holds(
        self, loc: int, lid: int, gen_thread: int, num_threads: int
    ) -> bool:
        for t in range(num_threads):
            if t == gen_thread:
                continue
            prev = self._facts(lid - 1, t) if lid >= 1 else None
            cur = self._facts(lid, t)
            assert cur is not None
            window_exposed = loc in cur.gen or (
                prev is not None
                and loc in prev.gen
                and not self._kills(cur, loc)
            )
            never_kills = not self._kills(cur, loc) and (
                prev is None or not self._kills(prev, loc)
            )
            if not (window_exposed or never_kills):
                return False
        return True

    def _compute_lsos(self, lid: int, tid: int) -> SOSView:
        """Reaching-expressions LSOS (Section 5.2.1),
        ``GEN_{l-1,t} U (SOS_l - KILL_{l-1,t})``: SOS entries survive
        unless the head freed them; head allocations survive unless a
        sibling freed the location in epoch ``l-2``.

        A view of ``SOS_l`` with the head's edits in its overlay: work
        proportional to the head block's own allocation events, never a
        copy of the SOS or a visit per SOS element (the SOS is the whole
        live heap; this runs per block).
        """
        lsos = self.sos.get(lid)
        head = self._facts(lid - 1, tid) if lid >= 1 else None
        if head is None:
            return lsos
        lsos -= _final_kills(head)
        killers = self._epoch_killers.get(lid - 2, {})
        for loc in head.gen:
            if killers.get(loc, tid) == tid:
                lsos.add(loc)
        return lsos

    def _evict(self, older_than: int) -> None:
        for key in [k for k in self._summaries if k[0] < older_than]:
            del self._summaries[key]
        for lid in [k for k in self._epoch_killers if k < older_than]:
            del self._epoch_killers[lid]
