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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import (
    Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.core.columnar import (
    OP_ASSIGN,
    OP_FREE,
    OP_JUMP,
    OP_MALLOC,
    OP_READ,
    OP_WRITE,
    ColumnarBlock,
    SortedFirstAccess,
    expand_extents,
)
from repro.core.dataflow import BlockFacts
from repro.core.epoch import Block, BlockId
from repro.core.framework import ButterflyAnalysis, Scanner, row_groups
from repro.core.state import SOSHistory, SOSView
from repro.core.window import Butterfly
from repro.lifeguards.reports import ErrorKind, ErrorLog, emit_error_event

# Op classes over the uint8 op column.  A class of four codes is a bool
# table read as ``TABLE.take(ops)`` -- never ``TABLE[ops]``, which numpy
# serves on a slow path for a uint8 index, ~2.7x the ``take``
# (benchmarks/test_microbench_core.py holds every ``*_LUT`` in src/ to
# that).  A class of two codes is two SIMD compares, which beat any
# table read at 25 000 events (4.5 vs 25 us) and tie it at 2 048
# (docs/perf.md, "Numpy's slow paths").
_ACC_LUT = np.zeros(256, dtype=bool)
_ACC_LUT[[OP_READ, OP_WRITE, OP_ASSIGN, OP_JUMP]] = True

_DETAIL_MALLOC = "malloc of location believed allocated"
_DETAIL_FREE = "free of location believed unallocated"
_DETAIL_ACCESS = "access to location believed unallocated"
_DETAIL_CHANGE_RACE = "allocation-state change concurrent with another"
_DETAIL_ACCESS_RACE = "access concurrent with an allocation-state change"
#: First-pass error kinds read once (an enum lookup costs ~0.1 us).
_CHANGE_ERRORS = {
    True: (ErrorKind.MALLOC_ALLOCATED, _DETAIL_MALLOC),
    False: (ErrorKind.FREE_UNALLOCATED, _DETAIL_FREE),
}
_ACCESS_ERROR = ErrorKind.ACCESS_UNALLOCATED


def _access_stream(cols: ColumnarBlock) -> Tuple[Any, Any, Any]:
    """Flatten every location ``cols`` dereferences into one access
    stream, ``(acc_off, acc_loc, tot)``: event ``e`` owns the ``tot[e]``
    slots ``acc_off[e] .. acc_off[e+1]-1`` of ``acc_loc``, which hold
    its sources in order then (for WRITE/ASSIGN) its destination -- the
    exact order of the scalar loop.

    Every masked scatter or gather goes through an index array, every
    ``flatnonzero`` runs over bools, and the block-sized int64 arrays
    are built in place: each temporary is one more round of fresh pages
    from the allocator."""
    n = cols.length
    ops = cols.op
    src_off = cols.src_off
    src_val = cols.src_val
    is_acc = _ACC_LUT.take(ops)
    has_dst = (ops == OP_WRITE) | (ops == OP_ASSIGN)
    tot = src_off[1:] - src_off[:-1]
    tot *= is_acc
    tot += has_dst
    acc_off = np.empty(n + 1, dtype=np.int64)
    acc_off[0] = 0
    np.cumsum(tot, out=acc_off[1:])
    total = int(acc_off[-1])
    acc_loc = np.empty(total, dtype=np.int64)
    if total:
        dst_ev = np.flatnonzero(has_dst)
        # A destination is its event's last slot.
        dst_pos = acc_off[1:][dst_ev]
        dst_pos -= 1
        if total - dst_ev.shape[0] != src_val.shape[0]:
            # Fewer source slots than sources: some non-access event
            # carries sources.  Filter them out of the flattened source
            # stream before scattering.
            src_cnt = tot - has_dst
            src_ev = np.repeat(
                np.arange(n, dtype=np.int64), src_off[1:] - src_off[:-1]
            )
            kept = np.flatnonzero(is_acc[src_ev])
            kept_ev = src_ev[kept]
            # The kept sources of event e are contiguous starting at
            # kept_start[e]; shift each run to its slot in acc_loc.
            kept_start = np.cumsum(src_cnt) - src_cnt
            pos = (acc_off[:-1] - kept_start)[kept_ev] + np.arange(
                kept_ev.shape[0], dtype=np.int64
            )
            acc_loc[pos] = src_val[kept]
        elif src_val.shape[0]:
            # All sources belong to access events (the usual case): the
            # slots that are not destination slots are exactly the
            # sources in stream order.
            is_src_slot = np.ones(total, dtype=bool)
            is_src_slot[dst_pos] = False
            acc_loc[np.flatnonzero(is_src_slot)] = src_val
        acc_loc[dst_pos] = cols.dst[dst_ev]
    return acc_off, acc_loc, tot


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


def _pair_keys(segs: List[int], locs: List[int]) -> List[Tuple[int, int]]:
    """What the columnar first pass's scan tells its runs apart by: a
    ``(segment, location)`` per entry, so each block starts a location
    from its own LSOS, never from a row neighbour's last change."""
    return list(zip(segs, locs))


@dataclass
class AddrSummary:
    """Per-block summary ``s_{l,t} = (GEN, KILL, ACCESS)``.

    ``facts`` carries the allocation-domain block facts (downward-exposed
    allocations, freed locations, last-event map) used by the SOS/LSOS
    rules and, as ``all_gen``/``killed_vars``, the GEN/KILL side-out
    views the isolation check reads.  ACCESS is ``first_access``, the
    accessed locations beside each one's first offset
    (:class:`~repro.core.columnar.SortedFirstAccess`); ``num_accessed``
    is its size, a plain int because the meet and the work counters
    take it per wing.
    """

    facts: BlockFacts
    first_change: Dict[int, int]
    first_access: SortedFirstAccess
    num_accessed: int


class WingChanges(NamedTuple):
    """The isolation check's side-in: the union of the wings' GEN and KILL --
    all the isolation check reads of them -- and the meet's element
    count, which the (pure) meet defers to the ordered commit."""

    changed: Set[int]
    meet_work: int


@dataclass
class AddrScan:
    """Raw result of scanning one block: the summary's parts (see
    :class:`AddrSummary`), error records as ``(kind, location, instr
    index, detail)`` tuples, and counters."""

    gen: Set[int]
    all_gen: Set[int]
    killed_vars: Set[int]
    last_event: Dict[int, str]
    first_change: Dict[int, int]
    first_access: SortedFirstAccess
    errors: List[Tuple[ErrorKind, int, int, str]]
    events: int
    checks: int
    accesses: int
    allocs: int


@dataclass(frozen=True)
class AddrScanner(Scanner):
    """Picklable first-pass work unit.

    ``context`` is the block's starting LSOS, an
    :class:`~repro.core.state.SOSView`: the published ``SOS_l`` as the
    shared, read-only ``base`` under the head's GEN/KILL in a private
    overlay.  That overlay is the scan's running state -- a malloc or
    free edits ``added``/``removed``, never the base -- so an epoch's
    scans may run concurrently on any backend, and everything else the
    scan needs travels with the block, so the unit crosses process
    boundaries.  The LSOS is the whole live heap and a block touches a
    sliver of it, so the kernel only ever *probes* it -- per location
    the block names -- and never copy, enumerate or re-encode it.

    The kernel is vectorized over the blocks' column arrays.  The
    per-``Instr`` loop it must match bit for bit is
    :class:`repro.verify.reference.ReferenceAddrScanner` (the
    ``columnar`` differential-fuzz mode diffs the two end to end).
    """

    use_idempotent_filter: bool

    def scan_row(self, items: List[Tuple[Block, SOSView]]) -> List[AddrScan]:
        """Scan one epoch row, ``[(block, LSOS view), ...]``, into one
        :class:`AddrScan` per block.

        Step 1 reads only published state (each view is ``SOS_l`` under
        its head's edits), so a row's scans are independent and may
        share one pass: consecutive blocks over one base are handed to
        the kernel together while their summed length stays within
        :data:`~repro.core.framework.GROUP_EVENTS`
        (:func:`~repro.core.framework.row_groups`).  A single block is a
        group of one, so this is the only route into the kernel.
        """
        scans: List[AddrScan] = []
        for group in row_groups(items, lambda a, b: a.base is b.base):
            scans.extend(self._scan_columns(
                [(block.columns, running) for block, running in group]
            ))
        return scans

    def _scan_columns(
        self, group: List[Tuple[ColumnarBlock, SOSView]]
    ) -> List[AddrScan]:
        """Vectorized first pass over a group of blocks' column arrays.

        MALLOC/FREE events only ever change the allocation state and
        filter arming of their extents.  A *stable* location, which no
        change event in the block touches, keeps both for the whole
        block, so its checks are one membership query: the kernel
        flattens every dereferenced location into one access stream
        (srcs before dst, like ``Instr.accessed``) and resolves stable
        locations wholesale in C-level passes and one probe per unique
        location.

        A changed location is the paper's two-state machine run in
        stream order -- a segmented scan.  Each extent expands into one
        entry per location, the accesses to changed locations join them,
        and one stable sort by (location, slot) makes each ``(segment,
        location)`` pair a run.  Before its first change a pair's state
        is its view's answer, after it its last change's op: a MALLOC
        errs iff the state is allocated, a FREE or a checked access iff
        it is not.  One Python pass over plain lists reads the errors
        off, and each run's end yields the pair's summary parts and its
        one overlay write.  Errors carry their stream position: the
        result is bit-identical to the per-``Instr`` reference kernel.

        The passes cost ~75 numpy calls whatever the array length, so a
        group's blocks are concatenated and scanned as *segments* of one
        stream, keyed by ``(segment, location)``; only a block's own
        state -- its view's overlay, its result sets -- is per segment.
        All views share one ``base`` (:meth:`scan_row` groups by it).
        """
        nseg = len(group)
        views = [running for _, running in group]
        base = views[0].base
        cols = ColumnarBlock.concat([c for c, _ in group])
        n = cols.length
        ops = cols.op
        use_filter = self.use_idempotent_filter

        acc_off, acc_loc, tot = _access_stream(cols)
        total = acc_loc.shape[0]

        # Segment ``s`` owns events ``ev_lo[s]..ev_lo[s+1]-1`` and the
        # access slots ``slot_lo[s]..slot_lo[s+1]-1``; every ``*_lo``
        # list below cuts one stream-ordered list the same way.
        ev_lo = [0, *accumulate(c.length for c, _ in group)]
        ev_lo_arr = np.array(ev_lo, dtype=np.int64)
        slot_lo_arr = acc_off[ev_lo_arr]
        slot_lo = slot_lo_arr.tolist()

        ev_of_slot = None

        def _ev_at(pos: Any) -> Any:
            # Stream-wide events of access slots: a binary search while
            # they are sparse (40-100 ns an unsorted needle), else the
            # materialized repeat (~3 ns a slot).
            nonlocal ev_of_slot
            if 16 * pos.shape[0] < n:
                return np.searchsorted(acc_off, pos, side="right") - 1
            if ev_of_slot is None:
                ev_of_slot = np.repeat(np.arange(n, dtype=np.int64), tot)
            return ev_of_slot[pos]

        # One entry per (MALLOC/FREE, extent location) in stream order:
        # its stream-wide event, location, and True for a MALLOC (False
        # for a FREE; the accesses that join later are None).
        change_idx = np.flatnonzero((ops == OP_MALLOC) | (ops == OP_FREE))
        ent, ent_loc = expand_extents(
            cols.dst, change_idx, cols.size[change_idx]
        )
        n_ent = ent.shape[0]
        ent_lo = ent.searchsorted(ev_lo_arr).tolist()
        ent_list = ent.tolist()
        loc_list = ent_loc.tolist()
        is_gen = (ops[ent] == OP_MALLOC).tolist()

        # What the vector phase leaves, with segment cuts: the unique
        # ``(segment, location)`` pairs (``uniq``, ``first_ev``: arrays
        # each summary keeps a slice of) and how many are changed, then
        # as ``(slot, location, event)`` lists the stable occurrences
        # that are errors and the accesses to changed pairs.
        uniq = first_ev = np.empty(0, dtype=np.int64)
        changed_pairs = [0] * nseg
        bad: List[Tuple[int, int, int]] = []
        sub: List[Tuple[int, int, int]] = []
        uniq_lo = bad_lo = sub_lo = [0] * (nseg + 1)

        if total:
            # ``first_access`` is a pure function of the access stream.
            # Keys are ``segment * width + rel``, ``rel`` a location's
            # offset in a dense domain or, if the key space would be
            # mostly holes, its rank (``np.unique``'s sort).
            lo = int(acc_loc.min())
            span = int(acc_loc.max()) - lo + 1
            if nseg * span <= max(4 * total, 1 << 16):
                key = acc_loc - lo
                width = span
                ranked = None
            else:
                ranked, key = np.unique(acc_loc, return_inverse=True)
                width = int(ranked.shape[0])
            for s in range(1, nseg):
                key[slot_lo[s]:slot_lo[s + 1]] += s * width
            # A reversed scatter finds first occurrences without a sort.
            first_slot = np.full(nseg * width, -1, dtype=np.int64)
            first_slot[key[::-1]] = np.arange(
                total - 1, -1, -1, dtype=np.int64
            )
            uniq_key = np.flatnonzero(first_slot >= 0)
            first_pos = first_slot[uniq_key]
            uniq_rel = uniq_key % width if nseg > 1 else uniq_key
            uniq = uniq_rel + lo if ranked is None else ranked[uniq_rel]
            n_uniq = int(uniq.shape[0])
            uniq_list = uniq.tolist()
            uniq_lo = np.searchsorted(
                uniq_key, np.arange(nseg + 1, dtype=np.int64) * width
            ).tolist()
            first_ev = _ev_at(first_pos)
            for s in range(1, nseg):
                first_ev[uniq_lo[s]:uniq_lo[s + 1]] -= ev_lo[s]

            # LSOS membership: one C-level probe of the shared base per
            # location (never an O(|LSOS|) array of the live heap), then
            # each view's overlay and changed pairs, by bisection.
            if n_uniq > width:
                # Threads share locations: probe each one once.
                by_rel = np.zeros(width, dtype=bool)
                by_rel[uniq_rel] = True
                rels = np.flatnonzero(by_rel)
                locs = rels + lo if ranked is None else ranked[rels]
                by_rel[rels] = np.fromiter(map(
                    base.__contains__, locs.tolist()
                ), dtype=bool, count=rels.shape[0])
                in_run = by_rel[uniq_rel]
            else:
                in_run = np.fromiter(map(
                    base.__contains__, uniq_list
                ), dtype=bool, count=n_uniq)
            changed: List[int] = []
            for s, running in enumerate(views):
                a, b = uniq_lo[s], uniq_lo[s + 1]
                mine = set(loc_list[ent_lo[s]:ent_lo[s + 1]])
                for locs, member in (
                    (running.removed, False), (running.added, True),
                    (mine, True),  # the scan checks the changed pairs
                ):
                    for loc in locs:
                        at = bisect_left(uniq_list, loc, a, b)
                        if at < b and uniq_list[at] == loc:
                            in_run[at] = member
                            if locs is mine:
                                changed.append(at)
                                changed_pairs[s] += 1

            def _occurrences(of_uniq: Any) -> Any:
                # Stream slots of every occurrence of the marked pairs.
                mark = np.zeros(nseg * width, dtype=bool)
                mark[uniq_key[of_uniq]] = True
                return np.flatnonzero(mark.take(key))

            def _records(pos: Any, locs: Any) -> List[Tuple[int, int, int]]:
                return list(zip(
                    pos.tolist(), locs.tolist(), _ev_at(pos).tolist()
                ))

            if changed:
                sub_pos = _occurrences(changed)
                sub_loc = acc_loc[sub_pos]
                sub = _records(sub_pos, sub_loc)
                sub_lo = np.searchsorted(sub_pos, slot_lo_arr).tolist()
            # Stable pairs outside the running set: an error at the
            # first occurrence under the idempotent filter (one check
            # per pair), else at every occurrence.
            bad_u = np.flatnonzero(~in_run)
            if bad_u.shape[0] and use_filter:
                bad = _records(first_pos[bad_u], uniq[bad_u])
                bad_lo = np.searchsorted(bad_u, uniq_lo).tolist()
            elif bad_u.shape[0]:
                bad_pos = _occurrences(bad_u)
                bad = _records(bad_pos, acc_loc[bad_pos])
                bad_lo = np.searchsorted(bad_pos, slot_lo_arr).tolist()

        # The segmented scan of the change entries (``0..n_ent-1``) and
        # the accesses in ``sub`` by location, then slot (stable: a change
        # precedes the access in its offset's slot).  Error keys are
        # stream positions: ``event * stride`` plus entry or slot.
        seg_list: List[int] = []
        for cuts in (ent_lo, sub_lo):
            for s in range(nseg):
                seg_list += [s] * (cuts[s + 1] - cuts[s])
        if sub:
            loc_list += sub_loc.tolist()
            is_gen += [None] * len(sub)
            order = np.lexsort((
                np.concatenate((acc_off[ent], sub_pos)),
                np.concatenate((ent_loc, sub_loc)),
            ))
        else:
            order = ent_loc.argsort(kind="stable")
        end = object()  # the pair key after the last run
        pair_keys = _pair_keys(seg_list, loc_list) + [end]
        # Per segment: first_change, last_event, GEN, all_gen, killed_vars.
        results = [({}, {}, set(), set(), set()) for _ in views]
        keyed: List[list] = [[] for _ in views]
        scanned = [0] * nseg
        stride = n_ent + total
        prev = None
        for j in order.tolist() + [len(pair_keys) - 1]:
            pair = pair_keys[j]
            if pair != prev:
                if prev is not None:
                    fc[loc] = ent_list[first] - ev0
                    le[loc] = "gen" if state else "kill"
                    if state:
                        gen.add(loc)
                if pair is end:
                    break
                prev = pair
                s, loc, first = seg_list[j], loc_list[j], -1
                fc, le, gen, all_gen, killed_vars = results[s]
                state, armed, ev0 = loc in views[s], True, ev_lo[s]
            op = is_gen[j]
            if op is not None:
                if op == state:
                    kind, detail = _CHANGE_ERRORS[op]
                    e = ent_list[j]
                    keyed[s].append((
                        e * stride + j, (kind, loc, e - ev0, detail)
                    ))
                (all_gen if op else killed_vars).add(loc)
                if first < 0:
                    first = j
                state, armed = op, True
            elif armed or not use_filter:
                armed = False
                scanned[s] += 1
                if not state:
                    p, _, e = sub[j - n_ent]
                    keyed[s].append((e * stride + p, (
                        _ACCESS_ERROR, loc, e - ev0, _DETAIL_ACCESS
                    )))

        scans: List[AddrScan] = []
        for s, running in enumerate(views):
            ev0 = ev_lo[s]
            ua, ub = uniq_lo[s], uniq_lo[s + 1]
            accesses = slot_lo[s + 1] - slot_lo[s]
            fc, le, gen, all_gen, killed_vars = results[s]
            # Both dicts keep first-change order, and a pair's final state
            # is its one overlay write (SOSView.add/discard as set algebra).
            locs = loc_list[ent_lo[s]:ent_lo[s + 1]]
            if len(fc) > 1 and list(dict.fromkeys(locs)) != list(fc):
                fc = {loc: fc[loc] for loc in dict.fromkeys(locs) if loc in fc}
                le = {loc: le[loc] for loc in fc}
            if fc:
                kill = fc.keys() - gen
                running.removed -= gen & base
                running.removed |= kill & base
                running.added -= kill - base
                running.added |= gen - base
            errors = keyed[s] + [
                (e * stride + p, (_ACCESS_ERROR, u, e - ev0, _DETAIL_ACCESS))
                for p, u, e in bad[bad_lo[s]:bad_lo[s + 1]]
            ]
            errors.sort()  # keys are unique: records are never compared
            scans.append(AddrScan(
                gen=gen,
                all_gen=all_gen,
                killed_vars=killed_vars,
                last_event=le,
                first_change=fc,
                first_access=SortedFirstAccess(uniq[ua:ub], first_ev[ua:ub]),
                errors=[rec for _, rec in errors],
                events=ev_lo[s + 1] - ev0,
                # Unfiltered, every access; filtered, a stable pair once.
                checks=(
                    ub - ua - changed_pairs[s] + scanned[s] if use_filter
                    else accesses
                ),
                accesses=accesses,
                allocs=ent_lo[s + 1] - ent_lo[s],
            ))
        return scans


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
        ``False`` scans per ``Instr`` with the reference kernel
        (:class:`repro.verify.reference.ReferenceAddrScanner`, the
        differential harness's other leg); ``None`` (the default) or
        ``True`` runs the columnar :class:`AddrScanner`.
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
        #: Per recent epoch ``l``: location -> the one thread whose
        #: block finally frees it there, or ``_MANY_KILLERS`` (built once
        #: per epoch by :meth:`epoch_update`, read by the LSOS of every
        #: block of epoch ``l+2`` in place of its siblings' summaries).
        self._epoch_killers: Dict[int, Dict[int, int]] = {}
        #: Per-block work counters consumed by the timing substrate:
        #: ``events`` (log records dispatched), ``checks`` (metadata
        #: checks after idempotent filtering), ``accesses`` (pre-filter
        #: location accesses), ``flags`` (errors raised), ``meet`` and
        #: ``iso`` (set-operation element counts in steps 2-3).  The
        #: per-epoch maxima of these drive the barrier-synchronized
        #: lifeguard timing model.  On a streamed run only the window's
        #: rows are resident (:meth:`evict_history`).
        self.block_work: Dict[BlockId, Dict[str, int]] = {}
        self.recorded_accesses = 0

    def emit_metrics(self, recorder: Any) -> None:
        """End-of-run gauges: access volume and errors, deterministic
        functions of the trace (they compare equal across backends)."""
        recorder.gauge("addrcheck.recorded_accesses", self.recorded_accesses)
        recorder.gauge("addrcheck.errors", len(self.errors))

    # -- step 1: local pass with LSOS checks ------------------------------

    def make_scanner(self) -> Scanner:
        if self.use_columnar_kernel is False:
            from repro.verify.reference import ReferenceAddrScanner

            return ReferenceAddrScanner(self.use_idempotent_filter)
        return AddrScanner(self.use_idempotent_filter)

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
            first_change=scan.first_change,
            first_access=scan.first_access,
            num_accessed=scan.first_access.locs.shape[0],
        )
        errors = self.errors
        flags = 0
        rec = self.recorder
        emit = rec.enabled
        for kind, loc, i, detail in scan.errors:
            if errors.record(kind, loc, ref=block.global_ref(i), detail=detail):
                flags += 1
                if emit:
                    emit_error_event(rec, block, kind, loc, i, "first")
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
        return summary

    # -- step 2: meet (elementwise union of wing summaries) ----------------

    def meet(
        self, butterfly: Butterfly, wings: List[AddrSummary]
    ) -> WingChanges:
        # The wings' ACCESS sets count as meet work (the paper's
        # S = (GEN, KILL, ACCESS)) but no check reads their union, so
        # only the change sets -- tens of locations -- are built.
        changed: Set[int] = set()
        work = 0
        for s in wings:
            f = s.facts
            changed |= f.all_gen
            changed |= f.killed_vars
            work += len(f.all_gen) + len(f.killed_vars) + s.num_accessed
        return WingChanges(changed, work)

    # -- step 3: isolation check -------------------------------------------

    def check_body(
        self, butterfly: Butterfly, side_in: WingChanges
    ) -> Tuple[Set[int], Set[int]]:
        """Pure isolation intersections against the wings' change set
        (sized by the smaller operand, or by the change set's probes
        into ``first_access``): racing state changes and accesses racing
        a state change."""
        s = self.summaries[butterfly.body.block_id]
        f = s.facts
        wing_changed = side_in.changed
        return (
            (f.all_gen | f.killed_vars) & wing_changed,
            s.first_access.hits(wing_changed),
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
        s = self.summaries[block_id]
        errors = self.errors
        rec = self.recorder
        emit = rec.enabled
        flags = 0
        # Sorted location order: set order is hash-dependent; sorting
        # makes the report order a function of the trace alone, so this
        # class and the reference one are bit-identical (the fuzz
        # harness's optref mode diffs them report-for-report).
        if change_hits or access_hits:
            accesses = sorted(access_hits)
            for loc, offset, detail in chain(
                ((loc, s.first_change[loc], _DETAIL_CHANGE_RACE)
                 for loc in sorted(change_hits)),
                zip(accesses, s.first_access.first_offsets(accesses),
                    repeat(_DETAIL_ACCESS_RACE)),
            ):
                if errors.record(
                    ErrorKind.UNSAFE_ISOLATION,
                    loc,
                    ref=body.global_ref(offset),
                    block=block_id,
                    detail=detail,
                ):
                    flags += 1
                    if emit:
                        emit_error_event(
                            rec, body, ErrorKind.UNSAFE_ISOLATION, loc,
                            offset, "second",
                            self._wing_with_change(butterfly, loc),
                        )
        work = self.block_work[block_id]
        work["flags"] += flags
        work["iso"] += (
            len(s.facts.all_gen | s.facts.killed_vars) + s.num_accessed
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
            facts = self.summaries[wing.block_id].facts
            if loc in facts.all_gen or loc in facts.killed_vars:
                return wing.block_id
        return None

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
        # Epoch lid's LSOS, the last reader of lid-2's index, is taken.
        self._epoch_killers.pop(lid - 2, None)

        self.sos.publish(lid, gen_l, killers.keys())

    def evict_history(self, before: int) -> None:
        self.sos.evict(before)
        # Epoch ``before - 1`` just committed, so its ledger rows are
        # final; they stay one more epoch for a reader that copies rows
        # out between feeds (``sim/lba.py``) and the epoch before them
        # goes -- by key, one block per thread, never a scan.
        tid = 0
        while self.block_work.pop((before - 2, tid), None) is not None:
            tid += 1

    # -- helpers ----------------------------------------------------------------

    def _facts(self, lid: int, tid: int) -> Optional[BlockFacts]:
        s = self.summaries.get((lid, tid))
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
