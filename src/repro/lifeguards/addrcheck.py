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
from collections.abc import ItemsView, KeysView, Mapping
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

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
    # Op classes over the uint8 op column.  A class of four codes is a
    # bool table read as ``TABLE.take(ops)`` -- never ``TABLE[ops]``,
    # which numpy serves on a slow path for a uint8 index, ~2.7x the
    # ``take`` (benchmarks/test_microbench_core.py holds every ``*_LUT``
    # in src/ to that).  A class of two codes is two SIMD compares, which
    # beat any table read at 25 000 events (4.5 vs 25 us) and tie it at
    # 2 048 (docs/perf.md, "Numpy's slow paths").
    _ACC_LUT = np.zeros(256, dtype=bool)
    _ACC_LUT[[OP_READ, OP_WRITE, OP_ASSIGN, OP_JUMP]] = True
else:  # pragma: no cover - tables are only consulted on the numpy path
    _ACC_LUT = None

#: Most events :meth:`AddrScanner.scan_row` hands the columnar kernel as
#: one group.  Scanning T small blocks as one stream saves T-1 rounds of
#: the kernel's ~75 length-independent numpy calls and pays a concat
#: plus wider arrays; measured against T per-block scans (x = faster):
#: 4 x 128 events 1.8x, 4 x 512 1.8x, 8 x 256 2.2x, 4 x 1 024 1.6x,
#: 3 x 2 048 1.3x -- then the temporaries outgrow the cache and the
#: allocator's small bins: 4 x 2 048 1.0-1.4x and 2 x 4 096 0.8-1.1x
#: (run to run), 4 x 4 096 0.8x, 4 x 25 000 0.6x.  4 096 stays a factor
#: of two below the totals that lost on some run; a block larger than it
#: is a group of one, i.e. the per-block scan.
_GROUP_EVENTS = 4096

_DETAIL_MALLOC = "malloc of location believed allocated"
_DETAIL_FREE = "free of location believed unallocated"
_DETAIL_ACCESS = "access to location believed unallocated"
_DETAIL_CHANGE_RACE = "allocation-state change concurrent with another"
_DETAIL_ACCESS_RACE = "access concurrent with an allocation-state change"


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
    ops = np.asarray(cols.op)
    src_off = np.asarray(cols.src_off)
    src_val = np.asarray(cols.src_val)
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
        acc_loc[dst_pos] = np.asarray(cols.dst)[dst_ev]
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


def _sorted_hits(locs: Any, changed: Set[int]) -> Set[int]:
    """The members of ``changed`` that the ascending int64 array ``locs``
    holds: one ``searchsorted`` of the probe values, so the cost follows
    ``|changed|`` and an empty ``changed`` costs nothing."""
    if not changed or not locs.shape[0]:
        return set()
    probe = np.fromiter(changed, dtype=np.int64, count=len(changed))
    # A probe above every location lands one past the end; ``clip``
    # compares it with the last location there, which it cannot equal.
    found = locs.take(locs.searchsorted(probe), mode="clip") == probe
    return set(probe[found].tolist())


class SortedFirstAccess(Mapping):
    """``first_access`` as the columnar kernel leaves it: the block's
    accessed locations ascending (``locs``) beside the offset of each
    one's first access (``offsets``), both slices of the arrays the
    kernel computed for its whole group -- no per-block dict or set.

    A read-only mapping like the object kernel's dict, read the same
    way: the isolation check's ``fa.keys() & changed`` is one sorted
    search of the probe values (:func:`_sorted_hits`) and ``fa[loc]`` a
    bisection, so neither visits every location.
    """

    __slots__ = ("locs", "offsets")

    def __init__(self, locs: Any, offsets: Any) -> None:
        self.locs = locs
        self.offsets = offsets

    def __getitem__(self, loc: int) -> int:
        locs = self.locs
        at = int(locs.searchsorted(loc))
        if at < locs.shape[0] and locs[at] == loc:
            return int(self.offsets[at])
        raise KeyError(loc)

    def __len__(self) -> int:
        return self.locs.shape[0]

    def __iter__(self) -> Iterator[int]:
        return iter(self.locs.tolist())

    def keys(self) -> KeysView:
        return _SortedKeys(self)

    def items(self) -> ItemsView:
        return _SortedItems(self)


class _SortedKeys(KeysView):
    __slots__ = ()

    def __and__(self, other: Set[int]) -> Set[int]:
        return _sorted_hits(self._mapping.locs, other)

    __rand__ = __and__


class _SortedItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        fa = self._mapping
        return zip(fa.locs.tolist(), fa.offsets.tolist())


@dataclass
class AddrSummary:
    """Per-block summary ``s_{l,t} = (GEN, KILL, ACCESS)``.

    ``facts`` carries the allocation-domain block facts (downward-exposed
    allocations, freed locations, last-event map) used by the SOS/LSOS
    rules and, as ``all_gen``/``killed_vars``, the GEN/KILL side-out
    views the isolation check reads.  ACCESS is the key set of
    ``first_access`` (location -> offset of its first access in the
    block): the object kernel's dict or the columnar kernel's
    :class:`SortedFirstAccess`, read only as a mapping; ``num_accessed``
    is its size, a plain int because the meet and the work counters
    take it per wing.

    Pickled, a summary is plain containers under the field names every
    reader of checkpoint version 3 knows -- ``facts``, ``access`` (a
    set), ``first_change`` and ``first_access`` (a dict) -- whichever
    kernel built it, so the array form never reaches a checkpoint.  The
    first save builds that state and every later save reuses it: a
    summary stays resident for two or three saves.
    """

    facts: BlockFacts
    first_change: Dict[int, int]
    first_access: Mapping[int, int]
    num_accessed: int

    #: The pickled state, once a save has built it (not a field).
    _pickled = None

    def __getstate__(self) -> Dict[str, Any]:
        state = self._pickled
        if state is None:
            first_access = dict(self.first_access.items())
            state = self._pickled = {
                "facts": self.facts,
                "access": set(first_access),
                "first_change": self.first_change,
                "first_access": first_access,
            }
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.facts = state["facts"]
        self.first_change = state["first_change"]
        self.first_access = state["first_access"]
        self.num_accessed = len(self.first_access)
        self._pickled = state


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
    first_access: Mapping[int, int]
    num_accessed: int
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
        return self.scan_row([(block, running)])[0]

    def scan_row(self, items: List[Tuple[Block, SOSView]]) -> List[AddrScan]:
        """Scan one epoch row, ``[(block, LSOS view), ...]``, into one
        :class:`AddrScan` per block.

        Step 1 reads only published state (each view is ``SOS_l`` under
        its head's edits), so a row's scans are independent and may
        share one pass: consecutive columnar blocks over one base are
        handed to the vector kernel together while their summed length
        stays within :data:`_GROUP_EVENTS`.  A single block is a group
        of one, so this is the only route into either kernel.
        """
        scans: List[AddrScan] = []
        group: List[Tuple[ColumnarBlock, SOSView]] = []
        events = 0
        vectorize = HAVE_NUMPY and self.columnar is not False
        for block, running in items:
            vector = vectorize and (self.columnar or block.has_columns)
            if group and not (
                vector
                and events + len(block) <= _GROUP_EVENTS
                and running.base is group[0][1].base
            ):
                scans.extend(self._scan_columns(group))
                group, events = [], 0
            if vector:
                group.append((block.columns, running))
                events += len(block)
            else:
                scans.append(self._scan_objects(block, running))
        if group:
            scans.extend(self._scan_columns(group))
        return scans

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
            first_access=first_access,
            num_accessed=len(first_access),
            errors=errors,
            events=events,
            checks=checks,
            accesses=accesses,
            allocs=allocs,
        )

    def _scan_columns(
        self, group: List[Tuple[ColumnarBlock, SOSView]]
    ) -> List[AddrScan]:
        """Vectorized first pass over a group of blocks' column arrays.

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
        C-level passes over the arrays (plus one ``base`` probe per
        unique location, patched at the few locations a view's overlay
        names); only the (typically rare) accesses to changed locations
        plus the change events themselves are replayed with the exact
        scalar semantics, and every error record carries its stream
        position so the merged error list comes out in event order.
        The result is bit-identical to :meth:`_scan_objects`.

        The passes cost ~75 numpy calls whatever the array length, so a
        group's blocks are concatenated and scanned as *segments* of
        one stream: everything above is keyed by ``(segment,
        location)`` instead of location, and only the parts that touch
        a block's own state -- its view's overlay, its change events
        and their replays, its result sets -- run per segment.  All
        views share one ``base`` (:meth:`scan_row` groups by it).  A
        group of one is one segment over the block's own arrays.
        """
        nseg = len(group)
        cols = ColumnarBlock.concat([c for c, _ in group])
        n = cols.length
        ops = np.asarray(cols.op)
        dst_col = np.asarray(cols.dst)
        size_col = np.asarray(cols.size)
        use_filter = self.use_idempotent_filter

        acc_off, acc_loc, tot = _access_stream(cols)
        total = acc_loc.shape[0]

        # Segment ``s`` owns events ``ev_lo[s]..ev_lo[s+1]-1`` and the
        # access slots ``slot_lo[s]..slot_lo[s+1]-1``; every ``*_lo``
        # list below cuts one stream-ordered list the same way.
        ev_lo = [0]
        for c, _ in group:
            ev_lo.append(ev_lo[-1] + c.length)
        ev_lo_arr = np.array(ev_lo, dtype=np.int64)
        slot_lo_arr = acc_off[ev_lo_arr]
        slot_lo = slot_lo_arr.tolist()

        ev_of_slot = None

        def _ev_at(pos: Any) -> Any:
            # Recover (stream-wide) event ids for occurrence positions:
            # event ``e`` owns access slots ``acc_off[e] ..
            # acc_off[e+1]-1``.  A binary search per position beats
            # materializing the full repeat while positions are sparse
            # (a few hundred locations in a 25 000-event block); the
            # repeat wins once they are not (an unsorted needle costs
            # 40-100 ns, a repeated slot ~3 ns).
            nonlocal ev_of_slot
            if 16 * pos.shape[0] < n:
                return np.searchsorted(acc_off, pos, side="right") - 1
            if ev_of_slot is None:
                ev_of_slot = np.repeat(np.arange(n, dtype=np.int64), tot)
            return ev_of_slot[pos]

        change_idx = np.flatnonzero((ops == OP_MALLOC) | (ops == OP_FREE))
        change_list = change_idx.tolist()
        change_ops = ops[change_idx].tolist()
        change_dst = dst_col[change_idx].tolist()
        change_size = size_col[change_idx].tolist()
        #: Access-stream slots preceding each change event: accesses at
        #: positions < change_off[ci] happen before change event ci.
        change_off = acc_off[change_idx].tolist()
        change_lo = np.searchsorted(change_idx, ev_lo_arr).tolist()

        changed_locs: List[Set[int]] = []
        for s in range(nseg):
            locs: Set[int] = set()
            for ci in range(change_lo[s], change_lo[s + 1]):
                d = change_dst[ci]
                locs.update(range(d, d + change_size[ci]))
            changed_locs.append(locs)

        # What the vector phase leaves for the per-segment loop, each
        # stream-ordered with its segment cuts: the unique ``(segment,
        # location)`` pairs (``uniq`` locations and ``first_ev``
        # segment-relative first events, as arrays each summary keeps a
        # slice of), the stable occurrences that are errors and the
        # occurrences to replay -- the last two as ``(position,
        # location, stream-wide event)`` lists.
        uniq = first_ev = np.empty(0, dtype=np.int64)
        bad: List[Tuple[int, int, int]] = []
        sub: List[Tuple[int, int, int]] = []
        uniq_lo = bad_lo = sub_lo = [0] * (nseg + 1)

        if total:
            # ``first_access`` is a pure function of the access stream
            # (no allocation state, no filter), computed wholesale: the
            # first occurrence of a key in the stream IS its first
            # occurrence in event order.  Keys are
            # ``segment * width + rel`` with ``rel`` a location's offset
            # in a dense domain (the usual case) or its rank among the
            # stream's locations (``np.unique``'s sort, only when the
            # widened key space would be mostly holes); either way
            # ascending keys are ascending ``(segment, location)``.
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
            # Reversed scatter-assign finds first occurrences in
            # O(total + keys) without a sort.
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

            # Membership of the unique locations in the LSOS and in the
            # changed sets: probe the Python sets already in hand, one
            # hash lookup per (segment, location).  Turning the LSOS
            # into an array to vectorize the test costs O(|LSOS|), and
            # the LSOS is the whole live heap.  The probe goes to the
            # shared base at C level, once for the group; each view's
            # overlay (its head's few changes) then overrides the
            # entries it names in its own segment's slice (locations
            # ascend within a slice).
            base = group[0][1].base
            if n_uniq > width:
                # More pairs than keys per segment: threads share
                # locations, so probe each location once.  ``by_rel``
                # marks the locations present, then holds their answers.
                by_rel = np.zeros(width, dtype=bool)
                by_rel[uniq_rel] = True
                rels = np.flatnonzero(by_rel)
                locs = rels + lo if ranked is None else ranked[rels]
                by_rel[rels] = np.fromiter(
                    map(base.__contains__, locs.tolist()),
                    dtype=bool,
                    count=rels.shape[0],
                )
                in_run = by_rel[uniq_rel]
            else:
                in_run = np.fromiter(
                    map(base.__contains__, uniq_list),
                    dtype=bool,
                    count=n_uniq,
                )
            is_changed = np.zeros(n_uniq, dtype=bool)
            for s, (_, running) in enumerate(group):
                a, b = uniq_lo[s], uniq_lo[s + 1]
                for locs, flags, member in (
                    (running.removed, in_run, False),
                    (running.added, in_run, True),
                    (changed_locs[s], is_changed, True),
                ):
                    for loc in locs:
                        at = bisect_left(uniq_list, loc, a, b)
                        if at < b and uniq_list[at] == loc:
                            flags[at] = member

            def _occurrences(of_uniq: Any) -> Any:
                # Stream positions of every occurrence of the marked
                # unique pairs, ascending.
                mark = np.zeros(nseg * width, dtype=bool)
                mark[uniq_key[of_uniq]] = True
                return np.flatnonzero(mark.take(key))

            def _records(pos: Any, locs: Any) -> List[Tuple[int, int, int]]:
                return list(zip(
                    pos.tolist(), locs.tolist(), _ev_at(pos).tolist()
                ))

            if is_changed.any():
                sub_pos = _occurrences(is_changed)
                sub = _records(sub_pos, acc_loc[sub_pos])
                sub_lo = np.searchsorted(sub_pos, slot_lo_arr).tolist()
            # Stable pairs outside the running set: an error at the
            # first occurrence under the idempotent filter (one check
            # per pair), else at every occurrence.
            bad_u = np.flatnonzero(~(is_changed | in_run))
            if bad_u.shape[0] and use_filter:
                bad = _records(first_pos[bad_u], uniq[bad_u])
                bad_lo = np.searchsorted(bad_u, uniq_lo).tolist()
            elif bad_u.shape[0]:
                bad_pos = _occurrences(bad_u)
                bad = _records(bad_pos, acc_loc[bad_pos])
                bad_lo = np.searchsorted(bad_pos, slot_lo_arr).tolist()

        scans: List[AddrScan] = []
        for s, (_, running) in enumerate(group):
            ev0 = ev_lo[s]
            gen: Set[int] = set()
            all_gen: Set[int] = set()
            killed_vars: Set[int] = set()
            last_event: Dict[int, str] = {}
            first_change: Dict[int, int] = {}
            allocs = 0
            a, b = uniq_lo[s], uniq_lo[s + 1]
            si, sub_hi = sub_lo[s], sub_lo[s + 1]
            # The stable checks, against the initial running set: one
            # per stable pair under the idempotent filter (whose state
            # therefore only ever matters for replayed, i.e. changed,
            # locations), else one per stable occurrence.
            checked: Set[int] = set()
            if use_filter:
                checks = b - a - len({u for _, u, _ in sub[si:sub_hi]})
            else:
                checks = slot_lo[s + 1] - slot_lo[s] - (sub_hi - si)

            # Errors are collected with a stream-position sort key and
            # merged at the end: access errors at occurrence position
            # ``p`` key as ``(p, 1, ...)``, change-event errors at event
            # ``ci`` (whose extent locations error in order ``k``) key
            # as ``(change_off[ci], 0, ci, k)`` -- an access sharing a
            # change's offset happens *after* it, hence the 1-vs-0
            # middle component.
            keyed: List[Tuple[Tuple[int, int, int, int],
                              Tuple[ErrorKind, int, int, str]]] = [
                ((p, 1, 0, 0),
                 (ErrorKind.ACCESS_UNALLOCATED, u, e - ev0, _DETAIL_ACCESS))
                for p, u, e in bad[bad_lo[s]:bad_lo[s + 1]]
            ]

            # Replay, in stream order, the accesses that touch changed
            # locations interleaved with the change events themselves
            # -- exact scalar semantics against the live
            # ``running``/filter.  One extra turn past the last change
            # event drains the accesses that follow it.
            change_hi = change_lo[s + 1]
            for ci in range(change_lo[s], change_hi + 1):
                coff = change_off[ci] if ci < change_hi else slot_lo[s + 1]
                while si < sub_hi and sub[si][0] < coff:
                    p, u, e = sub[si]
                    si += 1
                    if use_filter:
                        if u in checked:
                            continue
                        checked.add(u)
                    checks += 1
                    if u not in running:
                        keyed.append((
                            (p, 1, 0, 0),
                            (ErrorKind.ACCESS_UNALLOCATED, u, e - ev0,
                             _DETAIL_ACCESS),
                        ))
                if ci == change_hi:
                    break
                c = change_list[ci] - ev0
                dst = change_dst[ci]
                if change_ops[ci] == OP_MALLOC:
                    for k, loc in enumerate(
                        range(dst, dst + change_size[ci])
                    ):
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
                    for k, loc in enumerate(
                        range(dst, dst + change_size[ci])
                    ):
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

            keyed.sort(key=lambda kv: kv[0])
            scans.append(AddrScan(
                gen=gen,
                all_gen=all_gen,
                killed_vars=killed_vars,
                last_event=last_event,
                first_change=first_change,
                first_access=SortedFirstAccess(uniq[a:b], first_ev[a:b]),
                num_accessed=b - a,
                errors=[rec for _, rec in keyed],
                events=ev_lo[s + 1] - ev0,
                checks=checks,
                accesses=slot_lo[s + 1] - slot_lo[s],
                allocs=allocs,
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
        Kernel selection for the first pass: ``None`` (auto,
        the default -- vectorize when numpy is available and the block
        is columnar-backed), ``True`` (always vectorize) or ``False``
        (always scan per-``Instr``).  See :class:`AddrScanner`.
    """

    parallel_first_pass = True
    parallel_second_pass = True

    #: The row the engine announced, until its first ``first_pass``
    #: scans it; then the ``(block, scan)`` pairs still to commit, last
    #: thread first.  Both are empty outside a row's first pass (class
    #: defaults, so a restored checkpoint needs neither).
    _staged_row: Sequence[Block] = ()
    _staged_scans: Sequence[Tuple[Block, AddrScan]] = ()

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

    def make_scanner(self) -> AddrScanner:
        return AddrScanner(self.use_idempotent_filter, self.use_columnar_kernel)

    def first_pass_context(self, block: Block) -> SOSView:
        lid, tid = block.block_id
        return self._compute_lsos(lid, tid)

    def stage_row(self, blocks: Sequence[Block]) -> None:
        self._staged_row = blocks
        self._staged_scans = ()

    def first_pass(self, block: Block) -> AddrSummary:
        """Step 1 for one block.  The first call of a staged row scans
        all of it in one :meth:`AddrScanner.scan_row` -- every context
        reads published state only, so computing them up front changes
        nothing -- and each call commits its own block's scan, in the
        row's order; any other block is a row of one."""
        pending = self._staged_scans
        if not (pending and pending[-1][0] is block):
            row, self._staged_row = self._staged_row, ()
            if not (row and row[0] is block):
                row = (block,)
            items = [(b, self.first_pass_context(b)) for b in row]
            scans = self._scanner().scan_row(items)
            pending = self._staged_scans = list(zip(row, scans))[::-1]
        return self.commit_scan(*pending.pop())

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
            num_accessed=scan.num_accessed,
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
            work += len(f.all_gen) + len(f.killed_vars) + s.num_accessed
        return WingChanges(changed, work)

    # -- step 3: isolation check -------------------------------------------

    def check_body(
        self, butterfly: Butterfly, side_in: WingChanges
    ) -> Tuple[Set[int], Set[int]]:
        """Pure isolation intersections against the wings' change set
        (each sized by the smaller operand, or by the change set's
        probes into ``first_access``): racing state changes and accesses
        racing a state change."""
        s = self._summaries[butterfly.body.block_id]
        f = s.facts
        wing_changed = side_in.changed
        return (
            (f.all_gen | f.killed_vars) & wing_changed,
            s.first_access.keys() & wing_changed,
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
        # Epoch ``before - 1`` just committed, so its ledger rows are
        # final; they stay one more epoch for a reader that copies rows
        # out between feeds (``sim/lba.py``) and the epoch before them
        # goes -- by key, one block per thread, never a scan.
        tid = 0
        while self.block_work.pop((before - 2, tid), None) is not None:
            tid += 1

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
