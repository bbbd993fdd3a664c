"""The columnar first pass that replayed every MALLOC/FREE in Python,
kept as the reference the identity tests diff the segmented scan of
:meth:`AddrScanner._scan_columns` against.

``scan_columns`` is the parent commit's ``AddrScanner._scan_columns``
verbatim (``self.use_idempotent_filter`` became the ``use_filter``
argument): per-segment changed-location sets, a bisection patch of
``is_changed`` and a per-segment loop that replays each change event
and each access to a changed location against the live ``SOSView``.
:class:`ReplayScanner` is :class:`AddrScanner` with that kernel, so a
row is grouped exactly as the production scanner groups it.  Never
imported by ``src/``.
"""

from bisect import bisect_left
from typing import Any, Dict, List, Set, Tuple

import numpy as np

from repro.core.columnar import (
    OP_FREE, OP_MALLOC, ColumnarBlock, SortedFirstAccess, access_stream,
)
from repro.core.state import SOSView
from repro.lifeguards.addrcheck import (
    _DETAIL_ACCESS,
    _DETAIL_FREE,
    _DETAIL_MALLOC,
    AddrScan,
    AddrScanner,
)
from repro.lifeguards.reports import ErrorKind


class ReplayScanner(AddrScanner):
    """:class:`AddrScanner` whose columnar kernel is :func:`scan_columns`."""

    def _scan_columns(self, group):
        return scan_columns(group, self.use_idempotent_filter)


def scan_columns(
    group: List[Tuple[ColumnarBlock, SOSView]], use_filter: bool
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
    The result is bit-identical to the per-``Instr`` reference kernel.

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
    ops = cols.op
    dst_col = cols.dst
    size_col = cols.size

    acc_off, acc_loc, tot = access_stream(cols)
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
            errors=[rec for _, rec in keyed],
            events=ev_lo[s + 1] - ev0,
            checks=checks,
            accesses=slot_lo[s + 1] - slot_lo[s],
            allocs=allocs,
        ))
    return scans
