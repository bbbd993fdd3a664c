"""The per-block columnar first pass the row kernel replaced, kept as
the reference the identity tests diff :meth:`AddrScanner.scan_row`
against.

``_scan_columns`` is PR 18's ``AddrScanner._scan_columns`` verbatim
(``self.use_idempotent_filter`` became the ``use_filter`` argument,
the ``access`` set :class:`AddrScan` no longer carries was dropped, and
its ``first_access`` dict is handed over as the footprint every kernel
now leaves);
``per_block_scan`` is that commit's ``AddrScanner.__call__`` for a
columnar-backed block -- every block is one now.  Never imported by
``src/``.
"""

from typing import Any, Dict, List, Set, Tuple

import numpy as np

from repro.core.columnar import (
    OP_FREE, OP_MALLOC, ColumnarBlock, SortedFirstAccess,
)
from repro.core.epoch import Block
from repro.core.state import SOSView
from repro.lifeguards.addrcheck import (
    _DETAIL_ACCESS,
    _DETAIL_FREE,
    _DETAIL_MALLOC,
    AddrScan,
)
from repro.lifeguards.reports import ErrorKind
from tests.lifeguards.flatten_reference import _ACC_LUT, _DST_LUT


def per_block_scan(
    block: Block, running: SOSView, use_filter: bool
) -> AddrScan:
    return _scan_columns(block.columns, running, use_filter)


def _scan_columns(
    cols: ColumnarBlock, running: SOSView, use_filter: bool
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
    in event order.  The result is bit-identical to the per-``Instr``
    reference kernel.
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
    first_change: Dict[int, int] = {}
    first_access: Dict[int, int] = {}
    errors: List[Tuple[ErrorKind, int, int, str]] = []
    checked: Set[int] = set()
    checks = 0
    accesses = 0
    allocs = 0

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
        # ``first_access`` is a pure function of the access stream
        # (no allocation state, no filter), computed wholesale: the
        # first occurrence of a location in the stream IS its first
        # occurrence in event order.
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
        first_change=first_change,
        first_access=SortedFirstAccess.from_dict(first_access),
        errors=errors,
        events=n,
        checks=checks,
        accesses=accesses,
        allocs=allocs,
    )
