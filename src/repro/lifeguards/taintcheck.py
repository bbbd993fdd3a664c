"""Butterfly TaintCheck (paper Section 6.2).

TaintCheck extends reaching definitions with *inheritance*: an
instruction ``x := binop(a, b)`` may copy taint from locations whose
status the executing thread does not know.  The lifeguard's metadata are
transfer functions ``(x_{l,t,i} <- s)`` where ``s`` is bottom (tainted),
top (untainted), or a set of parent locations, SSA-numbered by dynamic
instruction site.

Checks resolve transfer functions against the three-epoch window via the
paper's Algorithm 1: parents are replaced by their defining rules until
bottom is reached (tainted) or the parent list drains (untainted).  A
location no rule of the window writes has no rule to be replaced by, so
its verdict is LSOS membership and the algorithm runs only where the
window writes.  Two variants of the termination condition are provided:

- ``mode="sc"`` -- sequential consistency: each derivation chain keeps a
  per-thread site counter and a rule may only be used if it occurs
  strictly before the chain's previous rule from that thread;
- ``mode="relaxed"`` -- relaxed memory models: only self-replacement is
  disallowed (location-level cycle prevention), admitting any finite
  rule sequence.

To reduce false positives (Lemma 6.3), resolution runs in two phases:
phase 1 may use rules from epochs ``l-1`` and ``l``; phase 2 from ``l``
and ``l+1``, with phase-1 taint conclusions persisting as base facts.

The SOS/LSOS track *tainted addresses* (not transfer functions), updated
through ``LASTCHECK`` -- the resolution of each location's last write in
a block -- with the reaching-definitions update rules.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.columnar import (
    OP_ASSIGN,
    OP_JUMP,
    OP_TAINT,
    OP_UNTAINT,
    OP_WRITE,
)
from repro.core.epoch import Block, BlockId, InstrId
from repro.core.framework import ButterflyAnalysis, Scanner, row_groups
from repro.core.state import SOSHistory, SOSView
from repro.core.window import Butterfly
from repro.lifeguards.reports import ErrorKind, ErrorLog, emit_error_event

#: Events that produce taint metadata (transfer-function rules) or
#: critical uses; everything else -- READ/MALLOC/FREE/NOP, the bulk of
#: realistic traces -- is invisible to the taint first pass and the
#: vector kernel skips it wholesale.
_TAINT_EVENT_LUT = np.zeros(256, dtype=bool)
_TAINT_EVENT_LUT[[OP_TAINT, OP_UNTAINT, OP_WRITE, OP_ASSIGN, OP_JUMP]] = True

#: ``_epoch_tainters`` value for a location two or more threads' last
#: checks resolve tainted in one epoch (no thread id is negative).
_MANY_TAINTERS = -1


class _Bottom:
    """Taint (the paper's bottom)."""

    def __repr__(self) -> str:  # pragma: no cover
        return "BOT"

    def __reduce__(self):
        # Preserve singleton identity across pickling (``is`` checks
        # everywhere) so summaries survive the processes backend.
        return (_load_bot, ())


class _Top:
    """Untaint (the paper's top)."""

    def __repr__(self) -> str:  # pragma: no cover
        return "TOP"

    def __reduce__(self):
        return (_load_top, ())


BOT = _Bottom()
TOP = _Top()


def _load_bot() -> "_Bottom":
    return BOT


def _load_top() -> "_Top":
    return TOP


def _strictly_before(site: "InstrId", bound: Optional["InstrId"]) -> bool:
    """Section 6.2's strictly-before: two epochs apart, or earlier in
    the same thread's program order."""
    if bound is None:
        return True
    sl, st, si = site
    bl, bt, bi = bound
    if sl <= bl - 2:
        return True
    if st == bt:
        return (sl, si) < (bl, bi)
    return False

#: A transfer-function right-hand side: taint, untaint, or parents.
Value = Union[_Bottom, _Top, Tuple[int, ...]]

#: A rule's ``kind`` code: its value is BOT, TOP, or its parents.
_K_BOT, _K_TOP, _K_PARENTS = 0, 1, 2
_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_KIND = np.empty(0, dtype=np.uint8)
_ZERO = np.zeros(1, dtype=np.int64)


class TaintSummary:
    """Per-block first-pass product: the block's transfer functions
    (all visible to the wings -- the GEN-SIDE-OUT analog) as columns.

    ``written`` maps each written location, ascending, to its run
    ``(lo, hi)`` of the (location, offset)-sorted rules a row scan's
    summaries share: rule ``r`` has block offset ``offsets[r]``, a
    ``kind`` (BOT, TOP or parents) and the parents
    ``par_val[par_off[r]:par_off[r+1]]``.  ``jump_off``/``jump_loc``
    are the critical uses, in offset order.  What every check reads up
    front comes from the same pass: the keys of ``written``,
    ``last_bot`` (locations whose final write is BOT) and
    ``last_assigns`` (each final-write ASSIGN as ``(location, offset,
    parents)``); other locations end on TOP.  ``lastcheck`` is filled
    in the second pass (the paper's LASTCHECK)."""

    __slots__ = (
        "block_id", "written", "offsets", "kind", "par_off", "par_val",
        "jump_off", "jump_loc", "last_bot", "last_assigns", "lastcheck",
        "_columns", "_writes",
    )

    def __init__(
        self, block_id: BlockId,
        written: Optional[Dict[int, Tuple[int, int]]] = None,
        offsets: Any = _EMPTY, kind: Any = _EMPTY_KIND,
        par_off: Any = _ZERO, par_val: Any = _EMPTY,
        jump_off: Any = _EMPTY, jump_loc: Any = _EMPTY,
        last_bot: Sequence[int] = (),
        last_assigns: Sequence[Tuple[int, int, Tuple[int, ...]]] = (),
    ) -> None:
        self.block_id = block_id
        self.written = {} if written is None else written
        self.offsets, self.kind = offsets, kind
        self.par_off, self.par_val = par_off, par_val
        self.jump_off, self.jump_loc = jump_off, jump_loc
        self.last_bot, self.last_assigns = last_bot, last_assigns
        self.lastcheck: Dict[int, Value] = {}
        self._columns: Optional[Tuple[memoryview, ...]] = None
        self._writes: Dict[int, List[Tuple[int, Value]]] = {}

    @classmethod
    def from_rules(
        cls, block_id: BlockId, rules: Dict[int, List[Tuple[int, Value]]],
        jumps: Sequence[Tuple[int, int]] = (),
    ) -> "TaintSummary":
        """From ``location -> [(offset, value), ...]`` in program order
        and ``[(offset, location), ...]`` jumps: the per-``Instr``
        reference scanner's and hand-built windows' constructor."""
        locs = sorted(loc for loc, writes in rules.items() if writes)
        flat = [write for loc in locs for write in rules[loc]]
        kind = [_K_BOT if v is BOT else _K_TOP if v is TOP else _K_PARENTS
                for _, v in flat]
        parents = [tuple(v) if k == _K_PARENTS else () for (_, v), k in
                   zip(flat, kind)]
        ends = list(accumulate(len(rules[loc]) for loc in locs))
        i64 = np.int64
        return cls(
            block_id, dict(zip(locs, zip([0, *ends], ends))),
            np.array([offset for offset, _ in flat], i64),
            np.array(kind, np.uint8),
            np.array([0, *accumulate(map(len, parents))], i64),
            np.array([p for ps in parents for p in ps], i64),
            np.array([offset for offset, _ in jumps], i64),
            np.array([loc for _, loc in jumps], i64),
            [loc for loc, e in zip(locs, ends) if kind[e - 1] == _K_BOT],
            [(loc, flat[e - 1][0], parents[e - 1])
             for loc, e in zip(locs, ends) if kind[e - 1] == _K_PARENTS],
        )

    def _views(self) -> Tuple[memoryview, ...]:
        """The rule columns as memoryviews: plain ints, no copies."""
        if self._columns is None:
            self._columns = tuple(map(memoryview, (
                self.offsets, self.kind, self.par_off, self.par_val)))
        return self._columns

    def writes(self, loc: int) -> Sequence[Tuple[int, Value]]:
        """``loc``'s ``(offset, value)`` writes in offset order, built
        the first time a walk asks, then kept."""
        got = self._writes.get(loc)
        if got is not None:
            return got
        bounds = self.written.get(loc)
        if bounds is None:
            return ()
        offsets, kind, par_off, par_val = self._views()
        lo, hi = bounds
        got = self._writes[loc] = [
            (offsets[r], BOT if k == _K_BOT else TOP if k == _K_TOP
             else tuple(par_val[par_off[r]:par_off[r + 1]]))
            for r, k in zip(range(lo, hi), kind[lo:hi])
        ]
        return got

    def write_before(self, loc: int, offset: int) -> Optional[tuple]:
        """``loc``'s last ``(offset, value)`` write before ``offset``,
        or None: a bisection of :meth:`writes`' list if built, else of
        the ``offsets`` column."""
        writes = self._writes.get(loc)
        if writes is not None:  # ``(offset,)`` sorts before any write
            i = bisect_left(writes, (offset,))
            return writes[i - 1] if i else None
        bounds = self.written.get(loc)
        if bounds is None:
            return None
        offsets, kind, par_off, par_val = self._columns or self._views()
        lo, hi = bounds
        r = bisect_left(offsets, offset, lo, hi) - 1
        if r < lo:
            return None
        k = kind[r]
        return offsets[r], BOT if k == _K_BOT else TOP if k == _K_TOP else (
            tuple(par_val[par_off[r]:par_off[r + 1]]))

    def __getstate__(self):
        # The readers' caches are rebuilt on demand, never shipped.
        return tuple(getattr(self, name) for name in self.__slots__[:-2])

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)
        self._columns, self._writes = None, {}


def _segment_cuts(segs: Any, nseg: int) -> List[int]:
    """Each segment's start in the ascending ``segs``, then the end:
    the bounds of each block's share of a group's jumps."""
    return segs.searchsorted(np.arange(nseg + 1, dtype=np.int64)).tolist()


def _scan_group(blocks: Sequence[Block]) -> List[TaintSummary]:
    """Vectorized first pass over a group of blocks' column arrays: one
    table read selects the taint-relevant events of the whole group, one
    gather pulls just their fields, one stable sort by (segment,
    location) lays each block's rules out in runs, and one loop over the
    runs (a location per block, never an event) deals them out."""
    nseg = len(blocks)
    if nseg == 1:
        cols = blocks[0].columns
        op, dst = cols.op, cols.dst
        src_off, src_val = cols.src_off, cols.src_val
    else:
        cols = [block.columns for block in blocks]
        op, dst, src_off, src_val = (
            np.concatenate([getattr(c, name) for c in cols])
            for name in ("op", "dst", "src_off", "src_val"))
    # ``take``, not ``[op]``: a uint8 fancy index is numpy's slow path
    # (docs/perf.md, "Numpy's slow paths").
    idx = _TAINT_EVENT_LUT.take(op).nonzero()[0]
    if not idx.shape[0]:
        return [TaintSummary(block.block_id) for block in blocks]
    if nseg == 1:
        off = at = idx
        src_lo = src_off.take(idx)
    else:
        # Event ``e`` of segment ``s`` sits at ``e + s`` of the joined
        # source offsets, which count from its block's own ``src_val``.
        ev_lo = np.array([
            *accumulate((c.length for c in cols), initial=0),
            *accumulate((c.src_val.shape[0] for c in cols), initial=0)])
        seg = ev_lo[1:nseg + 1].searchsorted(idx, side="right")
        off = idx - ev_lo.take(seg)
        at = idx + seg
        src_lo = src_off.take(at)
        src_lo += ev_lo[nseg + 1:].take(seg)
    ops = op.take(idx)

    is_jump = ops == OP_JUMP  # critical uses: a JUMP's one source
    jmp = is_jump.nonzero()[0]
    jump_off = off.take(jmp)
    jump_loc = src_val.take(src_lo.take(jmp))

    # Rules, stably sorted by (segment, location): offsets ascend in runs.
    rule = (~is_jump).nonzero()[0]
    loc = dst.take(idx.take(rule))
    if nseg > 1:
        rule_seg = seg.take(rule)
        order = np.lexsort((loc, rule_seg))
        rule_seg = rule_seg.take(order)
    else:
        order = loc.argsort(kind="stable")
    rule = rule.take(order)
    loc = loc.take(order)
    n_rules = rule.shape[0]
    rule_ops = ops.take(rule)
    # An ASSIGN's sources are its parents; none makes it TOP.
    rule_at = at.take(rule)
    n_par = src_off.take(rule_at + 1)
    n_par -= src_off.take(rule_at)
    n_par *= rule_ops == OP_ASSIGN
    kind = (rule_ops != OP_TAINT).view(np.uint8) + (n_par > 0)
    par_off = np.zeros(n_rules + 1, dtype=np.int64)
    np.add.accumulate(n_par, out=par_off[1:])
    pos = (src_lo.take(rule) - par_off[:-1]).repeat(n_par)
    pos += np.arange(pos.shape[0], dtype=np.int64)
    par_val = src_val.take(pos)
    offsets = off.take(rule)

    # Runs: a new one wherever the (segment, location) key changes.
    cut = np.empty(n_rules + 1, dtype=bool)
    cut[0] = cut[-1] = True
    np.not_equal(loc[1:], loc[:-1], out=cut[1:-1])
    if nseg > 1:
        cut[1:-1] |= rule_seg[1:] != rule_seg[:-1]
    run = cut.nonzero()[0]
    bounds = run.tolist()
    locs = loc.take(run[:-1]).tolist()
    run_seg = rule_seg.take(run[:-1]).tolist() if nseg > 1 else None
    last_kind = kind.take(run[1:] - 1).tolist()  # each run's last write
    if _K_PARENTS in last_kind:
        par_list = par_off.tolist()
        parents = par_val.tolist()
        offsets_list = offsets.tolist()
    written: List[Dict[int, Tuple[int, int]]] = [{} for _ in blocks]
    bots: List[List[int]] = [[] for _ in blocks]
    assigns: List[list] = [[] for _ in blocks]
    for u, k in enumerate(last_kind):
        s = run_seg[u] if run_seg else 0
        hi = bounds[u + 1]
        written[s][locs[u]] = (bounds[u], hi)
        if k == _K_BOT:
            bots[s].append(locs[u])
        elif k == _K_PARENTS:
            assigns[s].append((
                locs[u], offsets_list[hi - 1],
                tuple(parents[par_list[hi - 1]:par_list[hi]]),
            ))
    jump_cut = _segment_cuts(seg.take(jmp), nseg) if nseg > 1 else (
        0, jmp.shape[0])
    views = tuple(map(memoryview, (offsets, kind, par_off, par_val)))
    summaries = []
    for s, block in enumerate(blocks):
        j0, j1 = jump_cut[s], jump_cut[s + 1]
        summary = TaintSummary(
            block.block_id, written[s], offsets, kind, par_off, par_val,
            jump_off[j0:j1], jump_loc[j0:j1], bots[s], assigns[s],
        )
        summary._columns = views  # the group's, made once
        summaries.append(summary)
    return summaries


@dataclass(frozen=True)
class TaintScanner(Scanner):
    """Picklable first-pass work unit: a row's transfer functions and
    critical uses, a group of blocks at a time (:func:`_scan_group`),
    bit for bit those of
    :class:`repro.verify.reference.ReferenceTaintScanner`."""

    def scan_row(self, items: Sequence[Tuple[Block, object]]) -> list:
        return [summary for group in row_groups(items)
                for summary in _scan_group([block for block, _ in group])]


def _touched(asked: Set[int], window: List[TaintSummary]) -> Set[int]:
    """The ``asked`` locations some rule of the ``window`` summaries
    writes: one C-level key intersection per summary, over what no
    earlier summary wrote, so the answer comes from the wings this
    butterfly was handed and from nothing else."""
    missing = set(asked)
    for s in window:
        if not missing:
            break
        missing -= s.written.keys() & missing
    return asked - missing


class ButterflyTaintCheck(ButterflyAnalysis[TaintSummary, List[TaintSummary]]):
    """The parallel TaintCheck lifeguard.

    Parameters
    ----------
    mode:
        ``"relaxed"`` (default) or ``"sc"`` -- the Check-algorithm
        termination condition (see module docstring).
    max_steps:
        Budget for one SC-mode derivation search; on exhaustion the
        check conservatively concludes tainted (never a false negative).
    two_phase:
        Enable the two-phase resolution of Section 6.2 (default).  With
        ``False``, checks resolve against the whole three-epoch window
        at once -- still sound, but it admits impossible epoch-spanning
        paths (the ablation of the 'Reducing False Positives'
        optimization).
    use_columnar_kernel:
        ``False`` scans per ``Instr`` with the reference kernel
        (:class:`repro.verify.reference.ReferenceTaintScanner`);
        ``None`` (the default) or ``True`` runs the columnar
        :class:`TaintScanner`.
    """

    def __init__(
        self, mode: str = "relaxed", max_steps: int = 4096,
        two_phase: bool = True, use_columnar_kernel: Optional[bool] = None,
    ) -> None:
        if mode not in ("relaxed", "sc"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.max_steps = max_steps
        self.two_phase = two_phase
        self.use_columnar_kernel = use_columnar_kernel
        self.sos = SOSHistory()
        self.errors = ErrorLog()
        #: Per recent epoch ``l``: location -> the one thread whose last
        #: check resolved it tainted there, or ``_MANY_TAINTERS`` (built
        #: by :meth:`epoch_update`).  The LSOS of epoch ``l+2`` reads it,
        #: when the summary window no longer holds epoch ``l``.
        self._epoch_tainters: Dict[int, Dict[int, int]] = {}
        self.parallel_first_pass = True
        self.parallel_second_pass = True

    # -- step 1: collect transfer functions -------------------------------

    def make_scanner(self) -> Scanner:
        if self.use_columnar_kernel is False:
            from repro.verify.reference import ReferenceTaintScanner

            return ReferenceTaintScanner()
        return TaintScanner()

    # -- step 2: gather wing rule sets -------------------------------------

    def meet(
        self, butterfly: Butterfly, wings: List[TaintSummary]
    ) -> List[TaintSummary]:
        # Rules must stay attributed to their epoch for the two-phase
        # resolution, so the meet keeps the summaries distinct.
        return wings

    # -- step 3: resolve checks ----------------------------------------------

    def check_body(
        self, butterfly: Butterfly, side_in: List[TaintSummary]
    ) -> Tuple[Dict[int, Value], List[Tuple[int, int]]]:
        """Resolve the body's LASTCHECK values and critical uses.

        The locations the checks ask about are split first: one no rule
        of the window writes is resolved against the LSOS with all the
        others like it, and Algorithm 1 walks only the rest.

        Pure stage: reads only wing rules (first-pass products) and the
        LSOS (derived from earlier epochs' committed checks), so bodies
        of one epoch may resolve concurrently.  Returns the resolved
        ``lastcheck`` map and the flagged ``(offset, location)`` jumps
        for :meth:`commit_check` to apply."""
        body = butterfly.body
        lid, tid = body.block_id
        summary = self.summaries[body.block_id]
        lsos = self._compute_lsos(lid, tid)

        # LASTCHECK is each location's final write, an ASSIGN's untainted
        # until a check below finds a tainted parent.  Those parents and
        # the jump targets are what this body's checks ask about.
        lastcheck: Dict[int, Value] = dict.fromkeys(summary.written, TOP)
        for loc in summary.last_bot:
            lastcheck[loc] = BOT
        assigns = summary.last_assigns
        jump_off = summary.jump_off.tolist()
        jump_loc = summary.jump_loc.tolist()
        asked = set(jump_loc)
        for _, _, parents in assigns:
            asked.update(parents)
        # A location no rule of the window writes gives Algorithm 1
        # nothing to replace: its verdict is LSOS membership (the SOS
        # summarises everything older), taken for all of them at once on
        # the view's three plain sets.
        touched = _touched(asked, [summary, *side_in])
        untouched = asked - touched
        tainted = (untouched & lsos.base) - lsos.removed
        tainted |= untouched & lsos.added
        # Only a touched location is walked, and the phase graphs exist
        # only when there is one.
        walk = self._algorithm1(side_in, summary, lsos) if touched else None
        is_touched = touched.__contains__

        for loc, offset, parents in assigns:
            if not untouched.isdisjoint(parents):
                if not tainted.isdisjoint(parents):
                    lastcheck[loc] = BOT
                    continue
                parents = tuple(filter(is_touched, parents))
            if parents and walk(parents, offset):
                lastcheck[loc] = BOT

        # Critical-use checks.
        flagged = [
            (offset, loc)
            for offset, loc in zip(jump_off, jump_loc)
            if loc in tainted or (loc in touched and walk((loc,), offset))
        ]
        return lastcheck, flagged

    def _algorithm1(
        self, side_in: List[TaintSummary], summary: TaintSummary,
        lsos: AbstractSet[int],
    ) -> Callable[[Tuple[int, ...], int], bool]:
        """The Check algorithm over one body's window, as ``walk(parents,
        offset)``: is any parent possibly tainted at that body offset?"""
        lid = summary.block_id[0]
        if self.two_phase:
            phase1 = _RuleGraph(
                [s for s in side_in if s.block_id[0] <= lid], summary, self
            )
            phase2 = _RuleGraph(
                [s for s in side_in if s.block_id[0] >= lid], summary, self,
                fallback=phase1,
            )
        else:
            # Ablation: one pass over the whole window -- sound but it
            # admits epoch-spanning paths the two phases would reject.
            phase1 = phase2 = _RuleGraph(list(side_in), summary, self)
        first, second = phase1.tainted_parents, phase2.tainted_parents

        def walk(parents: Tuple[int, ...], offset: int) -> bool:
            return first(parents, offset, lsos) or second(
                parents, offset, lsos
            )

        return walk

    def commit_check(
        self, butterfly: Butterfly, side_in: List[TaintSummary],
        result: Tuple[Dict[int, Value], List[Tuple[int, int]]],
    ) -> None:
        body = butterfly.body
        lastcheck, flagged = result
        self.summaries[body.block_id].lastcheck.update(lastcheck)
        errors = self.errors
        rec = self.recorder
        emit = rec.enabled
        for offset, loc in flagged:
            if errors.record(
                ErrorKind.TAINTED_JUMP,
                loc,
                ref=body.global_ref(offset),
                detail="possibly-tainted data used as jump target",
            ) and emit:
                # Taint resolution walks rules from the whole window, so
                # no single wing is blamed; provenance is the body block
                # plus the check stage.
                emit_error_event(
                    rec, body, ErrorKind.TAINTED_JUMP, loc, offset, "second"
                )

    # -- step 4: LASTCHECK-driven SOS update ----------------------------------

    def epoch_update(
        self, lid: int, summaries: Dict[BlockId, TaintSummary]
    ) -> None:
        """Reaching-definitions SOS rules over tainted addresses:

        ``GEN_l``: locations some thread's last check resolved tainted.
        ``KILL_l``: locations some thread untainted whose every *other*
        thread's last check across epochs ``(l-1, l)`` is untainted or
        absent (Section 6.2's LASTCHECK formulation).
        """
        threads = sorted(t for (_, t) in summaries)
        tainters: Dict[int, int] = {}
        kill_l: Set[int] = set()
        for (l, t), s in summaries.items():
            for loc, value in s.lastcheck.items():
                if value is BOT:
                    tainters[loc] = _MANY_TAINTERS if loc in tainters else t
                elif value is TOP:
                    if all(
                        self._lastcheck_span(loc, lid, t2) in (TOP, None)
                        for t2 in threads
                        if t2 != t
                    ):
                        kill_l.add(loc)
        self._epoch_tainters[lid] = tainters
        # Epoch lid's LSOS, the last reader of lid-2's index, is taken.
        self._epoch_tainters.pop(lid - 2, None)
        # (SOS - KILL_l) U GEN_l: a location in both sets stays tainted.
        self.sos.publish(lid, tainters.keys(), kill_l)

    def evict_history(self, before: int) -> None:
        self.sos.evict(before)

    def emit_metrics(self, recorder: Any) -> None:
        """End-of-run gauge: flagged jumps."""
        recorder.gauge("taintcheck.tainted_jumps", len(self.errors))

    def _lastcheck_span(self, loc: int, lid: int, tid: int) -> Optional[Value]:
        """LASTCHECK(x, (l-1, l), t): the thread's most recent resolution
        across the two epochs, or None if it never wrote x there."""
        cur = self.summaries.get((lid, tid))
        if cur is not None and loc in cur.lastcheck:
            return cur.lastcheck[loc]
        prev = self.summaries.get((lid - 1, tid))
        if prev is not None and loc in prev.lastcheck:
            return prev.lastcheck[loc]
        return None

    # -- SOS / LSOS ---------------------------------------------------------------

    def _compute_lsos(self, lid: int, tid: int) -> SOSView:
        """Tainted-address LSOS: head taints, SOS survivors of the head's
        untaints, plus the resurrection term (head untaints a location a
        sibling tainted in the adjacent epoch ``l-2``).

        A view of ``SOS_l`` edited by a visit of the head's own
        ``lastcheck`` -- never of the SOS element by element, and
        :meth:`check_body` reads it without copying it."""
        lsos = self.sos.get(lid)
        head = self.summaries.get((lid - 1, tid)) if lid >= 1 else None
        if head is None:
            return lsos
        # Who tainted what in epoch l-2: the resurrection term keeps a
        # head untaint of a location some sibling tainted there.
        tainters = self._epoch_tainters.get(lid - 2, {})
        for loc, verdict in head.lastcheck.items():
            if verdict is BOT:
                lsos.add(loc)
            elif (
                verdict is TOP
                and loc in lsos
                and tainters.get(loc, tid) == tid
            ):
                lsos.discard(loc)
        return lsos


class _RuleGraph:
    """Reachability over the transfer functions of one resolution phase.

    Nodes are locations; an edge ``y -> z`` exists when some in-phase
    rule ``(y <- s)`` has ``z`` in ``s``.  Taint flows backwards from
    bottom rules and from base-tainted locations (LSOS, or phase-1
    conclusions during phase 2).
    """

    def __init__(
        self, wings: List[TaintSummary], body: TaintSummary,
        guard: ButterflyTaintCheck, fallback: Optional["_RuleGraph"] = None,
    ) -> None:
        self._guard = guard
        self._body = body
        #: Lemma 6.3 case (3): during phase 2, a parent with no phase-2
        #: derivation may still be tainted by an interleaving of the
        #: first two epochs -- the phase-1 graph answers that query.
        self._fallback = fallback
        self._query_memo: Dict[int, bool] = {}
        #: The in-phase first-pass summaries, by reference: the wings in
        #: the order the engine handed them over, then the body.
        self._sources = [*wings, body]
        # loc -> list of (site, value), filled by _rules_for.
        self._buckets: Dict[int, List[Tuple[InstrId, Value]]] = {}
        self._budget = [guard.max_steps]
        #: ``(loc, offset)`` -> the body's last write of ``loc`` before
        #: ``offset``, as ``(offset, value)``, or None.
        self._local_write_before = body.write_before

    def _rules_for(self, loc: int) -> List[Tuple[InstrId, Value]]:
        """Every in-phase rule writing ``loc``, as ``(site, value)`` with
        ``site = (lid, tid, offset)`` for the SC-mode per-thread ordering
        constraint: wings in ``side_in`` order, then the body.

        Built the first time a check asks for ``loc``: each block was
        summarised once in the first pass and is only consulted here,
        so a body pays for the locations its checks reach, not for
        every rule of every wing."""
        bucket = self._buckets.get(loc)
        if bucket is None:
            bucket = self._buckets[loc] = []
            for s in self._sources:
                if loc in s.written:
                    lid, tid = s.block_id
                    bucket += [
                        ((lid, tid, offset), value)
                        for offset, value in s.writes(loc)
                    ]
        return bucket

    # -- top-level resolution ------------------------------------------------

    def tainted_parents(
        self, parents: Tuple[int, ...], offset: int, base: AbstractSet[int]
    ) -> bool:
        """Is any parent possibly tainted at body offset ``offset``?

        The top level anchors against program order: the body's own last
        write to a parent before ``offset`` is followed precisely (the
        paper's short-circuit on local last writes); wing rules and
        (absent a local write) the LSOS supply the potentially-
        concurrent alternatives.  Crucially, the body's *other* writes
        to the parent are not directly visible -- intra-thread
        dependences are respected -- though a wing may have captured any
        of them and re-exposed the value through its own rules.

        ``base`` is the body's entry state (its LSOS); it is only read.
        """
        for y in parents:
            local = self._local_write_before(y, offset)
            if local is not None:
                local_offset, value = local
                if self._local_chain_tainted(value, local_offset, base):
                    return True
            elif y in base:
                # Entry state only: any phase-1 derivation of an
                # anchored parent was already caught by the phase-1
                # resolution that runs before this one, so consulting
                # the fallback here would bypass program order.
                return True
            if self._wing_taint(y, base):
                return True
        return False

    def _base_tainted(
        self, y: int, base: AbstractSet[int],
        counters: Optional[Dict[int, InstrId]] = None,
    ) -> bool:
        """Entry-state taint: the LSOS, or (phase 2 only) a phase-1
        derivation.  In SC mode the chain's per-thread counters carry
        into the fallback so a cross-phase derivation still respects
        each thread's program order."""
        if y in base:
            return True
        if self._fallback is None:
            return False
        if self._guard.mode == "sc":
            fallback = self._fallback
            # Relaxed reachability is a sound filter for the SC search
            # (see _wing_taint); it also keeps the budget from draining
            # on hopeless queries.
            if not fallback._reach_bot_relaxed(y, base):
                return False
            fallback._budget[0] = self._guard.max_steps
            return fallback._search_sc(
                y, dict(counters) if counters else {}, base
            )
        return self._fallback.query_taint(y, base)

    def query_taint(self, y: int, base: AbstractSet[int]) -> bool:
        """Unanchored taint of ``y`` under this phase's rules: used when
        phase 2 needs 'was y tainted by the first two epochs?'."""
        cached = self._query_memo.get(y)
        if cached is not None:
            return cached
        self._query_memo[y] = False  # cycle guard during the search
        if y in base:
            result = True
        elif not self._reach_bot_relaxed(y, base):
            # Relaxed reachability over-approximates every mode.
            result = False
        elif self._guard.mode == "relaxed":
            result = True
        else:
            self._budget[0] = self._guard.max_steps
            result = self._search_sc(y, {}, base)
        self._query_memo[y] = result
        return result

    def _local_chain_tainted(
        self, value: Value, offset: int, base: AbstractSet[int]
    ) -> bool:
        """Follow the body's own def-use chain (program order), allowing
        wing interference at every hop."""
        if value is BOT:
            return True
        if value is TOP:
            return False
        for y in value:
            local = self._local_write_before(y, offset)
            if local is not None:
                if self._local_chain_tainted(local[1], local[0], base):
                    return True
            elif y in base:
                return True
            if self._wing_taint(y, base):
                return True
        return False

    # -- graph search ------------------------------------------------------------

    def _wing_taint(self, loc: int, base: AbstractSet[int]) -> bool:
        """Could a potentially-concurrent wing write leave ``loc``
        tainted?  The first hop must be a wing rule (the body's own
        writes are ordered by intra-thread dependences and handled by
        the anchored local chain); deeper hops may use any rule in the
        window, because a wing may have captured any body value."""
        body_tid = self._body.block_id[1]
        for site, value in self._rules_for(loc):
            if site[1] == body_tid:
                continue
            if value is BOT:
                return True
            if value is TOP:
                continue
            if self._guard.mode == "relaxed":
                if any(
                    self._base_tainted(y, base)
                    or self._reach_bot_relaxed(y, base)
                    for y in value
                ):
                    return True
            else:
                counters = {site[1]: site}
                for y in value:
                    # SC orderings are a subset of relaxed orderings, so
                    # the cheap relaxed reachability is a sound filter:
                    # if it cannot taint y, neither can the SC search --
                    # and a budget-exhausted SC verdict then stays
                    # within the relaxed flag set.
                    if not (
                        self._base_tainted(y, base)
                        or self._reach_bot_relaxed(y, base)
                    ):
                        continue
                    # The search budget guards one derivation search,
                    # not the whole block's worth of checks.
                    self._budget[0] = self._guard.max_steps
                    if self._search_sc(y, counters, base):
                        return True
        return False

    def _reach_bot_relaxed(self, start: int, base) -> bool:
        """Relaxed termination: location-level cycle prevention -- a
        parent may never be replaced by itself (monotone reachability)."""
        seen: Set[int] = set()
        stack = [start]
        while stack:
            loc = stack.pop()
            if loc in seen:
                continue
            seen.add(loc)
            for _site, value in self._rules_for(loc):
                if value is BOT:
                    return True
                if value is TOP:
                    continue
                for y in value:
                    if self._base_tainted(y, base):
                        return True
                    if y not in seen:
                        stack.append(y)
        return False

    def _search_sc(
        self, loc: int, counters: Dict[int, InstrId], base: AbstractSet[int]
    ) -> bool:
        """SC termination: derivation chains carry per-thread site
        counters; a rule from thread ``t`` is usable only strictly
        before the chain's previous rule from ``t`` (program order
        within each thread is respected)."""
        if self._budget[0] <= 0:
            return True  # conservative: assume tainted
        self._budget[0] -= 1
        if self._base_tainted(loc, base, counters):
            return True
        for site, value in self._rules_for(loc):
            if not _strictly_before(site, counters.get(site[1])):
                continue
            if value is BOT:
                return True
            if value is TOP:
                continue
            nxt = dict(counters)
            nxt[site[1]] = site
            for y in value:
                if self._search_sc(y, nxt, base):
                    return True
        return False

