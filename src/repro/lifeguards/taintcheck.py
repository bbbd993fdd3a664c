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
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.columnar import (
    HAVE_NUMPY,
    NO_DST,
    OP_ASSIGN,
    OP_JUMP,
    OP_TAINT,
    OP_UNTAINT,
    OP_WRITE,
    np,
)
from repro.core.epoch import Block, BlockId, InstrId
from repro.core.framework import ButterflyAnalysis
from repro.core.state import SOSHistory, SOSView
from repro.core.window import Butterfly
from repro.lifeguards.reports import ErrorKind, ErrorLog, ErrorReport
from repro.trace.events import Instr, Op

if HAVE_NUMPY:
    #: Events that produce taint metadata (transfer-function rules) or
    #: critical uses; everything else -- READ/MALLOC/FREE/NOP, the bulk
    #: of realistic traces -- is invisible to the taint first pass and
    #: the vector kernel skips it wholesale.
    _TAINT_EVENT_LUT = np.zeros(256, dtype=bool)
    _TAINT_EVENT_LUT[[OP_TAINT, OP_UNTAINT, OP_WRITE, OP_ASSIGN, OP_JUMP]] = (
        True
    )
else:  # pragma: no cover - REPRO_NO_NUMPY / no-numpy environments
    _TAINT_EVENT_LUT = None


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

#: One rule: (offset within block, destination location, value).
Rule = Tuple[int, int, Value]


@dataclass
class TaintSummary:
    """Per-block first-pass product: the block's transfer functions.

    ``rules``: per destination location, the (offset, value) writes in
    program order -- this is the GEN-SIDE-OUT analog (all of them are
    visible to the wings since interleaving is arbitrary).
    ``jumps``: critical uses to verify in the second pass.
    ``lastcheck``: filled during the second pass -- the resolved taint of
    each location's final write (the paper's LASTCHECK).
    """

    block_id: BlockId
    rules: Dict[int, List[Tuple[int, Value]]] = field(default_factory=dict)
    jumps: List[Tuple[int, int]] = field(default_factory=list)
    lastcheck: Dict[int, Value] = field(default_factory=dict)


def _value_of(instr: Instr) -> Optional[Tuple[int, Value]]:
    """Map an event to its transfer-function RHS, or None if it writes
    no taint metadata."""
    if instr.op is Op.TAINT:
        return instr.dst, BOT
    if instr.op in (Op.UNTAINT, Op.WRITE):
        if instr.dst is None:
            return None
        return instr.dst, TOP
    if instr.op is Op.ASSIGN:
        if not instr.srcs:
            return instr.dst, TOP
        return instr.dst, tuple(instr.srcs)
    return None


@dataclass(frozen=True)
class TaintScanner:
    """Picklable first-pass work unit: collect one block's transfer
    functions and critical uses.

    Two interchangeable kernels produce bit-identical
    :class:`TaintSummary` results:

    - the *object* kernel, one :class:`Instr` at a time (the reference
      semantics);
    - the *columnar* kernel, which selects the taint-relevant events
      (TAINT/UNTAINT/WRITE/ASSIGN/JUMP) with one LUT pass over the op
      column and CSR-gathers only their sources, never touching the
      READ-dominated remainder of the block.

    ``columnar=None`` picks automatically: the vector kernel runs when
    numpy is available and the block is already columnar-backed, so the
    auto path never pays an object->columnar conversion.
    """

    columnar: Optional[bool] = None

    def __call__(self, block: Block, context: object) -> TaintSummary:
        if HAVE_NUMPY and self.columnar is not False:
            if self.columnar or block.has_columns:
                return self._scan_columns(block)
        return self._scan_objects(block)

    def _scan_objects(self, block: Block) -> TaintSummary:
        summary = TaintSummary(block_id=block.block_id)
        for i, instr in enumerate(block.instrs):
            written = _value_of(instr)
            if written is not None:
                dst, value = written
                summary.rules.setdefault(dst, []).append((i, value))
            elif instr.op is Op.JUMP:
                summary.jumps.append((i, instr.srcs[0]))
        return summary

    def _scan_columns(self, block: Block) -> TaintSummary:
        """Vectorized scan: one boolean table read finds the relevant
        events, a CSR gather pulls just their sources, and a Python
        loop over only those events rebuilds ``rules``/``jumps`` in
        exact stream order (dict insertion order included), so the
        result is bit-identical to :meth:`_scan_objects`."""
        cols = block.columns
        summary = TaintSummary(block_id=block.block_id)
        if cols.length == 0:
            return summary
        # ``take``, not ``[ops]``: a uint8 fancy index is numpy's slow
        # path (docs/perf.md, "Numpy's slow paths").
        idx = np.flatnonzero(_TAINT_EVENT_LUT.take(cols.op))
        if not idx.shape[0]:
            return summary
        # Gather only the selected events' fields; READ sources
        # dominate src_val on real traces and are never touched.
        sel_ops, sel_dst, bounds, sel_src = cols.gather(idx)
        rules = summary.rules
        jumps = summary.jumps
        for k, i in enumerate(idx.tolist()):
            op = sel_ops[k]
            if op == OP_JUMP:
                jumps.append((i, sel_src[bounds[k]]))
            elif op == OP_TAINT:
                rules.setdefault(sel_dst[k], []).append((i, BOT))
            elif op == OP_ASSIGN:
                s, e = bounds[k], bounds[k + 1]
                value = tuple(sel_src[s:e]) if e > s else TOP
                rules.setdefault(sel_dst[k], []).append((i, value))
            else:  # UNTAINT or WRITE stores trusted data
                dst = sel_dst[k]
                if dst != NO_DST:
                    rules.setdefault(dst, []).append((i, TOP))
        return summary


def _touched(asked: Set[int], window: List[TaintSummary]) -> Set[int]:
    """The ``asked`` locations some rule of the ``window`` summaries
    writes: one C-level key intersection per summary, over what no
    earlier summary wrote, so the answer comes from the wings this
    butterfly was handed and from nothing else."""
    missing = set(asked)
    for s in window:
        if not missing:
            break
        missing -= s.rules.keys() & missing
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
        First-pass kernel selection: ``None`` (default) auto-selects
        the vectorized scan when numpy is available and the block is
        columnar-backed, ``True``/``False`` force a kernel (see
        :class:`TaintScanner`).
    """

    def __init__(
        self,
        mode: str = "relaxed",
        max_steps: int = 4096,
        two_phase: bool = True,
        use_columnar_kernel: Optional[bool] = None,
    ) -> None:
        if mode not in ("relaxed", "sc"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.max_steps = max_steps
        self.two_phase = two_phase
        self.use_columnar_kernel = use_columnar_kernel
        self.sos = SOSHistory()
        self.errors = ErrorLog()
        self._summaries: Dict[BlockId, TaintSummary] = {}
        self._blocks: Dict[BlockId, Block] = {}
        self.parallel_first_pass = True
        self.parallel_second_pass = True

    # -- step 1: collect transfer functions -------------------------------

    def make_scanner(self) -> TaintScanner:
        return TaintScanner(self.use_columnar_kernel)

    def commit_scan(self, block: Block, scan: TaintSummary) -> TaintSummary:
        self._summaries[block.block_id] = scan
        self._blocks[block.block_id] = block
        return scan

    # -- step 2: gather wing rule sets -------------------------------------

    def meet(
        self, butterfly: Butterfly, wing_summaries: List[TaintSummary]
    ) -> List[TaintSummary]:
        # Rules must stay attributed to their epoch for the two-phase
        # resolution, so the meet keeps the summaries distinct.
        return wing_summaries

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
        summary = self._summaries[body.block_id]
        lsos = self._compute_lsos(lid, tid)

        # LASTCHECK is each location's final write, an ASSIGN's untainted
        # until a check below finds a tainted parent.  Those parents and
        # the jump targets are what this body's checks ask about.
        lastcheck: Dict[int, Value] = {}
        assigns: List[Tuple[int, int, Tuple[int, ...]]] = []
        asked = {loc for _, loc in summary.jumps}
        for loc, writes in summary.rules.items():
            offset, value = writes[-1]
            if value is BOT or value is TOP:
                lastcheck[loc] = value
            else:
                lastcheck[loc] = TOP
                assigns.append((loc, offset, value))
                asked.update(value)
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
            for offset, loc in summary.jumps
            if loc in tainted or (loc in touched and walk((loc,), offset))
        ]
        return lastcheck, flagged

    def _algorithm1(
        self,
        side_in: List[TaintSummary],
        summary: TaintSummary,
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
        self,
        butterfly: Butterfly,
        side_in: List[TaintSummary],
        result: Tuple[Dict[int, Value], List[Tuple[int, int]]],
    ) -> None:
        body = butterfly.body
        lastcheck, flagged = result
        self._summaries[body.block_id].lastcheck.update(lastcheck)
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
                rec.event(
                    "error",
                    kind=ErrorKind.TAINTED_JUMP.value,
                    location=loc,
                    epoch=body.block_id[0],
                    thread=body.block_id[1],
                    index=offset,
                    ref=list(body.global_ref(offset)),
                    stage="second",
                    wing=None,
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
        gen_l: Set[int] = set()
        kill_l: Set[int] = set()
        for (l, t), s in summaries.items():
            for loc, value in s.lastcheck.items():
                if value is BOT:
                    gen_l.add(loc)
                elif value is TOP:
                    if all(
                        self._lastcheck_span(loc, lid, t2) in (TOP, None)
                        for t2 in threads
                        if t2 != t
                    ):
                        kill_l.add(loc)
        # (SOS - KILL_l) U GEN_l: a location in both sets stays tainted.
        self.sos.publish(lid, gen_l, kill_l)
        self._evict(lid - 1)

    def evict_history(self, before: int) -> None:
        self.sos.evict(before)

    def emit_metrics(self, recorder: Any) -> None:
        """End-of-run gauges: flagged jumps and window residency."""
        recorder.gauge("taintcheck.tainted_jumps", len(self.errors))
        recorder.gauge("taintcheck.resident_summaries", len(self._summaries))

    def _lastcheck_span(self, loc: int, lid: int, tid: int) -> Optional[Value]:
        """LASTCHECK(x, (l-1, l), t): the thread's most recent resolution
        across the two epochs, or None if it never wrote x there."""
        cur = self._summaries.get((lid, tid))
        if cur is not None and loc in cur.lastcheck:
            return cur.lastcheck[loc]
        prev = self._summaries.get((lid - 1, tid))
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
        head = self._summaries.get((lid - 1, tid)) if lid >= 1 else None
        if head is None:
            return lsos
        # The other threads' LASTCHECKs in epoch l-2, gathered once: the
        # resurrection term probes them per head untaint.
        siblings = [
            s.lastcheck
            for (l, t), s in self._summaries.items()
            if l == lid - 2 and t != tid
        ]
        for loc, verdict in head.lastcheck.items():
            if verdict is BOT:
                lsos.add(loc)
            elif (
                verdict is TOP
                and loc in lsos
                and not any(check.get(loc) is BOT for check in siblings)
            ):
                lsos.discard(loc)
        return lsos

    def _evict(self, older_than: int) -> None:
        for key in [k for k in self._summaries if k[0] < older_than]:
            del self._summaries[key]
            self._blocks.pop(key, None)


class _RuleGraph:
    """Reachability over the transfer functions of one resolution phase.

    Nodes are locations; an edge ``y -> z`` exists when some in-phase
    rule ``(y <- s)`` has ``z`` in ``s``.  Taint flows backwards from
    bottom rules and from base-tainted locations (LSOS, or phase-1
    conclusions during phase 2).
    """

    def __init__(
        self,
        wing_summaries: List[TaintSummary],
        body: TaintSummary,
        guard: ButterflyTaintCheck,
        fallback: Optional["_RuleGraph"] = None,
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
        self._sources = [*wing_summaries, body]
        # loc -> list of (site, value), filled by _rules_for.
        self._buckets: Dict[int, List[Tuple[InstrId, Value]]] = {}
        self._budget = [guard.max_steps]

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
                writes = s.rules.get(loc)
                if writes:
                    lid, tid = s.block_id
                    bucket += [
                        ((lid, tid, offset), value)
                        for offset, value in writes
                    ]
        return bucket

    # -- top-level resolution ------------------------------------------------

    def tainted_parents(
        self,
        parents: Tuple[int, ...],
        offset: int,
        base: AbstractSet[int],
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
        self,
        y: int,
        base: AbstractSet[int],
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

    def _local_write_before(
        self, loc: int, offset: int
    ) -> Optional[Tuple[int, Value]]:
        writes = self._body.rules.get(loc)
        if not writes:
            return None
        # Sorted by offset by construction; ``(offset,)`` sorts before
        # every ``(offset, value)``, so no ``Value`` is ever compared.
        i = bisect_left(writes, (offset,))
        return writes[i - 1] if i else None

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

