"""Dynamic parallel reaching definitions (paper Section 5.1), and the
base both Section 5 analyses share.

Elements are :class:`~repro.core.dataflow.Definition` values -- a
location plus the dynamic instruction site ``(l, t, i)`` that wrote it.
A definition *reaches* a point if **some** valid ordering delivers it
there un-clobbered (exists-semantics), so:

- generating is *global*: any definition a wing block produces anywhere
  may reach the body (``GEN-SIDE-OUT`` is the union over instructions);
- killing is *local*: a wing kill says nothing about other paths, so
  ``KILL-SIDE-OUT`` is conservatively empty (the paper sets it to the
  universe-complement; equivalently, side kills are never applied).

Epoch-level GEN/KILL and the SOS/LSOS update rules follow Sections
5.1.1-5.1.3; the docstrings of the individual methods spell out the
exact instantiation of each equation at definition granularity
(definition sites are unique, which collapses the paper's
``GEN/KILL_{(l-1,l),t'}`` window terms to a downward-exposure test).

:class:`ReachingAnalysis` holds everything the two flavours share (the
facts table, the body walk, the check, the commits and the SOS update);
a flavour supplies only its equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set,
)

from repro.core.dataflow import (
    BlockFacts,
    Definition,
    DefinitionDomain,
    ElementDomain,
    summarize_block,
    union_side_out_gen,
)
from repro.core.epoch import Block, BlockId, InstrId
from repro.core.framework import ButterflyAnalysis, Scanner, SideIn
from repro.core.state import SOSHistory
from repro.core.window import Butterfly
from repro.lifeguards.reports import ErrorLog, ErrorReport
from repro.trace.events import Instr

Element = Hashable

#: A check receives (instr id, instruction, IN set) and returns the
#: reports to flag (empty for a clean instruction).
CheckFn = Callable[[InstrId, Instr, FrozenSet[Element]], Iterable[ErrorReport]]


@dataclass(frozen=True)
class FactsScanner(Scanner):
    """Picklable first-pass work unit: summarize one block.

    Carries only the (stateless) element domain, so it crosses process
    boundaries for the ``processes`` backend.
    """

    domain: ElementDomain

    def __call__(self, block: Block, context: Any) -> BlockFacts:
        return summarize_block(block, self.domain)


class ReachingAnalysis(ButterflyAnalysis[BlockFacts, SideIn]):
    """What the two Section 5 analyses share.

    A flavour names its default domain (``DOMAIN``) and supplies its
    equations: ``meet``; ``_in(lsos, side_in)``, the ``IN`` set a check
    sees; ``_gen_l`` and the ``_kill_l`` predicate of the SOS update;
    and ``_compute_lsos``.  It may replace the per-instruction kill
    (``_kill``) and a body's ``OUT`` (``_out``).

    ``check`` runs at every body instruction with its ``IN`` set; its
    reports land in ``errors`` in commit (thread) order.  A check is an
    arbitrary (often unpicklable) closure, so only a check-free analysis
    offers the parallel split.  With ``keep_history`` the per-block
    ``IN``/``OUT`` sets, the LSOS used for each body and its side-in
    stay readable after a run; without it, facts older than the window
    go.  ``sos`` is the published SOS history.
    """

    def __init__(
        self,
        domain: Optional[ElementDomain] = None,
        check: Optional[CheckFn] = None,
        keep_history: bool = True,
    ) -> None:
        self.domain = domain if domain is not None else self.DOMAIN()
        self.check = check
        self.keep_history = keep_history
        self.sos = SOSHistory()
        self.errors = ErrorLog()
        self.facts: Dict[BlockId, BlockFacts] = {}
        self.block_in: Dict[BlockId, FrozenSet] = {}
        self.block_out: Dict[BlockId, FrozenSet] = {}
        self.block_lsos: Dict[BlockId, FrozenSet] = {}
        self.side_in: Dict[BlockId, FrozenSet] = {}
        self.parallel_first_pass = check is None

    # -- step 1 ----------------------------------------------------------

    def make_scanner(self) -> FactsScanner:
        return FactsScanner(self.domain)

    def commit_scan(self, block: Block, scan: BlockFacts) -> BlockFacts:
        """Store the block facts for the meet, LSOS and SOS update."""
        self.facts[block.block_id] = scan
        return scan

    # -- step 3 ------------------------------------------------------------

    def check_body(self, butterfly: Butterfly, side_in: SideIn) -> Any:
        """Walk the body from its LSOS: run the check on each
        instruction's ``IN``, then ``LSOS_k = GEN_k U (LSOS_{k-1} -
        KILL_k)``.  Returns the LSOS, the running set at the body's end
        and the check's reports.

        Reads only published state (head facts, SOS) and mutates
        nothing; :meth:`commit_check` records the result.
        """
        body = butterfly.body
        lsos = self._compute_lsos(*body.block_id)
        running = set(lsos)
        reports: List[ErrorReport] = []
        domain, check = self.domain, self.check
        for iid, instr in body.iter_ids():
            if check is not None:
                reports.extend(check(iid, instr, self._in(running, side_in)))
            killed_vars = set(domain.kill_vars_of(instr))
            if killed_vars:
                running = self._kill(running, killed_vars)
            running.update(domain.gen_of(instr, iid))
        return lsos, running, reports

    def commit_check(
        self, butterfly: Butterfly, side_in: SideIn, result: Any
    ) -> None:
        """Record the check's reports, then the body's history."""
        lsos, running, reports = result
        for r in reports:
            self.errors.record(r.kind, r.location, r.ref, r.block, r.detail)
        if self.keep_history:
            block_id = butterfly.body.block_id
            self.block_lsos[block_id] = frozenset(lsos)
            self.side_in[block_id] = frozenset(side_in)
            self.block_in[block_id] = self._in(lsos, side_in)
            self.block_out[block_id] = self._out(block_id, running, side_in)

    def _out(
        self, block_id: BlockId, running: Set, side_in: SideIn
    ) -> FrozenSet:
        """A body's ``OUT``: the ``IN`` of the walk's end."""
        return self._in(running, side_in)

    def _kill(self, elements: Set, vars_: Set[int]) -> Set:
        """The elements no location in ``vars_`` strikes."""
        element_vars = self.domain.element_vars
        return {
            e for e in elements if not any(v in vars_ for v in element_vars(e))
        }

    # -- step 4 --------------------------------------------------------------

    def epoch_update(
        self, lid: int, summaries: Dict[BlockId, BlockFacts]
    ) -> None:
        """Publish ``SOS_{l+2} = GEN_l U (SOS_{l+1} - KILL_l)``."""
        self.sos.advance(
            lid, self._gen_l(lid, summaries), self._kill_l(lid, summaries)
        )
        if not self.keep_history:
            for key in [k for k in self.facts if k[0] < lid - 2]:
                del self.facts[key]

    def evict_history(self, before: int) -> None:
        self.sos.evict(before)


class ReachingDefinitions(ReachingAnalysis[Set[Definition]]):
    """The generic reaching-definitions lifeguard of Section 5.1."""

    DOMAIN = DefinitionDomain

    def meet(
        self, butterfly: Butterfly, wing_summaries: List[BlockFacts]
    ) -> Set[Definition]:
        """GEN-SIDE-IN: union of the wings' GEN-SIDE-OUT (meet is union)."""
        return union_side_out_gen(wing_summaries)

    def _in(
        self, lsos: Set[Definition], side_in: Set[Definition]
    ) -> FrozenSet[Definition]:
        """``IN_{l,t,i} = GEN-SIDE-IN U LSOS_{l,t,i}``."""
        return frozenset(lsos | side_in)

    def _kill(
        self, elements: Set[Definition], vars_: Set[int]
    ) -> Set[Definition]:
        """A write kills every definition of its location."""
        return {d for d in elements if d.var not in vars_}

    def _gen_l(
        self, lid: int, summaries: Dict[BlockId, BlockFacts]
    ) -> Set[Definition]:
        """``GEN_l``: the union of the blocks' downward-exposed defs
        (Section 5.1.1: some valid ordering runs that block last)."""
        return set().union(*(facts.gen for facts in summaries.values()))

    def _kill_l(
        self, lid: int, summaries: Dict[BlockId, BlockFacts]
    ) -> Callable[[Definition], bool]:
        """``KILL_l`` membership for a definition ``d`` of ``x`` from
        ``SOS_{l+1}`` (so ``d.epoch <= l-1``) instantiates the paper's
        formula: some block ``(l,t)`` kills ``x`` **and** every other
        thread either kills or never window-exposes ``d`` across epochs
        ``(l-1, l)``.  With unique definition sites this reduces to:
        a write to ``x`` exists in epoch ``l`` and ``d`` is *not*
        downward-exposed by its own thread across ``(l-1, l)``.
        """
        killed_vars = set().union(
            *(facts.killed_vars for facts in summaries.values())
        )

        def killed(d: Definition) -> bool:
            if d.var not in killed_vars:
                return False
            if d.epoch == lid - 1:
                own_prev = self.facts.get((lid - 1, d.thread))
                own_cur = summaries.get((lid, d.thread))
                return not (
                    own_prev is not None
                    and d in own_prev.gen
                    and (own_cur is None or d.var not in own_cur.killed_vars)
                )
            return True

        return killed

    def _compute_lsos(self, lid: int, tid: int) -> Set[Definition]:
        """``LSOS_{l,t}`` (Section 5.1.2): head GEN, plus SOS survivors,
        plus the resurrection term -- defs the head kills but that an
        *adjacent* epoch ``l-2`` block of another thread generated (the
        head may interleave before them, so they may still reach)."""
        sos = self.sos.get(lid)
        head = self.facts.get((lid - 1, tid)) if lid >= 1 else None
        if head is None:
            return set(sos)
        lsos: Set[Definition] = set(head.gen)
        for d in sos:
            if d.var not in head.killed_vars:
                lsos.add(d)
            elif d.epoch == lid - 2 and d.thread != tid:
                lsos.add(d)
        return lsos
