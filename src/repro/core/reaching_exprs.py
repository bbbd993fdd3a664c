"""Dynamic parallel reaching expressions (paper Section 5.2).

Elements are :class:`~repro.core.dataflow.Expression` values.  An
expression reaches a point only if **no** valid ordering kills it on the
way (forall-semantics) -- the dual of reaching definitions:

- killing is *global*: a kill anywhere in a wing block may strike
  before the body (``KILL-SIDE-OUT`` is the union over instructions,
  and the meet over the wings is union, not the classic intersection);
- generating is *local*: no wing can promise an expression reaches
  along every path, so ``GEN-SIDE-OUT`` is empty.

AddrCheck (Section 6.1) instantiates this analysis with allocation as
GEN and deallocation as KILL.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.dataflow import (
    BlockFacts,
    Expression,
    ExpressionDomain,
    union_side_out_kill,
)
from repro.core.epoch import Block, BlockId, InstrId
from repro.core.framework import ButterflyAnalysis
from repro.core.reaching_defs import FactsScanner
from repro.core.state import SOSHistory
from repro.core.window import Butterfly

#: Per-instruction hook: (instr id, instruction, IN set).
InstrHook = Callable[[InstrId, object, FrozenSet[Expression]], None]


class ReachingExpressions(ButterflyAnalysis[BlockFacts, Set[int]]):
    """The generic reaching-expressions lifeguard of Section 5.2."""

    def __init__(
        self,
        on_instruction: Optional[InstrHook] = None,
        keep_history: bool = True,
    ) -> None:
        self.domain = ExpressionDomain()
        self.sos = SOSHistory()
        self.on_instruction = on_instruction
        self.keep_history = keep_history
        self.facts: Dict[BlockId, BlockFacts] = {}
        self.block_in: Dict[BlockId, FrozenSet[Expression]] = {}
        self.block_out: Dict[BlockId, FrozenSet[Expression]] = {}
        self.block_lsos: Dict[BlockId, FrozenSet[Expression]] = {}
        self.side_in: Dict[BlockId, FrozenSet[int]] = {}
        # Hooks are arbitrary closures; only the hook-free analysis
        # advertises the parallel split (mirrors ReachingDefinitions).
        self.parallel_first_pass = on_instruction is None
        self.parallel_second_pass = on_instruction is None

    # -- step 1 ----------------------------------------------------------

    def make_scanner(self) -> FactsScanner:
        return FactsScanner(self.domain)

    def commit_scan(self, block: Block, scan: BlockFacts) -> BlockFacts:
        """Store the block facts for the meet, LSOS and SOS update."""
        self.facts[block.block_id] = scan
        return scan

    # -- step 2 ------------------------------------------------------------

    def meet(
        self, butterfly: Butterfly, wing_summaries: List[BlockFacts]
    ) -> Set[int]:
        """KILL-SIDE-IN as a symbolic var set: union of the wings'
        KILL-SIDE-OUT (Section 5.2: the meet is union)."""
        return union_side_out_kill(wing_summaries)

    # -- step 3 ------------------------------------------------------------

    def check_body(
        self, butterfly: Butterfly, side_in: Set[int]
    ) -> Tuple[Set[Expression], Set[Expression]]:
        """``IN_{l,t,i} = LSOS_{l,t,i} - KILL-SIDE-IN_{l,t}``.

        Pure stage: reads head facts and the SOS, both published before
        this epoch's second passes start."""
        body = butterfly.body
        lid, tid = body.block_id
        lsos = self._compute_lsos(lid, tid)
        running = self._walk_body(body, lsos, side_in)
        return lsos, running

    def commit_check(
        self, butterfly: Butterfly, side_in: Set[int], result: Any
    ) -> None:
        lsos, running = result
        if self.keep_history:
            block_id = butterfly.body.block_id
            self.block_lsos[block_id] = frozenset(lsos)
            self.side_in[block_id] = frozenset(side_in)
            self.block_in[block_id] = frozenset(
                e for e in lsos if not self._touches(e, side_in)
            )
            self.block_out[block_id] = frozenset(
                e
                for e in running
                if e in self.facts[block_id].gen
                or not self._touches(e, side_in)
            )

    def _walk_body(
        self, body: Block, lsos: Set[Expression], side_in: Set[int]
    ) -> Set[Expression]:
        running: Set[Expression] = set(lsos)
        for iid, instr in body.iter_ids():
            if self.on_instruction is not None:
                visible = frozenset(
                    e for e in running if not self._touches(e, side_in)
                )
                self.on_instruction(iid, instr, visible)
            killed_vars = set(self.domain.kill_vars_of(instr))
            if killed_vars:
                running = {
                    e
                    for e in running
                    if not any(
                        v in killed_vars
                        for v in self.domain.element_vars(e)
                    )
                }
            for element in self.domain.gen_of(instr, iid):
                running.add(element)
        return running

    # -- step 4 --------------------------------------------------------------

    def epoch_update(
        self, lid: int, summaries: Dict[BlockId, BlockFacts]
    ) -> None:
        """Publish ``SOS_{l+2} = GEN_l U (SOS_{l+1} - KILL_l)``.

        Dual of reaching definitions (Section 5.2): ``KILL_l`` is the
        easy union of block kills; ``GEN_l`` keeps only expressions some
        block downward-exposes *and* that every other thread either also
        window-exposes across ``(l-1, l)`` or never kills there.
        """
        num_threads = len(summaries)
        gen_l: Set[Expression] = set()
        for (l, t), facts in summaries.items():
            for e in facts.gen:
                if self._epoch_gen_holds(e, lid, t, num_threads):
                    gen_l.add(e)

        def killed(e: Expression) -> bool:
            return any(
                facts.kills(e, self.domain) for facts in summaries.values()
            )

        self.sos.advance(lid, gen_l, killed)
        if not self.keep_history:
            self._evict(lid - 2)

    def evict_history(self, before: int) -> None:
        self.sos.evict(before)

    def _epoch_gen_holds(
        self, e: Expression, lid: int, gen_thread: int, num_threads: int
    ) -> bool:
        for t in range(num_threads):
            if t == gen_thread:
                continue
            prev = self.facts.get((lid - 1, t)) if lid >= 1 else None
            cur = self.facts[(lid, t)]
            window_exposed = cur.gens(e) or (
                prev is not None
                and prev.gens(e)
                and not cur.kills(e, self.domain)
            )
            never_kills = not cur.kills(e, self.domain) and (
                prev is None or not prev.kills(e, self.domain)
            )
            if not (window_exposed or never_kills):
                return False
        return True

    # -- derived views ---------------------------------------------------------

    def _compute_lsos(self, lid: int, tid: int) -> Set[Expression]:
        """``LSOS_{l,t}`` (Section 5.2.1): SOS survivors of the head's
        kills, plus head GEN *unless* a sibling thread killed the
        expression in epoch ``l-2`` (the head may interleave before that
        kill, leaving a path on which the expression is dead)."""
        sos = self.sos.get(lid)
        head = self.facts.get((lid - 1, tid)) if lid >= 1 else None
        if head is None:
            return set(sos)
        lsos: Set[Expression] = set()
        for e in head.gen:
            if not self._sibling_killed(e, lid - 2, tid):
                lsos.add(e)
        for e in sos:
            if not head.kills(e, self.domain):
                lsos.add(e)
        return lsos

    def _sibling_killed(self, e: Expression, lid: int, tid: int) -> bool:
        if lid < 0:
            return False
        for (l, t), facts in self.facts.items():
            if l == lid and t != tid and facts.kills(e, self.domain):
                return True
        return False

    def _evict(self, older_than: int) -> None:
        for key in [k for k in self.facts if k[0] < older_than]:
            del self.facts[key]


    def _touches(self, e: Expression, vars_: Set[int]) -> bool:
        """Whether KILL-SIDE-IN strikes this element."""
        return any(v in vars_ for v in self.domain.element_vars(e))
