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
GEN and deallocation as KILL.  Everything but the equations lives in
:class:`~repro.core.reaching_defs.ReachingAnalysis`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Set

from repro.core.dataflow import (
    BlockFacts,
    Expression,
    ExpressionDomain,
    union_side_out_kill,
)
from repro.core.epoch import BlockId
from repro.core.reaching_defs import ReachingAnalysis
from repro.core.window import Butterfly


class ReachingExpressions(ReachingAnalysis[Set[int]]):
    """The generic reaching-expressions lifeguard of Section 5.2."""

    DOMAIN = ExpressionDomain

    def meet(
        self, butterfly: Butterfly, wing_summaries: List[BlockFacts]
    ) -> Set[int]:
        """KILL-SIDE-IN as a symbolic var set: union of the wings'
        KILL-SIDE-OUT (Section 5.2: the meet is union)."""
        return union_side_out_kill(wing_summaries)

    def _in(
        self, lsos: Set[Expression], side_in: Set[int]
    ) -> FrozenSet[Expression]:
        """``IN_{l,t,i} = LSOS_{l,t,i} - KILL-SIDE-IN_{l,t}``."""
        return frozenset(self._kill(lsos, side_in))

    def _out(
        self, block_id: BlockId, running: Set[Expression], side_in: Set[int]
    ) -> FrozenSet[Expression]:
        """The body's own downward-exposed GEN survives KILL-SIDE-IN."""
        own = running & self.facts[block_id].gen
        return frozenset(self._kill(running, side_in) | own)

    def _gen_l(
        self, lid: int, summaries: Dict[BlockId, BlockFacts]
    ) -> Set[Expression]:
        """Dual of reaching definitions (Section 5.2): ``GEN_l`` keeps
        only expressions some block downward-exposes *and* that every
        other thread either also window-exposes across ``(l-1, l)`` or
        never kills there."""
        num_threads = len(summaries)
        return {
            e
            for (_l, t), facts in summaries.items()
            for e in facts.gen
            if self._epoch_gen_holds(e, lid, t, num_threads)
        }

    def _kill_l(
        self, lid: int, summaries: Dict[BlockId, BlockFacts]
    ) -> Callable[[Expression], bool]:
        """``KILL_l`` is the easy union of block kills."""
        return lambda e: any(
            facts.kills(e, self.domain) for facts in summaries.values()
        )

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
        return any(
            l == lid and t != tid and facts.kills(e, self.domain)
            for (l, t), facts in self.facts.items()
        )
