"""Dynamic parallel reaching definitions (paper Section 5.1).

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
5.1.1-5.1.3; the module docstrings of the individual methods spell out
the exact instantiation of each equation at definition granularity
(definition sites are unique, which collapses the paper's
``GEN/KILL_{(l-1,l),t'}`` window terms to a downward-exposure test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.dataflow import (
    BlockFacts,
    Definition,
    DefinitionDomain,
    ElementDomain,
    summarize_block,
    union_side_out_gen,
)
from repro.core.epoch import Block, BlockId, InstrId
from repro.core.framework import ButterflyAnalysis
from repro.core.state import SOSHistory
from repro.core.window import Butterfly

#: Callback invoked with (instr id, instruction, IN set) during the
#: second pass -- the hook a lifeguard writer uses to install checks.
InstrHook = Callable[[InstrId, object, FrozenSet[Definition]], None]


@dataclass(frozen=True)
class FactsScanner:
    """Picklable first-pass work unit: summarize one block.

    Carries only the (stateless) element domain, so it crosses process
    boundaries for the ``processes`` backend.
    """

    domain: ElementDomain

    def __call__(self, block: Block, context: Any) -> BlockFacts:
        return summarize_block(block, self.domain)


class ReachingDefinitions(
    ButterflyAnalysis[BlockFacts, Set[Definition]]
):
    """The generic reaching-definitions lifeguard of Section 5.1.

    After a run (via :class:`~repro.core.framework.ButterflyEngine`),
    exposes per-block ``IN``/``OUT`` sets, the LSOS used for each body,
    and the published SOS history.
    """

    def __init__(
        self,
        on_instruction: Optional[InstrHook] = None,
        keep_history: bool = True,
    ) -> None:
        self.domain = DefinitionDomain()
        self.sos = SOSHistory()
        self.on_instruction = on_instruction
        self.keep_history = keep_history
        self.facts: Dict[BlockId, BlockFacts] = {}
        self.block_in: Dict[BlockId, FrozenSet[Definition]] = {}
        self.block_out: Dict[BlockId, FrozenSet[Definition]] = {}
        self.block_lsos: Dict[BlockId, FrozenSet[Definition]] = {}
        self.side_in: Dict[BlockId, FrozenSet[Definition]] = {}
        # The instruction hook is an arbitrary (often unpicklable)
        # closure with ordering expectations, so parallelism is only
        # offered for the hook-free analysis.
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
    ) -> Set[Definition]:
        """GEN-SIDE-IN: union of the wings' GEN-SIDE-OUT (meet is union)."""
        return union_side_out_gen(wing_summaries)

    # -- step 3 ------------------------------------------------------------

    def check_body(
        self, butterfly: Butterfly, side_in: Set[Definition]
    ) -> Tuple[Set[Definition], Set[Definition]]:
        """Walk the body computing ``IN_{l,t,i} = GEN-SIDE-IN U LSOS_{l,t,i}``
        and the running LSOS; fire the lifeguard hook per instruction.

        Reads only published state (head facts, SOS), so it is safe to
        run concurrently with other bodies of the same epoch.
        """
        body = butterfly.body
        lid, tid = body.block_id
        lsos = self._compute_lsos(lid, tid)
        running = self._walk_body(body, lsos, side_in)
        return lsos, running

    def commit_check(
        self,
        butterfly: Butterfly,
        side_in: Set[Definition],
        result: Tuple[Set[Definition], Set[Definition]],
    ) -> None:
        if not self.keep_history:
            return
        lsos, running = result
        block_id = butterfly.body.block_id
        self.block_lsos[block_id] = frozenset(lsos)
        self.side_in[block_id] = frozenset(side_in)
        self.block_in[block_id] = frozenset(side_in | lsos)
        self.block_out[block_id] = frozenset(running | side_in)

    def _walk_body(
        self,
        body: Block,
        lsos: Set[Definition],
        side_in: Set[Definition],
    ) -> Set[Definition]:
        """Per-instruction LSOS update: ``LSOS_k = GEN_k U (LSOS_{k-1} -
        KILL_k)``; IN at each instruction re-unions GEN-SIDE-IN."""
        running: Set[Definition] = set(lsos)
        for iid, instr in body.iter_ids():
            if self.on_instruction is not None:
                self.on_instruction(iid, instr, frozenset(running | side_in))
            killed_vars = set(self.domain.kill_vars_of(instr))
            if killed_vars:
                running = {
                    d for d in running if d.var not in killed_vars
                }
            for element in self.domain.gen_of(instr, iid):
                running.add(element)
        return running

    # -- step 4 --------------------------------------------------------------

    def epoch_update(
        self, lid: int, summaries: Dict[BlockId, BlockFacts]
    ) -> None:
        """Publish ``SOS_{l+2} = GEN_l U (SOS_{l+1} - KILL_l)``.

        ``GEN_l`` is the union of the blocks' downward-exposed defs
        (Section 5.1.1: some valid ordering runs that block last).
        ``KILL_l`` membership for a definition ``d`` of ``x`` from
        ``SOS_{l+1}`` (so ``d.epoch <= l-1``) instantiates the paper's
        formula: some block ``(l,t)`` kills ``x`` **and** every other
        thread either kills or never window-exposes ``d`` across epochs
        ``(l-1, l)``.  With unique definition sites this reduces to:
        a write to ``x`` exists in epoch ``l`` and ``d`` is *not*
        downward-exposed by its own thread across ``(l-1, l)``.
        """
        gen_l: Set[Definition] = set()
        killed_vars: Set[int] = set()
        for facts in summaries.values():
            gen_l |= facts.gen
            killed_vars |= facts.killed_vars

        def killed(d: Definition) -> bool:
            if d.var not in killed_vars:
                return False
            if d.epoch == lid - 1:
                own_prev = summaries_get(self.facts, (lid - 1, d.thread))
                own_cur = summaries.get((lid, d.thread))
                exposed = (
                    own_prev is not None
                    and d in own_prev.gen
                    and (own_cur is None or d.var not in own_cur.killed_vars)
                )
                if exposed:
                    return False
            return True

        self.sos.advance(lid, gen_l, killed)
        if not self.keep_history:
            self._evict(lid - 2)

    def evict_history(self, before: int) -> None:
        self.sos.evict(before)

    # -- derived views ---------------------------------------------------------

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

    def _evict(self, older_than: int) -> None:
        for key in [k for k in self.facts if k[0] < older_than]:
            del self.facts[key]


def summaries_get(
    facts: Dict[BlockId, BlockFacts], key: BlockId
) -> Optional[BlockFacts]:
    """Fetch block facts tolerating the first-epoch edge (no epoch -1)."""
    if key[0] < 0:
        return None
    return facts.get(key)
