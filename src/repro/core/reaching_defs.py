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

from repro.core.bitset import BitInterner, compose_mask
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


def _definition_order(d: Definition) -> Tuple[int, InstrId]:
    """Hash-independent interning order for fresh definitions."""
    return (d.var, d.site)


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
        use_mask_kernel: Optional[bool] = None,
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
        self._def_bits = BitInterner()
        # The instruction hook is an arbitrary (often unpicklable)
        # closure with ordering expectations, so parallelism is only
        # offered for the hook-free analysis.
        self.parallel_first_pass = on_instruction is None
        self.parallel_second_pass = on_instruction is None
        # The mask kernel evaluates the second pass (LSOS, body OUT) and
        # the epoch SOS update as word operations over interned-bitset
        # masks -- bit-identical to the per-element walk, but without
        # per-definition Python dispatch.  It requires the hook-free
        # analysis (a hook must observe IN at every instruction);
        # ``use_mask_kernel=False`` forces the scalar reference path
        # (the differential tests compare the two).
        if use_mask_kernel and on_instruction is not None:
            raise ValueError(
                "use_mask_kernel requires a hook-free analysis "
                "(on_instruction must be None)"
            )
        self._masked = on_instruction is None and use_mask_kernel is not False
        #: Per-location mask of every interned definition of that
        #: location -- turns "kill all defs of vars V" into an OR+ANDNOT.
        self._var_defs: Dict[int, int] = {}
        #: Per-epoch, per-thread masks of downward-exposed defs
        #: (``BlockFacts.gen``), filled on the serial commit path.
        self._epoch_gen: Dict[int, Dict[int, int]] = {}
        #: Mask form of each published ``SOS_l``.
        self._sos_masks: Dict[int, int] = {0: 0, 1: 0}

    # -- step 1 ----------------------------------------------------------

    def make_scanner(self) -> FactsScanner:
        return FactsScanner(self.domain)

    def commit_scan(self, block: Block, scan: BlockFacts) -> BlockFacts:
        """Store the block facts; intern GEN-SIDE-OUT to a bitset so the
        wing meet is a bitwise OR.

        Under the mask kernel this also indexes the fresh definitions by
        location (``_var_defs``) and records the block's
        downward-exposed GEN as a mask, so every later stage -- LSOS,
        body OUT, the epoch SOS update -- runs as word operations.
        """
        scan.all_gen_mask = self._def_bits.mask(
            scan.all_gen, sort_key=_definition_order
        )
        self.facts[block.block_id] = scan
        if self._masked:
            bit = self._def_bits.bit
            by_var: Dict[int, List[int]] = {}
            for d in scan.all_gen:
                by_var.setdefault(d.var, []).append(bit(d))
            var_defs = self._var_defs
            for var, bits in by_var.items():
                var_defs[var] = var_defs.get(var, 0) | compose_mask(bits)
            lid, tid = block.block_id
            self._epoch_gen.setdefault(lid, {})[tid] = compose_mask(
                [bit(d) for d in scan.gen]
            )
        return scan

    # -- step 2 ------------------------------------------------------------

    def meet(
        self, butterfly: Butterfly, wing_summaries: List[BlockFacts]
    ) -> Set[Definition]:
        """GEN-SIDE-IN: union of the wings' GEN-SIDE-OUT (meet is union).

        With interned summaries the union is a single OR over the wing
        masks, decoded once.
        """
        mask = 0
        for facts in wing_summaries:
            if facts.all_gen_mask is None:
                return union_side_out_gen(wing_summaries)
            mask |= facts.all_gen_mask
        if self._masked and not self.keep_history:
            # Neither check_body (closed form) nor commit_check (no
            # history) reads GEN-SIDE-IN element-wise; keep the mask.
            return mask
        return set(self._def_bits.decode(mask))

    # -- step 3 ------------------------------------------------------------

    def check_body(
        self, butterfly: Butterfly, side_in: Set[Definition]
    ) -> Tuple[Any, Any]:
        """Walk the body computing ``IN_{l,t,i} = GEN-SIDE-IN U LSOS_{l,t,i}``
        and the running LSOS; fire the lifeguard hook per instruction.

        Reads only published state (head facts, SOS), so it is safe to
        run concurrently with other bodies of the same epoch.

        Mask kernel: the per-instruction walk has a closed form.
        Definition sites are unique, so a definition entering the body
        in the LSOS survives iff its location is never redefined there
        (``lsos & ~killed``), and the body's own surviving definitions
        are exactly its downward-exposed GEN -- three word operations
        replace the walk, bit-identically (the equivalence property
        tests replay both).  Returns ``(lsos_mask, out_mask)`` ints in
        that mode; :meth:`commit_check` decodes them.
        """
        body = butterfly.body
        lid, tid = body.block_id
        if self._masked:
            lsos_mask = self._lsos_mask(lid, tid)
            facts = self.facts[body.block_id]
            out_mask = self._epoch_gen[lid][tid] | (
                lsos_mask & ~self._killed_defs_mask(facts.killed_vars)
            )
            return lsos_mask, out_mask
        lsos = self._compute_lsos(lid, tid)
        running = self._walk_body(body, lsos, side_in)
        return lsos, running

    def commit_check(
        self,
        butterfly: Butterfly,
        side_in: Any,
        result: Any,
    ) -> None:
        if not self.keep_history:
            return
        lsos, running = result
        if self._masked:
            decode = self._def_bits.decode
            lsos = set(decode(lsos))
            running = set(decode(running))
            if not isinstance(side_in, set):
                side_in = set(decode(side_in))
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

        Mask kernel: the whole rule is word operations.  The
        window-exposure exception is itself a mask -- each thread's
        epoch ``l-1`` GEN minus the defs its own epoch-``l`` block
        kills -- so ``SOS_{l+2} = gen_l | (SOS_{l+1} & ~(killed &
        ~exposed))`` without enumerating the previous state.
        """
        if self._masked:
            gen_mask = 0
            killed_vars: Set[int] = set()
            for facts in summaries.values():
                gen_mask |= self._epoch_gen[facts.block_id[0]][
                    facts.block_id[1]
                ]
                killed_vars |= facts.killed_vars
            prev_mask = self._sos_masks[lid + 1]
            exposed = 0
            if lid >= 1:
                for tid, m in self._epoch_gen.get(lid - 1, {}).items():
                    own_cur = summaries.get((lid, tid))
                    if own_cur is None:
                        exposed |= m
                    else:
                        exposed |= m & ~self._killed_defs_mask(
                            own_cur.killed_vars
                        )
            survivors = prev_mask & ~(
                self._killed_defs_mask(killed_vars) & ~exposed
            )
            new_mask = gen_mask | survivors
            self._sos_masks[lid + 2] = new_mask
            decode = self._def_bits.decode
            self.sos.publish(
                lid,
                set(decode(new_mask & ~prev_mask)),
                set(decode(prev_mask & ~new_mask)),
            )
            if not self.keep_history:
                self._evict(lid - 2)
            return
        gen_l: Set[Definition] = set()
        killed_vars = set()
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
        if self._sos_masks:
            bound = min(before, max(self._sos_masks))
            for k in [k for k in self._sos_masks if k < bound]:
                del self._sos_masks[k]

    # -- mask-kernel second pass -----------------------------------------------

    def _killed_defs_mask(self, killed_vars: Set[int]) -> int:
        """Every interned definition of any location in ``killed_vars``.

        Over-approximates "defs killed here" to *all* defs of those
        locations, which is exact once ANDed against a state mask (a
        def is in the state and has a killed location iff the scalar
        predicate kills it).
        """
        var_defs = self._var_defs
        mask = 0
        for v in killed_vars:
            mask |= var_defs.get(v, 0)
        return mask

    def _lsos_mask(self, lid: int, tid: int) -> int:
        """Mask form of :meth:`_compute_lsos`.

        The resurrection term is closed-form too: an SOS definition has
        ``epoch == lid - 2`` iff it appears in some epoch ``lid - 2``
        block's GEN mask (SOS only ever gains a def in the epoch of its
        site), so "killed by the head but adjacent and foreign" is an
        AND of three masks.
        """
        sos_mask = self._sos_masks[lid]
        head = self.facts.get((lid - 1, tid)) if lid >= 1 else None
        if head is None:
            return sos_mask
        killed = self._killed_defs_mask(head.killed_vars)
        adjacent_foreign = 0
        for t, m in self._epoch_gen.get(lid - 2, {}).items():
            if t != tid:
                adjacent_foreign |= m
        resurrected = sos_mask & killed & adjacent_foreign
        return (
            self._epoch_gen[lid - 1][tid]
            | (sos_mask & ~killed)
            | resurrected
        )

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
        for lid in [l for l in self._epoch_gen if l < older_than]:
            del self._epoch_gen[lid]
        if self._sos_masks:
            bound = min(older_than, max(self._sos_masks))
            for k in [k for k in self._sos_masks if k < bound]:
                del self._sos_masks[k]


def summaries_get(
    facts: Dict[BlockId, BlockFacts], key: BlockId
) -> Optional[BlockFacts]:
    """Fetch block facts tolerating the first-epoch edge (no epoch -1)."""
    if key[0] < 0:
        return None
    return facts.get(key)
