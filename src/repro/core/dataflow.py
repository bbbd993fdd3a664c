"""GEN/KILL primitives shared by every butterfly analysis.

Butterfly analysis reuses classic dataflow vocabulary (paper Section 5):
instructions *generate* and *kill* elements, blocks summarize those
effects, and four new primitives (GEN-SIDE-OUT/IN, KILL-SIDE-OUT/IN)
capture what a block exposes to, and absorbs from, the wings.

The element universe is unbounded (definitions are dynamic instruction
sites; expressions range over all operand combinations), so kill sets
cannot be materialized.  Instead each analysis supplies an
:class:`ElementDomain` describing (a) which elements an instruction
generates and (b) which *variables* (locations) an instruction's writes
clobber; an element is killed by a write to any of its variables.  Block
summaries then answer ``gens(e)`` / ``kills(e)`` queries symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Protocol, Set, Tuple

from repro.core.epoch import Block, InstrId
from repro.trace.events import Instr, Op

Element = Hashable
Var = int


@dataclass(frozen=True)
class Definition:
    """A dynamic definition: location ``var`` written at ``site``.

    ``site`` is the defining instruction's ``(l, t, i)`` id, playing the
    role of the static program point in classic reaching definitions.
    """

    var: Var
    site: InstrId

    @property
    def epoch(self) -> int:
        return self.site[0]

    @property
    def thread(self) -> int:
        return self.site[1]


@dataclass(frozen=True)
class Expression:
    """An available expression over operand locations.

    ``operands`` is the sorted tuple of source locations; ``tag``
    distinguishes operators so ``a+b`` and ``a-b`` are different
    expressions over the same operands.
    """

    operands: Tuple[Var, ...]
    tag: str = "expr"

    @staticmethod
    def of(*operands: Var, tag: str = "expr") -> "Expression":
        return Expression(tuple(sorted(operands)), tag)


class ElementDomain(Protocol):
    """What a specific analysis tracks.

    ``gen_of`` yields the elements an instruction generates;
    ``kill_vars_of`` yields the locations whose (re)definition kills
    elements; ``element_vars`` says which locations an element depends
    on (a write to any of them kills it).
    """

    def gen_of(self, instr: Instr, iid: InstrId) -> Iterable[Element]:
        ...

    def kill_vars_of(self, instr: Instr) -> Iterable[Var]:
        ...

    def element_vars(self, element: Element) -> Iterable[Var]:
        ...


class DefinitionDomain:
    """Reaching definitions: WRITE/ASSIGN/MALLOC-style events define
    their destination; any redefinition of the same location kills."""

    _DEFINING = frozenset({Op.WRITE, Op.ASSIGN, Op.TAINT, Op.UNTAINT})

    def gen_of(self, instr: Instr, iid: InstrId) -> Iterable[Element]:
        if instr.op in self._DEFINING and instr.dst is not None:
            yield Definition(instr.dst, iid)

    def kill_vars_of(self, instr: Instr) -> Iterable[Var]:
        if instr.op in self._DEFINING and instr.dst is not None:
            yield instr.dst

    def element_vars(self, element: Element) -> Iterable[Var]:
        assert isinstance(element, Definition)
        yield element.var


class ExpressionDomain:
    """Reaching (available) expressions: an ASSIGN with sources computes
    an expression; writing any operand kills it."""

    _DEFINING = frozenset({Op.WRITE, Op.ASSIGN, Op.TAINT, Op.UNTAINT})

    def gen_of(self, instr: Instr, iid: InstrId) -> Iterable[Element]:
        if instr.op is Op.ASSIGN and instr.srcs:
            yield Expression.of(*instr.srcs)

    def kill_vars_of(self, instr: Instr) -> Iterable[Var]:
        if instr.op in self._DEFINING and instr.dst is not None:
            yield instr.dst

    def element_vars(self, element: Element) -> Iterable[Var]:
        assert isinstance(element, Expression)
        return element.operands


@dataclass
class BlockFacts:
    """Per-block GEN/KILL summary (paper's GEN_{l,t} / KILL_{l,t} plus the
    side-out views).

    Attributes
    ----------
    block_id:
        The summarized block.
    gen:
        Downward-exposed elements: generated and not subsequently killed
        -- the classic ``GEN`` of the block.
    all_gen:
        Every element generated anywhere in the block.  Because the body
        of another butterfly may interleave between any two wing
        instructions, this is the block's ``GEN-SIDE-OUT``.
    killed_vars:
        Every location whose writes kill elements, anywhere in the
        block.  This is the symbolic ``KILL-SIDE-OUT``: element ``e`` is
        side-killed iff ``vars(e)`` meets this set.
    last_event:
        For elements generated *in this block*, whether the last
        relevant event was a ``gen`` or a ``kill`` -- resolves the block
        GEN/KILL membership of local elements exactly.
    """

    block_id: Tuple[int, int]
    gen: Set[Element] = field(default_factory=set)
    all_gen: Set[Element] = field(default_factory=set)
    killed_vars: Set[Var] = field(default_factory=set)
    last_event: Dict[Element, str] = field(default_factory=dict)

    def gens(self, element: Element) -> bool:
        """Block-level GEN membership (downward-exposed)."""
        return element in self.gen

    def kills(self, element: Element, domain: ElementDomain) -> bool:
        """Block-level KILL membership: the last event affecting
        ``element`` on the block's single path is a kill."""
        state = self.last_event.get(element)
        if state is not None:
            return state == "kill"
        return any(v in self.killed_vars for v in domain.element_vars(element))


def summarize_block(block: Block, domain: ElementDomain) -> BlockFacts:
    """First-pass walk computing a block's GEN/KILL facts in one scan."""
    facts = BlockFacts(block_id=block.block_id)
    # Elements currently downward-exposed, indexed by variable so a
    # write kills them in O(defs of that var).
    exposed_by_var: Dict[Var, Set[Element]] = {}
    for iid, instr in block.iter_ids():
        for var in domain.kill_vars_of(instr):
            facts.killed_vars.add(var)
            for element in exposed_by_var.pop(var, ()):
                # A multi-var element may still be indexed under its
                # other vars; drop it everywhere.
                if element in facts.gen:
                    facts.gen.discard(element)
                    facts.last_event[element] = "kill"
                    for other in domain.element_vars(element):
                        if other != var:
                            exposed_by_var.get(other, set()).discard(element)
        for element in domain.gen_of(instr, iid):
            facts.gen.add(element)
            facts.all_gen.add(element)
            facts.last_event[element] = "gen"
            for var in domain.element_vars(element):
                exposed_by_var.setdefault(var, set()).add(element)
    return facts


def union_side_out_gen(wing_facts: Iterable[BlockFacts]) -> Set[Element]:
    """GEN-SIDE-IN: the meet (union) of the wings' GEN-SIDE-OUT."""
    side_in: Set[Element] = set()
    for facts in wing_facts:
        side_in |= facts.all_gen
    return side_in


def union_side_out_kill(wing_facts: Iterable[BlockFacts]) -> Set[Var]:
    """KILL-SIDE-IN as a symbolic var set: the union of the wings'
    KILL-SIDE-OUT (paper Section 5.2: the meet is union, not the
    classic intersection)."""
    side_in: Set[Var] = set()
    for facts in wing_facts:
        side_in |= facts.killed_vars
    return side_in
