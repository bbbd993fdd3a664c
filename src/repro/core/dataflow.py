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
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.core.columnar import (
    HAVE_NUMPY,
    NO_DST,
    OP_ASSIGN,
    OP_TAINT,
    OP_UNTAINT,
    OP_WRITE,
    np,
)
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

    #: Op codes of events with any GEN/KILL effect -- the columnar
    #: summarizer's one-LUT-pass row filter.  Every relevant row both
    #: defines and kills its ``dst`` (when present).
    relevant_codes = (OP_WRITE, OP_ASSIGN, OP_TAINT, OP_UNTAINT)

    def gen_of(self, instr: Instr, iid: InstrId) -> Iterable[Element]:
        if instr.op in self._DEFINING and instr.dst is not None:
            yield Definition(instr.dst, iid)

    def kill_vars_of(self, instr: Instr) -> Iterable[Var]:
        if instr.op in self._DEFINING and instr.dst is not None:
            yield instr.dst

    def element_vars(self, element: Element) -> Iterable[Var]:
        assert isinstance(element, Definition)
        yield element.var

    def row_gen(
        self, code: int, dst: int, srcs: Sequence[int], iid: InstrId
    ) -> Tuple[Element, ...]:
        """Columnar twin of :meth:`gen_of` for a relevant row."""
        return (Definition(dst, iid),)


class ExpressionDomain:
    """Reaching (available) expressions: an ASSIGN with sources computes
    an expression; writing any operand kills it."""

    _DEFINING = frozenset({Op.WRITE, Op.ASSIGN, Op.TAINT, Op.UNTAINT})

    #: See :attr:`DefinitionDomain.relevant_codes`.
    relevant_codes = (OP_WRITE, OP_ASSIGN, OP_TAINT, OP_UNTAINT)

    def gen_of(self, instr: Instr, iid: InstrId) -> Iterable[Element]:
        if instr.op is Op.ASSIGN and instr.srcs:
            yield Expression.of(*instr.srcs)

    def kill_vars_of(self, instr: Instr) -> Iterable[Var]:
        if instr.op in self._DEFINING and instr.dst is not None:
            yield instr.dst

    def element_vars(self, element: Element) -> Iterable[Var]:
        assert isinstance(element, Expression)
        return element.operands

    def row_gen(
        self, code: int, dst: int, srcs: Sequence[int], iid: InstrId
    ) -> Tuple[Element, ...]:
        """Columnar twin of :meth:`gen_of` for a relevant row."""
        if code == OP_ASSIGN and srcs:
            return (Expression.of(*srcs),)
        return ()


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
    all_gen_mask / killed_mask:
        Optional interned-bitset encodings of ``all_gen`` and
        ``killed_vars`` (see :mod:`repro.core.bitset`), filled in by the
        owning analysis at commit time so wing meets collapse to bitwise
        ORs.  ``None`` when the analysis does not use bitsets.
    """

    block_id: Tuple[int, int]
    gen: Set[Element] = field(default_factory=set)
    all_gen: Set[Element] = field(default_factory=set)
    killed_vars: Set[Var] = field(default_factory=set)
    last_event: Dict[Element, str] = field(default_factory=dict)
    all_gen_mask: Optional[int] = None
    killed_mask: Optional[int] = None

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


if HAVE_NUMPY:
    #: Boolean row-filter LUTs keyed by a domain's ``relevant_codes``.
    _RELEVANT_LUTS: Dict[Tuple[int, ...], "numpy.ndarray"] = {}

    def _relevant_lut(codes: Tuple[int, ...]):
        lut = _RELEVANT_LUTS.get(codes)
        if lut is None:
            lut = np.zeros(256, dtype=bool)
            lut[list(codes)] = True
            _RELEVANT_LUTS[codes] = lut
        return lut


def summarize_block(block: Block, domain: ElementDomain) -> BlockFacts:
    """First-pass walk computing a block's GEN/KILL facts in one scan.

    When numpy is available, the block is columnar-backed, and the
    domain advertises ``relevant_codes`` (plus the ``row_gen`` twin of
    ``gen_of``), the scan runs as a vector kernel: one LUT pass over
    the op column selects the GEN/KILL-relevant rows, a CSR gather
    pulls just those rows' fields, and the exposure bookkeeping loop
    touches only the selection -- bit-identical facts, without
    materializing ``Instr`` objects for the (typically READ-dominated)
    irrelevant remainder.
    """
    codes = getattr(domain, "relevant_codes", None)
    if HAVE_NUMPY and codes is not None and block.has_columns:
        return _summarize_columns(block, domain, codes)
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


def _summarize_columns(
    block: Block, domain: ElementDomain, codes: Tuple[int, ...]
) -> BlockFacts:
    """Columnar fast path of :func:`summarize_block` (same semantics,
    relevant rows only; every relevant row kills its ``dst`` and
    generates ``domain.row_gen(...)``)."""
    facts = BlockFacts(block_id=block.block_id)
    cols = block.columns
    if cols.length == 0:
        return facts
    idx = np.flatnonzero(_relevant_lut(codes).take(cols.op))
    if idx.shape[0] == 0:
        return facts
    sel_codes, sel_dst, bounds, flat_srcs = cols.gather(idx)
    lid, tid = block.block_id
    row_gen = domain.row_gen
    element_vars = domain.element_vars
    gen = facts.gen
    all_gen = facts.all_gen
    killed_vars = facts.killed_vars
    last_event = facts.last_event
    exposed_by_var: Dict[Var, Set[Element]] = {}
    for k, i in enumerate(idx.tolist()):
        var = sel_dst[k]
        if var == NO_DST:
            continue
        killed_vars.add(var)
        for element in exposed_by_var.pop(var, ()):
            if element in gen:
                gen.discard(element)
                last_event[element] = "kill"
                for other in element_vars(element):
                    if other != var:
                        exposed_by_var.get(other, set()).discard(element)
        srcs = flat_srcs[bounds[k]:bounds[k + 1]]
        for element in row_gen(sel_codes[k], var, srcs, (lid, tid, i)):
            gen.add(element)
            all_gen.add(element)
            last_event[element] = "gen"
            for v in element_vars(element):
                exposed_by_var.setdefault(v, set()).add(element)
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
