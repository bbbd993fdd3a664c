"""Declarative lifeguard construction (paper Section 4.3).

    "The lifeguard writer specifies the events the dataflow analysis
    will track, the meet operation, the metadata format, and the
    checking algorithm."

This module is that interface: a :class:`LifeguardSpec` names the
events (via ``gen_of`` / ``kill_vars_of``), picks the dataflow flavour
(*exists* semantics like reaching definitions, or *forall* semantics
like reaching expressions -- the meet and all SOS/LSOS rules follow
from the choice), and installs a per-instruction check.  ``build()``
returns a ready analysis for the two-pass engine.

Example -- a "definite initialization" lifeguard in a few lines::

    spec = LifeguardSpec(
        name="init-check",
        semantics="forall",                     # must hold on EVERY path
        gen_of=lambda instr, iid: (
            [instr.dst] if instr.op is Op.WRITE else []
        ),
        kill_vars_of=lambda instr: (
            instr.extent if instr.op is Op.FREE else []
        ),
        element_vars=lambda element: (element,),
        check=my_check,                          # (iid, instr, IN) -> reports
    )
    analysis = spec.build()
    ButterflyEngine(analysis).run(partition)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core.epoch import InstrId
from repro.core.reaching_defs import (
    CheckFn, Element, ReachingAnalysis, ReachingDefinitions,
)
from repro.core.reaching_exprs import ReachingExpressions
from repro.errors import AnalysisError
from repro.trace.events import Instr


@dataclass
class LifeguardSpec:
    """Everything a lifeguard writer supplies.

    Parameters
    ----------
    name:
        For reports and debugging.
    semantics:
        ``"exists"`` -- an element reaches if *some* valid ordering
        delivers it (reaching-definitions family: taint-like facts that
        must never be missed); or ``"forall"`` -- an element reaches
        only if *every* valid ordering preserves it
        (reaching-expressions family: safety facts like "allocated"
        that must never be assumed).  Note: ``"exists"`` elements must
        be :class:`~repro.core.dataflow.Definition`-like (carry ``var``
        and a ``site`` instruction id) because the epoch-level KILL and
        the LSOS resurrection term reason about the generating site;
        ``"forall"`` elements may be any hashable value.
    gen_of:
        Elements an instruction generates.
    kill_vars_of:
        Locations whose (re)definition by an instruction kills elements.
    element_vars:
        The locations an element depends on (a write to any kills it).
    check:
        Optional per-instruction check run during the second pass with
        the butterfly ``IN`` set; its reports land in the analysis's
        ``errors``.
    """

    name: str
    semantics: str
    gen_of: Callable[[Instr, InstrId], Iterable[Element]]
    kill_vars_of: Callable[[Instr], Iterable[int]]
    element_vars: Callable[[Element], Iterable[int]]
    check: Optional[CheckFn] = None

    def __post_init__(self) -> None:
        if self.semantics not in ("exists", "forall"):
            raise AnalysisError(
                f"semantics must be 'exists' or 'forall', "
                f"got {self.semantics!r}"
            )

    def build(self) -> ReachingAnalysis:
        """A fresh analysis of the chosen flavour, with this spec as its
        domain and ``check`` as its check."""
        flavour = (
            ReachingDefinitions if self.semantics == "exists"
            else ReachingExpressions
        )
        return flavour(domain=self, check=self.check, keep_history=False)
