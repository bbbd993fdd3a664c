"""Strongly Ordered State containers (paper Sections 4.2, 5.1.2, 5.2.1).

``SOS_l`` summarizes everything known to have happened strictly before
epoch ``l`` -- i.e. the effects of epochs ``<= l - 2``.  It is globally
shared and single-writer: one lifeguard thread is nominated master and
publishes each ``SOS_l`` before any butterfly with a body in epoch ``l``
runs its second pass, so no synchronization on the metadata is needed.

The LSOS (local SOS) augments ``SOS_l`` with the head block's effects
and is recomputed per body block by each analysis (the defs/exprs rules
differ, so the formulas live in the analysis modules; this container
only records and serves the published epoch states).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Set

from repro.errors import AnalysisError

Element = Hashable


class SOSHistory:
    """The per-epoch sequence of strongly ordered states.

    Maintains the invariant of Lemma 5.2 via the update rule

        ``SOS_l := GEN_{l-2} U (SOS_{l-1} - KILL_{l-2})``,

    with ``SOS_0 = SOS_1 = initial`` (empty by default; a lifeguard
    whose metadata is not empty at program start -- AddrCheck's
    ``initially_allocated`` -- passes it here).

    The rule has two entry points.  :meth:`advance` takes ``KILL`` as a
    predicate, for the analyses whose kill sets are symbolic over an
    unbounded element universe (``reaching_defs``: "every definition of
    variable v"; ``reaching_exprs``: "every expression reading v") and
    so can only be tested, not enumerated.  :meth:`publish` takes the
    finished state, for analyses whose ``KILL_l`` is a concrete set
    (AddrCheck, TaintCheck) and which therefore evaluate the rule as
    one set difference and one union.
    """

    def __init__(self, initial: Iterable[Element] = ()) -> None:
        base = frozenset(initial)
        self._states: Dict[int, FrozenSet[Element]] = {0: base, 1: base}
        self._frontier = 1  # largest epoch whose SOS is published
        self._evicted_before = 0  # smallest epoch still readable

    @property
    def frontier(self) -> int:
        """Largest epoch id with a published SOS."""
        return self._frontier

    def get(self, lid: int) -> FrozenSet[Element]:
        """The published ``SOS_l``; raises if not yet computed."""
        if lid < 0:
            return frozenset()
        try:
            return self._states[lid]
        except KeyError:
            if lid < self._evicted_before:
                raise AnalysisError(
                    f"SOS_{lid} was evicted (bounded history retains "
                    f"epochs >= {self._evicted_before})"
                ) from None
            raise AnalysisError(
                f"SOS_{lid} requested before epoch {lid - 2} was summarized"
            ) from None

    def advance(
        self,
        summarized_epoch: int,
        gen: Set[Element],
        killed: Callable[[Element], bool],
    ) -> FrozenSet[Element]:
        """Publish ``SOS_{summarized_epoch + 2}`` from epoch-level GEN and
        a KILL predicate over the previous SOS.

        Costs one Python call per element of the previous state, every
        epoch: only for symbolic kills (see the class docstring).
        """
        target = summarized_epoch + 2
        if target != self._frontier + 1:
            raise AnalysisError(
                f"SOS must advance in order: next is SOS_{self._frontier + 1}, "
                f"got SOS_{target}"
            )
        prev = self._states[self._frontier]
        survivors = {e for e in prev if not killed(e)}
        survivors |= gen
        return self.publish(summarized_epoch, survivors)

    def publish(
        self, summarized_epoch: int, state: Set[Element]
    ) -> FrozenSet[Element]:
        """Publish a precomputed ``SOS_{summarized_epoch + 2}``.

        For analyses that evaluate the update rule in closed form --
        ``(get(frontier) - KILL) | GEN`` as set algebra, or interned-
        bitset word operations -- instead of testing every element of
        the previous state against a KILL predicate; the same in-order
        invariant applies.
        """
        target = summarized_epoch + 2
        if target != self._frontier + 1:
            raise AnalysisError(
                f"SOS must advance in order: next is SOS_{self._frontier + 1}, "
                f"got SOS_{target}"
            )
        frozen = frozenset(state)
        self._states[target] = frozen
        self._frontier = target
        return frozen

    def evict(self, before: int) -> None:
        """Drop published states for epochs ``< before``.

        The caller asserts those states will never be read again (on a
        streamed run, second passes have moved past them).  The
        frontier itself is always retained: :meth:`advance` reads it to
        build the next state.
        """
        before = min(before, self._frontier)
        if before <= self._evicted_before:
            return
        for lid in [k for k in self._states if k < before]:
            del self._states[lid]
        self._evicted_before = before

    def published(self) -> Dict[int, FrozenSet[Element]]:
        """All published states still retained (for inspection/tests)."""
        return dict(self._states)
