"""Strongly Ordered State containers (paper Sections 4.2, 5.1.2, 5.2.1).

``SOS_l`` summarizes everything known to have happened strictly before
epoch ``l`` -- i.e. the effects of epochs ``<= l - 2``.  It is globally
shared and single-writer: one lifeguard thread is nominated master and
publishes each ``SOS_l`` before any butterfly with a body in epoch ``l``
runs its second pass, so no synchronization on the metadata is needed.

The paper's state equations are deltas -- ``SOS_{l+2}`` differs from
``SOS_{l+1}`` by ``GEN_l``/``KILL_l`` (Lemma 5.2), ``LSOS_{l,t}`` from
``SOS_l`` by the head block's GEN/KILL (Sections 5.1.2, 5.2.1) -- and
are stored that way: one live set edited in place per publish, plus the
per-epoch deltas back to older versions.  Readers get a
:class:`SOSView`, and each analysis builds its LSOS by editing the
view's overlay with its own rule (the defs/exprs rules differ, so the
formulas live in the analysis modules).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import MutableSet, Set as SetABC
from itertools import chain
from typing import (
    AbstractSet, Callable, Dict, FrozenSet, Hashable, Iterable, Iterator,
    List, Sequence, Set, Tuple,
)

import numpy as np

from repro.errors import AnalysisError

Element = Hashable


class LocationRuns(SetABC):
    """An immutable set of locations held as sorted, disjoint,
    non-adjacent half-open runs ``[lo, hi)``: a preallocated set's form
    in a stream header, a ``HELLO``, the resume token and a checkpoint
    (OCEAN's 32,768 locations are 4 runs).  A lifeguard expands it into
    a Python set once, where it seeds its SOS.  It equals the
    ``frozenset`` of the same locations."""

    __slots__ = ("_lo", "_hi", "_len")
    #: The most :meth:`parse` takes: as many one-digit ints as fill a
    #: 64 MiB frame, so a few bytes cannot ask for an unbounded set.
    MAX_LOCATIONS = 2 ** 25
    _from_iterable = frozenset  # ``runs & s``, ``runs - s``, ...

    def __init__(self, lo: Sequence[int], hi: Sequence[int]) -> None:
        # Canonical bounds only: :meth:`of` and :meth:`parse` check.
        self._lo, self._hi = tuple(lo), tuple(hi)
        self._len = sum(self._hi) - sum(self._lo)

    @classmethod
    def of(cls, locations: Iterable[int]) -> "LocationRuns":
        """The runs of any iterable of int64 locations (one numpy sort)."""
        if isinstance(locations, LocationRuns):
            return locations
        values = np.unique(np.fromiter(locations, dtype=np.int64))
        if not values.size:
            return cls((), ())
        cuts = np.flatnonzero(np.diff(values) != 1) + 1
        last = values[np.r_[cuts - 1, -1]].tolist()
        return cls(values[np.r_[0, cuts]].tolist(), [v + 1 for v in last])

    @classmethod
    def parse(cls, value: object) -> "LocationRuns":
        """:attr:`runs`' JSON form, checked, or ``ValueError``: runs of
        two ``int``\\ s, ``0 <= lo < hi``, each ``lo`` above the previous
        ``hi``, at most :attr:`MAX_LOCATIONS` locations in all.  The one
        check of a stream header's and a ``HELLO``'s set."""
        if not isinstance(value, list):
            raise ValueError("not a list of runs")
        floor = 0
        for run in value:
            if (
                type(run) is not list or len(run) != 2
                or not type(run[0]) is type(run[1]) is int
                or not floor <= run[0] < run[1]
            ):
                raise ValueError(f"bad location run {run!r}")
            floor = run[1] + 1
        runs = cls([run[0] for run in value], [run[1] for run in value])
        if runs._len > cls.MAX_LOCATIONS:  # ``len()`` stops at 2**63-1
            raise ValueError(f"{runs._len} locations")
        return runs

    @property
    def runs(self) -> List[List[int]]:
        """``[[lo, hi], ...]``: the JSON form."""
        return [[lo, hi] for lo, hi in zip(self._lo, self._hi)]

    def __contains__(self, location: object) -> bool:
        at = bisect_right(self._lo, location) - 1
        return at >= 0 and location < self._hi[at]

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(map(range, self._lo, self._hi))

    def __len__(self) -> int:
        return self._len


class SOSView(MutableSet):
    """The set ``(base - removed) | added`` without copying ``base``.

    ``base`` is shared and only ever read; ``add``/``discard`` edit the
    view's own ``added`` (disjoint from ``base``) and ``removed`` (a
    subset of it), so a view costs what was changed through it, not
    ``|base|``.  Membership is one Python call; a hot loop probes the
    three plain sets itself (``AddrScanner`` and TaintCheck's
    ``check_body`` do).  A view of an :class:`SOSHistory` is valid until
    the next ``publish``/``advance`` rewrites the shared base.
    """

    __slots__ = ("base", "added", "removed")

    def __init__(self, base: AbstractSet[Element]) -> None:
        self.base = base
        self.added: Set[Element] = set()
        self.removed: Set[Element] = set()

    _from_iterable = set  # ``view | s``, ``view - s``, ...: plain sets

    def __contains__(self, element: object) -> bool:
        if element in self.base:
            return element not in self.removed
        return element in self.added

    def __iter__(self) -> Iterator[Element]:
        removed = self.removed
        if removed:
            yield from (e for e in self.base if e not in removed)
        else:
            yield from self.base
        yield from self.added

    def __len__(self) -> int:
        return len(self.base) - len(self.removed) + len(self.added)

    def add(self, element: Element) -> None:
        if element in self.base:
            self.removed.discard(element)
        else:
            self.added.add(element)

    def discard(self, element: Element) -> None:
        if element in self.base:
            self.removed.add(element)
        else:
            self.added.discard(element)


class SOSHistory:
    """The per-epoch sequence of strongly ordered states.

    Maintains the invariant of Lemma 5.2 via the update rule

        ``SOS_l := GEN_{l-2} U (SOS_{l-1} - KILL_{l-2})``,

    with ``SOS_0 = SOS_1 = initial`` (empty by default; a lifeguard
    whose metadata is not empty at program start -- AddrCheck's
    ``initially_allocated`` -- passes it here).

    Only the frontier exists as a set.  Publishing applies the epoch's
    GEN/KILL to it in place and records what changed; :meth:`get` hands
    out a :class:`SOSView` of the live set, with those changes undone
    in its overlay for an older version.  A publish costs
    O(|GEN| + |KILL|), reading ``k`` versions back the ``k`` deltas in
    between, and resident state is one set plus the deltas: nothing on
    the analysis path is O(|SOS|) per epoch or per block.  Nor is a
    save: the live set pickles as ``initial`` (runs kept, else frozen)
    plus what :meth:`publish` records as gained and lost against it, so
    it costs the changes since the run began; a load rebuilds it once.

    The rule has two entry points.  :meth:`publish` takes ``GEN_l`` and
    ``KILL_l`` as concrete sets (AddrCheck, TaintCheck).
    :meth:`advance` takes ``KILL`` as a predicate, for the analyses
    whose kill sets are symbolic over an unbounded element universe
    (``reaching_defs``: "every definition of variable v";
    ``reaching_exprs``: "every expression reading v") and so can only
    be tested, not enumerated.
    """

    def __init__(self, initial: Iterable[Element] = ()) -> None:
        self._initial: AbstractSet[Element] = (
            initial if isinstance(initial, LocationRuns)
            else frozenset(initial)
        )
        self._live: Set[Element] = set(self._initial)
        #: ``_live - _initial`` and ``_initial - _live``, pickled for it.
        self._gained: Set[Element] = set()
        self._lost: Set[Element] = set()
        #: ``j -> (added, removed)`` with ``SOS_j = (SOS_{j-1} - removed)
        #: | added``, ``added`` disjoint from and ``removed`` inside
        #: ``SOS_{j-1}``; kept for every ``j`` above the eviction point.
        self._deltas: Dict[
            int, Tuple[FrozenSet[Element], FrozenSet[Element]]
        ] = {1: (frozenset(), frozenset())}
        self._frontier = 1  # largest epoch whose SOS is published
        self._evicted_before = 0  # smallest epoch still readable

    @property
    def frontier(self) -> int:
        """Largest epoch id with a published SOS."""
        return self._frontier

    def get(self, lid: int) -> SOSView:
        """A fresh, privately editable view of the published ``SOS_l``
        (see :class:`SOSView` for how long it stays valid); raises if
        ``SOS_l`` is not yet computed or already evicted."""
        if lid < 0:
            return SOSView(frozenset())
        if lid < self._evicted_before:
            raise AnalysisError(
                f"SOS_{lid} was evicted (bounded history retains "
                f"epochs >= {self._evicted_before})"
            )
        if lid > self._frontier:
            raise AnalysisError(
                f"SOS_{lid} requested before epoch {lid - 2} was summarized"
            )
        view = SOSView(self._live)
        for step in range(self._frontier, lid, -1):
            added, removed = self._deltas[step]
            if added:
                view -= added
            if removed:
                view |= removed
        return view

    def advance(
        self,
        summarized_epoch: int,
        gen: AbstractSet[Element],
        killed: Callable[[Element], bool],
    ) -> None:
        """Publish ``SOS_{summarized_epoch + 2}`` from epoch-level GEN and
        a KILL predicate over the previous SOS.

        Costs one Python call per element of the previous state, every
        epoch: only for symbolic kills (see the class docstring).
        """
        self._check_next(summarized_epoch + 2)
        self.publish(
            summarized_epoch, gen, {e for e in self._live if killed(e)}
        )

    def publish(
        self,
        summarized_epoch: int,
        gen: AbstractSet[Element],
        kill: AbstractSet[Element],
    ) -> None:
        """Publish ``SOS_{summarized_epoch + 2} = GEN U (SOS - KILL)`` by
        editing the live set: work proportional to ``|gen| + |kill|``."""
        target = summarized_epoch + 2
        self._check_next(target)
        live = self._live
        added = frozenset(gen - live)
        removed = frozenset((kill - gen) & live)
        live -= removed
        live |= added
        # ``removed`` was live: gained, or else initial and now lost.
        # ``added`` was not: lost, or else newly gained.
        gained, lost = self._gained, self._lost
        lost |= removed - gained
        gained -= removed
        gained |= added - lost
        lost -= added
        self._deltas[target] = (added, removed)
        self._frontier = target

    def __reduce__(self) -> tuple:
        state = dict(self.__dict__)
        del state["_live"]  # it goes as gains and losses on ``_initial``
        return _load_history, (state,)

    def _check_next(self, target: int) -> None:
        if target != self._frontier + 1:
            raise AnalysisError(
                f"SOS must advance in order: next is SOS_{self._frontier + 1}, "
                f"got SOS_{target}"
            )

    def evict(self, before: int) -> None:
        """Drop published states for epochs ``< before``.

        The caller asserts those states will never be read again (on a
        streamed run, second passes have moved past them).  The
        frontier itself is always retained: it is the live set.
        """
        before = min(before, self._frontier)
        if before <= self._evicted_before:
            return
        for step in [k for k in self._deltas if k <= before]:
            del self._deltas[step]
        self._evicted_before = before

    def published(self) -> Dict[int, FrozenSet[Element]]:
        """Every readable state, materialized (for inspection/tests:
        one full copy per resident version)."""
        return {
            lid: frozenset(self.get(lid))
            for lid in range(self._evicted_before, self._frontier + 1)
        }


def _load_history(state: Dict[str, object]) -> SOSHistory:
    """Unpickle an :class:`SOSHistory`, rebuilding its live set."""
    history = SOSHistory.__new__(SOSHistory)
    history.__dict__.update(state)
    history._live = set(history._initial) - history._lost | history._gained
    return history
