"""LBA lifeguard accelerators (paper Section 7.1).

The evaluation uses two LBA accelerators:

- the *metadata TLB*, which caches shadow-page translations so the
  common case of a lifeguard metadata lookup costs a single indexed
  load; the timing model charges its hits and misses; and
- *idempotent filtering*: repeated events that cannot change the
  lifeguard's conclusion (e.g. a second read of the same address with
  unchanged metadata) are dropped in hardware before dispatch.  The
  paper flushes the filters at every epoch boundary "so that events are
  only filtered within (and never across) epochs" -- crossing an epoch
  boundary changes what is potentially concurrent, so a stale filter
  entry could hide a required re-check.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.trace.events import Instr, Op


class MetadataTLB:
    """Set-associative LRU TLB over shadow pages: 64 entries, 4-way.

    The timing model charges ``HIT_CYCLES`` or ``MISS_CYCLES`` per
    lookup.
    """

    ENTRIES = 64
    ASSOCIATIVITY = 4
    HIT_CYCLES = 1
    MISS_CYCLES = 30

    def __init__(self, page_size: int = 4096) -> None:
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.page_size = page_size
        self.num_sets = self.ENTRIES // self.ASSOCIATIVITY
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, addr: int) -> int:
        """Translate ``addr``; returns the cycle cost of the lookup."""
        page = addr // self.page_size
        idx = page % self.num_sets
        way = self._sets[idx]
        if page in way:
            way.remove(page)
            way.append(page)
            self.hits += 1
            return self.HIT_CYCLES
        self.misses += 1
        way.append(page)
        if len(way) > self.ASSOCIATIVITY:
            way.pop(0)
        return self.MISS_CYCLES

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class IdempotentFilter:
    """Hardware filter of redundant monitored events.

    For AddrCheck, a load/store of a location already checked with no
    intervening allocation-state change is idempotent.  The filter is a
    finite hardware table (``capacity`` entries, LRU), so streaming
    workloads with working sets larger than the table defeat it while
    tight-reuse workloads (LU's blocks, BLACKSCHOLES' options) are
    almost fully filtered.  Butterfly analysis additionally flushes at
    every epoch boundary; the timesliced baseline has no epochs and
    flushes only on capacity.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._checked: "OrderedDict[int, None]" = OrderedDict()
        self.passed = 0
        self.filtered = 0

    def _touch(self, loc: int) -> None:
        if loc in self._checked:
            self._checked.move_to_end(loc)
        else:
            self._checked[loc] = None
            if len(self._checked) > self.capacity:
                self._checked.popitem(last=False)

    def admit(self, instr: Instr) -> bool:
        """True when the event must reach the lifeguard."""
        if instr.op in (Op.MALLOC, Op.FREE):
            # Allocation-state changes invalidate prior checks of the
            # covered locations and always dispatch.
            for loc in instr.extent:
                self._checked.pop(loc, None)
            self.passed += 1
            return True
        accessed = instr.accessed
        if not accessed:
            self.passed += 1
            return True
        if all(loc in self._checked for loc in accessed):
            for loc in accessed:
                self._checked.move_to_end(loc)
            self.filtered += 1
            return False
        for loc in accessed:
            self._touch(loc)
        self.passed += 1
        return True

    def flush(self) -> None:
        """Epoch boundary: filtering never crosses epochs."""
        self._checked.clear()

    @property
    def filter_rate(self) -> float:
        total = self.passed + self.filtered
        return self.filtered / total if total else 0.0
