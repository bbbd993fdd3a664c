"""Metadata TLB: the LBA accelerator caching shadow-page translations.

The paper's evaluation uses LBA's *metadata-TLB* so the common case of a
lifeguard metadata lookup costs a single indexed load (Section 7.1).
This model is a small set-associative, LRU cache of shadow page numbers;
the timing substrate charges ``HIT_CYCLES`` or ``MISS_CYCLES``
accordingly.
"""

from __future__ import annotations

from typing import List


class MetadataTLB:
    """Set-associative LRU TLB over shadow pages: 64 entries, 4-way."""

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
