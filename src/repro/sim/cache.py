"""Set-associative LRU cache model."""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.sim.config import CacheConfig


class SetAssocCache:
    """A set-associative, write-allocate, LRU cache.

    Does not model dirty writebacks (the paper's performance story is
    read-latency dominated and the lifeguard logs flow through the L2
    regardless).
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        config.validate()
        self.config = config
        self.name = name
        # The config is frozen: read its geometry once, not per access.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._ways = config.associativity
        self._sets: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit, False on miss (the line
        is installed either way)."""
        line = addr // self._line_bytes
        ways = self._sets[line % self._num_sets]
        if line in ways:
            ways.move_to_end(line)
            return True
        ways[line] = None
        if len(ways) > self._ways:
            ways.popitem(last=False)
        return False
