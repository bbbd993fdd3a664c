"""Butterfly analysis core: epochs, windows, engine, canonical analyses.

Module map (paper section in parentheses):

- :mod:`repro.core.epoch` -- heartbeats, uncertainty epochs, blocks (4.1)
- :mod:`repro.core.window` -- butterflies: head/body/tail/wings (4.1-4.2)
- :mod:`repro.core.ordering` -- valid orderings, the correctness oracle (5)
- :mod:`repro.core.state` -- SOS and LSOS containers (4.2, 5.1.2, 5.2.1)
- :mod:`repro.core.framework` -- the generic two-pass engine (4.3)
- :mod:`repro.core.reaching_defs` -- dynamic parallel reaching definitions
  (5.1) and ``ReachingAnalysis``, the base of both Section 5 analyses
- :mod:`repro.core.reaching_exprs` -- dynamic parallel reaching expressions (5.2)
- :mod:`repro.core.generic` -- ``LifeguardSpec``: a spec builds one of them (4.3)
"""

from repro.core.epoch import (
    Block,
    BlockId,
    EpochPartition,
    InstrId,
    partition_auto,
    partition_by_global_order,
    partition_fixed,
    partition_from_boundaries,
    partition_with_skew,
)
from repro.core.window import Butterfly
from repro.core.framework import ButterflyEngine, ButterflyAnalysis

__all__ = [
    "Block",
    "BlockId",
    "InstrId",
    "EpochPartition",
    "partition_fixed",
    "partition_by_global_order",
    "partition_with_skew",
    "partition_auto",
    "partition_from_boundaries",
    "Butterfly",
    "ButterflyEngine",
    "ButterflyAnalysis",
]
