"""The Log-Based Architectures (LBA) chip-multiprocessor substrate.

The paper evaluates butterfly analysis on a Simics-simulated CMP with
LBA hardware: each application core captures an instruction log that a
paired lifeguard core consumes via the shared L2; the application stalls
when its 8 KB log buffer fills (Section 7.1, Table 1).  This subpackage
reproduces that machine in Python:

- :mod:`repro.sim.config` -- Table 1's machine parameters and the
  lifeguard cost model;
- :mod:`repro.sim.cache` / :mod:`repro.sim.memory` -- set-associative
  caches and the L1/L2/DRAM hierarchy;
- :mod:`repro.sim.cmp` -- in-order cores executing event traces;
- :mod:`repro.sim.logbuffer` -- the bounded log buffer's steady-state
  coupling of application and lifeguard time;
- :mod:`repro.sim.accelerators` -- LBA's metadata TLB and idempotent
  event filter;
- :mod:`repro.sim.lba` -- the full system model producing execution
  times for unmonitored, timesliced, and butterfly configurations.
"""

from repro.sim.config import MachineConfig, LifeguardCostModel
from repro.sim.lba import LBASystem, SimResult

__all__ = [
    "MachineConfig",
    "LifeguardCostModel",
    "LBASystem",
    "SimResult",
]
