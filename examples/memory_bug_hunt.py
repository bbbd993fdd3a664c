#!/usr/bin/env python
"""Memory-bug hunt: butterfly AddrCheck on a realistic parallel workload.

Generates an OCEAN-style grid solver run (per-iteration boundary-buffer
churn across threads), injects real memory bugs into one thread, and
shows the paper's central trade-off:

- every injected bug is caught (zero false negatives, Theorem 6.1);
- a few *safe* cross-thread handoffs near epoch boundaries are flagged
  too (false positives), and their number grows with the epoch size.

Run:  python examples/memory_bug_hunt.py
"""

import random

from repro.core.epoch import partition_by_global_order
from repro.core.framework import ButterflyEngine
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.reports import compare_reports
from repro.lifeguards.sequential import SequentialAddrCheck
from repro.trace.events import Instr
from repro.trace.program import ThreadTrace
from repro.workloads.registry import get_benchmark

THREADS = 4
EVENTS_PER_THREAD = 8192

print("generating an OCEAN-style trace "
      f"({THREADS} threads x {EVENTS_PER_THREAD} events)...")
program = get_benchmark("OCEAN").generate(THREADS, EVENTS_PER_THREAD, seed=42)

# -- Inject three classic heap bugs into thread 0 ------------------------
# The buggy events touch addresses no allocation ever covers, so they
# are errors under *every* interleaving; appending keeps the recorded
# ground-truth order valid.
bugs = [
    Instr.read(0xDEAD),          # access to never-allocated memory
    Instr.free(0xBEEF),          # free of unallocated memory
    Instr.write(0xFEED),         # wild store to unallocated memory
]
program.threads[0] = ThreadTrace(program.threads[0].instrs + tuple(bugs))
program.true_order = list(program.true_order) + [0] * len(bugs)
program.timesliced_order = None
program.validate()

# -- Ground truth: sequential AddrCheck on the recorded interleaving ----
truth = SequentialAddrCheck(program.preallocated)
truth.run_order(program)
print(f"ground truth: {len(truth.errors)} true error events")

# -- Butterfly analysis at two epoch sizes --------------------------------
for h in (512, 4096):
    partition = partition_by_global_order(program, h)
    guard = ButterflyAddrCheck(initially_allocated=program.preallocated)
    ButterflyEngine(guard).run(partition)
    precision = compare_reports(
        truth.errors, guard.errors, program.memory_op_count
    )
    print(f"\nepoch size h={h} events ({partition.num_epochs} epochs):")
    print(f"  flagged events:   {precision.flagged}")
    print(f"  true positives:   {precision.true_positives}")
    print(f"  false positives:  {precision.false_positives} "
          f"({precision.false_positive_rate:.2%} of memory accesses)")
    print(f"  false negatives:  {precision.false_negatives}  <- always 0")
    assert precision.false_negatives == 0

print("\nevery injected bug is caught at both epoch sizes; the larger")
print("epoch pays with more false positives on the safe buffer handoffs.")
