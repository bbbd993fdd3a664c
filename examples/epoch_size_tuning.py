#!/usr/bin/env python
"""Epoch-size tuning: the paper's central performance/accuracy knob.

Sweeps the heartbeat interval for one benchmark and prints the
trade-off the paper's Figures 12 and 13 chart: larger epochs amortize
the per-epoch barriers and re-checks (faster) but widen the window of
potential concurrency (more false positives) -- with OCEAN's
boundary-exchange churn as the showcase.

Run:  python examples/epoch_size_tuning.py
"""

from repro.bench.harness import Oracle, measure_epoch_size
from repro.bench.reporting import render_table
from repro.sim.lba import LBASystem
from repro.workloads.registry import get_benchmark

THREADS = 4
EVENTS_PER_THREAD = 16384

print(f"OCEAN, {THREADS} threads, {EVENTS_PER_THREAD} events/thread")
program = get_benchmark("OCEAN").generate(THREADS, EVENTS_PER_THREAD, seed=1)

oracle = Oracle(program)
assert len(oracle.errors) == 0, "the generated run is bug-free"

system = LBASystem()
baseline = system.unmonitored_sequential(program)

rows = []
for h in (256, 512, 1024, 2048, 4096, 8192):
    point = measure_epoch_size(program, h, oracle, system=system)
    rows.append((
        h,
        point.epochs,
        f"{point.butterfly.cycles / baseline.cycles:.2f}x",
        point.precision.false_positives,
        f"{point.fp_rate:.2%}",
    ))

print()
print(render_table(
    ("epoch size", "epochs", "slowdown", "false pos", "FP rate"), rows
))
print()
print("pick the knee: big enough to amortize barriers, small enough")
print("that cross-thread handoffs land two epochs apart and stay quiet.")
