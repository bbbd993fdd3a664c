"""The full LBA system model: execution times for the three Figure 11
configurations.

For each benchmark the paper reports execution time normalized to the
application running *sequentially, unmonitored*:

- **Timesliced Monitoring** -- all application threads interleaved on
  one core, monitored by one sequential lifeguard on a separate core;
- **Parallel, Monitoring** -- butterfly analysis: each application
  thread on its own core, paired with its own lifeguard core;
- **Parallel, No Monitoring** -- plain parallel execution.

Because lifeguard processing is slower than the application, the
monitored application stalls on a full log buffer and measured time
equals lifeguard processing time (Section 7.1); :func:`coupled_time`
encodes that.  Lifeguard work is charged from the cost model
:data:`~repro.sim.config.COSTS` using counters measured while
*actually running* the butterfly AddrCheck over the trace
(:func:`repro.bench.harness.measure_epoch_size`) -- the analysis itself
is executed faithfully, only the hardware is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.columnar import OP_FREE, OP_MALLOC, access_stream
from repro.core.epoch import BlockId, EpochPartition
from repro.lifeguards.sequential import SequentialAddrCheck
from repro.sim.accelerators import IdempotentFilter, MetadataTLB
from repro.sim.cmp import LOCATION_STRIDE, run_parallel, run_serialized
from repro.sim.config import COSTS, MachineConfig
from repro.sim.logbuffer import coupled_time
from repro.trace.interleave import round_robin
from repro.trace.program import TraceProgram


@dataclass
class SimResult:
    """One configuration's simulated outcome."""

    label: str
    cycles: int
    app_cycles: int
    lifeguard_cycles: int
    extras: Dict[str, float] = field(default_factory=dict)


#: Cycles per summary set operation of the meet and the isolation check.
SETOP_CYCLES = 1
#: Entries of the timesliced lifeguard's idempotent filter.
FILTER_CAPACITY = 16384
#: Shadow locations per metadata page.  Small enough that the *merged*
#: timesliced stream overflows the 64-entry metadata TLB on
#: large-footprint benchmarks while each butterfly lifeguard's
#: single-thread working set stays resident.
MTLB_PAGE_SIZE = 512


class LBASystem:
    """Builds and times the three system configurations for one trace,
    priced with :data:`~repro.sim.config.COSTS`."""

    # -- baselines -----------------------------------------------------

    def unmonitored_sequential(self, program: TraceProgram) -> SimResult:
        """The normalizer: the whole workload on one core, no lifeguard."""
        config = MachineConfig(cores=4)
        core = run_serialized(program, config)
        return SimResult(
            label="sequential-unmonitored",
            cycles=core.cycles,
            app_cycles=core.cycles,
            lifeguard_cycles=0,
            extras={"instructions": core.instructions},
        )

    def unmonitored_parallel(self, program: TraceProgram) -> SimResult:
        """Parallel, No Monitoring."""
        config = MachineConfig.for_app_threads(program.num_threads)
        cmp_result = run_parallel(program, config)
        return SimResult(
            label="parallel-no-monitoring",
            cycles=cmp_result.cycles,
            app_cycles=cmp_result.cycles,
            lifeguard_cycles=0,
            extras={"threads": program.num_threads},
        )

    # -- timesliced baseline --------------------------------------------

    def timesliced(self, program: TraceProgram) -> SimResult:
        """Timesliced Monitoring: serialized app + sequential lifeguard.

        The application's threads run on one core in OS-quantum slices
        (the generator's recorded timesliced schedule when available).
        The sequential lifeguard keeps LBA's accelerators: an idempotent
        filter (with no epoch boundaries, it flushes only on capacity)
        and a metadata TLB.
        """
        config = MachineConfig(cores=4)
        costs = COSTS
        order = program.timesliced_order
        if order is None:
            order = program.true_order
        if order is None:
            order = round_robin(program, quantum=costs.timeslice_quantum)
        app = run_serialized(program, config, order=order)
        switches = int(np.count_nonzero(order[1:] != order[:-1]))
        app_cycles = app.cycles + switches * costs.timeslice_switch_cycles

        mtlb = MetadataTLB(page_size=MTLB_PAGE_SIZE)
        filt = IdempotentFilter(capacity=FILTER_CAPACITY)
        lifeguard_cycles = 0
        errors = 0
        guard = SequentialAddrCheck(program.preallocated)
        for ref, code, dst, size, accessed in program.walk(order):
            alloc = code == OP_MALLOC or code == OP_FREE
            locs = range(dst, dst + size) if alloc else accessed
            if not locs:
                # Compute instructions are masked out by LBA's event
                # selection and never dispatch.
                continue
            if not filt.admit(locs, alloc):
                continue
            lifeguard_cycles += costs.dispatch_cycles
            flags_before = len(guard.errors)
            guard.step(ref, code, dst, size, accessed)
            for loc in locs:
                lifeguard_cycles += (
                    mtlb.lookup(loc * LOCATION_STRIDE) + costs.check_cycles
                )
            errors += len(guard.errors) - flags_before
        lifeguard_cycles += errors * costs.error_handling_cycles

        return SimResult(
            label="timesliced-monitoring",
            cycles=coupled_time(app_cycles, lifeguard_cycles),
            app_cycles=app_cycles,
            lifeguard_cycles=lifeguard_cycles,
            extras={
                "filter_rate": filt.filter_rate,
                "mtlb_hit_rate": mtlb.hit_rate,
                "errors": errors,
            },
        )

    # -- butterfly ---------------------------------------------------------

    def butterfly(
        self,
        partition: EpochPartition,
        block_work: Dict[BlockId, Dict[str, int]],
        flags: int,
        app: SimResult,
    ) -> SimResult:
        """Parallel, Monitoring: butterfly AddrCheck on 2k cores.

        Prices one real lifeguard run with the cost model: the
        ``partition`` it cut the trace into, its per-block work
        counters ``block_work`` (``ButterflyAddrCheck.block_work`` for
        every block) and the number of errors it ``flags``, beside the
        application side ``app`` -- the program's
        :meth:`unmonitored_parallel` run, which no epoch size changes.
        """
        program = partition.program
        costs = COSTS
        mtlb_cycles = self._mtlb_cycles_by_thread(partition)

        # Average metadata-TLB cost per check, per lifeguard thread.
        total_checks = {
            tid: sum(
                block_work[lid, tid]["checks"]
                for lid in range(partition.num_epochs)
            )
            for tid in range(program.num_threads)
        }
        avg_mtlb = {
            tid: mtlb_cycles[tid] / total_checks[tid]
            if total_checks[tid]
            else 0.0
            for tid in range(program.num_threads)
        }

        # The lifeguard threads synchronize twice per epoch (once after
        # each pass), so each epoch costs the *slowest* thread's pass
        # time -- this is where load imbalance hurts butterfly analysis.
        lifeguard_cycles = 0
        barrier = 2 * costs.epoch_barrier_cycles
        for lid in range(partition.num_epochs):
            first_max = 0
            second_max = 0
            for tid in range(program.num_threads):
                w = block_work[lid, tid]
                check_cost = costs.check_cycles + avg_mtlb[tid]
                # First pass: every load/store is dispatched and
                # recorded for the second pass (the paper's 7-10 extra
                # instructions); only filter-admitted unique accesses
                # and allocation events pay the metadata check.
                first = int(
                    w["accesses"] * (costs.dispatch_cycles + costs.record_cycles)
                    + w["checks"] * check_cost
                    + w["allocs"] * (costs.dispatch_cycles + check_cost)
                )
                second = int(
                    w["checks"] * costs.second_pass_cycles
                    + (w["meet"] + w["iso"]) * SETOP_CYCLES
                    + w["flags"] * costs.error_handling_cycles
                )
                first_max = max(first_max, first)
                second_max = max(second_max, second)
            lifeguard_cycles += first_max + second_max + barrier

        return SimResult(
            label="parallel-monitoring",
            cycles=coupled_time(app.app_cycles, lifeguard_cycles),
            app_cycles=app.app_cycles,
            lifeguard_cycles=lifeguard_cycles,
            extras={
                "epochs": partition.num_epochs,
                "flags": float(flags),
                "barrier_cycles": partition.num_epochs * barrier,
            },
        )

    # -- helpers --------------------------------------------------------------

    def _mtlb_cycles_by_thread(
        self, partition: EpochPartition
    ) -> Dict[int, int]:
        """Per-lifeguard-thread metadata-TLB cost over its thread's
        checked locations (filter-aligned: duplicates within a block --
        up to the partition's next cut -- are skipped as the lifeguard
        skips them)."""
        out: Dict[int, int] = {}
        for tid, trace in enumerate(partition.program.threads):
            cols = trace.columns
            acc_off, acc_loc, _ = access_stream(cols)
            accessed = acc_loc.tolist()
            mtlb = MetadataTLB(page_size=MTLB_PAGE_SIZE)
            cuts = set(partition.boundaries[tid])
            seen: set = set()
            cycles = 0
            for i, (code, dst, size, lo, hi) in enumerate(zip(
                cols.op.tolist(), cols.dst.tolist(), cols.size.tolist(),
                acc_off.tolist(), acc_off[1:].tolist(),
            )):
                if i in cuts:
                    seen.clear()
                if code == OP_MALLOC or code == OP_FREE:
                    for loc in range(dst, dst + size):
                        seen.discard(loc)
                        cycles += mtlb.lookup(loc * LOCATION_STRIDE)
                else:
                    for loc in accessed[lo:hi]:
                        if loc in seen:
                            continue
                        seen.add(loc)
                        cycles += mtlb.lookup(loc * LOCATION_STRIDE)
            out[tid] = cycles
        return out
