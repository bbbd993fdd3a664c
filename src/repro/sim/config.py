"""Machine and cost-model parameters (paper Table 1).

``MachineConfig`` defaults reproduce Table 1's simulation parameters;
:data:`COSTS`, a ``LifeguardCostModel``, prices the per-event lifeguard
work the paper describes (LBA dispatch, metadata checks, and butterfly's
first-pass recording overhead of "roughly 7-10 instructions for each
monitored load and store").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class CacheConfig:
    """One cache level's geometry and latency."""

    size_bytes: int
    line_bytes: int
    associativity: int
    latency_cycles: int

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def validate(self) -> None:
        if self.line_bytes < 1:
            raise SimulationError(
                f"line size must be >= 1 byte, got {self.line_bytes}"
            )
        if self.associativity < 1:
            raise SimulationError(
                f"associativity must be >= 1, got {self.associativity}"
            )
        if self.size_bytes % self.line_bytes:
            raise SimulationError("cache size must be a multiple of line size")
        if self.num_lines % self.associativity:
            raise SimulationError(
                "line count must be a multiple of associativity"
            )
        if self.num_sets < 1:
            # A geometry whose lines don't fill one set (e.g. size 0, or
            # fewer lines than ways) would crash set indexing with
            # ``line % 0``; a one-set (fully associative) cache is the
            # legal minimum.
            raise SimulationError(
                f"cache geometry yields {self.num_sets} sets "
                f"({self.num_lines} lines / {self.associativity} ways); "
                "need at least one"
            )


@dataclass(frozen=True)
class MachineConfig:
    """Table 1's machine model.

    1 GHz in-order scalar cores; 64 B lines; 64 KB 4-way L1s (1-cycle I,
    2-cycle D); shared 8-way L2 in 4 banks at 6 cycles ({2,4,8} MB for
    {4,8,16} cores); 512 MB memory at 90 cycles; 8 KB per-thread log
    buffer.  LBA pairs each application core with a lifeguard core, so
    ``cores`` is twice the application thread count.
    """

    cores: int = 4
    clock_ghz: float = 1.0
    line_bytes: int = 64
    l1i: CacheConfig = field(
        default=CacheConfig(64 * 1024, 64, 4, 1)
    )
    l1d: CacheConfig = field(
        default=CacheConfig(64 * 1024, 64, 4, 2)
    )
    l2_mb_per_4_cores: int = 2
    l2_assoc: int = 8
    l2_banks: int = 4
    l2_latency: int = 6
    memory_mb: int = 512
    memory_latency: int = 90
    log_buffer_bytes: int = 8 * 1024
    log_record_bytes: int = 16

    @property
    def l2(self) -> CacheConfig:
        """The shared L2 scales with core count: {2,4,8} MB for
        {4,8,16} cores."""
        size_mb = self.l2_mb_per_4_cores * max(1, self.cores // 4)
        return CacheConfig(
            size_mb * 1024 * 1024, self.line_bytes, self.l2_assoc,
            self.l2_latency,
        )

    @staticmethod
    def for_app_threads(app_threads: int) -> "MachineConfig":
        """LBA runs k application threads on 2k cores."""
        if app_threads < 1:
            raise SimulationError("need at least one application thread")
        return MachineConfig(cores=2 * app_threads)

    def table_rows(self) -> List[Tuple[str, str]]:
        """Render Table 1's simulation-parameter rows."""
        l2 = self.l2
        return [
            ("Cores", f"{self.cores} cores"),
            ("Pipeline", f"{self.clock_ghz:.0f} GHz, in-order scalar, 65nm"),
            ("Line size", f"{self.line_bytes}B"),
            (
                "L1-I",
                f"{self.l1i.size_bytes // 1024}KB, "
                f"{self.l1i.associativity}-way set-assoc, "
                f"{self.l1i.latency_cycles} cycle latency",
            ),
            (
                "L1-D",
                f"{self.l1d.size_bytes // 1024}KB, "
                f"{self.l1d.associativity}-way set-assoc, "
                f"{self.l1d.latency_cycles} cycle latency",
            ),
            (
                "L2",
                f"{l2.size_bytes // (1024 * 1024)}MB, "
                f"{l2.associativity}-way set-assoc, {self.l2_banks} banks, "
                f"{l2.latency_cycles} cycle latency",
            ),
            ("Memory", f"{self.memory_mb}MB, {self.memory_latency} cycle latency"),
            ("Log buffer", f"{self.log_buffer_bytes // 1024}KB"),
        ]


@dataclass(frozen=True)
class LifeguardCostModel:
    """Per-event lifeguard work, in lifeguard-core instructions/cycles.

    The butterfly prototype's extra work is the paper's observation that
    the first pass "executes roughly 7-10 instructions for each
    monitored load and store simply to record it for the second pass".
    False positives are "expensive to process in AddrCheck" -- the cost
    that makes OCEAN's large-epoch configuration slower (Figure 12).
    The model's one calibration is :data:`COSTS`.
    """

    #: LBA event dispatch (decode + handler jump) per log record.
    dispatch_cycles: int
    #: AddrCheck metadata check per location (beyond the metadata-TLB
    #: lookup, which is charged separately).
    check_cycles: int
    #: Extra first-pass instructions per monitored load/store to record
    #: the access for the second pass (paper: 7-10, plus the software
    #: filter probe).
    record_cycles: int
    #: Second-pass work per recorded access (summary set operations).
    second_pass_cycles: int
    #: One barrier synchronization (two per epoch: after each pass),
    #: including the master's SOS update.  Scaled 1/16 with the traces.
    epoch_barrier_cycles: int
    #: Handling one flagged (false or true) positive: logging, metadata
    #: re-verification, rate limiting.  Scaled 1/16 with the traces.
    error_handling_cycles: int
    #: OS context-switch cost charged per timeslice quantum in the
    #: timesliced baseline.
    timeslice_switch_cycles: int
    #: Timeslice quantum in events (scaled 1/16 with the traces).
    timeslice_quantum: int


#: The cost model every simulated run is priced with.
COSTS = LifeguardCostModel(
    dispatch_cycles=3,
    check_cycles=25,
    record_cycles=8,
    second_pass_cycles=2,
    epoch_barrier_cycles=800,
    error_handling_cycles=400,
    timeslice_switch_cycles=300,
    timeslice_quantum=6250,
)
