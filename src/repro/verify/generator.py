"""Adversarial trace cases for the differential verification harness.

A :class:`TraceCase` bundles everything one differential trial needs --
the per-thread instruction lists, an explicit epoch partition, the
lifeguard family, and the seed that reproduces it.  Cases are plain
data: JSON-serializable (for ``repro-failures/`` artifacts) and cheap
to copy (the shrinker mutates copies, never the original).

The generator is seeded and biased: instead of uniform event soup it
rotates through *families* of historically hard shapes -- wing-heavy
conflict patterns, allocation-state changes at epoch boundaries,
single-instruction blocks, empty threads/epochs, extents that straddle
shadow-page/bitset-word strides, and taint propagation chains.  Trial
``i`` of seed ``s`` is a pure function of ``(s, i)``; no global RNG
state is touched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.epoch import EpochPartition, partition_from_boundaries
from repro.trace.events import Instr, Op
from repro.trace.generator import adversarial_instrs
from repro.trace.program import ThreadTrace, TraceProgram

#: The generator's rotation of hard-case shapes.
FAMILIES = (
    "wing_heavy",
    "epoch_boundary",
    "single_instruction",
    "empty_threads",
    "page_straddle",
    "taint_chain",
)


@dataclass(frozen=True)
class TraceCase:
    """One self-contained differential trial input."""

    seed: int
    label: str
    lifeguard: str
    threads: Tuple[Tuple[Instr, ...], ...]
    boundaries: Tuple[Tuple[int, ...], ...]
    preallocated: frozenset = field(default_factory=frozenset)

    def program(self) -> TraceProgram:
        return TraceProgram(
            [ThreadTrace(list(t)) for t in self.threads],
            preallocated=frozenset(self.preallocated),
        )

    def partition(self) -> EpochPartition:
        return partition_from_boundaries(
            self.program(), [list(b) for b in self.boundaries]
        )

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def num_epochs(self) -> int:
        return len(self.boundaries[0]) if self.boundaries else 0

    @property
    def total_instructions(self) -> int:
        return sum(len(t) for t in self.threads)

    # -- artifact round-trip -------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "label": self.label,
            "lifeguard": self.lifeguard,
            "preallocated": sorted(self.preallocated),
            "threads": [
                [[i.op.value, i.dst, list(i.srcs), i.size] for i in t]
                for t in self.threads
            ],
            "boundaries": [list(b) for b in self.boundaries],
        }

    @classmethod
    def from_json(cls, raw: Dict[str, Any]) -> "TraceCase":
        threads = tuple(
            tuple(
                Instr(Op(op), dst=dst, srcs=tuple(srcs), size=size)
                for op, dst, srcs, size in t
            )
            for t in raw["threads"]
        )
        return cls(
            seed=raw["seed"],
            label=raw["label"],
            lifeguard=raw["lifeguard"],
            threads=threads,
            boundaries=tuple(tuple(b) for b in raw["boundaries"]),
            preallocated=frozenset(raw.get("preallocated", ())),
        )

    def with_threads(
        self,
        threads: Sequence[Sequence[Instr]],
        boundaries: Sequence[Sequence[int]],
    ) -> "TraceCase":
        """A structurally edited copy (the shrinker's workhorse)."""
        return replace(
            self,
            threads=tuple(tuple(t) for t in threads),
            boundaries=tuple(tuple(b) for b in boundaries),
        )


def _random_boundaries(
    rng: random.Random, lengths: Sequence[int], num_epochs: int
) -> List[List[int]]:
    """Per-thread sorted cut lists: ``num_epochs`` exclusive ends, the
    last pinned to the thread length.  Duplicate cuts (empty blocks)
    are deliberately common."""
    out = []
    for n in lengths:
        cuts = sorted(rng.randint(0, n) for _ in range(num_epochs - 1))
        out.append(cuts + [n])
    return out


def _boundaries_after_state_changes(
    instrs: Sequence[Instr], num_epochs: int
) -> List[int]:
    """Cuts placed immediately *after* allocation-state changes, the
    shape most likely to catch stale SOS/filter state at an epoch
    boundary."""
    change_points = [
        i + 1
        for i, instr in enumerate(instrs)
        if instr.op in (Op.MALLOC, Op.FREE)
    ]
    cuts = sorted(change_points[: num_epochs - 1])
    while len(cuts) < num_epochs - 1:
        cuts.append(len(instrs))
    return cuts + [len(instrs)]


class AdversarialCaseGenerator:
    """Deterministic stream of :class:`TraceCase` values.

    ``case(i)`` is pure in ``(seed, i)``; families rotate so any run of
    ``len(FAMILIES)`` consecutive trials covers every shape at least
    once.
    """

    def __init__(self, seed: int, num_locations: int = 8) -> None:
        self.seed = seed
        self.num_locations = num_locations

    def case(self, index: int) -> TraceCase:
        rng = random.Random(self.seed * 1_000_003 + index)
        label = FAMILIES[index % len(FAMILIES)]
        build = getattr(self, f"_build_{label}")
        threads, boundaries, lifeguard, prealloc = build(rng)
        return TraceCase(
            seed=self.seed,
            label=label,
            lifeguard=lifeguard,
            threads=tuple(tuple(t) for t in threads),
            boundaries=tuple(tuple(b) for b in boundaries),
            preallocated=frozenset(prealloc),
        )

    # -- families -------------------------------------------------------

    def _build_wing_heavy(self, rng: random.Random):
        """2-3 threads hammering 1-2 shared locations: every butterfly's
        wings conflict with its body.  A third run RaceCheck (drawn last:
        the trace and cuts are an AddrCheck case's)."""
        hot = rng.sample(range(self.num_locations), rng.randint(1, 2))
        nthreads = rng.randint(2, 3)
        lengths = [rng.randint(1, 3) for _ in range(nthreads)]
        threads = [
            adversarial_instrs(rng, n, self.num_locations, hot_locations=hot)
            for n in lengths
        ]
        num_epochs = rng.randint(2, 3)
        boundaries = _random_boundaries(rng, lengths, num_epochs)
        prealloc = hot if rng.random() < 0.5 else ()
        lifeguard = "race" if rng.random() < 1 / 3 else "addrcheck"
        return threads, boundaries, lifeguard, prealloc

    def _build_epoch_boundary(self, rng: random.Random):
        """Allocation-state changes placed right at epoch cuts."""
        nthreads = rng.randint(2, 3)
        lengths = [rng.randint(2, 4) for _ in range(nthreads)]
        threads = [
            adversarial_instrs(
                rng, n, self.num_locations,
                ops=(Op.MALLOC, Op.FREE, Op.READ, Op.WRITE),
            )
            for n in lengths
        ]
        num_epochs = rng.randint(2, 4)
        boundaries = [
            _boundaries_after_state_changes(t, num_epochs) for t in threads
        ]
        return threads, boundaries, "addrcheck", ()

    def _build_single_instruction(self, rng: random.Random):
        """Every block holds at most one instruction (the paper's
        degenerate h=1 heartbeat), shorter threads padded with empty
        blocks."""
        nthreads = rng.randint(2, 3)
        lengths = [rng.randint(0, 3) for _ in range(nthreads)]
        if not any(lengths):
            lengths[0] = 1
        threads = [
            adversarial_instrs(rng, n, self.num_locations) for n in lengths
        ]
        num_epochs = max(lengths)
        boundaries = [
            [min(k + 1, n) for k in range(num_epochs)] for n in lengths
        ]
        return threads, boundaries, "addrcheck", ()

    def _build_empty_threads(self, rng: random.Random):
        """At least one thread with zero instructions, and often an
        empty final epoch across every thread."""
        nthreads = rng.randint(2, 3)
        lengths = [rng.randint(0, 3) for _ in range(nthreads)]
        lengths[rng.randrange(nthreads)] = 0
        threads = [
            adversarial_instrs(rng, n, self.num_locations) for n in lengths
        ]
        num_epochs = rng.randint(2, 4)
        boundaries = _random_boundaries(rng, lengths, num_epochs)
        if rng.random() < 0.5 and num_epochs >= 2:
            # Force the final epoch empty in every thread.
            boundaries = [
                cuts[:-2] + [cuts[-1], cuts[-1]] for cuts in boundaries
            ]
        return threads, boundaries, "addrcheck", ()

    def _build_page_straddle(self, rng: random.Random):
        """Sized MALLOC/FREE extents straddling small-stride boundaries
        (shadow pages, bitset words)."""
        nthreads = rng.randint(2, 3)
        lengths = [rng.randint(1, 3) for _ in range(nthreads)]
        stride = rng.choice((4, 8))
        threads = [
            adversarial_instrs(
                rng, n, self.num_locations * 2,
                ops=(Op.MALLOC, Op.FREE, Op.READ, Op.WRITE),
                straddle_stride=stride, max_extent=4,
            )
            for n in lengths
        ]
        num_epochs = rng.randint(2, 3)
        return (
            threads,
            _random_boundaries(rng, lengths, num_epochs),
            "addrcheck",
            range(self.num_locations * 2) if rng.random() < 0.3 else (),
        )

    def _build_taint_chain(self, rng: random.Random):
        """Taint sources, propagation chains and uses for TaintCheck."""
        hot = rng.sample(range(self.num_locations), rng.randint(2, 3))
        nthreads = rng.randint(2, 3)
        lengths = [rng.randint(1, 3) for _ in range(nthreads)]
        threads = [
            adversarial_instrs(
                rng, n, self.num_locations,
                ops=(Op.TAINT, Op.UNTAINT, Op.ASSIGN, Op.JUMP, Op.WRITE),
                hot_locations=hot,
            )
            for n in lengths
        ]
        num_epochs = rng.randint(2, 3)
        return (
            threads,
            _random_boundaries(rng, lengths, num_epochs),
            "taintcheck",
            (),
        )
