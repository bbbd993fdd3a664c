"""Second-pass mask kernel == scalar walk, bit for bit.

The ReachingDefinitions mask kernel (``use_mask_kernel=True``, the
hook-free default) evaluates LSOS, body OUT, and the epoch SOS update
as word operations over interned bitsets; the scalar path
(``use_mask_kernel=False``) walks per instruction.  These properties
pin the two to *identical* observable state -- per-block IN/OUT/LSOS/
side-in, the full published SOS history (every epoch boundary), and
engine stats -- across serial/threads/processes backends and across
streamed-vs-materialized runs.  Masks are plain Python ints, so the
equivalence holds (and this module runs) under both numpy and
``REPRO_NO_NUMPY=1``.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.dataflow import (
    DefinitionDomain,
    ExpressionDomain,
    summarize_block,
)
from repro.core.epoch import Block, partition_by_global_order
from repro.core.framework import ButterflyEngine
from repro.core.parallel import PoolBackend
from repro.core.reaching_defs import ReachingDefinitions
from repro.core.stream import PartitionSource
from repro.trace.events import Op
from repro.trace.generator import (
    adversarial_instrs,
    simulated_alloc_program,
    simulated_taint_program,
)
from repro.verify.generator import FAMILIES, AdversarialCaseGenerator

THREADS = PoolBackend("threads", max_workers=4)
PROCESSES = PoolBackend("processes", max_workers=2)

_DEFINING_OPS = (Op.WRITE, Op.ASSIGN, Op.TAINT, Op.UNTAINT,
                 Op.READ, Op.JUMP, Op.NOP, Op.MALLOC, Op.FREE)


def _state(guard):
    """Everything a ReachingDefinitions run observably computes."""
    return {
        "block_in": guard.block_in,
        "block_out": guard.block_out,
        "block_lsos": guard.block_lsos,
        "side_in": guard.side_in,
        "sos": guard.sos.published(),
        "frontier": guard.sos.frontier,
    }


def _run(prog, h, use_mask_kernel, backend="serial", streamed=False):
    guard = ReachingDefinitions(use_mask_kernel=use_mask_kernel)
    part = partition_by_global_order(prog, h)
    with ButterflyEngine(guard, backend=backend) as engine:
        if streamed:
            stats = engine.run_source(PartitionSource(part))
        else:
            stats = engine.run(part)
    return guard, stats


class TestMaskVsScalar:
    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
        taint=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_serial_identical(self, seed, threads, h, taint):
        make = simulated_taint_program if taint else simulated_alloc_program
        prog = make(
            random.Random(seed),
            num_threads=threads,
            total_events=60,
            num_locations=6,
        )
        scalar, scalar_stats = _run(prog, h, use_mask_kernel=False)
        masked, masked_stats = _run(prog, h, use_mask_kernel=True)
        assert masked_stats == scalar_stats
        assert _state(masked) == _state(scalar)

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
    )
    @settings(max_examples=10, deadline=None)
    def test_parallel_backends_identical(self, seed, threads, h):
        """Mask kernel under threads/processes == scalar under serial."""
        prog = simulated_taint_program(
            random.Random(seed),
            num_threads=threads,
            total_events=50,
            num_locations=5,
        )
        ref, ref_stats = _run(prog, h, use_mask_kernel=False)
        for backend in (THREADS, PROCESSES):
            guard, stats = _run(
                prog, h, use_mask_kernel=True, backend=backend
            )
            assert stats == ref_stats
            assert _state(guard) == _state(ref)

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
    )
    @settings(max_examples=10, deadline=None)
    def test_streamed_matches_materialized(self, seed, threads, h):
        """Both kernels streamed == scalar materialized, with the SOS
        captured at every epoch boundary as it is published (streamed
        runs evict old SOS states, so the comparison snapshots each
        frontier advance before eviction can strike)."""
        prog = simulated_alloc_program(
            random.Random(seed),
            num_threads=threads,
            total_events=60,
            num_locations=6,
        )
        ref, ref_stats = _run(prog, h, use_mask_kernel=False)
        ref_sos = ref.sos.published()
        assert set(ref_sos) == set(
            range(ref.sos.frontier + 1)
        ), "materialized history must cover every epoch boundary"
        for use_mask in (False, True):
            guard = ReachingDefinitions(use_mask_kernel=use_mask)
            source = PartitionSource(partition_by_global_order(prog, h))
            captured = {}

            def snap():
                for lid, state in guard.sos.published().items():
                    captured.setdefault(lid, state)

            with ButterflyEngine(guard) as engine:
                engine.attach_source(source)
                snap()
                for lid, blocks in enumerate(source.epochs()):
                    engine.feed_blocks(lid, blocks)
                    snap()
                engine.finish()
                snap()
                stats = engine.stats
            assert stats == ref_stats, use_mask
            assert captured == ref_sos, use_mask
            assert guard.block_in == ref.block_in, use_mask
            assert guard.block_out == ref.block_out, use_mask
            assert guard.block_lsos == ref.block_lsos, use_mask
            assert guard.side_in == ref.side_in, use_mask

    def test_every_adversarial_family(self):
        """Replay every generator family through both kernels."""
        gen = AdversarialCaseGenerator(seed=31)
        seen = set()
        for index in range(3 * len(FAMILIES)):
            case = gen.case(index)
            seen.add(case.label)
            runs = []
            for use_mask in (False, True):
                guard = ReachingDefinitions(use_mask_kernel=use_mask)
                with ButterflyEngine(guard) as engine:
                    stats = engine.run(case.partition())
                runs.append((_state(guard), stats))
            assert runs[1] == runs[0], case.label
        assert seen == set(FAMILIES)

    def test_mask_kernel_rejects_hooks(self):
        import pytest

        with pytest.raises(ValueError):
            ReachingDefinitions(
                on_instruction=lambda *a: None, use_mask_kernel=True
            )


class TestColumnarSummarizer:
    """The columnar first-pass summarizer is bit-identical to the
    object walk for both element domains (trivially so without numpy,
    where the gate falls back to the object path)."""

    def _facts_dict(self, facts):
        return {
            "block_id": facts.block_id,
            "gen": facts.gen,
            "all_gen": facts.all_gen,
            "killed_vars": facts.killed_vars,
            "last_event": facts.last_event,
        }

    @given(seed=st.integers(0, 10_000), n=st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_domains_identical(self, seed, n):
        rng = random.Random(seed)
        instrs = tuple(
            adversarial_instrs(
                rng, n, num_locations=8, ops=_DEFINING_OPS, max_extent=4
            )
        )
        obj_block = Block(1, 2, 0, instrs)
        col_block = Block(1, 2, 0, instrs)
        col_block.columns  # force the columnar backing -> vector gate
        for domain in (DefinitionDomain(), ExpressionDomain()):
            obj = summarize_block(obj_block, domain)
            col = summarize_block(col_block, domain)
            assert self._facts_dict(col) == self._facts_dict(obj)
