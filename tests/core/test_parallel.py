"""Unit tests for the execution backends and engine/backend wiring."""

import os

import pytest

from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyAnalysis, ButterflyEngine
from repro.core.parallel import (
    BACKEND_CHOICES,
    PoolBackend,
    SerialBackend,
    get_backend,
)
from repro.errors import AnalysisError
from repro.trace.events import Instr
from repro.trace.program import TraceProgram


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


class TestGetBackend:
    def test_names_resolve(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("threads"), PoolBackend)
        assert isinstance(get_backend("processes"), PoolBackend)

    def test_none_is_serial(self):
        assert isinstance(get_backend(None), SerialBackend)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert get_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(AnalysisError, match="unknown execution backend"):
            get_backend("gpu")

    def test_choices_cover_all_backends(self):
        for name in BACKEND_CHOICES:
            backend = get_backend(name)
            assert backend.name == name
            backend.close()


class TestCapabilities:
    def test_serial(self):
        backend = SerialBackend()
        assert not backend.concurrent

    def test_threads(self):
        backend = PoolBackend("threads")
        assert backend.concurrent

    def test_processes(self):
        backend = PoolBackend("processes")
        assert backend.concurrent


#: Both pool kinds.  The ids are the names of the two classes these
#: were before the pools merged, so the test ids did not move.
POOL_KINDS = [
    pytest.param("threads", id="ThreadPoolBackend"),
    pytest.param("processes", id="ProcessPoolBackend"),
]


class TestWorkerCountValidation:
    @pytest.mark.parametrize("kind", POOL_KINDS)
    def test_omitted_still_defaults(self, kind):
        # A pool is as wide as the host has CPUs.
        assert PoolBackend(kind).max_workers == max(1, os.cpu_count() or 1)

    def test_a_pool_is_threads_or_processes(self):
        with pytest.raises(AnalysisError, match="threads or processes"):
            PoolBackend("serial")


class TestMapOrdered:
    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_preserves_item_order(self, name):
        items = [(i,) for i in range(20)]
        with get_backend(name) as backend:
            assert backend.map_ordered(_square, items) == [
                i * i for i in range(20)
            ]

    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_empty_batch(self, name):
        with get_backend(name) as backend:
            assert backend.map_ordered(_square, []) == []

    def test_close_idempotent(self):
        backend = PoolBackend("threads")
        backend.map_ordered(_square, [(3,)])
        backend.close()
        backend.close()
        # A closed pool lazily re-creates its executor on next use.
        assert backend.map_ordered(_square, [(4,)]) == [16]
        backend.close()


class LegacyAnalysis(ButterflyAnalysis):
    """Overrides the whole-pass methods directly (pre-split style)."""

    def __init__(self):
        self.order = []

    def first_pass(self, block):
        self.order.append(("first", block.block_id))
        return block.block_id

    def meet(self, butterfly, wing_summaries):
        return tuple(sorted(wing_summaries))

    def second_pass(self, butterfly, side_in):
        self.order.append(("second", butterfly.body.block_id, side_in))

    def epoch_update(self, lid, summaries):
        self.order.append(("epoch", lid))


def _partition(threads=3, per_thread=8, h=2):
    prog = TraceProgram.from_lists(
        *[[Instr.nop() for _ in range(per_thread)] for _ in range(threads)]
    )
    return partition_fixed(prog, h)


class TestEngineBackendWiring:
    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_legacy_analysis_runs_on_any_backend(self, name):
        """Analyses without the scan/commit split stay on the serial
        path and behave identically on every backend."""
        baseline = LegacyAnalysis()
        ref = ButterflyEngine(baseline).run(_partition())
        analysis = LegacyAnalysis()
        with ButterflyEngine(analysis, backend=name) as engine:
            stats = engine.run(_partition())
        assert stats == ref
        assert analysis.order == baseline.order

    def test_engine_owns_named_backend(self):
        engine = ButterflyEngine(LegacyAnalysis(), backend="threads")
        assert engine._owns_backend
        engine.close()
        assert engine.backend._executor is None

    def test_engine_does_not_own_passed_instance(self):
        backend = PoolBackend("threads")
        try:
            backend.map_ordered(_square, [(2,)])  # spin up the pool
            with ButterflyEngine(LegacyAnalysis(), backend=backend) as engine:
                engine.run(_partition())
            # close() on exit must leave the caller's pool running.
            assert backend._executor is not None
            assert backend.map_ordered(_square, [(5,)]) == [25]
        finally:
            backend.close()
