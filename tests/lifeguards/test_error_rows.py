"""A flag is kept as the row its report carries: a tuple of atomic values
that the cyclic collector untracks, and whose reports are the ones the
log's earlier entry form gave."""

import gc
import hashlib

import pytest

from repro.core.epoch import partition_auto
from repro.core.framework import ButterflyEngine
from repro.core.stream import PartitionSource
from repro.serve.shards import make_guard
from repro.workloads.registry import get_benchmark

#: (benchmark, threads, events per thread, epoch size) -> lifeguard ->
#: (flags, sha256 of ``repr([(r.identity(), r.detail) for r in
#: reports])``), taken from the log that kept ``ErrorKind`` entries.
#: The repr pins field types as well as values: a ref decoded as a list
#: or holding numpy ints would print differently.
EXPECTED = {
    ("OCEAN", 4, 8000, 1024): {
        "addrcheck": (960,
            "3b1669e83d3ca77188e3cb27fc6408357c5fde2b1bab03220d132a6eff7cd76d"),
        "taintcheck": (0,
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        "race": (960,
            "8cf3a9c57c84d40607c9f198370e004fc214cde129493e3d9ca7dff807e1daa0"),
    },
    ("SECURE-SERVER", 4, 8000, 2048): {
        "addrcheck": (5035,
            "bbdbdf23741b5bc7050e603e0245c737f2ab811d8f00195df6f9070be57ce5b1"),
        "taintcheck": (12,
            "9019483c1195d09fc8a675af3173562bb1e8fc6388750c650b502d079f9b7249"),
        "race": (24,
            "12ea0fe5a42260518cb7e9524cc6a96721e23efec729620c831399ca3810b403"),
    },
    ("HANDOFF", 4, 4096, 512): {
        "addrcheck": (6424,
            "7d146809a2232e2eb366d1fdf0e986081675f230e1fc6d63c9b8d498a17bc515"),
        "taintcheck": (0,
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        "race": (3688,
            "bf7441933b6e1fdc8b1474f1d799bc638cf7fd53c3423094b685db010fa880e7"),
    },
}

CASES = [
    (shape, lifeguard)
    for shape, by_guard in EXPECTED.items()
    for lifeguard in by_guard
]


def _finished_guard(shape, lifeguard):
    bench, threads, events, epoch_size = shape
    program = get_benchmark(bench).generate(threads, events, seed=1)
    guard = make_guard(lifeguard, program.preallocated)
    engine = ButterflyEngine(guard)
    engine.run_source(PartitionSource(partition_auto(program, epoch_size)))
    return guard


def _is_int_pair(value):
    return (
        type(value) is tuple
        and len(value) == 2
        and all(type(v) is int for v in value)
    )


@pytest.mark.parametrize(
    "shape,lifeguard", CASES, ids=[f"{s[0]}-{g}" for s, g in CASES]
)
class TestRowsOverWorkloads:
    def test_rows_are_atomic_and_untracked(self, shape, lifeguard):
        guard = _finished_guard(shape, lifeguard)
        rows = guard.errors.rows
        # The first collection untracks the ref/block pairs, the second
        # the rows that hold them.
        gc.collect()
        gc.collect()
        assert [row for row in rows if gc.is_tracked(row)] == []
        for kind, location, ref, block, detail in rows:
            assert type(kind) is str
            assert type(location) is int
            assert ref is None or _is_int_pair(ref)
            assert block is None or _is_int_pair(block)
            assert type(detail) is str

    def test_reports_match_the_pinned_digests(self, shape, lifeguard):
        reports = _finished_guard(shape, lifeguard).errors.reports
        flags, digest = EXPECTED[shape][lifeguard]
        assert len(reports) == flags
        pinned = repr([(r.identity(), r.detail) for r in reports])
        assert hashlib.sha256(pinned.encode()).hexdigest() == digest

