"""One isolation check over every form an AddrCheck summary takes.

Both kernels leave a block's ``first_access`` as a
:class:`SortedFirstAccess` -- the columnar kernel as slices of the
sorted arrays its scan computed, the per-``Instr`` kernel converted from
its dict -- a pickle restores either as the same arrays, and the
reference lifeguard keeps plain sets and dicts of its own.  Every form
must answer the isolation check alike: the same hits (so the same
``unsafe-isolation`` flags), the same first-access refs on them, and the
same ``meet``/``iso``/``checks`` counters.  The check runs over the
adversarial families and over an allocation-edge family whose wings
change the body's lowest and highest accessed locations, and locations
below and above all of them, by double frees, frees before mallocs and
reallocations.
"""

import pickle
import random

import numpy as np
import pytest

from repro.core import columnar
from repro.core.columnar import SortedFirstAccess, _sorted_hits
from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyEngine
from repro.lifeguards.addrcheck import AddrSummary, ButterflyAddrCheck
from repro.lifeguards.reports import ErrorKind
from repro.trace.events import Instr
from repro.trace.program import TraceProgram
from repro.verify import AdversarialCaseGenerator
from repro.verify.reference import ReferenceAddrCheck, ReferenceSummary

class RestoredSummaries(ButterflyAddrCheck):
    """Every summary the meet and the isolation check read has been
    through a pickle, as after a checkpoint resume."""

    def commit_scan(self, block, scan):
        return pickle.loads(pickle.dumps(super().commit_scan(block, scan)))


def _forms(prealloc):
    """name -> a fresh guard holding that summary form."""
    return {
        "objects": ButterflyAddrCheck(prealloc, use_columnar_kernel=False),
        "columns": ButterflyAddrCheck(prealloc, use_columnar_kernel=True),
        "restored": RestoredSummaries(prealloc, use_columnar_kernel=True),
        "reference": ReferenceAddrCheck(prealloc),
    }


def _assert_forms_agree(partition, prealloc):
    outcomes = {}
    for name, guard in _forms(prealloc).items():
        ButterflyEngine(guard).run(partition)
        outcomes[name] = (
            [r.identity() for r in guard.errors], guard.block_work
        )
        resident = list(guard.summaries.values())
        if name == "reference":
            assert all(
                type(s) is ReferenceSummary
                and type(s.access) is set
                and type(s.first_access) is dict
                for s in resident
            )
        else:
            assert all(
                type(s.first_access) is SortedFirstAccess
                and s.num_accessed == s.first_access.locs.shape[0]
                for s in resident
            )
    errors, work = outcomes.pop("objects")
    for name, (other_errors, other_work) in outcomes.items():
        assert other_errors == errors, name
        assert other_work == work, name
    return errors


def edge_program(seed):
    """Two to four threads over locations 0..9: accesses stay within
    2..6, allocation-state changes hit 2 and 6 (a body's usual lowest
    and highest accessed location), 0-1 (below every one) and 8-9
    (above), as double frees, frees before mallocs and reallocations."""
    rng = random.Random(seed)
    threads = []
    for _ in range(rng.randint(2, 4)):
        instrs = []
        for _ in range(rng.randint(4, 12)):
            if rng.random() < 0.6:
                access = rng.choice((Instr.read, Instr.write))
                instrs.append(access(rng.randint(2, 6)))
            else:
                loc = rng.choice((0, 1, 2, 6, 8, 9))
                ops = rng.choice((
                    (Instr.free, Instr.free),
                    (Instr.free, Instr.malloc),
                    (Instr.malloc, Instr.free, Instr.malloc),
                ))
                instrs += [op(loc) for op in ops]
        threads.append(instrs)
    prealloc = frozenset(rng.sample(range(10), 5))
    return partition_fixed(
        TraceProgram.from_lists(*threads), rng.randint(2, 5)
    ), prealloc


class TestFormsAgree:
    def test_adversarial_families(self):
        gen = AdversarialCaseGenerator(4)
        cases = [gen.case(i) for i in range(120)]
        cases = [c for c in cases if c.lifeguard == "addrcheck"]
        assert len({c.label for c in cases}) >= 5
        isolation = 0
        for case in cases:
            errors = _assert_forms_agree(case.partition(), case.preallocated)
            isolation += sum(e[0] is ErrorKind.UNSAFE_ISOLATION for e in errors)
        assert isolation > 0

    def test_allocation_edge_family(self):
        flagged = 0
        for seed in range(60):
            errors = _assert_forms_agree(*edge_program(seed))
            flagged += sum(e[0] is ErrorKind.UNSAFE_ISOLATION for e in errors)
        assert flagged > 0

    def test_the_edge_family_probes_every_edge(self, monkeypatch):
        """Not vacuous: the columnar summaries' probes hit the lowest and
        the highest accessed location, and miss below and above them."""
        seen = set()

        def spy(locs, changed):
            hits = _sorted_hits(locs, changed)
            if locs.shape[0]:
                lo, hi = int(locs[0]), int(locs[-1])
                seen.update(name for name, happened in (
                    ("first hit", lo in hits),
                    ("last hit", hi in hits),
                    ("below", min(changed, default=lo) < lo),
                    ("above", max(changed, default=hi) > hi),
                ) if happened)
            return hits

        monkeypatch.setattr(columnar, "_sorted_hits", spy)
        for seed in range(60):
            partition, prealloc = edge_program(seed)
            guard = ButterflyAddrCheck(prealloc, use_columnar_kernel=True)
            ButterflyEngine(guard).run(partition)
        assert seen == {"first hit", "last hit", "below", "above"}


class TestSortedFirstAccess:
    LOCS = [3, 5, 8, 13]
    OFFSETS = [4, 0, 7, 2]

    def _fa(self, locs=LOCS, offsets=OFFSETS):
        return SortedFirstAccess(
            np.array(locs, dtype=np.int64), np.array(offsets, dtype=np.int64)
        )

    @pytest.mark.parametrize("changed", [
        set(), {1}, {99}, {3}, {13}, {3, 13}, {4, 12}, {1, 3, 6, 13, 14},
        {-(2 ** 62), 2 ** 62}, set(range(0, 20)),
    ])
    def test_the_probe_is_the_key_intersection(self, changed):
        fa = self._fa()
        expect = set(self.LOCS) & changed
        assert fa.hits(changed) == expect
        assert all(type(x) is int for x in fa.hits(changed))
        # An array probe, repeats and all, hits the same locations.
        probe = np.array(sorted(changed) * 2, dtype=np.int64)
        assert fa.hits(probe) == expect

    def test_no_locations(self):
        fa = self._fa([], [])
        assert fa.hits({1, 2}) == set()
        assert 1 not in fa
        assert fa.first_offsets([]) == []

    def test_either_kernels_summary_round_trips(self):
        want = dict(zip(self.LOCS, self.OFFSETS))
        for fa in (self._fa(), SortedFirstAccess.from_dict(want)):
            summary = AddrSummary(
                facts=None, first_change={}, first_access=fa,
                num_accessed=len(self.LOCS),
            )
            restored = pickle.loads(pickle.dumps(summary))
            assert restored == summary
            assert type(restored.first_access) is SortedFirstAccess
            assert restored.first_access.locs.tolist() == self.LOCS
            offsets = restored.first_access.first_offsets(self.LOCS)
            assert offsets == self.OFFSETS
            assert all(type(x) is int for x in offsets)
            assert fa.first_offsets([13, 3]) == [2, 4]
            assert all(loc in fa for loc in self.LOCS)
            assert not any(loc in fa for loc in (0, 4, 14, -(2 ** 62)))
