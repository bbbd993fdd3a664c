"""Tests for the declarative lifeguard-writer API."""

import pytest

from repro.core.dataflow import Definition
from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyEngine
from repro.core.generic import LifeguardSpec
from repro.core.reaching_defs import ReachingDefinitions
from repro.core.reaching_exprs import ReachingExpressions
from repro.errors import AnalysisError
from repro.lifeguards.reports import ErrorKind, ErrorReport
from repro.trace.events import Instr, Op
from repro.trace.program import TraceProgram


def init_check_spec():
    """Definite-initialization lifeguard: reading a location that is
    not initialized on EVERY valid ordering is an error."""

    def gen_of(instr, iid):
        if instr.op is Op.WRITE and instr.dst is not None:
            return [instr.dst]
        return []

    def kill_vars_of(instr):
        if instr.op is Op.FREE:
            return instr.extent
        return []

    def check(iid, instr, in_set):
        if instr.op is Op.READ and instr.srcs[0] not in in_set:
            yield ErrorReport(
                ErrorKind.ACCESS_UNALLOCATED, instr.srcs[0], ref=iid,
                detail="read of possibly-uninitialized location",
            )

    return LifeguardSpec(
        name="init-check",
        semantics="forall",
        gen_of=gen_of,
        kill_vars_of=kill_vars_of,
        element_vars=lambda e: (e,),
        check=check,
    )


def visible_writes_spec(check=None):
    """Which writes can a read see: a definition reaches if SOME valid
    ordering delivers it (exists semantics)."""

    def ambiguous_read(iid, instr, reaching):
        sites = sorted(d.site for d in reaching if d.var in instr.srcs)
        if instr.op is Op.READ and len(sites) > 1:
            yield ErrorReport(
                ErrorKind.UNSAFE_ISOLATION, instr.srcs[0], ref=iid,
                detail=f"may observe the writes at {sites}",
            )

    return LifeguardSpec(
        name="visible-writes",
        semantics="exists",
        gen_of=lambda instr, iid: (
            [Definition(instr.dst, iid)] if instr.op is Op.WRITE else []
        ),
        kill_vars_of=lambda instr: (
            [instr.dst] if instr.op is Op.WRITE else []
        ),
        element_vars=lambda d: (d.var,),
        check=check or ambiguous_read,
    )


X, Y = 0x40, 0x48

#: Three threads racing on two locations: writes, frees and reads of
#: X and Y with no ordering between the threads.
RACY = TraceProgram.from_lists(
    [Instr.write(X), Instr.read(X), Instr.read(Y), Instr.read(X)],
    [Instr.write(Y), Instr.free(X), Instr.read(X), Instr.write(X)],
    [Instr.read(Y), Instr.write(Y), Instr.free(Y), Instr.read(Y)],
)


def run(spec, program, h):
    guard = spec.build()
    ButterflyEngine(guard).run(partition_fixed(program, h))
    return guard


class TestSpecValidation:
    def test_bad_semantics_rejected(self):
        with pytest.raises(AnalysisError):
            LifeguardSpec(
                name="x", semantics="maybe",
                gen_of=lambda i, d: [], kill_vars_of=lambda i: [],
                element_vars=lambda e: (),
            )

    def test_build_returns_fresh_instances(self):
        spec = init_check_spec()
        assert spec.build() is not spec.build()

    def test_build_returns_the_flavour_itself(self):
        forall = init_check_spec()
        assert type(forall.build()) is ReachingExpressions
        exists = visible_writes_spec()
        assert type(exists.build()) is ReachingDefinitions
        guard = exists.build()
        assert guard.domain is exists and guard.check is exists.check
        assert not guard.keep_history
        assert not guard.parallel_first_pass


class TestForallLifeguard:
    def test_initialized_read_is_clean(self):
        prog = TraceProgram.from_lists(
            [Instr.write(1), Instr.read(1)]
        )
        guard = run(init_check_spec(), prog, 2)
        assert len(guard.errors) == 0

    def test_uninitialized_read_flagged(self):
        prog = TraceProgram.from_lists([Instr.read(1)])
        guard = run(init_check_spec(), prog, 1)
        assert len(guard.errors) == 1

    def test_concurrent_free_defeats_guarantee(self):
        # Thread 0 initializes then reads; thread 1 may concurrently
        # free: the forall semantics cannot promise initialization.
        prog = TraceProgram.from_lists(
            [Instr.write(1), Instr.read(1)],
            [Instr.free(1), Instr.nop()],
        )
        guard = run(init_check_spec(), prog, 2)
        assert len(guard.errors) == 1

    def test_distant_init_survives_via_sos(self):
        prog = TraceProgram.from_lists(
            [Instr.write(1)] + [Instr.nop()] * 6 + [Instr.read(1)]
        )
        guard = run(init_check_spec(), prog, 2)
        assert len(guard.errors) == 0

    def test_sos_exposed(self):
        prog = TraceProgram.from_lists([Instr.write(1), Instr.nop(),
                                        Instr.nop(), Instr.nop()])
        guard = run(init_check_spec(), prog, 1)
        assert 1 in guard.sos.get(guard.sos.frontier)


class TestExistsLifeguard:
    def test_exists_semantics_unions_wings(self):
        # A "dirty data" tracker: writes make a location dirty; a jump
        # on possibly-dirty data is flagged (exists semantics).
        def check(iid, instr, in_set):
            if instr.op is Op.JUMP and any(
                getattr(e, "var", None) == instr.srcs[0] for e in in_set
            ):
                yield ErrorReport(
                    ErrorKind.TAINTED_JUMP, instr.srcs[0], ref=iid
                )

        spec = LifeguardSpec(
            name="dirty",
            semantics="exists",
            gen_of=lambda instr, iid: (
                [Definition(instr.dst, iid)]
                if instr.op is Op.WRITE else []
            ),
            kill_vars_of=lambda instr: (
                [instr.dst] if instr.op is Op.WRITE else []
            ),
            element_vars=lambda e: (e.var,),
            check=check,
        )
        # The dirty write is potentially concurrent with the jump.
        prog = TraceProgram.from_lists(
            [Instr.jump(5)],
            [Instr.write(5)],
        )
        guard = run(spec, prog, 1)
        assert len(guard.errors) == 1

        # Strictly-ordered jump before any write: clean.
        prog2 = TraceProgram.from_lists(
            [Instr.jump(5)] + [Instr.nop()] * 3,
            [Instr.nop()] * 3 + [Instr.write(5)],
        )
        guard2 = run(spec, prog2, 1)
        assert len(guard2.errors) == 0


class TestReportOrder:
    """Reports land in ``errors`` in commit order: epoch by epoch, and
    within an epoch by thread, then instruction -- the order the
    engine's serial second pass visits them in."""

    def test_forall_reports_in_commit_order(self):
        guard = run(init_check_spec(), RACY, 2)
        assert [(r.ref, r.location) for r in guard.errors] == [
            ((0, 0, 1), X), ((0, 2, 0), Y), ((1, 0, 0), Y),
            ((1, 0, 1), X), ((1, 1, 0), X), ((1, 2, 1), Y),
        ]

    def test_exists_reports_in_commit_order(self):
        guard = run(visible_writes_spec(), RACY, 2)
        assert [(r.ref, r.location) for r in guard.errors] == [
            ((0, 0, 1), X), ((1, 0, 0), Y), ((1, 0, 1), X), ((1, 2, 1), Y),
        ]
        assert guard.errors.reports[0].detail == (
            "may observe the writes at [(0, 0, 0), (1, 1, 1)]"
        )

    def test_a_check_that_yields_nothing_flags_nothing(self):
        seen = []

        def silent(iid, instr, in_set):
            seen.append(iid)
            return ()

        guard = run(visible_writes_spec(check=silent), RACY, 2)
        assert len(seen) == 12
        assert len(guard.errors) == 0
