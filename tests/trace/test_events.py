"""Unit tests for the event vocabulary."""

import pytest

from repro.trace.events import Instr, Op


class TestConstructors:
    def test_read(self):
        instr = Instr.read(5)
        assert instr.op is Op.READ
        assert instr.srcs == (5,)
        assert instr.dst is None

    def test_write(self):
        instr = Instr.write(7)
        assert instr.op is Op.WRITE
        assert instr.dst == 7

    def test_malloc_extent(self):
        instr = Instr.malloc(10, 4)
        assert instr.extent == (10, 11, 12, 13)

    def test_free_extent(self):
        instr = Instr.free(3, 2)
        assert instr.extent == (3, 4)

    def test_assign_unop(self):
        instr = Instr.assign(1, 2)
        assert instr.op is Op.ASSIGN
        assert instr.srcs == (2,)
        assert instr.dst == 1

    def test_assign_binop(self):
        instr = Instr.assign(1, 2, 3)
        assert instr.srcs == (2, 3)

    def test_assign_const(self):
        # x := constant is an ASSIGN with no sources (untaints x).
        instr = Instr.assign(1)
        assert instr.srcs == ()

    def test_taint_untaint(self):
        assert Instr.taint(4).dst == 4
        assert Instr.untaint(4).dst == 4

    def test_jump(self):
        instr = Instr.jump(9)
        assert instr.srcs == (9,)

    def test_nop(self):
        instr = Instr.nop()
        assert instr.extent == ()
        assert instr.accessed == ()


class TestValidation:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Instr(Op.MALLOC, dst=0, size=0)

    def test_write_requires_dst(self):
        with pytest.raises(ValueError):
            Instr(Op.WRITE)

    def test_read_requires_one_src(self):
        with pytest.raises(ValueError):
            Instr(Op.READ, srcs=(1, 2))

    def test_assign_max_two_sources(self):
        with pytest.raises(ValueError):
            Instr(Op.ASSIGN, dst=0, srcs=(1, 2, 3))


class TestDerivedViews:
    def test_read_accessed(self):
        assert Instr.read(5).accessed == (5,)

    def test_write_accessed(self):
        assert Instr.write(5).accessed == (5,)

    def test_assign_accesses_sources_and_dst(self):
        assert set(Instr.assign(1, 2, 3).accessed) == {1, 2, 3}

    def test_jump_accesses_target_location(self):
        assert Instr.jump(4).accessed == (4,)

    def test_malloc_is_not_an_access(self):
        # Allocation-state changes are not dereferences.
        assert Instr.malloc(0, 8).accessed == ()

    def test_malloc_locations_cover_extent(self):
        assert Instr.malloc(2, 3).extent == (2, 3, 4)

    def test_extent_of_plain_write_is_dst(self):
        assert Instr.write(5).extent == (5,)

    def test_frozen(self):
        instr = Instr.read(1)
        with pytest.raises(Exception):
            instr.op = Op.WRITE
