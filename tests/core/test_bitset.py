"""Unit tests for the interned-bitset summary representation."""

import random

from repro.core.bitset import (
    BitInterner,
    _compose_mask,
    popcount,
)


class TestPopcount:
    def test_small_values(self):
        assert popcount(0) == 0
        assert popcount(1) == 1
        assert popcount(0b1011) == 3

    def test_huge_mask(self):
        mask = (1 << 1000) | (1 << 63) | 1
        assert popcount(mask) == 3


class TestBitInterner:
    def test_bit_positions_are_stable(self):
        bits = BitInterner()
        assert bits.bit("a") == 0
        assert bits.bit("b") == 1
        assert bits.bit("a") == 0
        assert len(bits) == 2

    def test_mask_decode_round_trip(self):
        bits = BitInterner()
        elements = {30, 10, 20}
        mask = bits.mask(elements)
        assert set(bits.decode(mask)) == elements
        assert popcount(mask) == 3

    def test_fresh_elements_interned_sorted(self):
        """Bit assignment must not depend on set iteration order."""
        a, b = BitInterner(), BitInterner()
        a.mask({5, 3, 9, 1})
        b.mask(frozenset([9, 1, 5, 3]))
        assert [a.bit(e) for e in (1, 3, 5, 9)] == [
            b.bit(e) for e in (1, 3, 5, 9)
        ]
        assert a.bit(1) == 0 and a.bit(9) == 3

    def test_mask_sort_key(self):
        bits = BitInterner()
        bits.mask({("y", 2), ("x", 9), ("x", 1)}, sort_key=lambda e: e[1])
        assert bits.bit(("x", 1)) == 0
        assert bits.bit(("y", 2)) == 1
        assert bits.bit(("x", 9)) == 2

    def test_decode_ascending_bit_order(self):
        bits = BitInterner()
        for e in ["c", "a", "b"]:
            bits.bit(e)
        mask = bits.mask(["a", "b", "c"])
        assert bits.decode(mask) == ["c", "a", "b"]  # interning order

    def test_union_via_or(self):
        bits = BitInterner()
        left = bits.mask({1, 2})
        right = bits.mask({2, 3})
        assert set(bits.decode(left | right)) == {1, 2, 3}
        assert set(bits.decode(left & right)) == {2}

    def test_contains(self):
        bits = BitInterner()
        mask = bits.mask({"x"})
        assert bits.contains(mask, "x")
        assert not bits.contains(mask, "y")
        assert not bits.contains(0, "x")

    def test_matches_set_semantics_randomized(self):
        rng = random.Random(11)
        bits = BitInterner()
        universe = list(range(64))
        for _ in range(50):
            s1 = set(rng.sample(universe, rng.randrange(12)))
            s2 = set(rng.sample(universe, rng.randrange(12)))
            m1, m2 = bits.mask(s1), bits.mask(s2)
            assert set(bits.decode(m1 | m2)) == s1 | s2
            assert set(bits.decode(m1 & m2)) == s1 & s2
            assert popcount(m1) == len(s1)

    def test_wide_masks_cross_vector_threshold(self):
        """Masks past the vector threshold (>= 64 bits) must behave
        exactly like narrow ones: ``mask``/``decode`` take the numpy
        fast path there when available."""
        bits = BitInterner()
        elements = set(range(0, 2000, 7))
        mask = bits.mask(elements)
        assert popcount(mask) == len(elements)
        decoded = bits.decode(mask)
        assert set(decoded) == elements
        # Ascending bit order == interning order (sorted fresh intern).
        assert decoded == sorted(elements)


class TestComposeMask:
    def test_matches_shift_or(self):
        rng = random.Random(5)
        for size in (0, 1, 63, 64, 65, 300):
            positions = list({rng.randrange(2048) for _ in range(size)})
            expected = 0
            for p in positions:
                expected |= 1 << p
            assert _compose_mask(positions) == expected

    def test_duplicate_positions(self):
        assert _compose_mask([3, 3, 3]) == 0b1000
