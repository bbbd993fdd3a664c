"""Interned bitset summaries.

Butterfly meets are unions over wing summaries, and the element
universes the lifeguards actually see in one run are small (locations
touched, dynamic definition sites inside the window).  Interning each
element to a stable bit position turns those unions into single bitwise
ORs over Python ``int`` values -- C-speed word operations instead of a
Python-level loop per element -- while the interner keeps an exact,
loss-free mapping back to the original elements.

Determinism: bit positions are assigned in *commit order* -- summaries
are only interned on the engine's serial commit path, and new elements
within one summary are interned in sorted order -- so two runs over the
same trace assign identical positions regardless of execution backend.

Masks are plain Python ``int`` values at the API surface (arbitrary
width, hashable, picklable); when numpy is available the expensive
spots -- composing a mask from many bit positions and decoding a wide
mask back to elements -- run as word-wise kernels over the mask's
little-endian byte form instead of repeated big-int shifts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.columnar import HAVE_NUMPY, np

try:  # Python >= 3.10
    _popcount = int.bit_count

    def popcount(mask: int) -> int:
        """Number of set bits (``len`` of the encoded set)."""
        return _popcount(mask)

except AttributeError:  # pragma: no cover - Python 3.9 fallback

    def popcount(mask: int) -> int:
        """Number of set bits (``len`` of the encoded set)."""
        return bin(mask).count("1")


#: Below this many set bits the classic shift loop beats buffer setup.
_VECTOR_MIN_BITS = 64


def compose_mask(bits: List[int]) -> int:
    """OR together ``1 << b`` for every position in ``bits``.

    The naive loop is quadratic in mask width: each ``out |= 1 << b``
    copies the whole big int.  The vector path scatters the positions
    into a byte buffer (one pass, duplicates folded by ``bitwise_or``)
    and converts once.
    """
    if HAVE_NUMPY and len(bits) >= _VECTOR_MIN_BITS:
        pos = np.array(bits, dtype=np.int64)
        buf = np.zeros((int(pos.max()) >> 3) + 1, dtype=np.uint8)
        np.bitwise_or.at(buf, pos >> 3, np.left_shift(1, pos & 7).astype(np.uint8))
        return int.from_bytes(buf.tobytes(), "little")
    out = 0
    for b in bits:
        out |= 1 << b
    return out


class BitInterner:
    """Bijection between hashable elements and bit positions.

    One interner is owned by one analysis instance; masks produced by
    different interners are not comparable.
    """

    __slots__ = ("_bit_of", "_elements")

    def __init__(self) -> None:
        self._bit_of: Dict[Any, int] = {}
        self._elements: List[Any] = []

    def __len__(self) -> int:
        return len(self._elements)

    def bit(self, element: Any) -> int:
        """The bit position of ``element``, assigning one if new."""
        b = self._bit_of.get(element)
        if b is None:
            b = len(self._elements)
            self._bit_of[element] = b
            self._elements.append(element)
        return b

    def mask(
        self,
        elements: Iterable[Any],
        sort_key: Optional[Callable[[Any], Any]] = None,
    ) -> int:
        """Encode ``elements`` as a bitset.

        Unseen elements are interned in sorted order so that bit
        assignment is independent of the (hash-based) iteration order
        of the input set.
        """
        bit_of = self._bit_of
        bits: List[int] = []
        fresh: List[Any] = []
        for e in elements:
            b = bit_of.get(e)
            if b is None:
                fresh.append(e)
            else:
                bits.append(b)
        if fresh:
            fresh.sort(key=sort_key)
            for e in fresh:
                bits.append(self.bit(e))
        return compose_mask(bits)

    def decode(self, mask: int) -> List[Any]:
        """The elements of ``mask``, in ascending bit order."""
        elements = self._elements
        if HAVE_NUMPY and mask.bit_length() >= _VECTOR_MIN_BITS:
            raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
            buf = np.frombuffer(raw, dtype=np.uint8)
            positions = np.flatnonzero(
                np.unpackbits(buf, bitorder="little")
            ).tolist()
            return [elements[b] for b in positions]
        out: List[Any] = []
        while mask:
            low = mask & -mask
            out.append(elements[low.bit_length() - 1])
            mask ^= low
        return out

    def contains(self, mask: int, element: Any) -> bool:
        """Whether ``element`` is encoded in ``mask``."""
        b = self._bit_of.get(element)
        return b is not None and bool(mask >> b & 1)


#: Backwards-compatible alias (pre-public name).
_compose_mask = compose_mask
