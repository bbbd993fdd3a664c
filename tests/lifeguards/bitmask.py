"""A pure-Python bit interner: the masks the set code's references use."""


class BitInterner:
    """Elements <-> bit positions; a mask is a plain ``int``."""

    def __init__(self):
        self._bit_of, self._elements = {}, []

    def mask(self, elements):
        out = 0
        for e in elements:
            if e not in self._bit_of:
                self._bit_of[e] = len(self._elements)
                self._elements.append(e)
            out |= 1 << self._bit_of[e]
        return out

    def decode(self, mask):
        return [e for b, e in enumerate(self._elements) if mask >> b & 1]
