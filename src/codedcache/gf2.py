"""Incremental GF(2) linear algebra on int bitsets."""

from __future__ import annotations


class GF2Basis:
    """Row basis over GF(2) with combination tracking.

    Vectors are Python ints (bit ``c`` = coordinate ``c``).  Every basis
    row remembers which inserted rows it is a sum of, so :meth:`solve` can
    return a decoding certificate.
    """

    __slots__ = ("pivots", "combos")

    def __init__(self) -> None:
        self.pivots: dict[int, int] = {}
        self.combos: dict[int, int] = {}

    def copy(self) -> "GF2Basis":
        other = GF2Basis()
        other.pivots = dict(self.pivots)
        other.combos = dict(self.combos)
        return other

    def reduce(self, vec: int, combo: int = 0) -> tuple[int, int]:
        """Reduce `vec` against the basis; return (residual, combination)."""
        while vec:
            top = vec.bit_length() - 1
            row = self.pivots.get(top)
            if row is None:
                break
            vec ^= row
            combo ^= self.combos[top]
        return vec, combo

    def add(self, vec: int, tag: int | None = None) -> bool:
        """Insert `vec`; return True if it enlarged the span."""
        combo = 0 if tag is None else 1 << tag
        vec, combo = self.reduce(vec, combo)
        if not vec:
            return False
        top = vec.bit_length() - 1
        self.pivots[top] = vec
        self.combos[top] = combo
        return True

    def contains(self, vec: int) -> bool:
        return self.reduce(vec)[0] == 0

    def solve(self, vec: int) -> int | None:
        """Combination of inserted rows summing to `vec`, or None."""
        residual, combo = self.reduce(vec)
        if residual:
            return None
        return combo

    @property
    def rank(self) -> int:
        return len(self.pivots)
