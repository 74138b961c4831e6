"""Exact half-integer spin labels.

Angular momentum labels (j, l, s, components) are stored as twice their
value in an integer, so arithmetic and comparisons are exact. ``HalfInt(3)``
is 3/2; use ``HalfInt.of(1.5)`` to construct from a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral


@dataclass(frozen=True)
class HalfInt:
    """A half-integer stored as twice its value."""

    twice: int

    def __post_init__(self):
        # a plain int first: the Integral ABC check is slow on every construction
        if type(self.twice) is int:
            return
        if not isinstance(self.twice, Integral):
            raise TypeError("twice must be an integer; use HalfInt.of for values")
        object.__setattr__(self, "twice", int(self.twice))

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Coerce an int, float, Fraction or HalfInt to a HalfInt.

        The value must be a half-integer exactly; nothing is rounded, and
        NaN or an infinity is not one (ValueError).
        """
        if isinstance(value, HalfInt):
            return value
        if type(value) is int or isinstance(value, Integral):
            return cls(2 * int(value))
        try:
            doubled = Fraction(value) * 2
        except (OverflowError, ValueError):  # NaN, an infinity, text Fraction cannot read
            doubled = None
        if doubled is None or doubled.denominator != 1:
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(int(doubled))

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __int__(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __bool__(self) -> bool:
        return self.twice != 0

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other) -> "HalfInt":
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def _cmp_key(self, other):
        try:
            return HalfInt.of(other).twice
        except (ValueError, TypeError):
            return None

    def __eq__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.twice == key

    def __lt__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.twice < key

    def __le__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.twice <= key

    def __gt__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.twice > key

    def __ge__(self, other):
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.twice >= key

    def __hash__(self):
        # consistent with floats/ints for mixed-key dict use
        return hash(self.twice / 2.0)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt.of({self})"


def hrange(lo, hi) -> list[HalfInt]:
    """Inclusive list from lo to hi in unit steps."""
    lo, hi = HalfInt.of(lo), HalfInt.of(hi)
    return [HalfInt(t) for t in range(lo.twice, hi.twice + 1, 2)]


def components(j) -> list[HalfInt]:
    """Component labels of a spin-j multiplet, descending from +j to -j."""
    j = HalfInt.of(j)
    return [HalfInt(t) for t in range(j.twice, -j.twice - 1, -2)]


def component_index(j, m) -> int:
    """Row index of component m in the descending +j..-j ordering."""
    j, m = HalfInt.of(j), HalfInt.of(m)
    if not compatible(j, m):
        raise ValueError(f"component {m} invalid for j={j}")
    return (j.twice - m.twice) // 2


def compatible(j, m) -> bool:
    """True when m is a valid component label of a spin-j multiplet."""
    j, m = HalfInt.of(j), HalfInt.of(m)
    return (j.twice - m.twice) % 2 == 0 and abs(m.twice) <= j.twice


def triangle_rule(j1, j2, j3) -> bool:
    """True when (j1, j2, j3) can couple (inclusive triangle inequality)."""
    a, b, c = HalfInt.of(j1).twice, HalfInt.of(j2).twice, HalfInt.of(j3).twice
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0
