"""Exact half-integer arithmetic for angular momentum quantum numbers.

A ``HalfInt`` stores twice its value as a Python int, so j = 1/2 is
``HalfInt(1)`` and j = 2 is ``HalfInt(4)``.  All comparisons and sums are
exact; nothing here touches floating point until ``float()`` is called.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

_PARSE_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*2)?\s*$")


@dataclass(frozen=True, order=True)
class HalfInt:
    """An integer or half-odd-integer, stored as twice its value."""

    doubled: int

    def __post_init__(self) -> None:
        if isinstance(self.doubled, bool) or not isinstance(self.doubled, numbers.Integral):
            raise DomainError(f"doubled value must be an int, got {self.doubled!r}")
        object.__setattr__(self, "doubled", int(self.doubled))

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def __float__(self) -> float:
        return self.doubled / 2.0

    def __int__(self) -> int:
        if not self.is_integer:
            raise DomainError(f"{self} is not an integer")
        return self.doubled // 2

    def __add__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(self.doubled + halfint(other).doubled)

    __radd__ = __add__

    def __sub__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(self.doubled - halfint(other).doubled)

    def __rsub__(self, other: "HalfInt | int") -> "HalfInt":
        return HalfInt(halfint(other).doubled - self.doubled)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.doubled)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.doubled))

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.doubled})"

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse ``"3"`` as 3 and ``"3/2"`` as 3/2."""
        m = _PARSE_RE.match(text)
        if m is None:
            raise DomainError(f"cannot parse half-integer from {text!r}")
        n = int(m.group(1))
        return cls(n if text.count("/") else 2 * n)


def halfint(x: "HalfInt | int | str") -> HalfInt:
    """Coerce an int, string, or HalfInt to HalfInt."""
    if isinstance(x, HalfInt):
        return x
    if isinstance(x, bool):
        raise DomainError("bool is not a quantum number")
    if isinstance(x, numbers.Integral):
        return HalfInt(2 * int(x))
    if isinstance(x, str):
        return HalfInt.parse(x)
    raise DomainError(f"cannot interpret {x!r} as a half-integer")


def _is_int(x) -> bool:
    """True for an int or numpy integer, as ranks, orders and degrees must be; False for a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def m_range(j: HalfInt) -> list[HalfInt]:
    """Magnetic quantum numbers from +j down to -j in steps of one."""
    if j.doubled < 0:
        raise DomainError(f"j must be non-negative, got {j}")
    return [HalfInt(d) for d in range(j.doubled, -j.doubled - 1, -2)]


def dimension(j: HalfInt) -> int:
    """Dimension 2j + 1 of the spin-j representation."""
    if j.doubled < 0:
        raise DomainError(f"j must be non-negative, got {j}")
    return j.doubled + 1
