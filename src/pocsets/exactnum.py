"""Exact arithmetic in the field of numbers a + b*sqrt(3) with rational a, b.

Covers every shipped wall normal (multiples of 30 degrees); comparisons are
decided by rational sign computations, so no floating point ever enters a
geometric predicate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import MalformedInput

Rationalish = Union[int, Fraction, "ExactNumber"]


def sqrt3_sign(a: Union[int, Fraction], b: Union[int, Fraction]) -> int:
    """Sign of a + b*sqrt(3) for rational a, b, decided via a^2 vs 3b^2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare |a| with |b|*sqrt3 through squares
    lead = 1 if a > 0 else -1  # sign if the rational part dominates
    return lead if a * a > 3 * b * b else -lead


def sqrt3_floor(p: int, q: int, d: int) -> int:
    """floor((p + q*sqrt(3))/d) for integers with d != 0: q*sqrt(3) is
    irrational unless q = 0, and a fraction f < 1 leaves (N + f) // d = N // d."""
    if d < 0:
        p, q, d = -p, -q, -d
    root = isqrt(3 * q * q)
    return (p + (root if q >= 0 else -root - 1)) // d


@dataclass(frozen=True)
class ExactNumber:
    a: Fraction
    b: Fraction = Fraction(0)

    # ------------------------------------------------------------------
    @staticmethod
    def of(value: Rationalish) -> "ExactNumber":
        if isinstance(value, ExactNumber):
            return value
        return ExactNumber(Fraction(value))

    def __add__(self, other: Rationalish) -> "ExactNumber":
        o = ExactNumber.of(other)
        return ExactNumber(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "ExactNumber":
        return ExactNumber(-self.a, -self.b)

    def __sub__(self, other: Rationalish) -> "ExactNumber":
        return self + (-ExactNumber.of(other))

    def __rsub__(self, other: Rationalish) -> "ExactNumber":
        return ExactNumber.of(other) + (-self)

    def __mul__(self, other: Rationalish) -> "ExactNumber":
        o = ExactNumber.of(other)
        return ExactNumber(
            self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "ExactNumber":
        o = ExactNumber.of(other)
        # 1/(a+b*sqrt3) = (a-b*sqrt3)/(a^2-3b^2); sqrt3 is irrational, so the
        # denominator vanishes only at zero
        norm = o.a * o.a - 3 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero ExactNumber")
        return self * ExactNumber(o.a / norm, -o.b / norm)

    def __rtruediv__(self, other: Rationalish) -> "ExactNumber":
        return ExactNumber.of(other) / self

    # ------------------------------------------------------------------
    def sign(self) -> int:
        """Sign of a + b*sqrt(3)."""
        return sqrt3_sign(self.a, self.b)

    def floor(self) -> int:
        """The greatest integer <= a + b*sqrt(3)."""
        (p, d), (q, e) = self.a.as_integer_ratio(), self.b.as_integer_ratio()
        return sqrt3_floor(p * e, q * d, d * e)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __lt__(self, other: Rationalish) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: Rationalish) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: Rationalish) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: Rationalish) -> bool:
        return (self - other).sign() >= 0

    def __abs__(self) -> "ExactNumber":
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 3**0.5

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return format_exact(self)

    def __repr__(self) -> str:
        return f"ExactNumber({format_exact(self)!r})"


ZERO = ExactNumber(Fraction(0))
ONE = ExactNumber(Fraction(1))
SQRT3 = ExactNumber(Fraction(0), Fraction(1))


def _format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_exact(x: ExactNumber) -> str:
    """Canonical literal: "a", "b√3" or "a+b√3" (minus signs folded in)."""
    if x.b == 0:
        return _format_fraction(x.a)
    if x.b == 1:
        root = "√3"
    elif x.b == -1:
        root = "-√3"
    elif x.b.denominator == 1:
        root = f"{x.b.numerator}√3"
    else:
        sign = "-" if x.b < 0 else ""
        mag = abs(x.b)
        head = "" if mag.numerator == 1 else str(mag.numerator)
        root = f"{sign}{head}√3/{mag.denominator}"
    if x.a == 0:
        return root
    joiner = "" if root.startswith("-") else "+"
    return _format_fraction(x.a) + joiner + root


_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?\d+(?:/\d+)?|[+-])?(?P<root>√3|sqrt3)?(?:/(?P<den>\d+))?$"
)


def parse_exact(text: str) -> ExactNumber:
    """Parse literals like "1/2", "-3", "√3", "-√3/2", "1+√3", "1/2-3√3/4".

    ASCII "sqrt3" is accepted alongside "√3".
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise MalformedInput("empty exact-number literal", text)
    # split into signed terms
    terms = []
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > start:
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    total = ZERO
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("root") is None):
            raise MalformedInput(f"bad exact-number term {term!r}", text)
        if m.group("root") is None and (
            m.group("den") is not None or m.group("coef") in ("+", "-")
        ):
            raise MalformedInput(f"bad exact-number term {term!r}", text)
        coef_text = m.group("coef")
        if coef_text in (None, "+", "-"):
            coef = Fraction((coef_text or "") + "1")
        else:
            coef = Fraction(coef_text)
        if m.group("den"):
            coef /= Fraction(m.group("den"))
        total = total + (ExactNumber(Fraction(0), coef) if m.group("root") else ExactNumber(coef))
    return total


def parse_exact_pair(text: str) -> tuple[ExactNumber, ExactNumber]:
    parts = text.split(",")
    if len(parts) != 2:
        raise MalformedInput(f"expected 'x,y', got {text!r}", text)
    return parse_exact(parts[0]), parse_exact(parts[1])
