"""Exact arithmetic in the field of numbers a + b*sqrt(3) with rational a, b.

Covers every shipped wall normal (multiples of 30 degrees).  A number is
held as integers (p + q*sqrt(3))/d in lowest terms, so each operation is a
few integer products and one gcd, and comparisons are decided by integer
sign computations: no floating point ever enters a geometric predicate.
"""

from __future__ import annotations

import re
from math import gcd, isqrt, lcm
from numbers import Rational
from typing import Sequence, Union

from .errors import MalformedInput

Rationalish = Union[Rational, "ExactNumber"]


def sqrt3_sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt(3) for integers a, b, decided via a^2 vs 3b^2."""
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


class ExactNumber:
    """(p + q*sqrt(3))/d as ints in lowest terms (d > 0, gcd(p, q, d) = 1),
    so zero is (0, 0, 1) and equal numbers have equal triples.  Built from
    rationals a and b as a + b*sqrt(3).  The triple is the hash, so only
    `_reduced` sets it and nothing changes it afterwards."""

    __slots__ = ("p", "q", "d")

    def __new__(cls, a: Rational, b: Rational = 0):
        if not isinstance(a, Rational) or not isinstance(b, Rational):
            raise TypeError(f"ExactNumber needs rational parts, got {a!r}, {b!r}")
        m, n, r, s = a.numerator, a.denominator, b.numerator, b.denominator
        return _reduced(m * s, r * n, n * s)

    # ------------------------------------------------------------------
    @staticmethod
    def of(value: Rationalish) -> "ExactNumber":
        if type(value) is ExactNumber:
            return value
        if type(value) is int:
            return _reduced(value, 0, 1)
        return ExactNumber(value)

    def __add__(self, other: Rationalish) -> "ExactNumber":
        return _reduced(*_sum(self, ExactNumber.of(other), 1))

    __radd__ = __add__

    def __neg__(self) -> "ExactNumber":
        return _reduced(-self.p, -self.q, self.d)

    def __sub__(self, other: Rationalish) -> "ExactNumber":
        return _reduced(*_sum(self, ExactNumber.of(other), -1))

    def __rsub__(self, other: Rationalish) -> "ExactNumber":
        return ExactNumber.of(other) - self

    def __mul__(self, other: Rationalish) -> "ExactNumber":
        o = ExactNumber.of(other)
        p, q, r, s = self.p, self.q, o.p, o.q
        return _reduced(p * r + 3 * q * s, p * s + q * r, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "ExactNumber":
        o = ExactNumber.of(other)
        # 1/((r+s*sqrt3)/e) = e*(r-s*sqrt3)/(r^2-3s^2); sqrt3 is irrational,
        # so the norm vanishes only at zero
        r, s, e = o.p, o.q, o.d
        norm = r * r - 3 * s * s
        if norm == 0:
            raise ZeroDivisionError("division by zero ExactNumber")
        if norm < 0:
            r, s, norm = -r, -s, -norm
        p, q = self.p, self.q
        return _reduced((p * r - 3 * q * s) * e, (q * r - p * s) * e, self.d * norm)

    def __rtruediv__(self, other: Rationalish) -> "ExactNumber":
        return ExactNumber.of(other) / self

    # ------------------------------------------------------------------
    def sign(self) -> int:
        """Sign of (p + q*sqrt(3))/d, which is that of p + q*sqrt(3)."""
        return sqrt3_sign(self.p, self.q)

    def floor(self) -> int:
        """The greatest integer <= (p + q*sqrt(3))/d."""
        return sqrt3_floor(self.p, self.q, self.d)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if type(other) is not ExactNumber:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.d))

    def _cmp(self, other: Rationalish) -> int:
        p, q, _ = _sum(self, ExactNumber.of(other), -1)
        return sqrt3_sign(p, q)  # the denominator is positive

    def __lt__(self, other: Rationalish) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Rationalish) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Rationalish) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Rationalish) -> bool:
        return self._cmp(other) >= 0

    def __abs__(self) -> "ExactNumber":
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        # both quotients of ints, so each is correctly rounded
        return self.p / self.d + (self.q / self.d) * 3**0.5

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return format_exact(self)

    def __repr__(self) -> str:
        return f"ExactNumber({format_exact(self)!r})"


def _reduced(p: int, q: int, d: int) -> ExactNumber:
    """(p + q*sqrt(3))/d for d > 0, divided through by gcd(p, q, d)."""
    x, g = object.__new__(ExactNumber), gcd(p, q, d)
    x.p, x.q, x.d = p // g, q // g, d // g
    return x


def _sum(x: ExactNumber, y: ExactNumber, sign: int) -> tuple[int, int, int]:
    """x + sign*y as (p, q, d), over d = x.d * y.d and not yet reduced."""
    d, e = x.d, y.d
    return x.p * e + sign * y.p * d, x.q * e + sign * y.q * d, d * e


ZERO = ExactNumber(0)
ONE = ExactNumber(1)


def integer_pairs(xs: Sequence[ExactNumber]) -> list[tuple[int, int]]:
    """The numbers times one positive integer, the least common multiple of
    their denominators, as pairs (a, b) meaning a + b*sqrt(3)."""
    scale = lcm(*(x.d for x in xs))
    return [(x.p * (scale // x.d), x.q * (scale // x.d)) for x in xs]


def _format_ratio(n: int, d: int) -> str:
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def format_exact(x: ExactNumber) -> str:
    """Canonical literal: "a", "b√3" or "a+b√3" (minus signs folded in)."""
    if x.q == 0:
        return _format_ratio(x.p, x.d)
    g = gcd(x.q, x.d)
    num, den = x.q // g, x.d // g  # b = num/den in lowest terms, den > 0
    if den == 1:
        root = "√3" if num == 1 else "-√3" if num == -1 else f"{num}√3"
    else:
        head = "" if abs(num) == 1 else str(abs(num))
        root = f"{'-' if num < 0 else ''}{head}√3/{den}"
    if x.p == 0:
        return root
    joiner = "" if root.startswith("-") else "+"
    return _format_ratio(x.p, x.d) + joiner + root


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
        if coef_text in (None, "+", "-"):  # a bare √3 term
            coef_text = (coef_text or "") + "1"
        num_text, _, den_text = coef_text.partition("/")
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            num, den = int(num_text), int(den_text or 1) * int(m.group("den") or 1)
        except ValueError:
            raise MalformedInput("too many digits in an exact-number literal", text) from None
        if den == 0:
            raise MalformedInput(f"zero denominator in exact-number term {term!r}", text)
        total = total + (_reduced(0, num, den) if m.group("root") else _reduced(num, 0, den))
    return total


def parse_exact_pair(text: str) -> tuple[ExactNumber, ExactNumber]:
    parts = text.split(",")
    if len(parts) != 2:
        raise MalformedInput(f"expected 'x,y', got {text!r}", text)
    return parse_exact(parts[0]), parse_exact(parts[1])
