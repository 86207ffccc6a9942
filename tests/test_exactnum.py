from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pocsets.errors import MalformedInput
from pocsets.exactnum import (
    ExactNumber,
    SQRT3,
    format_exact,
    parse_exact,
    parse_exact_pair,
    sqrt3_floor,
    sqrt3_sign,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def exact(a, b=0):
    return ExactNumber(Fraction(a), Fraction(b))


def test_basic_arithmetic():
    x = exact(1, 1)  # 1 + sqrt3
    y = exact(2, -1)  # 2 - sqrt3
    assert x + y == exact(3, 0)
    assert x * y == exact(-1, 1)  # (1+s)(2-s) = 2 - s + 2s - 3 = -1 + s
    assert x - x == exact(0)
    assert (x / x) == exact(1)
    assert 1 / SQRT3 == ExactNumber(Fraction(0), Fraction(1, 3))


def test_sign_against_float():
    for a_num in range(-6, 7):
        for b_num in range(-6, 7):
            x = exact(Fraction(a_num, 3), Fraction(b_num, 2))
            approx = a_num / 3 + (b_num / 2) * 3**0.5
            if abs(approx) > 1e-9:
                assert x.sign() == (1 if approx > 0 else -1)
            else:
                assert x.sign() == 0


@given(rationals, rationals, rationals, rationals)
def test_order_is_total_and_compatible(a1, b1, a2, b2):
    x, y = ExactNumber(a1, b1), ExactNumber(a2, b2)
    assert (x < y) + (y < x) + (x == y) == 1
    if x < y:
        assert float(x) < float(y) + 1e-9
        assert x + 1 < y + 1
        assert -y < -x


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        exact(1) / exact(0)


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", exact(0)),
        ("-3", exact(-3)),
        ("1/2", exact(Fraction(1, 2))),
        ("√3", exact(0, 1)),
        ("sqrt3", exact(0, 1)),
        ("-√3/2", exact(0, Fraction(-1, 2))),
        ("√3/2", exact(0, Fraction(1, 2))),
        ("2√3", exact(0, 2)),
        ("1+√3", exact(1, 1)),
        ("1/2-3√3/4", exact(Fraction(1, 2), Fraction(-3, 4))),
        ("-1/2+√3", exact(Fraction(-1, 2), 1)),
    ],
)
def test_parse(text, value):
    assert parse_exact(text) == value


@pytest.mark.parametrize("bad", ["", "x", "√5", "1/", "-", "+", "√3/", "1//2"])
def test_parse_rejects(bad):
    with pytest.raises(MalformedInput):
        parse_exact(bad)


@given(rationals, rationals)
def test_format_parse_roundtrip(a, b):
    x = ExactNumber(a, b)
    assert parse_exact(format_exact(x)) == x


def test_parse_pair():
    x, y = parse_exact_pair("-1/2, √3/2")
    assert x == exact(Fraction(-1, 2))
    assert y == exact(0, Fraction(1, 2))


def _assert_brackets(p, q, d):
    # f <= (p + q*sqrt3)/d < f + 1, told by the signs of p - f*d + q*sqrt3
    # and p - (f+1)*d + q*sqrt3 against the sign of d
    f = sqrt3_floor(p, q, d)
    s = 1 if d > 0 else -1
    assert s * sqrt3_sign(p - f * d, q) >= 0
    assert s * sqrt3_sign(p - (f + 1) * d, q) < 0


def test_sqrt3_floor_brackets_small_values():
    for p in range(-12, 13):
        for q in range(-5, 6):
            for d in (-7, -3, -2, -1, 1, 2, 3, 7):
                _assert_brackets(p, q, d)


@pytest.mark.parametrize("digits", [3, 30, 400])
def test_sqrt3_floor_brackets_random_values(digits):
    rng = random.Random(digits)
    top = 10**digits
    for _ in range(300):
        p, q = rng.randrange(-top, top), rng.randrange(-top, top)
        d = rng.choice((-1, 1)) * rng.randrange(1, top)
        _assert_brackets(p, q, d)
        _assert_brackets(p, 0, d)  # the rational case
        _assert_brackets(d * p, 0, d)  # an exact multiple


def test_floor_of_rationals():
    assert exact(7).floor() == 7
    assert exact(-7).floor() == -7
    assert exact(Fraction(7, 2)).floor() == 3
    assert exact(Fraction(-7, 2)).floor() == -4
    assert exact(Fraction(-1, 3)).floor() == -1
    assert exact(0).floor() == 0


def test_floor_of_irrationals():
    assert SQRT3.floor() == 1
    assert (-SQRT3).floor() == -2
    assert exact(Fraction(1, 2), Fraction(-1, 3)).floor() == -1  # 1/2 - 0.577..
    assert exact(2, -1).floor() == 0  # 2 - sqrt3 = 0.267..
    assert exact(0, 10**30).floor() == math.isqrt(3 * 10**60)
    assert exact(0, -(10**30)).floor() == -math.isqrt(3 * 10**60) - 1

