from __future__ import annotations

import importlib
import math
import operator
import pkgutil
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import pocsets
from pocsets.chains import ChainHalfspace
from pocsets.core import Record
from pocsets.errors import MalformedInput
from pocsets.euclid import WallFamily
from pocsets.exactnum import (
    ExactNumber,
    format_exact,
    parse_exact,
    parse_exact_pair,
    sqrt3_floor,
    sqrt3_sign,
)

SQRT3 = ExactNumber(0, 1)

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


@pytest.mark.parametrize(
    "bad", ["", "x", "√5", "1/", "-", "+", "√3/", "1//2", "1/0", "√3/0", "1+2√3/0", "0/0"]
)
def test_parse_rejects(bad):
    with pytest.raises(MalformedInput) as info:
        parse_exact(bad)
    assert info.value.witness == bad


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



# ---------------------------------------------------------------------------
# differential test against the Fraction-pair formulas


@dataclass(frozen=True)
class FractionPair:
    """a + b*sqrt(3) as two Fractions: the formulas ExactNumber used before
    it held integer triples, kept as a reference."""

    a: Fraction
    b: Fraction = Fraction(0)

    @staticmethod
    def of(value):
        return value if isinstance(value, FractionPair) else FractionPair(Fraction(value))

    def __add__(self, other):
        o = FractionPair.of(other)
        return FractionPair(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return FractionPair(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-FractionPair.of(other))

    def __rsub__(self, other):
        return FractionPair.of(other) + (-self)

    def __mul__(self, other):
        o = FractionPair.of(other)
        return FractionPair(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = FractionPair.of(other)
        norm = o.a * o.a - 3 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero FractionPair")
        return self * FractionPair(o.a / norm, -o.b / norm)

    def __rtruediv__(self, other):
        return FractionPair.of(other) / self

    def sign(self):
        return sqrt3_sign(self.a, self.b)

    def floor(self):
        (p, d), (q, e) = self.a.as_integer_ratio(), self.b.as_integer_ratio()
        return sqrt3_floor(p * e, q * d, d * e)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * 3**0.5

    def __str__(self):
        def fraction(q):
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

        if self.b == 0:
            return fraction(self.a)
        if self.b == 1:
            root = "√3"
        elif self.b == -1:
            root = "-√3"
        elif self.b.denominator == 1:
            root = f"{self.b.numerator}√3"
        else:
            mag = abs(self.b)
            head = "" if mag.numerator == 1 else str(mag.numerator)
            root = f"{'-' if self.b < 0 else ''}{head}√3/{mag.denominator}"
        if self.a == 0:
            return root
        return fraction(self.a) + ("" if root.startswith("-") else "+") + root


wide = st.integers(min_value=-(10**30), max_value=10**30)
coefficients = st.one_of(
    st.integers(-3, 3).map(Fraction),
    rationals,
    st.builds(Fraction, wide, st.integers(min_value=1, max_value=10**30)),
)
# (ExactNumber, FractionPair) of one value
numbers = st.builds(
    lambda a, b: (ExactNumber(a, b), FractionPair(a, b)), coefficients, coefficients
)
# a right operand: the same pair, or a plain int or Fraction for both sides
plain = st.one_of(st.integers(-6, 6), wide, rationals, coefficients)
operands = numbers | plain.map(lambda v: (v, v))


def assert_canonical(x: ExactNumber) -> None:
    assert all(type(v) is int for v in (x.p, x.q, x.d))
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    if x.p == x.q == 0:
        assert (x.p, x.q, x.d) == (0, 0, 1)


def assert_agrees(x: ExactNumber, ref: FractionPair) -> None:
    assert_canonical(x)
    assert (Fraction(x.p, x.d), Fraction(x.q, x.d)) == (ref.a, ref.b)
    assert x.sign() == ref.sign() and x.floor() == ref.floor()
    assert float(x) == float(ref)
    assert format_exact(x) == str(ref)


ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]


@given(numbers, operands, st.sampled_from(ARITHMETIC), st.booleans())
def test_arithmetic_agrees_with_fraction_pairs(x, y, op, swap):
    (x, rx), (y, ry) = x, y
    if swap:  # a plain left operand goes through the reflected method
        x, y, rx, ry = y, x, ry, rx
    try:
        expect = op(rx, ry)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    assert_agrees(op(x, y), expect)


@given(numbers, operands)
def test_unary_and_comparisons_agree_with_fraction_pairs(x, y):
    (x, rx), (y, ry) = x, y
    assert_agrees(x, rx)
    assert_agrees(-x, -rx)
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(x, y) == op(rx, ry)
        assert op(y, x) == op(ry, rx)


@given(numbers, numbers)
def test_equal_values_hash_equal(x, y):
    (x, _), (y, _) = x, y
    routes = [
        (x + y) - y,
        ExactNumber(Fraction(x.p, x.d), Fraction(x.q, x.d)),
        -(-x),
        1 * x + 0,
        parse_exact(format_exact(x)),
    ]
    if y:
        routes += [x * y / y, (x / y) * y]
    for other in routes:
        assert other == x and hash(other) == hash(x)
    # wall families and models are records hashed through their normals
    if x or y:
        first = WallFamily((x, y))
        second = WallFamily(((x + y) - y, y * 2 / 2), Fraction(2, 2))
        assert first == second and hash(first) == hash(second)


def test_rational_spacings_build_equal_families():
    # ints and Fractions, as the benchmark passes them, become the same
    # ExactNumber fields as ExactNumber arguments
    normal = (exact(1), exact(0, 1))
    families = [
        WallFamily(normal, 2, -1),
        WallFamily(normal, Fraction(4, 2), Fraction(-1)),
        WallFamily(normal, exact(2), exact(-1)),
    ]
    assert len(set(families)) == 1 and len({hash(f) for f in families}) == 1
    for f in families:
        assert type(f.spacing) is ExactNumber and type(f.offset) is ExactNumber
    assert WallFamily(normal) == WallFamily(normal, 1, 0)
    assert WallFamily(normal, Fraction(1, 2)) != WallFamily(normal)


def _record_cases():
    """(class, factory of field values, one other value per field) for each
    record type the package or its tests compare or hash; every
    `pocsets.core.Record` subclass must have one."""
    from pocsets.chains import PLUS_END, ChainFamily, ChainHalfspace, ChainUltrafilter, Signature
    from pocsets.core import Ultrafilter
    from pocsets.cubing import Cube
    from pocsets.euclid import ArcFiber, ImageEntry, ImageReport, PointFiber, WallModel
    from pocsets.shadows import (
        ClassRow,
        DualShadow,
        MinClassification,
        RayReport,
        RayStep,
        SurjectivityReport,
    )

    vec = lambda a, b: (exact(a), exact(b))
    fam = lambda *names: ChainFamily(tuple(names))
    s = lambda *ends: Signature(tuple(ends))
    h = ChainHalfspace
    return [
        (Ultrafilter, lambda: ((0, 1),), ((1, 1),)),
        (Cube, lambda: (0, (0, 1)), (1, (0, 2))),
        (ChainFamily, lambda: (("a", "b"),), (("a", "c"),)),
        (ChainHalfspace, lambda: (0, 2, False), (1, 3, True)),
        (ChainUltrafilter, lambda: ((0, PLUS_END, -1),), ((0, -PLUS_END, -1),)),
        (Signature, lambda: ((0, 1, -1),), ((0, 1, 1),)),
        (
            WallFamily,
            lambda: (vec(1, 0), exact(2), exact(Fraction(1, 2))),
            (vec(0, 1), exact(3), exact(0)),
        ),
        (
            WallModel,
            lambda: (fam("a", "b"), (WallFamily(vec(1, 0)), WallFamily(vec(0, 1)))),
            (fam("a", "c"), (WallFamily(vec(1, 0)), WallFamily(vec(1, 1)))),
        ),
        (PointFiber, lambda: (vec(1, 0),), (vec(0, 1),)),
        (ArcFiber, lambda: (vec(1, 0), vec(0, 1)), (vec(-1, 0), vec(0, -1))),
        (ImageEntry, lambda: (s(1, 0), (PointFiber(vec(0, 1)),)), (s(0, 1), ())),
        (
            ImageReport,
            lambda: ((ImageEntry(s(1, 0), ()),), (vec(0, 1),), True, None),
            ((), (), False, "all wall normals are parallel"),
        ),
        (DualShadow, lambda: ((0, 1), (2, 3)), ((0, 0), (2, 2))),
        # mutable reports: compared, never hashed
        (MinClassification, lambda: ([h(0, 1)], [], [h(1, 2, True)]), ([], [h(0, 1)], [])),
        (RayStep, lambda: (0, (1, 2), 3), (1, (1, 1), 0)),
        (
            RayReport,
            lambda: (s(1, 0), 4, [RayStep(0, (0, 0), 0)], 0, True, None, True),
            (s(0, 1), 5, [], 1, False, 2, False),
        ),
        (ClassRow, lambda: (s(1, 0), 1, True, False), (s(0, 1), 2, False, None)),
        (
            SurjectivityReport,
            lambda: (2, True, [1], [0], False, True, [ClassRow(s(1, 0), 1, True, False)], 4, []),
            (3, False, [2], [1], True, False, [], 5, [s(1, 0)]),
        ),
    ]


@pytest.mark.parametrize(
    "cls, fields, others", [pytest.param(*case, id=case[0].__name__) for case in _record_cases()]
)
def test_records_have_value_semantics(cls, fields, others):
    # equal fields give equal instances (with equal hashes where the record
    # is hashed), any one changed field an unequal one, and another record
    # type with the same fields never equals; records print their fields
    first, second = cls(*fields()), cls(*fields())
    assert first == second and not first != second
    if cls.__hash__ is not None:
        # the hash of the field tuple, on which set orders and so outputs rest
        assert hash(first) == hash(second) == hash(fields())
    for i, other in enumerate(others):
        changed = list(fields())
        changed[i] = other
        assert cls(*changed) != first, (cls.__name__, i)
    twin = type("Twin", (cls,), {})
    assert twin(*fields()) != first and first != twin(*fields())
    # a subclass of an unhashable report stays unhashable
    assert (twin.__hash__ is None) == (cls.__hash__ is None)
    if issubclass(cls, Record):
        values = ", ".join(f"{n}={v!r}" for n, v in zip(cls.__slots__, fields()))
        assert repr(first) == f"{cls.__name__}({values})"
    # `flip` and `cf_truncate` name halfspaces by repr in their messages
    assert repr(ChainHalfspace(0, 2)) == "ChainHalfspace(chain=0, index=2, starred=False)"
    # no record class of the package goes without a case here
    for module in pkgutil.iter_modules(pocsets.__path__):
        if module.name != "__main__":
            importlib.import_module(f"pocsets.{module.name}")
    records = {c for c in Record.__subclasses__() if c.__module__.startswith("pocsets.")}
    assert records <= {case[0] for case in _record_cases()}


def test_records_are_slotted_and_mutable_reports_unhashable():
    from pocsets.chains import Signature
    from pocsets.euclid import WallModel
    from pocsets.shadows import RayReport, SurjectivityReport, WindowField

    assert not hasattr(Signature((0,)), "__dict__")
    # a cached_property needs the instance dict
    assert "__slots__" not in vars(WallModel) and "__slots__" not in vars(WindowField)
    assert RayReport.__hash__ is None and SurjectivityReport.__hash__ is None
    assert Signature((1,)) != Signature((1, 0)) and Signature((1,)) != (1,)


@pytest.mark.parametrize("bad", [None, "1", 0.5])
def test_an_operand_that_is_not_rational_is_a_type_error(bad):
    x = exact(1, 1)
    for use in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt):
        with pytest.raises(TypeError):
            use(x, bad)
    with pytest.raises(TypeError):
        ExactNumber.of(bad)
    assert x != bad


def test_only_reduced_sets_the_triple():
    # ExactNumber is hashed by (p, q, d) and held in sets and as dict keys,
    # so its slots are set once, by exactnum._reduced, and never reassigned
    # or deleted (a refusing __setattr__ would slow every operation)
    import ast
    import pathlib

    import pocsets

    writes = []
    for path in sorted(pathlib.Path(pocsets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "exactnum.py":
            (reduced,) = [n for n in tree.body if getattr(n, "name", "") == "_reduced"]
            tree.body.remove(reduced)
        writes += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and n.attr in ExactNumber.__slots__
            and not isinstance(n.ctx, ast.Load)
        ]
    assert writes == []
    x = exact(1, 1)
    assert (x.p, x.q, x.d) == (1, 1, 1) and not hasattr(x, "__dict__")
