from __future__ import annotations

import ast
import importlib
import inspect
import math
import operator
import os
import pkgutil
import random
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path

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
ROOT = Path(__file__).resolve().parents[1]

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
    from pocsets.chains import (
        PLUS_END,
        ChainFamily,
        ChainHalfspace,
        ChainUltrafilter,
        RollerPoset,
        Signature,
    )
    from pocsets.core import (
        FilterBase,
        FinitePocSet,
        PairClassification,
        Ultrafilter,
        UltrafilterCheck,
    )
    from pocsets.cubing import Cube, CubeComplex, DualityReport, Wall
    from pocsets.euclid import (
        ArcFiber,
        ClosureEntry,
        ClosureReport,
        ImageEntry,
        ImageReport,
        LineRestrictionReport,
        PointFiber,
        WallModel,
    )
    from pocsets.shadows import (
        ClassRow,
        DualShadow,
        MinClassification,
        RayReport,
        RayStep,
        ShadowReport,
        SurjectivityReport,
    )

    vec = lambda a, b: (exact(a), exact(b))
    fam = lambda *names: ChainFamily(tuple(names))
    s = lambda *ends: Signature(tuple(ends))
    h = ChainHalfspace
    # a poc-set compares by identity, so each complex case holds the same one
    line, square = FinitePocSet.from_order_generators(1), FinitePocSet.from_order_generators(2)
    return [
        (Ultrafilter, lambda: ((0, 1),), ((1, 1),)),
        (PairClassification, lambda: ("nested", (0, 2)), ("transverse", None)),
        (UltrafilterCheck, lambda: (False, "UF2", (0, 3)), (True, None, None)),
        (FilterBase, lambda: (frozenset({0, 2}),), (frozenset({0}),)),
        (Cube, lambda: (0, (0, 1)), (1, (0, 2))),
        (
            Wall,
            lambda: (0, ((0, 1),), frozenset({0}), frozenset({1})),
            (1, ((0, 2),), frozenset({1}), frozenset({0})),
        ),
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
        (DualityReport, lambda: (2, 4), (3, 5)),
        # mutable reports: compared, never hashed
        (RollerPoset, lambda: (1, [s(-1), s(0), s(1)]), (2, [s(0)])),
        (
            CubeComplex,
            lambda: (line, [Ultrafilter((0,)), Ultrafilter((1,))], [(0, 1, 0)], {}),
            (square, [Ultrafilter((0,))], [], {2: [Cube(0, (0, 1))]}),
        ),
        (
            ClosureEntry,
            lambda: (s(1, 0), [s(1, 0)], [s(1, 0)], True),
            (s(0, 1), [], [s(0, 1)], False),
        ),
        (
            ClosureReport,
            lambda: ([ClosureEntry(s(1, 0), [], [], True)], True, True, None),
            ([], False, False, s(1, 0)),
        ),
        (
            LineRestrictionReport,
            lambda: ([0], {1: 2}, [[0]], {0: 0}, s(1, 0), s(-1, 0)),
            ([1], {}, [[1]], {1: 0}, s(0, 1), s(0, -1)),
        ),
        (MinClassification, lambda: ([h(0, 1)], [], [h(1, 2, True)]), ([], [h(0, 1)], [])),
        (
            ShadowReport,
            lambda: ((0, 1), 4, True, 0, [h(0, 1)], [], [], [(0, 1)], DualShadow((-1, 0), (0, 1))),
            ((1, 1), 5, False, 1, [], [h(0, 2)], [h(1, 0, True)], [], DualShadow((0, 0), (1, 1))),
        ),
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
    if issubclass(cls, Record) and cls.__name__ not in _written_constructors():
        with pytest.raises(TypeError):  # Record's, which takes every field
            cls(*fields()[1:])
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


@cache
def _written_constructors() -> dict[str, ast.FunctionDef]:
    """The `__init__` of each `Record` subclass of the package that writes
    one, by class name, read off the source."""
    inits = {}
    for path in sorted((ROOT / "src" / "pocsets").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base).split(".")[-1] == "Record" for base in node.bases
            ):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                        inits[node.name] = f
    return inits


def _only_assigns(init: ast.FunctionDef) -> bool:
    """Whether a constructor takes its fields without defaults and only
    assigns each to the slot of its name, as `Record`'s compiled one does."""
    args = init.args
    if args.defaults or args.kwonlyargs or args.vararg or args.kwarg:
        return False
    params = {a.arg for a in args.args[1:]}
    for stmt in init.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a docstring
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            return False
        target, value = stmt.targets[0], stmt.value
        if not (
            isinstance(target, ast.Attribute)
            and ast.unparse(target.value) == "self"
            and isinstance(value, ast.Name)
            and value.id == target.attr
            and value.id in params
        ):
            return False
    return True


def test_no_record_writes_a_constructor_that_only_assigns_its_fields():
    # `Record` compiles that constructor on first use; a record writes its
    # own only to check, convert or default a field
    parse = lambda source: ast.parse(source).body[0]
    assert _only_assigns(parse("def __init__(self, a, b):\n    'A.'\n    self.a = a\n    self.b = b"))
    assert not _only_assigns(parse("def __init__(self, a, b=0):\n    self.a = a\n    self.b = b"))
    assert not _only_assigns(parse("def __init__(self, a, b):\n    self.a = b\n    self.b = a"))
    assert not _only_assigns(parse("def __init__(self, a):\n    self.a = tuple(a)"))
    inits = _written_constructors()
    # the walk sees them
    assert {"ChainHalfspace", "ChainUltrafilter", "Signature", "WallFamily"} <= set(inits)
    assert [name for name, init in inits.items() if _only_assigns(init)] == []


def _refused_arity(cls: type, values: tuple) -> bool:
    """Whether constructing cls from values raises its constructor's TypeError."""
    try:
        cls(*values)
    except TypeError as exc:
        return f"{cls.__qualname__}.__init__()" in str(exc)
    return False


def _other_class(cls: type) -> type:
    """A record class of another name with the slots of cls."""
    return type(f"Other{cls.__name__}", (Record,), {"__slots__": cls.__slots__})


def test_compiled_constructors_take_the_slots_before_and_after_their_compile():
    # every method `Record` compiles, as before its first call (the compiled
    # method deleted) and once compiled: the constructor's signature lists
    # the slots in order, keywords build the same record, and one field too
    # few or too many is refused; `==` holds for equal fields and fails
    # for another class's record of equal fields, `hash` is the field
    # tuple's, `repr` reads ``Name(field=value, ...)``, and each installed
    # method is named ``<Class>.<name>``
    records = [(cls, fields()) for cls, fields, _ in _record_cases() if issubclass(cls, Record)]
    assert len(records) >= 25
    for cls, values in records:
        other = _other_class(cls)(*values)
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(cls.__slots__, values))
        checks = {
            "__eq__": {
                "equal fields": lambda: cls(*values) == cls(*values),
                "another class": lambda: cls(*values) != other and not cls(*values) == other,
            },
            "__hash__": {"field tuple": lambda: hash(cls(*values)) == hash(values)},
            "__repr__": {"fields": lambda: repr(cls(*values)) == f"{cls.__name__}({shown})"},
        }
        if cls.__hash__ is None:
            del checks["__hash__"]
        if cls.__name__ not in _written_constructors():
            checks["__init__"] = {
                "signature": lambda: list(inspect.signature(cls).parameters) == list(cls.__slots__),
                "keywords": lambda: cls(**dict(zip(cls.__slots__, values))) == cls(*values),
                "one too few": lambda: _refused_arity(cls, values[:-1]),
                "one too many": lambda: _refused_arity(cls, (*values, None)),
            }
        for name, named in checks.items():
            for label, check in named.items():
                if name in vars(cls):
                    delattr(cls, name)
                assert getattr(cls, name) is getattr(Record, name)
                assert check(), (cls.__name__, name, label, "first use")
                assert vars(cls)[name].__qualname__ == f"{cls.__qualname__}.{name}"
                assert check(), (cls.__name__, name, label, "compiled")


def test_racing_first_constructions_each_build_their_record():
    # more threads than cores construct a fresh record class at once, with a
    # short switch interval, and then compare, hash and print its records at
    # once: each may compile and install a method, and each gets its own
    # fields and the right answers
    workers = (os.cpu_count() or 1) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            fresh = type("Fresh", (Record,), {"__slots__": ("a", "b", "c")})
            start, built, answers = threading.Barrier(workers), {}, {}

            def build(i):
                start.wait(timeout=10)
                r = built[i] = fresh(i, i + 1, c=i + 2)
                twin, other = fresh(i, i + 1, i + 2), fresh(i, i + 1, i + 3)
                start.wait(timeout=10)
                answers[i] = (r == twin, r == other, hash(r), repr(r))

            threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert {i: (r.a, r.b, r.c) for i, r in built.items()} == {
                i: (i, i + 1, i + 2) for i in range(workers)
            }
            assert answers == {
                i: (True, False, hash((i, i + 1, i + 2)), f"Fresh(a={i}, b={i + 1}, c={i + 2})")
                for i in range(workers)
            }
            for name in ("__init__", "__eq__", "__hash__", "__repr__"):
                assert vars(fresh)[name].__qualname__ == f"Fresh.{name}"
    finally:
        sys.setswitchinterval(interval)


def test_records_built_without_a_constructor_compare_and_hash():
    # `all_signatures` sets each class's ends on `object.__new__(Signature)`:
    # such a record compares, hashes and prints by its fields, with methods
    # compiled on its own first call
    from itertools import product

    from pocsets.chains import Signature, all_signatures

    for name in ("__eq__", "__hash__", "__repr__"):
        if name in vars(Signature):
            delattr(Signature, name)
    classes = all_signatures(2)
    assert classes == [Signature(ends) for ends in product((-1, 0, 1), repeat=2)]
    assert [hash(s) for s in classes] == [hash((ends,)) for ends in product((-1, 0, 1), repeat=2)]
    assert len(set(classes) | set(all_signatures(2))) == 9
    assert repr(classes[1]) == "Signature(ends=(-1, 0))"


def test_records_keep_the_methods_they_write():
    # `Record` compiles a method only where the class writes none: the four
    # checking constructors and the eleven ``__hash__ = None`` of the
    # reports stay each class's own, and no class of the package hooks class
    # creation; a compiled method comes from a string, a written one from
    # its module
    cases = {cls.__name__: (cls, fields) for cls, fields, _ in _record_cases()}
    hooks, unhashable = [], []
    for path in sorted((ROOT / "src" / "pocsets").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init_subclass__":
                        hooks.append(node.name)
                    if isinstance(stmt, ast.Assign) and ast.unparse(stmt) == "__hash__ = None":
                        unhashable.append(node.name)
    assert hooks == [] and "__init_subclass__" not in vars(Record)
    assert len(unhashable) == 11
    for name in unhashable:
        cls, fields = cases[name]
        with pytest.raises(TypeError):
            hash(cls(*fields()))
        assert vars(cls)["__hash__"] is None
    assert set(_written_constructors()) == {
        "ChainHalfspace", "ChainUltrafilter", "Signature", "WallFamily"
    }
    for name in _written_constructors():
        cls, fields = cases[name]
        first = cls(*fields())
        assert first == cls(*fields()) and hash(first) == hash(fields()) and repr(first)
        assert vars(cls)["__init__"].__code__.co_filename == sys.modules[cls.__module__].__file__
        assert vars(cls)["__eq__"].__code__.co_filename == "<string>"


def test_records_are_slotted_and_mutable_reports_unhashable():
    from pocsets.chains import Signature
    from pocsets.cubing import DualityReport
    from pocsets.euclid import LineRestrictionReport, WallModel
    from pocsets.shadows import RayReport, SurjectivityReport, WindowField

    assert not hasattr(Signature((0,)), "__dict__")
    # a wall model's cached properties need the instance dict; a window
    # field caches nothing
    assert "__slots__" not in vars(WallModel) and "__slots__" in vars(WindowField)
    assert RayReport.__hash__ is None and SurjectivityReport.__hash__ is None
    assert Signature((1,)) != Signature((1, 0)) and Signature((1,)) != (1,)
    # a record holding a list or a dict is a mutable report: never hashed
    for cls, fields, _ in _record_cases():
        if any(isinstance(value, (list, dict)) for value in fields()):
            assert cls.__hash__ is None, cls.__name__
    # fields that cannot vary are class constants, not slots
    bijection, vertices = {"h1": "h1", "h1*": "h1*"}, {"0": 0, "1": 1}
    report = DualityReport(1, 2).to_json()
    assert report == {"isomorphic": True, "elements": bijection, "vertices": vertices, "mismatch": None}
    constants = {DualityReport: ("isomorphic", "mismatch"), LineRestrictionReport: ("commutes",)}
    for cls, names in constants.items():
        assert all(name in vars(cls) and name not in cls.__slots__ for name in names), cls


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
