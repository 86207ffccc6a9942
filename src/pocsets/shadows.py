"""Consistency against wall geometry, distance to the consistent set,
shadows, escaping rays and the co-compactness report.

A principal chain ultrafilter with cuts (c_1..c_k) is consistent when the k
closed slabs it selects share a point.  Each wall model's slab system is
compiled once, by Fourier-Motzkin elimination over the √3 field on symbolic
right-hand sides, into a few integer sign conditions on the cuts, instead of
being eliminated again for every tuple.  All minimization is
exhaustive inside a window [-W, W]^k with interiority checks on minimizers,
and every result records the window it was computed in.  Inside a window the
consistent set is kept by rows, one interval of last cuts per prefix solved
from the compiled forms, and the distance to it by a flat table filled with
separable L1 sweeps; nearest members are read off the rows that the table
places on a geodesic from the query.
"""

from __future__ import annotations

from functools import cached_property
from itertools import pairwise, product
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

from .chains import (
    ChainHalfspace,
    ChainUltrafilter,
    Signature,
    all_signatures,
    flow_cuts,
    format_signature,
    min_set,
)
from .core import Record
from .errors import ChainCountMismatch, MalformedInput, NotPrincipal, WindowTooSmall
from .euclid import WallModel, eventual_escapers, rho_image
from .exactnum import ZERO, ExactNumber, integer_pairs, sqrt3_floor, sqrt3_sign

Cuts = tuple[int, ...]
Constraint = tuple[ExactNumber, ExactNumber, ExactNumber]  # ax*x + ay*y <= c
Row = Optional[tuple[int, int]]  # one prefix's consistent last cuts: [lo, hi]


# ---------------------------------------------------------------------------
# exact feasibility of halfplane systems


def _feasible_point(constraints: Sequence[Constraint]) -> Optional[tuple[ExactNumber, ExactNumber]]:
    """An exact point of a non-empty closed intersection (for rendering)."""
    uppers, lowers, pure = [], [], []
    for ax, ay, c in constraints:
        s = ax.sign()
        if s > 0:
            uppers.append((ax, ay, c))
        elif s < 0:
            lowers.append((ax, ay, c))
        else:
            pure.append((ay, c))
    derived = list(pure)
    for axu, ayu, cu in uppers:
        for axl, ayl, cl in lowers:
            derived.append((axu * ayl - axl * ayu, axu * cl - axl * cu))
    lo = hi = None
    for a, c in derived:
        s = a.sign()
        if s == 0:
            if c.sign() < 0:
                return None
        elif s > 0:
            bound = c / a
            hi = bound if hi is None or bound < hi else hi
        else:
            bound = c / a
            lo = bound if lo is None or bound > lo else lo
    if lo is not None and hi is not None and lo > hi:
        return None
    y = _pick(lo, hi)
    xlo = xhi = None
    for ax, ay, c in uppers:
        bound = (c - ay * y) / ax
        xhi = bound if xhi is None or bound < xhi else xhi
    for ax, ay, c in lowers:
        bound = (c - ay * y) / ax
        xlo = bound if xlo is None or bound > xlo else xlo
    if xlo is not None and xhi is not None and xlo > xhi:
        return None
    return _pick(xlo, xhi), y


def _pick(lo: Optional[ExactNumber], hi: Optional[ExactNumber]) -> ExactNumber:
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    if hi is not None:
        return hi - 1
    return ZERO


def _closure_constraint(model: WallModel, h: ChainHalfspace) -> Constraint:
    fam = model.families[h.chain]
    level = fam.wall_level(h.index)
    nx, ny = fam.normal
    if h.starred:  # cl(h*) = {n.p <= level}
        return (nx, ny, level)
    return (-nx, -ny, -level)  # cl(h) = {n.p >= level}


def _slab_constraints(model: WallModel, cuts: Cuts) -> list[Constraint]:
    """The closed slab of each chain, as the closures of its two minimal
    halfspaces h_i(c-1) and h_i(c)*."""
    return [_closure_constraint(model, h) for h in min_set(ChainUltrafilter(cuts))]


def is_consistent_set(model: WallModel, halfspaces: Iterable[ChainHalfspace]) -> bool:
    """Whether the closures of the given halfspaces share a point; the empty
    set counts as inconsistent by convention."""
    cons = [_closure_constraint(model, h) for h in halfspaces]
    return bool(cons) and _feasible_point(cons) is not None


def is_consistent(model: WallModel, u: ChainUltrafilter) -> bool:
    """Whether a principal ultrafilter is supported by an actual point."""
    return model.oracle.consistent(u.int_cuts())


def _wrong_length(k: int, cuts: Cuts) -> ChainCountMismatch:
    return ChainCountMismatch(f"{cuts} has {len(cuts)} cuts, the model has {k} chains", cuts)


Surd = tuple[int, int]  # a + b*sqrt3 as (a, b)
Form = tuple[Surd, ...]  # affine in the cuts: form[0] + sum form[1+i]*c_i


def _combine(p: Surd, f: Form, q: Surd, g: Form) -> Form:
    (a, b), (c, d) = p, q
    return tuple(
        (a * x + 3 * b * y + c * z + 3 * d * w, a * y + b * x + c * w + d * z)
        for (x, y), (z, w) in zip(f, g)
    )


def _eliminate_first(rows: list[tuple[Form, Form]]) -> list[tuple[Form, Form]]:
    """One Fourier-Motzkin step on rows (coefs, rhs), each meaning
    coefs . v <= rhs(c): the rows that no longer mention v[0]."""
    signs = [sqrt3_sign(*coefs[0]) for coefs, _ in rows]
    ups = [r for r, s in zip(rows, signs) if s > 0]
    downs = [r for r, s in zip(rows, signs) if s < 0]
    out = [(coefs[1:], rhs) for (coefs, rhs), s in zip(rows, signs) if s == 0]
    for cu, ru in ups:
        for cd, rd in downs:
            # positive multipliers that cancel v[0]
            minus = (-cd[0][0], -cd[0][1])
            out.append((_combine(minus, cu, cu[0], cd)[1:], _combine(minus, ru, cu[0], rd)))
    return out


def _integer_form(rhs: Form) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """rhs as coprime integer vectors (alpha, beta) with rhs(c) a positive
    multiple of alpha . (1, c) + (beta . (1, c))*sqrt3."""
    g = gcd(*(x for pair in rhs for x in pair)) or 1
    return tuple(a // g for a, _ in rhs), tuple(b // g for _, b in rhs)


class ConsistencyOracle:
    """The consistency test of one model's cut tuples, compiled once.

    The slab system of cuts c has 2k closed halfplanes whose normals are
    fixed by the model and whose right-hand sides are affine in c.
    Fourier-Motzkin elimination of x and then y (Schrijver 1986, 12.2) only
    takes positive combinations of rows, so it runs once on symbolic
    right-hand sides and leaves a few forms F_j(c) = alpha_j(c) +
    beta_j(c)*sqrt3 with integer coefficients: the slabs share a point iff
    every F_j(c) >= 0.

    It also keeps the model's window fields, one per bound, built on first
    use by `window_field`."""

    def __init__(self, model: WallModel):
        k = self.k = model.k
        rows = []
        for i, fam in enumerate(model.families):
            # both rows times a positive integer that clears every denominator
            *normal, o, s = integer_pairs((*fam.normal, fam.offset, fam.spacing))
            top = [(0, 0)] * (k + 1)  # n.p <= o + s*c_i
            top[0], top[1 + i] = o, s
            bottom = [(-a, -b) for a, b in top]  # -n.p <= -(o + s*(c_i - 1))
            bottom[0] = (s[0] - o[0], s[1] - o[1])
            rows.append((tuple(normal), tuple(top)))
            rows.append((tuple((-a, -b) for a, b in normal), tuple(bottom)))
        forms = set()
        for _, rhs in _eliminate_first(_eliminate_first(rows)):
            alpha, beta = _integer_form(rhs)
            constant = not any(alpha[1:]) and not any(beta[1:])
            if not (constant and sqrt3_sign(alpha[0], beta[0]) >= 0):
                forms.add((alpha, beta))
        self.forms = sorted(forms)
        self.fields: dict[int, WindowField] = {}

    def consistent(self, cuts: Cuts) -> bool:
        """Whether the closed slabs selected by the k cuts share a point."""
        if len(cuts) != self.k:
            raise _wrong_length(self.k, cuts)
        point = (1, *cuts)
        for alpha, beta in self.forms:
            if sqrt3_sign(sum(map(mul, alpha, point)), sum(map(mul, beta, point))) < 0:
                return False
        return True

    def row(self, head: Cuts, bound: int) -> Row:
        """The last cuts c in [-bound, bound] that make head + (c,)
        consistent: one closed interval (lo, hi), or None.

        Each form (a + da*c) + (b + db*c)*sqrt3 holds for every c, for none,
        or on the ray of c beyond its root (p + q*sqrt3)/n, whose ceiling or
        floor (`sqrt3_floor`) then bounds lo or hi.  The first form that
        empties the row ends the solve."""
        lo, hi = -bound, bound
        point = (1, *head)  # the forms' last coefficients multiply c
        for alpha, beta in self.forms:
            a, b = sum(map(mul, alpha, point)), sum(map(mul, beta, point))
            da, db = alpha[-1], beta[-1]
            p, q, n = 3 * b * db - a * da, a * db - b * da, da * da - 3 * db * db
            slope = sqrt3_sign(da, db)
            if slope > 0:
                lo = max(lo, -sqrt3_floor(-p, -q, n))
            elif slope < 0:
                hi = min(hi, sqrt3_floor(p, q, n))
            elif sqrt3_sign(a, b) < 0:
                return None
            if lo > hi:
                return None
        return lo, hi


def interval_consistent(model: WallModel, cuts: Cuts) -> bool:
    """Closed-form oracle for zero-sum normal triples: the cut slabs meet
    iff zero lies in the interval sum of the selected slabs."""
    if model.k != 3:
        raise MalformedInput("interval oracle is defined for three chains", model.k)
    sx = sum((f.normal[0] for f in model.families), ZERO)
    sy = sum((f.normal[1] for f in model.families), ZERO)
    if not (sx.is_zero() and sy.is_zero()):
        names = list(model.chains.names)
        raise MalformedInput("interval oracle needs normals summing to zero", names)
    lo = sum(
        f.offset + f.spacing * (c - 1) for f, c in zip(model.families, cuts)
    )
    hi = sum(f.offset + f.spacing * c for f, c in zip(model.families, cuts))
    return lo <= 0 <= hi


# ---------------------------------------------------------------------------
# windows: the consistent set and the distance field


# the most tuples a (2W+1)^k window may hold: W=49 at k=3
MAX_WINDOW_TUPLES = 10**6


def _check_window(bound: int) -> None:
    if bound < 0:
        raise MalformedInput("window bound must be >= 0", bound)


def _pi0_rows(model: WallModel, bound: int) -> tuple[list[Row], list[Cuts]]:
    """Pi0 inside the window: the `ConsistencyOracle.row` of every
    (k-1)-prefix of the window, in lexicographic order, and its members."""
    _check_window(bound)
    count = (2 * bound + 1) ** model.k  # refused before the first row
    if count > MAX_WINDOW_TUPLES:
        message = f"window {bound} has {count} tuples, more than {MAX_WINDOW_TUPLES}"
        raise MalformedInput(message, bound)
    if model.k == 0:
        raise MalformedInput("a wall model needs at least one family", list(model.chains.names))
    rows, members = [], []
    for head in product(range(-bound, bound + 1), repeat=model.k - 1):
        row = model.oracle.row(head, bound)
        rows.append(row)
        if row:
            members += [(*head, c) for c in range(row[0], row[1] + 1)]
    return rows, members


def _sweep(table: list[int], n: int, stride: int) -> None:
    """g(x) = min(f(x), g(x-1) + 1) and then g(x) = min(g(x), g(x+1) + 1)
    along the axis whose unit step is `stride`, a whole slice at a time."""
    block = n * stride
    for base in range(0, len(table), block):
        ends = range(base, base + block, stride)
        for x, y in [*zip(ends[1:], ends), *zip(ends[-2::-1], ends[:0:-1])]:
            table[x : x + stride] = [
                a if a <= b else b + 1
                for a, b in zip(table[x : x + stride], table[y : y + stride])
            ]


class WindowField:
    """The consistent set inside the window [-bound, bound]^k, by rows, and
    the distance to it from every tuple of the window.

    ``rows[r]`` holds the last cuts that complete the r-th (k-1)-prefix
    (lexicographic order) to a member.  The table is a flat list indexed by
    the mixed-radix number of (c_1 + bound, .., c_k + bound): each tuple's
    distance to its own row, then swept twice along every other axis by
    g(x) = min(f(x), g(x -+ 1) + 1) (Rosenfeld & Pfaltz 1966).  L1 distance
    separates by axis (Felzenszwalb & Huttenlocher 2012, section 2), and
    inside the box it is the lattice distance, so the table is the exact
    in-window restriction of delta(-, Pi0).  `argmin` reads the table to
    walk only the prefixes on a geodesic to a nearest member, and the rows
    to list the members.  No ``__slots__``: `start` is a `cached_property`."""

    def __init__(self, bound: int, members: list[Cuts], distance_table: list[int], rows: list[Row]):
        self.bound = bound
        self.members = members  # never empty, lexicographic
        self.distance_table = distance_table
        self.rows = rows

    @cached_property
    def start(self) -> Cuts:
        """The member of least L1 norm, then least lexicographically: the
        first member nearest the origin."""
        return self.argmin((0,) * len(self.members[0]))[0]

    def interior(self, cuts: Cuts) -> bool:
        return all(abs(c) < self.bound for c in cuts)

    def _index(self, cuts: Cuts) -> int:
        k = len(self.members[0])
        if len(cuts) != k:
            raise _wrong_length(k, cuts)
        if any(abs(c) > self.bound for c in cuts):
            raise WindowTooSmall(f"{cuts} is outside window {self.bound}", cuts)
        n, index = 2 * self.bound + 1, 0
        for c in cuts:
            index = index * n + c + self.bound
        return index

    def distance(self, cuts: Cuts) -> int:
        return self.distance_table[self._index(cuts)]

    def argmin(self, cuts: Cuts) -> list[Cuts]:
        """The members nearest cuts, in lexicographic order.

        Prefixes grow one coordinate at a time, in order, and a prefix
        (c_1..c_d) is kept only when it lies on a geodesic to a nearest
        member: with q = cuts and r = distance(q), the tuple t = (c_1..c_d,
        q_{d+1}..q_k) must have distance r - sum_{i<=d} |c_i - q_i|.  A
        nearest member with that prefix is that close to t, and the triangle
        inequality keeps t at least that far, so the test drops no member
        and costs one table read.  The row of each full prefix gives the
        last cuts in its interval at the remaining distance."""
        index = self._index(cuts)  # refuses a wrong length before unpacking
        bound, n, table = self.bound, 2 * self.bound + 1, self.distance_table
        *head, last = cuts
        # each prefix carries the index of its t: c_d moves it by (c_d - q_d) strides
        level: list[tuple[Cuts, int, int]] = [((), index, table[index])]
        for d, q in enumerate(head):
            stride = n ** (len(head) - d)
            level = [
                ((*prefix, c), j, s)
                for prefix, i, r in level
                for c in range(max(-bound, q - r), min(bound, q + r) + 1)
                if table[j := i + (c - q) * stride] == (s := r - abs(c - q))
            ]
        found: list[Cuts] = []
        for prefix, i, r in level:
            row = self.rows[i // n]
            if row:
                ends = (last,) if r == 0 else (last - r, last + r)
                found += [(*prefix, c) for c in ends if row[0] <= c <= row[1]]
        return found


def enumerate_pi0(model: WallModel, bound: int) -> list[ChainUltrafilter]:
    """All consistent cut tuples inside the window, in canonical order."""
    return [ChainUltrafilter(m) for m in _pi0_rows(model, bound)[1]]


def window_field(model: WallModel, bound: int) -> WindowField:
    """The model's distance field in window `bound`, built once and kept by
    the model's oracle for the model's lifetime."""
    fields = model.oracle.fields
    if bound in fields:
        return fields[bound]
    rows, members = _pi0_rows(model, bound)
    if not members:
        raise WindowTooSmall(f"no consistent tuple inside window {bound}", bound)
    n = 2 * bound + 1
    far = n * model.k  # beyond every in-window distance
    table: list[int] = []
    for row in rows:
        if row is None:
            table += [far] * n
        else:
            lo, hi = row
            table += [*range(lo + bound, 0, -1), *[0] * (hi - lo + 1), *range(1, bound - hi + 1)]
    for axis in range(1, model.k):
        _sweep(table, n, n**axis)
    field = fields[bound] = WindowField(bound, members, table, rows)
    return field


# ---------------------------------------------------------------------------
# distance, signed minimal sets, shadows


def _nearest(model: WallModel, u: ChainUltrafilter, window: int):
    """The one windowed step behind every query: the field, the cuts of u
    and the members nearest u, found by a single argmin.  A negative window
    is refused first, then a non-principal u, then the field is built."""
    _check_window(window)
    cuts = u.int_cuts()
    f = window_field(model, window)
    return f, cuts, f.argmin(cuts)


def _distance(f: WindowField, cuts: Cuts, nearest: list[Cuts]) -> int:
    if not any(f.interior(m) for m in nearest):
        raise WindowTooSmall(f"every minimizer for {cuts} touches the window boundary", cuts)
    return f.distance(cuts)


def _whole_shadow(f: WindowField, cuts: Cuts, nearest: list[Cuts]) -> list[Cuts]:
    if not all(f.interior(m) for m in nearest):
        raise WindowTooSmall(f"shadow of {cuts} touches the window boundary", cuts)
    return nearest


def dist_to_pi0(model: WallModel, u: ChainUltrafilter, window: int) -> int:
    """Exhaustive min over the in-window consistent set, with an interiority
    check: some minimizer must avoid the window boundary."""
    return _distance(*_nearest(model, u, window))


class MinClassification(Record):
    __slots__ = ("plus", "minus", "neutral")
    __hash__ = None

    def __init__(
        self, plus: list[ChainHalfspace], minus: list[ChainHalfspace], neutral: list[ChainHalfspace]
    ):
        self.plus = plus
        self.minus = minus
        self.neutral = neutral


def classify_min(model: WallModel, u: ChainUltrafilter, window: int) -> MinClassification:
    """Split min(u) by the effect of each flip on the distance to the
    consistent set; "neutral" collects the distance-preserving moves the
    two signed sets do not cover."""
    f, cuts, nearest = _nearest(model, u, window)
    return _classify(f, u, cuts, _distance(f, cuts, nearest))


def _classify(f: WindowField, u: ChainUltrafilter, cuts: Cuts, base: int) -> MinClassification:
    plus, minus, neutral = [], [], []
    for h in min_set(u):
        moved = list(cuts)
        moved[h.chain] += 1 if h.starred else -1
        d = f.distance(tuple(moved))
        (plus if d > base else minus if d < base else neutral).append(h)
    return MinClassification(plus, minus, neutral)


class DualShadow(Record):
    """Per chain, the two rays of halfspaces containing every shadow member:
    plains up to ``plain_upto[i]`` and stars from ``star_from[i]`` on."""

    __slots__ = ("plain_upto", "star_from")

    def __init__(self, plain_upto: Cuts, star_from: Cuts):
        self.plain_upto = plain_upto
        self.star_from = star_from

    def contains(self, h: ChainHalfspace) -> bool:
        if h.starred:
            return h.index >= self.star_from[h.chain]
        return h.index <= self.plain_upto[h.chain]

    def issubset(self, other: "DualShadow") -> bool:
        return all(a <= b for a, b in zip(self.plain_upto, other.plain_upto)) and all(
            a >= b for a, b in zip(self.star_from, other.star_from)
        )

    def strictly_inside(self, other: "DualShadow") -> bool:
        return self.issubset(other) and self != other

    def inside_ultrafilter(self, u: ChainUltrafilter) -> bool:
        return all(
            p <= c - 1 and s >= c
            for p, s, c in zip(self.plain_upto, self.star_from, u.int_cuts())
        )


def shadow(model: WallModel, u: ChainUltrafilter, window: int) -> list[ChainUltrafilter]:
    """The nearest consistent ultrafilters; the whole set must sit strictly
    inside the window."""
    return [ChainUltrafilter(m) for m in _whole_shadow(*_nearest(model, u, window))]


def dual_shadow(model: WallModel, u: ChainUltrafilter, window: int) -> DualShadow:
    return _dual(_whole_shadow(*_nearest(model, u, window)))


def _dual(members: list[Cuts]) -> DualShadow:
    return DualShadow(tuple(min(c) - 1 for c in zip(*members)), tuple(map(max, zip(*members))))


class ShadowReport:
    __slots__ = (
        "pi", "window", "consistent", "dist", "min_plus", "min_minus", "min_neutral",
        "shadow", "dual_shadow",
    )

    def __init__(
        self,
        pi: Cuts,
        window: int,
        consistent: bool,
        dist: int,
        min_plus: list[ChainHalfspace],
        min_minus: list[ChainHalfspace],
        min_neutral: list[ChainHalfspace],
        shadow: list[Cuts],
        dual_shadow: DualShadow,
    ):
        self.pi = pi
        self.window = window
        self.consistent = consistent
        self.dist = dist
        self.min_plus = min_plus
        self.min_minus = min_minus
        self.min_neutral = min_neutral
        self.shadow = shadow
        self.dual_shadow = dual_shadow

    def to_json(self) -> dict:
        describe = lambda hs: [
            {"chain": h.chain, "index": h.index, "starred": h.starred} for h in hs
        ]
        return {
            "pi": list(self.pi),
            "window": self.window,
            "consistent": self.consistent,
            "dist": self.dist,
            "min_plus": describe(self.min_plus),
            "min_minus": describe(self.min_minus),
            "min_neutral": describe(self.min_neutral),
            "shadow_size": len(self.shadow),
            "shadow": [list(s) for s in self.shadow],
            "dual_shadow": {
                "plain_upto": list(self.dual_shadow.plain_upto),
                "star_from": list(self.dual_shadow.star_from),
            },
        }


def shadow_report(model: WallModel, u: ChainUltrafilter, window: int) -> ShadowReport:
    """All four answers from one nearest set, refused by the first guard
    that dist_to_pi0, classify_min, shadow and dual_shadow would fire."""
    f, cuts, nearest = _nearest(model, u, window)
    dist = _distance(f, cuts, nearest)
    mins = _classify(f, u, cuts, dist)
    members = _whole_shadow(f, cuts, nearest)
    return ShadowReport(
        cuts, f.bound, dist == 0, dist,
        mins.plus, mins.minus, mins.neutral, members, _dual(members),
    )


# ---------------------------------------------------------------------------
# escaping rays


class RayStep(Record):
    __slots__ = ("index", "cuts", "dist")
    __hash__ = None

    def __init__(self, index: int, cuts: Cuts, dist: int):
        self.index = index
        self.cuts = cuts
        self.dist = dist


class RayReport(Record):
    __slots__ = (
        "target", "window", "steps", "escape_start", "success", "failure_step",
        "dual_shadows_shrink",
    )
    __hash__ = None

    def __init__(
        self,
        target: Signature,
        window: int,
        steps: list[RayStep],
        escape_start: Optional[int],
        success: bool,
        failure_step: Optional[int],
        dual_shadows_shrink: Optional[bool],
    ):
        self.target = target
        self.window = window
        self.steps = steps
        self.escape_start = escape_start
        self.success = success
        self.failure_step = failure_step
        self.dual_shadows_shrink = dual_shadows_shrink

    def to_json(self) -> dict:
        return {
            "target": format_signature(self.target),
            "window": self.window,
            "success": self.success,
            "escape_start": self.escape_start,
            "failure_step": self.failure_step,
            "dual_shadows_shrink": self.dual_shadows_shrink,
            "steps": [
                {"index": s.index, "cuts": list(s.cuts), "dist": s.dist}
                for s in self.steps
            ],
        }


def canonical_start(model: WallModel, window: int) -> ChainUltrafilter:
    """The consistent tuple nearest the origin (ties broken
    lexicographically); the deterministic base point of every ray."""
    return ChainUltrafilter(window_field(model, window).start)


def escaping_ray(model: WallModel, target: Signature, length: int, window: int) -> RayReport:
    """Attempt an escaping geodesic ray toward a non-principal class: the
    constructive, windowed witness of `eventual_escapers`.

    Moves follow the canonical flow expanded into single flips.  The ray
    escapes when, after its last consistent point, the distance to the
    consistent set strictly increases at every step and the dual shadows
    strictly shrink along those moves.  A ray that never leaves the
    consistent set fails at step 1, or at step 0 if it is only its start."""
    if target.is_principal():
        raise NotPrincipal("escape target must be a non-principal class", format_signature(target))
    if target.k != model.k:
        raise ChainCountMismatch(
            f"target {format_signature(target)} has {target.k} chains, the model has {model.k}",
            format_signature(target),
        )
    if length < 0:
        raise MalformedInput("ray length must be >= 0", length)
    f = window_field(model, window)
    # lazily, so a long ray is refused at its first point outside the window
    steps = [
        RayStep(i, cuts, f.distance(cuts))
        for i, cuts in enumerate(flow_cuts(target, f.start, length))
    ]
    dists = [s.dist for s in steps]
    if all(d == 0 for d in dists):
        return RayReport(target, window, steps, None, False, min(1, len(steps) - 1), None)
    # the distance must strictly increase at every step once positive; any
    # stall after first leaving the consistent set disqualifies the ray
    stalls = [
        i
        for i in range(1, len(dists))
        if dists[i] <= dists[i - 1] and dists[i - 1] > 0
    ]
    escape_start = max((i for i, d in enumerate(dists) if d == 0), default=0)
    if stalls:
        return RayReport(target, window, steps, escape_start, False, stalls[0], None)
    # lazily, so the first point whose shadow touches the window is refused
    duals = (dual_shadow(model, ChainUltrafilter(s.cuts), window) for s in steps[escape_start:])
    shrinks = all(b.strictly_inside(a) for a, b in pairwise(duals))
    return RayReport(target, window, steps, escape_start, shrinks, None, shrinks)


# ---------------------------------------------------------------------------
# the co-compactness report


class ClassRow(Record):
    __slots__ = ("signature", "codim", "in_image", "escapes")
    __hash__ = None

    def __init__(self, signature: Signature, codim: int, in_image: bool, escapes: Optional[bool]):
        self.signature = signature
        self.codim = codim
        self.in_image = in_image
        self.escapes = escapes


class SurjectivityReport(Record):
    __slots__ = (
        "model_chains", "uniform", "windows", "max_delta", "delta_linear_growth",
        "delta_bounded", "classes", "image_size", "escaping_classes",
    )
    __hash__ = None

    def __init__(
        self,
        model_chains: int,
        uniform: bool,
        windows: list[int],
        max_delta: list[int],
        delta_linear_growth: bool,
        delta_bounded: bool,
        classes: list[ClassRow],
        image_size: int,
        escaping_classes: list[Signature],
    ):
        self.model_chains = model_chains
        self.uniform = uniform
        self.windows = windows
        self.max_delta = max_delta
        self.delta_linear_growth = delta_linear_growth
        self.delta_bounded = delta_bounded
        self.classes = classes
        self.image_size = image_size
        self.escaping_classes = escaping_classes

    def to_json(self) -> dict:
        return {
            "chains": self.model_chains,
            "uniform": self.uniform,
            "windows": self.windows,
            "max_delta": self.max_delta,
            "delta_linear_growth": self.delta_linear_growth,
            "delta_bounded": self.delta_bounded,
            "image_size": self.image_size,
            "escaping_ray_exists": bool(self.escaping_classes),
            "escaping_classes": [format_signature(s) for s in self.escaping_classes],
            "classes": [
                {
                    "signature": format_signature(r.signature),
                    "codim": r.codim,
                    "in_image": r.in_image,
                    "escapes": r.escapes,
                }
                for r in self.classes
            ],
        }


def max_delta_over_window(model: WallModel, window: int) -> int:
    f = window_field(model, window)
    return max(f.distance_table)


def surjectivity_report(
    model: WallModel, windows: Sequence[int] = (5, 10, 15)
) -> SurjectivityReport:
    """Tabulate all 3^k classes against the image of rho, the window growth
    of the distance to the consistent set, and the classes that escape.

    The co-compactness dichotomy is checkable from the fields: linear
    window growth of the max distance must co-occur with a non-principal
    class outside the image, while a bounded distance field accompanies a
    fully covered image.  The ``escapes`` column is `eventual_escapers`:
    exact and window-free, with `escaping_ray` as its windowed witness."""
    windows = sorted(set(windows))  # a repeated window adds no step
    max_delta = [max_delta_over_window(model, w) for w in windows]
    diffs = [b - a for a, b in zip(max_delta, max_delta[1:])]
    window_steps = [b - a for a, b in zip(windows, windows[1:])]
    # one slope d/s for every step, compared by cross-multiplication
    linear = bool(diffs) and diffs[0] > 0 and all(
        d * window_steps[0] == diffs[0] * s for d, s in zip(diffs, window_steps)
    )
    bounded = max_delta[-1] == 0
    image = rho_image(model)
    in_image = set(image.signatures())
    escapers = eventual_escapers(model)
    rows = [
        ClassRow(s, s.codim(), s in in_image, None if s.is_principal() else s in escapers)
        for s in all_signatures(model.k)
    ]
    escaping = [r.signature for r in rows if r.escapes]
    return SurjectivityReport(
        model.k,
        image.uniform,
        list(windows),
        max_delta,
        linear,
        bounded,
        rows,
        len(in_image),
        escaping,
    )
