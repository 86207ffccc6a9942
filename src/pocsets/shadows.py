"""Consistency against wall geometry, distance to the consistent set,
shadows, escaping rays and the co-compactness report.

A principal chain ultrafilter with cuts (c_1..c_k) is consistent when the k
closed slabs it selects share a point.  By Helly's theorem they do iff every
three of them do, so each wall model's slab system is compiled once, from
its arrangement's cross products, into two integer sign conditions on the
cuts per parallel pair and per pairwise non-parallel triple of families,
instead of being eliminated again for every tuple.  All minimization is
exhaustive inside a window [-W, W]^k with interiority checks on minimizers,
and every result records the window it was computed in.  Inside a window the
consistent set is kept by rows, one interval of last cuts per prefix, solved
level by level under consistent prefixes only, and the distance to it by a
flat table of separable L1 sweeps, a layer of packed lanes at a time, unless
the set fills the window.  Members are read off the rows, the nearest ones off
the rows that the table places on a geodesic from the query, and two guard
bits per tuple, built on a field's first query, decide each refusal.
"""

from __future__ import annotations

from itertools import pairwise, product
from math import gcd
from operator import mul
from sys import byteorder
from threading import Lock
from typing import Iterable, Optional, Sequence

from .chains import (
    FIN,
    ChainHalfspace,
    ChainUltrafilter,
    Signature,
    all_signatures,
    check_classes,
    check_window,
    flow_cuts,
    format_signature,
    min_set,
)
from .core import Record
from .errors import ChainCountMismatch, MalformedInput, NotPrincipal, WindowTooSmall
from .euclid import WallModel, _escape_verdicts, check_families, rho_image
from .exactnum import ZERO, ExactNumber, sqrt3_floor, sqrt3_sign

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


def _wrong_length(k: int, cuts: Cuts) -> ChainCountMismatch:
    return ChainCountMismatch(f"{cuts} has {len(cuts)} cuts, the model has {k} chains", cuts)


class ConsistencyOracle:
    """The consistency test of one model's cut tuples, compiled once.

    Slabs in the plane meet iff every three of them meet (Helly's theorem;
    Danzer, Grünbaum & Klee 1963).  Three pairwise non-parallel slabs
    L_i <= N_i.p <= U_i meet iff 0 is in the interval sum of lambda_i*[L_i,
    U_i], lambda = (N_b x N_c, N_c x N_a, N_a x N_b), as p -> (N_i.p) maps
    onto the plane lambda.y = 0; a parallel pair meets by the same rule with a
    lambda that cancels its normals, any other triple iff its parallel pair
    does.  On the arrangement's integers L_i and U_i are affine in c_i, so
    each rule gives two forms alpha(c) + beta(c)*sqrt3 >= 0 with integer
    coefficients.  A form's level in `levels` is its largest family j: it
    involves c_j and no later cut, and the forms of level <= j are the
    first j families' own; level 1 is empty.  The roots in c_j of the
    level-j forms are `row_bounds[j-1]`; `fields` keeps the model's window
    fields for `window_field`."""

    def __init__(self, model: WallModel):
        k = self.k = model.k
        arr = model.arrangement
        normals, offsets, spacings, cross = arr.normals, arr.offsets, arr.spacings, arr.cross
        rules = []  # each rule's lambda, by family
        for c in range(k):
            for a in range(c):
                if not any(cross[a][c]):  # parallel: a coordinate both normals have
                    t = 0 if any(normals[a][0]) else 1
                    rules.append({a: normals[c][t], c: tuple(-x for x in normals[a][t])})
                    continue
                rules += [
                    {a: cross[b][c], b: cross[c][a], c: cross[a][b]}
                    for b in range(a + 1, c)
                    if any(cross[a][b]) and any(cross[b][c])
                ]
        levels = self.levels = {}
        for rule in rules:
            for sign in (1, -1):  # the top of the sum of mu_i*[L_i, U_i], mu = +-lambda, is >= 0
                alpha, beta = [0] * (k + 1), [0] * (k + 1)
                for i, (x, y) in rule.items():
                    x, y, s = sign * x, sign * y, spacings[i]
                    o = offsets[i] if sqrt3_sign(x, y) > 0 else offsets[i] - s  # U_i or L_i at c_i = 0
                    alpha[0], beta[0] = alpha[0] + x * o, beta[0] + y * o
                    alpha[i + 1], beta[i + 1] = x * s, y * s
                g = gcd(*alpha, *beta)
                levels[tuple(a // g for a in alpha), tuple(b // g for b in beta)] = max(rule) + 1
        self.forms = sorted(levels)
        self.row_bounds: list[list[tuple]] = [[] for _ in range(k)]
        for a, b in self.forms:
            j = levels[a, b]
            self.row_bounds[j - 1].append(_row_bound(a[: j + 1], b[: j + 1]))
        self.fields: dict[int, WindowField] = {}
        self.lock = Lock()

    def consistent(self, cuts: Cuts) -> bool:
        """Whether the closed slabs selected by the k cuts share a point: an
        entry point for tests and `perfbench/baseline.py`, since window fields
        solve their rows from `row_bounds` and no query calls it."""
        if len(cuts) != self.k:
            raise _wrong_length(self.k, cuts)
        point = (1, *cuts)
        for alpha, beta in self.forms:
            if sqrt3_sign(sum(map(mul, alpha, point)), sum(map(mul, beta, point))) < 0:
                return False
        return True


def _row_bound(alpha: tuple[int, ...], beta: tuple[int, ...]) -> tuple[int, tuple, tuple, int]:
    """(slope, P, Q, n) of the form (a + da*c) + (b + db*c)*sqrt3: the sign of
    da + db*sqrt3 and its root c = (p + q*sqrt3)/n, n = da^2 - 3*db^2, where
    P and Q give p and q over (1, *head), signed so that n > 0 and negated for
    a positive slope, whose ceiling is -floor(-root).  The form involves c by
    construction: a level-j form's c_j coefficient is lambda_j*s_j != 0."""
    *a, da = alpha
    *b, db = beta
    slope, n = sqrt3_sign(da, db), da * da - 3 * db * db
    sign = -slope if n > 0 else slope  # n != 0: sqrt3 is irrational
    p_form = tuple(sign * (3 * y * db - x * da) for x, y in zip(a, b))
    q_form = tuple(sign * (x * db - y * da) for x, y in zip(a, b))
    return slope, p_form, q_form, abs(n)


def interval_consistent(model: WallModel, cuts: Cuts) -> bool:
    """Closed-form oracle for zero-sum normal triples: the cut slabs meet
    iff zero lies in the interval sum of the selected slabs: the compile's
    one-triple case, whose three cross products are equal, kept apart from
    `ConsistencyOracle` as an independent oracle for tests and checks."""
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


def _window_tuples(model: WallModel, bound: int) -> int:
    """(2*bound + 1)^k, refused for a negative bound or past the cap."""
    check_window(bound)
    if (count := (2 * bound + 1) ** model.k) > MAX_WINDOW_TUPLES:
        message = f"window {bound} has {count} tuples, more than {MAX_WINDOW_TUPLES}"
        raise MalformedInput(message, bound)
    return count


def _solve_line(bounds: list[tuple], prefix: Cuts, lo: int, hi: int, bound: int) -> list[Row]:
    """The rows of the heads (*prefix, c), c = lo..hi, under one level's
    `row_bounds`.  Each form holds on the ray of next cuts beyond its root,
    whose ceiling or floor bounds the row.  p and q step by the form's last
    coefficient along the line, so a head costs no dot product; the first
    form that empties its row ends its solve."""
    point, steps = (1, *prefix), []
    for slope, p_form, q_form, n in bounds:
        dp, dq = p_form[-1], q_form[-1]  # map() stops at the end of point
        p, q = sum(map(mul, p_form, point)) + dp * lo, sum(map(mul, q_form, point)) + dq * lo
        steps.append((slope, p, dp, q, dq, n))
    rows: list[Row] = []
    for i in range(hi - lo + 1):
        a, b = -bound, bound
        for slope, p, dp, q, dq, n in steps:
            f = sqrt3_floor(p + dp * i, q + dq * i, n)
            if slope > 0:  # no max() or min(): their calls cost a third of the solve
                a = -f if a + f < 0 else a
            else:
                b = f if f < b else b
            if a > b:
                break
        rows.append((a, b) if a <= b else None)
    return rows


def _pi0_rows(model: WallModel, bound: int) -> list[Row]:
    """The row of every (k-1)-prefix of the window, in lexicographic order,
    level by level from c_1's row, the window: each row of level j-1 is one
    `_solve_line` of level j, and an empty row is never extended.  The last
    level's lines are written straight into the table, a slice per line."""
    _window_tuples(model, bound)  # refused before the first row
    check_families(model)
    if model.k == 1:
        return [(-bound, bound)]
    n = 2 * bound + 1
    lines = [((), 0, (-bound, bound))]  # a consistent prefix, its flat index and row
    *middle, last = model.oracle.row_bounds[1:]
    for bounds in middle:
        lines = [
            ((*prefix, c), index * n + bound + c, row)
            for prefix, index, (lo, hi) in lines
            for c, row in zip(range(lo, hi + 1), _solve_line(bounds, prefix, lo, hi, bound))
            if row
        ]
    rows: list[Row] = [None] * n ** (model.k - 1)
    for prefix, index, (lo, hi) in lines:
        start = index * n + bound
        rows[start + lo : start + hi + 1] = _solve_line(last, prefix, lo, hi, bound)
    return rows


def _members(bound: int, k: int, rows: list[Row]) -> list[Cuts]:
    """The members of the rows of window `bound`, in lexicographic order."""
    heads = product(range(-bound, bound + 1), repeat=k - 1)
    return [(*head, c) for head, row in zip(heads, rows) if row for c in range(row[0], row[1] + 1)]


# ---------------------------------------------------------------------------
# the sweep kernel: distance tables as packed lanes


# bytes per lane of each unsigned format that `_lane` may pick: C gives
# at least 1, 2 and 4
_LANE_SIZES = {lane: memoryview(bytes(8)).cast(lane).itemsize for lane in "BHL"}


def _lane(n: int, k: int) -> str:
    """The format of the narrowest unsigned lanes of a table of window n
    cuts wide and k chains: n*k, which stands for "no member", and one more,
    which a sweep step adds, stay below their top bit (8 bits for n*k < 127,
    16 for every k >= 2 under the cap)."""
    return next(lane for lane, size in _LANE_SIZES.items() if n * k + 1 < 1 << 8 * size - 1)


def _pack(values: Iterable[int], lane: str) -> bytes:
    """The values in native lanes of `lane`, as `_sweep` reads them: byte
    lanes are `bytes` itself, and only wider ones load `array`, whose import
    costs about a quarter of a millisecond."""
    if lane == "B":
        return bytes(values)
    from array import array

    return array(lane, values).tobytes()


def _row_cells(bound: int, far: int, lane: str):
    """cells(row): the packed distances from each tuple of one row of the
    window to the row's run [lo, hi] of last cuts, `far` for None: a slice
    of n, .., 1, 0, .., 0 up to hi, then 1, .., W - hi."""
    n, size = 2 * bound + 1, _LANE_SIZES[lane]
    down, up = _pack([*range(n, 0, -1), *[0] * n], lane), _pack(range(1, n + 1), lane)
    none = _pack([far], lane) * n

    def cells(row: Row) -> bytes:
        if row is None:
            return none
        lo, hi = row
        start = (bound + 1 - lo) * size  # where down reads lo + bound
        return down[start : start + (bound + 1 + hi) * size] + up[: (bound - hi) * size]

    return cells


def _sweep(table: bytes, n: int, k: int, lane: str) -> bytes:
    """The distance table whose rows `table` fills, swept twice along each
    head axis by g(x) = min(f(x), g(x -+ 1) + 1) (Rosenfeld & Pfaltz 1966)
    while that axis is outermost, a whole layer at a time, then turned so
    the next axis is; k turns restore its order, so two chains' table is
    not turned, and one chain's fill is already its table.  A layer is one
    int of `lane` lanes, and min(a, b + 1) over it is exact big-int
    arithmetic (Lamport 1975): with H the lanes' top bits, a lane of ((a |
    H) - (b + 1)) & H is set iff a >= b + 1 there, and that lane takes b +
    1.  The turns copy strided slices of a bytearray."""
    if k == 1:
        return table
    size = _LANE_SIZES[lane]
    span, top = len(table) // n, 8 * size - 1  # bytes per layer; the lanes' top bit
    ones = int.from_bytes(_pack([1], lane) * (span // size), byteorder)
    high = ones << top
    steps = [*zip(range(1, n), range(n - 1)), *zip(range(n - 2, -1, -1), range(n - 1, 0, -1))]
    for axis in range(1, k + 1):
        if axis < k:  # c_axis is outermost
            layers = [
                int.from_bytes(table[x : x + span], byteorder) for x in range(0, len(table), span)
            ]
            for i, j in steps:
                a, b = layers[i], layers[j] + ones
                t = ((a | high) - b) & high
                layers[i] = a ^ ((a ^ b) & (t - (t >> top)))
            table = b"".join(layer.to_bytes(span, byteorder) for layer in layers)
        if k == 2:  # the two turns cancel
            return table
        turned = bytearray(len(table))  # c_axis innermost, the next axis outermost
        for i, x in enumerate(range(0, len(table), span)):
            for o in range(size):
                turned[i * size + o :: n * size] = table[x + o : x + span : size]
        table = turned
    return table


# ---------------------------------------------------------------------------
# the window field


INNER, OUTER = 1, 2  # a tuple's guard bits: a nearest member inside the window, one on its boundary


class WindowField:
    """The consistent set inside the window [-bound, bound]^k, by rows, and
    the distance to it from every tuple of the window.

    ``rows[r]`` holds the last cuts that complete the r-th (k-1)-prefix
    (lexicographic order) to a member.  The table is a flat list indexed by
    the mixed-radix number of (c_1 + bound, .., c_k + bound): each tuple's
    distance to its own row, swept by `_sweep`.  L1 distance separates by
    axis (Felzenszwalb & Huttenlocher 2012, section 2), and inside the box
    it is the lattice distance, so the table is the exact in-window
    restriction of delta(-, Pi0).  `argmin` reads the table to walk only the
    prefixes on a geodesic to a nearest member, and the rows to list the
    members; Pi0 is held by the rows alone, never all None.  ``guards``
    holds each tuple's INNER and OUTER bits, the two window guards of the
    queries, built by `_guards` on the field's first query, None before."""

    __slots__ = ("bound", "k", "distance_table", "rows", "guards")

    def __init__(self, bound: int, k: int, distance_table: list[int], rows: list[Row]):
        self.bound = bound
        self.k = k
        self.distance_table = distance_table
        self.rows = rows
        self.guards: Optional[bytes] = None

    @property
    def members(self) -> list[Cuts]:
        """The members in lexicographic order, read off the rows on each read."""
        return _members(self.bound, self.k, self.rows)

    @property
    def start(self) -> Cuts:
        """The member of least L1 norm, then least lexicographically: the
        first member nearest the origin, found again on each read."""
        return self.argmin((0,) * self.k)[0]

    def _index(self, cuts: Cuts) -> int:
        if len(cuts) != self.k:
            raise _wrong_length(self.k, cuts)
        if min(cuts) < -self.bound or max(cuts) > self.bound:
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
        and costs one table read.  Each kept prefix walks the candidates
        for its next cut, clamped to the window once: t's flat index steps
        by the axis stride, and the expected distance rises by one up to the
        query's cut and falls by one after it, so no candidate costs index
        arithmetic or an abs.  The walk of c_{k-1} reads the row of each
        full prefix it keeps there and then, for the last cuts in its
        interval at the remaining distance."""
        return self._argmin(cuts, self._index(cuts))  # refuses a wrong length before unpacking

    def _argmin(self, cuts: Cuts, index: int) -> list[Cuts]:
        """`argmin` at a checked flat index."""
        bound, n, table, rows = self.bound, 2 * self.bound + 1, self.distance_table, self.rows
        *head, last = cuts
        if not head:  # one chain: the window is one row
            r, (lo, hi) = table[index], rows[0]
            return [(c,) for c in ((last,) if r == 0 else (last - r, last + r)) if lo <= c <= hi]
        level: list[tuple[Cuts, int, int]] = [((), index, table[index])]
        stride, found = len(table), []
        for d, q in enumerate(head, 1):
            stride, final, nxt = stride // n, d == len(head), []  # final: walking c_{k-1}
            for prefix, j, r in level:
                # the steps down and up from q that stay within r and the window
                down = r if r < q + bound else q + bound
                up = r if r < bound - q else bound - q
                j -= down * stride
                s = r - down
                for c in range(q - down, q + up + 1):
                    if table[j] == s:
                        if not final:
                            nxt.append(((*prefix, c), j, s))
                        elif row := rows[j // n]:
                            lo, hi = row
                            for m in (last - s, last + s) if s else (last,):
                                if lo <= m <= hi:
                                    found.append((*prefix, c, m))
                    j += stride
                    s += 1 if c < q else -1
            level = nxt
        return found


def _guards(f: WindowField) -> bytes:
    """Each tuple's guard bits, one byte per tuple in the table's order.

    Every member lies strictly inside the window or on its boundary, so the
    distance is the least of Di, to the interior members, and Do, to the
    boundary ones: INNER holds iff Di <= Do and OUTER iff Do <= Di.  The
    interior members are the rows of interior heads clipped to [1-W, W-1];
    the boundary members, the whole row of a head that touches -W or W and
    the row ends at -W or W of the others.  Both tables are filled and swept
    as the field's own, and compared a whole table at a time."""
    bound, k = f.bound, f.k
    n = 2 * bound + 1
    lane = _lane(n, k)
    cells = _row_cells(bound, n * k, lane)
    ends = _pack([min(c + bound, bound - c) for c in range(-bound, bound + 1)], lane)
    inner, outer = [], []
    for head, row in zip(product(range(-bound, bound + 1), repeat=k - 1), f.rows):
        if row is None or -bound in head or bound in head:
            inner.append(cells(None))
            outer.append(cells(row))
            continue
        lo, hi = row
        clipped = (max(lo, 1 - bound), min(hi, bound - 1))
        inner.append(cells(clipped if clipped[0] <= clipped[1] else None))
        if lo == -bound:
            outer.append(ends if hi == bound else cells((lo, lo)))
        else:
            outer.append(cells((hi, hi) if hi == bound else None))
    size, count = _LANE_SIZES[lane], len(f.distance_table)
    top = 8 * size - 1
    di = int.from_bytes(_sweep(b"".join(inner), n, k, lane), byteorder)
    do = int.from_bytes(_sweep(b"".join(outer), n, k, lane), byteorder)
    high = int.from_bytes(_pack([1 << top], lane) * count, byteorder)
    bits = ((((do | high) - di) & high) >> top) | ((((di | high) - do) & high) >> (top - 1))
    packed = bits.to_bytes(count * size, byteorder)
    return packed[0 if byteorder == "little" else size - 1 :: size]  # each lane's low byte


def enumerate_pi0(model: WallModel, bound: int) -> list[ChainUltrafilter]:
    """All consistent cut tuples inside the window, in canonical order."""
    return [ChainUltrafilter(m) for m in _members(bound, model.k, _pi0_rows(model, bound))]


def window_field(model: WallModel, bound: int) -> WindowField:
    """The model's distance field in window `bound`, built once and kept by
    the model's oracle, oldest dropped first past three windows at the cap.
    Its rows come from `_pi0_rows`, and its table is each tuple's distance
    to its own row, swept by `_sweep` unless it has no positive entry (Pi0
    fills the window).  A kept field is read without a lock; a miss builds,
    evicts and inserts under the oracle's lock, so threads sharing a model
    keep its cap.  The field's guards wait for its first query."""
    check_window(bound)  # before a held field is read: True would read window 1's
    oracle = model.oracle
    field = oracle.fields.get(bound)  # one read: another thread may drop the key
    if field is not None:
        return field
    with oracle.lock:
        fields = oracle.fields
        field = fields.get(bound)  # built by another thread meanwhile
        if field is not None:
            return field
        rows = _pi0_rows(model, bound)
        if not any(rows):
            raise WindowTooSmall(f"no consistent tuple inside window {bound}", bound)
        n, k = 2 * bound + 1, model.k
        lane = _lane(n, k)
        table = b"".join(map(_row_cells(bound, n * k, lane), rows))
        if table.count(0) < len(table):  # some tuple is not a member
            table = _sweep(table, n, k, lane)
        distances = memoryview(table).cast(lane).tolist()
        kept = len(distances) + sum(len(f.distance_table) for f in fields.values())
        for key in list(fields):  # the oldest field first
            if kept <= 3 * MAX_WINDOW_TUPLES:
                break
            kept -= len(fields.pop(key).distance_table)
        field = fields[bound] = WindowField(bound, k, distances, rows)
        return field


# ---------------------------------------------------------------------------
# distance, signed minimal sets, shadows


def _nearest(model: WallModel, u: ChainUltrafilter, window: int):
    """The one windowed step behind every query: the field, the cuts of u,
    their flat index and their guard bits.  A window that is no int, or is
    negative, is refused first, then a non-principal u, then the field is
    built, then cuts of the wrong length or outside the window; the guards
    are built last, once per field (racing threads each assign an equal table)."""
    check_window(window)
    cuts = u.int_cuts()
    f = window_field(model, window)
    index = f._index(cuts)
    guards = f.guards
    if guards is None:
        guards = f.guards = _guards(f)
    return f, cuts, index, guards[index]


def _distance(f: WindowField, cuts: Cuts, index: int, guard: int) -> int:
    if not guard & INNER:
        raise WindowTooSmall(f"every minimizer for {cuts} touches the window boundary", cuts)
    return f.distance_table[index]


def _whole_shadow(f: WindowField, cuts: Cuts, index: int, guard: int) -> list[Cuts]:
    """The nearest members, walked only once the guard answers."""
    if guard & OUTER:
        raise WindowTooSmall(f"shadow of {cuts} touches the window boundary", cuts)
    return f._argmin(cuts, index)


def dist_to_pi0(model: WallModel, u: ChainUltrafilter, window: int) -> int:
    """Exhaustive min over the in-window consistent set, with an interiority
    check: some minimizer must avoid the window boundary."""
    f, cuts, index, guard = _nearest(model, u, window)
    return _distance(f, cuts, index, guard)


class MinClassification(Record):
    __slots__ = ("plus", "minus", "neutral")
    __hash__ = None


def classify_min(model: WallModel, u: ChainUltrafilter, window: int) -> MinClassification:
    """Split min(u) by the effect of each flip on the distance to the
    consistent set; "neutral" collects the distance-preserving moves the
    two signed sets do not cover."""
    f, cuts, index, guard = _nearest(model, u, window)
    return MinClassification(*_classify(f, cuts, index, _distance(f, cuts, index, guard)))


def _classify(f: WindowField, cuts: Cuts, index: int, base: int) -> tuple[list, list, list]:
    """The plus, minus and neutral flips of min(u), each chain's h_i(c-1)
    and then h_i(c)* as `min_set` lists them, built from the cuts; each
    flip's distance is read at the query's flat index -+ its chain's stride,
    and a flip past the window goes through `distance`, which refuses it."""
    plus, minus, neutral = [], [], []
    table, bound, stride = f.distance_table, f.bound, len(f.distance_table)
    for i, c in enumerate(cuts):
        stride //= 2 * bound + 1
        if c == -bound or c == bound:  # h_i(c-1) is tried first, as min_set lists it
            f.distance((*cuts[:i], c - 1 if c == -bound else c + 1, *cuts[i + 1 :]))
        # written out, not looped: a loop over the two flips builds a tuple
        # of pairs per chain, about half the classification's time
        plain, star = ChainHalfspace(i, c - 1, False), ChainHalfspace(i, c, True)
        d = table[index - stride]
        (plus if d > base else minus if d < base else neutral).append(plain)
        d = table[index + stride]
        (plus if d > base else minus if d < base else neutral).append(star)
    return plus, minus, neutral


class DualShadow(Record):
    """Per chain, the two rays of halfspaces containing every shadow member:
    plains up to ``plain_upto[i]`` and stars from ``star_from[i]`` on."""

    __slots__ = ("plain_upto", "star_from")

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


def _dual(nearest: list[Cuts]) -> DualShadow:
    columns = list(zip(*nearest))
    return DualShadow(tuple([min(c) - 1 for c in columns]), tuple([max(c) for c in columns]))


class ShadowReport(Record):
    __slots__ = (
        "pi", "window", "consistent", "dist", "min_plus", "min_minus", "min_neutral",
        "shadow", "dual_shadow",
    )
    __hash__ = None

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
    """All four answers from one read of the guard bits and, once both
    guards pass, one walk of the nearest set; refused by the first guard
    that dist_to_pi0, classify_min, shadow and dual_shadow would fire."""
    f, cuts, index, guard = _nearest(model, u, window)
    dist = _distance(f, cuts, index, guard)
    plus, minus, neutral = _classify(f, cuts, index, dist)
    members = _whole_shadow(f, cuts, index, guard)
    return ShadowReport(
        cuts, f.bound, dist == 0, dist, plus, minus, neutral, members, _dual(members)
    )


# ---------------------------------------------------------------------------
# escaping rays


class RayStep(Record):
    __slots__ = ("index", "cuts", "dist")
    __hash__ = None


class RayReport(Record):
    __slots__ = (
        "target", "window", "steps", "escape_start", "success", "failure_step",
        "dual_shadows_shrink",
    )
    __hash__ = None

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


class SurjectivityReport(Record):
    __slots__ = (
        "model_chains", "uniform", "windows", "max_delta", "delta_linear_growth",
        "delta_bounded", "classes", "image_size", "escaping_classes",
    )
    __hash__ = None

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
    """Tabulate all 3^k classes against the image of rho, the max distance
    to the consistent set per window, its growth, and the classes that
    escape.

    The co-compactness dichotomy is checkable from the fields: linear
    growth of the max distance must co-occur with a non-principal class
    outside the image, while a bounded distance field accompanies a fully
    covered image.  Growth and ``escapes`` are exact and window-free: max
    delta over [-W, W]^k is sigma*W up to a constant, where sigma > 0 iff
    the rows n_i/s_i have rank < k, and the column is `eventual_escapers`,
    with `escaping_ray` as its windowed witness.  Rows are built by index,
    zipping `all_signatures` with the escape verdicts, which are decided for
    the classes whose first end is PLUS and mirrored, since D0(-s) = D0(s);
    ``in_image`` is read off the image's sign tuples and each codim off its
    class's ends.  More than `MAX_CLASSES` classes are refused before any
    window is built.  Windows are built in the ascending order they are
    reported, so the smallest failing window refuses, and they may hold
    together what three windows at the cap hold."""
    # one step per window; one that is no int is refused before the set merges True into 1
    windows = sorted({w if type(w) is int else check_window(w) for w in windows})
    if not windows:
        raise MalformedInput("a report needs at least one window", [])
    check_classes(model.k)
    max_delta, total, cap = [], 0, 3 * MAX_WINDOW_TUPLES
    for w in windows:
        total += _window_tuples(model, w)
        if total > cap:
            raise MalformedInput(f"windows up to {w} hold {total} tuples, more than {cap}", w)
        max_delta.append(max_delta_over_window(model, w))
    image = rho_image(model)
    linear = min(2, model.distinct_wall_directions()) < model.k  # rank of n_i/s_i
    in_image = {e.signature.ends for e in image.entries}
    k = model.k
    rows = [
        ClassRow(s, codim, s.ends in in_image, escapes if codim else None)
        for s, escapes in zip(all_signatures(k), _escape_verdicts(model))
        for codim in (k - s.ends.count(FIN),)
    ]
    escaping = [r.signature for r in rows if r.escapes]
    return SurjectivityReport(
        model.k,
        image.uniform,
        list(windows),
        max_delta,
        linear,
        not linear,
        rows,
        len(in_image),
        escaping,
    )
