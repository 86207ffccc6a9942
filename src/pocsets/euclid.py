"""Planar wall-system models and the boundary decomposition map.

A model is a chain family where chain i is realized by evenly spaced
parallel walls: wall n of family i is the line ``n_i . p = o_i + s_i n``
and the halfplane ``h_i(n) = {p : n_i . p > o_i + s_i n}``, so halfplanes
shrink as the index grows and a boundary direction xi with ``n_i . xi > 0``
eventually enters every ``h_i(n)``.

All direction tests are exact (the √3 field covers the shipped fixtures).
A direction is held by its `normalize`d representative; two families give
the same critical directions iff their cross product is zero, so the image
keeps the first family of each direction and needs no pairwise search.  The
circle at infinity is handled symbolically as critical directions plus open
arcs, never as a metrized object.  An arc takes its class from its end classes;
uniformness and the count of wall directions are read off the image.  The
consistency compile, the image and the escapers read `WallModel.arrangement`.
A class and its negation escape together, so escape is decided for the
classes whose first end is PLUS and mirrored; the closure order of the
image's classes is read off sign masks, one bit per chain and end.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from operator import add
from typing import Sequence

from .chains import (
    ChainFamily,
    Signature,
    all_signatures,
    check_classes,
    format_signature,
)
from .core import Record
from .errors import LineInsideWall, MalformedInput, ZeroDirection
from .exactnum import ZERO, ExactNumber, Rationalish, integer_pairs, sqrt3_sign

Vec = tuple[ExactNumber, ExactNumber]


def dot(u: Vec, v: Vec) -> ExactNumber:
    return u[0] * v[0] + u[1] * v[1]


def perp(v: Vec) -> Vec:
    """Counterclockwise quarter turn."""
    return (-v[1], v[0])


def negate(v: Vec) -> Vec:
    return (-v[0], -v[1])


def _check_direction(v: Vec) -> None:
    """Refuse the zero vector, which has no direction, with its coordinates
    as witness."""
    if v[0].is_zero() and v[1].is_zero():
        raise ZeroDirection("a direction must be non-zero", [str(x) for x in v])


def normalize(v: Vec) -> Vec:
    """Scale so |x|+|y| = 1; canonical representative of the ray through v."""
    _check_direction(v)
    scale = abs(v[0]) + abs(v[1])
    return (v[0] / scale, v[1] / scale)


def _ccw_key(d: Vec) -> tuple:
    """Counterclockwise order from (1,0) of normalized directions: x falls
    along the closed upper half circle and rises along the open lower one."""
    return (0, -d[0]) if d[1].sign() >= 0 else (1, d[0])


class WallFamily(Record):
    """Walls n . p = offset + spacing*m for every integer m; spacing and
    offset are rational, held as `ExactNumber`s whatever they are given as,
    so a family writes a document that `pocsets.formats` reads back."""

    __slots__ = ("normal", "spacing", "offset")

    def __init__(self, normal: Vec, spacing: Rationalish = 1, offset: Rationalish = 0):
        if normal[0].is_zero() and normal[1].is_zero():
            raise MalformedInput("wall family needs a non-zero normal", [str(x) for x in normal])
        spacing, offset = ExactNumber.of(spacing), ExactNumber.of(offset)
        if spacing.q or offset.q:
            raise MalformedInput("spacing and offset must be rational", [str(spacing), str(offset)])
        if spacing <= 0:
            raise MalformedInput("spacing must be positive", spacing)
        self.normal = normal
        self.spacing = spacing
        self.offset = offset

    def wall_level(self, n: int) -> ExactNumber:
        return self.offset + self.spacing * n


class Arrangement:
    """A model's families under one positive integer scale T: normals T*n_i
    as pairs of pairs (a, b), each meaning a + b*sqrt3, offsets T*o_i and
    spacings T*s_i as ints (they are rational), and the k x k table
    ``cross[i][j]`` = T*n_i x T*n_j, zero iff i and j are parallel."""

    __slots__ = ("normals", "offsets", "spacings", "cross")

    def __init__(self, families: Sequence[WallFamily]):
        scaled = integer_pairs([x for f in families for x in (*f.normal, f.offset, f.spacing)])
        self.normals = [tuple(scaled[i : i + 2]) for i in range(0, len(scaled), 4)]
        self.offsets = [a for a, _ in scaled[2::4]]
        self.spacings = [a for a, _ in scaled[3::4]]
        self.cross = [[_cross(u, v) for v in self.normals] for u in self.normals]

    def vertex(self, i: int, j: int, a: int, b: int) -> Vec:
        """Where wall a of family i meets wall b of family j (i and j not
        parallel): Cramer's rule on the scaled normals, over cross[i][j]."""
        ((p, q), (r, s)), ((t, u), (v, w)) = self.normals[i], self.normals[j]
        li, lj = self.offsets[i] + self.spacings[i] * a, self.offsets[j] + self.spacings[j] * b
        det = ExactNumber(*self.cross[i][j])
        x, y = (li * v - lj * r, li * w - lj * s), (lj * p - li * t, lj * q - li * u)
        return ExactNumber(*x) / det, ExactNumber(*y) / det


def _cross(u, v) -> tuple[int, int]:
    """u x v of two vectors of pairs (a, b), each meaning a + b*sqrt3."""
    ((a, b), (c, d)), ((e, f), (g, h)) = u, v
    return a * g + 3 * b * h - c * e - 3 * d * f, a * h + b * g - c * f - d * e


class WallModel:
    """A chain family with planar geometry, one wall family per chain.

    No ``__slots__``: the arrangement, the compiled oracle and the image
    are kept in the instance dict by `cached_property`."""

    def __init__(self, chains: ChainFamily, families: tuple[WallFamily, ...]):
        if len(families) != chains.k:
            raise MalformedInput("one wall family per chain is required", list(chains.names))
        self.chains = chains
        self.families = families

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.chains == other.chains and self.families == other.families
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.chains, self.families))

    @property
    def k(self) -> int:
        return self.chains.k

    @cached_property
    def arrangement(self) -> Arrangement:
        """The model's integer kernel (see `Arrangement`), built on first
        use; not a field, so equality and hashing ignore it."""
        return Arrangement(self.families)

    @cached_property
    def oracle(self):
        """The model's compiled `pocsets.shadows.ConsistencyOracle`, built
        on first use; not a field, so equality and hashing ignore it."""
        from .shadows import ConsistencyOracle

        return ConsistencyOracle(self)

    @cached_property
    def image(self) -> "ImageReport":
        """The image of rho (see `rho_image`), built on first use; not a
        field, so equality and hashing ignore it."""
        return _build_image(self)

    def chamber_cuts(self, point: Vec) -> tuple[int, ...]:
        """Cut coordinates of the chamber of a generic point: chain i takes
        the c with n_i . p in the slab [level(c-1), level(c)), so a point on
        a wall is nudged into the upper slab."""
        return tuple(
            ((dot(fam.normal, point) - fam.offset) / fam.spacing).floor() + 1
            for fam in self.families
        )

    def distinct_wall_directions(self) -> int:
        """Parallel classes of the normals: the image's ± pairs of critical directions."""
        return len(self.image.critical_directions) // 2 if self.k else 0


def check_families(model: WallModel) -> None:
    """Refuse a model without wall families, which has no direction and no
    tuple, with its chain names as witness."""
    if not model.k:
        raise MalformedInput("a wall model needs at least one family", list(model.chains.names))


# ---------------------------------------------------------------------------
# the decomposition map


def rho(model: WallModel, xi: Vec) -> Signature:
    """The minimum boundary class compatible with the direction xi: the
    sign vector of the n_i . xi.  Chain i is FIN (0) when its walls are
    parallel to xi, else PLUS (+1) or MINUS (-1) for the end the ray runs
    into."""
    _check_direction(xi)
    return Signature(tuple(dot(fam.normal, xi).sign() for fam in model.families))


# ---------------------------------------------------------------------------
# the image of rho and its fiber structure


class PointFiber(Record):
    __slots__ = ("direction",)
    kind = "point"


class ArcFiber(Record):
    """Open counterclockwise arc between two critical directions."""

    __slots__ = ("start", "end")
    kind = "arc"


class ImageEntry(Record):
    __slots__ = ("signature", "fibers")


class ImageReport(Record):
    __slots__ = ("entries", "critical_directions", "uniform", "warning")

    def signatures(self) -> list[Signature]:
        return [e.signature for e in self.entries]

    def to_json(self) -> dict:
        text = {c: [str(c[0]), str(c[1])] for c in self.critical_directions}  # each one once
        return {
            "uniform": self.uniform,
            "warning": self.warning,
            "classes": [
                {
                    "signature": format_signature(e.signature),
                    "codim": e.signature.codim(),
                    "fibers": [
                        {"kind": "point", "direction": text[f.direction]}
                        if f.kind == "point"
                        else {"kind": "arc", "start": text[f.start], "end": text[f.end]}
                        for f in e.fibers
                    ],
                }
                for e in self.entries
            ],
        }


def rho_image(model: WallModel) -> ImageReport:
    """Partition of the circle into critical directions (perpendicular to
    some family) and the open arcs between consecutive ones, with the class
    realized on each piece; at most 4d classes for d wall directions.

    Built once per model and kept as `WallModel.image`.  A non-uniform
    model (all normals parallel, so rho may take the principal class) is
    answered, not refused: its report reads `uniform` false and says why in
    `warning`."""
    return model.image


def _build_image(model: WallModel) -> ImageReport:
    """Every direction fact from the normals' ±perpendiculars, one pair per
    wall direction: a family with a zero in its cross table row before its
    own place is parallel to an earlier one and adds none, so the first
    family of a direction sets its classes.  The class of perp(n_j) is the
    signs of the cross table's row j (n_i . perp(n_j) = n_j x n_i), the 2d
    directions are sorted once together with their classes, an open arc's
    class comes from its end classes, and uniformness and the direction count
    from how many there are.  Fibers are grouped by sign tuple, and each
    class becomes one `Signature`."""
    check_families(model)
    criticals = []  # (direction, the ends of its class)
    for j, (fam, row) in enumerate(zip(model.families, model.arrangement.cross)):
        if (0, 0) not in row[:j]:
            d, signs = normalize(perp(fam.normal)), tuple([sqrt3_sign(a, b) for a, b in row])
            criticals += [(d, signs), (negate(d), tuple([-e for e in signs]))]
    criticals.sort(key=lambda c: _ccw_key(c[0]))
    uniform = len(criticals) > 2  # antipodal pairs; only one if every wall is parallel
    fibers: dict[tuple[int, ...], list] = {}
    for i, (c, ends) in enumerate(criticals):
        after, after_ends = criticals[(i + 1) % len(criticals)]
        fibers.setdefault(ends, []).append(PointFiber(c))
        if uniform:  # under a half circle: each chain is FIN at one end at most
            arc_ends = tuple([a or b for a, b in zip(ends, after_ends)])
        else:  # a half circle, FIN at both ends on every chain
            arc_ends = rho(model, perp(c)).ends
        fibers.setdefault(arc_ends, []).append(ArcFiber(c, after))
    entries = tuple([ImageEntry(Signature(ends), tuple(fs)) for ends, fs in fibers.items()])
    warning = None if uniform else "all wall normals are parallel"
    return ImageReport(entries, tuple([c for c, _ in criticals]), uniform, warning)


def _escape_verdicts(model: WallModel) -> list[bool]:
    """Whether each class escapes, in `all_signatures` order; the principal
    class never does.

    With m_i = n_i/s_i, the ray toward s gains D0(s) = min_p |s - Mp|_1 <=
    |supp s| per round of |supp s| flips, so it escapes iff D0(s) = |supp s|.
    By LP duality (Schrijver 1986, ch. 7) that holds iff x = -sum of s_i*m_i
    over supp s lies in the zonotope of [-1, 1]*m_j over the free chains j,
    and a planar zonotope holds x iff |u.x| <= h = sum |u.m_j| for u = e1,
    e2 and perp(m_j) of each free j.  Each row of u.m_i, up to a positive
    factor, is read off the arrangement as integer pairs (a, b), meaning a +
    b*sqrt3: the normals' coordinates and the cross table's row j, entry i
    times L/S_i for the lcm L of the spacings.  The test reads |x|, so s and
    -s escape together: classes grow chain by chain over the all-FIN prefix
    and the prefixes whose first end is PLUS, which in `all_signatures` order
    are the principal class and every class after it.  Each PLUS-first
    prefix carries every row's x and h, flat (row r's pair at offsets 2r and
    2r + 1), and the offsets of the rows its class checks; the all-FIN
    prefix carries its h alone, its x being zero, and never escapes.  A
    class's rows are read until one fails.  Class i's negation is class 3^k
    - 1 - i, so the first half of the verdicts is the second half mirrored.
    Refused past `MAX_CLASSES`."""
    check_classes(model.k)
    kernel = model.arrangement
    steps = [lcm(*kernel.spacings) // s for s in kernel.spacings]
    units = ([n[0] for n in kernel.normals], [n[1] for n in kernel.normals], *kernel.cross)
    free_hs = [0] * (2 * len(units))  # the all-FIN prefix's h
    level = []  # the PLUS-first prefixes: the offsets of the rows they check, x, h
    for i, t in enumerate(steps):
        pairs = [(a * t, b * t) for a, b in (row[i] for row in units)]  # chain i's, by row
        column = [v for pair in pairs for v in pair]
        negated = [-v for v in column]
        size = [v for a, b in pairs for v in ((a, b) if sqrt3_sign(a, b) >= 0 else (-a, -b))]
        # all FIN but chain i, PLUS: it checks u = e1, e2 and perp(m_j) of
        # every j < i; then each PLUS-first prefix grows by MINUS, FIN, PLUS
        grown = [(tuple(range(0, 4 + 2 * i, 2)), column, free_hs)]
        for checked, xs, hs in level:
            grown.append((checked, list(map(add, xs, negated)), hs))
            grown.append(((*checked, 4 + 2 * i), xs, list(map(add, hs, size))))
            grown.append((checked, list(map(add, xs, column)), hs))
        level = grown
        free_hs = list(map(add, free_hs, size))
    upper = [False]  # the principal class
    for checked, xs, hs in level:
        for r in checked:  # |u.x| <= h: both h - x and h + x are >= 0
            x, y, g, h = xs[r], xs[r + 1], hs[r], hs[r + 1]
            if sqrt3_sign(g - x, h - y) < 0 or sqrt3_sign(g + x, h + y) < 0:
                upper.append(False)
                break
        else:
            upper.append(True)
    return upper[:0:-1] + upper


def eventual_escapers(model: WallModel) -> set[Signature]:
    """The non-principal classes whose flow ray is eventually strictly
    increasing in its distance to the consistent set; none is in the image,
    and a class escapes iff its negation does.  Read off `_escape_verdicts`."""
    return {s for s, escapes in zip(all_signatures(model.k), _escape_verdicts(model)) if escapes}


def _sign_mask(s: Signature) -> int:
    """s's PLUS chains at the even bits and its MINUS chains at the odd ones,
    so s <= t in the closure order iff s's mask is inside t's."""
    return sum(1 << (2 * i + (e < 0)) for i, e in enumerate(s.ends) if e)


def safe_components(signatures: Sequence[Signature]) -> list[list[Signature]]:
    """Connected components of the comparability graph; these are the safe
    path components of the boundary.  Two classes compare iff one sign mask
    holds the other."""
    remaining = [(s, _sign_mask(s)) for s in signatures]
    components: list[list[Signature]] = []
    while remaining:
        component = [remaining.pop()]
        for _, a in component:  # breadth first: the component grows while it is read
            rest = []
            for t in remaining:
                (component if a | t[1] in (a, t[1]) else rest).append(t)
            remaining = rest
        components.append(sorted((s for s, _ in component), key=lambda s: s.ends))
    return sorted(components, key=lambda comp: comp[0].ends)


class ClosureEntry(Record):
    __slots__ = ("signature", "below_in_image", "closure_classes", "ok")
    __hash__ = None


class ClosureReport(Record):
    """Every class a report lists, below a fiber, in its closure or as the
    first violation, is a class of the image, so `to_json` formats each
    entry's class once and reads the lists off those texts."""

    __slots__ = ("entries", "ok", "codim1_closed", "first_violation")
    __hash__ = None

    def to_json(self) -> dict:
        texts = {e.signature.ends: format_signature(e.signature) for e in self.entries}
        return {
            "ok": self.ok,
            "codim1_closed": self.codim1_closed,
            "first_violation": texts[self.first_violation.ends] if self.first_violation else None,
            "fibers": [
                {
                    "signature": texts[e.signature.ends],
                    "below_in_image": [texts[s.ends] for s in e.below_in_image],
                    "closure_adds": [texts[s.ends] for s in e.closure_classes],
                    "ok": e.ok,
                }
                for e in self.entries
            ],
        }


def closure_check(model: WallModel) -> ClosureReport:
    """Symbolic closure formula on the circle: the closure of each fiber
    must equal the union of the fibers of the classes below it in the image.

    The closure of an open arc adds its two endpoint directions; point
    fibers are already closed.  Also verifies that codimension-1 fibers are
    closed (no strictly smaller class in the image).
    """
    image = rho_image(model)
    masks = [_sign_mask(e.signature) for e in image.entries]
    ordered = sorted(zip(image.signatures(), masks), key=lambda p: p[0].ends)
    # arc endpoints are critical directions, whose classes the image holds
    point_class = {
        f.direction: e.signature for e in image.entries for f in e.fibers if f.kind == "point"
    }
    entries = []
    first_violation = None
    codim1_closed = True
    for e, mask in zip(image.entries, masks):
        below = [s for s, m in ordered if m | mask == mask]
        closure_classes = {e.signature.ends: e.signature}
        for fiber in e.fibers:
            if fiber.kind == "arc":
                for end in (point_class[fiber.start], point_class[fiber.end]):
                    closure_classes[end.ends] = end
        closure_sorted = [closure_classes[ends] for ends in sorted(closure_classes)]
        ok = closure_sorted == below
        if not ok and first_violation is None:
            first_violation = e.signature
        if e.signature.codim() == 1 and len(below) != 1:
            codim1_closed = False
        entries.append(ClosureEntry(e.signature, below, closure_sorted, ok))
    return ClosureReport(entries, first_violation is None, codim1_closed, first_violation)


# ---------------------------------------------------------------------------
# lines: restriction and end incomparability


class Line:
    __slots__ = ("direction", "basepoint")

    def __init__(self, direction: Vec, basepoint: Vec = (ZERO, ZERO)):
        self.direction = direction
        self.basepoint = basepoint


class LineRestrictionReport(Record):
    """A line's restricted wall system: ``trivial_cuts`` maps each parallel
    family to its frozen cut, ``merged_chains`` lists per merged chain the
    families whose walls interleave into it, and ``collapse`` maps each family
    to its merged chain's id.  The end classes are rho of the line's two
    directions by construction, so ``commutes`` is always true."""

    __slots__ = (
        "nontrivial_families", "trivial_cuts", "merged_chains", "collapse",
        "plus_end_class", "minus_end_class",
    )
    __hash__ = None
    commutes = True

    def to_json(self) -> dict:
        return {
            "nontrivial_families": self.nontrivial_families,
            "trivial_cuts": {str(k): v for k, v in self.trivial_cuts.items()},
            "merged_chain_count": len(self.merged_chains),
            "collapse": {str(k): v for k, v in self.collapse.items()},
            "plus_end_class": format_signature(self.plus_end_class),
            "minus_end_class": format_signature(self.minus_end_class),
            "commutes": self.commutes,
        }


def restrict_to_line(model: WallModel, line: Line) -> LineRestrictionReport:
    """Restriction of the halfspace system to a line, one chain per family.

    Families whose walls are parallel to the line restrict trivially and
    contribute a frozen cut; the others restrict to cut systems on the
    line.  Families whose crossing progressions coincide as sets collapse
    onto a single chain (the finite-to-one collapse is recorded); on the
    line all restricted halfspaces are mutually nested, and that
    inter-chain order is deliberately not modelled here.  The line's two
    ends are rho of its two directions by construction: the ray toward d
    runs into the PLUS end of family i when n_i . d > 0, the MINUS end when
    n_i . d < 0, and stays FIN when the walls are parallel to the line.
    """
    d = line.direction
    _check_direction(d)
    trivial_cuts: dict[int, int] = {}
    progression: dict[int, tuple[ExactNumber, ExactNumber]] = {}
    for i, fam in enumerate(model.families):
        speed = dot(fam.normal, d)
        base_level = dot(fam.normal, line.basepoint)
        if speed.is_zero():
            # walls parallel to the line; the line must not lie on one
            value = (base_level - fam.offset) / fam.spacing
            cut = value.floor()
            if (value - cut).is_zero():
                raise LineInsideWall(f"line lies on wall {cut} of family {i}", i)
            trivial_cuts[i] = cut + 1
        else:
            # wall n crosses at t with base + t*speed = offset + spacing*n
            step = fam.spacing / speed
            origin = (fam.offset - base_level) / speed
            progression[i] = (origin, step)

    # merge families whose crossing sets coincide: the sets {origin + n*step}
    # agree exactly when |step| and the fractional part of origin/|step| do
    chains: dict[tuple[ExactNumber, ExactNumber], list[int]] = {}
    for i, (origin, step) in progression.items():
        phase = origin / abs(step)
        chains.setdefault((abs(step), phase - phase.floor()), []).append(i)
    merged = list(chains.values())
    collapse = {i: cid for cid, chain in enumerate(merged) for i in chain}

    return LineRestrictionReport(
        sorted(progression), trivial_cuts, merged, collapse, rho(model, d), rho(model, negate(d))
    )


def line_end_incomparability(model: WallModel, line: Line) -> bool:
    """Whether the classes of the two ends of a line are incomparable; true
    for every line of a uniform model, while on a non-uniform one (see
    `ImageReport.uniform`) the ends may compare.  The ends are ρ(d) and
    ρ(−d) = −ρ(d), and a class compares with its negation iff it is principal."""
    return not rho(model, line.direction).is_principal()
