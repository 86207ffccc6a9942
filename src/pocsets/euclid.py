"""Planar wall-system models and the boundary decomposition map.

A model is a chain family where chain i is realized by evenly spaced
parallel walls: wall n of family i is the line ``n_i . p = o_i + s_i n``
and the halfplane ``h_i(n) = {p : n_i . p > o_i + s_i n}``, so halfplanes
shrink as the index grows and a boundary direction xi with ``n_i . xi > 0``
eventually enters every ``h_i(n)``.

All direction tests are exact (the √3 field covers the shipped fixtures);
the circle at infinity is handled symbolically as critical directions plus
open arcs, never as a metrized object.
"""

from __future__ import annotations

import warnings
from functools import cached_property, cmp_to_key
from typing import Optional, Sequence

from .chains import (
    FIN,
    ChainFamily,
    Signature,
    all_signatures,
    class_leq,
    comparable,
    format_signature,
)
from .core import Record
from .errors import LineInsideWall, MalformedInput, NonUniformModelWarning, ZeroDirection
from .exactnum import ONE, ZERO, ExactNumber, Rationalish, integer_pairs, sqrt3_sign

Vec = tuple[ExactNumber, ExactNumber]


def dot(u: Vec, v: Vec) -> ExactNumber:
    return u[0] * v[0] + u[1] * v[1]


def cross(u: Vec, v: Vec) -> ExactNumber:
    return u[0] * v[1] - u[1] * v[0]


def perp(v: Vec) -> Vec:
    """Counterclockwise quarter turn."""
    return (-v[1], v[0])


def negate(v: Vec) -> Vec:
    return (-v[0], -v[1])


def same_direction(u: Vec, v: Vec) -> bool:
    return cross(u, v).is_zero() and dot(u, v).sign() > 0


def normalize(v: Vec) -> Vec:
    """Scale so |x|+|y| = 1; canonical representative of the ray through v."""
    scale = abs(v[0]) + abs(v[1])
    if scale.is_zero():
        raise ZeroDirection("zero vector has no direction")
    return (v[0] / scale, v[1] / scale)


def _half(v: Vec) -> int:
    # 0 for the upper half circle starting at (1,0) inclusive, 1 for the rest
    sy = v[1].sign()
    if sy > 0 or (sy == 0 and v[0].sign() > 0):
        return 0
    return 1


def angular_cmp(u: Vec, v: Vec) -> int:
    """Counterclockwise order from (1,0); exact."""
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = cross(u, v).sign()
    return -c


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


class WallModel:
    """A chain family with planar geometry, one wall family per chain.

    No ``__slots__``: the compiled oracle and the image are kept in the
    instance dict by `cached_property`."""

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
        dirs: list[Vec] = []
        for fam in self.families:
            d = normalize(fam.normal)
            if not any(cross(d, e).is_zero() for e in dirs):
                dirs.append(d)
        return len(dirs)

    def is_uniform(self) -> tuple[bool, Optional[str]]:
        """Structural uniformness: chains are two-way infinite by
        construction, so the only obstruction is a direction perpendicular
        to every family, i.e. all normals parallel."""
        if self.k == 0:
            return False, "no wall families"
        if self.distinct_wall_directions() < 2:
            return False, "all wall normals are parallel"
        return True, None


# ---------------------------------------------------------------------------
# the decomposition map


def rho(model: WallModel, xi: Vec) -> Signature:
    """The minimum boundary class compatible with the direction xi: the
    sign vector of the n_i . xi.  Chain i is FIN (0) when its walls are
    parallel to xi, else PLUS (+1) or MINUS (-1) for the end the ray runs
    into."""
    if xi[0].is_zero() and xi[1].is_zero():
        raise ZeroDirection("boundary directions are non-zero")
    return Signature(tuple(dot(fam.normal, xi).sign() for fam in model.families))


# ---------------------------------------------------------------------------
# the image of rho and its fiber structure


class PointFiber(Record):
    __slots__ = ("direction",)
    kind = "point"

    def __init__(self, direction: Vec):
        self.direction = direction


class ArcFiber(Record):
    """Open counterclockwise arc between two critical directions."""

    __slots__ = ("start", "end")
    kind = "arc"

    def __init__(self, start: Vec, end: Vec):
        self.start = start
        self.end = end

    def representative(self) -> Vec:
        mid = (self.start[0] + self.end[0], self.start[1] + self.end[1])
        if mid[0].is_zero() and mid[1].is_zero():  # half-circle arc
            return perp(self.start)
        return normalize(mid)


class ImageEntry(Record):
    __slots__ = ("signature", "fibers")

    def __init__(self, signature: Signature, fibers: tuple):
        self.signature = signature
        self.fibers = fibers


class ImageReport(Record):
    __slots__ = ("entries", "critical_directions", "uniform", "warning")

    def __init__(
        self,
        entries: tuple[ImageEntry, ...],
        critical_directions: tuple[Vec, ...],
        uniform: bool,
        warning: Optional[str] = None,
    ):
        self.entries = entries
        self.critical_directions = critical_directions
        self.uniform = uniform
        self.warning = warning

    def signatures(self) -> list[Signature]:
        return [e.signature for e in self.entries]

    def contains_class(self, s: Signature) -> bool:
        return any(e.signature == s for e in self.entries)

    def to_json(self) -> dict:
        return {
            "uniform": self.uniform,
            "warning": self.warning,
            "classes": [
                {
                    "signature": format_signature(e.signature),
                    "codim": e.signature.codim(),
                    "fibers": [
                        {"kind": "point", "direction": _vec_json(f.direction)}
                        if f.kind == "point"
                        else {
                            "kind": "arc",
                            "start": _vec_json(f.start),
                            "end": _vec_json(f.end),
                        }
                        for f in e.fibers
                    ],
                }
                for e in self.entries
            ],
        }


def _vec_json(v: Vec) -> list[str]:
    return [str(v[0]), str(v[1])]


def rho_image(model: WallModel) -> ImageReport:
    """Partition of the circle into critical directions (perpendicular to
    some family) and the open arcs between consecutive ones, with the class
    realized on each piece; at most 4d classes for d wall directions.

    Built once per model and kept as `WallModel.image`; a non-uniform model
    warns on every call."""
    image = model.image
    if not image.uniform:
        warnings.warn(
            f"model is not uniform ({image.warning}); rho may take the principal class",
            NonUniformModelWarning,
        )
    return image


def _build_image(model: WallModel) -> ImageReport:
    uniform, reason = model.is_uniform()
    criticals: list[Vec] = []
    for fam in model.families:
        for cand in (perp(fam.normal), perp(negate(fam.normal))):
            c = normalize(cand)
            if not any(same_direction(c, d) for d in criticals):
                criticals.append(c)
    criticals.sort(key=cmp_to_key(angular_cmp))
    fibers: dict[Signature, list] = {}
    if not criticals:
        raise MalformedInput("a wall model needs at least one family", list(model.chains.names))
    # perpendiculars come in antipodal pairs, so there are at least two
    # critical directions and every gap is at most a half circle
    for i, c in enumerate(criticals):
        fibers.setdefault(rho(model, c), []).append(PointFiber(c))
        arc = ArcFiber(c, criticals[(i + 1) % len(criticals)])
        fibers.setdefault(rho(model, arc.representative()), []).append(arc)
    entries = tuple(ImageEntry(s, tuple(fs)) for s, fs in fibers.items())
    return ImageReport(entries, tuple(criticals), uniform, reason)


def eventual_escapers(model: WallModel) -> set[Signature]:
    """The non-principal classes whose flow ray is eventually strictly
    increasing in its distance to the consistent set; none is in the image.

    With m_i = n_i/s_i, the ray toward s gains D0(s) = min_p |s - Mp|_1 <=
    |supp s| per round of |supp s| flips, so it escapes iff D0(s) = |supp s|.
    By LP duality (Schrijver 1986, ch. 7) that holds iff -sum of s_i*m_i over
    supp s lies in the zonotope of [-1, 1]*m_j over the free chains j, and a
    planar zonotope holds x iff |u.x| <= sum |u.m_j| for u = e1, e2 and
    perp(m_j) of each free j.  Each row of dot products u.m_i is scaled to
    integer pairs (a, b), meaning a + b*sqrt3, by one positive factor."""
    ms = [(f.normal[0] / f.spacing, f.normal[1] / f.spacing) for f in model.families]
    rows = []
    for u in ((ONE, ZERO), (ZERO, ONE), *map(perp, ms)):
        row = integer_pairs([dot(u, m) for m in ms])
        rows.append((row, [(a, b) if sqrt3_sign(a, b) >= 0 else (-a, -b) for a, b in row]))
    escapers = set()
    for s in all_signatures(model.k):
        free = [i for i, e in enumerate(s.ends) if e == FIN]
        if len(free) == model.k:
            continue

        def inside(row, size) -> bool:  # |u.x| <= sum |u.m_j|, in pairs
            x = [sum(e * r[t] for e, r in zip(s.ends, row)) for t in (0, 1)]
            h = [sum(size[j][t] for j in free) for t in (0, 1)]
            return all(sqrt3_sign(h[0] - c * x[0], h[1] - c * x[1]) >= 0 for c in (1, -1))

        if all(inside(*rows[i]) for i in (0, 1, *(2 + j for j in free))):
            escapers.add(s)
    return escapers


def safe_components(signatures: Sequence[Signature]) -> list[list[Signature]]:
    """Connected components of the comparability graph; these are the safe
    path components of the boundary."""
    remaining = list(signatures)
    components: list[list[Signature]] = []
    while remaining:
        seed = remaining.pop()
        component = [seed]
        grew = True
        while grew:
            grew = False
            for s in remaining[:]:
                if any(comparable(s, t) for t in component):
                    component.append(s)
                    remaining.remove(s)
                    grew = True
        components.append(sorted(component, key=lambda s: s.ends))
    return sorted(components, key=lambda comp: comp[0].ends)


class ClosureEntry:
    __slots__ = ("signature", "below_in_image", "closure_classes", "ok")

    def __init__(
        self,
        signature: Signature,
        below_in_image: list[Signature],
        closure_classes: list[Signature],
        ok: bool,
    ):
        self.signature = signature
        self.below_in_image = below_in_image
        self.closure_classes = closure_classes
        self.ok = ok


class ClosureReport:
    __slots__ = ("entries", "ok", "codim1_closed", "first_violation")

    def __init__(
        self,
        entries: list[ClosureEntry],
        ok: bool,
        codim1_closed: bool,
        first_violation: Optional[Signature] = None,
    ):
        self.entries = entries
        self.ok = ok
        self.codim1_closed = codim1_closed
        self.first_violation = first_violation

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "codim1_closed": self.codim1_closed,
            "first_violation": format_signature(self.first_violation)
            if self.first_violation
            else None,
            "fibers": [
                {
                    "signature": format_signature(e.signature),
                    "below_in_image": [format_signature(s) for s in e.below_in_image],
                    "closure_adds": [format_signature(s) for s in e.closure_classes],
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
    in_image = {e.signature for e in image.entries}
    # arc endpoints are critical directions, whose classes the image holds
    point_class = {
        f.direction: e.signature for e in image.entries for f in e.fibers if f.kind == "point"
    }
    entries = []
    first_violation = None
    codim1_closed = True
    for e in image.entries:
        below = sorted(
            (s for s in in_image if class_leq(s, e.signature)),
            key=lambda s: s.ends,
        )
        closure_classes = {e.signature}
        for fiber in e.fibers:
            if fiber.kind == "arc":
                closure_classes.add(point_class[fiber.start])
                closure_classes.add(point_class[fiber.end])
        closure_sorted = sorted(closure_classes, key=lambda s: s.ends)
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


class LineRestrictionReport:
    """A line's restricted wall system; its end classes are rho of the
    line's two directions by construction, so ``commutes`` is always true."""

    __slots__ = (
        "nontrivial_families", "trivial_cuts", "merged_chains", "collapse",
        "plus_end_class", "minus_end_class",
    )
    commutes = True

    def __init__(
        self,
        nontrivial_families: list[int],
        trivial_cuts: dict[int, int],
        merged_chains: list[list[int]],
        collapse: dict[int, int],
        plus_end_class: Signature,
        minus_end_class: Signature,
    ):
        self.nontrivial_families = nontrivial_families
        self.trivial_cuts = trivial_cuts  # parallel family -> its frozen cut
        # one list per merged chain: the families whose walls interleave into it
        self.merged_chains = merged_chains
        self.collapse = collapse  # family -> merged chain id
        self.plus_end_class = plus_end_class
        self.minus_end_class = minus_end_class

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
    if d[0].is_zero() and d[1].is_zero():
        raise ZeroDirection("line needs a direction")
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

    # merge families whose crossing sets coincide
    merged: list[list[int]] = []
    collapse: dict[int, int] = {}
    for i, (origin, step) in progression.items():
        for cid, chain in enumerate(merged):
            o2, s2 = progression[chain[0]]
            if abs(step) == abs(s2) and _integer_multiple(origin - o2, abs(step)):
                chain.append(i)
                break
        else:
            cid = len(merged)
            merged.append([i])
        collapse[i] = cid

    return LineRestrictionReport(
        sorted(progression), trivial_cuts, merged, collapse, rho(model, d), rho(model, negate(d))
    )


def _integer_multiple(diff: ExactNumber, step: ExactNumber) -> bool:
    ratio = diff / step
    return ratio.q == 0 and ratio.d == 1


def line_end_incomparability(model: WallModel, line: Line) -> bool:
    """Whether the classes of the two ends of a line are incomparable; true
    for every line of a uniform model."""
    uniform, reason = model.is_uniform()
    if not uniform:
        warnings.warn(
            f"model is not uniform ({reason}); line ends may compare",
            NonUniformModelWarning,
        )
    a = rho(model, line.direction)
    b = rho(model, negate(line.direction))
    return not comparable(a, b)


# ---------------------------------------------------------------------------
# coordinate cubulations of E^d (no planar geometry needed)


def zd_image_signatures(d: int) -> list[Signature]:
    """Classes realized by boundary directions of the standard cubulation of
    E^d: sign vectors of non-zero directions, i.e. every non-principal
    signature."""
    return [s for s in all_signatures(d) if s.codim() > 0]
