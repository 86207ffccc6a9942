"""The infinite backend: finitely many pairwise-transverse Z-chains.

Chain i carries halfspaces ``h_i(n)`` for n in Z, strictly descending in the
index (``h_i(m) <= h_i(n)`` iff ``m >= n``); elements of distinct chains are
transverse.  An ultrafilter is one cut-or-end state per chain, encoded as an
int (a cut) or ``math.inf`` / ``-math.inf`` (the two ends):

* ``Cut(c)`` contains ``h_i(n)`` for n < c and ``h_i(n)*`` for n >= c;
* ``PlusEnd`` contains every ``h_i(n)``, ``MinusEnd`` every ``h_i(n)*``.

Almost-equality classes are signatures with one of Fin(0), Plus(+1),
Minus(-1) per chain; the principal class is all-Fin.  Every function here is
pure.  Records are plain ``__slots__`` classes with a hand-written
``__init__``; equality, hash and repr come from their ``__slots__`` through
`pocsets.core.Record`.  They are immutable by convention: nothing assigns to
a field after construction, and the hashed ones (`ChainUltrafilter`,
`Signature`, ..) rely on it.
"""

from __future__ import annotations

import math
import re
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

from .core import FinitePocSet, Record
from .errors import (
    ChainCountMismatch,
    EmptySequence,
    MalformedInput,
    NotGeodesic,
    NotMember,
    NotMinimal,
    NotPrincipal,
)

PLUS_END = math.inf
MINUS_END = -math.inf

CutValue = float  # int for a cut, +-inf for the ends

FIN, PLUS, MINUS = 0, 1, -1
_END_SYMBOL = {PLUS: "+", FIN: "0", MINUS: "-"}
_SYMBOL_END = {"+": PLUS, "0": FIN, "-": MINUS}


class ChainFamily(Record):
    """An omega-dimensional poc-set given as named pairwise-transverse
    Z-chains; geometry, when any, lives in `pocsets.euclid`."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        self.names = names

    @property
    def k(self) -> int:
        return len(self.names)


class ChainHalfspace(Record):
    __slots__ = ("chain", "index", "starred")

    def __init__(self, chain: int, index: int, starred: bool = False):
        self.chain = chain
        self.index = index
        self.starred = starred


class ChainUltrafilter(Record):
    """One cut-or-end state per chain; always a valid ultrafilter because
    cross-chain transversality makes UF2 vacuous across chains."""

    __slots__ = ("cuts",)

    def __init__(self, cuts: tuple[CutValue, ...]):
        self.cuts = cuts

    @property
    def k(self) -> int:
        return len(self.cuts)

    def contains(self, h: ChainHalfspace) -> bool:
        cut = self.cuts[h.chain]
        return (h.index >= cut) if h.starred else (h.index < cut)

    def is_principal(self) -> bool:
        return all(not math.isinf(c) for c in self.cuts)

    def int_cuts(self) -> tuple[int, ...]:
        """The cuts as ints; refused for an end state, with the states as
        document values (``"+inf"``, ``"-inf"`` or the cut) as witness."""
        if not self.is_principal():
            states = [
                "+inf" if c == PLUS_END else "-inf" if c == MINUS_END else int(c)
                for c in self.cuts
            ]
            raise NotPrincipal("ultrafilter has an end state", states)
        return tuple(int(c) for c in self.cuts)


class Signature(Record):
    """An almost-equality class: Fin(0), Plus(+1) or Minus(-1) per chain."""

    __slots__ = ("ends",)

    def __init__(self, ends: tuple[int, ...]):
        if any(e not in (FIN, PLUS, MINUS) for e in ends):
            raise MalformedInput("signature entries must be -1, 0 or 1", ends)
        self.ends = ends

    @property
    def k(self) -> int:
        return len(self.ends)

    def codim(self) -> int:
        return sum(1 for e in self.ends if e != FIN)

    def is_principal(self) -> bool:
        return self.codim() == 0


def principal(k: int) -> Signature:
    return Signature((FIN,) * k)


def uf(*cuts: CutValue) -> ChainUltrafilter:
    return ChainUltrafilter(tuple(cuts))


def sig(*ends: int) -> Signature:
    return Signature(tuple(ends))


# ---------------------------------------------------------------------------
# classes of ultrafilters


def cf_class(u: ChainUltrafilter) -> Signature:
    return Signature(
        tuple(
            PLUS if c == PLUS_END else MINUS if c == MINUS_END else FIN
            for c in u.cuts
        )
    )


def delta(a: ChainUltrafilter, b: ChainUltrafilter):
    """Wall-counting distance; infinite iff some chain differs in end
    state."""
    if a.k != b.k:
        raise ChainCountMismatch(f"{a.k} chains vs {b.k}")
    total = 0
    for x, y in zip(a.cuts, b.cuts):
        if x == y:
            continue
        if math.isinf(x) or math.isinf(y):
            return math.inf
        total += abs(int(x) - int(y))
    return total


def median(a: ChainUltrafilter, b: ChainUltrafilter, c: ChainUltrafilter) -> ChainUltrafilter:
    """Per-chain median of cut positions; membership of each halfspace is a
    monotone threshold, so this is the pairwise-intersection median."""
    if not (a.k == b.k == c.k):
        raise ChainCountMismatch(f"{a.k}, {b.k}, {c.k}")
    return ChainUltrafilter(
        tuple(sorted((x, y, z))[1] for x, y, z in zip(a.cuts, b.cuts, c.cuts))
    )


def min_set(u: ChainUltrafilter) -> list[ChainHalfspace]:
    """Minimal members of a principal ultrafilter: per chain, the deepest
    plain member h_i(c-1) and the shallowest starred one h_i(c)*."""
    cuts = u.int_cuts()
    out: list[ChainHalfspace] = []
    for i, c in enumerate(cuts):
        out.append(ChainHalfspace(i, c - 1, False))
        out.append(ChainHalfspace(i, c, True))
    return out


def local_cubes(u: ChainUltrafilter, dim: int) -> list[tuple[ChainHalfspace, ...]]:
    """Transverse subsets of min(u) of the given size, i.e. the cubes of
    that dimension at this vertex.  No global complex exists on this
    backend, so local structure is all that is ever exposed: choose dim
    distinct chains and one of the two minimal elements on each."""
    mins = min_set(u)
    per_chain = list(zip(mins[::2], mins[1::2]))
    return [pick for chosen in combinations(per_chain, dim) for pick in product(*chosen)]


def flip(u: ChainUltrafilter, h: ChainHalfspace) -> ChainUltrafilter:
    cuts = list(u.int_cuts())
    c = cuts[h.chain]
    if not h.starred and h.index == c - 1:
        cuts[h.chain] = c - 1
    elif h.starred and h.index == c:
        cuts[h.chain] = c + 1
    else:
        raise NotMinimal(f"{h} is not minimal", h)
    return ChainUltrafilter(tuple(cuts))


def cf_truncate(u: ChainUltrafilter, b: ChainHalfspace) -> ChainUltrafilter:
    """[u]_b = u minus everything below b plus everything above b*.

    On this backend only b's chain changes: to Cut(n) for plain b=h_i(n),
    to Cut(n+1) for starred.  The class changes exactly when b sat on an
    infinite descending chain of u, i.e. when its chain state was an end.
    """
    if not u.contains(b):
        raise NotMember(f"{b} is not a member", b)
    cuts = list(u.cuts)
    cuts[b.chain] = b.index if not b.starred else b.index + 1
    return ChainUltrafilter(tuple(cuts))


# ---------------------------------------------------------------------------
# the Roller boundary order


def class_leq(s1: Signature, s2: Signature) -> bool:
    """s1 <= s2 in the closure order: wherever s1 has an end, s2 matches.

    Derivation note: s1 <= s2 means s2 is contained in the Tychonoff closure
    of s1; on this backend the closure of a class fixes its end chains and
    frees its Fin chains (cut sequences reach either end), giving the
    componentwise rule.  The all-Fin class is the unique minimum.
    """
    if s1.k != s2.k:
        raise ChainCountMismatch(f"{s1.k} vs {s2.k}")
    return all(a == FIN or a == b for a, b in zip(s1.ends, s2.ends))


def class_lt(s1: Signature, s2: Signature) -> bool:
    return s1 != s2 and class_leq(s1, s2)


def comparable(s1: Signature, s2: Signature) -> bool:
    return class_leq(s1, s2) or class_leq(s2, s1)


def class_codim(s: Signature) -> tuple[int, Optional[Signature]]:
    """Codimension (number of end chains) plus, when positive, a witness
    class one step below."""
    codim = s.codim()
    if codim == 0:
        return 0, None
    ends = list(s.ends)
    ends[next(i for i, e in enumerate(ends) if e != FIN)] = FIN
    return codim, Signature(tuple(ends))


def class_gcd(a: Signature, b: Signature) -> Signature:
    """Greatest lower bound: shared ends survive, everything else is Fin."""
    if a.k != b.k:
        raise ChainCountMismatch(f"{a.k} vs {b.k}")
    return Signature(
        tuple(x if x == y else FIN for x, y in zip(a.ends, b.ends))
    )


def gcd_via_median(a: Signature, b: Signature) -> Signature:
    """The same bound computed as the class of med(pi, rep(a), rep(b)) on
    representative ultrafilters; the dual route for gcd tests."""
    rep = lambda s: ChainUltrafilter(
        tuple(
            PLUS_END if e == PLUS else MINUS_END if e == MINUS else 0
            for e in s.ends
        )
    )
    pi = ChainUltrafilter((0,) * a.k)
    return cf_class(median(pi, rep(a), rep(b)))


def all_signatures(k: int) -> list[Signature]:
    return [Signature(ends) for ends in product((MINUS, FIN, PLUS), repeat=k)]


class RollerPoset:
    """All 3^k classes with the closure order."""

    __slots__ = ("k", "signatures")

    def __init__(self, k: int, signatures: list[Signature]):
        self.k = k
        self.signatures = signatures

    @classmethod
    def build(cls, k: int) -> "RollerPoset":
        return cls(k, all_signatures(k))

    def covers(self) -> list[tuple[Signature, Signature]]:
        """Covering pairs (a, b) with a < b and nothing strictly between;
        in this poset b covers a iff b adds exactly one end to a."""
        out = []
        for a in self.signatures:
            for b in self.signatures:
                if class_lt(a, b) and b.codim() == a.codim() + 1:
                    out.append((a, b))
        return out

    def to_json(self) -> dict:
        return {
            "chain_count": self.k,
            "classes": [
                {"signature": format_signature(s), "codim": s.codim()}
                for s in self.signatures
            ],
            "covers": [
                [format_signature(a), format_signature(b)]
                for a, b in self.covers()
            ],
        }


# ---------------------------------------------------------------------------
# projection, canonical flow, averaging, geodesic limits


def project_to_class(s: Signature, u: ChainUltrafilter) -> ChainUltrafilter:
    """The retraction onto the closure of s: end chains are forced, Fin
    chains keep their state.  Idempotent; pointwise fixes the closure."""
    if s.k != u.k:
        raise ChainCountMismatch(f"{s.k} vs {u.k}")
    return ChainUltrafilter(
        tuple(
            PLUS_END if e == PLUS else MINUS_END if e == MINUS else c
            for e, c in zip(s.ends, u.cuts)
        )
    )


def flow_step(s: Signature, u: ChainUltrafilter) -> ChainUltrafilter:
    """One step of the canonical flow toward s: flip every minimal element
    opposing s, i.e. move each Plus chain's cut up and each Minus chain's
    cut down; iterates converge pointwise to `project_to_class`."""
    if s.k != u.k:
        raise ChainCountMismatch(f"{s.k} vs {u.k}")
    cuts = list(u.int_cuts())
    for i, e in enumerate(s.ends):
        cuts[i] += 1 if e == PLUS else -1 if e == MINUS else 0
    return ChainUltrafilter(tuple(cuts))


def flow_cuts(s: Signature, cuts: tuple[int, ...], flips: int) -> Iterator[tuple[int, ...]]:
    """The canonical flow expanded into single elementary moves, cycling the
    non-Fin chains in index order, on plain cut tuples: yields ``cuts`` and
    then one tuple per move, flips+1 in all (only ``cuts`` for the principal
    class).  The walk is geodesic (each wall crossed once)."""
    yield cuts
    active = [i for i, e in enumerate(s.ends) if e != FIN]
    if not active:
        return
    point = list(cuts)
    for step in range(flips):
        i = active[step % len(active)]
        point[i] += s.ends[i]
        yield tuple(point)


def flow_flip_sequence(
    s: Signature, start: ChainUltrafilter, flips: int
) -> list[ChainUltrafilter]:
    """The points of `flow_cuts` from ``start`` as ultrafilters."""
    return [ChainUltrafilter(c) for c in flow_cuts(s, start.int_cuts(), flips)]


def average_sequence(
    seq: Sequence[ChainUltrafilter], sigma: ChainUltrafilter
) -> list[ChainUltrafilter]:
    """The median-averaged sequence: u'_1 = u_1,
    u'_{n+1} = med(u'_n, u_{n+1}, sigma).

    For a prefix of a sequence converging pointwise to sigma (the caller
    asserts this), the projected distance to sigma is non-increasing and
    eventually zero."""
    if not seq:
        raise EmptySequence("average_sequence needs a non-empty prefix")
    out = [seq[0]]
    for nxt in seq[1:]:
        out.append(median(out[-1], nxt, sigma))
    return out


class MoveSchedule:
    """An eventually-periodic move schedule: each move is (chain, +-1)."""

    __slots__ = ("prefix", "cycle")

    def __init__(
        self, prefix: tuple[tuple[int, int], ...], cycle: tuple[tuple[int, int], ...] = ()
    ):
        self.prefix = prefix
        self.cycle = cycle

    def move(self, n: int) -> tuple[int, int]:
        if n < len(self.prefix):
            return self.prefix[n]
        if not self.cycle:
            raise IndexError("schedule exhausted")
        return self.cycle[(n - len(self.prefix)) % len(self.cycle)]


def _check_geodesic(start: ChainUltrafilter, schedule: MoveSchedule) -> None:
    # a wall repeats iff some chain's walk turns around; simulate the prefix
    # plus two cycles to find a concrete repeated wall for the witness
    horizon = len(schedule.prefix) + 2 * len(schedule.cycle)
    cuts = list(start.int_cuts())
    seen: dict[tuple[int, int], int] = {}
    for n in range(horizon):
        chain, step = schedule.move(n)
        wall = (chain, cuts[chain] if step > 0 else cuts[chain] - 1)
        if wall in seen:
            raise NotGeodesic(
                f"wall {wall} flipped at steps {seen[wall]} and {n}",
                (wall, seen[wall], n),
            )
        seen[wall] = n
        cuts[chain] += step


def geodesic_points(
    start: ChainUltrafilter, schedule: MoveSchedule, count: int
) -> list[ChainUltrafilter]:
    """The first count+1 points of the scheduled ray, after verifying the
    consecutive-delta-one geodesic property on that prefix."""
    _check_geodesic(start, schedule)
    cuts = list(start.int_cuts())
    points = [start]
    for n in range(count):
        chain, step = schedule.move(n)
        cuts[chain] += step
        points.append(ChainUltrafilter(tuple(cuts)))
    return points


def limit_of_geodesic(
    start: ChainUltrafilter, schedule: MoveSchedule
) -> ChainUltrafilter:
    """Pointwise limit of an eventually-periodic geodesic ray: chains moved
    by the cycle run to their end, chains moved only in the prefix stop at
    the accumulated cut."""
    _check_geodesic(start, schedule)
    cuts = list(start.int_cuts())
    limits: list[CutValue] = list(cuts)
    for chain, step in schedule.prefix:
        limits[chain] += step
    for chain, step in schedule.cycle:
        limits[chain] = PLUS_END if step > 0 else MINUS_END
    return ChainUltrafilter(tuple(limits))


# ---------------------------------------------------------------------------
# finite windows and chain dropping


def window_pocset(k: int, w: int) -> FinitePocSet:
    """The finite poc-set of all walls with index in [-w, w]: 2w+1 walls per
    chain, chains mutually transverse."""
    per = 2 * w + 1
    edges = []
    for i in range(k):
        for n in range(-w, w):
            deeper = window_pair(k, w, i, n + 1)
            edges.append((2 * deeper, 2 * window_pair(k, w, i, n)))
    return FinitePocSet.from_order_generators(k * per, edges)


def window_pair(k: int, w: int, chain: int, index: int) -> int:
    if not (-w <= index <= w):
        raise MalformedInput(f"index {index} outside window {w}", index)
    return chain * (2 * w + 1) + (index + w)


def restrict_to_window(u: ChainUltrafilter, w: int):
    """Signs of the window poc-set ultrafilter induced by u."""
    signs = []
    for c in u.cuts:
        for n in range(-w, w + 1):
            signs.append(0 if n < c else 1)
    return tuple(signs)


def drop_chains(obj, keep: Sequence[int]):
    """Restriction to the sub-poc-set of whole chains; works on signatures
    and ultrafilters alike."""
    if isinstance(obj, Signature):
        return Signature(tuple(obj.ends[i] for i in keep))
    if isinstance(obj, ChainUltrafilter):
        return ChainUltrafilter(tuple(obj.cuts[i] for i in keep))
    raise MalformedInput(f"cannot restrict {type(obj).__name__}", obj)


# ---------------------------------------------------------------------------
# literals

_CUT_RE = re.compile(r"^cut\((-?[0-9]+)\)$")


def format_ultrafilter(family: ChainFamily, u: ChainUltrafilter) -> str:
    parts = []
    for name, c in zip(family.names, u.cuts):
        if c == PLUS_END:
            parts.append(f"{name}:+inf")
        elif c == MINUS_END:
            parts.append(f"{name}:-inf")
        else:
            parts.append(f"{name}:cut({int(c)})")
    return " ".join(parts)


def parse_ultrafilter(family: ChainFamily, text: str) -> ChainUltrafilter:
    states: dict[str, CutValue] = {}
    for token in text.split():
        name, _, state = token.partition(":")
        if name not in family.names or not state:
            raise MalformedInput(f"bad ultrafilter token {token!r}", token)
        if state == "+inf":
            states[name] = PLUS_END
        elif state == "-inf":
            states[name] = MINUS_END
        else:
            m = _CUT_RE.match(state)
            if not m:
                raise MalformedInput(f"bad cut state {state!r}", token)
            states[name] = int(m.group(1))
    missing = [n for n in family.names if n not in states]
    if missing:
        raise MalformedInput(f"missing chains {missing}", missing)
    return ChainUltrafilter(tuple(states[n] for n in family.names))


def format_signature(s: Signature) -> str:
    return "(" + ",".join(_END_SYMBOL[e] for e in s.ends) + ")"


def parse_signature(text: str) -> Signature:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        ends = tuple(_SYMBOL_END[t.strip()] for t in body.split(","))
    except KeyError as exc:
        raise MalformedInput(f"bad signature {text!r}", text) from exc
    return Signature(ends)
