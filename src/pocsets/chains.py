"""The infinite backend: finitely many pairwise-transverse Z-chains.

Chain i carries halfspaces ``h_i(n)`` for n in Z, strictly descending in the
index (``h_i(m) <= h_i(n)`` iff ``m >= n``); elements of distinct chains are
transverse.  An ultrafilter is one cut-or-end state per chain, encoded as an
int (a cut) or `PLUS_END` / `MINUS_END` (``math.inf`` and ``-math.inf``, the
two ends, which it stores as these two objects whatever equal value it is
given); `ChainUltrafilter` refuses any other state when it is built, so
every reader takes its cuts as they are.  A halfspace's chain and index are
ints, and a reader refuses a chain its ultrafilter does not have:

* ``Cut(c)`` contains ``h_i(n)`` for n < c and ``h_i(n)*`` for n >= c;
* ``PlusEnd`` contains every ``h_i(n)``, ``MinusEnd`` every ``h_i(n)*``.

Almost-equality classes are signatures with one of Fin(0), Plus(+1),
Minus(-1) per chain; the principal class is all-Fin.  Every function here is
pure.  Records are `pocsets.core.Record`s; `all_signatures` sets its
classes' ends directly, skipping `Signature`'s check of ends valid by
construction.  They are immutable by convention: nothing assigns to a field
after construction, and the hashed ones (`ChainUltrafilter`, `Signature`,
..) rely on it.  Listing all 3^k classes is refused past `MAX_CLASSES`.
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
    brief,
)

PLUS_END = math.inf
MINUS_END = -math.inf
_ENDS = (PLUS_END, MINUS_END)

CutValue = float  # int for a cut, +-inf for the ends

FIN, PLUS, MINUS = 0, 1, -1
# the most classes (3^k for k chains) a report or poset may list: k <= 10
MAX_CLASSES = 3**10
_END_SYMBOL = {PLUS: "+", FIN: "0", MINUS: "-"}
_SYMBOL_END = {"+": PLUS, "0": FIN, "-": MINUS}


class ChainFamily(Record):
    """An omega-dimensional poc-set given as named pairwise-transverse
    Z-chains; geometry, when any, lives in `pocsets.euclid`."""

    __slots__ = ("names",)

    @property
    def k(self) -> int:
        return len(self.names)


class ChainHalfspace(Record):
    """``h_i(n)``, or ``h_i(n)*`` when starred, for chain i and index n, both
    ints and the chain not negative; anything else is refused, with the
    ``(chain, index)`` as witness."""

    __slots__ = ("chain", "index", "starred")

    def __init__(self, chain: int, index: int, starred: bool = False):
        if type(chain) is not int or type(index) is not int or chain < 0:
            got = brief((chain, index))
            raise MalformedInput(f"a halfspace needs an int chain >= 0 and an int index, got {got}",
                                 (chain, index))
        self.chain = chain
        self.index = index
        self.starred = starred


class ChainUltrafilter(Record):
    """One cut-or-end state per chain; always a valid ultrafilter because
    cross-chain transversality makes UF2 vacuous across chains."""

    __slots__ = ("cuts",)

    def __init__(self, cuts: Sequence[CutValue]):
        """The cuts as a tuple: an int as it is, an end as `PLUS_END` or
        `MINUS_END`, an integral number as its int (``5.0`` as 5); anything
        else is refused, with the states as document values as witness.  All
        ints pass on one type test."""
        cuts = tuple(cuts)
        if {*map(type, cuts)} != {int}:
            read = tuple(map(_read_cut, cuts))
            if None in read:
                states = [c if r is None else r for c, r in zip(cuts, read)]
                raise MalformedInput("a cut must be an integer", _states(states))
            cuts = read
        self.cuts = cuts

    @property
    def k(self) -> int:
        return len(self.cuts)

    def contains(self, h: ChainHalfspace) -> bool:
        cut = self.cuts[_chain(h, len(self.cuts))]
        return (h.index >= cut) if h.starred else (h.index < cut)

    def is_principal(self) -> bool:
        # compared, not `math.isinf`: an int compares with inf exactly, and
        # one past float range cannot be converted
        return PLUS_END not in self.cuts and MINUS_END not in self.cuts

    def int_cuts(self) -> tuple[int, ...]:
        """The cuts, all ints; an end state is refused, with the states as
        document values as witness."""
        if not self.is_principal():
            raise NotPrincipal("ultrafilter has an end state", _states(self.cuts))
        return self.cuts


class Signature(Record):
    """An almost-equality class: Fin(0), Plus(+1) or Minus(-1) per chain."""

    __slots__ = ("ends",)

    def __init__(self, ends: tuple[int, ...]):
        if ends.count(FIN) + ends.count(PLUS) + ends.count(MINUS) != len(ends):
            raise MalformedInput("signature entries must be -1, 0 or 1", ends)
        self.ends = ends

    @property
    def k(self) -> int:
        return len(self.ends)

    def codim(self) -> int:
        return len(self.ends) - self.ends.count(FIN)

    def is_principal(self) -> bool:
        return self.codim() == 0


def _chain(h: ChainHalfspace, k: int) -> int:
    """The halfspace's chain, refused unless it is one of k chains."""
    if h.chain >= k:
        message = f"a halfspace of chain {h.chain} on {k} chains"
        raise MalformedInput(message, (h.chain, h.index))
    return h.chain


def _check_chain_counts(*objects) -> None:
    """Refuse signatures and ultrafilters on different numbers of chains,
    with their chain counts, in argument order, as witness."""
    counts = [o.k for o in objects]
    if len(set(counts)) > 1:
        raise ChainCountMismatch(f"chain counts {counts} differ", counts)


def principal(k: int) -> Signature:
    return Signature((FIN,) * k)


def uf(*cuts: CutValue) -> ChainUltrafilter:
    return ChainUltrafilter(cuts)


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
    _check_chain_counts(a, b)
    total = 0
    for x, y in zip(a.cuts, b.cuts):
        if x == y:
            continue
        if x in _ENDS or y in _ENDS:
            return math.inf
        total += abs(x - y)
    return total


def _read_cut(c) -> Optional[CutValue]:
    """`PLUS_END` or `MINUS_END` for a value equal to an end, the int of an
    integral number, and None for anything else."""
    try:
        if c == PLUS_END or c == MINUS_END:
            return PLUS_END if c > 0 else MINUS_END
        if int(c) == c:
            return int(c)
    except (TypeError, ValueError):  # not a number, or NaN
        pass
    return None


def _states(cuts: Sequence[CutValue]) -> list:
    """The states as document values: ``"+inf"``, ``"-inf"``, the cut or
    ``"nan"``, and a cut that is no int or float by its repr, so that the
    string ``"+inf"`` reads ``"'+inf'"``, not as the end it names."""
    return [repr(c) if not isinstance(c, (int, float)) else "+inf" if c == PLUS_END
            else "-inf" if c == MINUS_END else c if c == c else "nan" for c in cuts]


def median(a: ChainUltrafilter, b: ChainUltrafilter, c: ChainUltrafilter) -> ChainUltrafilter:
    """Per-chain median of cut positions; membership of each halfspace is a
    monotone threshold, so this is the pairwise-intersection median."""
    _check_chain_counts(a, b, c)
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
    i = _chain(h, len(cuts))
    c = cuts[i]
    if not h.starred and h.index == c - 1:
        cuts[i] = c - 1
    elif h.starred and h.index == c:
        cuts[i] = c + 1
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
    _check_chain_counts(s1, s2)
    for a, b in zip(s1.ends, s2.ends):
        if a and a != b:  # an end of s1 (FIN is 0) that s2 does not match
            return False
    return True


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
    _check_chain_counts(a, b)
    return Signature(
        tuple(x if x == y else FIN for x, y in zip(a.ends, b.ends))
    )


def check_classes(k: int) -> None:
    """Refuse k chains whose 3^k classes pass `MAX_CLASSES`, before any is listed."""
    if 3**k > MAX_CLASSES:
        raise MalformedInput(f"{k} chains have 3^{k} classes, more than {MAX_CLASSES}", k)


def all_signatures(k: int) -> list[Signature]:
    """Every class of k chains, in product order of (MINUS, FIN, PLUS);
    refused past `MAX_CLASSES`.  The ends are valid by construction, so no
    class is checked again."""
    check_classes(k)
    new = object.__new__
    out = []
    for ends in product((MINUS, FIN, PLUS), repeat=k):
        s = new(Signature)
        s.ends = ends
        out.append(s)
    return out


class RollerPoset(Record):
    """All 3^k classes with the closure order."""

    __slots__ = ("k", "signatures")
    __hash__ = None

    @classmethod
    def build(cls, k: int) -> "RollerPoset":
        return cls(k, all_signatures(k))

    def covers(self) -> list[tuple[Signature, Signature]]:
        """Covering pairs (a, b) with a < b and nothing strictly between;
        in this poset b covers a iff b sets one FIN chain of a to an end.
        Pairs come by a, and by b in `all_signatures` order, where setting
        chain i moves a class 3^(k-1-i) places: MINUS back, PLUS forward."""
        places = [3 ** (self.k - 1 - i) for i in range(self.k)]
        out = []
        for n, a in enumerate(self.signatures):
            up = [p for p, e in zip(places, a.ends) if e == FIN]  # descending
            out += [(a, self.signatures[n + d]) for d in [-p for p in up] + up[::-1]]
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
    _check_chain_counts(s, u)
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
    _check_chain_counts(s, u)
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
        raise EmptySequence("average_sequence needs a non-empty prefix", [])
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


def _check_geodesic(start: ChainUltrafilter, schedule: MoveSchedule, count: int = 0) -> None:
    """Refuse `count` moves past a schedule without a cycle, a move that is
    not one step (+1 or -1) on a chain of start, and a wall crossed twice."""
    if count > len(schedule.prefix) and not schedule.cycle:
        message = f"{count} moves asked of a schedule of {len(schedule.prefix)} without a cycle"
        raise MalformedInput(message, count)
    # a wall repeats iff some chain's walk turns around; simulate the prefix
    # plus two cycles to find a concrete repeated wall for the witness
    horizon = len(schedule.prefix) + 2 * len(schedule.cycle)
    cuts = list(start.int_cuts())
    seen: dict[tuple[int, int], int] = {}
    for n in range(horizon):
        chain, step = schedule.move(n)
        if step not in (1, -1) or type(chain) is not int or not 0 <= chain < len(cuts):
            message = f"move {n}, {(chain, step)}, is not +1 or -1 on one of {len(cuts)} chains"
            raise MalformedInput(message, (chain, step))
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
    _check_geodesic(start, schedule, count)
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


def check_window(w: int) -> None:
    """Refuse a window that is not an int (a bool is not one) or is
    negative, which holds no wall and no tuple, with the window as witness."""
    if type(w) is not int:
        raise MalformedInput(f"window bound must be an int, not {brief(w)}", w)
    if w < 0:
        raise MalformedInput("window bound must be >= 0", w)


def window_pocset(k: int, w: int) -> FinitePocSet:
    """The finite poc-set of all walls with index in [-w, w]: 2w+1 walls per
    chain, chains mutually transverse; the window passes `check_window`."""
    check_window(w)
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
    """Signs of the window poc-set ultrafilter induced by u; the window
    passes `check_window`."""
    check_window(w)
    signs = []
    for c in u.cuts:
        for n in range(-w, w + 1):
            signs.append(0 if n < c else 1)
    return tuple(signs)


def drop_chains(obj, keep: Sequence[int]):
    """Restriction to the sub-poc-set of whole chains; works on signatures
    and ultrafilters alike.  A kept chain that is no int in 0..k-1 is
    refused, with the chain as witness."""
    if isinstance(obj, Signature):
        build, states = Signature, obj.ends
    elif isinstance(obj, ChainUltrafilter):
        build, states = ChainUltrafilter, obj.cuts
    else:
        raise MalformedInput(f"cannot restrict {type(obj).__name__}", obj)
    for i in keep:
        if type(i) is not int or not 0 <= i < len(states):
            raise MalformedInput(f"chain {i!r} is not one of {len(states)} chains", i)
    return build(tuple(states[i] for i in keep))


# ---------------------------------------------------------------------------
# literals

# compiled by `re.match` on the first cut state parsed, as `core._NAME_RE` is
_CUT_RE = r"^cut\((-?[0-9]+)\)$"


def format_ultrafilter(family: ChainFamily, u: ChainUltrafilter) -> str:
    states = ["+inf" if c == PLUS_END else "-inf" if c == MINUS_END else f"cut({c})"
              for c in u.cuts]
    return " ".join(f"{name}:{state}" for name, state in zip(family.names, states))


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
            m = re.match(_CUT_RE, state)
            if not m:
                raise MalformedInput(f"bad cut state {state!r}", token)
            states[name] = int(m.group(1))
    missing = [n for n in family.names if n not in states]
    if missing:
        raise MalformedInput(f"missing chains {missing}", missing)
    return ChainUltrafilter(tuple(states[n] for n in family.names))


def format_signature(s: Signature) -> str:
    return "(" + ",".join(map(_END_SYMBOL.__getitem__, s.ends)) + ")"


def parse_signature(text: str) -> Signature:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        ends = tuple(_SYMBOL_END[t.strip()] for t in body.split(","))
    except KeyError as exc:
        raise MalformedInput(f"bad signature {text!r}", text) from exc
    return Signature(ends)
