"""Finite poc-sets and their ultrafilter spaces.

A poc-set is a poset with a minimum element 0 and an order-reversing
involution ``h -> h*`` such that ``h <= h*`` forces ``h = 0``.  This module
is the ground-truth oracle layer: everything is computed exactly and
exhaustively, with small, documented caps.

Element indexing convention (used everywhere in this package):

* proper pair ``k`` (0-based) occupies handles ``2k`` (plain, named
  ``h{k+1}``) and ``2k+1`` (starred, ``h{k+1}*``);
* the trivial pair sits last: ``0`` at handle ``2n``, ``0*`` at ``2n+1``;
* ``star(e) = e ^ 1``; canonical element order is handle order.

Records are ``__slots__`` classes (dataclasses cost start-up) whose
constructor, equality, hash and repr `Record` compiles from ``__slots__``,
each on its first call; one holding a list or a dict sets ``__hash__ =
None``, and only one that checks, converts or defaults a field writes its
own constructor.  Records are immutable by convention and every operation
is a pure function: its answer depends on its arguments alone.  Besides its
order, a poc-set holds its ultrafilter walk and the records built from it,
the vertices of its dual cubing: walked on first use, then read by
`ultrafilters`, `support`, `vset_nonempty` and `pocsets.cubing`.  The closed
order fixes the walk, so holding it changes no answer, and threads racing
on the first use each hold an equal one, so concurrent use needs no
synchronization.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import (
    AxiomViolation,
    BackendMismatch,
    MalformedInput,
    NotAFilterBase,
    NotMaximalTransverse,
    NotMinimal,
    TrivialElement,
)

# Exhaustive transverse-set search is exponential; this is an oracle layer,
# not a performance layer.
MAX_PAIRS_FOR_DIMENSION = 32
# the most proper pairs a poc-set may have: building one at 512 pairs takes
# about 0.1 s for a chain and 5 ms with no edges on a 2-vCPU VM, and three
# to five times as long per doubling
MAX_PAIRS = 512
# the most ultrafilters `FinitePocSet.ultrafilters` lists, up to 2^n for n
# pairs; the enumeration is refused as it grows past this
MAX_ULTRAFILTERS = 2**14

# a pattern, not a compiled one: `re.match` compiles it on the first handle
# parsed and caches it, so a run that parses no handle never compiles it
_NAME_RE = r"^(?:h([1-9][0-9]*)|0)(\*)?$"


def star(e: int) -> int:
    """The paired element; an involution without proper fixed points."""
    return e ^ 1


def is_star(e: int) -> bool:
    return bool(e & 1)


def pair_of(e: int) -> int:
    return e >> 1


class _InitSignature:
    """A record class's ``__signature__``: reading it compiles the class's
    constructor, and None leaves `inspect` to read that constructor."""

    def __get__(self, instance, owner):
        if owner is not Record and owner.__init__ is Record.__init__:
            _compile(owner, "__init__")


def _first_use(name: str):
    """`Record`'s ``name``: compiles the class's own, then calls it."""

    def method(self, *args, **kwargs):
        return _compile(type(self), name)(self, *args, **kwargs)

    method.__name__, method.__qualname__ = name, f"Record.{name}"
    return method


class Record:
    """Base of the records compared by value: each subclass gets `__init__`
    (its fields in slot order, by position or keyword), `__eq__` (the same
    class with equal fields), `__hash__` (of the field tuple) and `__repr__`
    (``Name(field=value, ...)``), each written out from its ``__slots__`` on
    the method's first call (`__init__` also on a signature read): as fast as
    a written one, at no cost to an import, and never over one the class
    writes itself, such as ``__hash__ = None``."""

    __slots__ = ()
    __signature__ = _InitSignature()
    __init__, __eq__, __hash__, __repr__ = map(
        _first_use, ("__init__", "__eq__", "__hash__", "__repr__")
    )


class Ultrafilter(Record):
    """A UF1+UF2 subset of a finite poc-set, held as its sign vector alone.

    ``signs[k]`` is 0 when pair k's plain element is a member and 1 when the
    starred one is; ``0*`` is always a member.  Membership is read off the
    signs (``e in u`` looks at ``signs[e >> 1]``), and `members` and
    `sorted_members` derive every member handle, ``0*`` included, so they
    cannot disagree with the signs.  Lexicographic order of ``signs`` is the
    canonical enumeration order.
    """

    __slots__ = ("signs",)

    def __contains__(self, e: int) -> bool:
        k, n = e >> 1, len(self.signs)
        if 0 <= k < n:
            return self.signs[k] == e & 1
        return e == 2 * n + 1  # 0* is in every ultrafilter, 0 in none

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.sorted_members())

    def sorted_members(self) -> list[int]:
        return [2 * k + s for k, s in enumerate(self.signs)] + [2 * len(self.signs) + 1]


class PairClassification(Record):
    """Nested with a witness relation ``lhs <= rhs``, or transverse with
    witness None; ``kind`` is "nested" or "transverse"."""

    __slots__ = ("kind", "witness")

    @property
    def nested(self) -> bool:
        return self.kind == "nested"


class UltrafilterCheck(Record):
    """Outcome of an ultrafilter validity test: ``ok``, the failed ``axiom``
    ("UF1" or "UF2", None when ok) and its violation witness."""

    __slots__ = ("ok", "axiom", "witness")


class FilterBase(Record):
    """A validated UF2-only subset; build with `FinitePocSet.filterbase`."""

    __slots__ = ("members",)

    def __iter__(self):
        return iter(sorted(self.members))


class FinitePocSet:
    """An explicit finite poc-set.

    The order relation is stored as upward-closure bitmasks over the handle
    indexing, always reflexive-transitively closed and star-symmetric.
    """

    __slots__ = ("n_pairs", "_up", "_transverse_pairs", "_vertices")

    def __init__(self, n_pairs: int, up: Sequence[int], _validated: bool = False):
        if not _validated:
            raise TypeError(
                "use FinitePocSet.from_order_generators or from_leq_matrix"
            )
        self.n_pairs = n_pairs
        self._up = tuple(up)
        self._transverse_pairs = self._pair_transversality()

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_order_generators(
        cls, n_pairs: int, edges: Iterable[tuple[int, int]] = ()
    ) -> "FinitePocSet":
        """Validate raw order data into a poc-set.

        ``edges`` are generating relations ``a <= b``; the relation used is
        the reflexive-transitive closure of the generators together with
        their star-duals ``b* <= a*`` and the trivial bounds ``0 <= h <= 0*``.
        Raises `MalformedInput` for a dangling handle and `AxiomViolation`
        naming the first broken axiom with a witness pair.
        """
        check_pair_count(n_pairs)
        m = 2 * n_pairs + 2
        top = 1 << (m - 1)  # 0*
        up = [1 << e | top for e in range(m - 2)] + [(1 << m) - 1, top]
        for a, b in edges:
            if not (0 <= a < m and 0 <= b < m):
                raise MalformedInput(f"dangling handle in edge ({a}, {b})", (a, b))
            up[a] |= 1 << b
            up[b ^ 1] |= 1 << (a ^ 1)
        return cls(n_pairs, _closed_rows(n_pairs, up), _validated=True)

    @classmethod
    def from_leq_matrix(cls, n_pairs: int, leq) -> "FinitePocSet":
        """Build from a full boolean relation ``leq[a][b]``; unlike the
        generator path, order-reversal of the involution is checked, not
        imposed.  The diagonal is implied: ``_from_rows`` sets it."""
        check_pair_count(n_pairs)
        m = 2 * n_pairs + 2
        if len(leq) != m or any(len(row) != m for row in leq):
            raise MalformedInput("relation matrix has wrong shape", len(leq))
        digits = bytes.maketrans(b"\0\1", b"01")  # a row is read as one binary numeral
        rows = (int(bytes(map(bool, reversed(row))).translate(digits), 2) for row in leq)
        return cls._from_rows(n_pairs, rows)

    @classmethod
    def _from_rows(cls, n_pairs: int, up: Iterable[int]) -> "FinitePocSet":
        """Close relation rows (bit b of ``up[a]`` when a <= b), refusing
        the first (a, b) in row-major order at which the involution does not
        reverse the order: row a must be column a* with bit pairs swapped.
        Every a <= a is set first: the search in `_closed_rows` only stops
        on reflexive rows."""
        up = [row | 1 << a for a, row in enumerate(up)]
        m = len(up)
        even = (4 ** (m // 2) - 1) // 3  # bits 0, 2, 4, ..
        transposed = zip(*(bin(row | 1 << m)[3:] for row in reversed(up)))  # bits m-1, .., 0
        columns = [int("".join(bits), 2) for bits in transposed][::-1]
        for a, row in enumerate(up):
            dual = columns[a ^ 1]
            mismatch = row ^ ((dual & even) << 1 | (dual >> 1) & even)
            if mismatch:
                b = (mismatch & -mismatch).bit_length() - 1
                names = f"{_raw_name(a, n_pairs)} <= {_raw_name(b, n_pairs)}"
                message = f"{names} does not match the dual relation"
                raise AxiomViolation("involution not order-reversing", message, (a, b))
        return cls(n_pairs, _closed_rows(n_pairs, up), _validated=True)

    def _pair_transversality(self) -> tuple[int, ...]:
        """Bitmask per pair of the pairs transverse to it.

        Transversality only depends on the pairs, not on orientations: the
        four defining relations for (h, k) coincide with those for (h*, k).
        Pair j is nested with pair i iff a handle of j lies above a handle
        of i, i.e. iff bit 2j or 2j+1 of ``up[2i] | up[2i+1]`` is set: with
        each bit pair folded onto its even bit, and a marker bit m on top so
        that ``bin`` writes "0b1" and then bits m-1, .., 0, every second digit.
        """
        m, up, pairs = 2 * self.n_pairs + 2, self._up, (1 << self.n_pairs) - 1
        return tuple(
            pairs & ~int(bin(above | above >> 1 | 1 << m)[4::2], 2)
            for above in (up[e] | up[e + 1] for e in range(0, m - 2, 2))
        )

    # ------------------------------------------------------------------
    # basic queries

    @property
    def element_count(self) -> int:
        return 2 * self.n_pairs + 2

    @property
    def zero(self) -> int:
        return 2 * self.n_pairs

    @property
    def zero_star(self) -> int:
        return 2 * self.n_pairs + 1

    def elements(self) -> range:
        return range(self.element_count)

    def proper_elements(self) -> range:
        return range(2 * self.n_pairs)

    def is_proper(self, e: int) -> bool:
        return 0 <= e < 2 * self.n_pairs

    def leq(self, a: int, b: int) -> bool:
        up = self._up
        if not (0 <= a < len(up) and 0 <= b < len(up)):
            self._handle_set((a, b))  # refuses the least dangling one
        return bool(up[a] & (1 << b))

    def name(self, e: int) -> str:
        if not 0 <= e < len(self._up):
            self._handle_set((e,))  # refuses it
        return _raw_name(e, self.n_pairs)

    def handle(self, name: str) -> int:
        return parse_handle(name, self.n_pairs)

    # ------------------------------------------------------------------
    # relations between elements

    def classify_pair(self, h: int, k: int) -> PairClassification:
        """Nested (with the witnessing relation, normalized to one of
        ``h<=k``, ``k<=h``, ``h<=k*``, ``k*<=h``) or transverse."""
        self._check_proper((h, k))
        for lhs, rhs in ((h, k), (k, h), (h, star(k)), (star(k), h)):
            if self.leq(lhs, rhs):
                return PairClassification("nested", (lhs, rhs))
        return PairClassification("transverse", None)

    def transverse(self, h: int, k: int) -> bool:
        """Whether h and k are transverse: never for the trivial pair, and a
        handle outside 0..2n+1 is refused."""
        if not (0 <= h < len(self._up) and 0 <= k < len(self._up)):
            self._handle_set((h, k))  # refuses the least dangling one
        i, j = pair_of(h), pair_of(k)
        return i != j and i < self.n_pairs and bool(self._transverse_pairs[i] >> j & 1)

    def interval(self, a: int, b: int) -> list[int]:
        """``{h : a <= h <= b}`` in canonical order; empty when ``a !<= b``."""
        self._check_proper((a, b))
        return [e for e in self.elements() if self.leq(a, e) and self.leq(e, b)]

    def dimension(self) -> int:
        """Size of a maximum pairwise-transverse set of proper elements.

        Exact branch-and-bound over pairs (transversality is pair-level), so
        the answer equals the max clique of the pair-transversality graph.
        """
        if self.n_pairs > MAX_PAIRS_FOR_DIMENSION:
            raise MalformedInput(
                f"dimension search capped at {MAX_PAIRS_FOR_DIMENSION} pairs",
                self.n_pairs,
            )
        best = 0
        masks = self._transverse_pairs

        def extend(clique_size: int, candidates: int) -> None:
            nonlocal best
            if clique_size + candidates.bit_count() <= best:
                return
            if not candidates:
                best = max(best, clique_size)
                return
            while candidates:
                if clique_size + candidates.bit_count() <= best:
                    return
                v = (candidates & -candidates).bit_length() - 1
                candidates &= candidates - 1
                extend(clique_size + 1, candidates & masks[v])

        extend(0, (1 << self.n_pairs) - 1 if self.n_pairs else 0)
        return best

    # ------------------------------------------------------------------
    # ultrafilters

    def ultrafilter_from_signs(self, signs: Sequence[int]) -> Ultrafilter:
        """The ultrafilter of these signs, one 0 or 1 per pair; UF2 is not
        checked.  Another length, or another entry, is malformed input."""
        signs = tuple(signs)
        if len(signs) != self.n_pairs:
            message = f"a sign vector of length {len(signs)} for {self.n_pairs} pairs"
            raise MalformedInput(message, len(signs))
        for k, s in enumerate(signs):
            if type(s) is not int or s not in (0, 1):
                raise MalformedInput(f"sign {s!r} of h{k + 1} is not 0 or 1", k)
        return Ultrafilter(signs)

    def ultrafilter_from_members(self, members: Iterable[int]) -> Ultrafilter:
        mset = set(members) | {self.zero_star}
        check = self.is_ultrafilter(mset)
        if not check.ok:
            raise AxiomViolation(
                check.axiom, f"set violates ultrafilter axiom {check.axiom}", check.witness
            )
        signs = tuple(1 if (2 * k + 1) in mset else 0 for k in range(self.n_pairs))
        return self.ultrafilter_from_signs(signs)

    def is_ultrafilter(self, members: Iterable[int]) -> UltrafilterCheck:
        """UF1 (one element of every pair, the trivial pair included) and
        then UF2, with the witness of the first axiom that fails."""
        mset = self._handle_set(members)
        for k in range(self.n_pairs + 1):
            if (2 * k in mset) == (2 * k + 1 in mset):
                return UltrafilterCheck(False, "UF1", 2 * k)
        bad = self.check_filterbase(mset)
        return UltrafilterCheck(bad is None, None if bad is None else "UF2", bad)

    def ultrafilters(self) -> list[Ultrafilter]:
        """All ultrafilters in canonical (lexicographic signs) order, from the
        star-mask walk; the trivial poc-set has the single one {0*}.  A new
        list each call, of the records the poc-set holds."""
        return list(self._vertex_set()[1])

    def _vertex_set(self) -> tuple[list[tuple[tuple[int, ...], int]], tuple[Ultrafilter, ...]]:
        """The walk of `_walk_ultrafilters` and its records, walked on first
        use and held for the poc-set's life: its order is closed, so its
        vertices never change.  A refused walk is not held, so every call
        refuses it again; racing threads each hold an equal one."""
        try:
            return self._vertices
        except AttributeError:
            walk = self._walk_ultrafilters()
            held = self._vertices = walk, tuple([Ultrafilter(signs) for signs, _ in walk])
            return held

    def _walk_ultrafilters(self) -> list[tuple[tuple[int, ...], int]]:
        """``(signs, stars)`` of each ultrafilter in canonical order,
        ``stars`` masking the proper members' stars.  Pair by pair, a partial
        choice grows by each e keeping UF2: no chosen star lies above e (c <=
        e* iff e <= c*).  A partial choice is a filter base and extends, so the
        list never shrinks; it is refused once it passes `MAX_ULTRAFILTERS`."""
        up, n, level = self._up, self.n_pairs, [((), 0)]
        for k in range(n):
            a, b, grown = 2 * k, 2 * k + 1, []
            for signs, stars in level:
                if not up[a] & stars:
                    grown.append((signs + (0,), stars | 1 << b))
                if not up[b] & stars:
                    grown.append((signs + (1,), stars | 1 << a))
            if len(grown) > MAX_ULTRAFILTERS:
                raise MalformedInput(f"more than {MAX_ULTRAFILTERS} ultrafilters to enumerate", n)
            level = grown
        return level

    def check_filterbase(self, members: Iterable[int]) -> Optional[tuple[int, int]]:
        """None when UF2 holds, else the canonical violating pair: the least
        (x, y) of members with ``x <= y*``, preferring a plain x."""
        mset = self._handle_set(members)
        stars = _star_mask(mset)
        for x in sorted(mset, key=lambda e: (is_star(e), e)):
            hits = self._up[x] & stars
            if hits:
                return x, min(y for y in mset if hits >> star(y) & 1)
        return None

    def _handle_set(self, members: Iterable[int]) -> set[int]:
        """The members as a set, refusing the least one that is no handle
        of this poc-set, as a dangling edge is refused."""
        mset = set(members)
        dangling = min((e for e in mset if not 0 <= e < 2 * self.n_pairs + 2), default=None)
        if dangling is not None:
            raise MalformedInput(f"dangling handle {dangling}", dangling)
        return mset

    def _check_pairs(self, *ultrafilters: Ultrafilter) -> None:
        """Refuse an ultrafilter of another pair count, of another poc-set."""
        for u in ultrafilters:
            if len(u.signs) != self.n_pairs:
                k = len(u.signs)
                message = f"an ultrafilter of another poc-set: {k} signs, not {self.n_pairs}"
                raise BackendMismatch(message, k)

    def filterbase(self, members: Iterable[int]) -> FilterBase:
        """Validate a handle set against UF2."""
        mset = frozenset(members)
        bad = self.check_filterbase(mset)
        if bad is not None:
            raise NotAFilterBase(
                f"{self.name(bad[0])} <= {self.name(star(bad[1]))}", bad
            )
        return FilterBase(mset)

    def extend_filterbase(self, base: Iterable[int]) -> Ultrafilter:
        """Deterministic completion of a filter base to an ultrafilter.

        Greedy in canonical pair order, preferring the plain element; a
        filter base always extends in either orientation, so the greedy walk
        never backtracks and agrees with the first entry of `ultrafilters`
        on the empty base.
        """
        chosen = {pair_of(e): e for e in self.filterbase(base).members if self.is_proper(e)}
        stars = _star_mask(chosen.values())
        for k in range(self.n_pairs):
            if k not in chosen:
                e = 2 * k if not self._up[2 * k] & stars else 2 * k + 1
                chosen[k] = e
                stars |= 1 << star(e)
        return self.ultrafilter_from_signs(tuple(chosen[k] & 1 for k in range(self.n_pairs)))

    # ------------------------------------------------------------------
    # median algebra and metric

    def median(self, a: Ultrafilter, b: Ultrafilter, c: Ultrafilter) -> Ultrafilter:
        """med(a, b, c) = (a∩b) ∪ (b∩c) ∪ (a∩c); H° is closed under it."""
        self._check_pairs(a, b, c)
        signs = tuple(
            1 if sa + sb + sc >= 2 else 0
            for sa, sb, sc in zip(a.signs, b.signs, c.signs)
        )
        return self.ultrafilter_from_signs(signs)

    def delta(self, a: Ultrafilter, b: Ultrafilter) -> int:
        """Half the symmetric difference; the wall-counting metric."""
        self._check_pairs(a, b)
        return sum(1 for sa, sb in zip(a.signs, b.signs) if sa != sb)

    def min_set(self, u: Ultrafilter) -> list[int]:
        """Minimal proper members; these parametrize the flip moves."""
        self._check_pairs(u)
        members = u.sorted_members()
        stars = _star_mask(members)
        minimal = self._minimal(stars, stars & ~(1 << self.zero))  # proper members only
        return [e for e in members if minimal >> e & 1]

    def _minimal(self, stars: int, among: int) -> int:
        """Mask of the minimal members a, a* in ``among``, of the ultrafilter
        whose members' stars are ``stars``: x <= a iff a* <= x*, so a is
        minimal iff ``up[a*] & stars`` has no bit but a*'s."""
        up, minimal = self._up, 0
        while among:
            bit = among & -among
            among ^= bit
            c = bit.bit_length() - 1
            if up[c] & stars == bit:
                minimal |= 1 << (c ^ 1)
        return minimal

    def flip(self, u: Ultrafilter, a: int) -> Ultrafilter:
        """The elementary move [u]_a = (u \\ {a}) ∪ {a*}; needs a minimal."""
        self._check_pairs(u)
        if a not in u or a not in self.min_set(u):
            raise NotMinimal(f"{self.name(a)} is not minimal in the ultrafilter", a)
        signs = list(u.signs)
        signs[pair_of(a)] ^= 1
        return self.ultrafilter_from_signs(tuple(signs))

    def is_maximal_transverse(self, elements: Iterable[int]) -> Optional[int]:
        """None when the set is maximal transverse; else an extension or a
        member of a violating pair as a witness; an element that is not
        proper is refused."""
        els = list(elements)
        self._check_proper(els)
        for x, y in combinations(els, 2):
            if not self.transverse(x, y):
                return x
        used = {pair_of(e) for e in els}
        for k in range(self.n_pairs):
            if k not in used and all(self.transverse(2 * k, e) for e in els):
                return 2 * k
        return None

    def _check_proper(self, elements: Sequence[int]) -> None:
        """Refuse the first of the elements that is not proper."""
        for e in elements:
            if not self.is_proper(e):
                raise TrivialElement(f"handle {e} is not a proper element", e)

    def principal_from_transverse(self, elements: Iterable[int]) -> Ultrafilter:
        """π_A = {h : ∃a∈A, a <= h} ∪ {h : ∃a∈A, a* < h} ∪ {0*} for a
        maximal transverse A; every ultrafilter of a finite poc-set arises
        this way."""
        els = sorted(set(elements))
        self._check_proper(els)
        for x, y in combinations(els, 2):
            if not self.transverse(x, y):
                raise NotMaximalTransverse(
                    f"{self.name(x)} and {self.name(y)} are nested", (x, y)
                )
        extension = self.is_maximal_transverse(els)
        if extension is not None:
            raise NotMaximalTransverse(
                f"extendable by {self.name(extension)}", extension
            )
        members = {self.zero_star}
        for h in self.elements():
            for a in els:
                if self.leq(a, h) or (self.leq(star(a), h) and star(a) != h):
                    members.add(h)
                    break
        return self.ultrafilter_from_members(members)

    def support(self, h: int) -> list[int]:
        """Indices (into the canonical enumeration) of the ultrafilters
        containing h; the vertex set S_h."""
        self._handle_set((h,))  # refuses a dangling h
        return [i for i, u in enumerate(self._vertex_set()[1]) if h in u]

    def vset_nonempty(self, elements: Iterable[int]) -> bool:
        """Whether ⋂_a S_a is non-empty; the empty family meets everything.
        Agreement with the Helly criterion is a tested invariant, not
        assumed here."""
        els = self._handle_set(elements)
        return any(all(a in u for a in els) for u in self._vertex_set()[1])

    # ------------------------------------------------------------------

    def format_ultrafilter(self, u: Ultrafilter) -> str:
        self._check_pairs(u)
        proper = [self.name(e) for e in u.sorted_members() if self.is_proper(e)]
        return "{" + ", ".join(proper) + "}"

    def __repr__(self) -> str:
        return f"FinitePocSet(pairs={self.n_pairs})"


def check_pair_count(n_pairs: int) -> None:
    """Refuse a negative pair count or one above `MAX_PAIRS`."""
    if n_pairs < 0:
        raise MalformedInput("pair count must be non-negative", n_pairs)
    if n_pairs > MAX_PAIRS:
        raise MalformedInput(f"pair count {n_pairs} is above the cap of {MAX_PAIRS}", n_pairs)


def sample_pocset(rng, max_pairs: int) -> tuple[FinitePocSet, list[tuple[int, int]]]:
    """A random poc-set of at most ``max_pairs`` pairs and its generating edges, drawn
    from the `random.Random` ``rng`` again, pair count and all, until it passes the axioms."""
    while True:
        n = rng.randint(0, max_pairs)
        count = rng.randint(0, 2 * n) if n else 0
        edges = [(rng.randrange(2 * n), rng.randrange(2 * n)) for _ in range(count)]
        try:
            return FinitePocSet.from_order_generators(n, edges), edges
        except AxiomViolation:
            continue


def parse_handle(name: str, n_pairs: int) -> int:
    """The handle named "hK", "hK*", "0" or "0*" in a poc-set of n_pairs
    pairs; needs only the pair count, not the poc-set."""
    match = re.match(_NAME_RE, name.strip())
    if not match:
        raise MalformedInput(f"bad handle name {name!r}", name)
    if match.group(1) is None:
        e = 2 * n_pairs
    else:
        k = int(match.group(1))
        if k > n_pairs:
            raise MalformedInput(f"handle {name!r} exceeds pair count", name)
        e = 2 * (k - 1)
    return star(e) if match.group(2) else e


def _raw_name(e: int, n_pairs: int) -> str:
    base = "0" if pair_of(e) == n_pairs else f"h{pair_of(e) + 1}"
    return base + ("*" if is_star(e) else "")


def _star_mask(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << star(e)
    return mask


def _closed_rows(n_pairs: int, up: list[int]) -> list[int]:
    """Close star-symmetric generator rows in place and return them, or
    refuse the first of antisymmetry, minimum and ``h <= h*`` to fail, at
    its least witness.

    Rows are closed one pair at a time, in handle order.  Row e is a bit
    search that folds in each handle's row once; the rows of the handles
    below e are closed already and hold every handle above them, so the
    search does not pass them.  Since b <= a iff a* <= b*, the handles below
    a are ``up[a*]`` with each bit pair swapped, and antisymmetry is checked
    as soon as a pair is closed, at its plain handle a only: once every
    earlier pair has passed, an a* equivalent to some b > a* would make a
    equivalent to b* > a."""
    m = len(up)
    even = (4 ** (m // 2) - 1) // 3  # bits 0, 2, 4, ..
    # 0* adds nothing to a row when nothing lies above it, as in a poc-set
    top = up[-1] if up[-1] == 1 << (m - 1) else 0
    for a in range(0, m, 2):
        for e in (a, a + 1):
            row = up[e]
            seen = top | 1 << e
            todo = row & ~seen
            while todo:
                c = (todo & -todo).bit_length() - 1
                folded = up[c]
                row |= folded
                seen |= folded if c < e else 1 << c
                todo = row & ~seen
            up[e] = row
        dual = up[a + 1]
        down = (dual & even) << 1 | (dual >> 1) & even
        equivalent = up[a] & down & -(2 << a)  # the b > a with a <= b <= a
        if equivalent:
            b = (equivalent & -equivalent).bit_length() - 1
            raise AxiomViolation(
                "antisymmetry",
                f"{_raw_name(a, n_pairs)} and {_raw_name(b, n_pairs)} are order-equivalent",
                (a, b),
            )
    missing = ~up[2 * n_pairs] & ((1 << m) - 1)
    if missing:
        e = (missing & -missing).bit_length() - 1
        raise AxiomViolation("minimum", f"0 is not below {_raw_name(e, n_pairs)}", e)
    for e in range(2 * n_pairs):
        if up[e] >> (e ^ 1) & 1:
            raise AxiomViolation("h <= h*", f"{_raw_name(e, n_pairs)} lies below its star", e)
    return up


def _compile(cls: type, name: str):
    """Install and return ``cls.<name>``, one of `Record`'s four methods,
    written out from ``cls.__slots__`` as by hand; racing threads each
    install an equal one."""
    names = cls.__slots__
    own, their = (", ".join(f"{who}.{n}" for n in names) for who in ("self", "other"))
    if len(names) > 1:
        own, their = f"({own})", f"({their})"
    values = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    params, body = {
        "__init__": (names, "".join(f"\n    self.{n} = {n}" for n in names)),
        "__eq__": (("other",), "\n    if other.__class__ is self.__class__:"
                   f"\n        return {own} == {their}\n    return NotImplemented"),
        "__hash__": ((), f"\n    return hash({own if len(names) > 1 else f'({own},)'})"),
        "__repr__": ((), f'\n    return f"{{self.__class__.__name__}}({values})"'),
    }[name]
    namespace = {"__name__": cls.__module__}
    exec(f"def {name}({', '.join(('self', *params))}):{body}", namespace)
    namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    setattr(cls, name, namespace[name])
    return namespace[name]
