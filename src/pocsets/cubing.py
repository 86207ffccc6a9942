"""The dual cube complex of a finite poc-set and the duality round-trip.

Vertices are the ultrafilters, edges the elementary moves, and a d-cube is
stored implicitly as (base vertex, transverse subset of its minimal set).
Each edge and each cube is found once, at its least corner: the vertex whose
signs are 0 on every flipped pair.  Only combinatorics is kept; no geometric
product is ever built.  The work runs on integer masks: a vertex is keyed by
its members' stars, pair sets and wall sides (over vertex indices) are masks,
and orders are compared row by row; the records handed out stay as they are.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .core import FinitePocSet, Record, Ultrafilter
from .errors import DegenerateWall, MalformedInput, NotIsomorphic

# the most cubes of dimension >= 2 `build_cubing` lists; n pairwise
# transverse pairs have 3^n - 2^n - n*2^(n-1) of them (52,905 at n = 10,
# 163,835 at n = 11), so the build is refused as it grows past this
MAX_CUBES = 10**5


class Cube(Record):
    """A d-cube: canonical base vertex index plus the flipped pair set."""

    __slots__ = ("base", "pairs")

    def __init__(self, base: int, pairs: tuple[int, ...]):
        self.base = base
        self.pairs = pairs

    @property
    def dim(self) -> int:
        return len(self.pairs)


class Wall:
    """One wall of the complex: its labelled edges and vertex bipartition."""

    __slots__ = ("pair", "edges", "side_plain", "side_star")

    def __init__(
        self,
        pair: int,
        edges: tuple[tuple[int, int], ...],
        side_plain: frozenset[int],
        side_star: frozenset[int],
    ):
        self.pair = pair
        self.edges = edges
        self.side_plain = side_plain
        self.side_star = side_star


class CubeComplex:
    __slots__ = ("pocset", "vertices", "edges", "cubes")

    def __init__(
        self,
        pocset: FinitePocSet,
        vertices: list[Ultrafilter],
        edges: list[tuple[int, int, int]],  # (i, j, pair) with i < j
        cubes: Optional[dict[int, list[Cube]]] = None,
    ):
        self.pocset = pocset
        self.vertices = vertices
        self.edges = edges
        self.cubes = {} if cubes is None else cubes

    @property
    def square_count(self) -> int:
        return len(self.cubes.get(2, []))

    def dimension(self) -> int:
        return max(self.cubes.keys(), default=1 if self.edges else 0)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def graph_distances(self, source: int) -> dict[int, int]:
        adj = self.adjacency()
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def cube_vertices(self, cube: Cube) -> list[int]:
        """The 2^d corner indices of a stored cube."""
        index = {u.signs: i for i, u in enumerate(self.vertices)}
        base_signs = self.vertices[cube.base].signs
        out = []
        for r in range(len(cube.pairs) + 1):
            for sub in combinations(cube.pairs, r):
                signs = list(base_signs)
                for k in sub:
                    signs[k] ^= 1
                out.append(index[tuple(signs)])
        return sorted(out)

    def walls(self) -> list[Wall]:
        out = []
        for k in range(self.pocset.n_pairs):
            plain = frozenset(
                i for i, u in enumerate(self.vertices) if u.signs[k] == 0
            )
            sided = frozenset(range(len(self.vertices))) - plain
            wall_edges = tuple(
                (i, j) for i, j, pr in self.edges if pr == k
            )
            out.append(Wall(k, wall_edges, plain, sided))
        return out

    # ------------------------------------------------------------------
    # exports

    def to_dot(self) -> str:
        p = self.pocset
        lines = ["graph cubing {"]
        for i, u in enumerate(self.vertices):
            lines.append(f'  v{i} [label="{p.format_ultrafilter(u)}"];')
        for i, j, k in self.edges:
            lines.append(f'  v{i} -- v{j} [label="h{k + 1}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"index": i, "signs": list(u.signs)}
                for i, u in enumerate(self.vertices)
            ],
            "edges": [
                {"ends": [i, j], "wall": f"h{k + 1}"} for i, j, k in self.edges
            ],
            "cubes": {
                str(d): [
                    {"base": c.base, "walls": [f"h{k + 1}" for k in c.pairs]}
                    for c in cs
                ]
                for d, cs in sorted(self.cubes.items())
            },
        }


def build_cubing(p: FinitePocSet) -> CubeComplex:
    """Vertices from enumeration; each edge and cube from its least corner.

    The plain minimal elements of a vertex u are the walls whose flip raises
    u's signs: u is the least corner of the edge across each of them and of
    the cube on each transverse subset of them.  Vertices come in
    lexicographic sign order, so raising an earlier pair reaches a later
    vertex, and taking the pairs last to first lists the edges sorted.
    Raising pair k swaps bits 2k, 2k+1 of a vertex's star mask.  Refused
    once more than `MAX_CUBES` cubes of dimension >= 2 are found.
    """
    walk = p._walk_ultrafilters()
    index = {stars: i for i, (_, stars) in enumerate(walk)}
    plain_stars = (4 ** p.n_pairs - 1) // 3 << 1  # bits 1, 3, .. below 2n
    edges, found = [], 0
    cubes: dict[int, list[Cube]] = {}
    for i, (_, stars) in enumerate(walk):
        plain, pairs = p._minimal(stars, stars & plain_stars), 0
        while plain:
            a = plain.bit_length() - 1
            plain ^= 1 << a
            edges.append((i, index[stars ^ 3 << a], a >> 1))
            pairs |= 1 << (a >> 1)
        if pairs & (pairs - 1):  # two or more pairs
            subsets: list[tuple[int, ...]] = []
            _transverse_subsets(p._transverse_pairs, (), pairs, subsets)
            for sub in subsets:
                cubes.setdefault(len(sub), []).append(Cube(i, sub))
            found += len(subsets)
            if found > MAX_CUBES:
                raise MalformedInput(f"more than {MAX_CUBES} cubes to build", p.n_pairs)
    return CubeComplex(p, [Ultrafilter(signs) for signs, _ in walk], edges, cubes)


def _transverse_subsets(transverse: tuple[int, ...], sub: tuple, later: int, out: list) -> None:
    """Append to `out`, in lexicographic order, the tuples of two or more
    pairwise transverse pairs that extend `sub` by pairs of the mask `later`
    (each transverse to all of `sub`).  Only pairs transverse to the whole
    tuple are tried, so the work follows the tuples listed."""
    while later:
        low = later & -later
        later ^= low
        x = low.bit_length() - 1
        grown = sub + (x,)
        if sub:
            out.append(grown)
        rest = later & transverse[x]
        if rest:
            _transverse_subsets(transverse, grown, rest, out)


def extract_halfspaces(c: CubeComplex) -> FinitePocSet:
    """The halfspace poc-set of a complex: vertex sides of each wall,
    ordered by inclusion of vertex sets (side a misses the side of b*)."""
    n = c.pocset.n_pairs
    sides, everything = [], (1 << len(c.vertices)) - 1
    signs = [u.signs for u in reversed(c.vertices)] or [(0,) * n]  # no vertex: no side
    digits = bytes.maketrans(b"\0\1", b"01")
    for k, column in enumerate(zip(*signs)):
        starred = int(bytes(column).translate(digits), 2)
        if not starred or starred == everything:
            raise DegenerateWall(f"wall h{k + 1} has an empty side", k)
        sides += [everything ^ starred, starred]
    sides += [0, everything]  # 0 and 0*
    rows = [sum(1 << b for b in range(2 * n + 2) if not side & sides[b ^ 1]) for side in sides]
    return FinitePocSet._from_rows(n, rows)


class DualityReport:
    __slots__ = ("isomorphic", "element_bijection", "vertex_bijection", "mismatch")

    def __init__(
        self,
        isomorphic: bool,
        element_bijection: dict[str, str],
        vertex_bijection: dict[int, int],
        mismatch: Optional[str] = None,
    ):
        self.isomorphic = isomorphic
        self.element_bijection = element_bijection
        self.vertex_bijection = vertex_bijection
        self.mismatch = mismatch

    def to_json(self) -> dict:
        return {
            "isomorphic": self.isomorphic,
            "elements": self.element_bijection,
            "vertices": {str(k): v for k, v in self.vertex_bijection.items()},
            "mismatch": self.mismatch,
        }


def duality_roundtrip(p: FinitePocSet) -> DualityReport:
    """Check extract_halfspaces(build_cubing(p)) is poc-isomorphic to p.

    The element map is the identity on handles (pair k -> wall k, oriented
    so the plain side is the vertex set of h_k); raises `NotIsomorphic` at
    the first order mismatch.  The vertex map v -> (halfspaces containing v)
    is the identity, because each wall's sides are read from the vertices'
    signs.
    """
    c = build_cubing(p)
    q = extract_halfspaces(c)
    if q._up != p._up:
        a = next(a for a in p.elements() if p._up[a] != q._up[a])
        diff = p._up[a] ^ q._up[a]
        b = (diff & -diff).bit_length() - 1
        raise NotIsomorphic(f"order mismatch at ({p.name(a)}, {p.name(b)})", (a, b))
    bijection = {p.name(e): q.name(e) for e in p.proper_elements()}
    return DualityReport(True, bijection, {i: i for i in range(len(c.vertices))})
