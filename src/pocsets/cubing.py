"""The dual cube complex of a finite poc-set and the duality round-trip.

Vertices are the ultrafilters, edges the elementary moves, and a d-cube is
stored implicitly as (base vertex, transverse subset of its minimal set).
Each edge and each cube is found once, at its least corner: the vertex whose
signs are 0 on every flipped pair.  Only combinatorics is kept; no geometric
product is ever built.  The work runs on integer masks: a vertex is keyed by
its members' stars, pair sets and wall sides (over vertex indices) are masks,
and orders are compared row by row; the records handed out stay as they are.
The duality round trip reads the vertices only: it counts the cubes only
when a bound on them passes the cap, and lists no edge and no cube.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from typing import Iterator

from .core import FinitePocSet, Record, Ultrafilter, _star_mask
from .errors import DegenerateWall, MalformedInput, NotIsomorphic

# the most cubes of dimension >= 2 `build_cubing` lists; n pairwise
# transverse pairs have 3^n - 2^n - n*2^(n-1) of them (52,905 at n = 10,
# 163,835 at n = 11), so the build is refused as it grows past this
MAX_CUBES = 10**5


class Cube(Record):
    """A d-cube: canonical base vertex index plus the flipped pair set."""

    __slots__ = ("base", "pairs")


class Wall(Record):
    """One wall of the complex: its labelled edges and vertex bipartition."""

    __slots__ = ("pair", "edges", "side_plain", "side_star")


class CubeComplex(Record):
    """A poc-set's dual: ultrafilters as vertices, edges ``(i, j, pair)``
    with ``i < j``, and the cubes of each dimension >= 2 by dimension."""

    __slots__ = ("pocset", "vertices", "edges", "cubes")
    __hash__ = None

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

    Vertices come in lexicographic sign order, so raising an earlier pair
    reaches a later vertex, and taking the pairs last to first lists the
    edges sorted.  Raising pair k swaps bits 2k, 2k+1 of a vertex's star
    mask.  Refused once more than `MAX_CUBES` cubes of dimension >= 2 are
    found.
    """
    walk = p._walk_ultrafilters()
    index = {stars: i for i, (_, stars) in enumerate(walk)}
    edges = []
    cubes: dict[int, list[Cube]] = {}
    for i, stars, plain, subsets in _least_corners(p, walk):
        while plain:
            a = plain.bit_length() - 1
            plain ^= 1 << a
            edges.append((i, index[stars ^ 3 << a], a >> 1))
        for sub in subsets:
            cubes.setdefault(len(sub), []).append(Cube(i, sub))
    return CubeComplex(p, [Ultrafilter(signs) for signs, _ in walk], edges, cubes)


def _least_corners(p: FinitePocSet, walk: list) -> Iterator[tuple[int, int, int, list]]:
    """``(i, stars, plain, subsets)`` per vertex of the walk: ``plain`` masks
    its plain minimal elements, the walls whose flip raises its signs, and
    ``subsets`` lists the tuples of two or more pairwise transverse ones; it
    is the least corner of the edges across those walls and of the cubes on
    those subsets.  Refused once more than `MAX_CUBES` subsets are found."""
    n, found = p.n_pairs, 0
    plain_stars = (4 ** n - 1) // 3 << 1  # bits 1, 3, .. below 2n
    for i, (_, stars) in enumerate(walk):
        plain, subsets = p._minimal(stars, stars & plain_stars), []
        if plain & (plain - 1):  # two or more walls
            # the pairs of the plain handles: every second digit after "0b1"
            pairs = int(bin(plain | 1 << 2 * n)[4::2], 2)
            _transverse_subsets(p._transverse_pairs, (), pairs, subsets)
            found += len(subsets)
            if found > MAX_CUBES:
                raise MalformedInput(f"more than {MAX_CUBES} cubes to build", n)
        yield i, stars, plain, subsets


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
    walk = [(u.signs, _star_mask(u.sorted_members())) for u in c.vertices]
    return FinitePocSet._from_rows(c.pocset.n_pairs, _halfspace_rows(c.pocset.n_pairs, walk))


def _halfspace_rows(n: int, walk: list) -> list[int]:
    """The unvalidated order rows of the halfspaces of the vertices with
    these ``(signs, stars)``, refused at the first wall with an empty side.
    Side a lies in side b iff no vertex on side a holds b*: row a is the AND
    of the member masks (stars, bit pairs swapped, and 0*) over side a."""
    top = 1 << 2 * n + 1  # 0*: no vertex holds 0, so no stars mask has this bit
    common = [2 * top - 1] * (2 * n + 2)  # the stars all of side a hold; all if it is empty
    handles = range(0, 2 * n + 2, 2)
    for signs, stars in walk:
        for a in map(add, handles, signs + (1,)):  # and 0*, on every vertex
            common[a] &= stars
    for k in range(n):
        if (common[2 * k] | common[2 * k + 1]) & top:
            raise DegenerateWall(f"wall h{k + 1} has an empty side", k)
    even = (4 ** (n + 1) - 1) // 3  # bits 0, 2, .., 2n
    return [(s & even) << 1 | (s >> 1) & even | top for s in common]


class DualityReport(Record):
    """A round trip's element and vertex bijections; a failed one raises
    `NotIsomorphic`, so ``isomorphic`` is always true, ``mismatch`` None."""

    __slots__ = ("element_bijection", "vertex_bijection")
    __hash__ = None
    isomorphic = True
    mismatch = None

    def to_json(self) -> dict:
        return {
            "isomorphic": self.isomorphic,
            "elements": self.element_bijection,
            "vertices": {str(k): v for k, v in self.vertex_bijection.items()},
            "mismatch": self.mismatch,
        }


def duality_roundtrip(p: FinitePocSet) -> DualityReport:
    """Check extract_halfspaces(build_cubing(p)) is poc-isomorphic to p.

    Only the vertices are read, from one ultrafilter walk.  A cube is a
    vertex and two or more of its n or fewer plain minimal walls, so cubes
    are counted, to refuse what `build_cubing` refuses, only when
    ``len(walk) * (2^n - n - 1)`` passes `MAX_CUBES`.  The element map is
    the identity on handles (pair k -> wall k, oriented so the plain side is
    the vertex set of h_k).  Rows equal to p's are p's closed, valid order;
    others are validated as `extract_halfspaces` does, and `NotIsomorphic`
    is raised at the first order mismatch.  The vertex map v -> (halfspaces
    containing v) is the identity: each wall's sides are read from the signs.
    """
    walk, n = p._walk_ultrafilters(), p.n_pairs
    if len(walk) * (2**n - n - 1) > MAX_CUBES:
        for _ in _least_corners(p, walk):  # the cubes are counted, not kept
            pass
    rows = _halfspace_rows(n, walk)
    q = p if rows == list(p._up) else FinitePocSet._from_rows(n, rows)
    if q._up != p._up:
        a = next(a for a in p.elements() if p._up[a] != q._up[a])
        diff = p._up[a] ^ q._up[a]
        b = (diff & -diff).bit_length() - 1
        raise NotIsomorphic(f"order mismatch at ({p.name(a)}, {p.name(b)})", (a, b))
    names, vertices = list(map(p.name, p.proper_elements())), range(len(walk))
    return DualityReport(dict(zip(names, names)), dict(zip(vertices, vertices)))
