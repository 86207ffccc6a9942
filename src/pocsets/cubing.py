"""The dual cube complex of a finite poc-set and the duality round-trip.

Vertices are the ultrafilters, edges the elementary moves, and a d-cube is
stored implicitly as (base vertex, transverse subset of its minimal set).
Each edge and each cube is found once, at its least corner: the vertex whose
signs are 0 on every flipped pair.  The elementary move at a plain member a
is an edge exactly when a is minimal, so one probe of the vertices' index
per plain member finds the edge and the minimal set together.  Only
combinatorics is kept; no geometric product is ever built.  The work runs on
integer masks: a vertex is keyed by its members' stars, pair sets and wall
sides (over vertex indices) are masks, and orders are compared row by row;
the records handed out stay as they are.  The duality round trip reads the
vertices only: it counts the cubes only when a bound on them passes the cap,
lists no edge and no cube, and reports counts, from which its identity
bijections are built when read.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Iterator

from .core import FinitePocSet, Record, Ultrafilter, _raw_name, _star_mask
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
        return self.corners([cube])[0]

    def corners(self, cubes: Iterable[Cube]) -> list[list[int]]:
        """The sorted corner indices of each cube, read off one index of the
        vertices' sign masks that this call builds: a corner flips a subset
        of the cube's pairs at its base."""
        masks = _sign_masks(self.vertices)
        index = dict(zip(masks, range(len(masks))))
        out = []
        for cube in cubes:
            base, flips = masks[cube.base], sum(1 << k for k in cube.pairs)
            corners, sub = [cube.base], flips
            while sub:  # every nonempty subset of the flips, largest first
                corners.append(index[base ^ sub])
                sub = (sub - 1) & flips
            out.append(sorted(corners))
        return out

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


def _sign_masks(vertices: list[Ultrafilter]) -> list[int]:
    """Each vertex's signs as one mask, bit k for the sign of pair k."""
    return [sum(s << k for k, s in enumerate(u.signs)) for u in vertices]


def build_cubing(p: FinitePocSet) -> CubeComplex:
    """Vertices from enumeration; each edge and cube from its least corner.

    Vertices come in lexicographic sign order, so raising an earlier pair
    reaches a later vertex, and taking the pairs last to first lists the
    edges sorted.  `_least_corners` finds a vertex's edges with one probe
    of the walk's index per plain member, and its cubes among them.
    Refused once more than `MAX_CUBES` cubes of dimension >= 2 are found.
    """
    walk = p._walk_ultrafilters()
    edges = []
    cubes: dict[int, list[Cube]] = {}
    for i, moves, subsets in _least_corners(p, walk):
        edges += moves
        for sub in subsets:
            cubes.setdefault(len(sub), []).append(Cube(i, sub))
    return CubeComplex(p, [Ultrafilter(signs) for signs, _ in walk], edges, cubes)


def _least_corners(p: FinitePocSet, walk: list) -> Iterator[tuple[int, list, list]]:
    """``(i, moves, subsets)`` per vertex of the walk: ``moves`` lists the
    edges ``(i, j, pair)`` that raise its signs, last pair first, and
    ``subsets`` the tuples of two or more pairwise transverse pairs among
    them; it is the least corner of those edges and of the cubes on those
    subsets.  Raising plain member a = 2k swaps bits a, a* of the stars
    mask, and u - {a} + {a*} is an ultrafilter iff no other member lies
    below a, that is iff a is minimal: one probe of the walk's stars index
    per plain member finds both the edge and the minimal set.  Refused once
    more than `MAX_CUBES` subsets are found."""
    n, found = p.n_pairs, 0
    index = {stars: i for i, (_, stars) in enumerate(walk)}
    plain_stars = (4 ** n - 1) // 3 << 1  # bits 1, 3, .. below 2n
    for i, (_, stars) in enumerate(walk):
        moves, pairs, todo = [], 0, stars & plain_stars
        while todo:
            a = todo.bit_length() - 2  # the plain member whose star is the top bit
            todo ^= 2 << a
            j = index.get(stars ^ 3 << a)
            if j is not None:
                moves.append((i, j, a >> 1))
                pairs |= 1 << (a >> 1)
        subsets = []
        if pairs & (pairs - 1):  # two or more walls
            _transverse_subsets(p._transverse_pairs, (), pairs, subsets)
            found += len(subsets)
            if found > MAX_CUBES:
                raise MalformedInput(f"more than {MAX_CUBES} cubes to build", n)
        yield i, moves, subsets


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
    """A round trip over ``n_pairs`` pairs and ``vertex_count`` vertices;
    its element and vertex bijections are identities, built on each read.
    A failed round trip raises `NotIsomorphic`, so ``isomorphic`` is always
    true and ``mismatch`` None."""

    __slots__ = ("n_pairs", "vertex_count")
    isomorphic = True
    mismatch = None

    @property
    def element_bijection(self) -> dict[str, str]:
        names = [_raw_name(e, self.n_pairs) for e in range(2 * self.n_pairs)]
        return dict(zip(names, names))

    @property
    def vertex_bijection(self) -> dict[int, int]:
        vertices = range(self.vertex_count)
        return dict(zip(vertices, vertices))

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
    The report keeps the two counts, so a caller that reads only the verdict
    formats no handle name.
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
    return DualityReport(n, len(walk))
