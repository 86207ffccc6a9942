from __future__ import annotations

import random
from itertools import combinations

import pytest

from pocsets.core import FinitePocSet, pair_of
from pocsets import cubing
from pocsets.cubing import MAX_CUBES, build_cubing, duality_roundtrip, extract_halfspaces
from pocsets.errors import MalformedInput

from conftest import brute_force_ultrafilters, random_pocset


def test_ten_free_pairs_fit_the_cube_budget():
    # n transverse pairs have 3^n - 2^n - n*2^(n-1) cubes of dimension >= 2;
    # eleven are refused (tests/golden/cubing-over-cap.err)
    c = build_cubing(FinitePocSet.from_order_generators(10, []))
    assert sum(len(cs) for cs in c.cubes.values()) == 52905 <= MAX_CUBES


def test_cube_budget_is_checked_as_cubes_are_found(monkeypatch):
    monkeypatch.setattr(cubing, "MAX_CUBES", 3)
    assert build_cubing(FinitePocSet.from_order_generators(2, [])).square_count == 1
    with pytest.raises(MalformedInput, match="more than 3 cubes"):
        build_cubing(FinitePocSet.from_order_generators(3, []))  # six squares, one 3-cube


def test_line3_is_a_path(fix_line3):
    c = build_cubing(fix_line3)
    assert len(c.vertices) == 4
    assert len(c.edges) == 3
    assert c.square_count == 0
    assert c.dimension() == 1


def test_square_complex(fix_square):
    c = build_cubing(fix_square)
    assert len(c.vertices) == 4
    assert len(c.edges) == 4
    assert c.square_count == 1
    sq = c.cubes[2][0]
    assert c.cube_vertices(sq) == [0, 1, 2, 3]


def test_tripod_is_a_star(fix_tripod):
    c = build_cubing(fix_tripod)
    assert len(c.vertices) == 4
    assert len(c.edges) == 3
    assert c.square_count == 0
    degrees = [0] * 4
    for i, j, _ in c.edges:
        degrees[i] += 1
        degrees[j] += 1
    assert sorted(degrees) == [1, 1, 1, 3]


def test_a_star_of_many_leaves_tries_no_subsets(monkeypatch):
    # h_i* < h_j for all i != j: n + 1 vertices, and the centre's n plain
    # minimal elements are pairwise nested, so no subset of them is a cube
    # and none should be tried (there are 2^40)
    n = 40
    star_order = [(2 * i + 1, 2 * j) for i in range(n) for j in range(n) if i != j]
    p = FinitePocSet.from_order_generators(n, star_order)
    transverse, calls = FinitePocSet.transverse, []

    def counted(self, h, k):
        calls.append((h, k))
        assert len(calls) <= n * n, "transversality tested past n^2 times"
        return transverse(self, h, k)

    monkeypatch.setattr(FinitePocSet, "transverse", counted)
    c = build_cubing(p)
    assert (len(c.vertices), len(c.edges), c.cubes) == (n + 1, n, {})


def test_cube_count_equals_transverse_subsets_random():
    rng = random.Random(42)
    for _ in range(25):
        p = random_pocset(rng, max_pairs=5)
        c = build_cubing(p)
        for i, u in enumerate(c.vertices):
            mins = p.min_set(u)
            for d in range(2, len(mins) + 1):
                expected = sum(
                    1
                    for sub in combinations(mins, d)
                    if all(p.transverse(x, y) for x, y in combinations(sub, 2))
                )
                got = sum(
                    1
                    for cube in c.cubes.get(d, [])
                    if i in c.cube_vertices(cube)
                )
                assert got == expected


def _brute_force_complex(p: FinitePocSet):
    """Oracle straight from the definition: the vertices are the sign
    vectors of all ultrafilters, an edge joins two vertices whose signs
    differ in exactly one place, and a cube is a pair (b, P) with |P| >= 2,
    b's sign 0 on every pair of P and all 2^|P| sign flips of b over P
    vertices."""
    vertices = sorted(brute_force_ultrafilters(p))
    index = {s: i for i, s in enumerate(vertices)}
    edges = []
    for (i, s), (j, t) in combinations(enumerate(vertices), 2):
        diff = [k for k in range(p.n_pairs) if s[k] != t[k]]
        if len(diff) == 1:
            edges.append((i, j, diff[0]))
    cubes: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for b, s in enumerate(vertices):
        plain = [k for k in range(p.n_pairs) if s[k] == 0]
        for d in range(2, len(plain) + 1):
            for pairs in combinations(plain, d):
                corners = (
                    tuple(1 - x if k in flipped else x for k, x in enumerate(s))
                    for r in range(d + 1)
                    for flipped in combinations(pairs, r)
                )
                if all(t in index for t in corners):
                    cubes.setdefault(d, []).append((b, pairs))
    return vertices, sorted(edges), cubes


def _complex_shape(c):
    return (
        [u.signs for u in c.vertices],
        c.edges,
        {d: [(cube.base, cube.pairs) for cube in cs] for d, cs in c.cubes.items()},
    )


def test_complex_matches_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        p = random_pocset(rng, max_pairs=6)
        vertices, edges, cubes = _complex_shape(build_cubing(p))
        expected = _brute_force_complex(p)
        assert vertices == expected[0]
        # edges and cubes in (base, pairs) order, as the exports list them
        assert edges == expected[1]
        assert cubes == {d: sorted(cs) for d, cs in expected[2].items()}


def test_cube_base_is_least_corner():
    rng = random.Random(7)
    for _ in range(40):
        c = build_cubing(random_pocset(rng, max_pairs=6))
        for cubes in c.cubes.values():
            for cube in cubes:
                assert cube.base == min(c.cube_vertices(cube))


def test_complex_dimension_bounded_by_pocset_dimension():
    rng = random.Random(4242)
    for _ in range(25):
        p = random_pocset(rng, max_pairs=5)
        c = build_cubing(p)
        assert c.dimension() <= max(p.dimension(), 0)


def test_delta_equals_skeleton_distance(fix_line3, fix_square, fix_tripod):
    for p in (fix_line3, fix_square, fix_tripod):
        c = build_cubing(p)
        for i, u in enumerate(c.vertices):
            dist = c.graph_distances(i)
            for j, v in enumerate(c.vertices):
                assert dist[j] == p.delta(u, v)


def test_walls_separate_into_convex_sides(fix_line3, fix_square, fix_tripod):
    # removing a wall's edges leaves exactly its two sides as components,
    # and geodesics between same-side vertices stay on that side
    for p in (fix_line3, fix_square, fix_tripod):
        c = build_cubing(p)
        for wall in c.walls():
            removed = set(wall.edges)
            adj = {i: [] for i in range(len(c.vertices))}
            for i, j, k in c.edges:
                if (i, j) in removed:
                    continue
                adj[i].append(j)
                adj[j].append(i)
            comp = {}
            for s in range(len(c.vertices)):
                if s in comp:
                    continue
                stack, members = [s], {s}
                while stack:
                    v = stack.pop()
                    for w in adj[v]:
                        if w not in members:
                            members.add(w)
                            stack.append(w)
                for v in members:
                    comp[v] = min(members)
            classes = {frozenset(k for k, r in comp.items() if r == root)
                       for root in set(comp.values())}
            assert classes == {wall.side_plain, wall.side_star}
            # convexity via the metric: inner-side pairs realize their delta
            # through inner-side midpoints
            for side in (wall.side_plain, wall.side_star):
                for a in side:
                    for b in side:
                        on_geodesic = [
                            m
                            for m in side
                            if p.delta(c.vertices[a], c.vertices[m])
                            + p.delta(c.vertices[m], c.vertices[b])
                            == p.delta(c.vertices[a], c.vertices[b])
                        ]
                        assert a in on_geodesic and b in on_geodesic


def test_extract_halfspaces_square(fix_square):
    q = extract_halfspaces(build_cubing(fix_square))
    assert q.n_pairs == 2
    assert q.classify_pair(0, 2).kind == "transverse"


def test_extract_halfspaces_line3(fix_line3):
    q = extract_halfspaces(build_cubing(fix_line3))
    assert q.n_pairs == 3
    chain = sorted(
        [q.handle("h1"), q.handle("h2"), q.handle("h3")],
        key=lambda e: sum(q.leq(e, f) for f in q.proper_elements()),
    )
    # a 3-chain: one element below the others, one above
    assert q.leq(chain[2], chain[1]) or q.leq(chain[1], chain[2])


def test_extract_trivial_complex():
    p = FinitePocSet.from_order_generators(0, [])
    q = extract_halfspaces(build_cubing(p))
    assert q.n_pairs == 0


def test_duality_fixtures(fix_line3, fix_square, fix_tripod):
    for p in (fix_line3, fix_square, fix_tripod):
        report = duality_roundtrip(p)
        assert report.isomorphic
        assert len(report.element_bijection) == 2 * p.n_pairs
        assert sorted(report.vertex_bijection) == list(
            range(len(p.ultrafilters()))
        )


def test_duality_random():
    rng = random.Random(2718)
    for _ in range(30):
        p = random_pocset(rng, max_pairs=5)
        assert duality_roundtrip(p).isomorphic
        # the complex rebuilt from the extracted halfspaces is the same complex
        c = build_cubing(p)
        assert _complex_shape(build_cubing(extract_halfspaces(c))) == _complex_shape(c)


def test_dot_export(fix_square):
    dot = build_cubing(fix_square).to_dot()
    assert dot.startswith("graph cubing {")
    assert dot.count(" -- ") == 4
    assert 'label="h1"' in dot


def test_json_export_roundtrip_shape(fix_square):
    blob = build_cubing(fix_square).to_json()
    assert len(blob["vertices"]) == 4
    assert len(blob["edges"]) == 4
    assert blob["cubes"]["2"][0]["walls"] == ["h1", "h2"]
