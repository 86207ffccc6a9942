from __future__ import annotations

import json
import random
import sys
from collections import Counter
from itertools import combinations, product
from typing import Iterator

import pytest

from pocsets.core import FinitePocSet, Ultrafilter, pair_of
from pocsets import core, cubing
from pocsets.cubing import (
    MAX_CUBES,
    Cube,
    CubeComplex,
    DualityReport,
    build_cubing,
    duality_roundtrip,
    extract_halfspaces,
)
from pocsets.formats import fixture_pocset
from pocsets.errors import (
    AxiomViolation,
    DegenerateWall,
    MalformedInput,
    NotIsomorphic,
    PocError,
)

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


def test_a_star_of_many_leaves_tries_no_subsets():
    # h_i* < h_j for all i != j: n + 1 vertices, and the centre's n plain
    # minimal elements are pairwise nested, so no subset of them is a cube
    # and none should be tried (there are 2^40).  The build runs under a
    # line budget: every line run in `core` or `cubing` counts, and a build
    # that tried the subsets would run past it at once.
    n = 40
    star_order = [(2 * i + 1, 2 * j) for i in range(n) for j in range(n) if i != j]
    p = FinitePocSet.from_order_generators(n, star_order)
    watched = {cubing.__file__, core.__file__}
    budget, lines = 20 * n * n, 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            assert lines <= budget, "the build ran past its line budget"
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code.co_filename in watched else None)
    try:
        c = build_cubing(p)
    finally:
        sys.settrace(previous)
    assert (len(c.vertices), len(c.edges), c.cubes) == (n + 1, n, {})
    assert 0 < lines


def test_cube_count_equals_transverse_subsets_random():
    rng = random.Random(42)
    for _ in range(25):
        p = random_pocset(rng, max_pairs=5)
        c = build_cubing(p)
        corners = {d: c.corners(cubes) for d, cubes in c.cubes.items()}
        for i, u in enumerate(c.vertices):
            mins = p.min_set(u)
            for d in range(2, len(mins) + 1):
                expected = sum(
                    1
                    for sub in combinations(mins, d)
                    if all(p.transverse(x, y) for x, y in combinations(sub, 2))
                )
                got = sum(1 for vertices in corners.get(d, []) if i in vertices)
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
            for cube, vertices in zip(cubes, c.corners(cubes)):
                assert cube.base == min(vertices)


def test_all_corners_come_from_one_index(monkeypatch):
    # 10 free pairs: 1,024 vertices and 52,905 cubes of dimension >= 2, whose
    # corners one call lists with one index; a cube's corners are the
    # vertices whose signs differ from its base's only on its pairs
    p = FinitePocSet.from_order_generators(10)
    c = build_cubing(p)
    cubes = [cube for d in sorted(c.cubes) for cube in c.cubes[d]]
    assert len(c.vertices) == 1024 and len(cubes) == 52905
    builds, sign_masks = [], cubing._sign_masks

    def counting(vertices):
        builds.append(len(vertices))
        return sign_masks(vertices)

    monkeypatch.setattr(cubing, "_sign_masks", counting)
    corners = c.corners(cubes)
    assert builds == [1024]
    assert sum(map(len, corners)) == sum(2 ** len(cube.pairs) for cube in cubes)
    for cube, vertices in zip(cubes[::997], corners[::997]):
        base = c.vertices[cube.base].signs
        assert vertices == [
            i for i, u in enumerate(c.vertices)
            if all(s == b or k in cube.pairs for k, (s, b) in enumerate(zip(u.signs, base)))
        ]
    assert c.cube_vertices(cubes[-1]) == corners[-1] and len(builds) == 2


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


def test_a_wall_with_an_empty_side_is_refused(fix_square):
    # a hand-built complex on the square without the vertices across h2
    c = build_cubing(fix_square)
    kept = [u for u in c.vertices if u.signs[1] == 0]
    with pytest.raises(DegenerateWall) as exc:
        extract_halfspaces(CubeComplex(fix_square, kept, [(0, 1, 0)], {}))
    assert (str(exc.value), exc.value.witness) == ("wall h2 has an empty side", 1)
    assert exc.value.code == "degenerate-wall"
    # and without the vertices on the plain side of h1
    kept = [u for u in c.vertices if u.signs[0] == 1]
    with pytest.raises(DegenerateWall, match="^wall h1 has an empty side$"):
        extract_halfspaces(CubeComplex(fix_square, kept, [(0, 1, 1)], {}))


def test_a_roundtrip_to_another_order_is_refused(monkeypatch, fix_line3):
    # halfspace rows patched to those of three transverse pairs: line3 has
    # h2 <= h1, so h1* <= h2*, and they do not; row h1* comes first
    free = FinitePocSet.from_order_generators(3, [])
    monkeypatch.setattr(cubing, "_halfspace_rows", lambda n, signs: list(free._up))
    with pytest.raises(NotIsomorphic) as exc:
        duality_roundtrip(fix_line3)
    assert (str(exc.value), exc.value.witness) == ("order mismatch at (h1*, h2*)", (1, 3))
    assert exc.value.code == "not-isomorphic"
    # and the other way round, a relation missing from p
    monkeypatch.setattr(cubing, "_halfspace_rows", lambda n, signs: list(fix_line3._up))
    with pytest.raises(NotIsomorphic) as exc:
        duality_roundtrip(free)
    assert (str(exc.value), exc.value.witness) == ("order mismatch at (h1*, h2*)", (1, 3))


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


# ---------------------------------------------------------------------------
# the round trip against the composition it checks


def _report(bijection: dict, vertex_count: int) -> dict:
    """The round trip's JSON report for these maps: the element bijection
    and the identity on the vertices."""
    vertices = {str(i): i for i in range(vertex_count)}
    return {"isomorphic": True, "elements": bijection, "vertices": vertices, "mismatch": None}


def _composed_roundtrip(p: FinitePocSet) -> dict:
    """The round trip's report as the composition it checks: build the
    complex, extract its halfspace poc-set and compare the two orders."""
    c = build_cubing(p)
    q = extract_halfspaces(c)
    if q._up != p._up:
        a = next(a for a in p.elements() if p._up[a] != q._up[a])
        diff = p._up[a] ^ q._up[a]
        b = (diff & -diff).bit_length() - 1
        raise NotIsomorphic(f"order mismatch at ({p.name(a)}, {p.name(b)})", (a, b))
    bijection = {p.name(e): q.name(e) for e in p.proper_elements()}
    return _report(bijection, len(c.vertices))


def _roundtrip(p: FinitePocSet) -> dict:
    return duality_roundtrip(p).to_json()


def _outcome(run, p: FinitePocSet):
    """What run(p) returns, or the refusal's class, message and witness."""
    try:
        return run(p)
    except PocError as exc:
        return type(exc), str(exc), exc.witness


def test_the_roundtrip_matches_the_composition(monkeypatch, fix_line3, fix_square, fix_tripod):
    pocsets = [fix_line3, fix_square, fix_tripod, FinitePocSet.from_order_generators(10, [])]
    rng = random.Random(22)
    pocsets += [random_pocset(rng, max_pairs=7) for _ in range(200)]
    outcomes = Counter()
    for cap in (10**5, 7, 3, 1, 0):
        monkeypatch.setattr(cubing, "MAX_CUBES", cap)
        for p in pocsets:
            new = _outcome(_roundtrip, p)
            assert new == _outcome(_composed_roundtrip, p)
            outcomes[type(new)] += 1
    assert outcomes[dict] and outcomes[tuple], outcomes
    # three free pairs have exactly 7 cubes: at a cap of 7 they pass, at 6 not
    free3 = FinitePocSet.from_order_generators(3, [])
    monkeypatch.setattr(cubing, "MAX_CUBES", 7)
    assert duality_roundtrip(free3).isomorphic
    monkeypatch.setattr(cubing, "MAX_CUBES", 6)
    assert _outcome(_roundtrip, free3) == (MalformedInput, "more than 6 cubes to build", 3)


def test_a_flipped_row_bit_is_refused_as_the_composition_refuses_it(monkeypatch, fix_line3, fix_square, fix_tripod):
    # each bit (a, b) of the extracted rows flipped in turn, alone and with
    # its dual bit (b*, a*): the round trip must reach the composition's
    # outcome for the same rows, mostly an `AxiomViolation` from validating
    # a lone flip and `NotIsomorphic` for a relation added or dropped.
    # `_from_rows` sets every diagonal bit, so a cleared one restores p; a
    # diagonal bit is flipped alone, as clearing a <= a and a* <= a* together
    # once hung the closure and is checked in a fresh interpreter instead
    halfspace_rows = cubing._halfspace_rows
    rng = random.Random(23)
    pocsets = [fix_line3, fix_square, fix_tripod] + [random_pocset(rng, max_pairs=4) for _ in range(10)]
    outcomes = Counter()
    for p in pocsets:
        m = p.element_count
        for a, b, dual in ((a, b, dual) for a in range(m) for b in range(m) for dual in (False, a != b)):
            cells = {(a, b), (b ^ 1, a ^ 1)} if dual else {(a, b)}
            flipped = lambda n, signs: [
                row ^ sum(1 << y for x, y in cells if x == r)
                for r, row in enumerate(halfspace_rows(n, signs))
            ]
            monkeypatch.setattr(cubing, "_halfspace_rows", flipped)
            new = _outcome(_roundtrip, p)
            assert new == _outcome(_composed_roundtrip, p), (p, a, b)
            outcomes[new[0] if isinstance(new, tuple) else dict] += 1
    assert outcomes[AxiomViolation] and outcomes[NotIsomorphic], outcomes


def test_the_roundtrip_builds_no_cube(monkeypatch, fix_line3, fix_square, fix_tripod):
    free11 = FinitePocSet.from_order_generators(11, [])
    refused = _outcome(build_cubing, free11)
    assert refused == (MalformedInput, "more than 100000 cubes to build", 11)

    def no_record(*args):
        raise AssertionError("the round trip built a cube or a complex")

    monkeypatch.setattr(cubing, "Cube", no_record)
    monkeypatch.setattr(cubing, "CubeComplex", no_record)
    for p in (fix_line3, fix_square, fix_tripod):
        assert duality_roundtrip(p).isomorphic
    assert _outcome(_roundtrip, free11) == refused


def test_the_roundtrip_counts_the_cubes_only_when_their_bound_passes_the_cap(monkeypatch, fix_square):
    # each cube is a vertex and 2 or more of its n or fewer plain minimal
    # walls, so len(walk) * (2^n - n - 1) bounds the count: the round trip
    # counts (and may refuse) exactly when that bound passes MAX_CUBES
    counted = []
    least_corners = cubing._least_corners

    def spy(p, walk):
        counted.append(p)
        return least_corners(p, walk)

    monkeypatch.setattr(cubing, "_least_corners", spy)
    free3, free10 = (FinitePocSet.from_order_generators(n, []) for n in (3, 10))
    cases = [(fix_square, 10**5, False), (free10, 10**5, True), (free3, 7, True), (free3, 6, True)]
    rng = random.Random(22)
    cases += [(random_pocset(rng, max_pairs=7), cap, None) for cap in (10**5, 7, 3, 1, 0) for _ in range(40)]
    for p, cap, expected in cases:
        monkeypatch.setattr(cubing, "MAX_CUBES", cap)
        n = p.n_pairs
        passes = len(p.ultrafilters()) * (2**n - n - 1) > cap
        assert expected in (None, passes), (p, cap)
        counted.clear()
        outcome = _outcome(_roundtrip, p)
        assert counted == ([p] if passes else []), (p, cap)
        assert outcome == _outcome(_composed_roundtrip, p)


# ---------------------------------------------------------------------------
# one probe per plain member against the minimality test it replaced


def _minimal_least_corners(p: FinitePocSet, walk: list):
    """`cubing._least_corners` with a minimality test: `FinitePocSet._minimal`
    picks each vertex's plain minimal members, and each edge looks its raised
    vertex up in the stars index."""
    n, found = p.n_pairs, 0
    index = {stars: i for i, (_, stars) in enumerate(walk)}
    plain_stars = (4**n - 1) // 3 << 1  # bits 1, 3, .. below 2n
    for i, (_, stars) in enumerate(walk):
        plain = p._minimal(stars, stars & plain_stars)
        moves = [(i, index[stars ^ 3 << a], a >> 1) for a in range(2 * n - 2, -1, -2) if plain >> a & 1]
        subsets = []
        if plain & (plain - 1):
            pairs = int(bin(plain | 1 << 2 * n)[4::2], 2)
            cubing._transverse_subsets(p._transverse_pairs, (), pairs, subsets)
            found += len(subsets)
            if found > cubing.MAX_CUBES:
                raise MalformedInput(f"more than {cubing.MAX_CUBES} cubes to build", n)
        yield i, moves, subsets


def _corners(least_corners, p: FinitePocSet):
    """The least corners listed before any refusal, and the refusal."""
    listed = []
    try:
        for corner in least_corners(p, p._walk_ultrafilters()):
            listed.append(corner)
    except PocError as exc:
        return listed, (type(exc), str(exc), exc.witness)
    return listed, None


def test_one_probe_finds_what_the_minimality_test_finds(monkeypatch):
    # per vertex: the plain minimal set, the edges and the cubes; and the
    # vertex at which MAX_CUBES refuses, in `build_cubing` and in the round
    # trip's count, against the `_minimal` reference at five caps
    least_corners = cubing._least_corners
    seen = []

    def spy(p, walk):
        for corner in least_corners(p, walk):
            seen.append(corner[0])
            yield corner

    monkeypatch.setattr(cubing, "_least_corners", spy)
    pocsets = [fixture_pocset(name) for name in ("FIX-SQ", "FIX-LINE3", "FIX-TRIPOD")]
    pocsets += list({(p.n_pairs, p._up): p for p in _sampled_pocsets()}.values())
    outcomes = Counter()
    for cap in (10**5, 7, 3, 1, 0):
        monkeypatch.setattr(cubing, "MAX_CUBES", cap)
        for p in pocsets:
            expected, refusal = _corners(_minimal_least_corners, p)
            assert _corners(least_corners, p) == (expected, refusal)
            reached = [i for i, _, _ in expected]
            if refusal is None:
                for (i, moves, _), u in zip(expected, p.ultrafilters()):
                    assert [2 * k for _, _, k in reversed(moves)] == [a for a in p.min_set(u) if not a & 1]
            seen.clear()
            built = _outcome(build_cubing, p)
            assert seen == reached
            if refusal is None:
                assert built.edges == [edge for _, moves, _ in expected for edge in moves]
                assert _complex_shape(built)[2] == {
                    d: [(i, sub) for i, _, subsets in expected for sub in subsets if len(sub) == d]
                    for d in built.cubes
                }
                assert sum(map(len, built.cubes.values())) == sum(len(s) for _, _, s in expected)
            else:
                assert built == refusal
            seen.clear()
            n = p.n_pairs
            counted = len(p.ultrafilters()) * (2**n - n - 1) > cap
            report = _outcome(_roundtrip, p)
            assert seen == (reached if counted else [])
            if refusal is None:
                assert report["isomorphic"]
            else:  # the bound passes the cap whenever the count does
                assert counted and report == refusal
            outcomes[refusal is None, counted] += 1
    assert set(outcomes) == {(True, False), (True, True), (False, True)}, outcomes


def test_the_report_reads_as_the_eager_report_did():
    # the report keeps the pair and vertex counts; each read of a bijection
    # builds a fresh identity map, and its JSON is the bytes of the report
    # that held both maps, for n = 0..8
    pairs = Counter()
    for p in [FinitePocSet.from_order_generators(n, []) for n in range(9)] + list(_sampled_pocsets())[:500]:
        walk = p._walk_ultrafilters()
        names = [p.name(e) for e in p.proper_elements()]
        vertices = range(len(walk))
        eager = {
            "isomorphic": True,
            "elements": dict(zip(names, names)),
            "vertices": {str(k): v for k, v in dict(zip(vertices, vertices)).items()},
            "mismatch": None,
        }
        report = duality_roundtrip(p)
        assert report == DualityReport(p.n_pairs, len(walk))
        assert json.dumps(report.to_json()) == json.dumps(eager)
        assert report.element_bijection == eager["elements"]
        assert report.vertex_bijection == dict(zip(vertices, vertices))
        assert report.element_bijection is not report.element_bijection
        report.vertex_bijection.clear()
        assert len(report.vertex_bijection) == len(walk)
        pairs[p.n_pairs] += 1
    assert set(pairs) == set(range(9)), pairs


# ---------------------------------------------------------------------------
# the integer build against the frozenset build it replaced


def _frozenset_ultrafilters(p: FinitePocSet) -> list[Ultrafilter]:
    """Backtracking over pairs with one recursive call per choice, an
    ultrafilter built from its signs at each leaf."""
    results, signs = [], []

    def descend(k: int, stars: int) -> None:
        if k == p.n_pairs:
            results.append(p.ultrafilter_from_signs(signs))
            return
        for e in (2 * k, 2 * k + 1):
            if not p._up[e] & stars:
                signs.append(e & 1)
                descend(k + 1, stars | 1 << (e ^ 1))
                signs.pop()

    descend(0, 0)
    return results


def _frozenset_min_set(p: FinitePocSet, u: Ultrafilter) -> list[int]:
    proper = [e for e in u.members if p.is_proper(e)]
    above = 0  # every handle strictly above some proper member
    for x in proper:
        above |= p._up[x] & ~(1 << x)
    return [e for e in sorted(proper) if not above >> e & 1]


def _frozenset_subsets(p: FinitePocSet, sub: tuple, later: list):
    for j, x in enumerate(later):
        grown = sub + (x,)
        if len(grown) >= 2:
            yield grown
        rest = [y for y in later[j + 1 :] if p.transverse(x, y)]
        if rest:
            yield from _frozenset_subsets(p, grown, rest)


def _frozenset_build(p: FinitePocSet) -> CubeComplex:
    """Vertices keyed by their sign tuples, minimal sets sorted per vertex
    and transversality asked one pair of elements at a time."""
    vertices = _frozenset_ultrafilters(p)
    index = {u.signs: i for i, u in enumerate(vertices)}
    edges, cubes = [], {}
    for i, u in enumerate(vertices):
        plain = [a for a in _frozenset_min_set(p, u) if not a & 1]
        for a in reversed(plain):
            signs = list(u.signs)
            signs[pair_of(a)] = 1
            edges.append((i, index[tuple(signs)], pair_of(a)))
        for sub in _frozenset_subsets(p, (), plain):
            cubes.setdefault(len(sub), []).append(Cube(i, tuple(map(pair_of, sub))))
    return CubeComplex(p, vertices, edges, cubes)


def _frozenset_extract_rows(c: CubeComplex) -> list[int]:
    """The rows of the halfspace order, by frozenset inclusion of sides."""
    sides = []
    for wall in c.walls():
        sides += [wall.side_plain, wall.side_star]
    sides += [frozenset(), frozenset(range(len(c.vertices)))]
    return [sum(1 << b for b, other in enumerate(sides) if side <= other) for side in sides]


def _cell_roundtrip(p: FinitePocSet, q: FinitePocSet, vertex_count: int) -> dict:
    """The round trip's report, comparing the two orders cell by cell."""
    for a in p.elements():
        for b in p.elements():
            if p.leq(a, b) != q.leq(a, b):
                raise NotIsomorphic(f"order mismatch at ({p.name(a)}, {p.name(b)})", (a, b))
    bijection = {p.name(e): q.name(e) for e in p.proper_elements()}
    return _report(bijection, vertex_count)


def _walls(c: CubeComplex) -> list:
    return [(w.pair, w.edges, w.side_plain, w.side_star) for w in c.walls()]


def _sampled_pocsets() -> Iterator[FinitePocSet]:
    """5,000 poc-sets from generator sets drawn as finite-duality draws
    them, n = 0..8, repeats included."""
    rng = random.Random(15)
    for _ in range(5000):
        n = rng.randint(0, 8)
        while True:
            edges = [(rng.randrange(2 * n), rng.randrange(2 * n)) for _ in range(rng.randint(0, 2 * n))]
            try:
                yield FinitePocSet.from_order_generators(n, edges)
                break
            except AxiomViolation:
                continue


def test_integer_build_matches_the_frozenset_build():
    # every comparison is a function of the poc-set alone, so each distinct
    # one is compared once, on first sight, and `sizes` still counts all draws
    sizes = Counter()
    seen = {}
    for p in _sampled_pocsets():
        key = (p.n_pairs, tuple(p._up))
        if key not in seen:
            old, new = _frozenset_build(p), build_cubing(p)
            assert [(u.signs, u.members) for u in p.ultrafilters()] == [
                (u.signs, u.members) for u in old.vertices
            ]
            assert [(u.signs, u.members) for u in new.vertices] == [
                (u.signs, u.members) for u in old.vertices
            ]
            assert new.edges == old.edges
            assert new.cubes == old.cubes
            assert _walls(new) == _walls(old)
            assert list(extract_halfspaces(new)._up) == _frozenset_extract_rows(old)
            assert duality_roundtrip(p).to_json() == _cell_roundtrip(p, p, len(old.vertices))
            seen[key] = (len(old.vertices) > 16, max(old.cubes, default=1))
        sizes[seen[key]] += 1
    # small and large complexes, with and without cubes of dimension >= 3
    assert {(False, 1), (False, 2), (True, 2), (True, 3)} <= set(sizes), sizes


def _side_rows(n: int, signs: list[tuple[int, ...]]) -> list[int]:
    """The halfspace rows from the vertex sets of the sides, one bit at a
    time: bit b of row a is set iff side a misses side b*; refused at the
    first wall with an empty side."""
    sides, everything = [], (1 << len(signs)) - 1
    digits = bytes.maketrans(b"\0\1", b"01")
    for k, column in enumerate(zip(*(signs[::-1] or [(0,) * n]))):  # no vertex: no side
        starred = int(bytes(column).translate(digits), 2)
        if not starred or starred == everything:
            raise DegenerateWall(f"wall h{k + 1} has an empty side", k)
        sides += [everything ^ starred, starred]
    sides += [0, everything]  # 0 and 0*
    return [sum(1 << b for b in range(2 * n + 2) if not side & sides[b ^ 1]) for side in sides]


def _rows_outcome(rows, *args):
    """The rows, or the refusal's class, message and witness."""
    try:
        return rows(*args)
    except PocError as exc:
        return type(exc), str(exc), exc.witness


def _member_mask_rows(n: int, signs: list[tuple[int, ...]]):
    """`_halfspace_rows` on the vertices with these signs, each with the
    mask of its members' stars (member 2k + s has star 2k + 1 - s)."""
    walk = [(v, sum(1 << 2 * k + 1 - s for k, s in enumerate(v))) for v in signs]
    return _rows_outcome(cubing._halfspace_rows, n, walk)


def test_member_mask_rows_match_the_side_rows(fix_line3, fix_square, fix_tripod):
    free10 = FinitePocSet.from_order_generators(10, [])
    pocsets = {(p.n_pairs, p._up): p for p in (fix_line3, fix_square, fix_tripod, free10)}
    pocsets.update({(p.n_pairs, p._up): p for p in _sampled_pocsets()})
    for p in pocsets.values():
        walk = p._walk_ultrafilters()
        rows = _side_rows(p.n_pairs, [signs for signs, _ in walk])
        assert cubing._halfspace_rows(p.n_pairs, walk) == rows == list(p._up)
        assert _member_mask_rows(p.n_pairs, [signs for signs, _ in walk]) == rows
    # crafted vertex lists: none at all, a single one (every wall is
    # one-sided, so the first is refused), and the vertices on one side of
    # wall k (and on either side of the others): the same refusal at k
    outcomes = Counter()
    for n in range(5):
        crafted = [[], [(1,) * n]] + [
            [v for v in product((0, 1), repeat=n) if v[k] == side] for k in range(n) for side in (0, 1)
        ]
        for signs in crafted:
            expected = _rows_outcome(_side_rows, n, signs)
            assert _member_mask_rows(n, signs) == expected, (n, signs)
            outcomes[expected[2] if isinstance(expected, tuple) else None] += 1
    assert set(outcomes) == {None, 0, 1, 2, 3}, outcomes


def test_a_refused_roundtrip_matches_the_cell_scan(monkeypatch):
    rng = random.Random(16)
    checked = 0
    for _ in range(1000):
        p, q = random_pocset(rng, max_pairs=5), random_pocset(rng, max_pairs=5)
        if p.n_pairs != q.n_pairs or p._up == q._up:
            continue
        checked += 1
        monkeypatch.setattr(cubing, "_halfspace_rows", lambda n, signs: list(q._up))
        with pytest.raises(NotIsomorphic) as new:
            duality_roundtrip(p)
        with pytest.raises(NotIsomorphic) as old:
            _cell_roundtrip(p, q, 0)
        assert (str(new.value), new.value.witness) == (str(old.value), old.value.witness)
    assert checked >= 20


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
