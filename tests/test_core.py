from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pocsets.core import FinitePocSet, sample_pocset, star
from pocsets.errors import (
    AxiomViolation,
    MalformedInput,
    NotAFilterBase,
    NotMaximalTransverse,
    NotMinimal,
    TrivialElement,
)

from conftest import brute_force_ultrafilters, random_pocset


# ---------------------------------------------------------------------------
# validation


def test_empty_pocset_is_valid():
    p = FinitePocSet.from_order_generators(0, [])
    assert p.n_pairs == 0
    assert [u.signs for u in p.ultrafilters()] == [()]
    assert p.ultrafilters()[0].members == frozenset({p.zero_star})
    # the order is built and checked only by the named constructors
    with pytest.raises(TypeError, match="from_order_generators"):
        FinitePocSet(0, [])


def test_line3_validates(fix_line3):
    p = fix_line3
    assert p.n_pairs == 3
    assert p.leq(p.handle("h3"), p.handle("h1"))
    assert p.leq(p.handle("h1*"), p.handle("h3*"))
    assert not p.leq(p.handle("h1"), p.handle("h3"))


def test_h_below_hstar_rejected():
    with pytest.raises(AxiomViolation) as exc:
        FinitePocSet.from_order_generators(1, [(0, 1)])
    assert exc.value.axiom == "h <= h*"


def test_antisymmetry_rejected():
    with pytest.raises(AxiomViolation) as exc:
        FinitePocSet.from_order_generators(2, [(0, 2), (2, 0)])
    assert exc.value.axiom == "antisymmetry"


def _name(e: int, n: int) -> str:
    return ("0" if e // 2 == n else f"h{e // 2 + 1}") + ("*" if e % 2 else "")


def _closure(m: int, leq: list[list[bool]]) -> list[set[int]]:
    """Reachability by depth-first search: the handles above each handle."""
    above = []
    for a in range(m):
        seen, todo = {a}, [a]
        while todo:
            x = todo.pop()
            for y in range(m):
                if leq[x][y] and y not in seen:
                    seen.add(y)
                    todo.append(y)
        above.append(seen)
    return above


def _first_violation(n: int, above: list[set[int]]):
    """The poc-set axioms by a brute-force scan of the closed relation, in
    the order and with the witnesses the constructors report."""
    m, zero = 2 * n + 2, 2 * n
    for a in range(m):
        for b in range(a + 1, m):
            if b in above[a] and a in above[b]:
                message = f"{_name(a, n)} and {_name(b, n)} are order-equivalent"
                return ("antisymmetry", message, (a, b))
    for e in range(m):
        if e not in above[zero]:
            return ("minimum", f"0 is not below {_name(e, n)}", e)
    for e in range(2 * n):
        if e ^ 1 in above[e]:
            return ("h <= h*", f"{_name(e, n)} lies below its star", e)
    return None


def _agrees_with_brute_force(n: int, above: list[set[int]], build) -> str:
    """Build a poc-set and compare its refusal, or its order and pair
    transversality, with the brute-force scan; returns the outcome."""
    expected = _first_violation(n, above)
    try:
        p = build()
    except AxiomViolation as exc:
        assert (exc.axiom, str(exc), exc.witness) == expected
        return exc.axiom
    assert expected is None
    m = 2 * n + 2
    assert all(p.leq(a, b) == (b in above[a]) for a in range(m) for b in range(m))
    for i, j in combinations(range(n), 2):
        nested = any(y in above[x] for x in (2 * i, 2 * i + 1) for y in (2 * j, 2 * j + 1))
        assert p.transverse(2 * i, 2 * j) == (not nested)
    return "ok"


def test_generator_axioms_agree_with_brute_force():
    # 5,000 random generator sets, n = 0..8, with edges that touch 0 and 0*
    rng = random.Random(2024)
    outcomes = Counter()
    for _ in range(5000):
        n = rng.randint(0, 8)
        m = 2 * n + 2

        def handle():
            return 2 * n + rng.randrange(2) if rng.random() < 0.15 else rng.randrange(m)

        edges = [(handle(), handle()) for _ in range(rng.randint(0, n + 1))]
        leq = [[a == b for b in range(m)] for a in range(m)]
        for a, b in edges:
            leq[a][b] = leq[b ^ 1][a ^ 1] = True
        for e in range(m):
            leq[2 * n][e] = leq[e][2 * n + 1] = True
        build = lambda: FinitePocSet.from_order_generators(n, edges)
        outcomes[_agrees_with_brute_force(n, _closure(m, leq), build)] += 1
    assert set(outcomes) == {"ok", "antisymmetry", "h <= h*"}, outcomes


def test_matrix_axioms_agree_with_brute_force():
    # random star-symmetric relations, with and without the trivial bounds,
    # so the minimum axiom fails too
    rng = random.Random(2025)
    outcomes = Counter()
    for _ in range(1500):
        n = rng.randint(0, 4)
        m = 2 * n + 2
        density = rng.choice((0.05, 0.15, 0.3))
        leq = [[a == b for b in range(m)] for a in range(m)]
        for a in range(m):
            for b in range(m):
                if rng.random() < density:
                    leq[a][b] = leq[b ^ 1][a ^ 1] = True
        if rng.random() < 0.7:
            for e in range(m):
                leq[2 * n][e] = leq[e][2 * n + 1] = True
        build = lambda: FinitePocSet.from_leq_matrix(n, leq)
        outcomes[_agrees_with_brute_force(n, _closure(m, leq), build)] += 1
    assert set(outcomes) == {"ok", "antisymmetry", "minimum", "h <= h*"}, outcomes


def _generator_rows(n: int, edges) -> list[int]:
    """The rows of the generators with their star-duals and the trivial
    bounds, built handle by handle."""
    m, zero = 2 * n + 2, 2 * n
    up = [1 << e for e in range(m)]
    for a, b in edges:
        up[a] |= 1 << b
        up[star(b)] |= 1 << star(a)
    for e in range(m):
        up[zero] |= 1 << e
        up[e] |= 1 << star(zero)
    return up


def _warshall_outcome(n: int, up: list[int]):
    """A test oracle for the constructors' closure: Warshall closes all
    rows, then one scan refuses the first broken axiom at its least
    witness.  Returns the closed rows or (axiom, message, witness)."""
    m = len(up)
    up = list(up)
    for k in range(m):
        bit, row = 1 << k, up[k]
        for a, reach in enumerate(up):
            if reach & bit:
                up[a] = reach | row
    even = (4 ** (m // 2) - 1) // 3
    for a, row in enumerate(up):
        dual = up[a ^ 1]
        down = (dual & even) << 1 | (dual >> 1) & even
        equivalent = row & down & -(2 << a)
        if equivalent:
            b = (equivalent & -equivalent).bit_length() - 1
            return ("antisymmetry", f"{_name(a, n)} and {_name(b, n)} are order-equivalent", (a, b))
    missing = ~up[2 * n] & ((1 << m) - 1)
    if missing:
        e = (missing & -missing).bit_length() - 1
        return ("minimum", f"0 is not below {_name(e, n)}", e)
    for e in range(2 * n):
        if up[e] >> (e ^ 1) & 1:
            return ("h <= h*", f"{_name(e, n)} lies below its star", e)
    return up


def _built_outcome(build):
    try:
        return list(build()._up)
    except AxiomViolation as exc:
        return (exc.axiom, str(exc), exc.witness)


def test_constructors_match_warshall_on_sampled_generators():
    # 5,000 generator sets drawn as the finite-duality benchmark draws them:
    # n = 4..8 and up to 2n edges between proper handles; the matrix of the
    # generator rows must give the same outcome
    rng = random.Random(14)
    outcomes = Counter()
    for _ in range(5000):
        n = rng.randint(4, 8)
        m = 2 * n + 2
        edges = [(rng.randrange(2 * n), rng.randrange(2 * n)) for _ in range(rng.randint(0, 2 * n))]
        rows = _generator_rows(n, edges)
        expected = _warshall_outcome(n, rows)
        assert _built_outcome(lambda: FinitePocSet.from_order_generators(n, edges)) == expected
        leq = [[bool(row >> b & 1) for b in range(m)] for row in rows]
        assert _built_outcome(lambda: FinitePocSet.from_leq_matrix(n, leq)) == expected
        outcomes["ok" if isinstance(expected, list) else expected[0]] += 1
    assert set(outcomes) == {"ok", "antisymmetry", "h <= h*"}, outcomes
    assert min(outcomes.values()) > 500, outcomes


def test_constructors_match_warshall_at_the_pair_cap():
    from pocsets.chains import window_pair, window_pocset
    from pocsets.core import MAX_PAIRS

    n, k, w = MAX_PAIRS, 4, 30
    rng = random.Random(512)
    cases = {
        "no edges": (n, []),
        "chain": (n, [(2 * i, 2 * i + 2) for i in range(n - 1)]),
        "reversed chain": (n, [(2 * i + 2, 2 * i) for i in range(n - 1)]),
        "sparse DAG": (n, [(2 * b, 2 * a) for a, b in (sorted(rng.sample(range(n), 2)) for _ in range(600))]),
        # the edges of window_pocset(4, 30): four chains of 61 walls
        "window": (k * (2 * w + 1), [
            (2 * window_pair(k, w, i, j + 1), 2 * window_pair(k, w, i, j))
            for i in range(k)
            for j in range(-w, w)
        ]),
    }
    for name, (pairs, edges) in cases.items():
        expected = _warshall_outcome(pairs, _generator_rows(pairs, edges))
        assert isinstance(expected, list), name
        assert _built_outcome(lambda: FinitePocSet.from_order_generators(pairs, edges)) == expected
    assert _built_outcome(lambda: window_pocset(k, w)) == expected


def _cell_by_cell_outcome(n: int, leq):
    """A test oracle for `from_leq_matrix`: read the relation one cell at
    a time, check the involution cell by cell in row-major order, then
    close the rows by Warshall.  Returns what `_built_outcome` returns."""
    m = 2 * n + 2
    up = [0] * m
    for a in range(m):
        for b in range(m):
            if leq[a][b]:
                up[a] |= 1 << b
        up[a] |= 1 << a
    for a in range(m):
        for b in range(m):
            if bool(up[a] >> b & 1) != bool(up[star(b)] >> star(a) & 1):
                message = f"{_name(a, n)} <= {_name(b, n)} does not match the dual relation"
                return ("involution not order-reversing", message, (a, b))
    return _warshall_outcome(n, up)


def test_leq_matrix_matches_the_cell_by_cell_scan():
    # random relations, star-symmetric or not, with truthy cells of mixed
    # types; the generator rows of a sampled poc-set are read back too
    rng = random.Random(1515)
    outcomes = Counter()
    for _ in range(3000):
        n = rng.randint(0, 6)
        m = 2 * n + 2
        density = rng.choice((0.05, 0.15, 0.4))
        symmetric = rng.random() < 0.6
        leq = [[False] * m for _ in range(m)]
        for a in range(m):
            for b in range(m):
                if rng.random() < density:
                    leq[a][b] = True
                    if symmetric:
                        leq[b ^ 1][a ^ 1] = True
        if rng.random() < 0.7:
            for e in range(m):
                leq[2 * n][e] = leq[e][2 * n + 1] = True
        if rng.random() < 0.3:
            cell = lambda v: rng.choice((1, "x", 2.5)) if v else rng.choice((0, None, ""))
            leq = [[cell(v) for v in row] for row in leq]
        expected = _cell_by_cell_outcome(n, leq)
        assert _built_outcome(lambda: FinitePocSet.from_leq_matrix(n, leq)) == expected
        outcomes["ok" if isinstance(expected, list) else expected[0]] += 1
    kinds = {"ok", "involution not order-reversing", "antisymmetry", "minimum", "h <= h*"}
    assert set(outcomes) == kinds, outcomes


def test_leq_matrix_reads_back_the_order_at_the_pair_cap():
    from pocsets.core import MAX_PAIRS

    n = MAX_PAIRS
    for edges in ([], [(2 * i, 2 * i + 2) for i in range(n - 1)]):
        p = FinitePocSet.from_order_generators(n, edges)
        # closed rows come back unchanged
        assert FinitePocSet._from_rows(n, p._up)._up == p._up
        m = 2 * n + 2
        leq = [[bool(row >> b & 1) for b in range(m)] for row in p._up]
        assert FinitePocSet.from_leq_matrix(n, leq)._up == p._up
        leq[3][2 * n - 2] = True  # h2* <= h512 without h512* <= h2
        with pytest.raises(AxiomViolation, match="h2\\* <= h512 does not match") as exc:
            FinitePocSet.from_leq_matrix(n, leq)
        assert exc.value.witness == (3, 2 * n - 2)


def test_rows_without_their_diagonal_close_to_the_order():
    # `_from_rows` sets a <= a itself; the closure's search never stopped on
    # rows missing it, so a fresh interpreter runs the check and a
    # regression fails at the timeout instead of hanging the suite
    tests = Path(__file__).resolve().parent
    script = (
        "import random\n"
        "from conftest import line3, random_pocset, square, tripod\n"
        "from pocsets.core import FinitePocSet\n"
        "p = square()  # h1 <= h1 and h1* <= h1* cleared\n"
        "up = [row & ~(1 << a) if a < 2 else row for a, row in enumerate(p._up)]\n"
        "assert FinitePocSet._from_rows(p.n_pairs, up)._up == p._up\n"
        "rng = random.Random(5)\n"
        "for p in [line3(), square(), tripod()] + [random_pocset(rng, 5) for _ in range(20)]:\n"
        "    bare = [row & ~(1 << a) for a, row in enumerate(p._up)]\n"
        "    assert FinitePocSet._from_rows(p.n_pairs, bare)._up == p._up\n"
    )
    path = os.pathsep.join((str(tests.parent / "src"), str(tests)))
    subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": path}, timeout=60, check=True)


def _classified_transversality(p: FinitePocSet) -> tuple[int, ...]:
    """Pair transversality from `classify_pair` on the plain handles."""
    masks = [0] * p.n_pairs
    for i, j in combinations(range(p.n_pairs), 2):
        if not p.classify_pair(2 * i, 2 * j).nested:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return tuple(masks)


def test_pair_transversality_matches_classify_pair():
    rng = random.Random(1516)
    for _ in range(1500):
        p = random_pocset(rng, max_pairs=9)
        assert p._transverse_pairs == _classified_transversality(p)
    # at the cap: no edges, a chain, and a sparse DAG
    n = 512
    for edges in (
        [],
        [(2 * i, 2 * i + 2) for i in range(n - 1)],
        [(2 * b, 2 * a + 1) for a, b in (sorted(rng.sample(range(n), 2)) for _ in range(300))],
    ):
        p = FinitePocSet.from_order_generators(n, edges)
        assert p._transverse_pairs == _classified_transversality(p)


def test_dangling_handle_rejected():
    from pocsets.errors import MalformedInput

    with pytest.raises(MalformedInput):
        FinitePocSet.from_order_generators(1, [(0, 9)])


def test_pair_count_above_the_cap_is_refused():
    from pocsets import core
    from pocsets.errors import MalformedInput

    with pytest.raises(MalformedInput, match="above the cap"):
        FinitePocSet.from_order_generators(core.MAX_PAIRS + 1, [])
    with pytest.raises(MalformedInput, match="non-negative"):
        FinitePocSet.from_order_generators(-1, [])


def test_leq_matrix_checks_the_pair_count_first():
    from pocsets import core
    from pocsets.errors import MalformedInput

    with pytest.raises(MalformedInput, match="non-negative"):
        FinitePocSet.from_leq_matrix(-1, [])
    # refused before the matrix is read, let alone closed
    m = 2 * core.MAX_PAIRS + 4
    row = [True] * m
    with pytest.raises(MalformedInput, match="above the cap"):
        FinitePocSet.from_leq_matrix(core.MAX_PAIRS + 1, [row] * m)


def test_window_pocset_is_below_the_pair_cap():
    from pocsets.chains import window_pocset

    assert window_pocset(3, 6).n_pairs == 39


def test_parse_handle_needs_only_the_pair_count():
    from pocsets.core import parse_handle
    from pocsets.errors import MalformedInput

    p = FinitePocSet.from_order_generators(3, [])
    for name in ("h1", "h3*", "0", "0*", " h2 "):
        assert parse_handle(name, 3) == p.handle(name)
    for bad in ("h4", "h0", "x", "h1**"):
        with pytest.raises(MalformedInput):
            parse_handle(bad, 3)


def test_ultrafilter_enumeration_is_capped(monkeypatch):
    from pocsets import core
    from pocsets.errors import MalformedInput

    monkeypatch.setattr(core, "MAX_ULTRAFILTERS", 4)
    assert len(FinitePocSet.from_order_generators(2, []).ultrafilters()) == 4
    # three nested pairs have four ultrafilters, three transverse ones eight
    chain = FinitePocSet.from_order_generators(3, [(2, 0), (4, 2)])
    assert len(chain.ultrafilters()) == 4
    with pytest.raises(MalformedInput, match="more than 4 ultrafilters"):
        FinitePocSet.from_order_generators(3, []).ultrafilters()


def test_leq_matrix_checks_involution():
    # a relation with h1 <= h2 but without h2* <= h1* is not a poc-set
    m = 6
    leq = [[i == j for j in range(m)] for i in range(m)]
    leq[0][2] = True
    for e in range(m):
        leq[4][e] = True  # 0 below everything
        leq[e][5] = True  # everything below 0*
    with pytest.raises(AxiomViolation) as exc:
        FinitePocSet.from_leq_matrix(2, leq)
    assert exc.value.axiom == "involution not order-reversing"


# ---------------------------------------------------------------------------
# pair classification, intervals, dimension


def test_classify_square(fix_square):
    p = fix_square
    assert p.classify_pair(p.handle("h1"), p.handle("h2")).kind == "transverse"


def test_classify_line3(fix_line3):
    p = fix_line3
    got = p.classify_pair(p.handle("h1"), p.handle("h3"))
    assert got.kind == "nested"
    assert got.witness == (p.handle("h3"), p.handle("h1"))


def test_classify_tripod(fix_tripod):
    p = fix_tripod
    got = p.classify_pair(p.handle("h1"), p.handle("h2"))
    assert got.kind == "nested"
    assert got.witness == (p.handle("h1"), p.handle("h2*"))


def test_classify_rejects_trivial(fix_square):
    # as `interval` does: the first element that is not proper is the witness
    p = fix_square
    for call in (p.classify_pair, p.interval):
        for pair, witness in (((p.zero, 0), p.zero), ((0, p.zero_star), p.zero_star), ((5, 4), 5)):
            with pytest.raises(TrivialElement, match=f"handle {witness} is not a proper") as exc:
                call(*pair)
            assert (exc.value.code, exc.value.witness) == ("trivial-element", witness)


def test_interval_line3(fix_line3):
    p = fix_line3
    h1, h2, h3 = p.handle("h1"), p.handle("h2"), p.handle("h3")
    assert p.interval(h3, h1) == sorted([h1, h2, h3])
    assert p.interval(h1, h3) == []
    assert p.interval(h2, h2) == [h2]


def test_interval_square_empty(fix_square):
    p = fix_square
    assert p.interval(p.handle("h1"), p.handle("h2")) == []


def test_dimension(fix_line3, fix_square, fix_tripod):
    assert fix_line3.dimension() == 1
    assert fix_square.dimension() == 2
    assert fix_tripod.dimension() == 1


def test_dimension_matches_exhaustive_on_random():
    rng = random.Random(7)
    for _ in range(40):
        p = random_pocset(rng, max_pairs=5)
        best = 0
        for r in range(p.n_pairs + 1):
            for pairs in combinations(range(p.n_pairs), r):
                els = [2 * k for k in pairs]
                if all(p.transverse(a, b) for a, b in combinations(els, 2)):
                    best = max(best, r)
        assert p.dimension() == best


# ---------------------------------------------------------------------------
# ultrafilter enumeration against the sign-scan oracle


def test_counts_on_fixtures(fix_line3, fix_square, fix_tripod):
    assert len(fix_line3.ultrafilters()) == 4
    assert len(fix_square.ultrafilters()) == 4
    assert len(fix_tripod.ultrafilters()) == 4


def test_square_ultrafilters_are_all_sign_patterns(fix_square):
    assert [u.signs for u in fix_square.ultrafilters()] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_tripod_ultrafilters(fix_tripod):
    p = fix_tripod
    expect = {
        frozenset({p.handle("h1"), p.handle("h2*"), p.handle("h3*"), p.zero_star}),
        frozenset({p.handle("h2"), p.handle("h1*"), p.handle("h3*"), p.zero_star}),
        frozenset({p.handle("h3"), p.handle("h1*"), p.handle("h2*"), p.zero_star}),
        frozenset({p.handle("h1*"), p.handle("h2*"), p.handle("h3*"), p.zero_star}),
    }
    assert {u.members for u in p.ultrafilters()} == expect


def test_enumeration_equals_brute_force_random():
    rng = random.Random(20240817)
    for _ in range(60):
        p = random_pocset(rng, max_pairs=6)
        fast = [u.signs for u in p.ultrafilters()]
        assert fast == sorted(brute_force_ultrafilters(p))


def test_is_ultrafilter_witnesses(fix_square, fix_line3):
    p = fix_square
    missing_pair = {p.handle("h1"), p.handle("h1*"), p.zero_star}
    chk = p.is_ultrafilter(missing_pair)
    assert not chk.ok and chk.axiom == "UF1"

    q = fix_line3
    bad = {q.handle("h1*"), q.handle("h2"), q.handle("h3"), q.zero_star}
    chk = q.is_ultrafilter(bad)
    assert not chk.ok and chk.axiom == "UF2"
    assert chk.witness == (q.handle("h2"), q.handle("h1*"))

    good = {p.handle("h1"), p.handle("h2"), p.zero_star}
    assert p.is_ultrafilter(good).ok
    assert any(u.members == frozenset(good) for u in p.ultrafilters())


# ---------------------------------------------------------------------------
# filter-base extension


def test_extend_square_prefers_plain(fix_square):
    p = fix_square
    u = p.extend_filterbase({p.handle("h1")})
    assert u.members == frozenset({p.handle("h1"), p.handle("h2"), p.zero_star})


def test_extend_empty_base_gives_first(fix_line3, fix_square, fix_tripod):
    for p in (fix_line3, fix_square, fix_tripod):
        assert p.extend_filterbase(()) == p.ultrafilters()[0]


def test_extend_rejects_non_filterbase(fix_tripod):
    p = fix_tripod
    with pytest.raises(NotAFilterBase) as exc:
        p.extend_filterbase({p.handle("h1"), p.handle("h2")})
    assert exc.value.witness == (p.handle("h1"), p.handle("h2"))


def test_ultrafilter_from_members_names_uf1(fix_square):
    # the empty set (the trivial star is added) holds neither h1 nor h1*
    p = fix_square
    with pytest.raises(AxiomViolation) as exc:
        p.ultrafilter_from_members([])
    assert exc.value.axiom == "UF1"
    assert exc.value.witness == p.handle("h1")
    assert str(exc.value) == "set violates ultrafilter axiom UF1"
    assert exc.value.diagnostic()["axiom"] == "UF1"


def test_ultrafilter_from_members_names_uf2(fix_line3):
    q = fix_line3
    with pytest.raises(AxiomViolation) as exc:
        q.ultrafilter_from_members({q.handle("h1*"), q.handle("h2"), q.handle("h3")})
    assert exc.value.axiom == "UF2"
    assert exc.value.witness == (q.handle("h2"), q.handle("h1*"))
    assert str(exc.value) == "set violates ultrafilter axiom UF2"


def test_extension_contains_base_random():
    rng = random.Random(5)
    for _ in range(60):
        p = random_pocset(rng, max_pairs=6)
        ufs = p.ultrafilters()
        if not ufs:
            continue
        u = rng.choice(ufs)
        members = [e for e in u.sorted_members() if p.is_proper(e)]
        base = rng.sample(members, min(len(members), rng.randint(0, 3)))
        ext = p.extend_filterbase(base)
        assert set(base) <= ext.members
        assert p.is_ultrafilter(ext.members).ok


# ---------------------------------------------------------------------------
# median, delta, flips


def test_median_majority_identity(fix_square):
    p = fix_square
    a, b = p.ultrafilters()[0], p.ultrafilters()[3]
    assert p.median(a, a, b) == a


def test_median_square_example(fix_square):
    p = fix_square
    by_signs = {u.signs: u for u in p.ultrafilters()}
    got = p.median(by_signs[(0, 0)], by_signs[(0, 1)], by_signs[(1, 1)])
    assert got == by_signs[(0, 1)]


def test_median_symmetric_and_closed_random():
    rng = random.Random(99)
    for _ in range(40):
        p = random_pocset(rng, max_pairs=5)
        ufs = p.ultrafilters()
        if len(ufs) < 3:
            continue
        a, b, c = rng.choice(ufs), rng.choice(ufs), rng.choice(ufs)
        m = p.median(a, b, c)
        assert p.is_ultrafilter(m.members).ok
        for perm in ((a, c, b), (b, a, c), (c, b, a)):
            assert p.median(*perm) == m


def test_delta(fix_line3):
    p = fix_line3
    ufs = p.ultrafilters()
    all_plus = next(u for u in ufs if u.signs == (0, 0, 0))
    all_minus = next(u for u in ufs if u.signs == (1, 1, 1))
    assert p.delta(all_plus, all_plus) == 0
    assert p.delta(all_plus, all_minus) == 3


def test_min_set(fix_line3, fix_square, fix_tripod):
    p = fix_line3
    u = next(x for x in p.ultrafilters() if x.signs == (0, 0, 0))
    assert p.min_set(u) == [p.handle("h3")]

    q = fix_square
    u = next(x for x in q.ultrafilters() if x.signs == (0, 0))
    assert q.min_set(u) == [q.handle("h1"), q.handle("h2")]

    t = fix_tripod
    u = next(x for x in t.ultrafilters() if x.signs == (1, 1, 1))
    assert t.min_set(u) == [t.handle("h1*"), t.handle("h2*"), t.handle("h3*")]


def test_flip_definition_and_involution(fix_square):
    p = fix_square
    u = next(x for x in p.ultrafilters() if x.signs == (0, 0))
    a = p.handle("h1")
    v = p.flip(u, a)
    assert v.signs == (1, 0)
    assert p.flip(v, star(a)) == u


def test_flip_requires_minimal(fix_line3):
    p = fix_line3
    u = next(x for x in p.ultrafilters() if x.signs == (0, 0, 0))
    with pytest.raises(NotMinimal):
        p.flip(u, p.handle("h1"))


def test_square_commutation(fix_square):
    # transverse flips commute: [[u]_a]_b == [[u]_b]_a
    p = fix_square
    u = next(x for x in p.ultrafilters() if x.signs == (0, 0))
    a, b = p.handle("h1"), p.handle("h2")
    assert p.flip(p.flip(u, a), b) == p.flip(p.flip(u, b), a)


def test_flip_changes_delta_by_one_random():
    rng = random.Random(31)
    for _ in range(50):
        p = random_pocset(rng, max_pairs=5)
        ufs = p.ultrafilters()
        u = rng.choice(ufs)
        mins = p.min_set(u)
        if not mins:
            continue
        a = rng.choice(mins)
        v = p.flip(u, a)
        w = rng.choice(ufs)
        assert abs(p.delta(v, w) - p.delta(u, w)) == 1
        assert p.delta(u, v) == 1


# ---------------------------------------------------------------------------
# principal construction


def test_principal_square(fix_square):
    p = fix_square
    u = p.principal_from_transverse([p.handle("h1"), p.handle("h2")])
    assert u.signs == (0, 0)


def test_principal_line3(fix_line3):
    p = fix_line3
    u = p.principal_from_transverse([p.handle("h3")])
    assert u.members == frozenset(
        {p.handle("h1"), p.handle("h2"), p.handle("h3"), p.zero_star}
    )
    # a nested pair is not transverse: its first member is the witness
    assert p.is_maximal_transverse([p.handle("h3"), p.handle("h1")]) == p.handle("h3")


def test_principal_rejects_non_maximal(fix_square):
    p = fix_square
    with pytest.raises(NotMaximalTransverse) as exc:
        p.principal_from_transverse([p.handle("h1")])
    assert exc.value.witness == p.handle("h2")


def test_every_ultrafilter_has_a_waist_random():
    # alpha = pi_A for some maximal transverse A inside min(alpha)
    rng = random.Random(13)
    for _ in range(40):
        p = random_pocset(rng, max_pairs=5)
        for u in p.ultrafilters():
            mins = p.min_set(u)
            found = False
            for r in range(len(mins), 0, -1):
                for sub in combinations(mins, r):
                    if any(
                        not p.transverse(x, y) for x, y in combinations(sub, 2)
                    ):
                        continue
                    if p.is_maximal_transverse(sub) is None:
                        if p.principal_from_transverse(sub) == u:
                            found = True
                            break
                if found:
                    break
            assert found or p.n_pairs == 0


# ---------------------------------------------------------------------------
# convexity / Helly


def test_vset_square(fix_square):
    p = fix_square
    assert p.vset_nonempty([p.handle("h1"), p.handle("h2")])
    assert p.vset_nonempty([])


def test_vset_tripod_not_filterbase(fix_tripod):
    p = fix_tripod
    assert not p.vset_nonempty([p.handle("h1"), p.handle("h2")])


def test_vset_agrees_with_helly_random():
    # V(A) is non-empty iff A is a filter base (single class backend)
    rng = random.Random(77)
    for _ in range(60):
        p = random_pocset(rng, max_pairs=5)
        if p.n_pairs == 0:
            continue
        size = rng.randint(1, min(3, 2 * p.n_pairs))
        a = rng.sample(range(2 * p.n_pairs), size)
        assert p.vset_nonempty(a) == (p.check_filterbase(a) is None)


def test_helly_pairwise_implies_total_random():
    rng = random.Random(123)
    for _ in range(60):
        p = random_pocset(rng, max_pairs=5)
        if p.n_pairs == 0:
            continue
        size = rng.randint(2, min(4, 2 * p.n_pairs))
        fam = rng.sample(range(2 * p.n_pairs), size)
        if all(
            p.vset_nonempty([x, y]) for x, y in combinations(fam, 2)
        ):
            assert p.vset_nonempty(fam)


# ---------------------------------------------------------------------------
# delta equals graph distance (breadth-first oracle)


def graph_distances(p: FinitePocSet):
    ufs = p.ultrafilters()
    index = {u.signs: i for i, u in enumerate(ufs)}
    adj = [[] for _ in ufs]
    for i, u in enumerate(ufs):
        for a in p.min_set(u):
            adj[i].append(index[p.flip(u, a).signs])
    return ufs, adj


def bfs(adj, source):
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


@pytest.mark.parametrize("maker", ["fix_line3", "fix_square", "fix_tripod"])
def test_delta_is_graph_distance(maker, request):
    p = request.getfixturevalue(maker)
    ufs, adj = graph_distances(p)
    for i in range(len(ufs)):
        d = bfs(adj, i)
        for j in range(len(ufs)):
            assert d[j] == p.delta(ufs[i], ufs[j])


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=25, deadline=None)
def test_delta_is_graph_distance_random(seed):
    p = random_pocset(random.Random(seed), max_pairs=4)
    ufs, adj = graph_distances(p)
    for i in range(len(ufs)):
        d = bfs(adj, i)
        for j in range(len(ufs)):
            assert d.get(j) == p.delta(ufs[i], ufs[j])


def test_top_level_delta_dispatch(fix_square):
    import math

    import pocsets
    from pocsets.chains import PLUS_END, uf
    from pocsets.errors import BackendMismatch

    a, b = fix_square.ultrafilters()[0], fix_square.ultrafilters()[3]
    assert pocsets.delta(a, b) == 2
    assert pocsets.delta(uf(PLUS_END, 0), uf(0, 0)) == math.inf
    assert pocsets.delta(uf(2, 0), uf(0, 0)) == 2
    with pytest.raises(BackendMismatch) as exc:
        pocsets.delta(a, uf(0, 0))
    assert exc.value.witness == ["Ultrafilter", "ChainUltrafilter"]
    with pytest.raises(BackendMismatch, match=re.escape("chain counts [1, 2] differ")) as exc:
        pocsets.delta(uf(0), uf(0, 0))
    assert exc.value.witness == [1, 2]
    with pytest.raises(BackendMismatch) as exc:  # finite ultrafilters of different poc-sets
        pocsets.delta(a, FinitePocSet.from_order_generators(3).ultrafilters()[0])
    assert exc.value.witness == [2, 3]


def test_an_ultrafilter_of_another_pocset_is_refused():
    # a sign vector of another length belongs to another poc-set: every
    # operation on ultrafilters refuses it, where `zip` once truncated and
    # indexing once ran off the end
    from pocsets.core import Ultrafilter
    from pocsets.errors import BackendMismatch
    from pocsets.formats import fixture_pocset

    p, tripod = fixture_pocset("FIX-SQ"), fixture_pocset("FIX-TRIPOD")
    u, v, w = p.ultrafilters()[0], tripod.ultrafilters()[-1], Ultrafilter((0,))
    calls = {
        "delta": lambda x: p.delta(u, x),
        "delta, first": lambda x: p.delta(x, u),
        "median": lambda x: p.median(u, u, x),
        "median, last": lambda x: p.median(x, u, u),
        "min_set": p.min_set,
        "flip a member": lambda x: p.flip(x, 1),
        "flip h2": lambda x: p.flip(x, 2),
        "format_ultrafilter": p.format_ultrafilter,
    }
    for name, call in calls.items():
        for other in (v, w, Ultrafilter(())):
            with pytest.raises(BackendMismatch) as exc:
                call(other)
            assert exc.value.witness == len(other.signs), name
            assert exc.value.code == "backend-mismatch"
            assert str(exc.value) == f"an ultrafilter of another poc-set: {len(other.signs)} signs, not 2"
    # the poc-set's own ultrafilters are answered as before
    assert (p.delta(u, p.ultrafilters()[3]), p.min_set(u), p.format_ultrafilter(u)) == (2, [0, 2], "{h1, h2}")


def test_a_sign_vector_of_another_length_or_entry_is_refused():
    from pocsets.errors import MalformedInput

    p = FinitePocSet.from_order_generators(2, [])
    refused = [
        ((0,), "a sign vector of length 1 for 2 pairs", 1),
        ((0, 1, 0), "a sign vector of length 3 for 2 pairs", 3),
        ((), "a sign vector of length 0 for 2 pairs", 0),
        ((0, 2), "sign 2 of h2 is not 0 or 1", 1),
        ((-1, 0), "sign -1 of h1 is not 0 or 1", 0),
        ((0, True), "sign True of h2 is not 0 or 1", 1),
        ((1.0, 0), "sign 1.0 of h1 is not 0 or 1", 0),
        (("1", 0), "sign '1' of h1 is not 0 or 1", 0),
    ]
    for signs, message, witness in refused:
        with pytest.raises(MalformedInput) as exc:
            p.ultrafilter_from_signs(signs)
        assert (str(exc.value), exc.value.witness, exc.value.code) == (message, witness, "malformed-input")
    assert [p.ultrafilter_from_signs(list(s)).signs for s in product((0, 1), repeat=2)] == [
        u.signs for u in p.ultrafilters()
    ]
    assert FinitePocSet.from_order_generators(0, []).ultrafilter_from_signs(()).signs == ()


def test_a_dangling_handle_is_refused():
    # a handle outside 0..2n+1 is malformed input with the least such handle
    # as witness, before either ultrafilter axiom is checked; `leq`, `name`,
    # `transverse`, `support` and `vset_nonempty` refuse it too, where they
    # used to answer for it or raise a Python error
    from pocsets.errors import MalformedInput
    from pocsets.formats import fixture_pocset

    p = fixture_pocset("FIX-SQ")
    calls = [
        (p.ultrafilter_from_members, [0, 2, 99], 99),
        (p.ultrafilter_from_members, [0, 2, -1], -1),
        (p.is_ultrafilter, [0, 2, 5, 99], 99),
        (p.is_ultrafilter, [0, 1, 6], 6),  # UF1 fails too, and is not reached
        (p.check_filterbase, [0, 77, -3], -3),
        (p.filterbase, [0, 77], 77),
        (p.extend_filterbase, [0, 77], 77),
        (p.extend_filterbase, [6, 7, 8], 6),
        (p.vset_nonempty, [99], 99),
        (p.vset_nonempty, [0, 2, 7, -2], -2),
        (lambda handles: p.support(*handles), [99], 99),
        (lambda handles: p.name(*handles), [99], 99),
        (lambda handles: p.name(*handles), [-1], -1),
        (lambda handles: p.leq(*handles), [0, 99], 99),
        (lambda handles: p.leq(*handles), [99, 0], 99),
        (lambda handles: p.leq(*handles), [0, -1], -1),
        (lambda handles: p.leq(*handles), [99, -1], -1),
        (lambda handles: p.transverse(*handles), [-1, 0], -1),
        (lambda handles: p.transverse(*handles), [99, 0], 99),
        (lambda handles: p.transverse(*handles), [0, -2], -2),
    ]
    for call, members, witness in calls:
        with pytest.raises(MalformedInput) as exc:
            call(members)
        assert (str(exc.value), exc.value.witness) == (f"dangling handle {witness}", witness)
        assert exc.value.code == "malformed-input"
    # every handle 0..2n+1 is still read: 0 and 0* included
    assert p.is_ultrafilter([0, 2, 5]).ok and not p.is_ultrafilter([0, 2, 4, 5]).ok
    assert p.check_filterbase([0, 5]) is None and p.filterbase([0, 2]).members == {0, 2}
    assert p.ultrafilter_from_members([1, 2]).signs == (1, 0)
    assert [p.name(e) for e in range(6)] == ["h1", "h1*", "h2", "h2*", "0", "0*"]
    assert p.leq(4, 0) and p.leq(0, 5) and not p.leq(5, 4)
    # the trivial pair is transverse to nothing, and no transverse set holds
    # it: `is_maximal_transverse([4])` answered None, as if {0} were maximal
    assert not any(p.transverse(a, b) for a in (4, 5) for b in range(6))
    assert not any(p.transverse(a, b) for a in range(6) for b in (4, 5))
    assert p.transverse(0, 2) and p.transverse(3, 1) and p.is_maximal_transverse([0, 2]) is None
    for elements, witness in (([4], 4), ([0, 5], 5), ([0, 99], 99), ([-1], -1)):
        with pytest.raises(TrivialElement) as exc:
            p.is_maximal_transverse(elements)
        assert (exc.value.code, exc.value.witness) == ("trivial-element", witness)
    assert p.support(5) == [0, 1, 2, 3] and p.support(4) == [] and p.support(0) == [0, 1]
    assert p.vset_nonempty([0, 2]) and not p.vset_nonempty([0, 1])


def test_membership_is_read_off_the_signs():
    # `e in u`, `members` and `sorted_members` all derive from the signs:
    # 0* is a member, 0, negative and out-of-range handles are not
    rng = random.Random(18)
    for _ in range(200):
        p = random_pocset(rng)
        handles = range(-1, 2 * p.n_pairs + 4)
        for u in p.ultrafilters():
            expect = {2 * k + s for k, s in enumerate(u.signs)} | {p.zero_star}
            assert u.members == expect and u.sorted_members() == sorted(u.members)
            assert [e in u for e in handles] == [e in u.members for e in handles]


def test_vset_with_restriction_class(fix_square):
    # restricted to the class S_a, a family's vertex set is that of the family with a
    p = fix_square
    a, b = p.handle("h1"), p.handle("h2")
    assert p.vset_nonempty([a, b])
    assert not p.vset_nonempty([a, star(a)])
    assert p.vset_nonempty([a])


def test_support_lists_the_halfspace(fix_square):
    p = fix_square
    ufs = p.ultrafilters()
    side = p.support(p.handle("h1"))
    assert [ufs[i].signs[0] for i in side] == [0, 0]


def test_filterbase_type(fix_tripod):
    from pocsets.core import FilterBase

    p = fix_tripod
    fb = p.filterbase({p.handle("h1")})
    assert isinstance(fb, FilterBase)
    assert p.extend_filterbase(fb).members >= fb.members
    with pytest.raises(NotAFilterBase):
        p.filterbase({p.handle("h1"), p.handle("h2")})


# ---------------------------------------------------------------------------
# the bitmask algorithms against their definitions


def _uf2_witness(p, members):
    """The least ordered pair (x, y) of members with x <= y*, preferring a
    plain x, found by scanning every pair; None when UF2 holds."""
    violations = [(x, y) for x in members for y in members if p.leq(x, star(y))]
    return min(violations, key=lambda v: (v[0] & 1, v[0], v[1]), default=None)


def _random_handles(rng, p):
    density = rng.choice((0.15, 0.3, 0.5))
    return {e for e in p.elements() if rng.random() < density}


def test_min_set_matches_definition():
    rng = random.Random(606)
    for _ in range(80):
        p = random_pocset(rng, max_pairs=6)
        for u in p.ultrafilters():
            proper = [e for e in u.members if p.is_proper(e)]
            below = lambda e: any(x != e and p.leq(x, e) for x in proper)
            assert p.min_set(u) == sorted(e for e in proper if not below(e))


def test_uf_witnesses_match_pairwise_scan():
    rng = random.Random(607)
    for _ in range(80):
        p = random_pocset(rng, max_pairs=6)
        for _ in range(20):
            members = _random_handles(rng, p)
            witness = _uf2_witness(p, members)
            assert p.check_filterbase(members) == witness
            pairs = range(p.n_pairs + 1)
            split = [2 * k for k in pairs if (2 * k in members) == (2 * k + 1 in members)]
            if split:
                expect = (False, "UF1", split[0])
            else:
                expect = (True, None, None) if witness is None else (False, "UF2", witness)
            chk = p.is_ultrafilter(members)
            assert (chk.ok, chk.axiom, chk.witness) == expect
            # one element of every pair, so UF2 alone decides
            chosen = [2 * k + rng.randint(0, 1) for k in range(p.n_pairs)] + [p.zero_star]
            witness = _uf2_witness(p, chosen)
            chk = p.is_ultrafilter(chosen)
            assert (chk.ok, chk.witness) == (witness is None, witness)


def _two_sided_greedy(p, base):
    """Complete a filter base pair by pair, taking the plain element unless
    it is nested against a chosen element either way round."""
    chosen = {e >> 1: e for e in base if p.is_proper(e)}
    for k in range(p.n_pairs):
        if k not in chosen:
            clash = any(p.leq(2 * k, star(e)) or p.leq(e, star(2 * k)) for e in chosen.values())
            chosen[k] = 2 * k + clash
    return tuple(chosen[k] & 1 for k in range(p.n_pairs))


def test_extend_filterbase_matches_two_sided_greedy():
    rng = random.Random(608)
    extended = refused = 0
    for _ in range(80):
        p = random_pocset(rng, max_pairs=6)
        ufs = p.ultrafilters()
        for _ in range(20):
            if rng.random() < 0.5:
                base = _random_handles(rng, p)
            else:
                members = sorted(rng.choice(ufs).members)
                base = set(rng.sample(members, rng.randint(0, len(members))))
            witness = _uf2_witness(p, base - {p.zero_star})
            if witness is not None:
                refused += 1
                with pytest.raises(NotAFilterBase) as exc:
                    p.extend_filterbase(base)
                assert exc.value.witness == witness
                continue
            extended += 1
            u = p.extend_filterbase(base)
            assert u.signs == _two_sided_greedy(p, base)
            assert p.is_ultrafilter(u.members).ok and base - {p.zero_star} <= u.members
    assert extended > 500 and refused > 300


def test_leq_matches_reachability_over_generators():
    rng = random.Random(609)
    for _ in range(150):
        p, edges = sample_pocset(rng, max_pairs=7)
        arrows = {a: set() for a in p.elements()}
        for a, b in edges:
            arrows[a].add(b)
            arrows[star(b)].add(star(a))
        for e in p.elements():
            arrows[p.zero].add(e)
            arrows[e].add(p.zero_star)
        for a in p.elements():
            seen, todo = {a}, [a]
            while todo:
                for b in arrows[todo.pop()] - seen:
                    seen.add(b)
                    todo.append(b)
            assert {b for b in p.elements() if p.leq(a, b)} == seen


# ---------------------------------------------------------------------------
# the held ultrafilter walk


def test_support_and_vset_nonempty_read_one_walk(walk_counts, fix_line3, fix_square, fix_tripod):
    pocsets = [fix_line3, fix_square, fix_tripod, FinitePocSet.from_order_generators(0)]
    for p in pocsets:
        supports = [p.support(h) for h in p.elements()]
        ufs = p.ultrafilters()
        assert supports == [[i for i, u in enumerate(ufs) if h in u] for h in p.elements()]
        for family in combinations(p.elements(), 2):
            assert p.vset_nonempty(family) == any(all(a in u for a in family) for u in ufs)
        assert p.vset_nonempty([])
    assert walk_counts == {id(p): 1 for p in pocsets}


def test_a_mutated_ultrafilter_list_leaves_the_next_answer(fix_tripod):
    p = fix_tripod
    ufs = p.ultrafilters()
    first = list(ufs)
    ufs.reverse()
    del ufs[0]
    ufs.append(ufs[0])
    again = p.ultrafilters()
    assert again == first and again is not ufs
    assert [u.signs for u in again] == brute_force_ultrafilters(p)
    assert p.support(0) == [i for i, u in enumerate(first) if 0 in u]


def test_a_refused_walk_is_not_held(walk_counts):
    # fifteen free pairs have 2^15 ultrafilters, past MAX_ULTRAFILTERS: every
    # reader refuses, each time walking again, with one code, message and witness
    from pocsets.cubing import build_cubing, duality_roundtrip

    p = FinitePocSet.from_order_generators(15)
    calls = [p.ultrafilters, p.ultrafilters, lambda: p.support(0), lambda: p.vset_nonempty([]),
             lambda: build_cubing(p), lambda: duality_roundtrip(p)]
    seen = []
    for call in calls:
        with pytest.raises(MalformedInput) as exc:
            call()
        seen.append(exc.value.diagnostic())
    assert seen == [{"code": "malformed-input", "message": "more than 16384 ultrafilters to enumerate",
                     "witness": 15}] * len(calls)
    assert walk_counts[id(p)] == len(calls)
