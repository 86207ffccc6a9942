from __future__ import annotations

import inspect
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import mul

import pytest

from conftest import g2_model, is_consistent, zd_image_signatures
from pocsets.chains import (
    FIN,
    MINUS,
    PLUS,
    ChainFamily,
    ChainHalfspace,
    ChainUltrafilter,
    format_signature,
    min_set,
    principal,
    sig,
    uf,
)
from pocsets.errors import (
    ChainCountMismatch,
    MalformedInput,
    NotPrincipal,
    PocError,
    WindowTooSmall,
)
from pocsets.euclid import WallFamily, WallModel, eventual_escapers, rho_image
from pocsets.exactnum import ExactNumber, integer_pairs, sqrt3_sign
from pocsets.formats import fixture_model
from pocsets.shadows import (
    MAX_WINDOW_TUPLES,
    ConsistencyOracle,
    DualShadow,
    MinClassification,
    RayReport,
    RayStep,
    ShadowReport,
    WindowField,
    _feasible_point,
    _slab_constraints,
    canonical_start,
    classify_min,
    dist_to_pi0,
    dual_shadow,
    enumerate_pi0,
    escaping_ray,
    interval_consistent,
    is_consistent_set,
    max_delta_over_window,
    shadow,
    shadow_report,
    surjectivity_report,
    window_field,
)

SQRT3 = ExactNumber(0, 1)


@pytest.fixture(scope="module")
def z2():
    return fixture_model("FIX-Z2")


@pytest.fixture(scope="module")
def hexmodel():
    return fixture_model("FIX-HEX")


@pytest.fixture(scope="module")
def z1():
    return fixture_model("FIX-Z1")


# ---------------------------------------------------------------------------
# consistency oracles


def test_hex_consistency_examples(hexmodel):
    assert is_consistent(hexmodel, uf(0, 0, 0))
    assert not is_consistent(hexmodel, uf(5, 5, 5))
    assert is_consistent(hexmodel, uf(1, 1, 1))


def test_z2_everything_consistent(z2):
    rng = random.Random(3)
    for _ in range(50):
        cuts = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert is_consistent(z2, ChainUltrafilter(cuts))


def test_double_oracle_agreement(hexmodel):
    # general halfplane feasibility vs the interval closed form, all tuples
    for cuts in product(range(-6, 7), repeat=3):
        assert interval_consistent(hexmodel, cuts) == is_consistent(
            hexmodel, ChainUltrafilter(cuts)
        )


# cos(30j degrees) for j = 0..11; sin(30j) = cos(30(j - 3))
_R, _H = SQRT3 / 2, ExactNumber.of(Fraction(1, 2))
_ZERO, _ONE = ExactNumber.of(0), ExactNumber.of(1)
_COS30 = [_ONE, _R, _H, _ZERO, -_H, -_R, -_ONE, -_R, -_H, _ZERO, _H, _R]


def _wall_model(rng, angles):
    """Normals at the given multiples of 30 degrees, scaled by random
    rationals; random rational spacing and offset."""
    families = []
    for j in angles:
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        normal = (_COS30[j] * scale, _COS30[(j - 3) % 12] * scale)
        spacing = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        offset = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        families.append(WallFamily(normal, spacing, offset))
    names = tuple(f"c{i}" for i in range(len(angles)))
    return WallModel(ChainFamily(names), tuple(families))


def test_prepared_oracle_matches_direct_elimination():
    # the compiled oracle against a separate numeric elimination, on random,
    # axis-aligned (the "pure" rows of both steps) and all-parallel models
    rng = random.Random(44)
    outcomes = set()
    for k in range(1, 5):
        families = [
            [rng.randrange(12) for _ in range(k)] for _ in range(4)
        ] + [
            [rng.choice((0, 3, 6, 9)) for _ in range(k)] for _ in range(2)
        ] + [
            [j + rng.choice((0, 6)) for _ in range(k)] for j in (rng.randrange(6), 3)
        ]
        for angles in families:
            model = _wall_model(rng, angles)
            oracle = ConsistencyOracle(model)
            for _ in range(120):
                cuts = tuple(rng.randint(-4, 4) for _ in range(k))
                expect = _feasible_point(_slab_constraints(model, cuts)) is not None
                assert oracle.consistent(cuts) == expect, (angles, cuts)
                outcomes.add(expect)
    assert outcomes == {True, False}


def _first_families(model, j):
    """The model of the first j families of `model` alone."""
    return WallModel(ChainFamily(model.chains.names[:j]), model.families[:j])


def _generated_models(rng, k, count):
    """`count` models with random directions, then two with parallel families
    (each direction or its opposite)."""
    angle_sets = [[rng.randrange(12) for _ in range(k)] for _ in range(count)]
    angle_sets += [[(j + rng.choice((0, 6))) % 12 for _ in range(k)] for j in (0, rng.randrange(12))]
    return [_wall_model(rng, angles) for angles in angle_sets]


def _parallel(model, i, j):
    (a, b), (c, d) = model.families[i].normal, model.families[j].normal
    return (a * d - b * c).is_zero()


def test_form_levels_match_the_compile_of_the_first_families():
    # a form of level j involves c_1..c_j only, and the forms of level <= j
    # are exactly those compiled from the first j families (none at j = 1);
    # every level-j form involves c_j, and level j holds two forms for each
    # parallel pair and each pairwise non-parallel triple whose largest
    # family is j, on random, axis and 60-degree directions
    rng = random.Random(45)
    models = [g2_model(), fixture_model("FIX-HEX")]
    for k in range(1, 7):
        models += _generated_models(rng, k, 8)
        models += [_wall_model(rng, [rng.choice((0, 2, 3, 6, 8, 9)) for _ in range(k)]) for _ in range(8)]
    levels_seen = set()
    for model in models:
        oracle = model.oracle
        assert sorted(oracle.levels) == oracle.forms
        for (alpha, beta), j in oracle.levels.items():
            assert not any(alpha[j + 1 :]) and not any(beta[j + 1 :]), (alpha, beta, j)
        for j in range(1, model.k + 1):
            low = sorted((a[: j + 1], b[: j + 1]) for (a, b), i in oracle.levels.items() if i <= j)
            assert low == _first_families(model, j).oracle.forms, j
            level = [f for f, i in oracle.levels.items() if i == j]
            bounded = [(a, b) for a, b in level if a[j] or b[j]]
            assert len(oracle.row_bounds[j - 1]) == len(bounded)
            levels_seen.update([j] if level else [])
            assert bounded == level, j
            pairs = sum(_parallel(model, a, j - 1) for a in range(j - 1))
            triples = sum(
                not (_parallel(model, a, b) or _parallel(model, a, j - 1) or _parallel(model, b, j - 1))
                for a, b in combinations(range(j - 1), 2)
            )
            assert len(level) == 2 * (pairs + triples), j
    assert levels_seen == {2, 3, 4, 5, 6}
    # 40 forms on G~2, where the elimination kept 104, and 2 on any three
    # pairwise non-parallel families, where it could keep 6
    assert len(g2_model().oracle.forms) == 40 and len(fixture_model("FIX-HEX").oracle.forms) == 2
    for _ in range(20):
        a, b, c = rng.sample(range(6), 3)
        model = _wall_model(rng, [a + rng.choice((0, 6)), b + rng.choice((0, 6)), c + rng.choice((0, 6))])
        assert len(model.oracle.forms) == 2


def _combine(p, f, q, g):
    (a, b), (c, d) = p, q
    return tuple(
        (a * x + 3 * b * y + c * z + 3 * d * w, a * y + b * x + c * w + d * z)
        for (x, y), (z, w) in zip(f, g)
    )


def _eliminate_first(rows):
    """One Fourier-Motzkin step on rows (coefs, rhs), each meaning
    coefs . v <= rhs(c) with pairs (a, b) for a + b*sqrt3: the rows that no
    longer mention v[0]."""
    signs = [sqrt3_sign(*coefs[0]) for coefs, _ in rows]
    ups = [r for r, s in zip(rows, signs) if s > 0]
    downs = [r for r, s in zip(rows, signs) if s < 0]
    out = [(coefs[1:], rhs) for (coefs, rhs), s in zip(rows, signs) if s == 0]
    for cu, ru in ups:
        for cd, rd in downs:
            # positive multipliers that cancel v[0]
            minus = (-cd[0][0], -cd[0][1])
            out.append((_combine(minus, cu, cu[0], cd)[1:], _combine(minus, ru, cu[0], rd)))
    return out


def _fourier_motzkin_forms(model):
    """The slab system compiled by Fourier-Motzkin elimination of x and then
    y (Schrijver 1986, 12.2) on symbolic right-hand sides, as a reference:
    integer forms (alpha, beta) over (1, c_1..c_k), the slabs sharing a
    point iff every alpha(c) + beta(c)*sqrt3 >= 0."""
    k, rows = model.k, []
    for i, fam in enumerate(model.families, 1):
        *normal, o, s = integer_pairs((*fam.normal, fam.offset, fam.spacing))
        top = [(0, 0)] * (k + 1)  # n.p <= o + s*c_i
        top[0], top[i] = o, s
        bottom = [(-a, -b) for a, b in top]  # -n.p <= -(o + s*(c_i - 1))
        bottom[0] = (s[0] - o[0], s[1] - o[1])
        rows.append((tuple(normal), tuple(top)))
        rows.append((tuple((-a, -b) for a, b in normal), tuple(bottom)))
    forms = set()
    for _, rhs in _eliminate_first(_eliminate_first(rows)):
        g = gcd(*(x for pair in rhs for x in pair)) or 1
        alpha, beta = tuple(a // g for a, _ in rhs), tuple(b // g for _, b in rhs)
        if any(alpha[1:]) or any(beta[1:]) or sqrt3_sign(alpha[0], beta[0]) < 0:
            forms.add((alpha, beta))  # a form that always holds is dropped
    return forms


def _helly_test_models():
    """G~2, the planar fixtures, and generated models with k = 1..6: random,
    axis and 60-degree directions, all-parallel families, opposite normals
    and a repeated identical family, each with the window its rows are
    compared in."""
    rng = random.Random(47)
    windows = {1: 6, 2: 4, 3: 3, 4: 2, 5: 1, 6: 0}
    cases = [(g2_model(), 1), *((fixture_model(n), 2) for n in ("FIX-Z1", "FIX-Z2", "FIX-HEX"))]
    for k in range(1, 7):
        angle_sets = [[rng.randrange(12) for _ in range(k)] for _ in range(3)]
        angle_sets += [[rng.choice(choices) for _ in range(k)] for choices in ((0, 3, 6, 9), (0, 2, 4, 6, 8, 10))]
        j = rng.randrange(12)
        angle_sets += [[(j + rng.choice((0, 6))) % 12 for _ in range(k)]]  # all parallel
        angle_sets += [[(j + 6 * (i % 2)) % 12 if i < 2 else rng.randrange(12) for i in range(k)]]
        for angles in angle_sets:
            model = _wall_model(rng, angles)
            cases.append((model, windows[k]))
            if k < 6:  # the last family repeated
                families = (*model.families, model.families[-1])
                chains = ChainFamily(tuple(f"c{i}" for i in range(k + 1)))
                cases.append((WallModel(chains, families), windows[k + 1]))
    return cases


def test_helly_compile_matches_fourier_motzkin():
    # the two compiles agree on every tuple of [-w-1, w+1]^k, and the rows
    # of window w are those of the reference's consistent tuples
    from pocsets.shadows import _pi0_rows

    outcomes = set()
    for model, w in _helly_test_models():
        forms = _fourier_motzkin_forms(model)
        consistent = set()
        for cuts in product(range(-w - 1, w + 2), repeat=model.k):
            point = (1, *cuts)
            expect = all(
                sqrt3_sign(sum(map(mul, a, point)), sum(map(mul, b, point))) >= 0 for a, b in forms
            )
            assert model.oracle.consistent(cuts) == expect, (model.families, cuts)
            consistent.update([cuts] if expect else [])
            outcomes.add(expect)
        rows = []
        for head in product(range(-w, w + 1), repeat=model.k - 1):
            last = [c for c in range(-w, w + 1) if (*head, c) in consistent]
            assert last == list(range(last[0], last[-1] + 1)) if last else True
            rows.append((last[0], last[-1]) if last else None)
        assert _pi0_rows(model, w) == rows, model.families
    assert outcomes == {True, False}
    assert len(_fourier_motzkin_forms(g2_model())) == 104


def test_wrong_chain_count_is_refused(hexmodel):
    # the empty tuple too, which argmin must refuse before unpacking it
    for cuts in ((1, 1, 1, 1), (1, 2), ()):
        with pytest.raises(ChainCountMismatch):
            is_consistent(hexmodel, ChainUltrafilter(cuts))
        with pytest.raises(ChainCountMismatch):
            window_field(hexmodel, 4).distance(cuts)
        for fn in (dist_to_pi0, classify_min, shadow, dual_shadow, shadow_report):
            with pytest.raises(ChainCountMismatch):
                fn(hexmodel, ChainUltrafilter(cuts), 4)
    with pytest.raises(ChainCountMismatch):
        escaping_ray(hexmodel, sig(PLUS, PLUS), 5, 8)


def test_is_consistent_requires_principal(hexmodel):
    from pocsets.chains import PLUS_END

    with pytest.raises(NotPrincipal):
        is_consistent(hexmodel, uf(PLUS_END, 0, 0))


def test_non_principal_query_is_refused_before_the_field():
    # all five windowed queries check u before the field is built: two
    # parallel families whose slabs meet nowhere near the origin leave
    # window 1 without a consistent tuple, and u is still refused first
    from pocsets.chains import PLUS_END

    one, zero = ExactNumber.of(1), ExactNumber.of(0)
    model = WallModel(
        ChainFamily(("a", "b")),
        (
            WallFamily((one, zero), Fraction(1), Fraction(0)),
            WallFamily((-one, zero), Fraction(1), Fraction(50)),
        ),
    )
    with pytest.raises(WindowTooSmall):
        window_field(model, 1)
    u = uf(PLUS_END, 0)
    for fn in (dist_to_pi0, classify_min, shadow, dual_shadow, shadow_report):
        with pytest.raises(NotPrincipal):
            fn(model, u, 1)


def test_non_principal_witness_is_document_values():
    # the refusal names each chain's state as the ultrafilter literals do
    # ("+inf", "-inf") or as the cut, never a Python repr, and is plain JSON
    import json

    from pocsets.chains import MINUS_END, PLUS_END

    model = fixture_model("FIX-HEX")
    for cuts, witness in (((PLUS_END, 0, 0), ["+inf", 0, 0]), ((3, MINUS_END, -2), [3, "-inf", -2])):
        with pytest.raises(NotPrincipal) as exc:
            dist_to_pi0(model, ChainUltrafilter(cuts), 4)
        assert exc.value.witness == witness
        diagnostic = json.loads(json.dumps(exc.value.diagnostic(), allow_nan=False))
        assert diagnostic == {
            "code": "not-principal",
            "message": "ultrafilter has an end state",
            "witness": witness,
        }


def test_interval_oracle_guard(z2):
    with pytest.raises(MalformedInput):
        interval_consistent(z2, (0, 0))
    # three normals that do not sum to zero
    normals = ((1, 0), (0, 1), (1, 1))
    families = tuple(WallFamily((ExactNumber.of(x), ExactNumber.of(y))) for x, y in normals)
    model = WallModel(ChainFamily(("a", "b", "c")), families)
    with pytest.raises(MalformedInput, match="normals summing to zero") as exc:
        interval_consistent(model, (0, 0, 0))
    assert exc.value.code == "malformed-input" and exc.value.witness == ["a", "b", "c"]


def test_consistent_set_of_halfspaces(hexmodel):
    # closures of the three deep plains cannot meet once the sum is too big
    deep = [ChainHalfspace(i, 4) for i in range(3)]
    assert not is_consistent_set(hexmodel, deep)
    shallow = [ChainHalfspace(i, 0) for i in range(3)]
    assert is_consistent_set(hexmodel, shallow)
    assert not is_consistent_set(hexmodel, [])


# ---------------------------------------------------------------------------
# Pi0 enumeration


def test_enumerate_pi0_hex_w0(hexmodel):
    got = enumerate_pi0(hexmodel, 0)
    assert [u.cuts for u in got] == [(0, 0, 0)]


def test_enumerate_pi0_z2_w1(z2):
    assert len(enumerate_pi0(z2, 1)) == 9


def test_unaffordable_window_fails_fast(hexmodel, z2):
    # 99^3 tuples fit under the cap, 101^3 do not; the refusal comes before
    # any tuple is enumerated
    assert 99**3 <= MAX_WINDOW_TUPLES < 101**3
    for model, bound in ((hexmodel, 10**4), (hexmodel, 50), (z2, 10**6)):
        with pytest.raises(MalformedInput):
            enumerate_pi0(model, bound)
    with pytest.raises(MalformedInput):
        shadow_report(hexmodel, uf(1, 1, 1), 10**5)
    with pytest.raises(MalformedInput):
        surjectivity_report(hexmodel, windows=(4, 10**5))


def _bfs_field(model, bound):
    """The window field by its definition, as a test oracle: members by the
    compiled oracle tuple by tuple, then a multi-source breadth-first search
    on the window lattice into a dict."""
    cells = range(-bound, bound + 1)
    members = [c for c in product(cells, repeat=model.k) if model.oracle.consistent(c)]
    dist = {m: 0 for m in members}
    frontier = members
    while frontier:
        nxt = []
        for cuts in frontier:
            for i, step in product(range(model.k), (-1, 1)):
                neighbor = cuts[:i] + (cuts[i] + step,) + cuts[i + 1 :]
                if abs(neighbor[i]) <= bound and neighbor not in dist:
                    dist[neighbor] = dist[cuts] + 1
                    nxt.append(neighbor)
        frontier = nxt
    return members, dist


def _check_field(model, bound, rng, queries=25):
    """The field against `_bfs_field`; argmin against a scan of all members
    on every tuple of a window of at most 1000 tuples, on a sample of
    `queries` tuples of a larger one."""
    members, dist = _bfs_field(model, bound)
    if not members:
        with pytest.raises(WindowTooSmall):
            window_field(model, bound)
        return 0
    f = window_field(model, bound)
    cells = list(product(range(-bound, bound + 1), repeat=model.k))
    assert f.members == members
    assert len(f.distance_table) == len(cells)
    assert [f.distance(c) for c in cells] == [dist[c] for c in cells]
    # each row is the run of last cuts the per-tuple oracle accepts
    by_head = {}
    for m in members:
        by_head.setdefault(m[:-1], []).append(m[-1])
    heads = list(product(range(-bound, bound + 1), repeat=model.k - 1))
    assert len(f.rows) == len(heads)
    for head, row in zip(heads, f.rows):
        accepted = by_head.get(head, [])
        assert row == ((accepted[0], accepted[-1]) if accepted else None)
        assert accepted == list(range(row[0], row[1] + 1) if row else [])
    for q in cells if len(cells) <= 1000 else rng.sample(cells, queries):
        scan = [m for m in members if sum(abs(a - b) for a, b in zip(q, m)) == dist[q]]
        assert f.argmin(q) == scan, q
    assert f.start == min(members, key=lambda m: (sum(map(abs, m)), m))
    return len(members)


def test_field_matches_bfs_on_fixtures():
    rng = random.Random(70)
    hexmodel = fixture_model("FIX-HEX")
    for w in range(16):
        _check_field(hexmodel, w, rng)
    for name in ("FIX-Z1", "FIX-Z2"):
        model = fixture_model(name)
        for w in (0, 1, 4, 9):
            _check_field(model, w, rng)


def test_field_matches_bfs_on_generated_models():
    # k = 1..6, random normals at multiples of 30 degrees and all-parallel
    # families (empty rows, rows decided by a form without a c_k term), and
    # the six-family G~2 model
    rng = random.Random(71)
    windows = {1: (0, 3, 12), 2: (0, 2, 7), 3: (1, 4), 4: (1, 3), 5: (1, 2), 6: (1,)}
    sizes = []
    for k in range(1, 7):
        angle_sets = [[rng.randrange(12) for _ in range(k)] for _ in range(4)]
        angle_sets += [[(j + rng.choice((0, 6))) % 12 for _ in range(k)] for j in (0, 3, 5)]
        for angles in angle_sets:
            model = _wall_model(rng, angles)
            sizes += [_check_field(model, w, rng) for w in windows[k]]
    sizes += [_check_field(g2_model(), w, rng) for w in (0, 1, 2)]
    assert 0 in sizes and min(s for s in sizes if s) < 10 < max(sizes)


def test_rows_are_solved_only_under_consistent_prefixes(monkeypatch):
    # the heads solved at the last level are the window members of the
    # first k - 1 families: on G~2 at window 4, 794 of the window's 59,049
    # heads, for 655 non-empty rows
    import pocsets.shadows
    from pocsets.shadows import _pi0_rows

    solve, calls = pocsets.shadows._solve_line, []

    def spy(bounds, prefix, lo, hi, bound):
        calls.append((bounds, hi - lo + 1))
        return solve(bounds, prefix, lo, hi, bound)

    monkeypatch.setattr(pocsets.shadows, "_solve_line", spy)
    rng = random.Random(73)
    cases = [(g2_model(), 4), (fixture_model("FIX-HEX"), 6), (fixture_model("FIX-Z2"), 3)]
    for k in range(2, 7):
        cases += [(model, 2 if k < 6 else 1) for model in _generated_models(rng, k, 3)]
    counted = []
    for model, w in cases:
        heads = len(enumerate_pi0(_first_families(model, model.k - 1), w))
        calls.clear()
        rows = _pi0_rows(model, w)
        last = model.oracle.row_bounds[-1]
        assert sum(size for bounds, size in calls if bounds is last) == heads
        counted.append((heads, sum(map(bool, rows))))
    assert counted[0] == (794, 655)


def _argmin_by_rows(f, cuts):
    """`WindowField.argmin` without its geodesic pruning, as a test oracle:
    every prefix within the query's distance of its head, in prefix order,
    gives the last cuts in its row at the remaining distance."""
    bound, n, r = f.bound, 2 * f.bound + 1, f.distance(cuts)  # refuses () too
    *head, last = cuts
    found = []

    def walk(prefix, index, r):
        if len(prefix) == len(head):
            row = f.rows[index]
            if row:
                ends = (last,) if r == 0 else (last - r, last + r)
                found.extend((*prefix, c) for c in ends if row[0] <= c <= row[1])
            return
        q = head[len(prefix)]
        for c in range(max(-bound, q - r), min(bound, q + r) + 1):
            walk((*prefix, c), index * n + c + bound, r - abs(c - q))

    walk((), 0, r)
    return found


def _edge_queries(rng, k, bound, count):
    """Cut tuples in [-bound - 1, bound + 1] with one cut on the window's
    boundary or one step past it, of length k and of lengths k -+ 1."""
    for _ in range(count):
        length = rng.choice((k - 1, k, k, k + 1))
        cuts = [rng.randint(-bound - 1, bound + 1) for _ in range(length)]
        if cuts:
            cuts[rng.randrange(len(cuts))] = rng.choice((-1, 1)) * rng.choice((bound, bound + 1))
        yield tuple(cuts)


def test_argmin_matches_row_walk():
    # FIX-HEX at window 12, and generated models with k = 1..4 at small
    # windows, on queries inside the window, on its boundary, past it and of
    # the wrong length: the stepped strides of every k and the refusals are
    # compared too, and the guard bits of each answered query with the
    # interior and boundary flags of its whole list
    rng = random.Random(73)
    hexfield = window_field(fixture_model("FIX-HEX"), 12)
    queries = [
        (hexfield, tuple(rng.randint(-13, 13) for _ in range(rng.choice((2, 3, 3, 3, 4)))))
        for _ in range(2000)
    ]
    kinds = {}
    for k, bound in ((1, 6), (2, 4), (3, 3), (4, 2)):
        fields = []
        while len(fields) < 3:
            model = _wall_model(rng, [rng.randrange(12) for _ in range(k)])
            f, _ = _outcome(window_field, model, bound)
            fields += [f] if f else []
        queries += [(f, cuts) for f in fields for cuts in _edge_queries(rng, k, bound, 200)]
    for f, cuts in queries:
        got = _outcome(f.argmin, cuts)
        assert got == _outcome(_argmin_by_rows, f, cuts), cuts
        if got[0]:  # the queries decide their guards by one read of the guard bits
            interior = lambda m: all(abs(c) < f.bound for c in m)
            flags = (any(map(interior, got[0])), not all(map(interior, got[0])))
            index = f._index(cuts)
            assert f._argmin(cuts, index) == got[0], cuts
            assert _guard_flags(f, index) == flags, cuts
        kinds.setdefault(f.k, set()).add(got[1][0] if got[1] else len(got[0]) > 1)
    # one chain has one row, so a single nearest member
    every = {True, False, WindowTooSmall, ChainCountMismatch}
    assert kinds == {1: every - {True}, 2: every, 3: every, 4: every}


def test_argmin_reads_rows_only_on_geodesics(monkeypatch):
    # the pruning changes no answer, so only the work it saves can show its
    # loss: over every tuple of window 6, argmin reads at most 1.1 rows per
    # member it finds (the walk of `_argmin_by_rows` reads 82,077 rows for
    # 43,084 members)
    class CountingRows(list):
        reads = 0

        def __getitem__(self, index):
            CountingRows.reads += 1
            return super().__getitem__(index)

    f = window_field(fixture_model("FIX-HEX"), 6)
    monkeypatch.setattr(f, "rows", CountingRows(f.rows))
    found = sum(len(f.argmin(q)) for q in product(range(-6, 7), repeat=3))
    assert 0 < CountingRows.reads <= 1.1 * found


def test_refused_queries_stop_their_walk_early(monkeypatch):
    # both guards are read off the field's guard bits, which no answer shows,
    # so only the rows a query reads can show a walk: over FIX-HEX at window
    # 12 on [-10, 10]^3, a refused shadow_report reads no row, and an
    # answered one exactly the rows of argmin
    class CountingRows(list):
        reads = 0

        def __getitem__(self, index):
            CountingRows.reads += 1
            return super().__getitem__(index)

    model = fixture_model("FIX-HEX")
    f = window_field(model, 12)
    monkeypatch.setattr(f, "rows", CountingRows(f.rows))
    reads = {True: [0, 0], False: [0, 0]}  # refused: [walked, whole]
    for cuts in product(range(-10, 11), repeat=3):
        CountingRows.reads = 0
        _, refusal = _outcome(shadow_report, model, ChainUltrafilter(cuts), 12)
        walked, CountingRows.reads = CountingRows.reads, 0
        f.argmin(cuts)
        counts = reads[refusal is not None]
        counts[0] += walked
        counts[1] += CountingRows.reads
        assert walked == (0 if refusal else CountingRows.reads), cuts
    (refused, whole), (answered, full) = reads[True], reads[False]
    assert refused == 0 < whole and 0 < answered == full, reads


def test_an_answered_report_builds_one_report_record(monkeypatch):
    # an answered shadow_report builds its report and the dual shadow it
    # holds, and its flips stay lists: only classify_min builds a
    # MinClassification
    import pocsets.shadows as shadows

    built = Counter()
    for name in ("ShadowReport", "DualShadow", "MinClassification"):
        def counting(*fields, cls=getattr(shadows, name)):
            built[cls.__name__] += 1
            return cls(*fields)

        monkeypatch.setattr(shadows, name, counting)
    model, u = fixture_model("FIX-HEX"), uf(5, 5, 5)
    assert isinstance(shadow_report(model, u, 12), ShadowReport)
    assert built == {"ShadowReport": 1, "DualShadow": 1}
    built.clear()
    assert isinstance(classify_min(model, u, 12), MinClassification)
    assert built == {"MinClassification": 1}


def _guard_flags(f, index):
    """(inner, outer) of the field's guard bits at a flat index."""
    from pocsets.shadows import _guards

    if f.guards is None:
        f.guards = _guards(f)
    bits = f.guards[index]
    return bool(bits & 1), bool(bits & 2)


def _check_guards(model, bound):
    """The guard bits of every tuple of the window against its nearest set
    by a scan of all members; returns the flags seen."""
    f = window_field(model, bound)
    members = f.members
    seen = set()
    for index, q in enumerate(product(range(-bound, bound + 1), repeat=model.k)):
        gaps = [sum(abs(a - b) for a, b in zip(q, m)) for m in members]
        least = min(gaps)
        nearest = [m for m, gap in zip(members, gaps) if gap == least]
        inner = any(all(abs(c) < bound for c in m) for m in nearest)
        outer = any(any(abs(c) == bound for c in m) for m in nearest)
        assert _guard_flags(f, index) == (inner, outer), (q, bound)
        seen.add((inner, outer))
    return seen


def test_guard_bits_match_the_nearest_set():
    # the fixtures, generated models with k = 1..4 (random directions and
    # all-parallel families), and a field whose members all lie on its
    # boundary; window 0 has no interior, so no tuple holds INNER there
    rng = random.Random(75)
    seen = set()
    for name, windows in (("FIX-Z1", (0, 1, 5)), ("FIX-Z2", (0, 1, 3)), ("FIX-HEX", (0, 1, 3, 6))):
        for w in windows:
            flags = _check_guards(fixture_model(name), w)
            assert w or flags == {(False, True)}
            seen |= flags
    windows = {1: (0, 1, 6), 2: (1, 4), 3: (1, 3), 4: (1, 2)}
    for k in range(1, 5):
        for model in _generated_models(rng, k, 3):
            for w in windows[k]:
                if _outcome(window_field, model, w)[0]:
                    seen |= _check_guards(model, w)
    # two parallel families whose slabs meet where c_1 - c_2 is 5 to 7
    normal = (_ONE, _ZERO)
    edge = WallModel(ChainFamily(("a", "b")), (WallFamily(normal, 1, 0), WallFamily(normal, 1, 6)))
    assert window_field(edge, 3).members == [(2, -3), (3, -3), (3, -2)]
    assert _check_guards(edge, 3) == {(False, True)}
    assert seen == {(True, False), (False, True), (True, True)}
    # one chain's wide windows take 16-bit and unsigned-long lanes; FIX-Z1's
    # members fill them, so a tuple's one nearest member is itself
    from pocsets.shadows import _guards, _lane

    z1 = fixture_model("FIX-Z1")
    for w, lane in ((100, "H"), (20000, "L")):
        assert _lane(2 * w + 1, 1) == lane
        assert _guards(window_field(z1, w)) == b"\2" + b"\1" * (2 * w - 1) + b"\2"


def _list_sweep(rows, bound, k):
    """The distance table of a window's rows by list comprehensions, as a
    reference for the packed kernel: each tuple's distance to its own row,
    swept twice along each head axis a layer at a time, then turned."""
    n = 2 * bound + 1
    far = n * k
    table = []
    for row in rows:
        if row is None:
            table += [far] * n
        else:
            lo, hi = row
            table += [*range(lo + bound, 0, -1), *[0] * (hi - lo + 1), *range(1, bound - hi + 1)]
    m = len(table) // n
    ends = range(0, len(table), m)
    for axis in range(1, k + 1):
        if axis < k:
            for x, y in [*zip(ends[1:], ends), *zip(ends[-2::-1], ends[:0:-1])]:
                table[x : x + m] = [
                    a if a <= b else b + 1 for a, b in zip(table[x : x + m], table[y : y + m])
                ]
        turned = [0] * len(table)
        for i, x in enumerate(ends):
            turned[i::n] = table[x : x + m]
        table = turned
    return table


def test_packed_sweep_matches_the_list_sweep():
    # random rows (runs anywhere in the window, empty heads, a full window)
    # for k = 1..4 in 8-bit lanes, k = 2 and 3 in 16-bit lanes, and the
    # FIX-HEX fields of windows 21 and 24, whose n*k passes 126
    from pocsets.shadows import _lane, _row_cells, _sweep

    rng = random.Random(76)
    cases = [(2, 31), (2, 40), (3, 21)]
    for k, windows in ((1, (0, 3, 40)), (2, (0, 1, 5, 20)), (3, (1, 4, 9)), (4, (1, 3, 5))):
        cases += [(k, w) for w in windows for _ in range(3)]
    lanes = set()
    for k, bound in cases:
        n = 2 * bound + 1
        rows = []
        for _ in range(n ** (k - 1)):
            lo, hi = sorted(rng.randint(-bound, bound) for _ in range(2))
            rows.append(rng.choice((None, None, (lo, hi), (lo, lo), (-bound, bound))))
        rows[rng.randrange(len(rows))] = (0, 0)
        lane = _lane(n, k)
        table = b"".join(map(_row_cells(bound, n * k, lane), rows))
        got = memoryview(_sweep(table, n, k, lane)).cast(lane).tolist()
        assert got == _list_sweep(rows, bound, k), (k, bound)
        lanes.add(lane)
    hexmodel = fixture_model("FIX-HEX")
    for bound in (21, 24):
        f = window_field(hexmodel, bound)
        assert _lane(2 * bound + 1, 3) == "H"
        assert f.distance_table == _list_sweep(f.rows, bound, 3)
    assert lanes == {"B", "H"}


def test_pack_matches_per_value_bytes():
    # every lane at 0, 1 and its top bit, and a range as `_row_cells` packs one
    from sys import byteorder

    from pocsets.shadows import _LANE_SIZES, _pack

    assert set(_LANE_SIZES) == {"B", "H", "L"}
    for lane, size in _LANE_SIZES.items():
        top = 1 << 8 * size - 1
        for values in ([0], [1], [top], [0, 1, top, 1, 0], range(1, 256), []):
            expect = b"".join(v.to_bytes(size, byteorder) for v in values)
            assert _pack(values, lane) == expect, (lane, values)


def _pi0_rows_by_prefix(model, bound):
    """`_pi0_rows` with its last level built as the levels before it are, a
    line per consistent prefix and a row per head, then written into the
    table one row at a time, as a reference for the sliced writes."""
    from pocsets.shadows import _solve_line

    n = 2 * bound + 1
    lines = [((), 0, (-bound, bound))]
    for bounds in model.oracle.row_bounds[1:]:
        lines = [
            ((*prefix, c), index * n + bound + c, row)
            for prefix, index, (lo, hi) in lines
            for c, row in zip(range(lo, hi + 1), _solve_line(bounds, prefix, lo, hi, bound))
            if row
        ]
    rows = [None] * n ** (model.k - 1)
    for _, index, row in lines:
        rows[index] = row
    return rows


def test_sliced_rows_match_the_rows_by_prefix():
    # k = 1..4 generated models (two with parallel families each) and G~2
    from pocsets.shadows import _pi0_rows

    rng = random.Random(36)
    cases = [(g2_model(), w) for w in (0, 1, 2, 3)]
    for k in range(1, 5):
        cases += [(m, w) for m in _generated_models(rng, k, 4) for w in (0, 1, 3 if k < 4 else 2)]
    partial = set()
    for model, w in cases:
        rows = _pi0_rows(model, w)
        assert rows == _pi0_rows_by_prefix(model, w), (model.k, w)
        partial.add(not all(rows))
    assert partial == {True, False}  # some rows are empty, and some tables full


@pytest.mark.parametrize("module", ["shadows", "euclid", "exactnum"])
def test_module_uses_no_float(module):
    # floating point must never enter a predicate, not even to speed up the
    # row solver or to seed a rounding; the name float and float literals
    # are both refused, except in ExactNumber.__float__, which `render` calls
    # to draw
    import ast
    import importlib

    tree = ast.parse(inspect.getsource(importlib.import_module(f"pocsets.{module}")))
    if module == "exactnum":
        (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ExactNumber"]
        exempt = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__float__"]
        assert len(exempt) == 1
        cls.body.remove(exempt[0])
    names = [n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
    literals = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and type(n.value) is float]
    assert "float" not in names and not literals


def test_enumerate_pi0_hex_matches_sum_rule(hexmodel):
    for w in (1, 2):
        got = {u.int_cuts() for u in enumerate_pi0(hexmodel, w)}
        expect = {
            c for c in product(range(-w, w + 1), repeat=3) if 0 <= sum(c) <= 3
        }
        assert got == expect


# ---------------------------------------------------------------------------
# distance and signed minimal sets


def test_dist_hex_examples(hexmodel):
    assert dist_to_pi0(hexmodel, uf(5, 5, 5), 12) == 12
    assert dist_to_pi0(hexmodel, uf(1, 1, 1), 6) == 0
    assert dist_to_pi0(hexmodel, uf(-4, -4, -4), 12) == 12


def test_dist_z2_zero(z2):
    rng = random.Random(5)
    for _ in range(20):
        cuts = (rng.randint(-4, 4), rng.randint(-4, 4))
        assert dist_to_pi0(z2, ChainUltrafilter(cuts), 6) == 0


def test_dist_window_too_small(hexmodel):
    with pytest.raises(WindowTooSmall):
        dist_to_pi0(hexmodel, uf(5, 5, 5), 4)


def test_level_set_characterization_spot_checks(hexmodel):
    # dist <= n iff removing n members leaves a consistent filter base;
    # effective removals peel contiguous blocks off the two minimal sides
    def removable_within(cuts, budget):
        k = len(cuts)
        for alloc in product(range(budget + 1), repeat=2 * k):
            if sum(alloc) > budget:
                continue
            widened = []
            for i in range(k):
                down, up = alloc[2 * i], alloc[2 * i + 1]
                widened.append(ChainHalfspace(i, cuts[i] - 1 - down))
                widened.append(ChainHalfspace(i, cuts[i] + up, starred=True))
            if is_consistent_set(hexmodel, widened):
                return True
        return False

    for cuts in [(2, 2, 2), (3, 1, 1), (-2, 0, 0), (1, 1, 1)]:
        d = dist_to_pi0(hexmodel, ChainUltrafilter(cuts), 10)
        assert removable_within(cuts, d)
        if d > 0:
            assert not removable_within(cuts, d - 1)


def test_classify_min_hex_555(hexmodel):
    mc = classify_min(hexmodel, uf(5, 5, 5), 12)
    assert sorted((h.chain, h.index, h.starred) for h in mc.minus) == [
        (0, 4, False),
        (1, 4, False),
        (2, 4, False),
    ]
    assert sorted((h.chain, h.index, h.starred) for h in mc.plus) == [
        (0, 5, True),
        (1, 5, True),
        (2, 5, True),
    ]
    assert mc.neutral == []


def test_classify_min_consistent_point(hexmodel):
    mc = classify_min(hexmodel, uf(0, 0, 0), 8)
    assert mc.minus == []


def test_classify_min_z2_all_neutral(z2):
    mc = classify_min(z2, uf(2, -1), 8)
    assert mc.plus == [] and mc.minus == []
    assert len(mc.neutral) == 4


def test_consistent_iff_min_minus_empty(hexmodel):
    rng = random.Random(11)
    for _ in range(60):
        cuts = tuple(rng.randint(-3, 3) for _ in range(3))
        mc = classify_min(hexmodel, ChainUltrafilter(cuts), 12)
        assert (not mc.minus) == is_consistent(hexmodel, ChainUltrafilter(cuts))


# ---------------------------------------------------------------------------
# shadows


def test_shadow_555(hexmodel):
    members = shadow(hexmodel, uf(5, 5, 5), 12)
    assert len(members) == 91
    # the lattice triangle: sigma <= 5 coordinatewise, coordinates sum to 3
    for m in members:
        assert sum(m.int_cuts()) == 3
        assert all(c <= 5 for c in m.int_cuts())


def test_dual_shadow_555(hexmodel):
    dual = dual_shadow(hexmodel, uf(5, 5, 5), 12)
    assert dual.plain_upto == (-8, -8, -8)
    assert dual.star_from == (5, 5, 5)
    # contains min_plus, contained in pi
    mc = classify_min(hexmodel, uf(5, 5, 5), 12)
    assert all(dual.contains(h) for h in mc.plus)
    assert dual.inside_ultrafilter(uf(5, 5, 5))


def test_shadow_of_consistent_point_is_itself(hexmodel):
    u = uf(1, 0, 1)
    assert shadow(hexmodel, u, 8) == [u]
    dual = dual_shadow(hexmodel, u, 8)
    assert dual.plain_upto == (0, -1, 0)
    assert dual.star_from == (1, 0, 1)


def test_shadow_window_guard(hexmodel):
    with pytest.raises(WindowTooSmall):
        shadow(hexmodel, uf(5, 5, 5), 7)  # members reach coordinate -7


def test_shadow_bounds_random_inconsistent(hexmodel):
    # min_plus inside the dual shadow inside pi; at least three ways down,
    # and the down-set is itself inconsistent
    rng = random.Random(123)
    seen = 0
    while seen < 300:
        cuts = tuple(rng.randint(-5, 5) for _ in range(3))
        u = ChainUltrafilter(cuts)
        if is_consistent(hexmodel, u):
            continue
        seen += 1
        report = shadow_report(hexmodel, u, 12)
        dual = report.dual_shadow
        assert all(dual.contains(h) for h in report.min_plus)
        assert dual.inside_ultrafilter(u)
        assert len(report.min_minus) >= 3
        assert not is_consistent_set(hexmodel, report.min_minus)


def test_shadow_grows_dual_shrinks_along_plus_moves(hexmodel):
    rng = random.Random(321)
    for _ in range(40):
        cuts = tuple(rng.randint(-3, 3) for _ in range(3))
        u = ChainUltrafilter(cuts)
        report = shadow_report(hexmodel, u, 12)
        for h in report.min_plus:
            moved = list(cuts)
            moved[h.chain] += 1 if h.starred else -1
            v = ChainUltrafilter(tuple(moved))
            bigger = shadow(hexmodel, v, 12)
            assert set(m.cuts for m in bigger) > set(
                tuple(s) for s in report.shadow
            )
            assert dual_shadow(hexmodel, v, 12).strictly_inside(
                report.dual_shadow
            )


def _outcome(fn, *args):
    """(answer, None) or (None, (class, message, witness)) of a refusal."""
    try:
        return fn(*args), None
    except PocError as exc:
        return None, (type(exc), str(exc), exc.witness)


def _check_report_against_parts(model, cuts, bound):
    u = ChainUltrafilter(cuts)
    parts = [
        _outcome(fn, model, u, bound)
        for fn in (dist_to_pi0, classify_min, shadow, dual_shadow)
    ]
    report, refusal = _outcome(shadow_report, model, u, bound)
    # the report is refused iff one of its parts is, by the first to refuse
    assert refusal == next((err for _, err in parts if err), None), cuts
    if refusal is not None:
        return refusal[1]
    dist, mins, members, dual = (answer for answer, _ in parts)
    assert (report.pi, report.window) == (cuts, bound)
    assert (report.dist, report.consistent) == (dist, dist == 0)
    assert report.min_plus == mins.plus
    assert report.min_minus == mins.minus
    assert report.min_neutral == mins.neutral
    assert report.shadow == [m.int_cuts() for m in members]
    assert report.dual_shadow == dual
    return None


def test_shadow_report_equals_its_parts(hexmodel):
    refusals = [
        _check_report_against_parts(hexmodel, cuts, 4)
        for cuts in product(range(-4, 5), repeat=3)
    ]
    messages = [m for m in refusals if m is not None]
    assert len(messages) == 481
    # every guard is exercised: some minimizer, neighbour lookup, whole shadow
    assert any(m.startswith("every minimizer") for m in messages)
    assert any(m.endswith("is outside window 4") for m in messages)
    assert any(m.startswith("shadow of") for m in messages)
    rng = random.Random(12)
    for _ in range(40):
        cuts = tuple(rng.randint(-12, 12) for _ in range(3))
        _check_report_against_parts(hexmodel, cuts, 12)


def _check_parts_by_brute_force(model, bound):
    """dist_to_pi0, shadow, dual_shadow and classify_min on every tuple of
    the window against the nearest set of a scan of all members, found tuple
    by tuple by the oracle, and the breadth-first distances of the flips;
    returns the refusal messages and the number of answers."""
    members, dist = _bfs_field(model, bound)
    interior = lambda m: all(abs(c) < bound for c in m)
    messages, answered = set(), 0
    for cuts in product(range(-bound, bound + 1), repeat=model.k):
        u = ChainUltrafilter(cuts)
        l1 = [sum(abs(a - b) for a, b in zip(cuts, m)) for m in members]
        best = min(l1)
        nearest = [m for m, d in zip(members, l1) if d == best]
        columns = list(zip(*nearest))
        signed = {1: [], -1: [], 0: []}  # plus, minus, neutral
        past = None  # the first flip outside the window
        for h in min_set(u):
            moved = list(cuts)
            moved[h.chain] += 1 if h.starred else -1
            moved = tuple(moved)
            if moved in dist:
                signed[(dist[moved] > best) - (dist[moved] < best)].append(h)
            else:
                past = past or moved
        minimizer = None
        if not any(map(interior, nearest)):
            minimizer = (f"every minimizer for {cuts} touches the window boundary", cuts)
        whole = None
        if not all(map(interior, nearest)):
            whole = (f"shadow of {cuts} touches the window boundary", cuts)
        flip = (f"{past} is outside window {bound}", past) if past else None
        expect = {
            dist_to_pi0: (best, minimizer),
            shadow: ([ChainUltrafilter(m) for m in nearest], whole),
            dual_shadow: (
                DualShadow(tuple(min(c) - 1 for c in columns), tuple(map(max, columns))),
                whole,
            ),
            classify_min: (MinClassification(signed[1], signed[-1], signed[0]), minimizer or flip),
        }
        for fn, (answer, refusal) in expect.items():
            got = _outcome(fn, model, u, bound)
            if refusal:
                assert got == (None, (WindowTooSmall, *refusal)), (fn.__name__, cuts)
                messages.add(refusal[0])
            else:
                assert got == (answer, None), (fn.__name__, cuts)
                answered += 1
    return messages, answered


def test_report_parts_match_brute_force(hexmodel):
    # FIX-HEX at window 4 and a generated model with four chains at window 2
    rng = random.Random(19)
    model = _wall_model(rng, [rng.randrange(12) for _ in range(4)])
    for m, bound in ((hexmodel, 4), (model, 2)):
        messages, answered = _check_parts_by_brute_force(m, bound)
        # every guard refuses somewhere: some minimizer, a flip outside the
        # window, the whole shadow
        assert answered > 100
        assert any(x.startswith("every minimizer") for x in messages)
        assert any(x.endswith(f"is outside window {bound}") for x in messages)
        assert any(x.startswith("shadow of") for x in messages)


def _queries_from_whole_nearest_set(model, cuts, bound):
    """dist_to_pi0, classify_min, shadow, dual_shadow and shadow_report (as
    JSON) from the complete `argmin` list, each refused by the first of its
    guards in query order: some minimizer off the boundary, then the flips,
    then the whole shadow.  A test oracle for the walk that stops once its
    refusal is decided."""
    u = ChainUltrafilter(cuts)
    f, err = _outcome(window_field, model, bound)
    nearest, err = _outcome(f.argmin, cuts) if f else (None, err)
    if err:
        return [(None, err)] * 5
    interior = [all(abs(c) < bound for c in m) for m in nearest]

    def dist():
        if not any(interior):
            raise WindowTooSmall(f"every minimizer for {cuts} touches the window boundary", cuts)
        return f.distance(cuts)

    def mins():
        base, signed = dist(), {1: [], -1: [], 0: []}
        for h in min_set(u):
            moved = list(cuts)
            moved[h.chain] += 1 if h.starred else -1
            d = f.distance(tuple(moved))  # refuses a flip past the window
            signed[(d > base) - (d < base)].append(h)
        return MinClassification(signed[1], signed[-1], signed[0])

    def whole():
        if not all(interior):
            raise WindowTooSmall(f"shadow of {cuts} touches the window boundary", cuts)
        return nearest

    def dual():
        columns = list(zip(*whole()))
        return DualShadow(tuple(min(c) - 1 for c in columns), tuple(map(max, columns)))

    def report():
        m = mins()
        d, members = dist(), whole()
        report = ShadowReport(cuts, bound, d == 0, d, m.plus, m.minus, m.neutral, members, dual())
        return report.to_json()

    members = lambda: [ChainUltrafilter(m) for m in whole()]
    return [_outcome(fn) for fn in (dist, mins, members, dual, report)]


def test_queries_match_the_whole_nearest_set():
    # the five queries, whose walk stops at the first pair of an interior
    # and a boundary member, against the complete nearest set: every FIX-HEX
    # tuple of [-13, 13]^3 at window 12 (inside the window, on its boundary
    # and past it), and generated models with k = 1..4 at small windows on
    # tuples inside, on the boundary, past it and of the wrong length
    rng = random.Random(74)
    hexmodel = fixture_model("FIX-HEX")
    cases = [(hexmodel, cuts, 12) for cuts in product(range(-13, 14), repeat=3)]
    for k, bound in ((1, 6), (2, 4), (3, 3), (4, 2)):
        for _ in range(3):
            model = _wall_model(rng, [rng.randrange(12) for _ in range(k)])
            cases += [(model, cuts, bound) for cuts in _edge_queries(rng, k, bound, 150)]
            cases += [
                (model, tuple(rng.randint(-bound, bound) for _ in range(k)), bound)
                for _ in range(150)
            ]
    report_json = lambda model, u, bound: shadow_report(model, u, bound).to_json()
    reports = Counter()
    for model, cuts, bound in cases:
        u = ChainUltrafilter(cuts)
        expect = _queries_from_whole_nearest_set(model, cuts, bound)
        for fn, want in zip((dist_to_pi0, classify_min, shadow, dual_shadow, report_json), expect):
            assert _outcome(fn, model, u, bound) == want, (fn.__name__, cuts, bound)
        _, refusal = expect[-1]
        reports[(model is hexmodel, refusal[0] if refusal else None)] += 1
        if refusal and model is hexmodel:
            reports[refusal[1].replace(str(refusal[2]), "*", 1)] += 1
    # FIX-HEX answers and refuses by each guard and past the window, and the
    # generated cases refuse a wrong length
    assert reports[True, None] > 5000 and reports[False, ChainCountMismatch], reports
    assert reports["every minimizer for * touches the window boundary"], reports
    assert reports["shadow of * touches the window boundary"], reports
    assert reports["* is outside window 12"] > 2000, reports


def _stable_answers(model, cuts, small, large):
    """Every answer of dist_to_pi0, classify_min and shadow at the small
    window equals the answer at the large one; returns how many answered."""
    u = ChainUltrafilter(cuts)
    answered = 0
    for fn in (dist_to_pi0, classify_min, shadow):
        answer, refusal = _outcome(fn, model, u, small)
        if refusal is None:
            assert answer == fn(model, u, large), (fn.__name__, cuts, small)
            answered += 1
    return answered


def test_window_stability_hex(hexmodel):
    rng = random.Random(6)
    answered = sum(
        _stable_answers(hexmodel, tuple(rng.randint(-6, 6) for _ in range(3)), 6, 14)
        for _ in range(150)
    )
    assert answered > 150


def test_window_stability_generated_models():
    # answers are exact globally, never relative to the window: k=2 and k=3
    # models with random normals at multiples of 30 degrees, parallel
    # families included
    rng = random.Random(31)
    answered = 0
    for k, small, large in ((2, 4, 12), (3, 3, 9)):
        for _ in range(5):
            model = _wall_model(rng, [rng.randrange(12) for _ in range(k)])
            for _ in range(60):
                cuts = tuple(rng.randint(-small, small) for _ in range(k))
                answered += _stable_answers(model, cuts, small, large)
    assert answered > 300


# ---------------------------------------------------------------------------
# escaping rays


def test_escaping_ray_hex_all_plus(hexmodel):
    report = escaping_ray(hexmodel, sig(PLUS, PLUS, PLUS), 20, 13)
    assert report.success
    assert report.escape_start == 3
    dists = [s.dist for s in report.steps[report.escape_start :]]
    assert dists == list(range(len(dists)))  # delta_n = n after leaving Pi0
    assert report.dual_shadows_shrink


def test_escaping_ray_z2_fails_immediately(z2):
    report = escaping_ray(z2, sig(PLUS, PLUS), 5, 8)
    assert not report.success
    assert report.failure_step == 1
    assert all(s.dist == 0 for s in report.steps)


def test_escaping_ray_single_chain_class(hexmodel):
    # moves on one chain alone still escape: the slab system tightens by
    # one unit per step once the sum leaves the feasible band
    report = escaping_ray(hexmodel, sig(PLUS, FIN, FIN), 10, 12)
    assert report.success
    tail = [s.dist for s in report.steps[report.escape_start :]]
    assert tail == list(range(len(tail)))


def test_escaping_ray_rejects_principal(hexmodel):
    with pytest.raises(NotPrincipal):
        escaping_ray(hexmodel, principal(3), 5, 8)


def _ray_by_points(model, target, length, window):
    """`escaping_ray` built from whole points, as a test oracle: the flow as
    ultrafilters, each point's cuts and distance, then `dual_shadow` on the
    points."""
    from pocsets.chains import flow_flip_sequence

    if target.is_principal():
        raise NotPrincipal("escape target must be a non-principal class", format_signature(target))
    f = window_field(model, window)
    points = flow_flip_sequence(target, canonical_start(model, window), length)
    steps = [RayStep(i, p.int_cuts(), f.distance(p.int_cuts())) for i, p in enumerate(points)]
    dists = [s.dist for s in steps]
    if all(d == 0 for d in dists):
        # a ray of one point fails at its only step
        return RayReport(target, window, steps, None, False, 0 if len(steps) == 1 else 1, None)
    stalls = [i for i in range(1, len(dists)) if dists[i] <= dists[i - 1] and dists[i - 1] > 0]
    escape_start = max((i for i, d in enumerate(dists) if d == 0), default=0)
    if stalls:
        return RayReport(target, window, steps, escape_start, False, stalls[0], None)
    shrinks = True
    previous = dual_shadow(model, points[escape_start], window)
    for p in points[escape_start + 1 :]:
        current = dual_shadow(model, p, window)
        if not current.strictly_inside(previous):
            shrinks = False
            break
        previous = current
    return RayReport(target, window, steps, escape_start, shrinks, None, shrinks)


def test_escaping_ray_matches_point_construction():
    # every target of generated k = 1..4 models (the principal one is
    # refused), at lengths inside and past the window
    from pocsets.chains import all_signatures

    rng = random.Random(72)
    windows = {1: 6, 2: 4, 3: 3, 4: 2}
    outcomes = set()
    for k in range(1, 5):
        w = windows[k]
        for _ in range(2):
            model = _wall_model(rng, [rng.randrange(12) for _ in range(k)])
            for target in all_signatures(k):
                for length in (0, rng.randint(1, 2 * w), k * (2 * w + 1) + 1):
                    args = (model, target, length, w)
                    got = _outcome(escaping_ray, *args)
                    assert got == _outcome(_ray_by_points, *args), args
                    outcomes.add(got[1][0] if got[1] else got[0].success)
        with pytest.raises(MalformedInput):
            escaping_ray(model, target, -1, w)
    assert {True, False, NotPrincipal, WindowTooSmall} <= outcomes


def test_escape_limit_classes_outside_image(hexmodel):
    # exact dichotomy on this fixture: the flow ray escapes iff the target
    # class misses the image of rho
    from pocsets.chains import all_signatures
    from pocsets.euclid import rho_image

    image = {tuple(s.ends) for s in rho_image(hexmodel).signatures()}
    for s in all_signatures(3):
        if s.is_principal():
            continue
        report = escaping_ray(hexmodel, s, 9, 12)
        assert report.success == (tuple(s.ends) not in image)


# ---------------------------------------------------------------------------
# the co-compactness report


def test_surjectivity_z2(z2):
    report = surjectivity_report(z2, windows=(3, 5, 7))
    assert report.uniform
    assert report.max_delta == [0, 0, 0]
    assert report.delta_bounded and not report.delta_linear_growth
    assert report.image_size == 8
    non_principal = [r for r in report.classes if r.codim > 0]
    assert len(non_principal) == 8
    assert all(r.in_image for r in non_principal)
    assert report.escaping_classes == []


def _normals_rank(model):
    """Rank of the matrix of normals, by cross products."""
    pairs = combinations((f.normal for f in model.families), 2)
    return 2 if any(u[0] * v[1] != u[1] * v[0] for u, v in pairs) else min(1, model.k)


def test_growth_flags_follow_the_rank_of_the_normals():
    # max delta over [-W, W]^k is sigma*W up to a constant, and sigma > 0 iff
    # rank M < k: exactly one flag, whatever the windows, also where max
    # delta grows unevenly (e.g. [4, 9, 13] at 3, 6, 9); at k <= 2 the
    # bounded side shows, and parallel normals give rank 1 < k
    rng = random.Random(7)
    answered = Counter()
    for n in range(100):
        k = rng.choice((3, 4)) if n < 60 else rng.choice((1, 2))
        windows = (2, 3, 4) if k == 4 else (3, 6, 9)
        angles = [rng.randrange(12) if n < 60 else rng.choice((0, 3, rng.randrange(12))) for _ in range(k)]
        model = _wall_model(rng, angles)
        try:
            report = surjectivity_report(model, windows)
        except WindowTooSmall:
            continue
        linear = report.delta_linear_growth
        assert linear == (not report.delta_bounded) == (_normals_rank(model) < k)
        assert report.max_delta[-1] > 0 if linear else not any(report.max_delta)
        answered[k, linear] += 1
    assert answered[3, True] + answered[4, True] == 56
    assert answered[1, False] and answered[2, False] and answered[2, True]


def test_surjectivity_hex(hexmodel):
    report = surjectivity_report(hexmodel, windows=(5, 10, 15))
    assert report.uniform
    assert report.max_delta == [15, 30, 45]
    assert report.delta_linear_growth and not report.delta_bounded
    assert report.image_size == 12
    assert len(report.escaping_classes) == 26 - 12
    for row in report.classes:
        if row.codim > 0:
            assert row.escapes == (not row.in_image)
    blob = report.to_json()
    assert blob["escaping_ray_exists"] is True


def _d0_by_vertices(model):
    """{s: min over p of |s - Mp|_1} with rows m_i = n_i/s_i, in ExactNumber
    by vertex enumeration, as a test oracle: the convex piecewise-linear
    cost is least where two non-parallel rows meet (m_i.p = s_i and
    m_j.p = s_j), or for all-parallel rows at a breakpoint p = s_i*m_i/|m_i|^2
    along the common normal.  Each vertex is solved once, as Mp."""
    from functools import cache

    from pocsets.chains import all_signatures

    ms = [(f.normal[0] / f.spacing, f.normal[1] / f.spacing) for f in model.families]
    dot = lambda u, v: u[0] * v[0] + u[1] * v[1]
    det = lambda a, b: a[0] * b[1] - a[1] * b[0]
    pairs = [p for p in combinations(range(len(ms)), 2) if not det(*(ms[i] for i in p)).is_zero()]

    @cache
    def image(i, j, e, f):
        """Mp of the vertex m_i.p = e, m_j.p = f, or of a breakpoint (j None)."""
        a = ms[i]
        if j is None:
            p = (e * a[0] / dot(a, a), e * a[1] / dot(a, a))
        else:
            b, d = ms[j], det(ms[i], ms[j])
            p = ((e * b[1] - f * a[1]) / d, (f * a[0] - e * b[0]) / d)
        return [dot(m, p) for m in ms]

    table = {}
    for s in all_signatures(len(ms)):
        e = s.ends
        vertices = [(i, j, e[i], e[j]) for i, j in pairs]
        vertices = vertices or [(i, None, e[i], 0) for i in range(len(e))]
        table[s] = min(sum(abs(x - y) for x, y in zip(e, image(*v))) for v in vertices)
    return table


def test_surjectivity_g2():
    # six families, so the cap stops windows at W = 4
    model = g2_model()
    report = surjectivity_report(model, windows=(2, 3, 4))
    assert report.max_delta == [10, 16, 22]
    assert report.delta_linear_growth and not report.delta_bounded
    assert report.image_size == 24 and len(rho_image(model).signatures()) == 24
    members = [c for c in product(range(-2, 3), repeat=6) if model.oracle.consistent(c)]
    assert window_field(model, 2).members == members


def test_reports_past_the_class_cap_are_refused():
    # 14 families (normals (1, j)) have 3^14 classes: the report is refused
    # before its first window is built, and so are the escapers; G~2's 3^6
    # classes are listed
    from pocsets.euclid import _escape_verdicts

    normals = [(ExactNumber.of(1), ExactNumber.of(j)) for j in range(14)]
    names = tuple(f"c{j}" for j in range(14))
    model = WallModel(ChainFamily(names), tuple(map(WallFamily, normals)))
    message = "14 chains have 3^14 classes, more than 59049"
    for call in (
        lambda: surjectivity_report(model, windows=(0,)),
        lambda: surjectivity_report(model, windows=(100,)),  # past the window cap too
        lambda: eventual_escapers(model),
        lambda: _escape_verdicts(model),
    ):
        with pytest.raises(MalformedInput) as refusal:
            call()
        assert str(refusal.value) == message
    assert "oracle" not in model.__dict__  # no window was built
    assert len(surjectivity_report(g2_model(), windows=(0,)).classes) == 729


def _escaper_test_models():
    """200 generated k = 1..5 models, a fifth of them all-parallel."""
    rng = random.Random(73)
    for k, count in ((1, 45), (2, 45), (3, 45), (4, 45), (5, 20)):
        for n in range(count):
            j = rng.randrange(12)
            angles = (
                [(j + rng.choice((0, 6))) % 12 for _ in range(k)]
                if n % 5 == 0
                else [rng.randrange(12) for _ in range(k)]
            )
            yield angles, _wall_model(rng, angles)


def test_eventual_escapers_match_vertex_enumeration():
    # s escapes iff D0(s) = |supp s|; no escaper is in the image of rho
    seen = set()
    for angles, model in _escaper_test_models():
        escapers = eventual_escapers(model)
        for s, d0 in _d0_by_vertices(model).items():
            if not s.is_principal():
                assert (s in escapers) == (d0 == ExactNumber.of(s.codim())), (angles, s)
        assert not escapers & set(model.image.signatures()), angles
        seen.add(len(escapers))
    assert len(seen) > 3


def _escapers_by_class(model):
    """`eventual_escapers` summed class by class, as a test oracle: for each
    class, x and h re-summed over its chains for every row tested."""
    from pocsets.chains import all_signatures
    from pocsets.euclid import dot, perp
    from pocsets.exactnum import ONE, ZERO, integer_pairs, sqrt3_sign

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


def _class_layer_models():
    """The fixtures with geometry, G~2 and the 200 models above."""
    models = [fixture_model("FIX-HEX"), fixture_model("FIX-Z2"), fixture_model("FIX-Z1"), g2_model()]
    return models + [model for _, model in _escaper_test_models()]


def test_eventual_escapers_match_per_class_sums():
    # the walk over half the classes against the per-class sums, on the
    # fixtures, G~2 and the 200 models above; a class escapes iff its
    # negation does
    models = _class_layer_models()
    sizes = set()
    for model in models:
        escapers = eventual_escapers(model)
        assert escapers == _escapers_by_class(model), model
        assert escapers == {sig(*(-e for e in s.ends)) for s in escapers}, model
        sizes.add(len(escapers))
    assert len(eventual_escapers(models[0])) == 26 - 12 and len(sizes) > 3


def test_report_rows_match_per_class_reads():
    # every row, in `all_signatures` order, against the class itself, the
    # image's classes and the per-class escapers (None for the principal);
    # rows read only normals and spacings, so each model is reported with
    # its offsets set to 0, where window 0 holds a consistent tuple
    from pocsets.chains import all_signatures

    for given in _class_layer_models():
        families = tuple(WallFamily(f.normal, f.spacing) for f in given.families)
        model = WallModel(given.chains, families)
        escapers = _escapers_by_class(model)
        image = rho_image(model).signatures()
        rows = surjectivity_report(model, windows=(0,)).classes
        assert [r.signature for r in rows] == all_signatures(model.k)
        for r in rows:
            s = r.signature
            escapes = None if s.is_principal() else s in escapers
            assert (r.codim, r.in_image, r.escapes) == (s.codim(), s in image, escapes), (model, s)


def _closure_by_class_leq(model):
    """`closure_check` by `class_leq` on every pair of image classes, as a
    test oracle: each fiber's classes below it, sorted, against the sorted
    classes of its closure."""
    from pocsets.chains import class_leq
    from pocsets.euclid import ClosureEntry, ClosureReport

    image = rho_image(model)
    in_image = {e.signature for e in image.entries}
    point_class = {
        f.direction: e.signature for e in image.entries for f in e.fibers if f.kind == "point"
    }
    entries = []
    first_violation = None
    codim1_closed = True
    for e in image.entries:
        below = sorted((s for s in in_image if class_leq(s, e.signature)), key=lambda s: s.ends)
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


def _components_by_comparable(signatures):
    """`safe_components` by `comparable` on pairs of classes, as a test
    oracle."""
    from pocsets.chains import comparable

    remaining = list(signatures)
    components = []
    while remaining:
        component = [remaining.pop()]
        for s in component:
            rest = []
            for t in remaining:
                (component if comparable(s, t) else rest).append(t)
            remaining = rest
        components.append(sorted(component, key=lambda s: s.ends))
    return sorted(components, key=lambda comp: comp[0].ends)


def test_closure_and_safe_components_match_class_leq():
    # the order read off sign masks against `class_leq`, on the image of
    # every class-layer model; the 200 models hold failed closures too
    from pocsets.euclid import closure_check, safe_components

    outcomes = set()
    for model in _class_layer_models():
        report = closure_check(model)
        assert report == _closure_by_class_leq(model), model
        image = rho_image(model).signatures()
        assert safe_components(image) == _components_by_comparable(image), model
        outcomes.add((report.ok, report.codim1_closed))
    assert len(outcomes) > 1


def test_certified_escapers_rays_strictly_increase():
    # on FIX-HEX and uniform k = 3 models at window 40, the ray toward each
    # certified escaper gains distance at each of its last 15 steps; the
    # converse can fail, since a non-escaper's ray may stall only every
    # dozen steps or so
    rng = random.Random(74)
    models = [fixture_model("FIX-HEX")]
    while len(models) < 9:
        model = _wall_model(rng, [rng.randrange(12) for _ in range(3)])
        if model.image.uniform:
            models.append(model)
    checked = 0
    for model in models:
        for s in eventual_escapers(model):
            # 18 rounds from a start next to the origin keep every shadow inside
            dists = [step.dist for step in escaping_ray(model, s, 18 * s.codim(), 40).steps]
            assert all(b > a for a, b in zip(dists[-16:], dists[-15:])), s
            checked += 1
    assert checked >= 14 + 2 * 8


def test_image_built_once_per_model(monkeypatch):
    import pocsets.euclid as euclid
    from pocsets.euclid import closure_check, rho_image, safe_components

    builds = []
    build = euclid._build_image
    monkeypatch.setattr(euclid, "_build_image", lambda model: builds.append(model) or build(model))
    model = fixture_model("FIX-HEX")
    image = rho_image(model)
    safe_components(image.signatures())
    closure_check(model)
    surjectivity_report(model, windows=(2, 4))
    assert rho_image(model) is image and len(builds) == 1
    # an equal model loaded separately builds and keeps its own
    assert rho_image(fixture_model("FIX-HEX")) == image and len(builds) == 2


def test_repeated_windows_sweep_once(hexmodel):
    once = surjectivity_report(hexmodel, windows=(5,))
    assert surjectivity_report(hexmodel, windows=(5, 5)) == once
    # one window shows no slope, but the flags need none: sigma = 3 here
    assert once.windows == [5] and once.delta_linear_growth and not once.delta_bounded


def test_surjectivity_z1_flags_non_uniform(z1):
    report = surjectivity_report(z1, windows=(3, 5))
    assert not report.uniform
    assert report.delta_bounded
    assert report.escaping_classes == []


def test_max_delta_window_values(hexmodel):
    # the all-minus corner realizes 3W: every unit of sum deficit costs one
    assert max_delta_over_window(hexmodel, 5) == 15
    f = window_field(hexmodel, 5)
    assert f.distance((-5, -5, -5)) == 15
    assert f.distance((5, 5, 5)) == 12


def _parallel_model():
    """Two parallel families ten slabs apart: a tuple is consistent iff its
    cuts differ by 9, 10 or 11, so window 5 is the first with a member."""
    one, zero = ExactNumber.of(1), ExactNumber.of(0)
    families = (WallFamily((one, zero), 1, 0), WallFamily((one, zero), 1, 10))
    return WallModel(ChainFamily(("a", "b")), families)


def _model_empty_at_zero():
    """A generated k = 3 model whose window 0 holds no member and window 3
    some."""
    rng = random.Random(80)
    while True:
        model = _wall_model(rng, [rng.randrange(12) for _ in range(3)])
        if not enumerate_pi0(model, 0) and enumerate_pi0(model, 3):
            return model


def _field_outcome(model, bound):
    f, refusal = _outcome(window_field, model, bound)
    return (f.rows, f.members, f.distance_table, f.start) if f else None, refusal


def test_window_build_order_does_not_matter():
    # windows built descending on one model and ascending on an equal model
    # loaded separately give equal rows, members, tables and starts, and
    # refuse the same windows the same way
    rng = random.Random(81)
    cases = [
        (lambda: fixture_model("FIX-HEX"), (7, 4, 2, 1, 0)),
        (lambda: fixture_model("FIX-Z2"), (9, 4, 1, 0)),
        (_parallel_model, (6, 5, 4, 0)),
        (_model_empty_at_zero, (3, 1, 0)),
    ]
    windows = {1: (12, 5, 3, 0), 2: (7, 4, 2, 0), 3: (4, 3, 1, 0), 4: (3, 2, 1, 0)}
    for k in range(1, 5):
        angle_sets = [[rng.randrange(12) for _ in range(k)] for _ in range(4)]
        angle_sets += [[(j + rng.choice((0, 6))) % 12 for _ in range(k)] for j in (0, 3)]
        for angles in angle_sets:
            seed = rng.randrange(10**6)
            make = lambda angles=angles, seed=seed: _wall_model(random.Random(seed), angles)
            cases.append((make, windows[k]))
    refused = 0
    for make, bounds in cases:
        down, up = make(), make()
        assert down == up and down is not up
        by_down = {w: _field_outcome(down, w) for w in sorted(bounds, reverse=True)}
        by_up = {w: _field_outcome(up, w) for w in sorted(bounds)}
        assert by_down == by_up, bounds
        for w, (field, refusal) in by_down.items():
            if refusal:
                assert refusal == (WindowTooSmall, f"no consistent tuple inside window {w}", w)
                refused += 1
    assert refused


def test_report_refuses_the_window_it_refused_before():
    # the ascending loop refuses the same window with the same message and
    # witness, and keeps the fields it built on the way
    cap = "window 100000 has 8000120000600001 tuples, more than 1000000"
    empty = (WindowTooSmall, "no consistent tuple inside window 0", 0)
    cases = [
        (lambda: fixture_model("FIX-HEX"), (3, -1), (MalformedInput, "window bound must be >= 0", -1), []),
        (lambda: fixture_model("FIX-HEX"), (4, 10**5), (MalformedInput, cap, 10**5), [4]),
        (_model_empty_at_zero, (0, 10**5), empty, []),
        (_model_empty_at_zero, (0, 3), empty, []),
        (_parallel_model, (0, 3), empty, []),
        (_parallel_model, (3, 0, 5), empty, []),
    ]
    for make, windows, refusal, kept in cases:
        model = make()
        assert _outcome(surjectivity_report, model, windows) == (None, refusal), windows
        assert sorted(model.oracle.fields) == kept


def test_report_caps_the_tuples_its_windows_hold(monkeypatch):
    # every field a report builds stays on its model, so the windows
    # together hold at most three windows at the cap (here 400 tuples, so
    # window 9 at k = 2): refused at the first window past the total, after
    # each window's own cap, and a sweep of three windows at the cap passes
    import pocsets.shadows

    monkeypatch.setattr(pocsets.shadows, "MAX_WINDOW_TUPLES", 400)
    total = "windows up to 9 hold 1330 tuples, more than 1200"
    own = "window 10 has 441 tuples, more than 400"
    cases = [
        (range(10), (MalformedInput, total, 9), list(range(9))),
        (range(12), (MalformedInput, total, 9), list(range(9))),
        ((*range(9), 10), (MalformedInput, own, 10), list(range(9))),
    ]
    for windows, refusal, kept in cases:
        model = fixture_model("FIX-Z2")
        assert _outcome(surjectivity_report, model, windows) == (None, refusal), windows
        assert sorted(model.oracle.fields) == kept
    assert surjectivity_report(fixture_model("FIX-Z2"), (7, 8, 9)).windows == [7, 8, 9]


def test_report_without_windows_is_refused():
    # before any field is built, so before the model's oracle is compiled
    model = fixture_model("FIX-HEX")
    for windows in ((), []):
        assert _outcome(surjectivity_report, model, windows) == (
            None, (MalformedInput, "a report needs at least one window", [])
        )
    assert "oracle" not in vars(model)


@pytest.mark.parametrize("window", [1.5, 2.0, True, "2"], ids=["half", "float", "bool", "str"])
def test_a_window_that_is_not_an_int_is_refused(window):
    # by every windowed entry point, with the window as witness, and before
    # a held field is read: a W = 2 field, equal to 2.0 as a key, changes nothing
    from pocsets.chains import restrict_to_window, window_pocset

    model = fixture_model("FIX-HEX")
    u = uf(0, 0, 0)
    calls = [
        lambda: restrict_to_window(u, window),
        lambda: window_pocset(3, window),
        lambda: window_field(model, window),
        lambda: dist_to_pi0(model, u, window),
        lambda: shadow_report(model, u, window),
        lambda: escaping_ray(model, sig(PLUS, PLUS, MINUS), 3, window),
        lambda: canonical_start(model, window),
        lambda: surjectivity_report(model, (window,)),
        lambda: surjectivity_report(model, (5, window)),
    ]
    for held in (False, True):
        if held:
            window_field(model, 2)
        for call in calls:
            with pytest.raises(MalformedInput, match="window bound must be an int") as exc:
                call()
            assert (exc.value.code, exc.value.witness) == ("malformed-input", window)
    assert sorted(model.oracle.fields) == [2]


def test_window_fields_live_on_their_model():
    model = fixture_model("FIX-HEX")
    assert window_field(model, 4) is window_field(model, 4)
    # an equal model loaded separately builds and keeps its own field
    assert window_field(fixture_model("FIX-HEX"), 4) is not window_field(model, 4)
    # a plain function, not a wrapper around a module-global cache
    assert inspect.isfunction(window_field)


def test_window_field_holds_pi0_by_rows_only():
    # Pi0 is held once, by the rows, and `members` reads the same list off them
    assert "members" not in WindowField.__slots__
    for name, bound in (("FIX-HEX", 4), ("FIX-Z2", 3), ("FIX-Z1", 5)):
        model = fixture_model(name)
        assert window_field(model, bound).members == [u.cuts for u in enumerate_pi0(model, bound)]


def test_kept_fields_are_bounded(monkeypatch):
    # a model keeps fields of at most three windows at the cap (here 400
    # tuples): a new field past that drops the oldest first, in the order
    # they were built, and a kept field is the same object on each read
    import pocsets.shadows

    monkeypatch.setattr(pocsets.shadows, "MAX_WINDOW_TUPLES", 400)
    model = fixture_model("FIX-Z2")
    fields = model.oracle.fields
    for w in (9, 0, 8, 1, 7, 6, 5):  # 1175 tuples
        window_field(model, w)
    assert list(fields) == [9, 0, 8, 1, 7, 6, 5]
    four = window_field(model, 4)  # 1256: drops window 9
    assert list(fields) == [0, 8, 1, 7, 6, 5, 4] and window_field(model, 4) is four
    nine = window_field(model, 9)  # 1256: drops windows 0 and 8
    assert list(fields) == [1, 7, 6, 5, 4, 9] and window_field(model, 9) is nine
    assert window_field(model, 0).rows == [(0, 0)]  # rebuilt
    # queries at every window of one model keep a bounded total
    model = fixture_model("FIX-Z2")
    for w in range(1, 10):
        assert dist_to_pi0(model, uf(0, 0), w) == 0
        assert sum(len(f.distance_table) for f in model.oracle.fields.values()) <= 1200
    assert list(model.oracle.fields) == [5, 6, 7, 8, 9]


def test_a_kept_field_is_read_once():
    # a field dropped by another thread between a membership test and a
    # read is a miss, built again, not a KeyError
    class Dropping(dict):
        def __contains__(self, key):
            found = super().__contains__(key)
            self.pop(key, None)
            return found

    model = fixture_model("FIX-Z1")
    three = window_field(model, 3)
    model.oracle.fields = Dropping(model.oracle.fields)
    assert window_field(model, 3) is three


def test_threads_share_a_models_fields(monkeypatch):
    # four threads read, build and evict one model's fields at once: the cap
    # is FIX-Z1's window 10 (21 tuples), so most new fields evict, and the
    # threads switch every microsecond; each runs 0.3 s.  The kept tuples,
    # summed after every call, never pass three windows at the cap
    import sys
    import threading
    import time

    import pocsets.shadows

    monkeypatch.setattr(pocsets.shadows, "MAX_WINDOW_TUPLES", 21)
    model = fixture_model("FIX-Z1")
    errors, peaks = [], []
    deadline = time.perf_counter() + 0.3

    def work(seed):
        rng = random.Random(seed)
        peak = 0
        try:
            while time.perf_counter() < deadline:
                bound = rng.randint(0, 10)
                assert window_field(model, bound).bound == bound
                kept = sum(len(f.distance_table) for f in list(model.oracle.fields.values()))
                peak = max(peak, kept)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)
        peaks.append(peak)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(peaks) == 4 and 0 < max(peaks) <= 3 * 21, peaks


def test_canonical_start(z2, hexmodel):
    assert canonical_start(z2, 4).cuts == (0, 0)
    assert canonical_start(hexmodel, 4).cuts == (0, 0, 0)


# ---------------------------------------------------------------------------
# flow fellow-travel on coordinate models (cut-coordinate space)


def test_flow_fellow_travels_straight_ray():
    from pocsets.chains import flow_flip_sequence

    for d in (2, 3):
        for target in zd_image_signatures(d):
            if target.codim() != 1:
                continue
            pts = flow_flip_sequence(target, ChainUltrafilter((0,) * d), 10)
            for p in pts:
                m = max(abs(int(c)) for c in p.cuts)
                ray_point = tuple(
                    m if e == PLUS else -m if e == MINUS else 0
                    for e in target.ends
                )
                dev = max(abs(int(c) - r) for c, r in zip(p.cuts, ray_point))
                assert dev <= 1
