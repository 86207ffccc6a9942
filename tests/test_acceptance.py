"""The acceptance gate: ten criteria, each exact at its stated tolerance,
each printing one PASS line with its runtime.

Expected values are frozen from independent oracles computed inside this
module (sign-assignment scans, breadth-first searches, face-poset vertex
sets, brute-force window minimization); the library paths under test never
feed their own answers back into the expectations."""

from __future__ import annotations

import random
import time
from itertools import combinations, product
from math import comb

import pytest

from pocsets.chains import (
    FIN,
    MINUS,
    PLUS,
    ChainUltrafilter,
    MoveSchedule,
    Signature,
    all_signatures,
    average_sequence,
    cf_class,
    cf_truncate,
    class_leq,
    delta,
    flow_step,
    geodesic_points,
    limit_of_geodesic,
    median,
    principal,
    project_to_class,
    restrict_to_window,
    sig,
    uf,
    window_pocset,
)
from pocsets.core import FinitePocSet
from pocsets.cubing import build_cubing, duality_roundtrip
from pocsets.errors import AxiomViolation
from pocsets.euclid import Line, closure_check, line_end_incomparability, rho, rho_image, safe_components
from pocsets.exactnum import ExactNumber
from pocsets.formats import fixture_model, fixture_pocset
from pocsets.shadows import (
    ChainHalfspace,
    canonical_start,
    classify_min,
    dist_to_pi0,
    dual_shadow,
    enumerate_pi0,
    escaping_ray,
    interval_consistent,
    is_consistent_set,
    shadow,
    shadow_report,
    surjectivity_report,
)

from conftest import brute_force_ultrafilters, is_consistent, random_pocset

SQRT3 = ExactNumber(0, 1)


def _timed(budget: float):
    start = time.monotonic()

    def done(label: str) -> None:
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"{label} exceeded {budget}s ({elapsed:.1f}s)"
        print(f"\nACCEPTANCE {label}: PASS ({elapsed:.1f}s)")

    return done


# ---------------------------------------------------------------------------


def test_criterion_01_ultrafilter_counts():
    done = _timed(10.0)
    for name, expected in (("FIX-LINE3", 4), ("FIX-SQ", 4), ("FIX-TRIPOD", 4)):
        assert len(fixture_pocset(name).ultrafilters()) == expected
    rng = random.Random(101)
    for _ in range(200):
        p = random_pocset(rng, max_pairs=6)
        fast = [u.signs for u in p.ultrafilters()]
        assert fast == sorted(brute_force_ultrafilters(p))
    done("1 (ultrafilter counts, 200 random brute-force agreements)")


def test_criterion_02_duality_roundtrip():
    done = _timed(10.0)
    for name in ("FIX-LINE3", "FIX-SQ", "FIX-TRIPOD"):
        p = fixture_pocset(name)
        report = duality_roundtrip(p)
        assert report.isomorphic
        assert len(report.element_bijection) == 2 * p.n_pairs
    rng = random.Random(202)
    for _ in range(100):
        p = random_pocset(rng, max_pairs=5)
        report = duality_roundtrip(p)
        assert report.isomorphic
        assert sorted(report.vertex_bijection) == list(range(len(p.ultrafilters())))
    done("2 (duality round-trip, fixtures + 100 random)")


def test_criterion_03_metric_agreement():
    done = _timed(10.0)
    for name in ("FIX-LINE3", "FIX-SQ", "FIX-TRIPOD"):
        p = fixture_pocset(name)
        c = build_cubing(p)
        for i, u in enumerate(c.vertices):
            bfs = c.graph_distances(i)
            for j, v in enumerate(c.vertices):
                assert bfs[j] == p.delta(u, v)
    done("3 (delta equals skeleton distance, exhaustive)")


def _cube_faces(d: int):
    """Oracle: faces of the d-cube as explicit vertex sets of {0,1}^d."""
    verts = list(product((0, 1), repeat=d))
    faces = {}
    for spec in product((-1, 0, 1), repeat=d):
        members = frozenset(
            w for w in verts if all(s == 0 or w[i] == (s + 1) // 2 for i, s in enumerate(spec))
        )
        faces[spec] = members
    return faces


def test_criterion_04_roller_boundary_of_zd():
    done = _timed(5.0)
    from pocsets.formats import load_chain_family

    for name in ("FIX-Z1", "FIX-Z2", "FIX-Z3", "FIX-Z4"):
        family, _ = load_chain_family(name)
        d = family.k
        sigs = all_signatures(d)
        assert len(sigs) == 3**d
        faces = _cube_faces(d)
        # the boundary poset is the proper-face poset of the d-cube in the
        # co-face (reverse inclusion) order, with the principal class as an
        # adjoined minimum standing where the whole cube sits
        def face_of(s: Signature):
            return faces[tuple(s.ends)]

        for a in sigs:
            for b in sigs:
                expected = face_of(a) >= face_of(b)
                assert class_leq(a, b) == expected
        assert all(class_leq(principal(d), s) for s in sigs)
        for c in range(d + 1):
            assert sum(1 for s in sigs if s.codim() == c) == comb(d, c) * 2**c
    done("4 (Roller boundary of Z^d is the cube face poset, d=1..4)")


def test_criterion_05_rho_image_counts():
    done = _timed(10.0)
    z2 = fixture_model("FIX-Z2")
    image2 = rho_image(z2)
    assert len(image2.signatures()) == 8 == 4 * z2.distinct_wall_directions()
    assert len(safe_components(image2.signatures())) == 1

    hexmodel = fixture_model("FIX-HEX")
    image3 = rho_image(hexmodel)
    sigs = image3.signatures()
    assert len(sigs) == 12 == 4 * hexmodel.distinct_wall_directions()
    # a single comparability cycle: connected, every class comparable to
    # exactly two others
    from pocsets.chains import comparable

    degrees = [sum(1 for t in sigs if t != s and comparable(s, t)) for s in sigs]
    assert degrees == [2] * 12
    assert len(safe_components(sigs)) == 1
    done("5 (rho image 4d exactly; hex 12-cycle; one safe component each)")


def test_criterion_06_closure_formula():
    done = _timed(10.0)
    for name in ("FIX-Z2", "FIX-HEX"):
        report = closure_check(fixture_model(name))
        assert report.ok, f"{name}: fiber {report.first_violation}"
        assert report.codim1_closed
    done("6 (closure formula on every fiber; codim-1 fibers closed)")


def test_criterion_07_line_end_incomparability():
    done = _timed(10.0)
    rng = random.Random(707)
    for name in ("FIX-Z2", "FIX-HEX"):
        model = fixture_model(name)
        checked = 0
        while checked < 100:
            a = ExactNumber.of(rng.randint(-9, 9)) + SQRT3 * rng.randint(-2, 2)
            b = ExactNumber.of(rng.randint(-9, 9)) + SQRT3 * rng.randint(-2, 2)
            if a.is_zero() and b.is_zero():
                continue
            assert line_end_incomparability(model, Line((a, b)))
            checked += 1
    done("7 (100 exact lines per fixture: end classes incomparable)")


def test_criterion_08_hexagonal_shadows():
    done = _timed(60.0)
    model = fixture_model("FIX-HEX")
    w = 12

    # double oracle on every tuple of the window
    for cuts in product(range(-w, w + 1), repeat=3):
        assert interval_consistent(model, cuts) == is_consistent(
            model, ChainUltrafilter(cuts)
        )

    pi = uf(5, 5, 5)
    assert dist_to_pi0(model, pi, w) == 12
    members = shadow(model, pi, w)
    assert len(members) == 91
    assert all(sum(m.int_cuts()) == 3 and max(m.int_cuts()) <= 5 for m in members)
    dual = dual_shadow(model, pi, w)
    assert dual.plain_upto == (-8, -8, -8)
    assert dual.star_from == (5, 5, 5)

    rng = random.Random(808)
    seen = 0
    while seen < 1000:
        cuts = tuple(rng.randint(-5, 5) for _ in range(3))
        u = ChainUltrafilter(cuts)
        if is_consistent(model, u):
            continue
        seen += 1
        report = shadow_report(model, u, w)
        assert all(report.dual_shadow.contains(h) for h in report.min_plus)
        assert report.dual_shadow.inside_ultrafilter(u)
        assert len(report.min_minus) >= 3
        assert not is_consistent_set(model, report.min_minus)
    done("8 (hex shadows at W=12: double oracle, 12/91, 1000 random bounds)")


def test_criterion_09_cocompactness_dichotomy():
    done = _timed(60.0)
    z2 = fixture_model("FIX-Z2")
    report2 = surjectivity_report(z2, windows=(5, 10, 15))
    non_principal = [r for r in report2.classes if r.codim > 0]
    assert len(non_principal) == 8
    assert all(r.in_image for r in non_principal)
    assert report2.max_delta == [0, 0, 0]
    assert report2.escaping_classes == []

    hexmodel = fixture_model("FIX-HEX")
    report3 = surjectivity_report(hexmodel, windows=(5, 10, 15))
    assert report3.image_size == 12

    # independent brute-force check of the window-5 maximum
    members5 = [u.int_cuts() for u in enumerate_pi0(hexmodel, 5)]
    brute_max = max(
        min(sum(abs(a - b) for a, b in zip(cuts, m)) for m in members5)
        for cuts in product(range(-5, 6), repeat=3)
    )
    assert brute_max == 15
    assert report3.max_delta == [15, 30, 45]  # linear growth, slope 3
    assert report3.delta_linear_growth

    all_plus = sig(PLUS, PLUS, PLUS)
    assert not any(s == all_plus for s in rho_image(hexmodel).signatures())
    assert all_plus in report3.escaping_classes

    ray = escaping_ray(hexmodel, all_plus, 20, 13)
    assert ray.success
    dists = [s.dist for s in ray.steps[ray.escape_start :]]
    assert dists == list(range(len(dists)))  # strictly increasing by 1
    assert ray.dual_shadows_shrink
    done("9 (Z2 co-compact; hex: linear growth + verified escaping ray)")


def test_criterion_10_flow_and_convergence():
    done = _timed(30.0)
    rng = random.Random(1010)

    # flow iterates converge pointwise to the projection
    for _ in range(500):
        k = rng.randint(1, 4)
        s = Signature(tuple(rng.choice((FIN, PLUS, MINUS)) for _ in range(k)))
        u = ChainUltrafilter(tuple(rng.randint(-5, 5) for _ in range(k)))
        w = 8
        v = u
        for _ in range(w + 6):
            v = flow_step(s, v)
        assert restrict_to_window(v, w) == restrict_to_window(
            project_to_class(s, u), w
        )

    # averaged sequences: projected distance non-increasing, eventually zero
    for _ in range(100):
        k = rng.randint(1, 3)
        sigma_cuts = []
        for _ in range(k):
            kind = rng.choice(("plus", "minus", "cut"))
            sigma_cuts.append(
                float("inf") if kind == "plus" else float("-inf") if kind == "minus" else rng.randint(-3, 3)
            )
        sigma = ChainUltrafilter(tuple(sigma_cuts))
        seq = []
        for n in range(1, 9):
            cuts = []
            for c in sigma_cuts:
                if c == float("inf"):
                    cuts.append(n + rng.randint(-1, 1))
                elif c == float("-inf"):
                    cuts.append(-n + rng.randint(-1, 1))
                else:
                    cuts.append(int(c) + (rng.randint(-1, 1) if n < 5 else 0))
            seq.append(ChainUltrafilter(tuple(cuts)))
        averaged = average_sequence(seq, sigma)
        s = cf_class(sigma)
        dists = [delta(project_to_class(s, v), sigma) for v in averaged]
        assert all(a >= b for a, b in zip(dists, dists[1:]))
        assert dists[-1] == 0

    # geodesic rays are their own averages; averaged sequences concatenate
    # into geodesics (delta additivity)
    for _ in range(50):
        k = rng.randint(1, 3)
        start = ChainUltrafilter(tuple(rng.randint(-2, 2) for _ in range(k)))
        cycle = tuple(
            (i, rng.choice((1, -1))) for i in rng.sample(range(k), rng.randint(1, k))
        )
        schedule = MoveSchedule(prefix=(), cycle=cycle)
        pts = geodesic_points(start, schedule, 8)
        sigma = limit_of_geodesic(start, schedule)
        assert average_sequence(pts, sigma) == pts
        total = sum(delta(a, b) for a, b in zip(pts, pts[1:]))
        assert delta(pts[0], pts[-1]) == total

    # truncation: results validate as ultrafilters, class change follows the
    # infinite-chain rule; exhaustive over small states and targets
    w = 6
    p = window_pocset(2, w)
    for c0 in (-2, 0, 2, float("inf"), float("-inf")):
        u = ChainUltrafilter((c0, 1))
        for n in range(-4, 5):
            for starred in (False, True):
                b = ChainHalfspace(0, n, starred)
                if not u.contains(b):
                    continue
                v = cf_truncate(u, b)
                signs = restrict_to_window(v, w)
                members = [2 * i + s for i, s in enumerate(signs)] + [p.zero_star]
                assert p.is_ultrafilter(members).ok
                changed = cf_class(v) != cf_class(u)
                on_chain = (not starred and c0 == float("inf")) or (
                    starred and c0 == float("-inf")
                )
                assert changed == on_chain
    done("10 (flow convergence x500, averaging, geodesics, truncation)")
