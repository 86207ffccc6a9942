from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest

from pocsets.chains import FIN, MINUS, PLUS, comparable, class_leq, sig
from pocsets.errors import LineInsideWall, MalformedInput, ZeroDirection
from pocsets.euclid import (
    ArcFiber,
    ImageEntry,
    ImageReport,
    Line,
    PointFiber,
    WallModel,
    closure_check,
    dot,
    line_end_incomparability,
    negate,
    normalize,
    perp,
    rho,
    rho_image,
    restrict_to_line,
    safe_components,
)
from pocsets.exactnum import ExactNumber, parse_exact
from pocsets.formats import fixture_model

from conftest import contains_class, zd_image_signatures

SQRT3 = ExactNumber(0, 1)


def ex(v):
    return ExactNumber.of(Fraction(v))


def vec(x, y):
    return (
        x if isinstance(x, ExactNumber) else ex(x),
        y if isinstance(y, ExactNumber) else ex(y),
    )


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
# classification and rho


def test_classify_z2_axis(z2):
    # the first chain's walls are crossed toward its plus end, the second's
    # are parallel to the direction
    assert rho(z2, vec(1, 0)) == sig(PLUS, FIN)


def test_classify_z2_diagonal(z2):
    assert rho(z2, vec(1, 1)) == sig(PLUS, PLUS)


def test_rho_z2_examples(z2):
    assert rho(z2, vec(0, -1)) == sig(FIN, MINUS)
    assert rho(z2, vec(-2, 3)) == sig(MINUS, PLUS)


def test_rho_rejects_zero(z2):
    # as normalize and a line do: one check, naming the direction
    for call in (lambda d: rho(z2, d), normalize, lambda d: restrict_to_line(z2, Line(d))):
        with pytest.raises(ZeroDirection, match="a direction must be non-zero") as exc:
            call(vec(0, 0))
        assert (exc.value.code, exc.value.witness) == ("zero-direction", ["0", "0"])


@pytest.mark.parametrize("spacing, shown", [(0, "0"), (Fraction(-1, 2), "-1/2")])
def test_a_wall_family_refuses_a_spacing_that_is_not_positive(spacing, shown):
    from pocsets.euclid import WallFamily

    with pytest.raises(MalformedInput, match="spacing must be positive") as exc:
        WallFamily(vec(1, 0), spacing)
    assert exc.value.code == "malformed-input" and exc.value.witness == ex(spacing)
    assert exc.value.diagnostic()["witness"] == shown


def test_hex_direction_of_first_normal(hexmodel):
    xi = hexmodel.families[0].normal
    ends = rho(hexmodel, xi).ends
    assert ends[0] == PLUS
    assert FIN not in ends


def test_hex_never_all_plus(hexmodel):
    # n1 + n2 + n3 = 0, so the three dot products sum to zero exactly and
    # cannot share a strict sign; sampled over exact directions
    n = [f.normal for f in hexmodel.families]
    total = (
        n[0][0] + n[1][0] + n[2][0],
        n[0][1] + n[1][1] + n[2][1],
    )
    assert total[0].is_zero() and total[1].is_zero()
    rng = random.Random(9)
    for _ in range(200):
        xi = vec(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        if xi[0].is_zero() and xi[1].is_zero():
            continue
        s = rho(hexmodel, xi)
        assert s != sig(PLUS, PLUS, PLUS)
        assert s != sig(MINUS, MINUS, MINUS)


# ---------------------------------------------------------------------------
# image fibers


def test_z2_image(z2):
    report = rho_image(z2)
    assert report.uniform
    sigs = {tuple(s.ends) for s in report.signatures()}
    assert len(sigs) == 8
    arcs = {
        tuple(e.signature.ends)
        for e in report.entries
        if e.fibers[0].kind == "arc"
    }
    points = sigs - arcs
    assert arcs == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert points == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for e in report.entries:
        assert len(e.fibers) == 1


def test_hex_image_is_a_twelve_cycle(hexmodel):
    report = rho_image(hexmodel)
    sigs = report.signatures()
    assert len(sigs) == 12
    # critical directions are perpendicular to exactly one of the three
    # pairwise non-parallel normals, so point classes have codim 2 and arc
    # classes codim 3
    assert all(s.codim() in (2, 3) for s in sigs)
    # comparability graph is a single 12-cycle
    degree = {
        tuple(s.ends): sum(
            1 for t in sigs if t != s and comparable(s, t)
        )
        for s in sigs
    }
    assert set(degree.values()) == {2}
    assert len(safe_components(sigs)) == 1


def test_image_size_is_4d_for_distinct_directions(z2, hexmodel):
    for model in (z2, hexmodel):
        d = model.distinct_wall_directions()
        assert len(rho_image(model).signatures()) == 4 * d


def test_random_rational_model_image_size():
    from pocsets.chains import ChainFamily
    from pocsets.euclid import WallFamily

    model = WallModel(
        ChainFamily(("a", "b", "c")),
        (
            WallFamily(vec(1, 0)),
            WallFamily(vec(0, 1)),
            WallFamily(vec(1, 1)),
        ),
    )
    report = rho_image(model)
    assert len(report.signatures()) == 12
    assert len(safe_components(report.signatures())) == 1


def test_single_family_image_flags_non_uniform(z1):
    # non-uniformness is reported in the image's fields, built once per model
    report = rho_image(z1)
    assert rho_image(z1) is report
    assert not report.uniform
    assert report.warning == "all wall normals are parallel"
    sigs = {tuple(s.ends) for s in report.signatures()}
    assert sigs == {(0,), (1,), (-1,)}  # the principal class appears, honestly


def test_antipodal_fibers_map_to_distinct_classes(z2, hexmodel):
    for model in (z2, hexmodel):
        report = rho_image(model)
        for e in report.entries:
            assert len(e.fibers) == 1  # each fiber is a single arc or point
        for c in report.critical_directions:
            assert rho(model, c) != rho(model, negate(c))


def test_safe_components_of_incomparable_pair():
    comps = safe_components([sig(PLUS, FIN), sig(MINUS, FIN)])
    assert len(comps) == 2


def _components_by_fixpoint(signatures):
    """`safe_components` by repeated passes, as a test oracle: a component
    takes every remaining class comparable to one of its members until a
    pass adds none."""
    remaining = list(signatures)
    components = []
    while remaining:
        component = [remaining.pop()]
        grew = True
        while grew:
            grew = False
            for s in remaining[:]:
                if any(comparable(s, t) for t in component):
                    component.append(s)
                    remaining.remove(s)
                    grew = True
        components.append(sorted(component, key=lambda s: s.ends))
    return sorted(components, key=lambda comp: comp[0].ends)


def test_safe_components_match_repeated_passes():
    # random sets of classes, k = 1..4, with repeats and in random order
    from pocsets.chains import all_signatures

    rng = random.Random(75)
    counts = set()
    for k in range(1, 5):
        sigs = all_signatures(k)
        for _ in range(60):
            chosen = [rng.choice(sigs) for _ in range(rng.randint(0, 12))]
            components = safe_components(chosen)
            assert components == _components_by_fixpoint(chosen), chosen
            counts.add(len(components))
    assert {0, 1, 2, 3} <= counts


# ---------------------------------------------------------------------------
# closure formula


def test_closure_z2(z2):
    report = closure_check(z2)
    assert report.ok
    assert report.codim1_closed
    entry = next(
        e for e in report.entries if e.signature == sig(PLUS, PLUS)
    )
    assert set(tuple(s.ends) for s in entry.closure_classes) == {
        (1, 1),
        (1, 0),
        (0, 1),
    }


def test_closure_hex_all_fibers(hexmodel):
    report = closure_check(hexmodel)
    assert report.ok
    assert report.codim1_closed
    assert len(report.entries) == 12


# ---------------------------------------------------------------------------
# lines


def test_restrict_z2_horizontal(z2):
    # the x-axis itself lies on wall y=0, so use the legal parallel at 1/2
    rep = restrict_to_line(z2, Line(vec(1, 0), basepoint=vec(0, Fraction(1, 2))))
    assert rep.nontrivial_families == [0]
    assert rep.trivial_cuts == {1: 1}
    assert len(rep.merged_chains) == 1
    assert rep.plus_end_class == sig(PLUS, FIN)
    assert rep.minus_end_class == sig(MINUS, FIN)
    assert rep.commutes


def test_restrict_z2_diagonal_merges_two_to_one(z2):
    # the main diagonal crosses vertical and horizontal walls at the same
    # parameters: one merged chain, a 2-to-1 collapse
    rep = restrict_to_line(z2, Line(vec(1, 1)))
    assert rep.nontrivial_families == [0, 1]
    assert len(rep.merged_chains) == 1
    assert rep.collapse == {0: 0, 1: 0}
    assert rep.plus_end_class == sig(PLUS, PLUS)
    assert rep.commutes


def test_restrict_hex_horizontal(hexmodel):
    # a horizontal line off the walls is perpendicular to n1; the other two
    # families cross it at interleaved positions and stay separate chains
    rep = restrict_to_line(
        hexmodel, Line(vec(1, 0), basepoint=vec(0, Fraction(1, 2)))
    )
    assert rep.nontrivial_families == [1, 2]
    assert rep.trivial_cuts == {0: 1}
    assert len(rep.merged_chains) == 2
    assert rep.collapse == {1: 0, 2: 1}
    assert rep.plus_end_class == rho(hexmodel, vec(1, 0)) == sig(FIN, MINUS, PLUS)
    assert rep.commutes


def test_restrict_irrational_slope(z2):
    rep = restrict_to_line(z2, Line((ExactNumber.of(1), SQRT3)))
    assert rep.nontrivial_families == [0, 1]
    assert len(rep.merged_chains) == 2
    assert rep.commutes


def _pairwise_merge(model, line):
    # the reference: a family joins the first chain whose first family has
    # the same |step| and crosses the line a whole number of steps away
    progression = {}
    for i, fam in enumerate(model.families):
        speed = dot(fam.normal, line.direction)
        if not speed.is_zero():
            origin = (fam.offset - dot(fam.normal, line.basepoint)) / speed
            progression[i] = (origin, fam.spacing / speed)
    merged, collapse = [], {}
    for i, (origin, step) in progression.items():
        for cid, chain in enumerate(merged):
            o2, s2 = progression[chain[0]]
            ratio = (origin - o2) / abs(step)
            if abs(step) == abs(s2) and ratio.q == 0 and ratio.d == 1:
                chain.append(i)
                break
        else:
            cid = len(merged)
            merged.append([i])
        collapse[i] = cid
    return merged, collapse


def test_restrict_merges_as_the_pairwise_rule():
    # generated models and lines, √3 normals, directions and irrational
    # basepoints included, drawn from small sets so that crossing sets often
    # coincide
    from pocsets.chains import ChainFamily
    from pocsets.euclid import WallFamily

    rng = random.Random(33)
    r3 = SQRT3
    normals = [vec(1, 0), vec(0, 1), vec(1, 1), vec(-1, 1), vec(2, 0), vec(-1, 0)]
    normals += [(ex(1), r3), (r3, ex(1)), (r3 / 2, ex(Fraction(1, 2)))]
    rationals = [0, 1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3)]
    coords = [ex(0), ex(Fraction(1, 3)), r3 / 2, r3 + 1, ex(Fraction(7, 5))]
    directions = [vec(1, 0), vec(0, 1), vec(1, 1), vec(2, -1), (ex(1), r3), (r3, ex(1))]
    lines = merges = 0
    for _ in range(150):
        k = rng.randint(2, 5)
        families = tuple(
            WallFamily(
                rng.choice(normals),
                rng.choice([r for r in rationals if r > 0]),
                rng.choice(rationals),
            )
            for _ in range(k)
        )
        model = WallModel(ChainFamily(tuple(f"c{i}" for i in range(k))), families)
        for _ in range(4):
            line = Line(rng.choice(directions), (rng.choice(coords), rng.choice(coords)))
            try:
                rep = restrict_to_line(model, line)
            except LineInsideWall:
                continue
            merged, collapse = _pairwise_merge(model, line)
            assert rep.merged_chains == merged and rep.collapse == collapse
            lines += 1
            merges += len(collapse) - len(merged)
    assert lines > 400 and merges > 40


def test_restrict_rejects_line_on_wall(z2):
    with pytest.raises(LineInsideWall):
        restrict_to_line(z2, Line(vec(1, 0), basepoint=vec(0, 2)))


def test_line_end_incomparability_fixtures(z2, hexmodel):
    assert line_end_incomparability(z2, Line(vec(3, 2)))
    assert line_end_incomparability(z2, Line(vec(1, 0)))
    rng = random.Random(17)
    for model in (z2, hexmodel):
        for _ in range(100):
            x = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            y = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            if x == 0 and y == 0:
                continue
            assert line_end_incomparability(model, Line(vec(x, y)))


def test_line_ends_compare_on_non_uniform(z1):
    ok = line_end_incomparability(z1, Line(vec(0, 1)))
    assert not ok  # both ends take the principal class


def test_line_end_incomparability_is_the_order_of_its_two_ends():
    # the closed form `not rho(d).is_principal()` against the definition, the
    # closure order of rho(d) and rho(-d), at the twelve 30-degree directions
    from test_shadows import _COS30

    models = [fixture_model(name) for name in ("FIX-Z1", "FIX-Z2", "FIX-HEX")]
    models += [*_random_wall_models(19, 60, range(1, 6)), *_parallel_wall_models(20)]
    directions = [(_COS30[j], _COS30[(j - 3) % 12]) for j in range(12)]
    verdicts = Counter()
    for model in models:
        for d in directions:
            expected = not comparable(rho(model, d), rho(model, negate(d)))
            assert line_end_incomparability(model, Line(d)) == expected, (model, d)
            verdicts[expected] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 50  # the ends do compare


# ---------------------------------------------------------------------------
# coordinate cubulations


def test_zd_image_is_all_nonprincipal():
    for d in (1, 2, 3, 4):
        sigs = zd_image_signatures(d)
        assert len(sigs) == 3**d - 1
        assert all(s.codim() >= 1 for s in sigs)


def test_zd_codim1_in_image_and_comparability_connected():
    for d in (2, 3, 4):
        sigs = zd_image_signatures(d)
        assert all(s in sigs for s in sigs if s.codim() == 1)
        assert len(safe_components(sigs)) == 1


def test_z2_geometric_image_matches_zd_rule(z2):
    geometric = {tuple(s.ends) for s in rho_image(z2).signatures()}
    combinatorial = {tuple(s.ends) for s in zd_image_signatures(2)}
    assert geometric == combinatorial


def test_chamber_cuts(z2, hexmodel):
    assert z2.chamber_cuts(vec(Fraction(1, 2), Fraction(7, 2))) == (1, 4)
    # chamber cut of the origin nudges onto the upper slab of every family
    assert hexmodel.chamber_cuts(vec(0, 0)) == (1, 1, 1)


def test_chamber_cuts_on_a_wall(z2, hexmodel):
    # on wall 1 of the first family and wall 2 of the second
    assert z2.chamber_cuts(vec(1, 2)) == (2, 3)
    assert z2.chamber_cuts(vec(1, Fraction(5, 2))) == (2, 3)
    # (0, 3) lies on wall 3 of the family with normal (0, 1); the others read -3/2
    assert hexmodel.chamber_cuts(vec(0, 3)) == (4, -1, -1)


def test_chamber_cuts_far_away(hexmodel):
    # at (10^30, 0) the two slanted families read -+10^30*sqrt3/2
    far = 10**30
    half = math.isqrt(3 * far**2 // 4)  # floor(10^30*sqrt3/2)
    assert hexmodel.chamber_cuts(vec(far, 0)) == (1, -half, half + 1)
    assert hexmodel.chamber_cuts(vec(-far, 0)) == (1, half + 1, -half)


def test_rho_injective_on_critical_directions(z2, hexmodel):
    for model in (z2, hexmodel):
        report = rho_image(model)
        classes = [tuple(rho(model, c).ends) for c in report.critical_directions]
        assert len(classes) == len(set(classes))


def _model(*normals):
    from pocsets.chains import ChainFamily
    from pocsets.euclid import WallFamily

    names = tuple(chr(ord("a") + i) for i in range(len(normals)))
    return WallModel(
        ChainFamily(names), tuple(WallFamily(vec(x, y)) for x, y in normals)
    )


def test_closure_formula_on_random_rational_models():
    # the closure formula is a theorem for uniform planar systems; exercise
    # it beyond the shipped fixtures
    models = [
        _model((1, 0), (0, 1), (1, 1)),
        _model((1, 0), (0, 1), (1, 1), (1, -1)),
        _model((2, 1), (1, 3)),
        _model((1, 0), (1, 2), (2, 1), (0, 1)),
    ]
    for model in models:
        d = model.distinct_wall_directions()
        report = closure_check(model)
        assert report.ok, report.first_violation
        assert len(rho_image(model).signatures()) == 4 * d
        assert len(safe_components(rho_image(model).signatures())) == 1


def test_image_with_sqrt3_normals():
    model = _model(
        (ExactNumber.of(1), SQRT3),
        (SQRT3, ExactNumber.of(-1)),
        (0, 1),
    )
    report = rho_image(model)
    assert len(report.signatures()) == 12
    assert closure_check(model).ok


def test_uniform_images_never_contain_principal(z2, hexmodel):
    from pocsets.chains import principal

    for model in (
        z2,
        hexmodel,
        _model((1, 0), (0, 1), (1, 1)),
        _model((2, 1), (1, 3)),
    ):
        report = rho_image(model)
        assert report.uniform
        assert not contains_class(report, principal(model.k))


# ---------------------------------------------------------------------------
# directions by normalized representative, against the pairwise searches
# and the comparator sort they replaced


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _angular_cmp(u, v):
    """Counterclockwise order from (1,0) by half circle, then cross product."""
    half = lambda w: 0 if w[1].sign() > 0 or (w[1].is_zero() and w[0].sign() > 0) else 1
    if half(u) != half(v):
        return -1 if half(u) < half(v) else 1
    return -cross(u, v).sign()


def _pairwise_criticals(model):
    """The ±perpendiculars of the normals, one per direction by a pairwise
    same-direction search, sorted by `_angular_cmp`."""
    criticals = []
    for fam in model.families:
        for cand in (perp(fam.normal), perp(negate(fam.normal))):
            c = normalize(cand)
            if not any(cross(c, d).is_zero() and dot(c, d).sign() > 0 for d in criticals):
                criticals.append(c)
    return sorted(criticals, key=cmp_to_key(_angular_cmp))


def _pairwise_direction_count(model):
    dirs = []
    for fam in model.families:
        d = normalize(fam.normal)
        if not any(cross(d, e).is_zero() for e in dirs):
            dirs.append(d)
    return len(dirs)


def _midpoint(arc):
    """A direction inside an open arc: its ends' normalized sum, or a quarter
    turn from its start when it is a half circle."""
    mid = (arc.start[0] + arc.end[0], arc.start[1] + arc.end[1])
    if mid[0].is_zero() and mid[1].is_zero():
        return perp(arc.start)
    return normalize(mid)


def _pairwise_image(model):
    """`rho_image` over `_pairwise_criticals`, fiber by fiber, with each
    arc's class taken at its midpoint rather than from its end classes."""
    criticals = _pairwise_criticals(model)
    fibers = {}
    for i, c in enumerate(criticals):
        fibers.setdefault(rho(model, c), []).append(PointFiber(c))
        arc = ArcFiber(c, criticals[(i + 1) % len(criticals)])
        fibers.setdefault(rho(model, _midpoint(arc)), []).append(arc)
    uniform = _pairwise_direction_count(model) >= 2
    return ImageReport(
        tuple(ImageEntry(s, tuple(fs)) for s, fs in fibers.items()),
        tuple(criticals),
        uniform,
        None if uniform else "all wall normals are parallel",
    )


def _random_wall_models(seed, count, sizes):
    from test_shadows import _wall_model

    rng = random.Random(seed)
    for _ in range(count):
        yield _wall_model(rng, [rng.randrange(12) for _ in range(rng.choice(sizes))])


def test_critical_directions_match_the_pairwise_search():
    # 1-8 families at rational multiples of 30 degrees: parallel, antipodal
    # and repeated normals at different scales all occur
    parallel = 0
    for model in _random_wall_models(11, 300, range(1, 9)):
        assert model.image.critical_directions == tuple(_pairwise_criticals(model))
        directions = _pairwise_direction_count(model)
        assert model.distinct_wall_directions() == directions
        image = model.image
        if directions >= 2:
            assert (image.uniform, image.warning) == (True, None)
        else:
            assert (image.uniform, image.warning) == (False, "all wall normals are parallel")
        parallel += directions < model.k
    assert parallel > 100


def test_a_model_without_families_has_no_directions():
    from pocsets.chains import ChainFamily

    model = WallModel(ChainFamily(()), ())
    assert model.distinct_wall_directions() == 0
    with pytest.raises(MalformedInput, match="a wall model needs at least one family"):
        rho_image(model)


def test_image_and_closure_match_the_pairwise_search():
    for model in _random_wall_models(12, 150, range(1, 6)):
        reference = _pairwise_image(model)
        twin = WallModel(model.chains, model.families)
        twin.__dict__["image"] = reference  # what `cached_property` would keep
        assert rho_image(model).to_json() == reference.to_json()
        assert closure_check(model).to_json() == closure_check(twin).to_json()


# ---------------------------------------------------------------------------
# the image from the cross table's zeros, against the direction-keyed build


def _image_by_directions(model):
    """The image built from a dict keyed by normalized directions, each
    direction's class set by its first family (`setdefault`), the keys
    sorted by `_ccw_key` and the fibers keyed by `Signature`: the build that
    `_build_image`'s parallel test on the cross table replaced."""
    from pocsets.chains import Signature
    from pocsets.euclid import _ccw_key
    from pocsets.exactnum import sqrt3_sign

    ends = {}
    for fam, row in zip(model.families, model.arrangement.cross):
        d, signs = normalize(perp(fam.normal)), tuple(sqrt3_sign(a, b) for a, b in row)
        ends.setdefault(d, signs)
        ends.setdefault(negate(d), tuple(-e for e in signs))
    criticals = sorted(ends, key=_ccw_key)
    uniform = len(criticals) > 2
    classes = [Signature(ends[c]) for c in criticals]
    fibers = {}
    for i, c in enumerate(criticals):
        j = (i + 1) % len(criticals)
        fibers.setdefault(classes[i], []).append(PointFiber(c))
        if uniform:
            arc_class = Signature(tuple(a or b for a, b in zip(classes[i].ends, classes[j].ends)))
        else:
            arc_class = rho(model, perp(c))
        fibers.setdefault(arc_class, []).append(ArcFiber(c, criticals[j]))
    entries = tuple(ImageEntry(s, tuple(fs)) for s, fs in fibers.items())
    warning = None if uniform else "all wall normals are parallel"
    return ImageReport(entries, tuple(criticals), uniform, warning)


def _parallel_wall_models(seed):
    """Generated models with a family parallel to an earlier one in the same
    and in the opposite orientation, and all-parallel models of 1-5 families."""
    from test_shadows import _wall_model

    rng = random.Random(seed)
    for _ in range(60):
        angles = [rng.randrange(12) for _ in range(rng.randint(2, 5))]
        j = rng.randrange(len(angles))
        angles.insert(rng.randint(j + 1, len(angles)), (angles[j] + rng.choice((0, 6))) % 12)
        yield _wall_model(rng, angles)
    for _ in range(30):
        a = rng.randrange(12)
        yield _wall_model(rng, [(a + rng.choice((0, 6))) % 12 for _ in range(rng.randint(1, 5))])


def _orientations(model):
    """For each family parallel to an earlier one: +1 if their normals point
    the same way, -1 if opposite."""
    found = set()
    for j, row in enumerate(model.arrangement.cross):
        for i in range(j):
            if row[i] == (0, 0):
                found.add(dot(model.families[i].normal, model.families[j].normal).sign())
    return found


def test_image_build_matches_the_direction_keyed_build():
    orientations, non_uniform = set(), 0
    models = [*_random_wall_models(13, 120, range(1, 7)), *_parallel_wall_models(14)]
    for model in models:
        reference = _image_by_directions(model)
        assert model.image == reference
        assert model.image.to_json() == reference.to_json()
        orientations |= _orientations(model)
        non_uniform += not model.image.uniform
    assert orientations == {1, -1} and non_uniform >= 30


def test_a_parallel_family_keeps_the_first_familys_classes():
    # a later parallel family's cross-table row, negated off its zeros, is a
    # table no model has: only the first family of each direction may set the
    # classes, as `setdefault` did, so the image is the one of the true table
    for model in _parallel_wall_models(15):
        twin = WallModel(model.chains, model.families)
        cross = model.arrangement.cross
        for j, row in enumerate(cross):
            if (0, 0) in row[:j]:
                cross[j] = [(-a, -b) for a, b in row]
        assert model.image == twin.image == _image_by_directions(model)


def test_a_wall_crossing_lies_on_both_walls():
    # `Arrangement.vertex` against each wall's own equation n . p = level,
    # exactly, for every non-parallel pair of the fixtures and of generated
    # models with parallel, antipodal and rescaled normals
    rng = random.Random(16)
    models = [fixture_model("FIX-Z2"), fixture_model("FIX-HEX")]
    models += [*_random_wall_models(17, 40, range(2, 6)), *_parallel_wall_models(18)]
    crossings = 0
    for model in models:
        arrangement, families = model.arrangement, model.families
        for i in range(model.k):
            for j in range(model.k):
                if not any(arrangement.cross[i][j]):
                    continue
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                point = arrangement.vertex(i, j, a, b)
                assert dot(families[i].normal, point) == families[i].wall_level(a)
                assert dot(families[j].normal, point) == families[j].wall_level(b)
                crossings += 1
    assert crossings > 500


def test_only_chains_reads_the_closure_order_by_class_leq():
    # the package decides the order by sign masks and by principality;
    # `class_leq` and `comparable` are the definition, for the tests
    import ast
    from pathlib import Path

    names = {"class_leq", "comparable"}
    src = Path(__file__).resolve().parents[1] / "src" / "pocsets"
    for path in src.glob("*.py"):
        if path.name == "chains.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not used & names, path.name
