from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from pocsets import chains
from pocsets.chains import (
    FIN,
    MINUS,
    MINUS_END,
    PLUS,
    PLUS_END,
    ChainFamily,
    ChainHalfspace,
    ChainUltrafilter,
    MoveSchedule,
    RollerPoset,
    Signature,
    all_signatures,
    average_sequence,
    cf_class,
    cf_truncate,
    class_codim,
    class_gcd,
    class_leq,
    delta,
    drop_chains,
    flip,
    flow_cuts,
    flow_flip_sequence,
    flow_step,
    format_signature,
    format_ultrafilter,
    geodesic_points,
    limit_of_geodesic,
    median,
    min_set,
    parse_signature,
    parse_ultrafilter,
    principal,
    project_to_class,
    restrict_to_window,
    sig,
    uf,
    window_pair,
    window_pocset,
)
from pocsets.errors import (
    ChainCountMismatch,
    EmptySequence,
    MalformedInput,
    NotGeodesic,
    NotMember,
    NotMinimal,
    NotPrincipal,
)


# ---------------------------------------------------------------------------
# classes and the metric


def test_cf_class():
    assert cf_class(uf(0, 7)) == sig(FIN, FIN)
    assert cf_class(uf(PLUS_END, 0)) == sig(PLUS, FIN)
    assert cf_class(uf(MINUS_END, PLUS_END, PLUS_END)) == sig(MINUS, PLUS, PLUS)


def test_delta():
    assert delta(uf(0, 0), uf(0, 0)) == 0
    assert delta(uf(0, 5), uf(3, 1)) == 7
    assert delta(uf(PLUS_END, 0), uf(0, 0)) == math.inf
    assert delta(uf(PLUS_END, 2), uf(PLUS_END, 5)) == 3
    with pytest.raises(ChainCountMismatch):
        delta(uf(0), uf(0, 0))


def test_cuts_past_float_range_are_compared_exactly():
    # an int cut compares with the ends exactly, however large: it is never
    # converted to a float, so 10^400 is a cut and not an overflow
    big = 10**400
    assert uf(big, 0).is_principal()
    assert delta(uf(big, 0), uf(0, 0)) == big
    assert delta(uf(PLUS_END, big), uf(0, 0)) == math.inf
    cuts = uf(2.0, -1, 0).int_cuts()
    assert cuts == (2, -1, 0) and all(type(c) is int for c in cuts)
    assert uf(big, -big).int_cuts() == (big, -big)
    with pytest.raises(NotPrincipal) as exc:
        uf(PLUS_END, big, MINUS_END).int_cuts()
    assert exc.value.witness == ["+inf", big, "-inf"]


def test_a_cut_that_is_not_an_integer_is_refused():
    # truncated, (5.5, 5, 5) answered as (5, 5, 5) and (-5.5, 5, 5) as
    # (-5, 5, 5); now the ultrafilter refuses it when it is built, before
    # any read, with the states as document values as witness
    from pocsets.formats import fixture_model
    from pocsets.shadows import dist_to_pi0

    hexmodel, fam = fixture_model("FIX-HEX"), ChainFamily(("a", "b"))
    for cuts in ((5.5, 5, 5), (-5.5, 5, 5)):
        with pytest.raises(MalformedInput, match="a cut must be an integer") as exc:
            dist_to_pi0(hexmodel, uf(*cuts), 12)
        assert exc.value.witness == list(cuts)
    refused = {
        "int_cuts": lambda: uf(0, -0.5).int_cuts(),
        "delta": lambda: delta(uf(2.5, 0), uf(2, 0)),
        "delta, second": lambda: delta(uf(2, 0), uf(2, 0.5)),
        "format_ultrafilter": lambda: format_ultrafilter(fam, uf(PLUS_END, 2.5)),
        "min_set": lambda: min_set(uf(2.5, 0)),
        "flip": lambda: flip(uf(2.5, 0), ChainHalfspace(1, 0, True)),
    }
    for call in refused.values():
        with pytest.raises(MalformedInput, match="a cut must be an integer"):
            call()
    with pytest.raises(MalformedInput) as exc:
        format_ultrafilter(fam, uf(PLUS_END, 2.5))
    assert exc.value.witness == ["+inf", 2.5]
    # integer cuts answer as before, and an integral float reads as its int
    assert dist_to_pi0(hexmodel, uf(5, 5, 5), 12) == dist_to_pi0(hexmodel, uf(5.0, 5, 5), 12) == 12
    assert dist_to_pi0(hexmodel, uf(-5, 5, 5), 12) == 2
    assert delta(uf(2, 0), uf(5.0, 1)) == 4 and type(delta(uf(2, 0), uf(5.0, 1))) is int
    assert format_ultrafilter(fam, uf(5.0, -1)) == "a:cut(5) b:cut(-1)"
    assert min_set(uf(1.0)) == min_set(uf(1))
    # the acceptance gate's float("inf") and float("-inf") still read as ends
    ends = uf(float("inf"), float("-inf"))
    assert cf_class(ends) == sig(PLUS, MINUS) and not ends.is_principal()
    assert format_ultrafilter(fam, ends) == "a:+inf b:-inf"
    assert delta(ends, uf(0, float("-inf"))) == math.inf
    with pytest.raises(NotPrincipal) as exc:
        uf(float("inf"), 0).int_cuts()
    assert exc.value.witness == ["+inf", 0]


@pytest.mark.parametrize(
    "cut, shown",
    [(float("nan"), "nan"), (None, "None"), ("a", "'a'"), ("+inf", "'+inf'"), ("-inf", "'-inf'")],
    ids=["nan", "None", "str", "str +inf", "str -inf"],
)
def test_a_cut_that_is_not_a_number_is_refused(cut, shown):
    # refused as 2.5 is, when the ultrafilter is built, not with Python's
    # own ValueError or TypeError, and with a witness that JSON without NaN
    # accepts; a cut that is no number is shown by its repr, so a string
    # that names an end is not read as one
    from pocsets.formats import fixture_model
    from pocsets.shadows import dist_to_pi0

    hexmodel, fam = fixture_model("FIX-HEX"), ChainFamily(("a", "b"))
    refused = {
        "int_cuts": (lambda: uf(cut, 0).int_cuts(), [shown, 0]),
        "delta": (lambda: delta(uf(cut, 0), uf(0, 0)), [shown, 0]),
        "delta, second": (lambda: delta(uf(0, 0), uf(0, cut)), [0, shown]),
        "format_ultrafilter": (lambda: format_ultrafilter(fam, uf(cut, 0)), [shown, 0]),
        "min_set": (lambda: min_set(uf(cut, 0)), [shown, 0]),
        "flip": (lambda: flip(uf(cut, 0), ChainHalfspace(1, 0, True)), [shown, 0]),
        "dist_to_pi0": (lambda: dist_to_pi0(hexmodel, uf(cut, 5, 5), 12), [shown, 5, 5]),
    }
    for name, (call, witness) in refused.items():
        with pytest.raises(MalformedInput, match="a cut must be an integer") as exc:
            call()
        assert exc.value.code == "malformed-input" and exc.value.witness == witness, name
        json.dumps(exc.value.diagnostic(), allow_nan=False)
    # an integral float still reads as its int, and an infinity as an end
    assert uf(5.0, 0).int_cuts() == (5, 0)
    assert format_ultrafilter(fam, uf(5.0, float("-inf"))) == "a:cut(5) b:-inf"
    assert cf_class(uf(float("inf"), 0)) == sig(PLUS, FIN)
    # refused when built, before `int_cuts` could find the end first
    with pytest.raises(MalformedInput, match="a cut must be an integer") as exc:
        uf(float("inf"), cut)
    assert exc.value.witness == ["+inf", shown] and shown not in ("+inf", "-inf")


@pytest.mark.parametrize(
    "cuts, witness",
    [
        ((2.5, 0), [2.5, 0]),
        ((0, -0.5), [0, -0.5]),
        ((float("nan"), 0), ["nan", 0]),
        ((None, 0), ["None", 0]),
        (("+inf", 0), ["'+inf'", 0]),
        ((float("inf"), 2.5), ["+inf", 2.5]),
    ],
    ids=["2.5", "-0.5", "nan", "None", "str +inf", "inf and 2.5"],
)
def test_an_ultrafilter_refuses_a_cut_that_is_not_an_integer_when_it_is_built(cuts, witness):
    for build in (lambda: uf(*cuts), lambda: ChainUltrafilter(list(cuts))):
        with pytest.raises(MalformedInput, match="a cut must be an integer") as exc:
            build()
        assert (exc.value.code, exc.value.witness) == ("malformed-input", witness)


def test_an_ultrafilter_keeps_ints_and_ends_and_reads_an_integral_number_as_its_int():
    big = 10**400
    assert uf(5.0, -1).cuts == (5, -1) and uf(True, Fraction(-6, 2), big).cuts == (1, -3, big)
    assert all(type(c) is int for c in uf(5.0, True, Fraction(-6, 2), big).cuts)
    assert ChainUltrafilter([1, 2]) == uf(1, 2) and hash(ChainUltrafilter([1, 2])) == hash(uf(1, 2))
    assert ChainUltrafilter(c for c in (1, 2)).cuts == (1, 2) and uf().cuts == ()
    ends = uf(float("inf"), float("-inf"), 2.0)
    assert ends == uf(PLUS_END, MINUS_END, 2) and [type(c) for c in ends.cuts] == [float, float, int]


def test_no_operation_hands_out_a_cut_that_is_not_an_int():
    # every operation builds its answer through the constructor: from
    # integral floats, bools and ends, only ints and ends come out, and the
    # half steps that used to come out are refused
    state = lambda c: type(c) is int or c in (PLUS_END, MINUS_END)
    rng = random.Random(43)
    pool = [PLUS_END, MINUS_END, float("-inf"), -2.0, 1.0, True, False, *range(-3, 4)]
    for _ in range(300):
        a, b, c = (uf(*rng.choices(pool, k=3)) for _ in range(3))
        s = sig(*rng.choices((MINUS, FIN, PLUS), k=3))
        h = ChainHalfspace(rng.randrange(3), rng.randint(-4, 4), rng.random() < 0.5)
        out = [median(a, b, c), project_to_class(s, a), drop_chains(a, [2, 0])]
        out += [cf_truncate(a, h)] if a.contains(h) else []
        assert all(state(c) for u in out for c in u.cuts), (a, b, c, s, h)
    schedule = MoveSchedule(((0, 1.0), (1, True)), ((1, 1), (0, 1.0)))
    points = geodesic_points(uf(2.0, -1.0), schedule, 8)
    assert points[-1] == uf(6, 3) and all(state(c) for u in points for c in u.cuts)
    assert limit_of_geodesic(uf(2.0, -1.0), MoveSchedule(((0, 1.0),), ())).cuts == (3, -1)
    for call in (
        lambda: median(uf(2.5, 0), uf(3, 0), uf(0, 0)),
        lambda: cf_truncate(uf(5, 0), ChainHalfspace(0, 2.5)),
        lambda: geodesic_points(uf(0, 0), MoveSchedule(((0, 0.5),)), 1),
    ):
        with pytest.raises(MalformedInput):
            call()


def test_a_signature_entry_that_is_not_an_end_is_refused():
    with pytest.raises(MalformedInput, match="signature entries must be -1, 0 or 1") as exc:
        Signature((2, 0))
    assert exc.value.code == "malformed-input" and exc.value.witness == (2, 0)


@pytest.mark.parametrize(
    "chain, index",
    [(-1, -1), (-1, 0), (0, 2.5), (0, 2.0), (0, None), (1.0, 0), (True, 0), ("0", 0)],
    ids=["-1, -1", "-1, 0", "2.5", "2.0", "None", "float chain", "bool chain", "str chain"],
)
def test_a_halfspace_needs_an_int_chain_and_index(chain, index):
    # refused when built, so `contains`, `cf_truncate` and `flip` never
    # read chain -1 as the last chain or a half index as a wall
    for build in (lambda: ChainHalfspace(chain, index), lambda: ChainHalfspace(chain, index, True)):
        with pytest.raises(MalformedInput, match="a halfspace needs an int chain") as exc:
            build()
        assert (exc.value.code, exc.value.witness) == ("malformed-input", (chain, index))
        json.dumps(exc.value.diagnostic(), allow_nan=False)
    assert ChainHalfspace(0, -3) == ChainHalfspace(0, -3, False) and ChainHalfspace(2, 10**400).chain == 2


def test_a_halfspace_of_a_chain_the_ultrafilter_lacks_is_refused():
    calls = {
        "contains": lambda h: uf(0, 0).contains(h),
        "cf_truncate": lambda h: cf_truncate(uf(0, 0), h),
        "flip": lambda h: flip(uf(0, 0), h),
    }
    for name, call in calls.items():
        for h in (ChainHalfspace(2, -1), ChainHalfspace(5, -1, True)):
            with pytest.raises(MalformedInput, match=f"a halfspace of chain {h.chain} on 2 chains") as exc:
                call(h)
            assert exc.value.witness == (h.chain, h.index), name
    # the last chain is still read
    assert cf_truncate(uf(0, 0), ChainHalfspace(1, -1)) == uf(0, -1)
    assert flip(uf(0, 0), ChainHalfspace(1, 0, True)) == uf(0, 1)


def test_dropping_a_chain_that_is_not_there_is_refused():
    for obj in (uf(1, 2), sig(PLUS, MINUS)):
        for keep, bad in (([-1], -1), ([0, 2], 2), ([1.0], 1.0), ([True], True)):
            with pytest.raises(MalformedInput, match="is not one of 2 chains") as exc:
                drop_chains(obj, keep)
            assert (exc.value.code, exc.value.witness) == ("malformed-input", bad)
        assert drop_chains(obj, []) == type(obj)(())
    assert drop_chains(uf(1, 2), [1, 1, 0]) == uf(2, 2, 1)
    assert drop_chains(sig(PLUS, MINUS), [1]) == sig(MINUS)


def test_an_end_is_stored_as_the_end_itself():
    # every value equal to an infinity is kept as PLUS_END or MINUS_END, so
    # an end reads "+inf" or "-inf" in every witness, whatever its type
    from decimal import Decimal

    for plus, minus in ((Decimal("Infinity"), Decimal("-Infinity")), (float("inf"), -float("inf"))):
        u = uf(plus, minus, 3)
        assert u.cuts[0] is PLUS_END and u.cuts[1] is MINUS_END and u.cuts[2] == 3
        assert u == uf(PLUS_END, MINUS_END, 3) and hash(u) == hash(uf(PLUS_END, MINUS_END, 3))
        with pytest.raises(NotPrincipal) as exc:
            u.int_cuts()
        assert exc.value.witness == ["+inf", "-inf", 3]
        with pytest.raises(MalformedInput, match="a cut must be an integer") as exc:
            uf(plus, 2.5)
        assert exc.value.witness == ["+inf", 2.5]


def test_a_negative_window_is_refused():
    for call in (lambda w: restrict_to_window(uf(0, 0), w), lambda w: window_pocset(2, w)):
        for w in (-1, -7):
            with pytest.raises(MalformedInput, match="window bound must be >= 0") as exc:
                call(w)
            assert (exc.value.code, exc.value.witness) == ("malformed-input", w)
    assert restrict_to_window(uf(0, PLUS_END), 0) == (1, 0) and window_pocset(2, 0).n_pairs == 2


@pytest.mark.parametrize(
    "call, counts",
    [
        (lambda: delta(uf(0), uf(0, 0)), [1, 2]),
        (lambda: median(uf(0, 0), uf(0, 0), uf(0)), [2, 2, 1]),
        (lambda: class_leq(sig(FIN), sig(FIN, PLUS)), [1, 2]),
        (lambda: class_gcd(sig(FIN, PLUS), sig(FIN)), [2, 1]),
        (lambda: project_to_class(sig(FIN, PLUS), uf(0)), [2, 1]),
        (lambda: flow_step(sig(PLUS), uf(0, 0)), [1, 2]),
    ],
    ids=["delta", "median", "class_leq", "class_gcd", "project_to_class", "flow_step"],
)
def test_a_chain_count_mismatch_is_refused(call, counts):
    with pytest.raises(ChainCountMismatch, match=re.escape(f"chain counts {counts} differ")) as exc:
        call()
    assert exc.value.code == "chain-count-mismatch" and exc.value.witness == counts


def test_averaging_an_empty_sequence_is_refused():
    with pytest.raises(EmptySequence, match="non-empty prefix") as exc:
        average_sequence([], uf(0))
    assert exc.value.code == "empty-sequence" and exc.value.witness == []


def test_a_schedule_without_a_cycle_ends_after_its_prefix():
    schedule = MoveSchedule(((0, 1),))
    assert schedule.move(0) == (0, 1)
    with pytest.raises(IndexError, match="schedule exhausted"):
        schedule.move(1)


def test_a_schedule_that_is_no_ray_of_single_moves_is_refused():
    # a step of 2 gave points 2 apart, a move on a chain the start lacks
    # raised IndexError (or, at -1, moved the last chain), and a count past
    # a schedule without a cycle raised IndexError; each is refused now,
    # by `geodesic_points` and by `limit_of_geodesic`, where it applies
    start = uf(0, 0)
    moves = [
        (((0, 2),), ((1, 1),), (0, 2)),
        (((0, 1),), ((1, 1), (0, 0.5)), (0, 0.5)),
        ((), ((1, 0),), (1, 0)),
        (((2, 1),), (), (2, 1)),
        (((0, 1), (-1, 1)), (), (-1, 1)),
        (((0.0, 1),), (), (0.0, 1)),
    ]
    for prefix, cycle, move in moves:
        n = (prefix + cycle).index(move)
        for call in (geodesic_points, lambda u, s, count: limit_of_geodesic(u, s)):
            with pytest.raises(MalformedInput) as exc:
                call(start, MoveSchedule(prefix, cycle), 1)
            message = f"move {n}, {move}, is not +1 or -1 on one of 2 chains"
            assert (str(exc.value), exc.value.witness) == (message, move)
            assert exc.value.code == "malformed-input"
    with pytest.raises(MalformedInput) as exc:
        geodesic_points(start, MoveSchedule(((0, 1),)), 2)
    message = "2 moves asked of a schedule of 1 without a cycle"
    assert (str(exc.value), exc.value.witness) == (message, 2)
    # a schedule of single moves answers as before, to the end of its prefix
    assert geodesic_points(start, MoveSchedule(((0, 1), (1, -1))), 2)[-1] == uf(1, -1)
    assert geodesic_points(start, MoveSchedule(((0, 1),), ((1, 1),)), 3)[-1] == uf(1, 2)


@pytest.mark.parametrize("index", [-4, 4])
def test_a_window_pair_outside_its_window_is_refused(index):
    assert window_pair(2, 3, 1, 3) == 13
    with pytest.raises(MalformedInput, match=f"index {index} outside window 3") as exc:
        window_pair(2, 3, 1, index)
    assert exc.value.code == "malformed-input" and exc.value.witness == index


def test_drop_chains_restricts_ultrafilters_and_refuses_anything_else():
    assert drop_chains(uf(1, PLUS_END, 3), [0, 2]) == uf(1, 3)
    assert drop_chains(uf(1, PLUS_END, 3), [1]) == uf(PLUS_END)
    with pytest.raises(MalformedInput, match="cannot restrict str") as exc:
        drop_chains("(+,0)", [0])
    assert exc.value.code == "malformed-input" and exc.value.witness == "(+,0)"


@pytest.mark.parametrize(
    "text, message, witness",
    [
        ("c:cut(0) b:cut(1)", "bad ultrafilter token 'c:cut(0)'", "c:cut(0)"),
        ("a b:cut(1)", "bad ultrafilter token 'a'", "a"),
        ("a:cut(x) b:cut(1)", "bad cut state 'cut(x)'", "a:cut(x)"),
        ("a:+1 b:cut(1)", "bad cut state '+1'", "a:+1"),
        ("a:cut(0)", "missing chains ['b']", ["b"]),
    ],
    ids=["unknown chain", "no state", "bad cut", "bad state", "missing chain"],
)
def test_a_malformed_ultrafilter_literal_is_refused(text, message, witness):
    with pytest.raises(MalformedInput, match=re.escape(message)) as exc:
        parse_ultrafilter(ChainFamily(("a", "b")), text)
    assert exc.value.code == "malformed-input" and exc.value.witness == witness


def test_an_ultrafilter_literal_reads_a_minus_end():
    fam = ChainFamily(("a", "b"))
    u = parse_ultrafilter(fam, "a:-inf b:cut(2)")
    assert u == uf(MINUS_END, 2) and format_ultrafilter(fam, u) == "a:-inf b:cut(2)"


def test_delta_metric_on_class():
    rng = random.Random(8)
    for _ in range(100):
        a, b, c = (uf(*[rng.randint(-5, 5) for _ in range(3)]) for _ in range(3))
        assert delta(a, b) == delta(b, a)
        assert delta(a, c) <= delta(a, b) + delta(b, c)
        assert (delta(a, b) == 0) == (a == b)


def test_membership_semantics():
    u = uf(2)
    assert u.contains(ChainHalfspace(0, 1))
    assert not u.contains(ChainHalfspace(0, 2))
    assert u.contains(ChainHalfspace(0, 2, starred=True))
    plus = uf(PLUS_END)
    assert plus.contains(ChainHalfspace(0, 10**6))
    minus = uf(MINUS_END)
    assert minus.contains(ChainHalfspace(0, -(10**6), starred=True))


def test_min_set_and_flip():
    u = uf(3, -1)
    mins = min_set(u)
    assert mins == [
        ChainHalfspace(0, 2),
        ChainHalfspace(0, 3, True),
        ChainHalfspace(1, -2),
        ChainHalfspace(1, -1, True),
    ]
    assert flip(u, ChainHalfspace(0, 2)).cuts == (2, -1)
    assert flip(u, ChainHalfspace(0, 3, True)).cuts == (4, -1)
    with pytest.raises(NotMinimal):
        flip(u, ChainHalfspace(0, 0))


# ---------------------------------------------------------------------------
# truncation


def test_truncate_brings_end_to_cut():
    u = uf(PLUS_END, 0)
    v = cf_truncate(u, ChainHalfspace(0, 5))
    assert v.cuts == (5, 0)
    assert cf_class(u) != cf_class(v)
    assert cf_class(v) == principal(2)


def test_truncate_within_class():
    u = uf(9, 0)
    v = cf_truncate(u, ChainHalfspace(0, 5))
    assert v.cuts == (5, 0)
    assert cf_class(v) == cf_class(u)
    assert delta(u, v) == 4


def test_truncate_starred():
    u = uf(MINUS_END)
    v = cf_truncate(u, ChainHalfspace(0, -3, starred=True))
    assert v.cuts == (-2,)
    assert cf_class(v) == principal(1)


def test_truncate_requires_membership():
    with pytest.raises(NotMember):
        cf_truncate(uf(0), ChainHalfspace(0, 4))


def test_truncate_transitivity():
    # truncating at deeper b then shallower a equals truncating at a alone
    u = uf(PLUS_END)
    b = ChainHalfspace(0, 7)
    a = ChainHalfspace(0, 3)
    assert cf_truncate(cf_truncate(u, b), a) == cf_truncate(u, a)


def test_truncate_result_is_ultrafilter_small_schedules():
    # exhaustive over small cut states and truncation targets
    for c in (-2, 0, 3, PLUS_END, MINUS_END):
        u = uf(c, 1)
        for n in range(-4, 5):
            for starred in (False, True):
                b = ChainHalfspace(0, n, starred)
                if not u.contains(b):
                    continue
                v = cf_truncate(u, b)
                w = 6
                p = window_pocset(2, w)
                assert p.is_ultrafilter(
                    _window_members(v, w)
                ).ok
                changed = cf_class(v) != cf_class(u)
                on_infinite_chain = (not starred and u.cuts[0] == PLUS_END) or (
                    starred and u.cuts[0] == MINUS_END
                )
                assert changed == on_infinite_chain


def _window_members(u: ChainUltrafilter, w: int):
    signs = restrict_to_window(u, w)
    return [2 * k + s for k, s in enumerate(signs)] + [2 * len(signs) + 1]


# ---------------------------------------------------------------------------
# boundary order


def test_class_leq_examples():
    assert class_leq(sig(FIN, FIN), sig(PLUS, FIN))
    assert class_leq(sig(PLUS, FIN), sig(PLUS, PLUS))
    assert not class_leq(sig(PLUS, FIN), sig(MINUS, FIN))
    assert not class_leq(sig(MINUS, FIN), sig(PLUS, FIN))
    with pytest.raises(ChainCountMismatch):
        class_leq(sig(FIN), sig(FIN, FIN))


def test_class_leq_is_the_componentwise_rule():
    # every pair of classes for k <= 4 against the definition: wherever s1
    # has an end, s2 has the same end; a chain count mismatch is refused with
    # both counts
    for k in range(5):
        sigs = all_signatures(k)
        for a in sigs:
            for b in sigs:
                expect = all(x == FIN or x == y for x, y in zip(a.ends, b.ends))
                assert class_leq(a, b) == expect, (a, b)
    for a, b in ((sig(FIN), sig(FIN, FIN)), (sig(PLUS, MINUS, FIN), sig(PLUS)), (sig(), sig(MINUS))):
        with pytest.raises(ChainCountMismatch) as exc:
            class_leq(a, b)
        counts = [a.k, b.k]
        assert (str(exc.value), exc.value.witness) == (f"chain counts {counts} differ", counts)


def test_partial_order_with_unique_minimum():
    for k in (1, 2, 3):
        sigs = all_signatures(k)
        assert len(sigs) == 3**k
        pi = principal(k)
        for a in sigs:
            assert class_leq(pi, a)
            assert class_leq(a, a)
            for b in sigs:
                if class_leq(a, b) and class_leq(b, a):
                    assert a == b
                for c in sigs:
                    if class_leq(a, b) and class_leq(b, c):
                        assert class_leq(a, c)


def test_codim_counts():
    from math import comb

    for k in (1, 2, 3, 4):
        sigs = all_signatures(k)
        for c in range(k + 1):
            assert sum(1 for s in sigs if s.codim() == c) == comb(k, c) * 2**c


def class_lt(s1: Signature, s2: Signature) -> bool:
    """The strict closure order, as a test oracle."""
    return s1 != s2 and class_leq(s1, s2)


def test_class_codim_witness():
    assert class_codim(principal(3)) == (0, None)
    codim, witness = class_codim(sig(PLUS, MINUS))
    assert codim == 2
    assert witness == sig(FIN, MINUS)
    assert class_lt(witness, sig(PLUS, MINUS))
    assert class_codim(sig(PLUS, PLUS, PLUS))[0] == 3


def test_gcd_examples():
    assert class_gcd(sig(PLUS, PLUS), sig(PLUS, MINUS)) == sig(PLUS, FIN)
    s = sig(MINUS, PLUS, FIN)
    assert class_gcd(s, s) == s
    assert class_gcd(s, principal(3)) == principal(3)


def gcd_via_median(a: Signature, b: Signature) -> Signature:
    """The gcd oracle: the class of med(pi, rep(a), rep(b)) on representative
    ultrafilters, the dual route to `class_gcd`."""
    rep = lambda s: ChainUltrafilter(
        tuple(PLUS_END if e == PLUS else MINUS_END if e == MINUS else 0 for e in s.ends)
    )
    return cf_class(median(ChainUltrafilter((0,) * a.k), rep(a), rep(b)))


def test_gcd_laws_exhaustive():
    for k in (1, 2, 3, 4):
        sigs = all_signatures(k)
        for a in sigs:
            for b in sigs:
                g = class_gcd(a, b)
                assert g == gcd_via_median(a, b)
                assert class_leq(g, a) and class_leq(g, b)
        if k <= 3:
            for a in sigs:
                for b in sigs:
                    g = class_gcd(a, b)
                    for c in sigs:
                        if class_leq(c, a) and class_leq(c, b):
                            assert class_leq(c, g)


def test_roller_poset_reports():
    poset = RollerPoset.build(2)
    blob = poset.to_json()
    assert len(blob["classes"]) == 9
    assert all(len(pair) == 2 for pair in blob["covers"])
    # covers of the minimum are exactly the codim-1 classes
    pi = format_signature(principal(2))
    atoms = {b for a, b in blob["covers"] if a == pi}
    assert atoms == {"(+,0)", "(-,0)", "(0,+)", "(0,-)"}


def _covers_by_pairs(poset):
    """`RollerPoset.covers` by its definition over all pairs, as a test
    oracle: a < b with b one codimension above a."""
    return [
        (a, b)
        for a in poset.signatures
        for b in poset.signatures
        if class_lt(a, b) and b.codim() == a.codim() + 1
    ]


def test_roller_covers_match_the_pairwise_definition():
    # the same pairs in the same order, k = 0..5 (243 classes, 59,049 pairs)
    for k in range(6):
        poset = RollerPoset.build(k)
        covers = poset.covers()
        assert covers == _covers_by_pairs(poset), k
        assert len(covers) == 2 * k * 3 ** (k - 1) if k else not covers


def test_class_listings_are_capped():
    # 3^10 classes are listed, each an equal and equally hashed `Signature`
    # though none is checked again; 3^11 are refused before the first
    from pocsets.errors import MalformedInput

    assert chains.MAX_CLASSES == 3**10
    assert len(all_signatures(10)) == chains.MAX_CLASSES
    for k in range(4):
        listed = all_signatures(k)
        built = [Signature(ends) for ends in product((MINUS, FIN, PLUS), repeat=k)]
        assert listed == built and list(map(hash, listed)) == list(map(hash, built))
        assert all(type(s) is Signature for s in listed)
    for call in (all_signatures, RollerPoset.build):
        for k in (11, 14, 200):
            with pytest.raises(MalformedInput) as refusal:
                call(k)
            assert str(refusal.value) == f"{k} chains have 3^{k} classes, more than 59049"
            assert refusal.value.witness == k


# ---------------------------------------------------------------------------
# projection and canonical flow


def test_project_examples():
    s = sig(PLUS, FIN)
    assert project_to_class(s, uf(3, -2)).cuts == (PLUS_END, -2)
    u = uf(1, 5)
    assert project_to_class(s, project_to_class(s, u)) == project_to_class(s, u)
    assert project_to_class(principal(2), u) == u


def test_project_fixes_closure():
    s = sig(PLUS, FIN, MINUS)
    for c in (-2, 0, 4):
        member = uf(PLUS_END, c, MINUS_END)
        assert project_to_class(s, member) == member


def test_flow_examples():
    assert flow_step(sig(PLUS, FIN), uf(0, 0)).cuts == (1, 0)
    assert flow_step(principal(2), uf(4, -4)).cuts == (4, -4)
    u = uf(0, 0)
    for n in (1, 2, 5):
        v = u
        for _ in range(n):
            v = flow_step(sig(PLUS, MINUS), v)
        assert v.cuts == (n, -n)


def test_flow_converges_pointwise_to_projection():
    rng = random.Random(314)
    for _ in range(200):
        k = rng.randint(1, 4)
        s = Signature(tuple(rng.choice((FIN, PLUS, MINUS)) for _ in range(k)))
        u = uf(*[rng.randint(-5, 5) for _ in range(k)])
        w = 8
        v = u
        # after enough steps every wall in the window is oriented like the
        # projection
        for _ in range(w + 6):
            v = flow_step(s, v)
        target = project_to_class(s, u)
        assert restrict_to_window(v, w) == restrict_to_window(target, w)


def test_flow_flip_sequence_is_geodesic_and_fellow_travels():
    s = sig(PLUS, PLUS, FIN)
    pts = flow_flip_sequence(s, uf(0, 0, 0), 12)
    assert len(pts) == 13
    # the principal class has no move: its flow is its start
    assert list(flow_cuts(sig(FIN, FIN, FIN), (1, 2, 3), 12)) == [(1, 2, 3)]
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert delta(a, b) == abs(i - j)
        # L-infinity fellow travel with the straight diagonal ray at
        # parameter m = max coordinate progress
        m = max(abs(int(c)) for c in a.cuts) if i else 0
        ray_point = tuple(
            m if e == PLUS else -m if e == MINUS else 0 for e in s.ends
        )
        assert max(abs(int(c) - r) for c, r in zip(a.cuts, ray_point)) <= 1


# ---------------------------------------------------------------------------
# averaging and geodesic limits


def test_average_constant_sequence():
    s = uf(1, 2)
    assert average_sequence([s, s, s], s) == [s, s, s]


def test_average_oscillating_second_coordinate():
    sigma = uf(PLUS_END, 0)
    seq = [uf(n, (-1) ** n) for n in range(1, 8)]
    averaged = average_sequence(seq, sigma)
    s = cf_class(sigma)
    dists = [delta(project_to_class(s, v), sigma) for v in averaged]
    assert all(a >= b for a, b in zip(dists, dists[1:]))
    assert dists[-1] == 0


def test_geodesic_ray_is_its_own_average():
    start = uf(0, 0)
    schedule = MoveSchedule(prefix=(), cycle=((0, 1), (1, 1)))
    pts = geodesic_points(start, schedule, 9)
    sigma = limit_of_geodesic(start, schedule)
    assert average_sequence(pts, sigma) == pts


def test_averaged_sequence_is_subsequence_of_geodesic():
    # concatenating geodesic segments between consecutive averaged terms is
    # geodesic: deltas add up
    rng = random.Random(27)
    for _ in range(50):
        k = rng.randint(1, 3)
        sigma_cuts = tuple(
            rng.choice((PLUS_END, MINUS_END, rng.randint(-3, 3)))
            for _ in range(k)
        )
        sigma = ChainUltrafilter(sigma_cuts)
        seq = []
        for n in range(1, 8):
            cuts = []
            for c in sigma_cuts:
                if c == PLUS_END:
                    cuts.append(n + rng.randint(-1, 1))
                elif c == MINUS_END:
                    cuts.append(-n + rng.randint(-1, 1))
                else:
                    cuts.append(int(c) + (rng.randint(-1, 1) if n < 4 else 0))
            seq.append(uf(*cuts))
        averaged = average_sequence(seq, sigma)
        total = sum(delta(a, b) for a, b in zip(averaged, averaged[1:]))
        assert delta(averaged[0], averaged[-1]) == total


def test_limit_of_geodesic_examples():
    start = uf(0, 0)
    up_forever = MoveSchedule(prefix=(), cycle=((0, 1),))
    assert limit_of_geodesic(start, up_forever) == uf(PLUS_END, 0)

    alternating = MoveSchedule(prefix=(), cycle=((0, 1), (1, 1)))
    assert limit_of_geodesic(start, alternating) == uf(PLUS_END, PLUS_END)

    up_then_down = MoveSchedule(prefix=((0, 1), (0, -1)), cycle=())
    with pytest.raises(NotGeodesic) as exc:
        limit_of_geodesic(start, up_then_down)
    wall, first, second = exc.value.witness
    assert wall == (0, 0) and (first, second) == (0, 1)


def test_limit_prefix_only():
    start = uf(0, 0)
    schedule = MoveSchedule(prefix=((0, 1), (0, 1), (1, -1)), cycle=())
    assert limit_of_geodesic(start, schedule) == uf(2, -1)


def test_geodesic_points_check_consecutive_deltas():
    start = uf(0, 0)
    schedule = MoveSchedule(prefix=(), cycle=((0, 1), (1, -1)))
    pts = geodesic_points(start, schedule, 8)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert delta(a, b) == abs(i - j)


def test_joint_convergence_bounded_delta_same_class():
    # two schedule-generated sequences with uniformly bounded delta have
    # almost-equal limits
    start_a, start_b = uf(0, 0), uf(2, 1)
    schedule = MoveSchedule(prefix=(), cycle=((0, 1),))
    lim_a = limit_of_geodesic(start_a, schedule)
    lim_b = limit_of_geodesic(start_b, schedule)
    seq_a = geodesic_points(start_a, schedule, 10)
    seq_b = geodesic_points(start_b, schedule, 10)
    bound = max(delta(x, y) for x, y in zip(seq_a, seq_b))
    assert bound <= 3
    assert cf_class(lim_a) == cf_class(lim_b)
    assert delta(lim_a, lim_b) < math.inf


# ---------------------------------------------------------------------------
# finite-window backend consistency


def test_window_restriction_is_ultrafilter():
    w = 4
    p = window_pocset(2, w)
    for cuts in product((-3, 0, 2, PLUS_END, MINUS_END), repeat=2):
        u = ChainUltrafilter(cuts)
        assert p.is_ultrafilter(_window_members(u, w)).ok


def test_window_commutes_with_median_and_flip():
    w = 5
    p = window_pocset(2, w)
    rng = random.Random(6)
    for _ in range(50):
        a, b, c = (uf(*[rng.randint(-3, 3) for _ in range(2)]) for _ in range(3))
        m = median(a, b, c)
        fa, fb, fc = (
            p.ultrafilter_from_signs(restrict_to_window(x, w)) for x in (a, b, c)
        )
        assert p.median(fa, fb, fc).signs == restrict_to_window(m, w)
        # interior flips commute with restriction
        h = chains.ChainHalfspace(0, int(a.cuts[0]) - 1)
        flipped = flip(a, h)
        finite_handle = 2 * window_pair(2, w, 0, h.index)
        assert p.flip(fa, finite_handle).signs == restrict_to_window(flipped, w)


def test_window_delta_agrees_for_interior_cuts():
    w = 6
    p = window_pocset(3, w)
    rng = random.Random(16)
    for _ in range(40):
        a = uf(*[rng.randint(-3, 3) for _ in range(3)])
        b = uf(*[rng.randint(-3, 3) for _ in range(3)])
        fa = p.ultrafilter_from_signs(restrict_to_window(a, w))
        fb = p.ultrafilter_from_signs(restrict_to_window(b, w))
        assert p.delta(fa, fb) == delta(a, b)


def test_restriction_monotone_on_classes():
    # dropping chains maps signatures componentwise and preserves order
    keep = (0, 2)
    for a in all_signatures(3):
        for b in all_signatures(3):
            if class_leq(a, b):
                assert class_leq(drop_chains(a, keep), drop_chains(b, keep))


# ---------------------------------------------------------------------------
# literals


def test_ultrafilter_literals_roundtrip():
    fam = ChainFamily(("r", "s", "t"))
    u = uf(PLUS_END, 0, -3)
    text = format_ultrafilter(fam, u)
    assert text == "r:+inf s:cut(0) t:cut(-3)"
    assert parse_ultrafilter(fam, text) == u


def test_signature_literals_roundtrip():
    s = sig(PLUS, FIN, MINUS)
    assert format_signature(s) == "(+,0,-)"
    assert parse_signature("(+,0,-)") == s
    assert parse_signature("+,0,-") == s


def test_joint_convergence_randomized_schedules():
    rng = random.Random(55)
    for _ in range(40):
        k = rng.randint(1, 3)
        cycle = tuple(
            (i, rng.choice((1, -1)))
            for i in sorted(rng.sample(range(k), rng.randint(1, k)))
        )
        schedule = MoveSchedule(prefix=(), cycle=cycle)
        start_a = uf(*[rng.randint(-2, 2) for _ in range(k)])
        start_b = uf(*[rng.randint(-2, 2) for _ in range(k)])
        seq_a = geodesic_points(start_a, schedule, 12)
        seq_b = geodesic_points(start_b, schedule, 12)
        bound = max(delta(x, y) for x, y in zip(seq_a, seq_b))
        assert bound <= delta(start_a, start_b)
        lim_a = limit_of_geodesic(start_a, schedule)
        lim_b = limit_of_geodesic(start_b, schedule)
        assert cf_class(lim_a) == cf_class(lim_b)


def test_local_cubes_match_finite_window_complex():
    from math import comb

    from pocsets.chains import local_cubes
    from pocsets.cubing import build_cubing

    u = uf(0, 1)
    for d in (1, 2):
        assert len(local_cubes(u, d)) == comb(2, d) * 2**d
    # cross-backend: the window complex sees the same number of squares at
    # the corresponding vertex
    w = 2
    p = window_pocset(2, w)
    complex_ = build_cubing(p)
    vertex = p.ultrafilter_from_signs(restrict_to_window(u, w))
    i = complex_.vertices.index(vertex)
    squares_at_vertex = sum(
        1 for vertices in complex_.corners(complex_.cubes.get(2, [])) if i in vertices
    )
    assert squares_at_vertex == len(local_cubes(u, 2)) == 4
