from __future__ import annotations

import json
from fractions import Fraction

import pytest

from pocsets.errors import MalformedInput
from pocsets.formats import (
    chain_family_from_document,
    chain_family_to_document,
    document_kind,
    fixture_model,
    load_chain_family,
    load_document,
    load_pocset,
    pocset_from_document,
    pocset_to_document,
)

from conftest import line3, square, tripod


def test_fixture_pocsets_match_builders():
    for name, builder in (
        ("FIX-LINE3", line3),
        ("FIX-SQ", square),
        ("FIX-TRIPOD", tripod),
    ):
        loaded = load_pocset(name)
        reference = builder()
        assert loaded.n_pairs == reference.n_pairs
        for a in loaded.elements():
            for b in loaded.elements():
                assert loaded.leq(a, b) == reference.leq(a, b)


def test_pocset_document_roundtrip(tmp_path):
    p = tripod()
    doc = pocset_to_document(p)
    q = pocset_from_document(doc)
    for a in p.elements():
        for b in p.elements():
            assert p.leq(a, b) == q.leq(a, b)
    path = tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert load_pocset(path).n_pairs == 3


def test_chain_family_roundtrip():
    family, model = load_chain_family("FIX-HEX")
    assert family.names == ("r", "s", "t")
    assert model is not None
    doc = chain_family_to_document(family, model)
    family2, model2 = chain_family_from_document(doc)
    assert family2 == family
    assert model2 == model


def test_geometry_free_fixture():
    family, model = load_chain_family("FIX-Z3")
    assert family.k == 3
    assert model is None
    with pytest.raises(MalformedInput):
        fixture_model("FIX-Z3")


def test_hex_normals_sum_to_zero():
    model = fixture_model("FIX-HEX")
    sx = model.families[0].normal[0] + model.families[1].normal[0] + model.families[2].normal[0]
    sy = model.families[0].normal[1] + model.families[1].normal[1] + model.families[2].normal[1]
    assert sx.is_zero() and sy.is_zero()
    # unit normals
    for fam in model.families:
        nx, ny = fam.normal
        assert (nx * nx + ny * ny) == type(nx).of(1)


def test_document_kind_and_errors(tmp_path):
    assert document_kind({"pairs": 1}) == "pocset"
    assert document_kind({"chains": []}) == "chain-family"
    with pytest.raises(MalformedInput):
        document_kind({"what": 1})
    with pytest.raises(MalformedInput, match="FIX-Z2 is not a poc-set document"):
        load_pocset("FIX-Z2")
    with pytest.raises(MalformedInput, match="FIX-SQ is not a chain-family document"):
        load_chain_family("FIX-SQ")
    with pytest.raises(MalformedInput):
        load_document("no-such-file-anywhere")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(MalformedInput):
        load_document(bad)


def test_spacing_and_offset_take_the_normals_grammar():
    # rational literals only: no decimal point, exponent, underscore, JSON
    # float, √3 part or zero denominator; a literal's value is no larger
    # than its text
    from pocsets.exactnum import ExactNumber

    def wall(key, value):
        return {"chains": ["r"], "geometry": [{"normal": ["1", "0"], key: value}]}

    for key in ("spacing", "offset"):
        for value in ("1.5", "1e3", "1_000", 1.5, "√3", "1+√3", "1/0", "1e1000000"):
            with pytest.raises(MalformedInput, match=f"{key} must be a rational literal"):
                chain_family_from_document(wall(key, value))
        for value, expect in (("3/4", ExactNumber(Fraction(3, 4))), (2, ExactNumber(2))):
            _, model = chain_family_from_document(wall(key, value))
            assert getattr(model.families[0], key) == expect


def test_api_families_write_documents_their_loader_reads():
    # WallFamily refuses a √3 spacing or offset itself, so a model built
    # through the API always round-trips through its document
    from pocsets.chains import ChainFamily
    from pocsets.euclid import WallFamily, WallModel
    from pocsets.exactnum import ExactNumber, parse_exact

    normal = (parse_exact("1/2"), parse_exact("√3/2"))
    sqrt3 = ExactNumber(0, 1)
    for spacing, offset in ((sqrt3, 0), (1, sqrt3), (2, sqrt3 + 1)):
        with pytest.raises(MalformedInput, match="spacing and offset must be rational"):
            WallFamily(normal, spacing, offset)
    family = ChainFamily(("r", "s"))
    walls = (WallFamily(normal, Fraction(3, 4), -2), WallFamily(normal[::-1], 5, Fraction(-1, 3)))
    model = WallModel(family, walls)
    doc = json.loads(json.dumps(chain_family_to_document(family, model)))
    assert chain_family_from_document(doc) == (family, model)
