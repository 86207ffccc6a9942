"""File formats and shipped fixtures.

Two document kinds, both JSON:

* poc-set: ``{"pairs": n, "order": [["h2", "h1"], ...]}`` where ``hK`` /
  ``hK*`` name pair K and the trivial pair is implicit;
* chain family: ``{"chains": ["r", "s", "t"], "geometry": [...] | null}``
  with per-chain geometry ``{"normal": ["0", "1"], "spacing": "1",
  "offset": "0"}``: the normal's two coordinates are exact literals in
  Q(√3), spacing and offset rational literals of the same grammar (``2``,
  ``-3/4``; no decimal point, exponent or √3 part).

Anything else is refused with `MalformedInput`, and so is a file that cannot
be read, is not UTF-8, or is JSON too deep or with too long an integer for
`json.loads`.  Every literal is parsed by `pocsets.exactnum.parse_exact`, so
its value is no larger than its text, and `WallFamily` holds spacing and
offset as `ExactNumber`s like every other number of the planar layer.

Every structured output of the CLI that has a loader round-trips through
these functions.  The chain-family loaders import the chain, planar and
exact-number layers when first called, so loading a poc-set needs none of
them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .core import FinitePocSet, check_pair_count, parse_handle
from .errors import MalformedInput

if TYPE_CHECKING:
    from .chains import ChainFamily
    from .euclid import WallFamily, WallModel
    from .exactnum import ExactNumber

FIXTURE_NAMES = (
    "FIX-LINE3",
    "FIX-SQ",
    "FIX-TRIPOD",
    "FIX-Z1",
    "FIX-Z2",
    "FIX-Z3",
    "FIX-Z4",
    "FIX-HEX",
)


FIXTURES = Path(__file__).parent / "fixtures"


def load_document(source: Union[str, Path]) -> dict:
    """Read a UTF-8 JSON document from a path or a fixture name."""
    path = Path(source)
    if not path.exists():
        if str(source) not in FIXTURE_NAMES:
            raise MalformedInput(f"no such file or fixture: {source}", str(source))
        path = FIXTURES / f"{source}.json"
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"cannot read {source}: {exc}", str(source)) from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long integer or deep nesting
        raise MalformedInput(f"invalid JSON in {source}: {exc}", str(source)) from None
    if not isinstance(doc, dict):
        raise MalformedInput("document must be a JSON object", str(source))
    return doc


# ---------------------------------------------------------------------------
# poc-sets


def pocset_from_document(doc: dict) -> FinitePocSet:
    try:
        pairs = doc["pairs"]
        order = doc.get("order", [])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad poc-set document: {exc}", doc) from exc
    if isinstance(pairs, bool) or not isinstance(pairs, int):
        raise MalformedInput(f"pairs must be an integer, got {pairs!r}", pairs)
    if not isinstance(order, (list, tuple)):
        raise MalformedInput(f"order must be a list of pairs, got {order!r}", order)
    check_pair_count(pairs)  # before any name is resolved against it
    edges = []
    for entry in order:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise MalformedInput(f"order edges are pairs, got {entry!r}", entry)
        a, b = entry
        edges.append((parse_handle(str(a), pairs), parse_handle(str(b), pairs)))
    return FinitePocSet.from_order_generators(pairs, edges)


def pocset_to_document(p: FinitePocSet) -> dict:
    """Every relation a <= b between distinct proper handles, in row order."""
    edges, names = [], [p.name(e) for e in p.proper_elements()]
    for a in p.proper_elements():
        above = p._up[a] & (1 << len(names)) - 1 & ~(1 << a)
        while above:
            b = (above & -above).bit_length() - 1
            above ^= 1 << b
            edges.append([names[a], names[b]])
    return {"pairs": p.n_pairs, "order": edges}


def load_pocset(source: Union[str, Path]) -> FinitePocSet:
    doc = load_document(source)
    if document_kind(doc) != "pocset":
        raise MalformedInput(f"{source} is not a poc-set document", str(source))
    return pocset_from_document(doc)


# ---------------------------------------------------------------------------
# chain families and wall models


def chain_family_from_document(doc: dict) -> tuple[ChainFamily, Union[WallModel, None]]:
    from .chains import ChainFamily
    from .euclid import WallModel

    chains = doc.get("chains")
    if not isinstance(chains, (list, tuple)):
        raise MalformedInput(f"chains must be a list of names, got {chains!r}", chains)
    names = tuple(str(n) for n in chains)
    if len(set(names)) != len(names):
        raise MalformedInput("chain names must be distinct", names)
    family = ChainFamily(names)
    geometry = doc.get("geometry")
    if geometry is None:
        return family, None
    if not isinstance(geometry, (list, tuple)) or len(geometry) != len(names):
        raise MalformedInput("geometry must be null or list one entry per chain", geometry)
    return family, WallModel(family, tuple(_wall_family(entry) for entry in geometry))


def _wall_family(entry) -> WallFamily:
    from .euclid import WallFamily
    from .exactnum import parse_exact

    if not isinstance(entry, dict):
        raise MalformedInput(f"geometry entries are objects, got {entry!r}", entry)
    normal = entry.get("normal")
    if not isinstance(normal, (list, tuple)) or len(normal) != 2:
        raise MalformedInput(f"normal must be a list of two exact literals, got {normal!r}", normal)
    return WallFamily(
        (parse_exact(str(normal[0])), parse_exact(str(normal[1]))),
        _rational(entry, "spacing", "1"),
        _rational(entry, "offset", "0"),
    )


def _rational(entry: dict, key: str, default: str) -> ExactNumber:
    from .exactnum import parse_exact

    text = str(entry.get(key, default))
    try:
        value = parse_exact(text)
        if not value.q:
            return value
    except MalformedInput:
        pass
    raise MalformedInput(f"{key} must be a rational literal, got {text!r}", text)


def chain_family_to_document(family: ChainFamily, model: Union[WallModel, None]) -> dict:
    doc: dict = {"chains": list(family.names)}
    if model is None:
        doc["geometry"] = None
    else:
        doc["geometry"] = [
            {
                "normal": [str(f.normal[0]), str(f.normal[1])],
                "spacing": str(f.spacing),
                "offset": str(f.offset),
            }
            for f in model.families
        ]
    return doc


def load_chain_family(source: Union[str, Path]) -> tuple[ChainFamily, Union[WallModel, None]]:
    doc = load_document(source)
    if document_kind(doc) != "chain-family":
        raise MalformedInput(f"{source} is not a chain-family document", str(source))
    return chain_family_from_document(doc)


def load_wall_model(source: Union[str, Path]) -> WallModel:
    _, model = load_chain_family(source)
    if model is None:
        raise MalformedInput(f"{source} carries no wall geometry", str(source))
    return model


def document_kind(doc: dict) -> str:
    if "pairs" in doc:
        return "pocset"
    if "chains" in doc:
        return "chain-family"
    raise MalformedInput("unrecognized document (need 'pairs' or 'chains')", doc)


# ---------------------------------------------------------------------------
# fixture shortcuts


def fixture_pocset(name: str) -> FinitePocSet:
    return load_pocset(name)


def fixture_model(name: str) -> WallModel:
    return load_wall_model(name)
