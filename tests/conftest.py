from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pocsets.core import FinitePocSet, sample_pocset


def line3() -> FinitePocSet:
    # three nested walls on a line: h3 <= h2 <= h1
    p = FinitePocSet.from_order_generators(3, [])
    return FinitePocSet.from_order_generators(
        3, [(p.handle("h3"), p.handle("h2")), (p.handle("h2"), p.handle("h1"))]
    )


def square() -> FinitePocSet:
    # two transverse walls
    return FinitePocSet.from_order_generators(2, [])


def tripod() -> FinitePocSet:
    # three rays from a center: h_i <= h_j* for i != j
    p = FinitePocSet.from_order_generators(3, [])
    return FinitePocSet.from_order_generators(
        3,
        [
            (p.handle("h1"), p.handle("h2*")),
            (p.handle("h1"), p.handle("h3*")),
            (p.handle("h2"), p.handle("h3*")),
        ],
    )


@pytest.fixture
def fix_line3():
    return line3()


@pytest.fixture
def fix_square():
    return square()


@pytest.fixture
def fix_tripod():
    return tripod()


@pytest.fixture
def walk_counts(monkeypatch) -> Counter:
    """`_walk_ultrafilters` calls per poc-set, by id (so keep each alive)."""
    walks, walk = Counter(), FinitePocSet._walk_ultrafilters

    def counted(self):
        walks[id(self)] += 1
        return walk(self)

    monkeypatch.setattr(FinitePocSet, "_walk_ultrafilters", counted)
    return walks


def random_pocset(rng: random.Random, max_pairs: int = 6) -> FinitePocSet:
    """A random valid poc-set: `pocsets.core.sample_pocset`'s draw."""
    return sample_pocset(rng, max_pairs)[0]


def brute_force_ultrafilters(p: FinitePocSet):
    """Oracle: scan all sign assignments, keep those with no pair of members
    h, k satisfying h <= k*; straight from the definition."""
    from itertools import product

    found = []
    for signs in product((0, 1), repeat=p.n_pairs):
        members = [2 * k + s for k, s in enumerate(signs)] + [p.zero_star]
        ok = True
        for x in members:
            for y in members:
                if p.leq(x, y ^ 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(signs)
    return found


# The six-family G~2 wall model (spacing 1, offset 0), as the document a
# fixture file would hold.  The long normals, of length sqrt3, encode wall
# spacing 1/sqrt3, since a spacing must be rational.
G2_DOCUMENT = {
    "chains": ["a", "b", "c", "d", "e", "f"],
    "geometry": [
        {"normal": ["1", "0"], "spacing": "1", "offset": "0"},
        {"normal": ["3/2", "√3/2"], "spacing": "1", "offset": "0"},
        {"normal": ["1/2", "√3/2"], "spacing": "1", "offset": "0"},
        {"normal": ["0", "√3"], "spacing": "1", "offset": "0"},
        {"normal": ["-1/2", "√3/2"], "spacing": "1", "offset": "0"},
        {"normal": ["-3/2", "√3/2"], "spacing": "1", "offset": "0"},
    ],
}


def g2_model():
    """A fresh `WallModel` of `G2_DOCUMENT`."""
    from pocsets.formats import chain_family_from_document

    return chain_family_from_document(G2_DOCUMENT)[1]


def zd_image_signatures(d: int):
    """Classes realized by boundary directions of the standard cubulation of
    E^d: sign vectors of non-zero directions, i.e. every non-principal
    signature."""
    from pocsets.chains import all_signatures

    return [s for s in all_signatures(d) if s.codim() > 0]


def is_consistent(model, u) -> bool:
    """Whether a principal ultrafilter is supported by an actual point: the
    model's oracle on its cuts, refused for an end state."""
    return model.oracle.consistent(u.int_cuts())


def contains_class(image, s) -> bool:
    """Whether a `rho_image` report holds the class s among its entries."""
    return any(e.signature == s for e in image.entries)
