"""Exception hierarchy shared by all modules.

Every domain error carries a machine-readable ``code`` and a ``witness``
(the offending element, pair or index), so the CLI can emit structured
diagnostics without string parsing.
"""

from __future__ import annotations

from itertools import islice


class PocError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness

    def diagnostic(self) -> dict:
        return {
            "code": self.code,
            "message": _jsonable(str(self)),
            "witness": _jsonable(self.witness),
        }


# the levels of a witness kept, below which each part is one marker: this and
# json.dumps recurse once per level, and a deep document overflows the stack
WITNESS_DEPTH = 32
DEEPER = f"<nested deeper than {WITNESS_DEPTH} levels>"
# the items of each list or object of a witness kept, and the characters of
# each string and of the message: the rest is one marker, so a refused value
# as wide as a whole document is echoed at a bounded width
WITNESS_WIDTH = 64
TEXT_WIDTH = 1024


def _jsonable(value, depth: int = WITNESS_DEPTH):
    if value is None or isinstance(value, (int, float, bool)):
        return value
    if not isinstance(value, (list, tuple, set, frozenset, dict)):
        text = str(value)
        more = len(text) - TEXT_WIDTH
        return f"{text[:TEXT_WIDTH]}<{more} more characters>" if more > 0 else text
    if not depth:
        return DEEPER
    more = [f"<{len(value) - WITNESS_WIDTH} more items>"] if len(value) > WITNESS_WIDTH else []
    if isinstance(value, dict):
        kept = islice(value.items(), WITNESS_WIDTH)
        return {_jsonable(str(k)): _jsonable(v, depth - 1) for k, v in kept} | dict.fromkeys(more)
    return [_jsonable(v, depth - 1) for v in islice(value, WITNESS_WIDTH)] + more


def brief(value) -> str:
    """The repr of a refused value cut as its witness is, for a message."""
    return repr(_jsonable(value))


class MalformedInput(PocError):
    code = "malformed-input"


class AxiomViolation(PocError):
    """A poc-set axiom, or an ultrafilter axiom ("UF1" or "UF2"), failed;
    ``axiom`` names it, ``witness`` exhibits it."""

    code = "axiom-violation"

    def __init__(self, axiom: str, message: str, witness=None):
        super().__init__(message, witness)
        self.axiom = axiom

    def diagnostic(self) -> dict:
        d = super().diagnostic()
        d["axiom"] = self.axiom
        return d


class TrivialElement(PocError):
    code = "trivial-element"


class NotAFilterBase(PocError):
    code = "not-a-filter-base"


class NotMinimal(PocError):
    code = "not-minimal"


class NotMaximalTransverse(PocError):
    code = "not-maximal-transverse"


class BackendMismatch(PocError):
    code = "backend-mismatch"


class ChainCountMismatch(PocError):
    code = "chain-count-mismatch"


class NotPrincipal(PocError):
    code = "not-principal"


class NotMember(PocError):
    code = "not-a-member"


class EmptySequence(PocError):
    code = "empty-sequence"


class NotGeodesic(PocError):
    code = "not-geodesic"


class DegenerateWall(PocError):
    code = "degenerate-wall"


class NotIsomorphic(PocError):
    code = "not-isomorphic"


class ZeroDirection(PocError):
    code = "zero-direction"


class LineInsideWall(PocError):
    code = "line-inside-wall"


class WindowTooSmall(PocError):
    code = "window-too-small"
