"""Discrete poc-sets, Sageev-Roller duality, Roller boundaries, planar
wall-system models and the shadow machinery behind the co-compactness
criterion, all checkable by brute force at desk scale."""

from .core import FinitePocSet, Ultrafilter
from .errors import PocError

__version__ = "0.1.0"

__all__ = [
    "FinitePocSet",
    "Ultrafilter",
    "PocError",
    "delta",
    "__version__",
]


def delta(a, b):
    """Wall-counting distance between two ultrafilters of the same backend.

    Dispatches on type: finite-backend `Ultrafilter` pairs return a natural
    number; chain-backend pairs may return ``math.inf``.
    """
    from . import chains
    from .errors import BackendMismatch, ChainCountMismatch
    from .core import Ultrafilter as FiniteUF

    if isinstance(a, FiniteUF) and isinstance(b, FiniteUF):
        if len(a.signs) != len(b.signs):
            counts = [len(a.signs), len(b.signs)]
            raise BackendMismatch("ultrafilters live over different poc-sets", counts)
        return sum(1 for x, y in zip(a.signs, b.signs) if x != y)
    if isinstance(a, chains.ChainUltrafilter) and isinstance(b, chains.ChainUltrafilter):
        try:
            return chains.delta(a, b)
        except ChainCountMismatch as exc:
            raise BackendMismatch(str(exc), exc.witness) from exc
    kinds = [type(a).__name__, type(b).__name__]
    raise BackendMismatch(f"cannot compare {kinds[0]} with {kinds[1]}", kinds)
