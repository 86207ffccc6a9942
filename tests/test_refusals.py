"""Every domain error raised in `src/pocsets` names its witness, and each
refused fact is checked by one function."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

from pocsets import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "pocsets"

# each domain error class by name, with the place of its witness argument
WITNESS_AT = {
    name: list(inspect.signature(cls).parameters).index("witness")
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.PocError)
}


def _constructions() -> list[tuple[str, str, str, ast.Call]]:
    """(module, enclosing function, error class, call) of every domain error
    that a module of the package builds, by name or as ``errors.<name>``."""
    out = []

    def visit(module: str, node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in WITNESS_AT:
                    out.append((module, function, name, child))
            visit(module, child, function)

    for path in sorted(SRC.glob("*.py")):
        visit(path.name, ast.parse(path.read_text()), "<module>")
    return out


def _witness(call: ast.Call, at: int):
    for keyword in call.keywords:
        if keyword.arg == "witness":
            return keyword.value
    return call.args[at] if len(call.args) > at else None


def test_every_domain_error_names_a_witness():
    built = _constructions()
    assert len(built) > 90  # the scan sees the package's refusals
    bare = [
        f"{module}:{call.lineno} {name}"
        for module, _, name, call in built
        if (w := _witness(call, WITNESS_AT[name])) is None
        or isinstance(w, ast.Constant) and w.value is None
    ]
    assert bare == []


def _homes(error: str, module: str | None = None) -> set[tuple[str, str]]:
    return {
        (m, function)
        for m, function, name, _ in _constructions()
        if name == error and module in (None, m)
    }


def test_each_refused_fact_has_one_home():
    assert _homes("ChainCountMismatch", "chains.py") == {("chains.py", "_check_chain_counts")}
    assert _homes("ZeroDirection") == {("euclid.py", "_check_direction")}
    assert _homes("TrivialElement") == {("core.py", "_check_proper")}
    sources = [path.read_text() for path in SRC.glob("*.py")]
    for message in (
        "window bound must be >= 0",
        "window bound must be an int",
        "a wall model needs at least one family",
    ):
        assert sum(source.count(message) for source in sources) == 1, message
