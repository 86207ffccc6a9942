"""Documentation that must keep up with the code."""

from __future__ import annotations

import ast
import io
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from pocsets import cli

ROOT = Path(__file__).resolve().parents[1]


def _module_caps() -> list[str]:
    """Every module-level MAX_* constant of the package, as pocsets.<module>.<NAME>."""
    caps = []
    for path in sorted((ROOT / "src" / "pocsets").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            caps += [
                f"pocsets.{path.stem}.{t.id}"
                for t in targets
                if isinstance(t, ast.Name) and t.id.startswith("MAX_")
            ]
    return caps


def test_every_cap_is_named_in_the_readme():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("Desk-scale caps:")
    paragraph = readme[start : readme.index("\n\n", start)]
    caps = _module_caps()
    assert "pocsets.shadows.MAX_WINDOW_TUPLES" in caps  # the scan sees the caps
    assert [cap for cap in caps if cap not in paragraph] == []


def _readme_commands() -> list[list[str]]:
    """The argv of every `pocsets ...` line of the README's command-line
    block, without its `#` comment or `>` redirect."""
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```sh", readme.index("## Command line"))
    block = readme[start : readme.index("```", start + 5)]
    commands = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["pocsets"]:
            commands.append(argv[1 : argv.index(">") if ">" in argv else None])
    return commands


def test_readme_commands_run():
    # a flag removed from the CLI cannot linger in the documented commands
    commands = _readme_commands()
    assert len(commands) >= 14 and ["report", "FIX-HEX", "--window", "10"] in commands
    for argv in commands:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads: not as a name, and not in
    a string that parses as an expression (a quoted annotation, ``__all__``)."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    trees = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                trees.append(ast.parse(node.value, mode="eval"))
            except (SyntaxError, ValueError):  # prose, or a string with a NUL
                pass
    read = {
        n.id
        for t in trees
        for n in ast.walk(t)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # a deleted annotated __init__ can leave its typing import behind
    assert _unused_imports("from typing import Optional, Sequence\nx: 'Sequence[int]'\n") == [
        "Optional"
    ]
    unused = {
        path.name: _unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "pocsets").glob("*.py"))
    }
    assert {name: names for name, names in unused.items() if names} == {}
