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
