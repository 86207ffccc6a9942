"""Documentation that must keep up with the code."""

from __future__ import annotations

import ast
from pathlib import Path

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
