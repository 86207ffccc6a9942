"""Byte equality of CLI stdout against outputs frozen under tests/golden/.

Each golden file holds the expected stdout of one command; regenerate a
file only for an intended change of output, and record that in the change
log.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from test_cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

SHADOWS = ("shadows", "FIX-HEX", "--cuts", "2,2,2", "--window", "6")
ESCAPE = ("escape", "FIX-HEX", "--target", "(+,+,+)", "--length", "8", "--window", "8")
REPORT = ("--windows", "3,5,7", "--length", "6")

CASES = {
    "shadows-hex.txt": SHADOWS,
    "shadows-hex.json": SHADOWS + ("--format", "structured"),
    "shadows-hex.svg": SHADOWS + ("--format", "svg"),
    "escape-hex.txt": ESCAPE,
    "escape-hex.json": ESCAPE + ("--format", "structured"),
    "report-hex.txt": ("report", "FIX-HEX") + REPORT,
    "report-hex.json": ("report", "FIX-HEX") + REPORT + ("--format", "structured"),
    "report-z2.txt": ("report", "FIX-Z2") + REPORT,
    "report-z2.json": ("report", "FIX-Z2") + REPORT + ("--format", "structured"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    proc = run_cli(*CASES[name])
    assert proc.stdout == (GOLDEN / name).read_text()
