"""Byte equality of CLI output against outputs frozen under tests/golden/.

Each golden file holds the expected stdout of one command, or for a
refused command (exit 1) its one-line JSON diagnostic on stderr; regenerate
a file only for an intended change of output, and record that in the change
log.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from test_cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

SHADOWS = ("shadows", "FIX-HEX", "--cuts", "2,2,2", "--window", "6")
ESCAPE = ("escape", "FIX-HEX", "--target", "(+,+,+)", "--length", "8", "--window", "8")
REPORT = ("--windows", "3,5,7")
STRUCTURED = ("--format", "structured")
# four pairs with h4 <= h1: two 3-cubes and a nested pair
CUBE3 = str(GOLDEN / "cube3-nested.pocset.json")
# fifteen pairs and no order, so every pair is transverse to every other
FREE15 = str(GOLDEN / "free15.pocset.json")
# eleven transverse pairs: 2^11 ultrafilters, but 163,835 cubes of dimension >= 2
FREE11 = str(GOLDEN / "free11.pocset.json")


def malformed(command, case, *extra):
    """A command on the malformed document tests/golden/malformed/CASE.json."""
    return (command, str(GOLDEN / "malformed" / f"{case}.json"), *extra)


RHO = ("--direction", "1,0")

CASES = {
    "shadows-hex.txt": SHADOWS,
    "shadows-hex.json": SHADOWS + ("--format", "structured"),
    "shadows-hex.svg": SHADOWS + ("--format", "svg"),
    "escape-hex.txt": ESCAPE,
    "escape-hex.json": ESCAPE + ("--format", "structured"),
    # a ray of one point: it fails at step 0, the one step it has
    "escape-hex-one-point.json": (
        "escape", "FIX-HEX", "--target=(+,+,+)", "--length", "0", "--format", "structured",
    ),
    "report-hex.txt": ("report", "FIX-HEX") + REPORT,
    "report-hex.json": ("report", "FIX-HEX") + REPORT + ("--format", "structured"),
    "report-z2.txt": ("report", "FIX-Z2") + REPORT,
    "report-z2.json": ("report", "FIX-Z2") + REPORT + ("--format", "structured"),
    "validate-tripod.txt": ("validate", "FIX-TRIPOD"),
    "ultrafilters-tripod.txt": ("ultrafilters", "FIX-TRIPOD"),
    "cubing-tripod.txt": ("cubing", "FIX-TRIPOD"),
    "cubing-tripod.dot": ("cubing", "FIX-TRIPOD", "--format", "dot"),
    "dual-sq.txt": ("dual", "FIX-SQ", "--samples", "3", "--seed", "1"),
    "cubing-sq.json": ("cubing", "FIX-SQ") + STRUCTURED,
    "dual-sq.json": ("dual", "FIX-SQ") + STRUCTURED,
    "cubing-cube3.json": ("cubing", CUBE3) + STRUCTURED,
    "dual-cube3.json": ("dual", CUBE3) + STRUCTURED,
    "boundary-z2.txt": ("boundary", "FIX-Z2"),
    "rho-hex.txt": ("rho", "FIX-HEX", "--direction", "1,0"),
    "image-hex.txt": ("image", "FIX-HEX"),
    # every fiber's directions: the critical directions in counterclockwise order
    "image-hex.json": ("image", "FIX-HEX") + STRUCTURED,
    "image-z2.json": ("image", "FIX-Z2") + STRUCTURED,
    # one family: two critical directions and two half-circle arcs
    "image-z1.json": ("image", "FIX-Z1") + STRUCTURED,
    "safe-hex.txt": ("safe", "FIX-HEX"),
    "closure-hex.txt": ("closure", "FIX-HEX"),
    # the class layer in full: each fiber's classes below it and its closure
    "closure-hex.json": ("closure", "FIX-HEX") + STRUCTURED,
    "safe-hex.json": ("safe", "FIX-HEX") + STRUCTURED,
    # one family, so the model is not uniform: the principal class is in the
    # image and the codimension-1 fibers are not closed
    "report-z1.json": ("report", "FIX-Z1") + REPORT + STRUCTURED,
    "closure-z1.json": ("closure", "FIX-Z1") + STRUCTURED,
    "safe-z1.json": ("safe", "FIX-Z1") + STRUCTURED,
    # all 81 classes of four chains and their covering pairs
    "boundary-z4.json": ("boundary", "FIX-Z4") + STRUCTURED,
    "restrict-z2.txt": ("restrict", "FIX-Z2", "--direction", "1,1"),
    "restrict-hex.json": (
        "restrict", "FIX-HEX", "--direction", "1,0", "--base", "0,1/2", "--format", "structured",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    proc = run_cli(*CASES[name])
    assert proc.stdout == (GOLDEN / name).read_text()
    # an answered command, a non-uniform model's included, writes nothing else
    assert proc.stderr == ""


SHADOWS_W4 = ("shadows", "FIX-HEX", "--window", "4")

# each refusal comes from a different guard of the windowed queries
REFUSALS = {
    # no minimizer of the distance is interior
    "shadows-hex-minimizers.err": SHADOWS_W4 + ("--cuts=-4,-4,4",),
    # a neighbour of the query, looked up for min+/min-, leaves the window
    "shadows-hex-outside.err": SHADOWS_W4 + ("--cuts=-4,-4,-4",),
    # some shadow member touches the window boundary
    "shadows-hex-shadow.err": SHADOWS_W4 + ("--cuts=-3,-3,-3",),
    # the dual shadow of a ray point inside escaping_ray
    "escape-hex-dual-shadow.err": (
        "escape", "FIX-HEX", "--target=(-,0,0)", "--length", "4", "--window", "4",
    ),
    # a ray of 10^9 steps, refused at its first point outside the window
    # without listing the points beyond it
    "escape-hex-long-ray.err": (
        "escape", "FIX-HEX", "--target=(+,+,+)", "--length", "1000000000", "--window", "4",
    ),
    # a negative window, refused before the cuts or the target are read
    "shadows-negative-window.err": ("shadows", "FIX-HEX", "--cuts", "2,2,2", "--window=-1"),
    "escape-negative-window.err": ("escape", "FIX-HEX", "--target=(+,+,+)", "--window=-1"),
    "report-negative-window.err": ("report", "FIX-HEX", "--windows=-1,2,3"),
    # a negative sample count, and one above cli.MAX_SAMPLES
    "dual-negative-samples.err": ("dual", "FIX-SQ", "--samples=-3"),
    "dual-samples-over-cap.err": ("dual", "FIX-SQ", "--samples", "1000000"),
    # a negative ray length
    "escape-negative-length.err": ("escape", "FIX-HEX", "--target=(+,+,+)", "--length=-2"),
    # the principal class, its witness the signature as the command line writes it
    "escape-hex-principal.err": ("escape", "FIX-HEX", "--target=(0,0,0)"),
    # a document of the wrong kind for the subcommand
    "validate-chain-family.err": ("validate", "FIX-Z2"),
    "boundary-pocset.err": ("boundary", "FIX-SQ"),
    "rho-no-geometry.err": ("rho", "FIX-Z3", "--direction", "1,0"),
    # a malformed document: one JSON line, not a traceback or a silent misreading
    "malformed-normal-missing.err": malformed("rho", "normal-missing", *RHO),
    "malformed-normal-short.err": malformed("rho", "normal-short", *RHO),
    "malformed-normal-string.err": malformed("rho", "normal-string", *RHO),
    "malformed-spacing-sqrt3.err": malformed("rho", "spacing-sqrt3", *RHO),
    "malformed-offset-sqrt3.err": malformed("rho", "offset-sqrt3", *RHO),
    # an exponent, once expanded by Fraction into a million-digit integer
    "malformed-spacing-exponent.err": malformed("report", "spacing-exponent", "--window", "2"),
    "malformed-geometry-number.err": malformed("rho", "geometry-number", *RHO),
    "malformed-geometry-numbers.err": malformed("rho", "geometry-numbers", *RHO),
    # witnesses are document values: the normal's literals, the chain names, the document
    "malformed-normal-zero.err": malformed("rho", "normal-zero", *RHO),
    "malformed-normal-zero-denominator.err": malformed("rho", "normal-zero-denominator", *RHO),
    "malformed-chains-empty-image.err": malformed("image", "chains-empty"),
    "malformed-chains-empty-report.err": malformed("report", "chains-empty"),
    "malformed-chains-empty-shadows.err": malformed("shadows", "chains-empty", "--cuts", "1"),
    "malformed-unrecognized.err": malformed("validate", "unrecognized"),
    "malformed-chains-string.err": malformed("boundary", "chains-string"),
    "malformed-order-number.err": malformed("validate", "order-number"),
    "malformed-order-entry-number.err": malformed("validate", "order-entry-number"),
    # a pair count that is not a JSON integer, formerly read with int()
    "malformed-pairs-float.err": malformed("validate", "pairs-float"),
    "malformed-pairs-bool.err": malformed("validate", "pairs-bool"),
    "malformed-pairs-string.err": malformed("validate", "pairs-string"),
    # a pair count above core.MAX_PAIRS, refused before the order is closed
    "malformed-pairs-over-cap.err": malformed("validate", "pairs-over-cap"),
    # fifteen transverse pairs: 2^15 ultrafilters, past core.MAX_ULTRAFILTERS
    "ultrafilters-over-cap.err": ("ultrafilters", FREE15),
    # past cubing.MAX_CUBES, refused as the cubes are listed
    "cubing-over-cap.err": ("cubing", FREE11),
    "dual-over-cap.err": ("dual", FREE11),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_cli_refusal_matches_golden(name):
    proc = run_cli(*REFUSALS[name], expect=1, timeout=60)
    assert proc.stderr == (GOLDEN / name).read_text()
