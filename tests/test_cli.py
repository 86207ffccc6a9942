from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv, expect=0, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "pocsets", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=timeout,
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def test_rho_positive_horizontal():
    proc = run_cli("rho", "FIX-Z2", "--direction", "1,0")
    assert proc.stdout.strip() == "(+,0)"


def test_rho_structured():
    # the = form keeps argparse from reading a leading minus as an option
    proc = run_cli("rho", "FIX-Z2", "--direction=-2,3", "--format", "structured")
    blob = json.loads(proc.stdout)
    assert blob["schema"] == "pocsets/1"
    assert blob["class"] == "(-,+)"


def test_cubing_dot():
    proc = run_cli("cubing", "FIX-SQ", "--format", "dot")
    assert proc.stdout.count(" -- ") == 4
    assert proc.stdout.startswith("graph cubing {")


def test_validate_and_ultrafilters():
    proc = run_cli("validate", "FIX-TRIPOD")
    assert "3 proper pairs" in proc.stdout
    proc = run_cli("ultrafilters", "FIX-LINE3", "--format", "structured")
    assert json.loads(proc.stdout)["count"] == 4


def test_dual_with_samples():
    proc = run_cli("dual", "FIX-SQ", "--samples", "5", "--seed", "3")
    assert "isomorphic: True" in proc.stdout


def test_dual_samples_round_trip_the_package_samplers_draws(monkeypatch, capsys):
    # after the input's own round trip, `dual --samples` round-trips exactly
    # the poc-sets that `sample_pocset` draws from its seed with 5 pairs
    import random

    from pocsets import cli, cubing
    from pocsets.core import sample_pocset
    from pocsets.formats import fixture_pocset

    seen, roundtrip = [], cubing.duality_roundtrip

    def spy(p):
        seen.append((p.n_pairs, p._up))
        return roundtrip(p)

    monkeypatch.setattr(cubing, "duality_roundtrip", spy)
    assert cli.main(["dual", "FIX-SQ", "--samples", "40", "--seed", "3"]) == 0
    assert "sampled 40 random poc-sets" in capsys.readouterr().out
    rng = random.Random(3)
    drawn = [sample_pocset(rng, 5)[0] for _ in range(40)]
    square = fixture_pocset("FIX-SQ")
    assert seen == [(p.n_pairs, p._up) for p in (square, *drawn)]
    assert len({up for _, up in seen}) > 10  # the draws differ


def test_dual_sample_count_is_capped(monkeypatch, capsys):
    from pocsets import cli

    monkeypatch.setattr(cli, "MAX_SAMPLES", 3)
    assert cli.main(["dual", "FIX-SQ", "--samples", "3"]) == 0
    assert "sampled 3 random poc-sets" in capsys.readouterr().out
    for count, message in (("4", "above the cap of 3"), ("-1", "must be non-negative")):
        assert cli.main(["dual", "FIX-SQ", "--samples", count]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in json.loads(err)["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "FIX-SQ"),
        ("cubing", "FIX-SQ"),
        ("report", "FIX-HEX", "--window", "12", "--format", "structured"),
    ],
)
def test_closed_stdout_ends_without_a_traceback(argv):
    import os

    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pocsets", *argv],
            stdout=writer,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
    finally:
        os.close(writer)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_boundary_poset():
    proc = run_cli("boundary", "FIX-Z3", "--format", "structured")
    blob = json.loads(proc.stdout)
    assert len(blob["poset"]["classes"]) == 27


def test_image_safe_closure():
    proc = run_cli("image", "FIX-HEX", "--format", "structured")
    blob = json.loads(proc.stdout)
    assert len(blob["image"]["classes"]) == 12
    proc = run_cli("safe", "FIX-HEX", "--format", "structured")
    assert json.loads(proc.stdout)["component_count"] == 1
    proc = run_cli("closure", "FIX-Z2", "--format", "structured")
    assert json.loads(proc.stdout)["closure"]["ok"] is True


def test_restrict():
    proc = run_cli(
        "restrict",
        "FIX-Z2",
        "--direction",
        "1,1",
        "--format",
        "structured",
    )
    blob = json.loads(proc.stdout)
    assert blob["restriction"]["merged_chain_count"] == 1
    assert blob["restriction"]["commutes"] is True
    assert blob["ends_incomparable"] is True


@pytest.mark.parametrize("digits", [30, 400])
def test_restrict_with_a_far_base(capsys, digits):
    # the family with normal (√3/2, -1/2) is parallel to the line and reads
    # b*√3/2 at the base (b, 0): its frozen cut is floor(b*√3/2) + 1
    from pocsets.cli import main

    b = 10**digits
    argv = ["restrict", "FIX-HEX", "--direction=1,√3", f"--base={b},0", "--format", "structured"]
    assert main(argv) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["restriction"]["trivial_cuts"] == {"2": isqrt(3 * b * b // 4) + 1}


@pytest.mark.parametrize("command", ["cubing", "dual"])
def test_enumeration_past_the_cap_is_refused(command):
    # 2^15 ultrafilters: refused as the enumeration grows, not built
    doc = Path(__file__).resolve().parent / "golden" / "free15.pocset.json"
    proc = run_cli(command, str(doc), expect=1, timeout=60)
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["code"] == "malformed-input"


def test_shadows_text_and_svg():
    proc = run_cli("shadows", "FIX-HEX", "--cuts", "5,5,5", "--window", "12")
    assert "dist=12" in proc.stdout
    assert "shadow=91" in proc.stdout
    proc = run_cli(
        "shadows", "FIX-HEX", "--cuts", "2,2,2", "--window", "8", "--format", "svg"
    )
    assert proc.stdout.startswith("<svg")
    assert "</svg>" in proc.stdout
    # (2,2,2) is inconsistent, so its marker stands at a mid-slab crossing;
    # two parallel families never cross, so their inconsistent query gets none
    assert proc.stdout.count('r="6"') == 1
    from pocsets.chains import ChainFamily
    from pocsets.euclid import WallFamily, WallModel
    from pocsets.exactnum import ExactNumber
    from pocsets.render import shadow_svg
    from pocsets.shadows import ChainUltrafilter, shadow_report

    normals = [(ExactNumber(n), ExactNumber(0)) for n in (1, 2)]
    model = WallModel(ChainFamily(("a", "b")), tuple(WallFamily(n) for n in normals))
    report = shadow_report(model, ChainUltrafilter((0, 5)), 8)
    assert report.dist > 0
    assert shadow_svg(model, report).count("<circle") == len(report.shadow) == 1


def test_escape_and_report():
    proc = run_cli(
        "escape", "FIX-HEX", "--target", "(+,+,+)", "--length", "10", "--window", "10"
    )
    assert "escapes" in proc.stdout
    proc = run_cli("report", "FIX-HEX", "--windows", "4,8")
    assert "escaping ray: yes" in proc.stdout
    assert "12 of 26" in proc.stdout


def test_report_z2():
    proc = run_cli("report", "FIX-Z2", "--windows", "3,5")
    assert "8 of 8" in proc.stdout
    assert "escaping ray: no" in proc.stdout


def test_readme_report_escapes_exactly_outside_the_image():
    # the README's example: the 14 classes outside the image escape, and
    # (+,-,+), whose 10-step probe ray once left the consistent set late,
    # is in the image and does not
    proc = run_cli("report", "FIX-HEX", "--window", "10", "--format", "structured")
    report = json.loads(proc.stdout)["report"]
    outside = [r["signature"] for r in report["classes"] if r["codim"] > 0 and not r["in_image"]]
    assert len(outside) == 14 and report["escaping_classes"] == outside
    assert not any(r["in_image"] and r["escapes"] for r in report["classes"])
    assert "(+,-,+)" not in outside


def test_report_refuses_length():
    # the report's escapes column needs no ray, so it takes no ray length
    proc = run_cli("report", "FIX-HEX", "--length", "6", expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: pocsets")
    assert "error: unrecognized arguments: --length 6" in proc.stderr


def test_determinism_same_bytes():
    a = run_cli("report", "FIX-HEX", "--windows", "4,6", "--format", "structured")
    b = run_cli("report", "FIX-HEX", "--windows", "4,6", "--format", "structured")
    assert a.stdout == b.stdout
    c = run_cli("dual", "FIX-SQ", "--samples", "4", "--seed", "9", "--format", "structured")
    d = run_cli("dual", "FIX-SQ", "--samples", "4", "--seed", "9", "--format", "structured")
    assert c.stdout == d.stdout


def test_structured_outputs_reload():
    proc = run_cli("validate", "FIX-TRIPOD", "--format", "structured")
    doc = json.loads(proc.stdout)["document"]
    from pocsets.formats import pocset_from_document

    assert pocset_from_document(doc).n_pairs == 3


def test_domain_error_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pairs": 1, "order": [["h1", "h1*"]]}))
    proc = run_cli("validate", str(bad), expect=1)
    diag = json.loads(proc.stderr.strip())
    assert diag["code"] == "axiom-violation"
    assert diag["axiom"] == "h <= h*"


def test_usage_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "pocsets", "rho", "FIX-Z2"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2


def test_seed_only_on_dual():
    run_cli("dual", "FIX-SQ", "--seed", "1")
    proc = run_cli("validate", "FIX-SQ", "--seed", "1", expect=2)
    assert "unrecognized arguments: --seed 1" in proc.stderr


def test_window_too_small_is_domain_error():
    proc = run_cli("shadows", "FIX-HEX", "--cuts", "5,5,5", "--window", "4", expect=1)
    assert json.loads(proc.stderr)["code"] == "window-too-small"


def test_a_cut_past_float_range_is_refused_in_one_line():
    # 400 nines compare exactly with the ends and with the window
    proc = run_cli("shadows", "FIX-HEX", f"--cuts={'9' * 400},0,0", "--window", "4", expect=1)
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["code"] == "window-too-small"


def test_chain_count_mismatch_is_domain_error():
    for argv in (
        ("shadows", "FIX-HEX", "--cuts", "1,2", "--window", "3"),
        ("shadows", "FIX-HEX", "--cuts", "1,1,1,1", "--window", "3"),
        ("escape", "FIX-HEX", "--target", "(+,+)"),
    ):
        proc = run_cli(*argv, expect=1)
        assert json.loads(proc.stderr)["code"] == "chain-count-mismatch"


def test_bad_window_list_is_malformed_input():
    proc = run_cli("report", "FIX-HEX", "--windows", "4,x", expect=1)
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["code"] == "malformed-input"


def test_unaffordable_window_fails_fast():
    # a (2W+1)^k enumeration past the cap is refused before it starts; the
    # timeout turns a regression into a failure instead of a hang
    for argv in (
        ("report", "FIX-HEX", "--windows", "4,100000"),
        ("shadows", "FIX-HEX", "--cuts", "1,1,1", "--window", "100000"),
        ("escape", "FIX-HEX", "--target", "(+,+,+)", "--window", "100000"),
    ):
        proc = run_cli(*argv, expect=1, timeout=30)
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["code"] == "malformed-input"


def test_class_listings_past_the_cap_fail_fast(tmp_path):
    # 3^14 classes: refused before the first is listed, where `report` and
    # `boundary` used to end in a MemoryError under tier-1's 4 GiB limit
    names = [f"c{j}" for j in range(14)]
    walls, chains = tmp_path / "walls.json", tmp_path / "chains.json"
    geometry = [{"normal": ["1", str(j)], "spacing": "1", "offset": "0"} for j in range(14)]
    walls.write_text(json.dumps({"chains": names, "geometry": geometry}))
    chains.write_text(json.dumps({"chains": names}))
    for argv in (
        ("report", str(walls), "--windows", "0"),
        ("report", str(walls)),  # its windows are past the window cap too
        ("boundary", str(chains)),
        ("boundary", str(walls), "--format", "structured"),
    ):
        start = time.perf_counter()
        proc = run_cli(*argv, expect=1, timeout=30)
        assert time.perf_counter() - start < 1, argv
        [line] = proc.stderr.splitlines()
        diagnostic = json.loads(line)
        assert diagnostic["code"] == "malformed-input"
        assert diagnostic["message"] == "14 chains have 3^14 classes, more than 59049"
        assert proc.stdout == ""


def test_report_windows_fail_fast_together():
    # each window is under the cap, but the 500 fields together would
    # exhaust memory: refused once they pass three windows at the cap
    windows = ",".join(map(str, range(500)))
    proc = run_cli("report", "FIX-Z2", "--windows", windows, expect=1, timeout=30)
    [line] = proc.stderr.splitlines()
    diagnostic = json.loads(line)
    assert diagnostic["code"] == "malformed-input"
    assert diagnostic["message"] == "windows up to 131 hold 3066580 tuples, more than 3000000"


def test_report_refuses_window_with_windows():
    # a sweep is asked for one way: --window and --windows together are a
    # usage error, not a silent choice of --window
    proc = run_cli("report", "FIX-HEX", "--windows", "1,2", "--window", "3", expect=2)
    assert "not allowed with argument" in proc.stderr


def test_report_single_window_flag():
    proc = run_cli("report", "FIX-HEX", "--window", "10")
    assert "escaping ray: yes" in proc.stdout


def test_repeated_windows_report():
    # --window 1 sweeps 1,1,1: a repeated window is swept once
    proc = run_cli("report", "FIX-HEX", "--window", "1", "--format", "structured")
    assert json.loads(proc.stdout)["report"]["windows"] == [1]
    run_cli("report", "FIX-HEX", "--windows", "5,5")


def test_report_sweep_stays_within_window():
    # --window 0 sweeps window 0 alone, never window 1, and is answered
    # exactly as --windows 0 is
    proc = run_cli("report", "FIX-HEX", "--window", "0", "--format", "structured")
    same = run_cli("report", "FIX-HEX", "--windows", "0", "--format", "structured")
    assert proc.stdout == same.stdout
    assert json.loads(proc.stdout)["report"]["windows"] == [0]
    proc = run_cli("report", "FIX-HEX", "--window", "4", "--format", "structured")
    assert json.loads(proc.stdout)["report"]["windows"] == [2, 3, 4]


def test_boundary_document_reloads():
    proc = run_cli("boundary", "FIX-HEX", "--format", "structured")
    doc = json.loads(proc.stdout)["document"]
    from pocsets.formats import chain_family_from_document

    family, model = chain_family_from_document(doc)
    assert family.names == ("r", "s", "t")
    assert model is not None


def test_zero_denominator_in_a_direction_is_malformed_input():
    for witness, argv in (
        ("1/0", ("rho", "FIX-HEX", "--direction", "1/0,1")),
        ("√3/0", ("restrict", "FIX-HEX", "--direction", "1,0", "--base", "0,√3/0")),
    ):
        proc = run_cli(*argv, expect=1)
        [line] = proc.stderr.splitlines()
        diag = json.loads(line)
        assert diag["code"] == "malformed-input" and diag["witness"] == witness


@pytest.mark.parametrize("spacing", ["0", "-1/2"])
def test_a_spacing_that_is_not_positive_is_refused_in_one_line(tmp_path, spacing):
    family = lambda normal, spacing: {"normal": normal, "spacing": spacing, "offset": "0"}
    doc = tmp_path / "walls.json"
    geometry = [family(["1", "0"], spacing), family(["0", "1"], "1")]
    doc.write_text(json.dumps({"chains": ["a", "b"], "geometry": geometry}))
    proc = run_cli("image", str(doc), expect=1)
    [line] = proc.stderr.splitlines()
    assert json.loads(line) == {
        "code": "malformed-input",
        "message": "spacing must be positive",
        "witness": spacing,
    }


def test_unreadable_documents_are_malformed_input(tmp_path):
    # a file that is not UTF-8, and a directory: one JSON line each
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"chains": ["é"], "geometry": null}'.encode("latin-1"))
    for source in (latin, tmp_path):
        proc = run_cli("boundary", str(source), expect=1)
        [line] = proc.stderr.splitlines()
        diag = json.loads(line)
        assert diag["code"] == "malformed-input" and diag["witness"] == str(source)


def test_hostile_literals_and_documents_are_malformed_input(tmp_path):
    # an integer past int()'s digit limit, in a literal or in the JSON, and
    # JSON nested past the recursion limit: one JSON line each, no traceback;
    # the literal is echoed up to TEXT_WIDTH characters
    from pocsets.errors import TEXT_WIDTH

    nines = "9" * 5000
    cut = f"{nines[:TEXT_WIDTH]}<{5000 - TEXT_WIDTH} more characters>"
    normal = tmp_path / "long-normal.json"
    normal.write_text(json.dumps({"chains": ["r"], "geometry": [{"normal": [nines, "1"]}]}))
    pairs = tmp_path / "long-pairs.json"
    pairs.write_text('{"pairs": %s}' % nines)
    deep = tmp_path / "deep.json"
    deep.write_text('{"pairs": %s}' % ("[" * 100_000 + "]" * 100_000))
    for witness, argv in (
        (cut, ("rho", "FIX-HEX", f"--direction={nines},1")),
        (cut, ("restrict", "FIX-Z2", "--direction=1,1", f"--base={nines},0")),
        (cut, ("rho", str(normal), "--direction=1,0")),
        (str(pairs), ("validate", str(pairs))),
        (str(deep), ("validate", str(deep))),
    ):
        proc = run_cli(*argv, expect=1, timeout=60)
        [line] = proc.stderr.splitlines()
        diag = json.loads(line)
        assert diag["code"] == "malformed-input" and diag["witness"] == witness


def test_deep_witnesses_are_one_json_line(tmp_path):
    # a refused field nested 900 deep, which json.loads still accepts: the
    # witness is cut to WITNESS_DEPTH levels and one marker instead of
    # overflowing the stack in the diagnostic
    from pocsets.errors import DEEPER, WITNESS_DEPTH

    nested = "[" * 900 + "]" * 900
    order = tmp_path / "deep-order.json"
    order.write_text('{"pairs": 1, "order": %s}' % nested)
    normal = tmp_path / "deep-normal.json"
    normal.write_text('{"chains": ["r"], "geometry": [{"normal": %s}]}' % nested)
    for argv in (("validate", str(order)), ("rho", str(normal), "--direction=1,0")):
        proc = run_cli(*argv, expect=1, timeout=60)
        [line] = proc.stderr.splitlines()
        witness, levels = json.loads(line)["witness"], 0
        while isinstance(witness, list):
            [witness], levels = witness, levels + 1
        assert (witness, levels) == (DEEPER, WITNESS_DEPTH), argv


def test_wide_witnesses_are_one_short_json_line(tmp_path):
    # a refused value as wide as the whole document: each list of the witness
    # keeps WITNESS_WIDTH items and a marker, the message TEXT_WIDTH characters
    from pocsets.errors import TEXT_WIDTH, WITNESS_WIDTH

    wide = list(range(200_000))
    kept = wide[:WITNESS_WIDTH] + [f"<{200_000 - WITNESS_WIDTH} more items>"]
    more = f"<{100_000 - WITNESS_WIDTH} more items>"
    keys = {f"k{i}": i for i in range(100_000)}
    cases = (
        ("validate", {"pairs": 1, "order": [wide]}, kept),
        ("validate", {"kind": "chains", "walls": wide}, {"kind": "chains", "walls": kept}),
        ("validate", keys, dict(list(keys.items())[:WITNESS_WIDTH]) | {more: None}),
        ("image", {"chains": ["r"], "geometry": [{"normal": wide[:100_000]}]}, kept[:-1] + [more]),
    )
    for i, (command, doc, witness) in enumerate(cases):
        path = tmp_path / f"wide-{i}.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(command, str(path), expect=1, timeout=60)
        [line] = proc.stderr.splitlines()
        assert len(line) < 4096, (command, len(line))
        diag = json.loads(line)
        assert diag["code"] == "malformed-input" and diag["witness"] == witness
        assert len(diag["message"]) <= TEXT_WIDTH + len("<9999999 more characters>")
        if i == 0:  # the message formats the witness's bounded form, not the whole entry
            assert diag["message"].endswith(f"'<{200_000 - WITNESS_WIDTH} more items>']")


def test_wide_lists_in_literal_places_are_refused_unprinted(tmp_path):
    # a list where a handle, a chain name, a normal coordinate or a spacing
    # literal belongs is refused as a list, quoted as its witness is,
    # instead of being turned into its whole text first
    from pocsets.errors import TEXT_WIDTH, WITNESS_WIDTH

    wide = list(range(200_000))
    kept = wide[:WITNESS_WIDTH] + [f"<{200_000 - WITNESS_WIDTH} more items>"]
    cases = (
        ("validate", {"pairs": 1, "order": [["h1", wide]]}, "order handles must be names"),
        ("boundary", {"chains": [wide, "b"], "geometry": None}, "chain names must be scalars"),
        (
            "image",
            {"chains": ["r"], "geometry": [{"normal": ["1", wide]}]},
            "normal coordinates must be exact literals",
        ),
        (
            "image",
            {"chains": ["r"], "geometry": [{"normal": ["1", "0"], "spacing": wide}]},
            "spacing must be a rational literal",
        ),
    )
    for i, (command, doc, refusal) in enumerate(cases):
        path = tmp_path / f"wide-literal-{i}.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(command, str(path), expect=1, timeout=60)
        [line] = proc.stderr.splitlines()
        diag = json.loads(line)
        assert diag["code"] == "malformed-input" and diag["witness"] == kept
        assert diag["message"] == f"{refusal}, got {kept!r}"
        assert len(diag["message"]) <= TEXT_WIDTH


def test_fixtures_load_under_an_ascii_locale():
    # FIX-HEX holds √3 literals: documents are read as UTF-8, not in the
    # locale's encoding
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "LC_ALL": "C"}
    env.update(PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-m", "pocsets", "rho", "FIX-HEX", "--direction", "1,0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli("rho", "FIX-HEX", "--direction", "1,0").stdout


def test_report_refuses_a_model_without_chains(tmp_path):
    # the windowed field needs a last axis; this used to end in a traceback
    doc = tmp_path / "no-chains.json"
    doc.write_text('{"chains": [], "geometry": []}')
    proc = run_cli("report", str(doc), "--window", "2", expect=1)
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["message"] == "a wall model needs at least one family"


# ---------------------------------------------------------------------------
# start-up footprint, counted in modules rather than timed


def _modules_loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads while running `code`, beyond
    those it had already loaded (site may preload some)."""
    script = f"import json, sys\nbefore = set(sys.modules)\n{code}\n" + (
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


PLANAR = {"fractions", "pocsets.chains", "pocsets.euclid", "pocsets.exactnum"}
PLANAR |= {"pocsets.shadows", "pocsets.render"}


def test_importing_the_cli_loads_no_layer():
    loaded = _modules_loaded_by("import pocsets.cli")
    assert "pocsets.cli" in loaded
    heavy = {"dataclasses", "random", "pocsets.cubing", *PLANAR}
    assert loaded & heavy == set()


def test_planar_layer_loads_no_fractions():
    # every planar number is an ExactNumber, spacing and offset literals
    # included, so neither the layer nor a report on a document loads Fraction
    loaded = _modules_loaded_by("import pocsets.shadows")
    assert "pocsets.shadows" in loaded
    assert loaded & {"fractions", "decimal"} == set()
    loaded = _modules_loaded_by(
        "import pocsets.cli\npocsets.cli.main(['report', 'FIX-HEX', '--window', '1'])"
    )
    assert "pocsets.shadows" in loaded
    assert loaded & {"fractions", "decimal"} == set()


def test_validate_loads_no_planar_module():
    loaded = _modules_loaded_by("import pocsets.cli\npocsets.cli.main(['validate', 'FIX-SQ'])")
    assert "pocsets.formats" in loaded
    assert loaded & PLANAR == set()


def test_no_module_imports_dataclasses():
    # records are plain slotted classes: decorating one cost about 0.8 ms
    # of every CLI start, and `dataclasses` itself pulls in inspect and ast
    import ast
    import pathlib

    import pocsets

    offenders = []
    for path in sorted(pathlib.Path(pocsets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "dataclasses" for m in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_handlers_only_compute_and_print():
    # one input path: `main` is the only function that calls a loader, and a
    # handler neither imports a loader, reads the input argument nor returns
    # a value
    import ast

    from pocsets import cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    handlers, loading = [], set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        if fn.name.startswith("cmd_"):
            handlers.append(fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "load" or name.startswith("load_"):
                    loading.add(fn.name)
            if not fn.name.startswith("cmd_"):
                continue
            if isinstance(node, ast.ImportFrom):
                assert not [a.name for a in node.names if a.name.startswith("load_")], fn.name
            assert not (isinstance(node, ast.Return) and node.value is not None), fn.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "input"), fn.name
    assert len(handlers) == 13
    assert loading == {"main"}


# each subcommand's input and required options, and an int option it takes
COMMANDS = {
    "validate": (["FIX-SQ"], None),
    "ultrafilters": (["FIX-SQ"], None),
    "cubing": (["FIX-SQ"], None),
    "dual": (["FIX-SQ"], "--samples"),
    "boundary": (["FIX-Z3"], None),
    "rho": (["FIX-Z2", "--direction", "1,0"], None),
    "image": (["FIX-HEX"], None),
    "safe": (["FIX-HEX"], None),
    "closure": (["FIX-HEX"], None),
    "restrict": (["FIX-HEX", "--direction", "1,0"], None),
    "shadows": (["FIX-HEX", "--cuts", "5,5,5"], "--window"),
    "escape": (["FIX-HEX", "--target", "(+,+,+)"], "--length"),
    "report": (["FIX-HEX"], "--window"),
}


def _parsers_built(monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def _usage_outcome(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_subcommand_parser_prints_what_the_full_build_prints(
    command, columns, monkeypatch, capsys
):
    # `main` builds the root parser and the subparser argv[0] names; its
    # help and usage errors, root ones included, read as the full build's
    from pocsets.cli import build_parser, main

    monkeypatch.setenv("COLUMNS", columns)
    args, int_option = COMMANDS[command]
    base = [command, *args]
    runs = [
        [command, "-h"],
        [command],
        [*base, "--bogus"],
        [*base, "--format", "nope"],
        [*base, "--version"],
    ]
    if len(args) > 1:  # a required option left out
        runs.append([command, args[0]])
    if int_option:
        runs.append([*base, int_option, "x"])
    if command == "report":
        runs.append([*base, "--window", "3", "--windows", "1"])
    built = _parsers_built(monkeypatch)
    for argv in runs:
        del built[:]
        one = _usage_outcome(main, argv, capsys)
        assert len(built) == 2, argv
        full = _usage_outcome(lambda argv: build_parser().parse_args(argv), argv, capsys)
        assert len(built) == 2 + 14, argv
        assert one == full and one[0] in (0, 2), argv
        assert (one[0] == 0) == (argv[-1] == "-h"), argv
    # the root usage of a partial build names every subcommand
    assert "{" + ",".join(COMMANDS) + "}" in _usage_outcome(main, [*base, "--version"], capsys)[2]


@pytest.mark.parametrize(
    "argv, code",
    [(["-h"], 0), (["--help"], 0), (["--version"], 0), ([], 2), (["bogus"], 2), (["-x"], 2)],
)
def test_help_version_and_unknown_commands_build_every_parser(argv, code, monkeypatch, capsys):
    from pocsets import __version__
    from pocsets.cli import main

    built = _parsers_built(monkeypatch)
    outcome = _usage_outcome(main, argv, capsys)
    assert outcome[0] == code and len(built) == 14
    if argv == ["--version"]:
        assert outcome[1] == __version__ + "\n"
    elif code == 0:
        assert all(f"    {name} " in outcome[1] for name in COMMANDS)
    else:
        assert "{" + ",".join(COMMANDS) + "}" in outcome[2]


def test_a_run_builds_two_parsers(monkeypatch, capsys):
    from pocsets.cli import main

    built = _parsers_built(monkeypatch)
    assert main(["validate", "FIX-SQ"]) == 0
    assert built == ["pocsets", "pocsets validate"]
    assert capsys.readouterr().out == "valid poc-set: 2 proper pairs\n"


class _CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ultrafilters", "FIX-TRIPOD"], 0),
        (["boundary", "FIX-Z3"], 0),
        (["report", "FIX-HEX", "--windows", "3,5,7", "--format", "structured"], 0),
        (["cubing", "FIX-SQ", "--format", "dot"], 0),
        (["shadows", "FIX-HEX", "--cuts", "1,2", "--window", "4"], 1),
        (["rho", "FIX-Z2"], 2),
    ],
)
def test_a_run_reaches_each_stream_in_one_write(argv, code, monkeypatch):
    # `main` holds the handler's output and writes all of it at once, and a
    # refusal's diagnostic line too, and argparse's usage and message of a
    # usage error, so a closed pipe ends every run alike
    from pocsets.cli import main

    out, err = _CountingWriter(), _CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    assert status == code
    monkeypatch.undo()
    proc = run_cli(*argv, expect=code)
    assert (out.getvalue(), err.getvalue()) == (proc.stdout, proc.stderr)
    assert (out.writes, err.writes) == ((1, 0) if code == 0 else (0, 1))
    # every output here is several lines, each of which a `print` wrote; a
    # usage error is argparse's usage and then its message, written apart
    if code == 0:
        assert proc.stdout.count("\n") > 2
    elif code == 2:
        assert proc.stderr.startswith("usage:") and "error:" in proc.stderr


class _ShortWrites(io.RawIOBase):
    """A raw stream that takes at most three bytes per write, as an
    unbuffered pipe may take fewer than it is given."""

    def __init__(self):
        super().__init__()
        self.taken, self.calls = bytearray(), 0

    def writable(self):
        return True

    def write(self, data):
        self.calls += 1
        self.taken += bytes(data[:3])
        return min(3, len(data))


@pytest.mark.parametrize(
    "argv, code", [(["boundary", "FIX-Z3"], 0), (["rho", "FIX-HEX", "--direction", "0,0"], 1)]
)
def test_a_stream_that_takes_a_few_bytes_per_write_gets_every_byte(argv, code, monkeypatch):
    # a text layer over an unbuffered binary one passes each short count on
    # as if all were written; `main` writes the rest until all is taken
    from pocsets.cli import main

    out, err = _ShortWrites(), _ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8", write_through=True))
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(err, encoding="utf-8", write_through=True))
    assert main(argv) == code
    monkeypatch.undo()
    proc = run_cli(*argv, expect=code)
    assert (out.taken.decode(), err.taken.decode()) == (proc.stdout, proc.stderr)
    written = proc.stdout if code == 0 else proc.stderr
    assert (out if code == 0 else err).calls == -(-len(written.encode()) // 3) > 10


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_reader_that_leaves_early_ends_a_large_run_with_exit_1(unbuffered, tmp_path):
    # 0.9 MB of output, more than a pipe holds: the reader takes one byte
    # and leaves while the one write is under way, and the run ends with
    # exit 1 and nothing on stderr, unbuffered too, where the text layer
    # would take the short count for the whole
    doc = tmp_path / "z7.json"
    doc.write_text(json.dumps({"chains": [f"c{j}" for j in range(7)]}))
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "pocsets", "boundary", str(doc), "--format", "structured"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.read(1)
        proc.stdout.close()
        status = proc.wait(timeout=60)
        stderr = proc.stderr.read()
    assert (first, status, stderr) == (b"{", 1, b"")


def test_dual_reads_its_document_before_the_sample_count(capsys):
    from pocsets.cli import main

    assert main(["dual", "FIX-Z2", "--samples", "-1"]) == 1
    assert "not a poc-set document" in json.loads(capsys.readouterr().err)["message"]


def _process_outcome(*argv, entry="pocsets"):
    proc = subprocess.run(
        [sys.executable, "-m", entry, *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "COLUMNS": "80"},
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["--version"], 0),
        (["validate", "FIX-SQ", "--format", "structured"], 0),
        (["report", "FIX-HEX", "--length", "6"], 2),
        (["shadows", "FIX-HEX", "--cuts", "1,2", "--window", "4"], 1),
    ],
)
def test_a_process_exits_as_main_returns(argv, code, monkeypatch, capsys):
    # `run` freezes the heap on the way out and changes nothing else: each
    # entry prints what in-process `main` prints and exits with its status,
    # argparse's exits included, and a refusal is one JSON line
    from pocsets.cli import main

    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    expected = (status, *capsys.readouterr())
    assert expected[0] == code
    assert _process_outcome(*argv) == _process_outcome(*argv, entry="pocsets.cli") == expected
    if code == 1:
        assert json.loads(expected[2])["code"] == "chain-count-mismatch"
        assert len(expected[2].splitlines()) == 1


@pytest.mark.parametrize("argv, code", [(["validate", "FIX-SQ"], 0), (["rho", "FIX-Z2"], 2)])
def test_main_never_freezes(argv, code, capsys):
    # a success and a usage error: only `run` freezes, since in-process
    # callers would never collect a frozen heap
    import gc

    from pocsets.cli import main

    frozen = gc.get_freeze_count()
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    capsys.readouterr()
    assert (status, gc.get_freeze_count()) == (code, frozen)


def test_run_freezes_the_heap_before_the_interpreter_exits():
    script = (
        "import atexit, gc, sys\n"
        "from pocsets import cli\n"
        "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0))\n"
        "sys.argv[1:] = ['validate', 'FIX-SQ']\n"
        "cli.run()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "valid poc-set: 2 proper pairs\nfrozen: True\n", ""
    )


def test_both_process_entries_name_run():
    # read as text: `tomllib` is not in Python 3.10
    root = Path(SRC).parent
    scripts = (root / "pyproject.toml").read_text().split("[project.scripts]\n")[1]
    assert scripts.splitlines()[0] == 'pocsets = "pocsets.cli:run"'
    main_module = (Path(SRC) / "pocsets" / "__main__.py").read_text()
    assert main_module == "from .cli import run\n\nrun()\n"
