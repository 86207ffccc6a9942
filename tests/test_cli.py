from __future__ import annotations

import json
import subprocess
import sys
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


def test_dual_sample_count_is_capped(monkeypatch, capsys):
    from pocsets import cli

    monkeypatch.setattr(cli, "MAX_SAMPLES", 3)
    assert cli.main(["dual", "FIX-SQ", "--samples", "3"]) == 0
    assert "sampled 3 random poc-sets" in capsys.readouterr().out
    for count, message in (("4", "above the cap of 3"), ("-1", "must be non-negative")):
        assert cli.main(["dual", "FIX-SQ", "--samples", count]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in json.loads(err)["message"]


@pytest.mark.parametrize("argv", [("validate", "FIX-SQ"), ("cubing", "FIX-SQ")])
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
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    assert len(proc.stderr.splitlines()) <= 1


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
    # JSON nested past the recursion limit: one JSON line each, no traceback
    nines = "9" * 5000
    normal = tmp_path / "long-normal.json"
    normal.write_text(json.dumps({"chains": ["r"], "geometry": [{"normal": [nines, "1"]}]}))
    pairs = tmp_path / "long-pairs.json"
    pairs.write_text('{"pairs": %s}' % nines)
    deep = tmp_path / "deep.json"
    deep.write_text('{"pairs": %s}' % ("[" * 100_000 + "]" * 100_000))
    for witness, argv in (
        (nines, ("rho", "FIX-HEX", f"--direction={nines},1")),
        (nines, ("restrict", "FIX-Z2", "--direction=1,1", f"--base={nines},0")),
        (nines, ("rho", str(normal), "--direction=1,0")),
        (str(pairs), ("validate", str(pairs))),
        (str(deep), ("validate", str(deep))),
    ):
        proc = run_cli(*argv, expect=1, timeout=60)
        [line] = proc.stderr.splitlines()
        diag = json.loads(line)
        assert diag["code"] == "malformed-input" and diag["witness"] == witness


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
