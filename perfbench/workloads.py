"""The four benchmark workloads: seeded input generators, one op each and
an independent output check per op.

A workload object lives in one fresh process (so the package's module-level
caches start empty).  `setup()` imports the package and builds prepared
state; `inputs()` yields op inputs made only from the seed; `run(inp)`
performs one op and returns (status, output) with status "ok" or
"refused"; `check(inp, status, output)` returns None or the reason the
output is wrong.  Checks run after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# normals at multiples of 30 degrees: (a, b) for a + b*sqrt(3) coordinates
_HALF = Fraction(1, 2)
_UNIT = [
    ((1, 0), (0, 0)),
    ((0, _HALF), (_HALF, 0)),
    ((_HALF, 0), (0, _HALF)),
    ((0, 0), (1, 0)),
    ((-_HALF, 0), (0, _HALF)),
    ((0, -_HALF), (_HALF, 0)),
]
_UNIT += [((-a[0], -a[1]), (-b[0], -b[1])) for a, b in _UNIT]


def wall_model_spec(rng: random.Random, directions) -> tuple:
    """A hashable wall-model description: per chain (normal index, spacing,
    offset).  The normal index j means the angle 30j degrees; chain i's
    normal is `directions[i]` or its opposite, at random, so repeated
    directions give parallel families.  |offset| < spacing keeps the
    origin's chamber at cuts in {0, 1}, so every window holds a consistent
    tuple."""
    chains = []
    for d in directions:
        j = (d + 6 * rng.randrange(2)) % 12
        spacing = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        offset = Fraction(rng.randint(-5, 5), 6) * spacing
        chains.append((j, spacing, offset))
    return tuple(chains)


def wall_model(spec):
    from pocsets.chains import ChainFamily
    from pocsets.euclid import WallFamily, WallModel
    from pocsets.exactnum import ExactNumber

    families = []
    for j, spacing, offset in spec:
        (ax, bx), (ay, by) = _UNIT[j]
        normal = (ExactNumber(Fraction(ax), Fraction(bx)), ExactNumber(Fraction(ay), Fraction(by)))
        families.append(WallFamily(normal, spacing, offset))
    names = tuple(f"c{i}" for i in range(len(spec)))
    return WallModel(ChainFamily(names), tuple(families))


def wall_directions(spec) -> int:
    """Distinct wall directions, straight from the normal indices."""
    return len({j % 6 for j, _, _ in spec})


def random_pocset(rng: random.Random, n: int, generators: int):
    """A poc-set on n proper pairs from random order generators, drawn the
    way `pocsets dual --samples` draws them; retried on an axiom violation."""
    from pocsets.core import FinitePocSet
    from pocsets.errors import AxiomViolation

    while True:
        edges = [(rng.randrange(2 * n), rng.randrange(2 * n)) for _ in range(generators)]
        try:
            return FinitePocSet.from_order_generators(n, edges)
        except AxiomViolation:
            continue


class Workload:
    name = ""
    trace_ops = 0  # op count of a traced pass
    cycle = 1  # ops per cycle of the input mix; every cycle has the same mix
    refusals: tuple = ()  # documented domain errors an op may end in
    tracer = None  # the worker's Tracer in a traced pass
    YARDSTICK_NOMINAL_S = 1e-3

    def yardstick(self) -> float:
        """How many times YARDSTICK_NOMINAL_S a fixed computation that
        resembles this workload's ops takes right now.  The shared machine
        the benchmark runs on changes speed by up to two times within a
        minute; dividing each time by the yardstick run next to it keeps
        the figures about the program.  Here: Fraction arithmetic with
        small dict and tuple churn, as in the package's hot paths."""
        start = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 60):
            q = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, 2)
            acc += q
            table[(i, i % 7)] = (q, acc)
        return (time.perf_counter() - start) / self.YARDSTICK_NOMINAL_S

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, status, out):
        raise NotImplementedError


class HexQueries(Workload):
    """hex-queries: one `shadow_report` per op on FIX-HEX at window 12, on
    cut tuples uniform in [-10, 10]^3; about a quarter are refused with
    `WindowTooSmall`.

    Why: after setup the per-tuple query path dominates (`argmin` runs four
    times per report with a linear member scan) and the oracle is confined
    to set-up, so query-path changes show here apart from oracle changes."""

    name = "hex-queries"
    trace_ops = 300
    cycle = 100
    WINDOW = 12
    RANGE = 10

    def setup(self):
        from pocsets.errors import WindowTooSmall
        from pocsets.formats import fixture_model
        from pocsets.shadows import window_field

        self.refusals = (WindowTooSmall,)
        self.model = fixture_model("FIX-HEX")
        window_field(self.model, self.WINDOW)

    def inputs(self):
        rng = random.Random(self.seed)
        r = self.RANGE
        while True:
            yield (rng.randint(-r, r), rng.randint(-r, r), rng.randint(-r, r))

    def run(self, cuts):
        from pocsets.shadows import ChainUltrafilter, shadow_report

        report = shadow_report(self.model, ChainUltrafilter(cuts), self.WINDOW)
        return "ok", report.to_json()

    def _members(self):
        if not hasattr(self, "_members_cache"):
            from pocsets.shadows import interval_consistent

            w = self.WINDOW
            self._members_cache = [
                c
                for c in itertools.product(range(-w, w + 1), repeat=3)
                if interval_consistent(self.model, c)
            ]
        return self._members_cache

    def check(self, cuts, status, out):
        members = self._members()
        dists = [sum(abs(a - b) for a, b in zip(cuts, m)) for m in members]
        best = min(dists)
        nearest = [list(m) for m, d in zip(members, dists) if d == best]
        touches = any(abs(c) == self.WINDOW for m in nearest for c in m)
        if status == "refused":
            return None if touches else "refused although no minimizer touches the window"
        if out["dist"] != best:
            return f"dist {out['dist']} != brute-force {best}"
        if out["shadow"] != nearest:
            return "shadow differs from the brute-force minimizers"
        if touches:
            return "answered although a minimizer touches the window"
        return None


class ModelReports(Workload):
    """model-reports: per op, `rho_image`, `safe_components`,
    `closure_check` and `surjectivity_report` on a freshly generated wall
    model (k in {2, 3, 4}, normals at multiples of 30 degrees, rational
    spacing and offset, two models in nine all-parallel), so every window
    field is built cold.  Nine wall-direction sets cycle in a fixed order.

    Why: the oracle, the enumeration and the BFS do almost all of the work
    and `argmin` is never called; this is the build-heavy twin of
    hex-queries.  k varies, so a change in how enumeration scales with k
    shows."""

    name = "model-reports"
    trace_ops = 18
    cycle = 9
    # windows shrink as k grows (the per-tuple oracle cost grows with k);
    # one k=4 op still costs about five k=2 or k=3 ops
    WINDOWS = {2: (4, 8, 12), 3: (1, 2, 3), 4: (1, 2)}
    # wall directions (angle / 30 degrees) of the models, in a fixed order:
    # they set an op's cost, so every run sees the same mix of costs, while
    # orientations, spacings and offsets come from the seed; the last two
    # are all-parallel (non-uniform)
    DIRECTIONS = [(0, 2), (1, 2, 5), (1, 3), (0, 2, 4), (0, 1, 2, 3),
                  (0, 3), (0, 1, 3), (2, 2), (1, 1, 1)]
    CHECK_SAMPLE = 16

    def setup(self):
        import pocsets.euclid  # noqa: F401
        import pocsets.shadows  # noqa: F401
        from pocsets.errors import WindowTooSmall

        self.refusals = (WindowTooSmall,)

    def inputs(self):
        rng = random.Random(self.seed)
        seen = set()
        for directions in itertools.cycle(self.DIRECTIONS):
            spec = wall_model_spec(rng, directions)
            while spec in seen:
                spec = wall_model_spec(rng, directions)
            seen.add(spec)
            yield spec

    def run(self, spec):
        from pocsets.chains import format_signature
        from pocsets.euclid import closure_check, rho_image, safe_components
        from pocsets.shadows import surjectivity_report, window_field

        model = wall_model(spec)
        windows = self.WINDOWS[len(spec)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            image = rho_image(model)
            components = safe_components(image.signatures())
            closure = closure_check(model)
            report = surjectivity_report(model, windows=windows)
        return "ok", {
            "image": image.to_json(),
            "safe": [[format_signature(s) for s in comp] for comp in components],
            "closure": closure.to_json(),
            "report": report.to_json(),
            "members": {str(w): [list(m) for m in window_field(model, w).members] for w in windows},
        }

    def check(self, spec, status, out):
        from pocsets.chains import ChainHalfspace
        from pocsets.shadows import is_consistent_set

        k = len(spec)
        windows = self.WINDOWS[k]
        if status == "refused":
            # the only refusal expected: a probe ray step left the largest window
            witness = out.get("witness")
            if isinstance(witness, list) and len(witness) == k and max(map(abs, witness)) > windows[-1]:
                return None
            return f"unexpected refusal: {out.get('message')}"
        model = wall_model(spec)

        def consistent(cuts):
            return is_consistent_set(
                model,
                [h for i, c in enumerate(cuts)
                 for h in (ChainHalfspace(i, c - 1, False), ChainHalfspace(i, c, True))],
            )

        d = wall_directions(spec)
        if len(out["image"]["classes"]) > 4 * d:
            return f"rho image has {len(out['image']['classes'])} classes for {d} directions"
        report = out["report"]
        if report["uniform"] != (d >= 2):
            return "uniformity flag disagrees with the wall directions"
        w0, wmax = windows[0], windows[-1]
        small = out["members"][str(w0)]
        box = [list(c) for c in itertools.product(range(-w0, w0 + 1), repeat=k)]
        if small != [c for c in box if consistent(c)]:
            return f"consistent set in window {w0} differs from the elimination path"
        for w in windows[1:]:
            inner = [m for m in out["members"][str(w)] if max(map(abs, m)) <= w0]
            if inner != small:
                return f"window {w} does not restrict to window {w0}"
        worst = max(min(sum(abs(a - b) for a, b in zip(c, m)) for m in small) for c in box)
        if report["max_delta"][0] != worst:
            return f"max delta {report['max_delta'][0]} in window {w0} != brute-force {worst}"
        rng = random.Random(repr(spec))
        big = out["members"][str(wmax)]
        big_set = {tuple(m) for m in big}
        if not all(consistent(m) for m in rng.sample(big, min(len(big), self.CHECK_SAMPLE))):
            return f"a member of window {wmax} is inconsistent"
        box = itertools.product(range(-wmax, wmax + 1), repeat=k)
        outside = [c for c in box if c not in big_set]
        if any(consistent(c) for c in rng.sample(outside, min(len(outside), self.CHECK_SAMPLE))):
            return f"a non-member of window {wmax} is consistent"
        return None


class FiniteDuality(Workload):
    """finite-duality: per op, `ultrafilters`, `build_cubing` and
    `duality_roundtrip` on a poc-set with n = 4..8 proper pairs from random
    order generators.  Set-up draws a pool: for each (pairs, ultrafilters)
    target, COPIES poc-sets with exactly that many ultrafilters, and the ops
    cycle through the pool.  The vertex count of the dual complex sets most
    of an op's cost, so fixing it per slot gives every seed nearly the same
    mix of costs; `core` and `cubing` keep no cache, so a poc-set costs the
    same each time it comes round.

    Why: only `core` and `cubing` run here; `build_cubing` visits every
    d-cube from all 2^d corners and tests every subset of min(u).  A
    change to the planar layers predicts no change on this workload."""

    name = "finite-duality"
    # (pairs, ultrafilters, copies).  Bigger complexes (up to the 8-cube,
    # 256 vertices) take 1-6 s per op and a few would decide a run; n = 8
    # gets one copy because drawing one with 32 ultrafilters takes ~1 s.
    TARGETS = [(4, 8, 3), (4, 12, 3), (5, 12, 3), (5, 16, 3), (6, 16, 3),
               (6, 24, 3), (7, 24, 3), (7, 32, 2), (8, 32, 1)]
    cycle = sum(copies for _, _, copies in TARGETS)
    trace_ops = 2 * cycle

    def setup(self):
        import pocsets.cubing  # noqa: F401

        rng = random.Random(self.seed)
        self.pool = []
        for n, vertices, copies in self.TARGETS:
            for _ in range(copies):
                p = random_pocset(rng, n, rng.randint(0, 2 * n))
                while len(p.ultrafilters()) != vertices:
                    p = random_pocset(rng, n, rng.randint(0, 2 * n))
                self.pool.append(p)

    def inputs(self):
        return itertools.cycle(self.pool)

    def run(self, p):
        from pocsets.cubing import build_cubing, duality_roundtrip

        ufs = p.ultrafilters()
        complex_ = build_cubing(p)
        report = duality_roundtrip(p)
        return "ok", {
            "pairs": p.n_pairs,
            "ultrafilters": [list(u.signs) for u in ufs],
            "edges": len(complex_.edges),
            "cubes": {str(d): len(cs) for d, cs in sorted(complex_.cubes.items())},
            "isomorphic": report.isomorphic,
        }

    def check(self, p, status, out):
        from pocsets.core import star

        if status != "ok":
            return "refused"
        if not out["isomorphic"]:
            return "duality round-trip failed"
        euler = len(out["ultrafilters"]) - out["edges"] + sum(
            (-1) ** int(d) * c for d, c in out["cubes"].items()
        )
        if euler != 1:
            return f"Euler characteristic {euler} != 1"
        count = 0
        for signs in itertools.product((0, 1), repeat=p.n_pairs):
            members = [2 * i + s for i, s in enumerate(signs)]
            if not any(p.leq(x, star(y)) for x in members for y in members):
                count += 1
        if count != len(out["ultrafilters"]):
            return f"{len(out['ultrafilters'])} ultrafilters, brute force finds {count}"
        return None


class CliMix(Workload):
    """cli-mix: one `python -m pocsets` subprocess per op, one at a time,
    cycling through all 13 subcommands with seeded arguments, on the shipped
    fixtures and JSON files generated in set-up.  `shadows`, `escape` and
    `report` run on FIX-HEX at window 4, so their cost does not depend on
    the geometry the seed draws.

    Why: this is the path every CLI user pays: interpreter start, importing
    `pocsets.cli`, loading inputs and emitting output.  No in-process
    workload sees this layer."""

    name = "cli-mix"
    trace_ops = 26
    cycle = 13
    WINDOW = 4
    COMMANDS = (
        "validate ultrafilters cubing dual boundary rho image safe closure "
        "restrict shadows escape report"
    ).split()
    YARDSTICK_NOMINAL_S = 0.1
    POCSET_FIXTURES = ["FIX-LINE3", "FIX-SQ", "FIX-TRIPOD"]
    MODEL_FIXTURES = ["FIX-Z1", "FIX-Z2", "FIX-HEX"]
    CHAIN_FIXTURES = ["FIX-Z3", "FIX-Z4"]

    def setup(self):
        from pocsets.formats import chain_family_to_document, pocset_to_document

        rng = random.Random(f"files-{self.seed}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.pocsets = list(self.POCSET_FIXTURES)
        for i in range(3):
            path = self.workdir / f"pocset{i}.json"
            n = rng.randint(2, 5)
            p = random_pocset(rng, n, rng.randint(0, 2 * n))
            path.write_text(json.dumps(pocset_to_document(p)))
            self.pocsets.append(str(path))
        self.models = list(self.MODEL_FIXTURES)
        for i, k in enumerate((2, 3, 3)):
            path = self.workdir / f"model{i}.json"
            model = wall_model(wall_model_spec(rng, rng.sample(range(6), k)))
            path.write_text(json.dumps(chain_family_to_document(model.chains, model)))
            self.models.append(str(path))
        self.chain_docs = self.models + self.CHAIN_FIXTURES
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _argv(self, rng, command):
        fmt = lambda *extra: ["--format", rng.choice(("text", "structured") + extra)]
        vec = lambda: ",".join(str(rng.choice([-2, -1, 1, 2, 3])) for _ in range(2))
        if command in ("validate", "ultrafilters"):
            return [command, rng.choice(self.pocsets), *fmt()]
        if command == "cubing":
            return [command, rng.choice(self.pocsets), *fmt("dot")]
        if command == "dual":
            return [command, rng.choice(self.pocsets), "--samples", str(rng.randint(0, 5)),
                    "--seed", str(rng.randint(0, 99)), *fmt()]
        if command == "boundary":
            return [command, rng.choice(self.chain_docs), *fmt()]
        model = rng.choice(self.models)  # drawn for every command, FIX-HEX ones too
        if command == "rho":
            return [command, model, f"--direction={vec()}", *fmt()]
        if command in ("image", "safe", "closure"):
            return [command, model, *fmt()]
        if command == "restrict":
            return [command, model, f"--direction={vec()}", f"--base={vec()}", *fmt()]
        window = ["--window", str(self.WINDOW)]
        if command == "shadows":
            cuts = ",".join(str(rng.randint(-3, 3)) for _ in range(3))
            return [command, "FIX-HEX", f"--cuts={cuts}", *window, *fmt("svg")]
        if command == "escape":
            sig = ["0"] * 3
            while sig == ["0"] * 3:
                sig = [rng.choice("+0-") for _ in range(3)]
            return [command, "FIX-HEX", f"--target=({','.join(sig)})",
                    "--length", str(rng.randint(1, 3)), *window, *fmt()]
        return [command, "FIX-HEX", *window, *fmt()]

    def yardstick(self) -> float:
        """Here: starting an empty interpreter, as every op starts one."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        return (time.perf_counter() - start) / self.YARDSTICK_NOMINAL_S

    def inputs(self):
        rng = random.Random(self.seed)
        for command in itertools.cycle(self.COMMANDS):
            yield self._argv(rng, command)

    def run(self, argv):
        if self.tracer is None:
            proc = self._spawn([sys.executable, "-m", "pocsets", *argv])
        else:
            proc = self._spawn_traced(self.tracer, argv)
        out = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        if proc.returncode == 0:
            return "ok", out
        if proc.returncode == 1 and _is_diagnostic(proc.stderr):
            return "refused", out
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")

    def _spawn(self, command):
        return subprocess.run(
            command, capture_output=True, text=True, env=self.env, cwd=self.workdir
        )

    def _spawn_traced(self, tracer, argv):
        """Run the op through `worker.py --mode cli-op` and graft the child's
        spans under one `cli.process` span of this op."""
        trace_file = self.workdir / "cli-op-trace.json"
        trace_file.unlink(missing_ok=True)
        worker = Path(__file__).resolve().parent / "worker.py"
        start = time.perf_counter()
        proc = self._spawn(
            [sys.executable, str(worker), "--mode", "cli-op", "--spans", str(trace_file), "--", *argv]
        )
        end = time.perf_counter()
        process_id = tracer._next_id
        tracer._next_id += 1
        tracer.spans.append((process_id, None, tracer.op, "cli.process", start, end))
        child = json.loads(trace_file.read_text())
        ids = {}
        for sid, parent, _, name, s, e in child["spans"]:
            ids[sid] = tracer._next_id
            tracer._next_id += 1
        for sid, parent, _, name, s, e in child["spans"]:
            parent_id = process_id if parent is None else ids[parent]
            tracer.spans.append((ids[sid], parent_id, tracer.op, name, s, e))
        tracer.counts.update(child["counts"])
        return proc

    def check(self, argv, status, out):
        from pocsets import cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != out["code"]:
            return f"exit {out['code']} but in-process main returns {code}"
        if stdout.getvalue() != out["stdout"]:
            return "stdout differs from the in-process run"
        return None


def _is_diagnostic(stderr: str) -> bool:
    try:
        return "code" in json.loads(stderr.strip().splitlines()[-1])
    except (ValueError, IndexError, TypeError):
        return False


WORKLOADS = {w.name: w for w in (HexQueries, ModelReports, FiniteDuality, CliMix)}
