"""The pocsets benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads: hex-queries, model-reports, finite-duality, cli-mix
(see `workloads.py` for what each one stresses and why).  Each workload
runs in fresh worker processes driven by one closed-loop client.

`--trace 0` measures the end-to-end metrics: set-up runs SETUP_REPEATS
times, each in its own process, and `setup_s` is their median; the last of
those processes then runs ops for S seconds.  A shared machine can change
speed by two times within a minute, so every time is scaled by a fixed
yardstick computation timed next to it (see `workloads.Workload.yardstick`):
the figures read as if the yardstick took its nominal time.  The unscaled
times are printed too, as `wall.*`.

`--trace 1` runs a fixed op list three times, each in a fresh process:
once untraced and twice traced.  It reports the per-layer metrics of the
first traced pass, and fails the run unless all three passes give
identical output digests and the two traced passes identical counts.

Every op's output is checked right after it, outside its timing.  The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it list each metric with its unit and the
run's metadata.  The exit code is 0 when the benchmark ran, whatever it
found, and 2 when it cannot run (no package source next to it, or a
workload over its time limit).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("hex-queries", "model-reports", "finite-duality", "cli-mix")
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
RUN_TIMEOUT = 170  # seconds for all the processes of one workload's run
# exact counts two traced passes with one seed must agree on
DETERMINISTIC_COUNTS = (
    "shadows.oracle.calls",
    "shadows.enumerate.tuples",
    "shadows.query.argmin_calls",
    "cubing.subsets_tested",
    "cubing.cubes",
)

RULER_WINDOW = 9  # yardstick runs whose median scales an op

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "answered_ratio": "ratio",
    "failed_ratio": "ratio",
    "refused_ratio": "ratio",
    "wall.setup_s": "s",
    "wall.ops_per_s": "1/s",
    "wall.op_p50_ms": "ms",
}
# the metrics of the final JSON line with --trace 0 (BENCHMARK.json end_to_end).
# Printed above it only: op_p90_ms, which needs 100 ops to have ten beyond it
# and model-reports and cli-mix complete fewer, and failed_ratio and
# refused_ratio, which are 0 on most workloads (failures also count in
# "failed" and make "correct" false; answered_ratio covers both).
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb", "answered_ratio")


class BenchError(Exception):
    """The benchmark could not run."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("ratio", "yield", "per_op", "coverage_min")):
        return "ratio"
    return "count"


def spawn_worker(workload: str, seed: int, mode: str, workdir: Path, deadline: float,
                 **options) -> tuple[float, dict]:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--workdir", str(workdir),
    ]
    for key, value in options.items():
        command += [f"--{key}", str(value)]
    spawned = time.perf_counter()
    # a process group of its own, so a timeout also stops the worker's children
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT, preexec_fn=os.setpgrp
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} ran past its {RUN_TIMEOUT} s limit")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return spawned, json.loads(stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path,
               deadline: float) -> tuple[dict, dict]:
    setups, wall_setups = [], []
    for i in range(SETUP_REPEATS):
        mode = "timed" if i == SETUP_REPEATS - 1 else "setup"
        spawned, r = spawn_worker(workload, seed, mode, workdir, deadline, seconds=seconds)
        wall = r["ready"] - spawned - r["ruler_spent"]
        wall_setups.append(wall)
        setups.append(wall / r["ruler"])
    lat = r["latencies"]
    scaled = scale(lat, r["yardsticks"])
    n = r["attempted"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_p90_ms": percentile_ms(scaled, 90),
        "peak_rss_mb": r["peak_rss_mb"],
        "answered_ratio": (n - r["failed"] - r["refused"]) / n,
        "failed_ratio": r["failed"] / n,
        "refused_ratio": r["refused"] / n,
        "wall.setup_s": statistics.median(wall_setups),
        "wall.ops_per_s": n / sum(lat),
        "wall.op_p50_ms": 1e3 * statistics.median(lat),
    }
    return metrics, r


def scale(latencies, yardsticks) -> list:
    """Each latency divided by the median of the yardstick runs just before
    it (each a multiple of the yardstick's nominal time)."""
    w = RULER_WINDOW
    return [
        t / statistics.median(yardsticks[max(0, i - w + 1) : i + 1])
        for i, t in enumerate(latencies)
    ]


def percentile_ms(latencies, q: int) -> float:
    if len(latencies) < 2:
        return 1e3 * latencies[0]
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def cli_startup_ms() -> float:
    """Median wall time of `python -c "import pocsets.cli"`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pocsets.cli"], env=env, check=True)
        walls.append(time.perf_counter() - start)
    return 1e3 * statistics.median(walls)


def traced(workload: str, seed: int, workdir: Path, deadline: float) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    ops = WORKLOADS[workload].trace_ops
    _, plain = spawn_worker(workload, seed, "fixed", workdir, deadline, ops=ops)
    spans = WORK / f"spans-{workload}-seed{seed}.jsonl.gz"
    _, first = spawn_worker(workload, seed, "fixed", workdir, deadline, ops=ops, trace=1,
                            spans=spans)
    _, second = spawn_worker(workload, seed, "fixed", workdir, deadline, ops=ops, trace=1)
    problems = list(first["reasons"])
    if len({plain["digest"], first["digest"], second["digest"]}) != 1:
        problems.append("op outputs differ between passes with one seed")
    for name in DETERMINISTIC_COUNTS:
        if first["layers"][name] != second["layers"][name]:
            problems.append(f"{name} differs between passes with one seed")
    layers = dict(first["layers"])
    rate = lambda r: r["attempted"] / sum(scale(r["latencies"], r["yardsticks"]))
    layers["trace.overhead_ratio"] = rate(plain) / rate(first)
    layers["cli.startup_ms"] = cli_startup_ms() if workload == "cli-mix" else 0.0
    first["reasons"] = problems
    return layers, first


def metadata() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "pocsets").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": src_lines,
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + RUN_TIMEOUT
    try:
        if trace:
            metrics, r = traced(workload, seed, workdir, deadline)
            shown = sorted(metrics)
            unit = layer_unit
        else:
            metrics, r = end_to_end(workload, seed, seconds, workdir, deadline)
            shown = list(UNITS)
            unit = UNITS.get
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in shown:
        print(f"{workload} {name} = {metrics[name]:.6g} {unit(name)}")
    for reason in r["reasons"]:
        print(f"{workload} FAILED: {reason}")
    keep = shown if trace else END_TO_END
    return {
        "correct": not r["reasons"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit(name)} for name in keep},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pocsets" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'pocsets'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    WORK.mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(SRC / "pocsets", quiet=1)
    print(json.dumps({"meta": metadata()}))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
