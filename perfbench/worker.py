"""One workload process: set up, run ops, check them, report.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        [--seconds S] [--ops N] [--trace 0|1] [--spans PATH] [--workdir DIR]

MODE is `setup` (set up, report when ready, exit), `timed` (ops until S
seconds have passed) or `fixed` (exactly N ops).  Each op's output is
checked right after it, outside the op's timing (in a traced pass, after
the last op), and only a digest of the outputs is kept.  Peak RSS is read
after RSS_CYCLES input cycles, so it does not depend on how many ops a run
completes.  The workload's yardstick (see `Workload.yardstick`) runs
before and after set-up and before each op, outside the op's timing.  The last stdout line is a JSON result; times are
`time.perf_counter()` readings, which on Linux share one clock
(CLOCK_MONOTONIC) with the parent process.

    python3 perfbench/worker.py --mode cli-op --spans PATH -- ARGV...

runs `pocsets ARGV...` in this process with tracing on, as a traced
cli-mix op, and writes its spans and counts to PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAX_REASONS = 5
RSS_CYCLES = 3  # peak RSS is read after this many input cycles
RULER_SAMPLES = 9  # yardstick runs around set-up, and per op the window of the last ones


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed", "cli-op"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    ap.add_argument("--workdir")
    ap.add_argument("argv", nargs="*")
    return ap.parse_args(argv)


def cli_op(args) -> int:
    """A traced `pocsets` CLI run: the import of `pocsets.cli` and every
    wrapped call become spans under this process's op."""
    import contextlib
    import io

    from tracing import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    import pocsets.cli as cli

    tracer.spans.append((-1, None, tracer.op, "cli.import", start, time.perf_counter()))
    tracer.install()
    tracer.begin_ops()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = cli.main(args.argv)
        except SystemExit as exc:
            code = exc.code
    tracer.finish()
    Path(args.spans).write_text(
        json.dumps({"spans": tracer.spans, "counts": tracer.counts})
    )
    sys.stdout.write(stdout.getvalue())
    sys.stdout.flush()
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.mode == "cli-op":
        return cli_op(args)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir or "."))
    start = time.perf_counter()
    rulers = [workload.yardstick() for _ in range(RULER_SAMPLES)]
    ruler_spent = time.perf_counter() - start
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
    workload.setup()
    ready = time.perf_counter()
    rulers += [workload.yardstick() for _ in range(RULER_SAMPLES)]
    setup = {"ready": ready, "ruler_spent": ruler_spent, "ruler": statistics.median(rulers)}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    if tracer:
        tracer.begin_ops()
    inputs = workload.inputs()
    deadline = ready + args.seconds
    rss_usage = resource.RUSAGE_CHILDREN if workload.name == "cli-mix" else resource.RUSAGE_SELF
    rss_after = RSS_CYCLES * workload.cycle
    peak_rss_mb = None
    latencies, yardsticks, statuses, reasons = [], [], [], []
    digest = hashlib.sha256()
    traced_ops = []  # checked once tracing is off, so checks leave no spans

    def settle(inp, status, out):
        """Check one op's output (the check is not timed) and fold it into
        the digest; only the digest is kept."""
        if status == "failed":
            reasons.append(out)
        else:
            reason = workload.check(inp, status, out)
            if reason is not None:
                status = "failed"
                reasons.append(reason)
        statuses.append(status)
        digest.update(json.dumps([status, out], sort_keys=True).encode())

    while True:
        if args.mode == "timed" and time.perf_counter() >= deadline:
            break
        if args.mode == "fixed" and len(latencies) >= args.ops:
            break
        if len(latencies) == rss_after:
            peak_rss_mb = resource.getrusage(rss_usage).ru_maxrss / 1024
        inp = next(inputs)
        yardsticks.append(workload.yardstick())
        if tracer:
            tracer.op = len(latencies)
        start = time.perf_counter()
        try:
            status, out = workload.run(inp)
        except workload.refusals as exc:
            status, out = "refused", exc.diagnostic()
        except Exception as exc:  # an undocumented error fails the op
            status, out = "failed", repr(exc)
        latencies.append(time.perf_counter() - start)
        if tracer:
            traced_ops.append((inp, status, out))
        else:
            settle(inp, status, out)
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(rss_usage).ru_maxrss / 1024
    if tracer:
        tracer.finish()
    for op in traced_ops:
        settle(*op)

    result = {
        **setup,
        "attempted": len(latencies),
        "failed": statuses.count("failed"),
        "refused": statuses.count("refused"),
        "reasons": reasons[:MAX_REASONS],
        "digest": digest.hexdigest(),
        "latencies": latencies,
        "yardsticks": yardsticks,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        from tracing import layer_metrics

        op_walls = dict(enumerate(latencies))
        result["layers"] = layer_metrics(tracer.spans, tracer.counts, tracer.setup_counts, op_walls)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
