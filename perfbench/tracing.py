"""Tracing of the `pocsets` layers from outside the package.

`Tracer.install` replaces public functions and methods of the `pocsets`
modules with wrappers: a span wrapper records (id, parent, op, name, start,
end) for every call, a counter wrapper only counts calls.  A function that
other modules imported by name is replaced in every module that holds it,
so calls between modules are seen too.  Spans stay in memory until the run
ends; `layer_metrics` turns them into the per-layer metrics.

Self time of a span is its duration minus the time its child spans cover.
Names missing from the package (renamed or removed by a later change) are
skipped, and the metrics they feed read 0.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path); every public entry point of a layer
SPANS = {
    "shadows.oracle": ("shadows", "ConsistencyOracle.consistent"),
    "shadows.enumerate": ("shadows", "enumerate_pi0"),
    "shadows.field": ("shadows", "window_field"),
    "shadows.query.argmin": ("shadows", "WindowField.argmin"),
    "shadows.query.dist_to_pi0": ("shadows", "dist_to_pi0"),
    "shadows.query.classify_min": ("shadows", "classify_min"),
    "shadows.query.shadow": ("shadows", "shadow"),
    "shadows.query.dual_shadow": ("shadows", "dual_shadow"),
    "shadows.report.shadow_report": ("shadows", "shadow_report"),
    "shadows.report.surjectivity_report": ("shadows", "surjectivity_report"),
    "shadows.report.escaping_ray": ("shadows", "escaping_ray"),
    "shadows.report.canonical_start": ("shadows", "canonical_start"),
    "shadows.report.max_delta": ("shadows", "max_delta_over_window"),
    "euclid.rho": ("euclid", "rho"),
    "euclid.rho_image": ("euclid", "rho_image"),
    "euclid.safe_components": ("euclid", "safe_components"),
    "euclid.closure_check": ("euclid", "closure_check"),
    "euclid.restrict_to_line": ("euclid", "restrict_to_line"),
    "euclid.line_end_incomparability": ("euclid", "line_end_incomparability"),
    "chains.flow_flip_sequence": ("chains", "flow_flip_sequence"),
    "chains.flow_step": ("chains", "flow_step"),
    "chains.all_signatures": ("chains", "all_signatures"),
    "chains.min_set": ("chains", "min_set"),
    "chains.roller_poset": ("chains", "RollerPoset.build"),
    "core.ultrafilters": ("core", "FinitePocSet.ultrafilters"),
    "core.min_set": ("core", "FinitePocSet.min_set"),
    "cubing.build": ("cubing", "build_cubing"),
    "cubing.extract": ("cubing", "extract_halfspaces"),
    "cubing.roundtrip": ("cubing", "duality_roundtrip"),
    "formats.load_document": ("formats", "load_document"),
    "formats.pocset_from_document": ("formats", "pocset_from_document"),
    "formats.chain_family_from_document": ("formats", "chain_family_from_document"),
}
SPANS.update(
    {
        f"cli.handler.{cmd}": ("cli", f"cmd_{cmd}")
        for cmd in (
            "validate ultrafilters cubing dual boundary rho image safe closure "
            "restrict shadows escape report"
        ).split()
    }
)

EXACT_OPS = (
    "__add__ __radd__ __neg__ __sub__ __rsub__ __mul__ __rmul__ "
    "__truediv__ __rtruediv__ sign"
).split()
# counter name -> [(module, attribute path)]; too frequent for spans
COUNTERS = {
    "exactnum.ops": [("exactnum", f"ExactNumber.{op}") for op in EXACT_OPS],
    "core.transverse.calls": [("core", "FinitePocSet.transverse")],
}


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.counts: Counter = Counter()
        self.setup_counts: Counter = Counter()
        self.built_cubings: list = []  # (poc-set, complex), measured in finish()
        self.field_misses = 0
        self.op = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------
    def _span(self, name: str, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.op, name, start, end))
            if after is not None:
                after(tracer, fn, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        import pocsets  # noqa: F401  (loads the package modules)
        import pocsets.cli  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n.startswith("pocsets.")]
        for name, (mod, path) in SPANS.items():
            self._patch(modules, f"pocsets.{mod}", path, name, "span")
        for name, targets in COUNTERS.items():
            for mod, path in targets:
                self._patch(modules, f"pocsets.{mod}", path, name, "counter")

    def _patch(self, modules, module_name: str, path: str, name: str, kind: str) -> None:
        module = sys.modules.get(module_name)
        if module is None:
            return
        owner, attr = _resolve(module, path)
        if owner is None or attr not in vars(owner):
            return
        original = vars(owner)[attr]
        make = self._span if kind == "span" else self._counter
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(make(name, original.__func__))
        else:
            wrapper = make(name, original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module function: replace it wherever it was imported by name
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, key, original))
                    setattr(m, key, wrapper)

    def begin_ops(self) -> None:
        """End the setup phase: later counts belong to the ops."""
        self.setup_counts = self.counts.copy()
        self.counts.clear()
        self.built_cubings.clear()

    def finish(self) -> None:
        """Restore the package and fold the deferred cubing counts in."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.counts.update(cubing_counts(self.built_cubings))
        self.built_cubings.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            for sid, parent, op, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


# -- per-call measurements, taken after the span closes --------------------


def _after_enumerate(tracer, fn, args, result):
    model, window = args[0], args[1]
    bound = window if isinstance(window, int) else window.bound
    tracer.counts["shadows.enumerate.tuples"] += (2 * bound + 1) ** model.k
    tracer.counts["shadows.enumerate.members"] += len(result)


def _after_field(tracer, fn, args, result):
    info = getattr(fn, "cache_info", None)
    misses = info().misses if info else None
    if misses is None or misses != tracer.field_misses:
        tracer.field_misses = misses or 0
        tracer.counts["shadows.field.builds"] += 1
        tracer.counts["shadows.field.table_size"] += len(result.distance_table)


def _after_argmin(tracer, fn, args, result):
    tracer.counts["shadows.query.members_scanned"] += len(args[0].members)
    tracer.counts["shadows.query.argmin_returned"] += len(result)


def _after_ultrafilters(tracer, fn, args, result):
    tracer.counts["core.ultrafilter_count"] += len(result)


def _after_build(tracer, fn, args, result):
    tracer.built_cubings.append((args[0], result))


_AFTER = {
    "shadows.enumerate": _after_enumerate,
    "shadows.field": _after_field,
    "shadows.query.argmin": _after_argmin,
    "core.ultrafilters": _after_ultrafilters,
    "cubing.build": _after_build,
}


# -- metrics ---------------------------------------------------------------


def span_totals(spans, ops):
    """Per span name: calls and self time, over the spans of the given ops."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, op, name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_time: dict[str, float] = defaultdict(float)
    for sid, parent, op, name, start, end in spans:
        if op in ops:
            calls[name] += 1
            self_time[name] += end - start - child_time[sid]
    return calls, self_time


def top_coverage(spans, op_walls: dict) -> float:
    """Smallest share of an op's wall time that its top-level spans cover."""
    covered: dict = defaultdict(float)
    for sid, parent, op, name, start, end in spans:
        if parent is None and op in op_walls:
            covered[op] += end - start
    if not op_walls:
        return 0.0
    return min(covered[op] / wall for op, wall in op_walls.items() if wall > 0)


def cubing_counts(built) -> dict:
    """Subsets of min(u) tested and cubes found by every `build_cubing`
    call, recomputed from the public poc-set API."""
    subsets = cubes = visits = 0
    for p, complex_ in built:
        for u in complex_.vertices:
            m = len(p.min_set(u))
            subsets += 2**m - m - 1
        for d, cs in complex_.cubes.items():
            cubes += len(cs)
            visits += 2**d * len(cs)
    return {
        "cubing.subsets_tested": subsets,
        "cubing.cubes": cubes,
        "cubing.cube_visits": visits,
    }


def layer_metrics(spans, counts, setup_counts, op_walls: dict) -> dict:
    """Per-layer metrics over the spans and counts of the ops in `op_walls`
    (op id -> wall seconds), plus a few of the setup phase."""
    ops = set(op_walls)
    calls, self_time = span_totals(spans, ops)
    setup_calls, setup_self = span_totals(spans, {"setup"})
    c = counts
    n_ops = max(1, len(ops))

    def ssum(prefix):
        return sum(v for k, v in self_time.items() if k.startswith(prefix + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    oracle_calls = calls["shadows.oracle"]
    tuples = c["shadows.enumerate.tuples"]
    handler: dict = defaultdict(float)  # op -> time in `cli.cmd_*` handlers
    for sid, parent, op, name, start, end in spans:
        if op in ops and name.startswith("cli.handler."):
            handler[op] += end - start
    return {
        "exactnum.ops": c["exactnum.ops"],
        "shadows.oracle.calls": oracle_calls,
        "shadows.oracle.self_s": self_time["shadows.oracle"],
        "shadows.oracle.us_per_call": 1e6 * ratio(self_time["shadows.oracle"], oracle_calls),
        "shadows.oracle.cache_hit_ratio": 1 - ratio(oracle_calls, tuples) if tuples else 0.0,
        "shadows.enumerate.tuples": tuples,
        "shadows.enumerate.members": c["shadows.enumerate.members"],
        "shadows.enumerate.yield": ratio(c["shadows.enumerate.members"], tuples),
        "shadows.enumerate.self_s": self_time["shadows.enumerate"],
        "shadows.field.calls": calls["shadows.field"],
        "shadows.field.builds": c["shadows.field.builds"],
        "shadows.field.bfs_self_s": self_time["shadows.field"],
        "shadows.field.table_size": c["shadows.field.table_size"],
        "shadows.query.argmin_calls": calls["shadows.query.argmin"],
        "shadows.query.argmin_per_op": calls["shadows.query.argmin"] / n_ops,
        "shadows.query.members_scanned": c["shadows.query.members_scanned"],
        "shadows.query.argmin_yield": ratio(
            c["shadows.query.argmin_returned"], c["shadows.query.members_scanned"]
        ),
        "shadows.query.argmin_self_s": self_time["shadows.query.argmin"],
        "shadows.query.self_s": sum(
            self_time[f"shadows.query.{q}"]
            for q in ("dist_to_pi0", "classify_min", "shadow", "dual_shadow")
        ),
        "shadows.report.shadow_report_self_s": self_time["shadows.report.shadow_report"],
        "shadows.report.surjectivity_self_s": self_time["shadows.report.surjectivity_report"],
        "shadows.report.escaping_ray_calls": calls["shadows.report.escaping_ray"],
        "shadows.report.escaping_ray_self_s": self_time["shadows.report.escaping_ray"],
        "shadows.report.refusals": c["shadows.report.shadow_report.raised"]
        + c["shadows.report.surjectivity_report.raised"],
        "euclid.rho.calls": calls["euclid.rho"],
        "euclid.self_s": ssum("euclid"),
        "chains.flow.calls": calls["chains.flow_flip_sequence"] + calls["chains.flow_step"],
        "chains.self_s": ssum("chains"),
        "core.ultrafilter_count": c["core.ultrafilter_count"],
        "core.ultrafilters_self_s": self_time["core.ultrafilters"],
        "core.transverse.calls": c["core.transverse.calls"],
        "cubing.build_self_s": self_time["cubing.build"],
        "cubing.subsets_tested": c["cubing.subsets_tested"],
        "cubing.cubes": c["cubing.cubes"],
        "cubing.cube_yield": ratio(c["cubing.cubes"], c["cubing.cube_visits"]),
        "cubing.roundtrip_self_s": self_time["cubing.roundtrip"],
        "cubing.extract_self_s": self_time["cubing.extract"],
        "formats.load_self_s": ssum("formats"),
        "cli.handler_ms": 1e3 * statistics.median(handler.values()) if handler else 0.0,
        "cli.process_overhead_ms": 1e3 * statistics.median(
            op_walls[op] - handler[op] for op in handler
        ) if handler else 0.0,
        "trace.top_coverage_min": top_coverage(spans, op_walls),
        "trace.op_s": sum(op_walls.values()),
        "setup.shadows.oracle.calls": setup_calls["shadows.oracle"],
        "setup.shadows.oracle.self_s": setup_self["shadows.oracle"],
        "setup.shadows.enumerate.self_s": setup_self["shadows.enumerate"],
        "setup.shadows.field.bfs_self_s": setup_self["shadows.field"],
        "setup.exactnum.ops": setup_counts["exactnum.ops"],
    }
