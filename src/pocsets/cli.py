"""Command-line front end.

One subcommand per operation family; every run with the same arguments and
seed produces byte-identical output.  Structured output is versioned JSON on
stdout; domain errors become one-line JSON diagnostics on stderr with exit
code 1, usage errors exit 2.

The input has one path: `build_parser` names each subcommand's loader,
`main` loads the document inside its error handling and hands the loaded
object to the handler, and a handler only computes and prints.

Start-up is most of a fixture-sized run, so importing this module loads no
layer: the parser imports the loaders, and each handler imports the layers
it calls on first use, so `pocsets validate` never loads a planar module.
A run builds the root parser and its own subcommand's parser only; help,
`--version`, no command and an unknown command build all of them.

A process enters through `run`, which exits with `main`'s status and
freezes the heap on the way out, so the interpreter's collections at exit
skip what the imports and the command made.  The interpreter still runs the
`atexit` hooks, flushes stdout and stderr, sets the exit status and prints
an uncaught traceback.  `main` never freezes: tests and benchmarks call it
in-process, many times over.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import __version__
from .errors import AxiomViolation, MalformedInput, PocError

SCHEMA = "pocsets/1"
# the most random poc-sets `dual --samples` checks: about 0.15 s at 4000 on
# a 2-vCPU VM, each one a round trip through its dual cubing
MAX_SAMPLES = 4000


def _emit(args, payload: dict) -> None:
    payload = {"schema": SCHEMA, "command": args.command, **payload}
    print(json.dumps(payload, sort_keys=True, indent=2))


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise MalformedInput(f"bad {what} {text!r}", text) from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_validate(args, p) -> None:
    from .formats import pocset_to_document

    if args.format == "text":
        print(f"valid poc-set: {p.n_pairs} proper pairs")
    else:
        _emit(args, {"valid": True, "pairs": p.n_pairs, "document": pocset_to_document(p)})


def cmd_ultrafilters(args, p) -> None:
    ufs = p.ultrafilters()
    if args.format == "text":
        for u in ufs:
            print(p.format_ultrafilter(u))
    else:
        ultrafilters = [[p.name(e) for e in u.sorted_members()] for u in ufs]
        _emit(args, {"count": len(ufs), "ultrafilters": ultrafilters})


def cmd_cubing(args, p) -> None:
    from .cubing import build_cubing

    complex_ = build_cubing(p)
    if args.format == "dot":
        sys.stdout.write(complex_.to_dot())
    elif args.format == "text":
        cubes = {d: len(cs) for d, cs in complex_.cubes.items()}
        print(
            f"vertices={len(complex_.vertices)} edges={len(complex_.edges)} "
            f"cubes={cubes}"
        )
    else:
        _emit(args, {"complex": complex_.to_json()})


def cmd_dual(args, p) -> None:
    import random

    from .core import FinitePocSet
    from .cubing import duality_roundtrip
    from .formats import pocset_to_document

    if args.samples < 0:
        raise MalformedInput("sample count must be non-negative", args.samples)
    if args.samples > MAX_SAMPLES:
        message = f"sample count {args.samples} is above the cap of {MAX_SAMPLES}"
        raise MalformedInput(message, args.samples)
    report = duality_roundtrip(p)
    rng = random.Random(args.seed)
    sampled = 0
    if args.samples:
        while sampled < args.samples:
            n = rng.randint(0, 5)
            edges = [
                (rng.randrange(2 * n), rng.randrange(2 * n))
                for _ in range(rng.randint(0, 2 * n))
            ] if n else []
            try:
                q = FinitePocSet.from_order_generators(n, edges)
            except AxiomViolation:
                continue
            duality_roundtrip(q)
            sampled += 1
    if args.format == "text":
        print(f"isomorphic: {report.isomorphic}; sampled {sampled} random poc-sets")
    else:
        _emit(
            args,
            {
                "roundtrip": report.to_json(),
                # the round-trip checked that the extracted poc-set has p's
                # order on the same handles, so its document is p's
                "extracted": pocset_to_document(p),
                "random_samples_passed": sampled,
            },
        )


def cmd_boundary(args, loaded) -> None:
    from .chains import RollerPoset, format_signature
    from .formats import chain_family_to_document

    family, model = loaded
    poset = RollerPoset.build(family.k)
    if args.format == "text":
        for s in poset.signatures:
            print(f"{format_signature(s)} codim={s.codim()}")
    else:
        _emit(
            args,
            {
                "document": chain_family_to_document(family, model),
                "poset": poset.to_json(),
            },
        )


def cmd_rho(args, model) -> None:
    from .chains import format_signature
    from .euclid import rho
    from .exactnum import parse_exact_pair

    xi = parse_exact_pair(args.direction)
    signature = rho(model, xi)
    if args.format == "text":
        print(format_signature(signature))
    else:
        _emit(args, {"direction": args.direction, "class": format_signature(signature)})


def cmd_image(args, model) -> None:
    from .chains import format_signature
    from .euclid import rho_image

    report = rho_image(model)
    if args.format == "text":
        for e in report.entries:
            kinds = ",".join(f.kind for f in e.fibers)
            print(f"{format_signature(e.signature)} fibers={kinds}")
    else:
        _emit(args, {"image": report.to_json()})


def cmd_safe(args, model) -> None:
    from .chains import format_signature
    from .euclid import rho_image, safe_components

    comps = safe_components(rho_image(model).signatures())
    if args.format == "text":
        for i, comp in enumerate(comps):
            print(f"component {i}: " + " ".join(format_signature(s) for s in comp))
    else:
        _emit(
            args,
            {
                "component_count": len(comps),
                "components": [
                    [format_signature(s) for s in comp] for comp in comps
                ],
            },
        )


def cmd_closure(args, model) -> None:
    from .euclid import closure_check

    report = closure_check(model)
    if args.format == "text":
        print(f"closure formula: {'ok' if report.ok else 'violated'}")
    else:
        _emit(args, {"closure": report.to_json()})


def cmd_restrict(args, model) -> None:
    from .euclid import Line, line_end_incomparability, restrict_to_line
    from .exactnum import parse_exact_pair

    direction = parse_exact_pair(args.direction)
    base = parse_exact_pair(args.base)
    line = Line(direction, base)
    report = restrict_to_line(model, line)
    incomparable = line_end_incomparability(model, line)
    if args.format == "text":
        print(
            f"merged_chains={len(report.merged_chains)} commutes={report.commutes} "
            f"ends_incomparable={incomparable}"
        )
    else:
        _emit(
            args,
            {
                "restriction": report.to_json(),
                "ends_incomparable": incomparable,
            },
        )


def cmd_shadows(args, model) -> None:
    from .shadows import ChainUltrafilter, shadow_report

    u = ChainUltrafilter(_parse_ints(args.cuts, "cut tuple"))
    report = shadow_report(model, u, args.window)
    if args.format == "svg":
        from .render import shadow_svg

        sys.stdout.write(shadow_svg(model, report))
    elif args.format == "text":
        print(
            f"dist={report.dist} shadow={len(report.shadow)} "
            f"min_minus={len(report.min_minus)} min_plus={len(report.min_plus)}"
        )
    else:
        _emit(args, {"report": report.to_json()})


def cmd_escape(args, model) -> None:
    from .chains import format_signature, parse_signature
    from .shadows import escaping_ray

    target = parse_signature(args.target)
    report = escaping_ray(model, target, args.length, args.window)
    if args.format == "text":
        state = "escapes" if report.success else f"fails at step {report.failure_step}"
        print(f"{format_signature(target)}: {state}")
    else:
        _emit(args, {"ray": report.to_json()})


def cmd_report(args, model) -> None:
    from .shadows import surjectivity_report

    if args.window is not None:
        # a three-step sweep that never passes the window asked for
        step = max(1, args.window // 3)
        windows = tuple(
            min(args.window, max(1, args.window - j * step)) for j in (2, 1, 0)
        )
    else:
        windows = _parse_ints(args.windows, "window list")
    report = surjectivity_report(model, windows=windows)
    if args.format == "text":
        in_image = sum(1 for r in report.classes if r.codim > 0 and r.in_image)
        total = sum(1 for r in report.classes if r.codim > 0)
        print(f"non-principal classes in image: {in_image} of {total}")
        print(f"max delta over windows {report.windows}: {report.max_delta}")
        print(f"escaping ray: {'yes' if report.escaping_classes else 'no'}")
    else:
        _emit(args, {"report": report.to_json()})


# ---------------------------------------------------------------------------


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with the subparser of `command`, or with every
    subparser when `command` names none (help, `--version`, no or an unknown
    command); the root usage names every subcommand either way."""
    from .formats import load_chain_family, load_pocset, load_wall_model

    def subcommands(add):
        # the one table: `add` returns the subcommand's parser when it builds
        # it, and the subcommand's own options are added to that parser
        add("validate", cmd_validate, "validate a poc-set file", load_pocset)
        add("ultrafilters", cmd_ultrafilters, "enumerate the ultrafilters", load_pocset)
        add(
            "cubing",
            cmd_cubing,
            "build the dual cube complex",
            load_pocset,
            fmt=("text", "structured", "dot"),
        )
        if dual := add("dual", cmd_dual, "verify the duality round-trip", load_pocset):
            dual.add_argument("--samples", type=int, default=0, help="extra random poc-sets")
            dual.add_argument("--seed", type=int, default=0, help="seed for sampling")
        add(
            "boundary",
            cmd_boundary,
            "the Roller boundary poset of a chain family",
            load_chain_family,
        )
        if rho_p := add("rho", cmd_rho, "boundary class of a direction"):
            rho_p.add_argument("--direction", required=True, help="exact pair, e.g. 1,0")
        add("image", cmd_image, "the image of rho with its fibers")
        add("safe", cmd_safe, "safe components of the image")
        add("closure", cmd_closure, "check the closure formula on every fiber")
        if restrict := add("restrict", cmd_restrict, "restrict the system to a line"):
            restrict.add_argument("--direction", required=True)
            restrict.add_argument("--base", default="0,0")
        if shadows_p := add(
            "shadows",
            cmd_shadows,
            "shadow report of a cut tuple",
            fmt=("text", "structured", "svg"),
        ):
            shadows_p.add_argument("--cuts", required=True, help="e.g. 5,5,5")
            shadows_p.add_argument("--window", type=int, default=12)
        if escape := add("escape", cmd_escape, "attempt an escaping geodesic ray"):
            escape.add_argument("--target", required=True, help="signature, e.g. (+,+,+)")
            escape.add_argument("--length", type=int, default=20)
            escape.add_argument("--window", type=int, default=13)
        if report := add(
            "report", cmd_report, "co-compactness report; escapes are exact, window-free"
        ):
            sweep = report.add_mutually_exclusive_group()
            sweep.add_argument("--windows", default="5,10,15", help="window sweep")
            sweep.add_argument(
                "--window", type=int, default=None, help="largest window of a 3-step sweep"
            )

    names: list[str] = []
    subcommands(lambda name, *_, **__: names.append(name))
    parser = argparse.ArgumentParser(
        prog="pocsets",
        description="poc-sets, dual cubings, Roller boundaries and wall models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    if command not in names:
        command = None
    # argparse spells the root usage's subcommands from the parsers built, so
    # a partial build spells them from the table; a full build sets none,
    # since argparse would also name a missing command by it
    metavar = None if command is None else "{" + ",".join(names) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name, handler, help_, load=load_wall_model, fmt=("text", "structured")):
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="input file or fixture name")
        p.add_argument("--format", choices=fmt, default="text")
        p.set_defaults(handler=handler, load=load)
        return p

    subcommands(add)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        args.handler(args, args.load(args.input))
        sys.stdout.flush()
        return 0
    except PocError as exc:
        print(json.dumps(exc.diagnostic(), sort_keys=True), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone: send what is left to devnull, so
        # that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def run() -> None:
    """The process entry: `sys.exit(main())`, freezing the heap on any way
    out (argparse's `SystemExit` and an uncaught error too), so that the
    collections at exit skip every live object.  The rest of the exit is
    the interpreter's: `atexit` hooks, the flush of stdout and stderr and
    the report of its failure, the exit status and the traceback of an
    uncaught error."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
