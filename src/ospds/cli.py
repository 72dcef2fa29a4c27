"""Command-line surface.

Every subcommand that reads a diagram takes ``--t {0,1,2}``; a diagram string
alone cannot always decide the series (a leading ``>`` is a type-1 core
symbol or the type-2 marker).  Exit codes: 0 success, 1 domain error, 2 usage
or parse error (with the grammar printed).  All output is deterministic, and
every integer prints in full, however many digits it has.

The argument parser is built once per process, on the first call of
:func:`main`, and never changed afterwards: argparse keeps no state between
``parse_args`` calls, and writes usage and errors to the ``sys.stdout`` and
``sys.stderr`` of the moment.  Importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import arcs as arcmod
from . import diagram as dg
from .diagram import DomainError, ParseError, WeightDiagram, fmt
from .ds import Decomposition, ds_osp, dsr
from .howl import howl, tau, tau_inv, unhowl
from .oracle import Step, oracle_mult1
from .sdim import superdimension
from .translate import stabilize
from .weightmap import parse_weight, weight_to_diagram


def _add_diagram_arg(p: argparse.ArgumentParser, name: str = "diagram") -> None:
    p.add_argument(name)
    p.add_argument("--t", type=int, required=True, choices=(0, 1, 2),
                   help="block type of the diagram")


@functools.cache
def _mk_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ospds",
                                 description="weight-diagram calculus for osp(m|2n)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse a diagram or a 'B m n / a,.. / b,..' weight")
    p.add_argument("input")
    p.add_argument("--t", type=int, choices=(0, 1, 2))
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("validate", help="report well-formedness violations")
    _add_diagram_arg(p)

    p = sub.add_parser("core", help="core diagram (crosses erased)")
    _add_diagram_arg(p)

    p = sub.add_parser("howl", help="core-free companion in the principal block")
    _add_diagram_arg(p)

    p = sub.add_parser("unhowl", help="lift a core-free diagram into a core")
    p.add_argument("core")
    p.add_argument("corefree")
    p.add_argument("--t", type=int, required=True, choices=(0, 1, 2))

    p = sub.add_parser("tau", help="type-2 <-> type-1 core-free bijection")
    _add_diagram_arg(p)
    p.add_argument("--inverse", action="store_true")

    p = sub.add_parser("stabilize", help="move crosses in front of the core symbols")
    _add_diagram_arg(p)

    p = sub.add_parser("arcs", help="arc diagram, maximal arcs")
    _add_diagram_arg(p)
    p.add_argument("--render", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("es", help="dotted-cup companion diagram")
    p.add_argument("diagram")
    p.add_argument("--t", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("--series", required=True, choices=("B", "D"))
    p.add_argument("--render", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ds", help="reduction of a simple module's diagram")
    _add_diagram_arg(p)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--osp", action="store_true",
                   help="multiplicities for the full orthosymplectic group")

    p = sub.add_parser("oracle", help="one multiplicity via the recursion")
    p.add_argument("lam")
    p.add_argument("nu")
    p.add_argument("--t", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("sdim", help="superdimension of a simple module")
    _add_diagram_arg(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("enumerate", help="all core-free diagrams of given size")
    p.add_argument("--t", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    return ap


def _parse_diagram(text: str, t: int) -> WeightDiagram:
    d = dg.parse(text, t)
    dg.check_valid(d)
    return d


def _print_decomposition(dec: Decomposition, source: WeightDiagram, rank: int,
                         as_json: bool) -> None:
    if as_json:
        print(json.dumps(dec.to_json(source, rank), sort_keys=True))
        return
    if not dec.components:
        print("(empty)")
    for d, g in dec.items_sorted():
        print(f"{fmt(d):<20} {g}")


def _shield_signed_diagrams(argv: list[str]) -> list[str]:
    """Keep argparse from reading a '-'-signed diagram as a flag.  A leading
    space is harmless: the diagram parser strips it."""
    return [" " + a if len(a) > 1 and a[0] == "-" and a[1] in "xo<>" else a
            for a in argv]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (``ospds enumerate ... | head``): send
        # what is still buffered, and the flush at exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _run(argv: list[str]) -> int:
    try:
        args = _mk_parser().parse_args(_shield_signed_diagrams(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else 2

    # print every integer in full; argparse has read the flags under the limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _dispatch(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        print(dg.GRAMMAR_HELP, file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


def _dispatch(args) -> int:
    cmd = args.cmd
    if cmd == "parse":
        text = args.input.strip()
        if text[:1] in ("B", "D"):
            w = parse_weight(text)
            d = weight_to_diagram(w)
            if args.json:
                print(json.dumps({"diagram": fmt(d), "t": d.t}, sort_keys=True))
            else:
                print(f"{fmt(d)}  (t={d.t})")
            return 0
        if args.t is None:
            print("error: --t is required for diagram input", file=sys.stderr)
            return 2
        d = dg.parse(text, args.t)
        bad = dg.validate(d)
        if args.json:
            print(json.dumps({"diagram": fmt(d), "t": d.t, "violations": bad},
                             sort_keys=True))
        else:
            print(fmt(d))
            for msg in bad:
                print(f"violation: {msg}")
        return 1 if bad else 0

    if cmd == "validate":
        d = dg.parse(args.diagram, args.t)
        bad = dg.validate(d)
        if bad:
            for msg in bad:
                print(f"violation: {msg}")
            return 1
        print("ok")
        return 0

    if cmd == "core":
        print(fmt(dg.core_of(_parse_diagram(args.diagram, args.t))))
        return 0

    if cmd == "howl":
        print(fmt(howl(_parse_diagram(args.diagram, args.t))))
        return 0

    if cmd == "unhowl":
        g = _parse_diagram(args.core, args.t)
        h = _parse_diagram(args.corefree, args.t)
        for d in unhowl(g, h):
            print(fmt(d))
        return 0

    if cmd == "tau":
        d = _parse_diagram(args.diagram, args.t)
        print(fmt(tau_inv(d) if args.inverse else tau(d)))
        return 0

    if cmd == "stabilize":
        d = _parse_diagram(args.diagram, args.t)
        stable, moves = stabilize(d)
        print(fmt(stable))
        print("moves:", " ".join(map(str, moves)) if moves else "(none)")
        return 0

    if cmd == "arcs":
        d = _parse_diagram(args.diagram, args.t)
        a = arcmod.build_arcs(howl(d))
        if args.json:
            print(json.dumps(arcmod.arcs_json(a), sort_keys=True))
        elif args.render:
            print(arcmod.render_ascii(a))
        else:
            for arc in a.arcs:
                star = "*" if arc in a.roots else " "
                ends = ",".join(map(str, arc.ends))
                print(f"{star} arc({arc.support};{ends})")
        return 0

    if cmd == "es":
        d = _parse_diagram(args.diagram, args.t)
        da = arcmod.es_dotted(d, args.series)
        if args.json:
            print(json.dumps(da.to_json(), sort_keys=True))
        elif args.render:
            print(arcmod.render_dotted(da))
        else:
            print(fmt(da.base))
            for a, b in da.arcs:
                dot = " dotted" if a in da.dotted else ""
                print(f"arc({a};{b}){dot}")
        return 0

    if cmd == "ds":
        d = _parse_diagram(args.diagram, args.t)
        if args.osp:
            if args.rank != 1:
                print("error: --osp computes the rank-1 reduction", file=sys.stderr)
                return 2
            dec = ds_osp(d)
        else:
            dec = dsr(d, args.rank)
        _print_decomposition(dec, d, args.rank, args.json)
        return 0

    if cmd == "oracle":
        lam = _parse_diagram(args.lam, args.t)
        nu = _parse_diagram(args.nu, args.t)
        trace: list[Step] | None = [] if args.trace else None
        g = oracle_mult1(lam, nu, trace)
        if trace is not None:
            for step in trace:
                print(step)
        print(g)
        return 0

    if cmd == "sdim":
        d = _parse_diagram(args.diagram, args.t)
        print(superdimension(d, args.m, args.n))
        return 0

    if cmd == "enumerate":
        for d in dg._iter_corefree(args.t, args.k, args.width):
            print(fmt(d))
        return 0

    raise AssertionError(f"unhandled command {cmd!r}")


if __name__ == "__main__":
    raise SystemExit(main())
