"""Command-line surface.

:func:`_mk_parser` declares each subcommand together with its handler.  Every
subcommand that reads a diagram takes ``--t {0,1,2}``; a diagram string alone
cannot always decide the series (a leading ``>`` is a type-1 core symbol or
the type-2 marker).  Exit codes: 0 success, 1 domain error, 2 usage or parse
error (with the grammar printed).  All output is deterministic, and every
integer prints in full, however many digits it has.

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
from .ds import ds_osp, dsr
from .howl import howl, tau, tau_inv, unhowl
from .oracle import Step, oracle_mult1
from .sdim import superdimension
from .translate import stabilize
from .weightmap import parse_weight, weight_to_diagram


def _command(sub, name: str, help: str, run, *positionals: str,
             t_help: str | None = "block type of the diagram",
             t_required: bool = True) -> argparse.ArgumentParser:
    """Declare subcommand ``name``: its positionals, ``--t`` and the handler
    ``run(args)``, which returns the exit code, None for 0 as in ``sys.exit``."""
    p = sub.add_parser(name, help=help)
    for positional in positionals:
        p.add_argument(positional)
    p.add_argument("--t", type=int, required=t_required, choices=(0, 1, 2), help=t_help)
    p.set_defaults(run=run)
    return p


@functools.cache
def _mk_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ospds",
                                 description="weight-diagram calculus for osp(m|2n)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = _command(sub, "parse", "parse a diagram or a 'B m n / a,.. / b,..' weight",
                 _parse, "input", t_help=None, t_required=False)
    p.add_argument("--json", action="store_true")
    _command(sub, "validate", "report well-formedness violations", _validate, "diagram")
    _command(sub, "core", "core diagram (crosses erased)", _core, "diagram")
    _command(sub, "howl", "core-free companion in the principal block", _howl, "diagram")
    _command(sub, "unhowl", "lift a core-free diagram into a core", _unhowl,
             "core", "corefree", t_help=None)
    p = _command(sub, "tau", "type-2 <-> type-1 core-free bijection", _tau, "diagram")
    p.add_argument("--inverse", action="store_true")
    _command(sub, "stabilize", "move crosses in front of the core symbols", _stabilize,
             "diagram")
    p = _command(sub, "arcs", "arc diagram, maximal arcs", _arcs, "diagram")
    p.add_argument("--render", action="store_true")
    p.add_argument("--json", action="store_true")
    p = _command(sub, "es", "dotted-cup companion diagram", _es, "diagram", t_help=None)
    p.add_argument("--series", required=True, choices=("B", "D"))
    p.add_argument("--render", action="store_true")
    p.add_argument("--json", action="store_true")
    p = _command(sub, "ds", "reduction of a simple module's diagram", _ds, "diagram")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--osp", action="store_true",
                   help="multiplicities for the full orthosymplectic group")
    p = _command(sub, "oracle", "one multiplicity via the recursion", _oracle,
                 "lam", "nu", t_help=None)
    p.add_argument("--trace", action="store_true")
    p = _command(sub, "sdim", "superdimension of a simple module", _sdim, "diagram")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = _command(sub, "enumerate", "all core-free diagrams of given size", _enumerate,
                 t_help=None)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    return ap


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
        return args.run(args) or 0
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        print(dg.GRAMMAR_HELP, file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


def _diagram(args, name: str = "diagram") -> WeightDiagram:
    """The positional ``name`` read as a valid diagram of block type ``--t``."""
    return dg.check_valid(dg.parse(getattr(args, name), args.t))


def _parse(args) -> int | None:
    text = args.input.strip()
    if text[:1] in ("B", "D"):
        d = weight_to_diagram(parse_weight(text))
        if args.json:
            print(json.dumps({"diagram": fmt(d), "t": d.t}, sort_keys=True))
        else:
            print(f"{fmt(d)}  (t={d.t})")
        return
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


def _validate(args) -> int | None:
    bad = dg.validate(dg.parse(args.diagram, args.t))
    for msg in bad:
        print(f"violation: {msg}")
    if bad:
        return 1
    print("ok")


def _core(args) -> int | None:
    print(fmt(dg.core_of(_diagram(args))))


def _howl(args) -> int | None:
    print(fmt(howl(_diagram(args))))


def _unhowl(args) -> int | None:
    for d in unhowl(_diagram(args, "core"), _diagram(args, "corefree")):
        print(fmt(d))


def _tau(args) -> int | None:
    d = _diagram(args)
    print(fmt(tau_inv(d) if args.inverse else tau(d)))


def _stabilize(args) -> int | None:
    stable, moves = stabilize(_diagram(args))
    print(fmt(stable))
    print("moves:", " ".join(map(str, moves)) if moves else "(none)")


def _arcs(args) -> int | None:
    a = arcmod.build_arcs(howl(_diagram(args)))
    if args.json:
        print(json.dumps(arcmod.arcs_json(a), sort_keys=True))
    elif args.render:
        print(arcmod.render_ascii(a))
    else:
        for arc in a.arcs:
            star = "*" if arc in a.roots else " "
            ends = ",".join(map(str, arc.ends))
            print(f"{star} arc({arc.support};{ends})")


def _es(args) -> int | None:
    da = arcmod.es_dotted(_diagram(args), args.series)
    if args.json:
        print(json.dumps(da.to_json(), sort_keys=True))
    elif args.render:
        print(arcmod.render_dotted(da))
    else:
        print(fmt(da.base))
        for a, b in da.arcs:
            dot = " dotted" if a in da.dotted else ""
            print(f"arc({a};{b}){dot}")


def _ds(args) -> int | None:
    d = _diagram(args)
    if args.osp:
        if args.rank != 1:
            print("error: --osp computes the rank-1 reduction", file=sys.stderr)
            return 2
        dec = ds_osp(d)
    else:
        dec = dsr(d, args.rank)
    if args.json:
        print(json.dumps(dec.to_json(d, args.rank), sort_keys=True))
        return
    if not dec.components:
        print("(empty)")
    for text, g in sorted((fmt(c), g) for c, g in dec.components.items()):
        print(f"{text:<20} {g}")


def _oracle(args) -> int | None:
    trace: list[Step] | None = [] if args.trace else None
    g = oracle_mult1(_diagram(args, "lam"), _diagram(args, "nu"), trace)
    if trace is not None:
        for step in trace:
            print(step)
    print(g)


def _sdim(args) -> int | None:
    print(superdimension(_diagram(args), args.m, args.n))


def _enumerate(args) -> int | None:
    for d in dg._iter_corefree(args.t, args.k, args.width):
        print(fmt(d))


if __name__ == "__main__":
    raise SystemExit(main())
