"""Command-line surface.

:data:`_COMMANDS` declares each subcommand once: its handler, help,
positionals and options, each option as the keyword arguments of argparse's
``add_argument``.  Every subcommand that reads a diagram takes
``--t {0,1,2}``; a diagram string alone cannot always decide the series (a
leading ``>`` is a type-1 core symbol or the type-2 marker).  Exit codes: 0
success, 1 domain error, 2 usage or parse error (with the grammar printed).
All output is deterministic, and every integer prints in full, however many
digits it has.

Two things read the table.  :func:`_read` builds the handler's namespace
straight off a well-formed argv: the subcommand, its positionals, then its
exact option strings, each value converted by the option's own type and
held by its choices.  On anything else it hands over to the argparse parser
that :func:`_mk_parser` builds from the same table, which writes help, usage
and errors.  That parser is built once per process, on the first argv the
reader hands over, and never changed afterwards: argparse keeps no state
between ``parse_args`` calls, and writes usage and errors to the
``sys.stdout`` and ``sys.stderr`` of the moment.  Importing the module
imports no argparse and builds nothing.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace

from . import arcs as arcmod
from . import diagram as dg
from .diagram import DomainError, ParseError, WeightDiagram, fmt
from .ds import ds_osp, dsr
from .howl import howl, tau, tau_inv, unhowl
from .oracle import Step, oracle_mult1
from .sdim import superdimension
from .translate import stabilize
from .weightmap import parse_weight, weight_to_diagram


@functools.cache
def _mk_parser() -> argparse.ArgumentParser:
    import argparse

    ap = argparse.ArgumentParser(prog="ospds",
                                 description="weight-diagram calculus for osp(m|2n)")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (run, help, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(run=run)
    return ap


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for ``argv``, read straight off
    :data:`_COMMANDS`, or None unless ``argv`` has the canonical shape: an
    exact subcommand name, its positionals, none starting with ``-``, then
    only its exact option strings, each valued one followed by a value that
    does not start with ``-``, that the option's type converts and that its
    choices hold.  A repeated option keeps its last value, and a required
    one left out gives None."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    run, _, positionals, options = command
    n = len(positionals) + 1
    values = argv[1:n]
    if len(values) < len(positionals) or any(a[:1] == "-" for a in values):
        return None
    given = {}
    rest = iter(argv[n:])
    for flag in rest:
        spec = options.get(flag)
        if spec is None:
            return None
        if "action" in spec:                # store_true
            given[flag] = True
            continue
        text = next(rest, None)
        if text is None or text[:1] == "-":
            return None
        try:
            given[flag] = value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
    args = SimpleNamespace(cmd=argv[0], run=run, **dict(zip(positionals, values)))
    for flag, spec in options.items():
        if flag in given:
            value = given[flag]
        elif spec.get("required"):
            return None
        else:
            value = False if "action" in spec else spec.get("default")
        setattr(args, flag.lstrip("-"), value)
    return args


def _shield_signed_diagrams(argv: list[str]) -> list[str]:
    """Keep the reader and argparse from reading a '-'-signed diagram as a
    flag.  A leading space is harmless: the diagram parser strips it."""
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
    argv = _shield_signed_diagrams(argv)
    args = _read(argv)
    if args is None:
        try:
            args = _mk_parser().parse_args(argv)
        except SystemExit as e:
            return 0 if e.code == 0 else 2

    # print every integer in full; the flags have been read under the limit
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
    # equal multiplicities are common, and int-to-str is quadratic in digits
    mult = functools.cache(str)
    for text, g in sorted((fmt(c), g) for c, g in dec.components.items()):
        print(f"{text:<20} {mult(g)}")


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


# --t, the block type, of every subcommand that reads a diagram
_T = {"type": int, "required": True, "choices": (0, 1, 2),
      "help": "block type of the diagram"}
_FLAG = {"action": "store_true"}

# name -> (handler, help, positionals, {option string: add_argument keywords});
# the handler returns the exit code, None for 0 as in ``sys.exit``
_COMMANDS = {
    "parse": (_parse, "parse a diagram or a 'B m n / a,.. / b,..' weight", ("input",),
              {"--t": {**_T, "required": False, "help": None}, "--json": _FLAG}),
    "validate": (_validate, "report well-formedness violations", ("diagram",), {"--t": _T}),
    "core": (_core, "core diagram (crosses erased)", ("diagram",), {"--t": _T}),
    "howl": (_howl, "core-free companion in the principal block", ("diagram",),
             {"--t": _T}),
    "unhowl": (_unhowl, "lift a core-free diagram into a core", ("core", "corefree"),
               {"--t": {**_T, "help": None}}),
    "tau": (_tau, "type-2 <-> type-1 core-free bijection", ("diagram",),
            {"--t": _T, "--inverse": _FLAG}),
    "stabilize": (_stabilize, "move crosses in front of the core symbols", ("diagram",),
                  {"--t": _T}),
    "arcs": (_arcs, "arc diagram, maximal arcs", ("diagram",),
             {"--t": _T, "--render": _FLAG, "--json": _FLAG}),
    "es": (_es, "dotted-cup companion diagram", ("diagram",),
           {"--t": {**_T, "help": None}, "--series": {"required": True, "choices": ("B", "D")},
            "--render": _FLAG, "--json": _FLAG}),
    "ds": (_ds, "reduction of a simple module's diagram", ("diagram",),
           {"--t": _T, "--rank": {"type": int, "default": 1}, "--json": _FLAG,
            "--osp": {**_FLAG, "help": "multiplicities for the full orthosymplectic group"}}),
    "oracle": (_oracle, "one multiplicity via the recursion", ("lam", "nu"),
               {"--t": {**_T, "help": None}, "--trace": _FLAG}),
    "sdim": (_sdim, "superdimension of a simple module", ("diagram",),
             {"--t": _T, "--m": {"type": int, "required": True},
              "--n": {"type": int, "required": True}}),
    "enumerate": (_enumerate, "all core-free diagrams of given size", (),
                  {"--t": {**_T, "help": None}, "-k": {"type": int, "required": True},
                   "--width": {"type": int, "required": True}}),
}


if __name__ == "__main__":
    raise SystemExit(main())
