"""Independent evaluation of a single reduction multiplicity.

``oracle_mult1(lam, nu)`` computes the graded multiplicity of ``nu`` in the
rank-1 reduction of ``lam`` without ever building an arc diagram.  Both
diagrams are compacted to the principal block, then the target is eaten from
the right: while its rightmost cross sits at u > 0 the source must show
cross/empty at (u, u+1) and both diagrams shrink there.  Once the target is a
bare zero stack, stack-versus-gap pattern matching reduces the source until
the target is empty, switching between the series as the zero position
demands, and a small base table for one remaining cross finishes the job.

One convention matters when a type-2 problem drops its zero ``>`` and lands
in the even series: an even-series diagram with a bare zero position stands
for both of its signings at once, so its base value doubles.  A problem that
merely passes through type 2 on its way from the even series keeps
single-diagram semantics throughout.

Only the two inputs are diagrams: the target is checked on every call, and
the source once per run of calls, by its first reader (``howl._source``).
The recursion runs on plain fields: the zero stack, tail and sign of the
compactions (the source's recorded, the target's from ``howl._howl``), the
block type and type 2's zero ``>`` implied; ``p`` is the source's stack and
``i`` the target's.
Trace targets are fields or diagrams, never text; fields become a diagram,
written by ``fmt``, only when a trace is asked for.

This is the package's second, arc-free route to the same numbers; the test
suite checks it against the arc formula componentwise.
"""

from __future__ import annotations

from collections import namedtuple

from .diagram import (CROSS, EMPTY, GT, DomainError, WeightDiagram, _fold,
                      check_valid, fmt)
from .ds import GradedMult, ZERO
from .howl import _howl, _source

_EMPTY_TARGET = (0, "", None)  # ``o``, or the bare zero ``>`` of type 2


class Step(namedtuple("Step", "rule source target")):
    """One step of the recursion: the rule applied and the two diagrams,
    written out, that it leaves."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.rule:<16} {self.source}  /  {self.target}"


def _note(trace: list[Step], rule: str, t: int, f, g) -> None:
    """Record a step; ``f`` and ``g`` are diagrams or fields of type ``t``,
    never text, and fields become a diagram here only.  Callers build the
    arguments under ``trace is not None`` only."""
    trace.append(Step(rule, _show(t, f), _show(t, g)))


def _show(t: int, x) -> str:
    if not isinstance(x, WeightDiagram):
        x = WeightDiagram._trusted(t, x[0], GT if t == 2 else None, x[1], x[2])
    return fmt(x)


def _base(trace: list[Step] | None, rule: str, t: int, stack: int, tail: str,
          sign: str | None, scale: int) -> GradedMult:
    """Atypicality-one source, reached by ``rule``, against the empty
    target; a lone off-zero cross counts ``scale`` times."""
    if trace is not None:
        _note(trace, rule, t, (stack, tail, sign), _EMPTY_TARGET)
    if stack == 1:
        return GradedMult(1, 0)
    u = tail.index(CROSS) + 1
    return GradedMult(scale, 0) if u % 2 == 0 else GradedMult(0, scale)


def oracle_mult1(lam: WeightDiagram, nu: WeightDiagram,
                 trace: list[Step] | None = None) -> GradedMult:
    """Graded multiplicity of ``nu`` in the rank-1 reduction of ``lam``."""
    k, bare, (_, p, _, tail, sign), _ = _source(lam)
    t, _, core, _, _ = lam
    nt, nstack, ncore, ntail, _ = check_valid(nu)
    if t != nt:
        raise DomainError("source and target must share the block type")
    # same t, zero core and crossless tail: same core (the t=0 sign follows)
    if core != ncore or bare != ntail.replace(CROSS, EMPTY).rstrip(EMPTY):
        if trace is not None:
            _note(trace, "cores differ", t, lam, nu)
        return ZERO
    if k - nstack - ntail.count(CROSS) != 1:  # the atypicality gap
        if trace is not None:
            _note(trace, "wrong atyp gap", t, lam, nu)
        return ZERO
    _, i, _, gtail, gsign = _howl(nu)
    if trace is not None:
        _note(trace, "compact", t, (p, tail, sign), (i, gtail, gsign))

    # eat the target's off-zero crosses from the right: the source must show
    # cross/empty at tail indices (j, j+1), j+1 possibly past its stored
    # tail, and both lose those two positions; the target has nothing right
    # of j, so what is left of it is a prefix
    j = gtail.rfind(CROSS)
    while j >= 0:
        if tail[j:j + 2] not in (CROSS + EMPTY, CROSS):
            if trace is not None:
                _note(trace, "no cross/empty", t, (p, tail, sign), (i, gtail[:j + 1], gsign))
            return ZERO
        tail = tail[:j] + tail[j + 2:]
        if trace is not None:
            _note(trace, f"shrink at {j + 1}", t, (p, tail, sign), (i, gtail[:j], gsign))
        j = gtail.rfind(CROSS, 0, j)

    if t == 1:
        return _reduce_odd(p, tail, sign, i, gsign, trace)
    if t == 0:
        if i == 0:
            return _base(trace, "base even", 0, p, tail, sign, 1)
        return _even_stack(p, tail, sign, i, trace)
    return _type2(p, tail, i, trace, double_bare=True)


def _reduce_odd(p: int, tail: str, sign: str | None, i: int, gsign: str | None,
                trace: list[Step] | None) -> GradedMult:
    """Odd-series source against the bare-stack target of size i."""
    if i == 0:
        return _base(trace, "base odd", 1, p, tail, sign, 2)
    if gsign == "+":
        sign, gsign = {"+": "-", "-": "+"}.get(sign), "-"
        if trace is not None:
            _note(trace, "flip signs", 1, (p, tail, sign), (i, "", gsign))
    if sign != "-" or p < i:
        if trace is not None:
            _note(trace, "stack mismatch", 1, (p, tail, sign), (i, "", gsign))
        return ZERO
    # the gap is the empty run from position 1: the tail is core-free, so
    # only a cross ends it, and none means it never ends
    j = tail.find(CROSS)
    if j == 2 * i - 1:
        # the cross closing the gap is absorbed into the stack
        rule, stack, sign = "close gap", p - i + 1, "-"
    elif j < 0 or j >= 2 * i:
        rule, stack = "shorten gap", p - i
        sign = "-" if stack else None
    else:
        if trace is not None:
            _note(trace, "gap too short", 1, (p, tail, sign), (i, "", gsign))
        return ZERO
    return _base(trace, rule, 1, stack, tail[2 * i:], sign, 2)


def _even_stack(p: int, tail: str, sign: str | None, i: int,
                trace: list[Step] | None) -> GradedMult:
    """Even-series source against the bare-stack target of size i >= 1:
    trade one stack cross for the zero ``>`` and continue in type 2."""
    if p == 0 or tail[:1] == CROSS:
        if trace is not None:
            _note(trace, "stack mismatch", 0, (p, tail, sign), (i, "", None))
        return ZERO
    if trace is not None:
        _note(trace, "to type 2", 2, (p - 1, tail[1:], None), (i - 1, "", None))
    return _type2(p - 1, tail[1:], i - 1, trace, double_bare=False)


def _type2(p: int, tail: str, i: int, trace: list[Step] | None,
           double_bare: bool) -> GradedMult:
    """Type-2 source against the stack-i-over-``>`` target."""
    if i >= 1:
        j = tail.find(CROSS)
        if p < i or 0 <= j < 2 * i:
            if trace is not None:
                _note(trace, "stack mismatch", 2, (p, tail, None), (i, "", None))
            return ZERO
        p, tail = p - i, tail[2 * i:]
        if trace is not None:
            _note(trace, "shorten gap", 2, (p, tail, None), _EMPTY_TARGET)
    # target is the bare ``>``: drop it and return to the even series
    stack, tail, _ = _fold(p, tail)
    return _base(trace, "drop zero >", 0, stack, tail, None,
                 2 if double_bare and stack == 0 else 1)
