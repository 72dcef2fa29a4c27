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

This is the package's second, arc-free route to the same numbers; the test
suite checks it against the arc formula componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import (CROSS, EMPTY, GT, DomainError, WeightDiagram,
                      atypicality, check_valid, core_of, fmt, sigma)
from .ds import GradedMult, ZERO
from .howl import _howl


@dataclass
class Step:
    rule: str
    source: str
    target: str

    def __str__(self) -> str:
        return f"{self.rule:<16} {self.source}  /  {self.target}"


def _note(trace: list[Step] | None, rule: str, f, g) -> None:
    if trace is not None:
        src = fmt(f) if isinstance(f, WeightDiagram) else str(f)
        tgt = fmt(g) if isinstance(g, WeightDiagram) else str(g)
        trace.append(Step(rule, src, tgt))


def _gap_after_zero(d: WeightDiagram) -> float:
    """Length of the empty run starting at position 1 (inf when no cross
    follows; the input is core-free, so only a cross can end the run)."""
    crosses = d.cross_positions()
    return crosses[0] - 1 if crosses else math.inf


def _drop_prefix(d: WeightDiagram, n: int, new_stack: int,
                 sign: str | None) -> WeightDiagram:
    """Rebuild with positions 1..n removed and the zero data replaced."""
    return WeightDiagram(d.t, new_stack, d.zero_core, d.tail_symbols[n:], sign)


def _base_odd(f: WeightDiagram) -> GradedMult:
    """Atypicality-one odd-series source against the empty target."""
    if f.zero_crosses == 1:
        return GradedMult(1, 0)
    u = f.cross_positions()[0]
    return GradedMult(2, 0) if u % 2 == 0 else GradedMult(0, 2)


def _base_even(f: WeightDiagram, doubled: bool) -> GradedMult:
    """Atypicality-one even-series source against the empty target."""
    if f.zero_crosses == 1:
        return GradedMult(1, 0)
    u = f.cross_positions()[0]
    scale = 2 if doubled else 1
    return GradedMult(scale, 0) if u % 2 == 0 else GradedMult(0, scale)


def oracle_mult1(lam: WeightDiagram, nu: WeightDiagram,
                 trace: list[Step] | None = None) -> GradedMult:
    """Graded multiplicity of ``nu`` in the rank-1 reduction of ``lam``."""
    check_valid(lam)
    check_valid(nu)
    if lam.t != nu.t:
        raise DomainError("source and target must share the block type")
    if core_of(lam) != core_of(nu):
        _note(trace, "cores differ", lam, nu)
        return ZERO
    if atypicality(lam) - atypicality(nu) != 1:
        _note(trace, "wrong atyp gap", lam, nu)
        return ZERO
    f, g = _howl(lam), _howl(nu)
    _note(trace, "compact", f, g)

    # eat the target's off-zero crosses from the right: the source must show
    # cross/empty at (u, u+1), u+1 possibly past its stored tail, and both
    # diagrams lose those two positions; the target has nothing right of u,
    # so what is left of it is a prefix
    tail = f.tail_symbols
    for u in reversed(g.cross_positions()):
        if tail[u - 1:u + 1] not in (CROSS + EMPTY, CROSS):
            if trace is not None:
                _note(trace, "no cross/empty", f.with_tail(tail),
                      g.with_tail(g.tail_symbols[:u]))
            return ZERO
        tail = tail[:u - 1] + tail[u + 1:]
        if trace is not None:
            _note(trace, f"shrink at {u}", f.with_tail(tail),
                  g.with_tail(g.tail_symbols[:u - 1]))
    f, g = f.with_tail(tail), g.with_tail("")

    t = f.t
    if t == 1:
        return _reduce_odd(f, g, trace)
    if t == 0:
        i = g.zero_crosses
        if i == 0:
            _note(trace, "base even", f, g)
            return _base_even(f, doubled=False)
        return _even_stack(f, i, trace)
    return _type2(f, g.zero_crosses, trace, double_bare=True)


def _reduce_odd(f: WeightDiagram, g: WeightDiagram,
                trace: list[Step] | None) -> GradedMult:
    """Odd-series source against a bare-stack target."""
    i = g.zero_crosses
    if i == 0:
        _note(trace, "base odd", f, g)
        return _base_odd(f)
    if g.sign == "+":
        f, g = sigma(f), sigma(g)
        _note(trace, "flip signs", f, g)
    if f.sign != "-" or f.zero_crosses < i:
        _note(trace, "stack mismatch", f, g)
        return ZERO
    p = f.zero_crosses
    j = _gap_after_zero(f)
    if j == 2 * i - 1:
        # the cross closing the gap is absorbed into the stack
        f2 = _drop_prefix(f, 2 * i, p - i + 1, "-")
        _note(trace, "close gap", f2, "o")
        return _base_odd(f2)
    if j >= 2 * i:
        stack = p - i
        f2 = _drop_prefix(f, 2 * i, stack, "-" if stack else None)
        _note(trace, "shorten gap", f2, "o")
        return _base_odd(f2)
    _note(trace, "gap too short", f, g)
    return ZERO


def _even_stack(f: WeightDiagram, i: int,
                trace: list[Step] | None) -> GradedMult:
    """Even-series source against the bare-stack target of size i >= 1:
    trade one stack cross for the zero ``>`` and continue in type 2."""
    if f.zero_crosses == 0 or f.sym(1) == CROSS:
        _note(trace, "stack mismatch", f, f"x^{i}")
        return ZERO
    f2 = WeightDiagram(2, f.zero_crosses - 1, GT, f.tail_symbols[1:])
    _note(trace, "to type 2", f2, f"x^{i - 1}/>")
    return _type2(f2, i - 1, trace, double_bare=False)


def _type2(f: WeightDiagram, i: int, trace: list[Step] | None,
           double_bare: bool) -> GradedMult:
    """Type-2 source against the stack-i-over-``>`` target."""
    if i >= 1:
        p = f.zero_crosses
        j = _gap_after_zero(f)
        if p < i or j < 2 * i:
            _note(trace, "stack mismatch", f, f"x^{i}/>")
            return ZERO
        f = _drop_prefix(f, 2 * i, p - i, None)
        _note(trace, "shorten gap", f, ">")
    # target is the bare ``>``: drop it and return to the even series
    stack = f.zero_crosses + (1 if f.sym(1) == CROSS else 0)
    f2 = WeightDiagram(0, stack, None, f.tail_symbols[1:])
    _note(trace, "drop zero >", f2, "o")
    return _base_even(f2, doubled=double_bare and stack == 0)
