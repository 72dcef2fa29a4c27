"""Elementary diagram moves induced by tensoring with the natural module.

Away from zero a move exchanges the symbols at two adjacent positions, one of
which carries a core symbol.  At position zero (odd series only) the core
symbol slides out from under the stack, adjusting the sign:

    > o f  ->  o > f          x^i/> o f  ->  -x^i > f
    > x f  ->  +x > f         x^i/> x f  ->  +x^(i+1) > f     (i > 0)

and the mirror rules with ``<``.  ``stabilize`` chains such moves until every
cross precedes every movable core symbol.
"""

from __future__ import annotations

import re

from .diagram import (CROSS, EMPTY, CORE_SYMBOLS, GT, LT, DomainError,
                      WeightDiagram, check_valid, fmt)


def trans_swap(d: WeightDiagram, a: int) -> WeightDiagram:
    """Apply the move exchanging positions ``a`` and ``a+1``.

    For ``a > 0`` exactly one of the two positions must hold a core symbol
    (either direction works).  ``a = 0`` is only defined for t=1 and moves the
    zero core symbol to position 1 or back.
    """
    check_valid(d)
    if a < 0:
        raise DomainError("positions are non-negative")
    return _swap(d, a)


def _swap(d: WeightDiagram, a: int) -> WeightDiagram:
    """:func:`trans_swap` of a diagram known to be valid, at ``a >= 0``."""
    if a == 0:
        return _swap_zero(d)
    sa, sb = d.sym(a), d.sym(a + 1)
    if (sa in CORE_SYMBOLS) == (sb in CORE_SYMBOLS):
        raise DomainError(f"move undefined at {a}: need exactly one core symbol "
                          f"among positions {a}, {a + 1} of {fmt(d)!r}")
    return d.set_positions({a: sb, a + 1: sa})


def _swap_zero(d: WeightDiagram) -> WeightDiagram:
    if d.t != 1:
        raise DomainError("the zero move exists for t=1 only")
    i = d.zero_crosses
    if d.zero_core is not None:
        # forward: the core symbol leaves the zero position
        c = d.zero_core
        if d.sym(1) in CORE_SYMBOLS:
            raise DomainError("position 1 already holds a core symbol")
        if d.sym(1) == CROSS:
            out = WeightDiagram(1, i + 1, None, c + d.tail_symbols[1:], "+")
        else:
            sign = "-" if i > 0 else None
            out = WeightDiagram(1, i, None, c + d.tail_symbols[1:], sign)
        return out
    # backward: a core symbol at position 1 returns under the stack
    c = d.sym(1)
    if c not in CORE_SYMBOLS:
        raise DomainError("move undefined at 0: no core symbol at position 0 or 1")
    rest = d.tail_symbols[1:]
    if d.sign == "+":
        if i < 1:
            raise DomainError("'+' sign requires a non-empty zero stack")
        return WeightDiagram(1, i - 1, c, CROSS + rest)
    return WeightDiagram(1, i, c, EMPTY + rest)


_CORE_RE = re.compile(f"[{GT}{LT}]")
_NON_CORE_RE = re.compile(f"[{CROSS}{EMPTY}]")


def stabilize(d: WeightDiagram) -> tuple[WeightDiagram, list[int]]:
    """Move ``d`` to a stable diagram; returns it with the positions swapped.

    Strategy: take the leftmost core symbol with some cross at or beyond it,
    walk to the right end of its contiguous core run and push that symbol one
    step right.  Crossing a cross removes an inversion, so this terminates.
    """
    check_valid(d)
    cur = d
    moves: list[int] = []
    while True:
        tail = cur.tail_symbols
        # the rightmost cross, 0 for the zero stack alone, -1 for none
        last_cross = tail.rfind(CROSS) + 1 or (0 if cur.zero_crosses else -1)
        if cur.t == 1 and cur.zero_core is not None:
            p = 0    # only the odd series moves its zero core symbol
        else:
            m = _CORE_RE.search(tail)
            if m is None:
                return cur, moves
            p = m.start() + 1
        if p > last_cross:
            return cur, moves
        # the right end of the core run from p
        m = _NON_CORE_RE.search(tail, max(p - 1, 0))
        p = m.start() if m else len(tail)
        cur = _swap(cur, p)
        moves.append(p)


def shrink(d: WeightDiagram, u: int) -> WeightDiagram:
    """Delete positions ``u`` and ``u+1``, which must hold a cross and an
    empty; everything beyond shifts down two steps."""
    check_valid(d)
    if u < 1:
        raise DomainError("shrink needs u >= 1")
    if d.sym(u) != CROSS or d.sym(u + 1) != EMPTY:
        raise DomainError(f"positions {u},{u + 1} of {fmt(d)!r} are not cross/empty")
    tail = d.tail_symbols[:u - 1] + d.tail_symbols[u + 1:]
    return d.with_tail(tail)

