"""Elementary diagram moves induced by tensoring with the natural module.

Away from zero a move exchanges the symbols at two adjacent positions, one of
which carries a core symbol.  At position zero (odd series only) the core
symbol slides out from under the stack, position 1 folds into the zero
position as the :mod:`ospds.diagram` docstring describes, and the core symbol
stands first in the tail: ``x^i/> x f -> +x^(i+1) > f``.  ``stabilize`` chains
such moves until every cross precedes every movable core symbol, and reads
the result off the input.  For t=1 with a core symbol at zero and a cross
anywhere, the first ``x``/``o`` after the zero core's run (positions 1..j)
comes to 0 by the moves j, ..., 0 and folds into the zero position.  Then
each ``x``/``o`` from the first core symbol past 0 to the last cross moves in
front of the core symbols before it; each kind keeps its order.
"""

from __future__ import annotations

from .diagram import (CROSS, EMPTY, CORE_SYMBOLS, GT, LT, DomainError,
                      WeightDiagram, _fold, _needs_sign, _unfold, check_valid, fmt)


def trans_swap(d: WeightDiagram, a: int) -> WeightDiagram:
    """Apply the move exchanging positions ``a`` and ``a+1``.

    For ``a > 0`` exactly one of the two positions must hold a core symbol
    (either direction works).  ``a = 0`` is only defined for t=1 and moves the
    zero core symbol to position 1 or back.
    """
    check_valid(d)
    if type(a) is not int:
        raise DomainError(f"the move position must be an int, got {a!r}")
    if a < 0:
        raise DomainError("positions are non-negative")
    if a == 0:
        return _swap_zero(d)
    sa, sb = d.sym(a), d.sym(a + 1)
    if (sa in CORE_SYMBOLS) == (sb in CORE_SYMBOLS):
        raise DomainError(f"move undefined at {a}: need exactly one core symbol "
                          f"among positions {a}, {a + 1} of {fmt(d)!r}")
    tail = d.tail_symbols.ljust(a + 1, EMPTY)
    return WeightDiagram._trusted(d.t, d.zero_crosses, d.zero_core,
                                  tail[:a - 1] + sb + sa + tail[a + 1:], d.sign)


def _swap_zero(d: WeightDiagram) -> WeightDiagram:
    if d.t != 1:
        raise DomainError("the zero move exists for t=1 only")
    if d.zero_core is not None:
        # forward: the core symbol leaves the zero position
        if d.sym(1) in CORE_SYMBOLS:
            raise DomainError("position 1 already holds a core symbol")
        stack, rest, sign = _fold(d.zero_crosses, d.tail_symbols)
        return WeightDiagram._trusted(1, stack, None, d.zero_core + rest, sign)
    # backward: a core symbol at position 1 returns under the stack
    c = d.sym(1)
    if c not in CORE_SYMBOLS:
        raise DomainError("move undefined at 0: no core symbol at position 0 or 1")
    stack, tail = _unfold(d.zero_crosses, d.tail_symbols[1:], d.sign)
    return WeightDiagram._trusted(1, stack, c, tail, None)


# the most moves :func:`stabilize` lists: they number (core symbols) x
# (crosses), over 2 * 10^7 inside MAX_WIDTH
MAX_MOVES = 1_000_000
_DROP_CORE = str.maketrans("", "", GT + LT)
_DROP_NON_CORE = str.maketrans("", "", CROSS + EMPTY)


def stabilize(d: WeightDiagram) -> tuple[WeightDiagram, list[int]]:
    """Move ``d`` to a stable diagram; returns it with the positions swapped.
    The result is built once, as the module docstring describes; more than
    :data:`MAX_MOVES` moves are refused before any is listed."""
    check_valid(d)
    stack, zero_core, tail, sign = d.zero_crosses, d.zero_core, d.tail_symbols, d.sign
    # (tail index i of an x/o, core symbols c it passes): moves i, ..., i-c+1
    steps = []
    if d.t == 1 and zero_core is not None and (stack or CROSS in tail):
        # the first x/o after the zero core's run passes the run and the core
        j = len(tail) - len(tail.lstrip(GT + LT))
        steps.append((j, j + 1))
        stack, rest, sign = _fold(stack, tail[j:])
        tail, zero_core = zero_core + tail[:j] + rest, None
    # each x/o from the first core symbol to the last cross passes the core
    # symbols before it
    last = tail.rfind(CROSS)
    first = min(len(tail) - len(tail.lstrip(CROSS + EMPTY)), last + 1)
    region, c = tail[first:last + 1], 0
    for i, s in enumerate(region, first):
        if s in CORE_SYMBOLS:
            c += 1
        else:
            steps.append((i, c))
    n = sum(c for _, c in steps)
    if n > MAX_MOVES:
        raise DomainError(f"stabilize needs {n} moves, above the cap MAX_MOVES = {MAX_MOVES}")
    moves = [p for i, c in steps for p in range(i, i - c, -1)]
    tail = (tail[:first] + region.translate(_DROP_CORE)
            + region.translate(_DROP_NON_CORE) + tail[last + 1:])
    return WeightDiagram._trusted(d.t, stack, zero_core, tail, sign), moves


def shrink(d: WeightDiagram, u: int) -> WeightDiagram:
    """Delete positions ``u`` and ``u+1``, which must hold a cross and an
    empty; everything beyond shifts down two steps, and the one sign rule
    signs the result."""
    check_valid(d)
    if type(u) is not int:
        raise DomainError(f"shrink needs an int u, got {u!r}")
    if u < 1:
        raise DomainError("shrink needs u >= 1")
    if d.sym(u) != CROSS or d.sym(u + 1) != EMPTY:
        raise DomainError(f"positions {u},{u + 1} of {fmt(d)!r} are not cross/empty")
    t, stack, core, tail, sign = d
    tail = tail[:u - 1] + tail[u + 1:]
    # the last cross of a t=0 tail may take the need for a sign with it
    return WeightDiagram._trusted(t, stack, core, tail,
                                  sign if _needs_sign(t, stack, core, tail) else None)

