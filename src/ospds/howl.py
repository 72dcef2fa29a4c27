"""Projection onto the principal block and the type-2/type-1 bijection.

``howl`` forgets the core symbols of a diagram and compacts the crosses onto
the positions that remain: the i-th cross lands on the s_i-th slot, where s_i
counts the positions strictly to its left that hold no core symbol (t=2
shifts the off-zero landing spots up by one because the zero ``>`` is kept).
Several crosses may share s_i = 0; they pile up on the zero stack.  The sign
of the result is fixed by requiring the zero-stack tail length to survive.

``unhowl`` inverts this inside a block: given the core and the compacted
diagram it re-distributes the crosses over the core's free slots.  The t=1
sign decides whether one stack cross spills onto the first free slot, which
is the only ambiguity the forward map collapses.
"""

from __future__ import annotations

from .diagram import (CROSS, EMPTY, GT, LT, DomainError, WeightDiagram,
                      check_valid, fmt, tail_length, validate)


class UnhowlError(DomainError):
    """A compacted diagram does not fit back into the given core."""


def howl(d: WeightDiagram) -> WeightDiagram:
    """Core-free companion of ``d`` in the principal block."""
    return _howl(check_valid(d))


def _howl(d: WeightDiagram) -> WeightDiagram:
    """:func:`howl` of a diagram known to be valid."""
    # deleting the core symbols puts every cross on its s-number
    tail = d.tail_symbols.replace(GT, "").replace(LT, "")
    stack = d.zero_crosses
    if d.t == 2:
        return WeightDiagram(2, stack, GT, tail)
    if d.zero_core is not None:
        # the zero core is forgotten: the first free position becomes zero
        if tail[:1] == CROSS:
            stack += 1
        tail = tail[1:]
    if d.t == 0:
        # copy the sign whenever the compacted diagram still needs one
        return WeightDiagram(0, stack, None, tail, None if stack else d.sign)
    want = tail_length(d)
    if stack == 0:
        sign = None
    elif want == stack:
        sign = "-"
    elif want == stack - 1:
        sign = "+"
    else:
        raise DomainError(f"the tail length of {fmt(d)!r} does not survive compaction")
    return WeightDiagram(1, stack, None, tail, sign)


def unhowl(g: WeightDiagram, h: WeightDiagram) -> list[WeightDiagram]:
    """Diagrams with core ``g`` that compact to ``h``.

    Exactly one diagram, except that a t=0 core lifts the empty diagram to
    both of its signed forms when the lift demands a sign.
    """
    check_valid(g)
    check_valid(h)
    if g.t != h.t:
        raise UnhowlError(f"core has type {g.t} but the compacted diagram has type {h.t}")
    if g.count(CROSS):
        raise UnhowlError("first argument must be a core diagram (no crosses)")
    if not h.is_core_free():
        raise UnhowlError("second argument must be core-free")
    return _unhowl(g, h)


def _unhowl(g: WeightDiagram, h: WeightDiagram) -> list[WeightDiagram]:
    """:func:`unhowl` of a valid core ``g`` and a valid core-free ``h`` of
    the same type; the lifts are still checked."""
    stack, fill = h.zero_crosses, h.tail_symbols
    if h.t != 2 and g.zero_core is not None:
        # the first free slot of the core is position 0 of ``h``: it takes
        # one stack cross when ``h`` is signed '+'
        if h.sign == "+":
            stack, fill = stack - 1, CROSS + fill
        else:
            fill = EMPTY + fill
    # the symbols of ``fill`` go onto the empty positions of the core in
    # order; what is left of them runs on past its end
    *cores, last = g.tail_symbols.split(EMPTY)
    fill = fill.ljust(len(cores), EMPTY)
    tail = "".join(c + s for c, s in zip(cores, fill)) + last + fill[len(cores):]
    lift = WeightDiagram(g.t, stack, g.zero_core, tail)

    results: list[WeightDiagram]
    if g.t == 1:
        if stack >= 1 and g.zero_core is None:
            lift = lift.with_sign(h.sign)
        results = [lift]
    elif g.t == 0:
        needs_sign = stack == 0 and (lift.count(GT) + lift.count(CROSS)) >= 1
        if needs_sign:
            if h.has_symbols:
                results = [lift.with_sign(h.sign)]
            else:
                results = [lift.with_sign("+"), lift.with_sign("-")]
        else:
            results = [lift]
    else:
        results = [lift]
    for r in results:
        bad = validate(r)
        if bad:
            raise UnhowlError(f"{fmt(h)!r} does not fit into core {fmt(g)!r}: "
                              + "; ".join(bad))
    return results


def tau(h: WeightDiagram) -> WeightDiagram:
    """Tail-preserving bijection from core-free t=2 diagrams to t=1 ones.

    The symbol at position 1 is absorbed: ``x^p/> o f -> -x^p f`` (``o f``
    when p = 0) and ``x^p/> x f -> +x^(p+1) f``.
    """
    check_valid(h)
    if h.t != 2 or not h.is_core_free():
        raise DomainError("tau expects a core-free t=2 diagram")
    p = h.zero_crosses
    rest = h.tail_symbols[1:]
    if h.tail_symbols[:1] == CROSS:
        return WeightDiagram(1, p + 1, None, rest, "+")
    return WeightDiagram(1, p, None, rest, "-" if p else None)


def tau_inv(h: WeightDiagram) -> WeightDiagram:
    """Two-sided inverse of :func:`tau`."""
    check_valid(h)
    if h.t != 1 or not h.is_core_free():
        raise DomainError("tau_inv expects a core-free t=1 diagram")
    if h.sign == "+":
        return WeightDiagram(2, h.zero_crosses - 1, GT, CROSS + h.tail_symbols)
    return WeightDiagram(2, h.zero_crosses, GT, EMPTY + h.tail_symbols)
