"""Projection onto the principal block and the type-2/type-1 bijection.

``howl`` forgets the core symbols of a diagram and compacts the crosses onto
the positions that remain: the i-th cross lands on the s_i-th slot, where s_i
counts the positions strictly to its left that hold no core symbol (t=2
shifts the off-zero landing spots up by one because the zero ``>`` is kept).
Several crosses may share s_i = 0; they pile up on the zero stack.  A zero
core symbol is forgotten by folding the first free position into the zero
stack, which fixes the sign; otherwise the sign is kept.  ``_compact`` is
the one compaction rule: it returns the zero stack, tail and sign of the
result without building a diagram, and ``_howl`` builds its diagram from
them, or returns a core-free diagram as it is.

``unhowl`` inverts this inside a block: given the core and the compacted
diagram it re-distributes the crosses over the core's free slots.  Under a
zero core the sign decides, by unfolding, whether one stack cross spills
onto the first free slot, which is the only ambiguity the forward map
collapses.  An unsigned diagram whose lift the one sign rule,
``diagram._needs_sign``, signs lifts to both signings: each lift is built
once, unchecked and with its final sign, and the public ``unhowl`` checks
the lifts.  The reduction lifts nothing: it finds the arcs in the compacted
diagram and erases their crosses in the block's own diagram.
"""

from __future__ import annotations

from .diagram import (CROSS, EMPTY, GT, LT, DomainError, WeightDiagram,
                      _fold, _needs_sign, _unfold, check_valid, fmt, validate)


class UnhowlError(DomainError):
    """A compacted diagram does not fit back into the given core."""


def howl(d: WeightDiagram) -> WeightDiagram:
    """Core-free companion of ``d`` in the principal block."""
    return _howl(check_valid(d))


def _howl(d: WeightDiagram) -> WeightDiagram:
    """:func:`howl` of a diagram known to be valid."""
    if d.is_core_free():
        return d
    stack, tail, sign = _compact(d)
    return WeightDiagram._trusted(d.t, stack, GT if d.t == 2 else None, tail, sign)


def _compact(d: WeightDiagram) -> tuple[int, str, str | None]:
    """The zero stack, tail and sign of :func:`howl` of a valid ``d``, in
    canonical form, with no diagram built."""
    t, stack, core, tail, sign = d
    # deleting the core symbols puts every cross on its s-number
    tail = tail.replace(GT, "").replace(LT, "")
    if t != 2 and core is not None:
        # the zero core is forgotten: the first free position becomes zero
        stack, tail, sign = _fold(stack, tail)
    tail = tail.rstrip(EMPTY)
    return stack, tail, sign if stack or tail else None


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
    if h.t == 0 and h.sign == "+" and g.zero_core is not None:
        raise UnhowlError(f"{fmt(h)!r} does not fit into core {fmt(g)!r}: a '+' sign "
                          "moves a zero stack cross, and the stack is empty")
    lifts = _unhowl(g, h)
    for lift in lifts:
        bad = validate(lift)
        if bad:
            raise UnhowlError(f"{fmt(h)!r} does not fit into core {fmt(g)!r}: "
                              + "; ".join(bad))
    return lifts


def _unhowl(g: WeightDiagram, h: WeightDiagram) -> list[WeightDiagram]:
    """:func:`unhowl` of a core ``g`` and a core-free ``h`` of the same type,
    unchecked; an unsigned ``h`` whose lift :func:`_needs_sign` signs stands
    for both signings.  Each lift is built once, with its final sign."""
    stack, fill, sign = h.zero_crosses, h.tail_symbols, h.sign
    if h.t != 2 and g.zero_core is not None:
        # position 0 of ``h`` unfolds onto the core's first free slot
        stack, fill = _unfold(stack, fill, sign)
        sign = None
    # the symbols of ``fill`` go onto the empty positions of the core in
    # order; what is left of them runs on past its end
    *cores, last = g.tail_symbols.split(EMPTY)
    fill = fill.ljust(len(cores), EMPTY)
    tail = "".join(c + s for c, s in zip(cores, fill)) + last + fill[len(cores):]
    signs = ["+", "-"] if sign is None and _needs_sign(g.t, stack, g.zero_core, tail) \
        else [sign]
    return [WeightDiagram._trusted(g.t, stack, g.zero_core, tail, s) for s in signs]


def tau(h: WeightDiagram) -> WeightDiagram:
    """Tail-preserving bijection from core-free t=2 diagrams to t=1 ones:
    the zero ``>`` is dropped and position 1 folds into the zero stack, as
    the :mod:`ospds.diagram` docstring describes."""
    check_valid(h)
    if h.t != 2 or not h.is_core_free():
        raise DomainError("tau expects a core-free t=2 diagram")
    stack, tail, sign = _fold(h.zero_crosses, h.tail_symbols)
    return WeightDiagram._trusted(1, stack, None, tail, sign)


def tau_inv(h: WeightDiagram) -> WeightDiagram:
    """Two-sided inverse of :func:`tau`."""
    check_valid(h)
    if h.t != 1 or not h.is_core_free():
        raise DomainError("tau_inv expects a core-free t=1 diagram")
    stack, tail = _unfold(h.zero_crosses, h.tail_symbols, h.sign)
    return WeightDiagram._trusted(2, stack, GT, tail, None)
