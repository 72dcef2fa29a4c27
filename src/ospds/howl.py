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

from .diagram import (CROSS, EMPTY, GT, CORE_SYMBOLS, DomainError,
                      WeightDiagram, build, check_valid, fmt, tail_length,
                      validate)


class UnhowlError(DomainError):
    """A compacted diagram does not fit back into the given core."""


def howl(d: WeightDiagram) -> WeightDiagram:
    """Core-free companion of ``d`` in the principal block."""
    return _howl(check_valid(d))


def _howl(d: WeightDiagram) -> WeightDiagram:
    """:func:`howl` of a diagram known to be valid."""
    zero_has_core = d.zero_core is not None
    # s-number of every off-zero cross: free (non-core) positions to its left
    slots_before = []
    free_seen = 0 if zero_has_core else 1
    for symbol in d.tail_symbols:
        slots_before.append(free_seen)
        if symbol not in CORE_SYMBOLS:
            free_seen += 1
    new_stack = d.zero_crosses
    positions: dict[int, int] = {}
    for p in d.cross_positions():
        s = slots_before[p - 1]
        if d.t == 2:
            positions[s + 1] = positions.get(s + 1, 0) + 1
        elif s == 0:
            new_stack += 1
        else:
            positions[s] = positions.get(s, 0) + 1
    assert all(c == 1 for c in positions.values())
    tail_map = {p: CROSS for p in positions}
    if d.t == 2:
        return build(2, new_stack, GT, tail_map)
    h = build(d.t, new_stack, None, tail_map)
    if d.t == 1:
        if new_stack == 0:
            return h
        want = tail_length(d)
        if want == new_stack:
            return h.with_sign("-")
        assert want == new_stack - 1
        return h.with_sign("+")
    # t == 0: copy the sign whenever the compacted diagram still needs one
    if new_stack == 0 and h.has_symbols:
        return h.with_sign(d.sign)
    return h


def _noncore_slots(g: WeightDiagram, n: int) -> list[int]:
    """First ``n`` positions of ``g`` that hold no core symbol, ascending."""
    out = []
    p = 0 if g.zero_core is None else 1
    while len(out) < n:
        if p == 0 or g.sym(p) not in CORE_SYMBOLS:
            out.append(p)
        p += 1
    return out


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
    q = h.zero_crosses
    off = h.cross_positions()
    hi = max(off) + 1 if off else 1
    slots = _noncore_slots(g, hi)
    stack = q
    spill: list[int] = []
    if h.t == 2:
        placed = [slots[v - 1] for v in off]
    elif g.zero_core is not None and h.sign == "+":
        # one stack cross spills onto the first free slot of the core
        stack = q - 1
        spill = [slots[0]]
        placed = [slots[v] for v in off]
    else:
        placed = [slots[v] for v in off]
    tail_map = {p: CROSS for p in spill + placed}
    for p in list(tail_map):
        if p == 0:
            raise UnhowlError("a spilled cross cannot share the zero position")
        if g.sym(p) is not EMPTY:
            raise UnhowlError(f"core symbol occupies the needed slot {p}")
    base = {p: s for p, s in enumerate(g.tail_symbols, 1) if s is not EMPTY}
    base.update(tail_map)
    lift = build(g.t, stack, g.zero_core, base)

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
        if validate(r):
            raise UnhowlError(f"{fmt(h)!r} does not fit into core {fmt(g)!r}: "
                              + "; ".join(validate(r)))
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
    rest = {v - 1: s for v, s in enumerate(h.tail_symbols, 1)
            if v >= 2 and s is not EMPTY}
    if h.sym(1) is CROSS:
        return build(1, p + 1, None, rest, "+")
    if p > 0:
        return build(1, p, None, rest, "-")
    return build(1, 0, None, rest)


def tau_inv(h: WeightDiagram) -> WeightDiagram:
    """Two-sided inverse of :func:`tau`."""
    check_valid(h)
    if h.t != 1 or not h.is_core_free():
        raise DomainError("tau_inv expects a core-free t=1 diagram")
    shifted = {v + 1: s for v, s in enumerate(h.tail_symbols, 1) if s is not EMPTY}
    if h.sign == "+":
        shifted[1] = CROSS
        return build(2, h.zero_crosses - 1, GT, shifted)
    return build(2, h.zero_crosses, GT, shifted)
