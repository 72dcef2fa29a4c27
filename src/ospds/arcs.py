"""Arc diagrams: the non-crossing matching of crosses to empty positions.

Every cross supports exactly one arc.  Off-zero crosses and the lowest zero
cross (t=0,1) take a single right end; the remaining zero-stack crosses, and
every zero cross when ``>`` sits underneath (t=2), take two.  A single-ended
arc ends on the nearest empty position right of its cross that no arc
inside it takes; the double-ended arcs then take the empty positions left
over, two at a time and lowest first; trailing implicit empties make this
total.  A position is *free* when it is empty and no arc ends on it.

The arcs form a forest under nesting.  A single-ended arc spans its support
and its end; a double-ended arc spans everything from 0 to its outer end, so
it lies above every arc that starts left of that end.  The roots of the
forest, the maximal arcs, are exactly the removable ones, and the number
``e`` of free positions left of a root's support drives the graded
multiplicities of the reduction.

One left-to-right sweep, :func:`_sweep`, the only producer of arcs, finds
the matching, and the roots with their ``e`` as it goes.  The top
zero-stack arc is a root with e = 0; a single-ended arc is a root when it
closes inside no arc and past that top.  The N arcs left of a root fill two
positions each, and position 0 of a t=2 diagram holds ``>``, so
e = support - 2N - [t = 2]: e = 0 is the tightness test of :mod:`ospds.ds`.
The sweep names a root by its unique support, 0 for the top zero-stack
arc; it counts free positions and closed arcs, and pads the tail only while
an arc is open.  Asked for arcs, it appends a plain row
``(support, stack_index, ends, left)`` per arc, ``left`` counting the arcs
wholly left of it: the arcs closed before it but not inside it, plus the
double-ended arcs whose ends are all left of it.  The zero-stack arcs come
first, outermost first, so a stable sort on the support gives preorder.
The reduction and :func:`es_dotted` read these rows; :func:`build_arcs`,
the only builder of an :class:`ArcDiagram` and of an :class:`Arc`, makes
one per row, sorts them, zero-stack arcs first, innermost first, then by
support, and maps each maximal :class:`Arc` to its ``e``.

:func:`maximal_arcs`, :func:`free_left` and :func:`remove_arc` stay for
the benchmark's tracer, and :func:`remove_arc` returns even-series results
unsigned.
"""

from __future__ import annotations

from collections import namedtuple

from .diagram import CROSS, EMPTY, GT, DomainError, WeightDiagram, check_valid, fmt
from .howl import howl


class Arc(namedtuple("Arc", "support stack_index ends")):
    """One arc: its supporting cross and one or two right ends.
    :func:`build_arcs` makes each from a row of the sweep: the ends
    increase, the support lies left of them, and only a zero-stack arc
    carries a stack index."""

    __slots__ = ()

    @property
    def reach(self) -> int:
        return self.ends[-1]


class ArcDiagram(namedtuple("ArcDiagram", "base arcs roots")):
    """The arcs of a core-free diagram, sorted, and the roots of their
    forest: each maximal :class:`Arc`, left to right, mapped to its
    free-left count ``e``, the number of free positions strictly left of
    its support.  :func:`build_arcs` is its only builder."""

    __slots__ = ()


def build_arcs(h: WeightDiagram) -> ArcDiagram:
    """The unique arc diagram of a core-free diagram."""
    check_valid(h)
    if not h.is_core_free():
        raise DomainError(f"arc diagrams attach to core-free diagrams, got {fmt(h)!r}")
    roots = _sweep(h, rows := [])
    arcs = sorted(Arc(p, i, ends) for p, i, ends, _ in rows)
    # sorted, the last arc on support 0 is the top zero-stack arc
    arc = {a.support: a for a in arcs}
    return ArcDiagram(h, tuple(arcs), {arc[p]: e for p, e in roots.items()})


def _sweep(h: WeightDiagram, arcs: list[tuple] | None = None) -> dict[int, int]:
    """The roots of the arc forest of a valid core-free diagram, left to
    right, each named by its support and mapped to its ``e``; every arc is
    appended to ``arcs`` as a row ``(support, stack_index, ends, left)``
    when a list is given."""
    t, stack, _, tail, _ = h
    zero_single = 1 if t != 2 and stack else 0
    taken = 2 * (stack - zero_single)  # ends of the double-ended arcs
    supports = [0] if zero_single else []
    # free positions so far, 0 when bare, the first ``taken`` of them listed
    free, firsts, closed, p = 0 if t == 2 or stack else 1, [], 0, 0
    # the top double-ended arc comes first, with e = 0
    roots = {0: 0} if taken else {}
    for padding in (False, True):  # the stored tail, then one empty per arc still open
        for p, s in enumerate(EMPTY * len(supports) if padding else tail, p + 1):
            if s == CROSS:
                supports.append(p)
            elif supports:
                support = supports.pop()
                if not supports and free >= taken:  # past the zero stack's top
                    roots[support] = free - taken
                if arcs is not None:
                    # the closed arcs not inside it, and the double-ended arcs
                    # whose ends are all free positions left of it
                    arcs.append((support, 0, (p,),
                                 closed - (p - support - 1) // 2 + min(free, taken) // 2))
                    closed += 1
            else:
                if free < taken:
                    firsts.append(p)
                free += 1
    if taken and arcs is not None:
        # the double-ended arcs take the first free positions two at a time,
        # innermost first, and are listed outermost first; past the sweep
        # every position is free
        firsts.extend(range(p + 1, p + 1 + taken - len(firsts)))
        arcs[:0] = [(0, zero_single + i // 2, (firsts[i], firsts[i + 1]), 0)
                    for i in range(taken - 2, -1, -2)]
    return roots


def maximal_arcs(diagram: ArcDiagram) -> list[Arc]:
    return list(diagram.roots)


def remove_arc(diagram: ArcDiagram, arc: Arc) -> WeightDiagram:
    """Erase a maximal arc and its cross; an even-series result is unsigned,
    standing for both signings when its zero position is bare."""
    if arc not in diagram.roots:
        raise DomainError("only maximal arcs can be removed")
    d, p = diagram.base, arc.support
    stack, tail = d.zero_crosses, d.tail_symbols
    if p:
        tail = tail[:p - 1] + EMPTY + tail[p:]
    else:
        stack -= 1
    # an odd-series sign survives while the stack stays non-empty
    return WeightDiagram._trusted(d.t, stack, d.zero_core, tail,
                                  d.sign if stack and d.t == 1 else None)


def free_left(diagram: ArcDiagram, arc: Arc) -> int:
    """Number of free positions strictly left of a maximal arc's support."""
    if arc not in diagram.roots:
        raise DomainError("free_left is defined for maximal arcs")
    return diagram.roots[arc]


# -- rendering ----------------------------------------------------------------

_CELL = 3
# arc rows times positions; a drawing costs memory quadratic in its nesting
# depth, so a deep nest inside MAX_WIDTH would need gigabytes
MAX_RENDER_CELLS = 1_000_000


def _draw(d: WeightDiagram, spans: list[tuple[int, int, tuple]]) -> str:
    """Text drawing of ``d`` under arcs given as ``(lo, hi, marks)``: arc
    rows (outer arcs on top), symbol row, coordinate ruler.  An arc runs
    from position ``lo`` to ``hi``; ``marks`` holds ``(column, char)``
    overwrites.  The spans must nest or be disjoint; an arc's row is its
    height, one above the highest arc inside it.  A drawing of more than
    :data:`MAX_RENDER_CELLS` arc-row cells is refused before any row exists."""
    width = max([d.width] + [hi + 1 for _, hi, _ in spans])
    spans = sorted(spans, key=lambda span: span[1])
    levels = []
    done: list[tuple[int, int]] = []  # (lo, level) of the outermost arcs so far
    for lo, _, _ in spans:
        level = 0
        while done and done[-1][0] >= lo:
            level = max(level, done.pop()[1] + 1)
        done.append((lo, level))
        levels.append(level)
    height = max(levels, default=-1) + 1
    if height * width > MAX_RENDER_CELLS:
        raise DomainError(f"drawing of {height * width} cells above the cap "
                          f"MAX_RENDER_CELLS = {MAX_RENDER_CELLS}")
    rows = [[" "] * (width * _CELL) for _ in range(height)]
    for (lo, hi, marks), level in zip(spans, levels):
        row = rows[level]
        row[lo * _CELL + 1:hi * _CELL] = "-" * (hi * _CELL - lo * _CELL - 1)
        row[lo * _CELL] = row[hi * _CELL] = "."
        for column, char in marks:
            row[column] = char
    lines = [f"diagram: {fmt(d)}"]
    lines.extend("".join(row).rstrip() for row in reversed(rows))
    stack, core = d.zero_crosses, d.zero_core or ""
    zero = ("x" if stack == 1 else f"x{stack}") + core if stack else core or "o"
    cells = [zero, *d.tail_symbols.ljust(width - 1, EMPTY)]
    lines.append("".join(cell.ljust(_CELL) for cell in cells).rstrip())
    lines.append("".join(str(p).ljust(_CELL) for p in range(width)).rstrip())
    return "\n".join(lines)


def render_ascii(diagram: ArcDiagram) -> str:
    """Deterministic text drawing: arc rows (outer arcs on top), symbol row,
    coordinate ruler.  A double-ended arc shows its inner end as ``v``."""
    return _draw(diagram.base, [
        (a.support, a.reach, ((a.ends[0] * _CELL, "v"),) if len(a.ends) == 2 else ())
        for a in diagram.arcs])


def arcs_json(diagram: ArcDiagram) -> dict:
    def one(a: Arc) -> dict:
        return {"support": a.support, "stack_index": a.stack_index,
                "ends": list(a.ends)}

    return {
        "diagram": fmt(diagram.base),
        "t": diagram.base.t,
        "arcs": [one(a) for a in diagram.arcs],
        "maximal": [one(a) for a in diagram.roots],
    }


# -- dotted-cup conversion -----------------------------------------------------

class DottedArcs(namedtuple("DottedArcs", "base arcs dotted")):
    """Tailless companion diagram with its cup matching, as ``(from, to)``
    pairs, and the supports of its dotted cups, a frozenset."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "diagram": fmt(self.base),
            "arcs": [{"from": a, "to": b, "dotted": a in self.dotted}
                     for a, b in self.arcs],
        }


def es_dotted(d: WeightDiagram, series: str) -> DottedArcs:
    """Dotted-cup companion of a diagram.

    The zero stack, minus the single cross a ``+`` sign keeps, is removed and
    its size ``l`` remembered; the remainder is cup-matched; the free
    positions (counted from position 1) are numbered and new crosses are
    inserted at numbers 1, 3, ..., 2l-1; these are matched to the remaining
    free positions and their cups carry a dot.  Even-series diagrams are
    processed as odd-series diagrams with a ``+`` sign.

    The cups are the arcs of one recast diagram in which the removed zero
    crosses are double-ended: a ``+``-signed odd-series diagram when a cross
    is kept, else a type-2 one.  Its single-ended arcs are the plain cups,
    the ends of each double-ended arc a dotted cup.
    """
    if series not in ("B", "D"):
        raise DomainError(f"series must be 'B' or 'D', got {series!r}")
    h = howl(d)
    stack = h.zero_crosses
    sign = "+" if series == "D" else h.sign
    keep = 1 if sign == "+" and stack > 0 else 0
    recast = (WeightDiagram._trusted(1, stack, None, h.tail_symbols, sign) if keep
              else WeightDiagram._trusted(2, stack, GT, h.tail_symbols, None))
    _sweep(recast, rows := [])
    cups = sorted((p, *ends) if len(ends) == 1 else ends for p, _, ends, _ in rows)
    dotted = frozenset(ends[0] for _, _, ends, _ in rows if len(ends) == 2)
    supports = {a for a, _ in cups}
    tail = "".join(CROSS if p in supports else EMPTY
                   for p in range(1, max(supports, default=0) + 1))
    base = WeightDiagram._trusted(1, keep, None, tail, sign if keep else None)
    return DottedArcs(base, tuple(cups), dotted)


def render_dotted(da: DottedArcs) -> str:
    """Text drawing of a dotted-cup diagram; dots print as ``*`` on the cup."""
    return _draw(da.base, [
        (a, b, (((a + b) * _CELL // 2, "*"),) if a in da.dotted else ())
        for a, b in da.arcs])
