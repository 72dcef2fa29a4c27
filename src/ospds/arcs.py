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

One left-to-right sweep finds the matching; it is the only one in the
package, and the dotted cups of :func:`es_dotted` are read off it too.  The
arcs are stored with the zero-stack arcs first, innermost first, then by
support.  The last zero-stack arc is a root with e = 0; a later arc
``arcs[i]`` is a root when it starts past the last root's reach.  Every arc
before such a root lies wholly left of it and fills two positions, and
position 0 of a t=2 diagram holds ``>``, so e = support - 2i - [t = 2].
Thus e = 0 exactly when the support is 0 or 2N + [t = 2] with N arcs wholly
to its left: the tightness test of :mod:`ospds.ds`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (CROSS, EMPTY, GT, DomainError, WeightDiagram, build,
                      check_valid, fmt)
from .howl import howl


@dataclass(frozen=True)
class Arc:
    """One arc: its supporting cross and one or two right ends."""

    support: int
    stack_index: int
    ends: tuple[int, ...]

    def __post_init__(self):
        if len(self.ends) not in (1, 2) or list(self.ends) != sorted(set(self.ends)):
            raise DomainError("ends must be one or two strictly increasing positions")
        if self.support >= self.ends[0]:
            raise DomainError("the support must lie left of every end")
        if self.stack_index and self.support != 0:
            raise DomainError("only zero-stack arcs carry a stack index")

    @property
    def reach(self) -> int:
        return self.ends[-1]


@dataclass(frozen=True)
class ArcDiagram:
    """The arcs of a core-free diagram, sorted, and the roots of their
    forest: each maximal arc, left to right, mapped to its free-left count
    ``e``, the number of free positions strictly left of its support."""

    base: WeightDiagram
    arcs: tuple[Arc, ...]
    roots: dict[Arc, int]


def build_arcs(h: WeightDiagram) -> ArcDiagram:
    """The unique arc diagram of a core-free diagram."""
    check_valid(h)
    if not h.is_core_free():
        raise DomainError(f"arc diagrams attach to core-free diagrams, got {fmt(h)!r}")
    return _build_arcs(h)


def _build_arcs(h: WeightDiagram) -> ArcDiagram:
    """:func:`build_arcs` of a diagram known to be valid and core-free."""
    zero_single = 1 if h.t != 2 and h.zero_crosses else 0
    doubles = h.zero_crosses - zero_single
    open_supports = [0] if zero_single else []
    singles: list[Arc] = []
    free: list[int] = []  # empty positions no single-ended arc takes
    # enough trailing empties to close every arc; the tail holds no core symbol
    trailing = EMPTY * (h.count(CROSS) + doubles)
    for p, s in enumerate(h.tail_symbols + trailing, 1):
        if s == CROSS:
            open_supports.append(p)
        elif open_supports:
            singles.append(Arc(open_supports.pop(), 0, (p,)))
        else:
            free.append(p)
    double_arcs = [Arc(0, zero_single + i, (free[2 * i], free[2 * i + 1]))
                   for i in range(doubles)]
    arcs = sorted(singles + double_arcs, key=lambda a: (a.support, a.stack_index, a.ends))
    # the top of the zero stack covers every arc that starts left of its
    # reach; past it, an arc is a root when it starts past the last root
    roots, reach = {}, 0
    if h.zero_crosses:
        top = arcs[h.zero_crosses - 1]
        roots[top], reach = 0, top.reach
    for i in range(h.zero_crosses, len(arcs)):
        if arcs[i].support > reach:
            roots[arcs[i]] = arcs[i].support - 2 * i - (h.t == 2)
            reach = arcs[i].reach
    return ArcDiagram(h, tuple(arcs), roots)


def maximal_arcs(diagram: ArcDiagram) -> list[Arc]:
    return list(diagram.roots)


def remove_arc(diagram: ArcDiagram, arc: Arc) -> WeightDiagram:
    """Erase a maximal arc together with its supporting cross."""
    if arc not in diagram.roots:
        raise DomainError("only maximal arcs can be removed")
    return _erase(diagram.base, [arc.support])


def _erase(d: WeightDiagram, supports: list[int]) -> WeightDiagram:
    """Erase the crosses at ``supports``, each 0 the top of the zero stack.
    An odd-series sign survives while the stack stays non-empty; an
    even-series diagram whose stack empties comes back unsigned."""
    stack = d.zero_crosses - supports.count(0)
    tail = list(d.tail_symbols)
    for p in supports:
        if p:
            tail[p - 1] = EMPTY
    return WeightDiagram(d.t, stack, d.zero_core, "".join(tail),
                         d.sign if stack or d.t == 0 else None)


def free_left(diagram: ArcDiagram, arc: Arc) -> int:
    """Number of free positions strictly left of a maximal arc's support."""
    if arc not in diagram.roots:
        raise DomainError("free_left is defined for maximal arcs")
    return diagram.roots[arc]


# -- rendering ----------------------------------------------------------------

_CELL = 3


def _draw(d: WeightDiagram, spans: list[tuple[int, int, tuple]]) -> str:
    """Text drawing of ``d`` under arcs given as ``(lo, hi, marks)``: arc
    rows (outer arcs on top), symbol row, coordinate ruler.  An arc runs
    from position ``lo`` to ``hi``; ``marks`` holds ``(column, char)``
    overwrites.  The spans must nest or be disjoint; an arc's row is its
    height, one above the highest arc inside it."""
    width = max([d.width] + [hi + 1 for _, hi, _ in spans])
    rows: dict[int, list[str]] = {}
    done: list[tuple[int, int]] = []  # (lo, level) of the outermost arcs so far
    for lo, hi, marks in sorted(spans, key=lambda span: span[1]):
        level = 0
        while done and done[-1][0] >= lo:
            level = max(level, done.pop()[1] + 1)
        done.append((lo, level))
        row = rows.setdefault(level, [" "] * (width * _CELL))
        row[lo * _CELL + 1:hi * _CELL] = "-" * (hi * _CELL - lo * _CELL - 1)
        row[lo * _CELL] = row[hi * _CELL] = "."
        for column, char in marks:
            row[column] = char
    lines = [f"diagram: {fmt(d)}"]
    lines.extend("".join(rows[lv]).rstrip() for lv in sorted(rows, reverse=True))
    sym_row = []
    for p in range(width):
        if p == 0:
            if d.zero_crosses:
                cell = "x" if d.zero_crosses == 1 else f"x{d.zero_crosses}"
                cell += d.zero_core or ""
            else:
                cell = d.zero_core or "o"
        else:
            cell = d.sym(p)
        sym_row.append(cell.ljust(_CELL))
    lines.append("".join(sym_row).rstrip())
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
        "maximal": [one(a) for a in maximal_arcs(diagram)],
    }


# -- dotted-cup conversion -----------------------------------------------------

@dataclass(frozen=True)
class DottedArcs:
    """Tailless companion diagram with its cup matching and dotted cups."""

    base: WeightDiagram
    arcs: tuple[tuple[int, int], ...]
    dotted: frozenset[int]  # supports of the dotted cups

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
    recast = (WeightDiagram(1, stack, None, h.tail_symbols, sign) if keep
              else WeightDiagram(2, stack, GT, h.tail_symbols))
    arcs = _build_arcs(recast).arcs
    cups = sorted((a.support, a.reach) if len(a.ends) == 1 else a.ends for a in arcs)
    dotted = frozenset(a.ends[0] for a in arcs if len(a.ends) == 2)
    base = build(1, keep, None, {a: CROSS for a, _ in cups if a > 0},
                 sign if keep else None)
    return DottedArcs(base, tuple(cups), dotted)


def render_dotted(da: DottedArcs) -> str:
    """Text drawing of a dotted-cup diagram; dots print as ``*`` on the cup."""
    return _draw(da.base, [
        (a, b, (((a + b) * _CELL // 2, "*"),) if a in da.dotted else ())
        for a, b in da.arcs])
