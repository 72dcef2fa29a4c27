"""Arc diagrams: the non-crossing matching of crosses to empty positions.

Every cross supports exactly one arc.  Off-zero crosses and the lowest zero
cross (t=0,1) take a single right end; the remaining zero-stack crosses, and
every zero cross when ``>`` sits underneath (t=2), take two.  Construction is
right-to-left for the single-ended arcs, then lowest-first for the
double-ended ones, always to the nearest unused empty positions; trailing
implicit empties make this total.  A position is *free* when it is empty and
no arc ends on it.

Arcs are partially ordered by "is below"; the maximal arcs are exactly the
removable ones, and the number of free positions left of a maximal arc's
support drives the graded multiplicities of the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (CROSS, EMPTY, DomainError, WeightDiagram, build,
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
    base: WeightDiagram
    arcs: tuple[Arc, ...]

    def end_positions(self) -> set[int]:
        return {e for a in self.arcs for e in a.ends}

    def free_positions(self, below: int) -> list[int]:
        """Free positions strictly left of ``below``."""
        ends = self.end_positions()
        out = []
        if below > 0 and self.base.zero_crosses == 0 and self.base.zero_core is None:
            out.append(0)
        out.extend(p for p in range(1, below)
                   if self.base.sym(p) is EMPTY and p not in ends)
        return out


def build_arcs(h: WeightDiagram) -> ArcDiagram:
    """The unique arc diagram of a core-free diagram."""
    check_valid(h)
    if not h.is_core_free():
        raise DomainError(f"arc diagrams attach to core-free diagrams, got {fmt(h)!r}")
    used: set[int] = set()

    def next_free(start: int) -> int:
        p = max(start, 1)
        while h.sym(p) is not EMPTY or p in used:
            p += 1
        used.add(p)
        return p

    singles = list(h.cross_positions())
    doubles = h.zero_crosses
    first_double_index = 0
    if h.t != 2 and h.zero_crosses >= 1:
        singles.insert(0, 0)
        doubles -= 1
        first_double_index = 1
    arcs = []
    for a in sorted(singles, reverse=True):
        arcs.append(Arc(a, 0, (next_free(a + 1),)))
    for i in range(doubles):
        b1 = next_free(1)
        b2 = next_free(b1 + 1)
        arcs.append(Arc(0, first_double_index + i, (b1, b2)))
    arcs.sort(key=lambda a: (a.support, a.stack_index, a.ends))
    return ArcDiagram(h, tuple(arcs))


def arc_less(x: Arc, y: Arc) -> bool:
    """True when ``x`` lies below ``y`` (non-crossing simplified form)."""
    if len(y.ends) == 2:
        if len(x.ends) == 2:
            return x.reach < y.reach
        return x.support < y.reach
    if len(x.ends) == 2:
        return False
    return y.support < x.support < y.reach


def maximal_arcs(diagram: ArcDiagram) -> list[Arc]:
    return [a for a in diagram.arcs
            if not any(arc_less(a, b) for b in diagram.arcs if b is not a)]


def remove_arc(diagram: ArcDiagram, arc: Arc) -> WeightDiagram:
    """Erase a maximal arc together with its supporting cross.

    The zero stack loses its top cross when the support is 0.  An odd-series
    sign survives while the stack stays non-empty; an even-series diagram
    whose stack empties out comes back unsigned and the caller re-signs it.
    """
    if arc not in maximal_arcs(diagram):
        raise DomainError("only maximal arcs can be removed")
    d = diagram.base
    if arc.support == 0:
        sign = d.sign if d.t == 1 and d.zero_crosses > 1 else None
        return WeightDiagram(d.t, d.zero_crosses - 1, d.zero_core,
                             d.tail_symbols, sign)
    return d.set_positions({arc.support: EMPTY})


def free_left(diagram: ArcDiagram, arc: Arc) -> int:
    """Number of free positions strictly left of a maximal arc's support."""
    if arc not in maximal_arcs(diagram):
        raise DomainError("free_left is defined for maximal arcs")
    if arc.support == 0:
        return 0
    return len(diagram.free_positions(arc.support))


# -- rendering ----------------------------------------------------------------

_CELL = 3


def _arc_levels(pairs: dict) -> dict:
    """Nesting depth from the below-relation ``pairs[a] = arcs below a``."""
    memo: dict = {}

    def level(a):
        if a not in memo:
            memo[a] = 1 + max((level(b) for b in pairs[a]), default=-1)
        return memo[a]

    for a in pairs:
        level(a)
    return memo


def render_ascii(diagram: ArcDiagram) -> str:
    """Deterministic text drawing: arc rows (outer arcs on top), symbol row,
    coordinate ruler.  A double-ended arc shows its inner end as ``v``."""
    d = diagram.base
    width = max([d.width] + [a.reach + 1 for a in diagram.arcs])
    below = {a: [b for b in diagram.arcs if b is not a and arc_less(b, a)]
             for a in diagram.arcs}
    levels = _arc_levels(below)
    rows = [f"diagram: {fmt(d)}"]
    for lv in range(max(levels.values(), default=-1), -1, -1):
        row = [" "] * (width * _CELL)
        for a, alv in levels.items():
            if alv != lv:
                continue
            lo, hi = a.support * _CELL, a.reach * _CELL
            for c in range(lo + 1, hi):
                row[c] = "-"
            row[lo], row[hi] = ".", "."
            if len(a.ends) == 2:
                row[a.ends[0] * _CELL] = "v"
        rows.append("".join(row).rstrip())
    sym_row = []
    for p in range(width):
        if p == 0:
            if d.zero_crosses:
                cell = "x" if d.zero_crosses == 1 else f"x{d.zero_crosses}"
                cell += d.zero_core.value if d.zero_core else ""
            else:
                cell = d.zero_core.value if d.zero_core else "o"
        else:
            cell = d.sym(p).value
        sym_row.append(cell.ljust(_CELL))
    rows.append("".join(sym_row).rstrip())
    rows.append("".join(str(p).ljust(_CELL) for p in range(width)).rstrip())
    return "\n".join(rows)


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
    """
    if series not in ("B", "D"):
        raise DomainError(f"series must be 'B' or 'D', got {series!r}")
    h = howl(d)
    stack = h.zero_crosses
    sign = "+" if series == "D" else h.sign
    keep = 1 if sign == "+" and stack > 0 else 0
    removed = stack - keep

    cross_set = set(h.cross_positions()) | ({0} if keep else set())
    used: set[int] = set()

    def match(a: int) -> int:
        p = a + 1
        while p in cross_set or p in used:
            p += 1
        used.add(p)
        return p

    plain = [(a, match(a)) for a in sorted(cross_set, reverse=True)]

    free: list[int] = []
    p = 1
    while len(free) < max(2 * removed - 1, 0):
        if p not in cross_set and p not in used:
            free.append(p)
        p += 1
    coloured = [free[2 * i] for i in range(removed)]
    cross_set |= set(coloured)
    dotted = [(a, match(a)) for a in sorted(coloured, reverse=True)]

    base = build(1, keep, None, {q: CROSS for q in cross_set if q > 0},
                 sign if keep else None)
    return DottedArcs(base, tuple(sorted(plain + dotted)),
                      frozenset(a for a, _ in dotted))


def render_dotted(da: DottedArcs) -> str:
    """Text drawing of a dotted-cup diagram; dots print as ``*`` on the cup."""
    width = max([da.base.width] + [b + 1 for _, b in da.arcs])
    below = {arc: [x for x in da.arcs if x != arc and arc[0] < x[0] and x[1] < arc[1]]
             for arc in da.arcs}
    levels = _arc_levels(below)
    rows = [f"diagram: {fmt(da.base)}"]
    for lv in range(max(levels.values(), default=-1), -1, -1):
        row = [" "] * (width * _CELL)
        for (a, b), alv in levels.items():
            if alv != lv:
                continue
            lo, hi = a * _CELL, b * _CELL
            for c in range(lo + 1, hi):
                row[c] = "-"
            row[lo], row[hi] = ".", "."
            if a in da.dotted:
                row[(lo + hi) // 2] = "*"
        rows.append("".join(row).rstrip())
    sym = []
    for p in range(width):
        if p == 0:
            sym.append(("x" if da.base.zero_crosses else "o").ljust(_CELL))
        else:
            sym.append(da.base.sym(p).value.ljust(_CELL))
    rows.append("".join(sym).rstrip())
    rows.append("".join(str(p).ljust(_CELL) for p in range(width)).rstrip())
    return "\n".join(rows)
