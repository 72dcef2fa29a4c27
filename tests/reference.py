"""Slow reference routes the tests compare the library against.

The reduction by iterated single steps is the reference for the
order-filter route of :mod:`ospds.ds`.

One step lists, for every maximal arc of the compacted diagram, the diagram
left after removing it, lifted back into the block, with the graded
multiplicity ``mult_rule`` reads off the free-left count ``e``.
``layers`` iterates the step over every intermediate state and composes the
multiplicities in the parity-shift group ring.

``lifted_dsr`` is the order-filter reduction with each component built in
three steps: its crosses erased in the compacted diagram, the result lifted
back into the core by ``_unhowl`` and added up, where the library erases the
crosses in the diagram itself.

``stabilize`` is the move loop of :mod:`ospds.translate` that recomputes
every position list and tests every core position against every cross on
each move.

``dim_from_shifted`` is the Weyl product of :mod:`ospds.sdim` over
``Fraction`` factors, with a gcd on every multiplication, where the library
multiplies doubled integer coordinates and divides once.

``es_dotted`` is the dotted-cup conversion of :mod:`ospds.arcs` with its own
cup matcher over sets of positions, quadratic in the nesting depth, where
the library reads the cups off the arcs of one recast diagram.
"""

from fractions import Fraction

from ospds.arcs import (DottedArcs, _build_arcs, _erase, _sweep, free_left,
                        maximal_arcs, remove_arc)
from ospds.diagram import (CORE_SYMBOLS, CROSS, DomainError, WeightDiagram,
                           atypicality, build, check_valid, core_of)
from ospds.ds import ONE, Decomposition, GradedMult, _filters, _weight
from ospds.howl import _howl, _unhowl, howl
from ospds.translate import trans_swap


def gm_mul(x: GradedMult, y: GradedMult) -> GradedMult:
    """Multiplication in the parity-shift group ring."""
    return GradedMult(x.d0 * y.d0 + x.d1 * y.d1, x.d0 * y.d1 + x.d1 * y.d0)


def _sign_variants(h: WeightDiagram) -> list[WeightDiagram]:
    """Both signings of an even-series diagram whose zero position is bare."""
    if h.t == 0 and h.zero_crosses == 0 and h.count(CROSS) >= 1:
        return [h.with_sign("+"), h.with_sign("-")]
    return [h]


def mult_rule(t: int, e: int) -> GradedMult:
    if t == 0:
        return GradedMult(1, 0) if e % 2 == 0 else GradedMult(0, 1)
    if e == 0:
        return GradedMult(1, 0)
    return GradedMult(2, 0) if e % 2 == 0 else GradedMult(0, 2)


def _ds1(lam: WeightDiagram) -> Decomposition:
    """One reduction step of a diagram known to be valid."""
    g = core_of(lam)
    diagram = _build_arcs(_howl(lam))
    out = Decomposition(lam.t)
    for arc in maximal_arcs(diagram):
        mult = mult_rule(lam.t, free_left(diagram, arc))
        for h2 in _sign_variants(remove_arc(diagram, arc)):
            for nu in _unhowl(g, h2):
                out.add(nu, mult)
    return out


def layers(lam: WeightDiagram):
    """The iterated reductions of ``lam`` at rank 0, 1, ..., up to the first
    empty one, at rank k + 1."""
    current = Decomposition(lam.t, {check_valid(lam): ONE})
    while True:
        yield current
        if not current.components:
            return
        nxt = Decomposition(lam.t)
        for nu, g in current.components.items():
            for nu2, g2 in _ds1(nu).components.items():
                nxt.add(nu2, gm_mul(g, g2))
        current = nxt


def dsr(lam: WeightDiagram, r: int) -> Decomposition:
    """r-fold iteration of :func:`_ds1` with multiplicities composed."""
    if r < 0:
        raise DomainError("rank must be non-negative")
    for current, _ in zip(layers(lam), range(r + 1)):
        pass
    return current


def lifted_dsr(lam: WeightDiagram, r: int) -> Decomposition:
    """The reduction of a valid diagram at rank ``r``, each component erased
    in the compacted diagram and lifted back into the core."""
    if r == 0:
        return Decomposition(lam.t, {lam: ONE})
    out = Decomposition(lam.t)
    if r > atypicality(lam):
        return out
    h = _howl(lam)
    filters = ([[(a, 1, 0, e == 0)] for a, e in _sweep(h).items()]
               if r == 1 else _filters(_build_arcs(h), r))
    g, t2 = core_of(lam), h.t == 2
    for members in filters:
        w = _weight(h, members)
        supports = [m[0].support for m in members]
        odd = sum(p - t2 for p in supports if p) % 2
        mult = GradedMult(0, w) if odd else GradedMult(w, 0)
        for nu in _unhowl(g, _erase(h, supports)):
            out.add(nu, mult)
    return out


def stabilize(d: WeightDiagram) -> tuple[WeightDiagram, list[int]]:
    check_valid(d)
    cur = d
    moves: list[int] = []
    while True:
        crosses = list(cur.cross_positions())
        if cur.zero_crosses:
            crosses.append(0)
        movable = [p for p in cur.core_positions()
                   if not (cur.t in (0, 2) and p == 0)]
        violating = [p for p in movable if any(x >= p for x in crosses)]
        if not violating:
            return cur, moves
        p = min(violating)
        while cur.sym(p + 1) in CORE_SYMBOLS:
            p += 1
        cur = trans_swap(cur, p)
        moves.append(p)


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


def dim_from_shifted(N: int, a: list[Fraction]) -> int:
    """Weyl dimension of so_N from the rho-shifted weight ``a``."""
    r = len(a)
    if N <= 2:
        return 1
    if N % 2:  # odd: shifted rho is (r - 1/2, ..., 1/2)
        rho = [Fraction(2 * (r - i) - 1, 2) for i in range(r)]
    else:  # even: (r - 1, ..., 1, 0)
        rho = [Fraction(r - 1 - i) for i in range(r)]
    num = den = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            num *= a[i] ** 2 - a[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    if N % 2:
        for i in range(r):
            num *= a[i]
            den *= rho[i]
    dim = num / den
    if dim.denominator != 1 or dim <= 0:
        raise DomainError("weight is not dominant for so_%d" % N)
    return int(dim)
