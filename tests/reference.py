"""Slow reference routes the tests compare the library against.

The reduction by iterated single steps is the reference for the
order-filter route of :mod:`ospds.ds`.

One step lists, for every maximal ``Arc`` of the compacted diagram's arc
forest, which ``ArcDiagram.roots`` maps to its free-left count ``e``, the
diagram ``_erase`` leaves after erasing the cross on the arc's support,
lifted back into the block, with the graded multiplicity ``mult_rule``
reads off ``e``.  ``_erase`` erases any
set of crosses, as :mod:`ospds.arcs` did before ``remove_arc`` erased its
one cross itself, and ``add`` adds up the multiplicity of a component.
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
``Fraction`` factors, with a gcd on every multiplication and one division at
the end, where the library multiplies rows of doubled integer coordinates
and divides each by the same row at rho, from the last coordinate up.

``oracle_mult1`` is the arc-free single multiplicity of :mod:`ospds.oracle`
as it ran on compacted diagrams, each intermediate a diagram built by
``_howl_diagram``, the compaction as it was before it returned fields, where
the library runs on fields and builds diagrams only for its trace.
``oracle_dsr`` composes r of its rank-1 steps, an arc-free route to the
reduction at every rank.

``es_dotted`` is the dotted-cup conversion of :mod:`ospds.arcs` with its own
cup matcher over sets of positions, quadratic in the nesting depth, where
the library reads the cups off the arcs of one recast diagram.

``is_stable``, ``pari`` and ``ds_osp`` are those of the library as they
were before each read its rule off the tail: the first two compare position
tuples (``cross_positions``, ``core_positions``), and ``ds_osp`` drops the
second signing of each component through a ``seen`` set.

``after_stack`` is the t=0 zero-stack interleaving count of :mod:`ospds.ds`
as a binomial convolution: it carries the distribution of the arcs removed
after the lowest zero cross up the chain of zero-stack arcs, a dict per
level, and counts the orders in a separate product of binomials, where the
library inserts one sibling arc at a time and counts each interleaving b!
times per level of b sibling arcs, so only the ratios of the two agree.

``forest_rows`` builds the forest rows of :func:`ospds.ds._filters` from
``build_arcs(h).arcs``, in preorder by (support, -reach), each arc's count
of arcs wholly left of it read by bisecting the sorted reaches, where the
library's sweep counts them as it goes; ``filter_rows`` lists, in the
library's order, the rows of every order filter of ``r`` of those arcs,
each count taken from its definition over all r-subsets.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

from ospds.arcs import DottedArcs, _sweep, build_arcs
from ospds.diagram import (CORE_SYMBOLS, CROSS, EMPTY, GT, LT, DomainError,
                           WeightDiagram, _fold, atypicality, build, check_valid,
                           core_of, enumerate_corefree, fmt, sigma)
from ospds.ds import ONE, ZERO, Decomposition, GradedMult, _filters, _weight, ds1
from ospds.howl import UnhowlError, _howl, _unhowl, howl, unhowl
from ospds.oracle import Step
from ospds.translate import trans_swap


def cross_positions(d: WeightDiagram) -> tuple[int, ...]:
    """Positive positions holding a cross (the zero stack is separate)."""
    return tuple(p for p, s in enumerate(d.tail_symbols, 1) if s == CROSS)


def core_positions(d: WeightDiagram) -> tuple[int, ...]:
    """All positions holding a core symbol, including 0 for the zero core."""
    out = [0] if d.zero_core is not None else []
    out.extend(p for p, s in enumerate(d.tail_symbols, 1) if s in CORE_SYMBOLS)
    return tuple(out)


def add(dec: Decomposition, d: WeightDiagram, g: GradedMult) -> None:
    """Add ``g`` to the multiplicity of ``d`` in ``dec``."""
    dec.components[d] = dec.get(d) + g


def _erase(d: WeightDiagram, supports: list[int]) -> WeightDiagram:
    """Erase the crosses at ``supports``, each 0 the top of the zero stack.
    An odd-series sign survives while the stack stays non-empty; an
    even-series result is unsigned, standing for both signings when its
    zero position is bare."""
    stack = d.zero_crosses - supports.count(0)
    tail = list(d.tail_symbols)
    for p in supports:
        if p:
            tail[p - 1] = EMPTY
    return WeightDiagram._trusted(d.t, stack, d.zero_core, "".join(tail),
                                  d.sign if stack and d.t == 1 else None)


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
    diagram = build_arcs(_howl(lam))
    out = Decomposition(lam.t)
    for a, e in diagram.roots.items():
        mult = mult_rule(lam.t, e)
        for h2 in _sign_variants(_erase(diagram.base, [a.support])):
            for nu in _unhowl(g, h2):
                add(out, nu, mult)
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
                add(nxt, nu2, gm_mul(g, g2))
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
    if r == 1:
        # the sweep's roots as one-member filters, named by support
        filters = [[(p, 1, 0, e == 0)] for p, e in _sweep(h).items()]
    else:
        filters = _filters(h, r)
    g, t2 = core_of(lam), h.t == 2
    for members in filters:
        w = _weight(h, members)
        supports = [m[0] for m in members]
        odd = sum(p - t2 for p in supports if p) % 2
        mult = GradedMult(0, w) if odd else GradedMult(w, 0)
        for nu in _unhowl(g, _erase(h, supports)):
            add(out, nu, mult)
    return out


def _howl_diagram(d: WeightDiagram) -> WeightDiagram:
    """:func:`ospds.howl.howl` of a diagram known to be valid."""
    if d.is_core_free():
        return d
    # deleting the core symbols puts every cross on its s-number
    tail = d.tail_symbols.replace(GT, "").replace(LT, "")
    stack, sign = d.zero_crosses, d.sign
    if d.t != 2 and d.zero_core is not None:
        # the zero core is forgotten: the first free position becomes zero
        stack, tail, sign = _fold(stack, tail)
    return WeightDiagram._trusted(d.t, stack, GT if d.t == 2 else None, tail, sign)


def _note(trace: list[Step] | None, rule: str, f, g) -> None:
    if trace is not None:
        src = fmt(f) if isinstance(f, WeightDiagram) else str(f)
        tgt = fmt(g) if isinstance(g, WeightDiagram) else str(g)
        trace.append(Step(rule, src, tgt))


def _stack_target(t: int, i: int) -> WeightDiagram:
    """The bare stack of ``i`` crosses a target is left with, over the zero
    ``>`` for t=2."""
    return WeightDiagram._trusted(t, i, GT if t == 2 else None, "", None)


def _gap_after_zero(d: WeightDiagram) -> float:
    """Length of the empty run starting at position 1 (inf when no cross
    follows; the input is core-free, so only a cross can end the run)."""
    u = d.tail_symbols.find(CROSS)
    return u if u >= 0 else math.inf


def _drop_prefix(d: WeightDiagram, n: int, new_stack: int,
                 sign: str | None) -> WeightDiagram:
    """Rebuild with positions 1..n removed and the zero data replaced."""
    return WeightDiagram._trusted(d.t, new_stack, d.zero_core, d.tail_symbols[n:], sign)


def _base(f: WeightDiagram, scale: int) -> GradedMult:
    """Atypicality-one source against the empty target; a lone off-zero
    cross counts ``scale`` times."""
    if f.zero_crosses == 1:
        return GradedMult(1, 0)
    u = f.tail_symbols.index(CROSS) + 1
    return GradedMult(scale, 0) if u % 2 == 0 else GradedMult(0, scale)


def oracle_mult1(lam: WeightDiagram, nu: WeightDiagram,
                 trace: list[Step] | None = None) -> GradedMult:
    """Graded multiplicity of ``nu`` in the rank-1 reduction of ``lam``."""
    check_valid(lam)
    check_valid(nu)
    if lam.t != nu.t:
        raise DomainError("source and target must share the block type")
    # same t, zero core and crossless tail: same core (the t=0 sign follows)
    if (lam.zero_core != nu.zero_core
            or lam.tail_symbols.replace(CROSS, EMPTY).rstrip(EMPTY)
            != nu.tail_symbols.replace(CROSS, EMPTY).rstrip(EMPTY)):
        _note(trace, "cores differ", lam, nu)
        return ZERO
    if atypicality(lam) - atypicality(nu) != 1:
        _note(trace, "wrong atyp gap", lam, nu)
        return ZERO
    f, g = _howl_diagram(lam), _howl_diagram(nu)
    _note(trace, "compact", f, g)

    # eat the target's off-zero crosses from the right: the source must show
    # cross/empty at (u, u+1), u+1 possibly past its stored tail, and both
    # diagrams lose those two positions; the target has nothing right of u,
    # so what is left of it is a prefix
    tail = f.tail_symbols
    for u in reversed(cross_positions(g)):
        if tail[u - 1:u + 1] not in (CROSS + EMPTY, CROSS):
            if trace is not None:
                _note(trace, "no cross/empty", f._replace(tail_symbols=tail),
                      g._replace(tail_symbols=g.tail_symbols[:u]))
            return ZERO
        tail = tail[:u - 1] + tail[u + 1:]
        if trace is not None:
            _note(trace, f"shrink at {u}", f._replace(tail_symbols=tail),
                  g._replace(tail_symbols=g.tail_symbols[:u - 1]))
    f = WeightDiagram._trusted(f.t, f.zero_crosses, f.zero_core, tail, f.sign)
    g = WeightDiagram._trusted(g.t, g.zero_crosses, g.zero_core, "", g.sign)

    t = f.t
    if t == 1:
        return _reduce_odd(f, g, trace)
    if t == 0:
        i = g.zero_crosses
        if i == 0:
            _note(trace, "base even", f, g)
            return _base(f, 1)
        return _even_stack(f, i, trace)
    return _type2(f, g.zero_crosses, trace, double_bare=True)


def _reduce_odd(f: WeightDiagram, g: WeightDiagram,
                trace: list[Step] | None) -> GradedMult:
    """Odd-series source against a bare-stack target."""
    i = g.zero_crosses
    if i == 0:
        _note(trace, "base odd", f, g)
        return _base(f, 2)
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
        return _base(f2, 2)
    if j >= 2 * i:
        stack = p - i
        f2 = _drop_prefix(f, 2 * i, stack, "-" if stack else None)
        _note(trace, "shorten gap", f2, "o")
        return _base(f2, 2)
    _note(trace, "gap too short", f, g)
    return ZERO


def _even_stack(f: WeightDiagram, i: int,
                trace: list[Step] | None) -> GradedMult:
    """Even-series source against the bare-stack target of size i >= 1:
    trade one stack cross for the zero ``>`` and continue in type 2."""
    if f.zero_crosses == 0 or f.sym(1) == CROSS:
        _note(trace, "stack mismatch", f, _stack_target(0, i))
        return ZERO
    f2 = WeightDiagram._trusted(2, f.zero_crosses - 1, GT, f.tail_symbols[1:], None)
    _note(trace, "to type 2", f2, _stack_target(2, i - 1))
    return _type2(f2, i - 1, trace, double_bare=False)


def _type2(f: WeightDiagram, i: int, trace: list[Step] | None,
           double_bare: bool) -> GradedMult:
    """Type-2 source against the stack-i-over-``>`` target."""
    if i >= 1:
        p = f.zero_crosses
        j = _gap_after_zero(f)
        if p < i or j < 2 * i:
            _note(trace, "stack mismatch", f, _stack_target(2, i))
            return ZERO
        f = _drop_prefix(f, 2 * i, p - i, None)
        _note(trace, "shorten gap", f, ">")
    # target is the bare ``>``: drop it and return to the even series
    stack, tail, _ = _fold(f.zero_crosses, f.tail_symbols)
    f2 = WeightDiagram._trusted(0, stack, None, tail, None)
    _note(trace, "drop zero >", f2, "o")
    return _base(f2, 2 if double_bare and stack == 0 else 1)


def oracle_layers(lam: WeightDiagram):
    """The reductions of a valid diagram at rank 0, 1, ..., k, each step
    composed of :func:`oracle_mult1` steps with no arc diagram built: step
    i + 1 takes every diagram over the core of ``lam`` with k - i - 1
    crosses and adds up its multiplicities from the components of step i."""
    t, k, core = lam.t, atypicality(lam), core_of(lam)
    width = max(howl(lam).width, k)  # a component drops crosses, never moves one right
    current = {lam: ONE}
    yield Decomposition(t, current)
    for i in range(k):
        nxt = {}
        for h in enumerate_corefree(t, k - i - 1, width):
            try:
                lifts = unhowl(core, h)
            except UnhowlError:
                continue
            for nu in lifts:
                g = ZERO
                for mu, gm in current.items():
                    g += gm_mul(gm, oracle_mult1(mu, nu))
                if g != ZERO:
                    nxt[nu] = g
        current = nxt
        yield Decomposition(t, current)


def oracle_dsr(lam: WeightDiagram, r: int) -> Decomposition:
    """The reduction of a valid diagram at rank ``r`` as ``r`` composed
    :func:`oracle_mult1` steps; empty above the atypicality."""
    if r > atypicality(lam):
        return Decomposition(lam.t)
    for current, _ in zip(oracle_layers(lam), range(r + 1)):
        pass
    return current


def stabilize(d: WeightDiagram) -> tuple[WeightDiagram, list[int]]:
    check_valid(d)
    cur = d
    moves: list[int] = []
    while True:
        crosses = list(cross_positions(cur))
        if cur.zero_crosses:
            crosses.append(0)
        movable = [p for p in core_positions(cur)
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

    cross_set = set(cross_positions(h)) | ({0} if keep else set())
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


def is_stable(d: WeightDiagram) -> bool:
    """True when every cross strictly precedes every core symbol, the zero
    ``>`` of the even series being exempt."""
    cores = [p for p in core_positions(d) if not (d.t in (0, 2) and p == 0)]
    if not cores:
        return True
    first_core = min(cores)
    crosses = list(cross_positions(d))
    if d.zero_crosses:
        crosses.append(0)
    return all(x < first_core for x in crosses)


def pari(d: WeightDiagram) -> int:
    """The +-1 grading of a core-free diagram."""
    if not d.is_core_free():
        raise DomainError("pari is defined on core-free diagrams")
    if d.t == 2:
        total = sum(p - 1 for p in cross_positions(d) if p >= 2)
    else:
        total = sum(cross_positions(d))
    return -1 if total % 2 else 1


def check_purity(dec: Decomposition, lam: WeightDiagram) -> bool:
    """No component occurs with its parity shift, and each is graded as the
    source twisted by the shift: ``pari`` of ``howl`` of each diagram."""
    base = pari(howl(lam))
    for nu, (d0, d1) in dec.components.items():
        if d0 and d1:
            return False
        p = pari(howl(nu))
        if d0 and p != base:
            return False
        if d1 and p != -base:
            return False
    return True


def ds_osp(lam: WeightDiagram) -> Decomposition:
    """One reduction step for modules of the full orthosymplectic group."""
    plain = ds1(lam)
    if lam.t == 1:
        return plain
    factor = 2 if (lam.t == 0 and sigma(lam) != lam) else 1
    out = Decomposition(lam.t)
    seen: set[WeightDiagram] = set()
    for nu, g in plain.components.items():
        key = nu.with_sign(None)
        if key in seen:
            continue
        seen.add(key)
        add(out, key, GradedMult(factor * g.d0, factor * g.d1))
    return out


def after_stack(chain: list[int], r: int) -> tuple[int, int]:
    """Sum of 2^(arcs removed after the lowest zero cross) over the ways to
    interleave subtrees along its ancestors, and the number of those ways.

    ``chain`` holds the subtree sizes of the zero-stack arcs, smallest first:
    the lowest zero cross, then each double-ended arc above it, which is its
    parent, up to the top one, a root among trees of ``r`` arcs in all.
    """
    after = {chain[0] - 1: 1}  # arcs after the lowest zero cross -> ways
    orders = 1
    # a virtual arc of size r + 1 above the roots changes nothing
    for a, whole in zip(chain, chain[1:] + [r + 1]):
        b = whole - 1 - a  # arcs in the sibling subtrees
        merged: dict[int, int] = {}
        for n, ways in after.items():
            p = a - n  # position of the lowest zero cross in its subtree
            for j in range(b + 1):  # sibling arcs removed before it
                merged[n + b - j] = merged.get(n + b - j, 0) + ways * \
                    math.comb(p - 1 + j, j) * math.comb(a - p + b - j, b - j)
        after = merged
        orders *= math.comb(a + b, b)
    return sum(ways * 2 ** n for n, ways in after.items()), orders


def forest_rows(h: WeightDiagram) -> list[tuple[int, int, int, bool]]:
    """(support, subtree size, arcs wholly left of it, tight) for each arc
    of a core-free diagram, in preorder."""
    arcs = sorted(build_arcs(h).arcs, key=lambda a: (a.support, -a.reach))
    reaches = sorted(a.reach for a in arcs)
    rows = []
    for a in arcs:
        left = bisect_left(reaches, a.support)
        rows.append((a.support, (a.reach - a.support + 1) // 2, left,
                     a.support in (0, 2 * left + (h.t == 2))))
    return rows


def filter_rows(h: WeightDiagram, r: int) -> list[list[tuple[int, int, int, bool]]]:
    """The rows of each order filter of ``r`` arcs of ``h``, as ``_filters``
    yields them: every r-subset of the preorder forest that holds the parent
    of each member, in lexicographic order, each member's subtree and the
    members wholly left of it counted in the subset."""
    forest = forest_rows(h)
    end = [i + size for i, (_, size, _, _) in enumerate(forest)]  # past each subtree
    parent = [max((j for j in range(i) if end[j] > i), default=None)
              for i in range(len(forest))]
    out = []
    for members in itertools.combinations(range(len(forest)), r):
        if any(parent[i] is not None and parent[i] not in members for i in members):
            continue
        out.append([(p, sum(i <= j < end[i] for j in members),
                     sum(end[j] <= i for j in members), tight)
                    for i in members for p, _, _, tight in (forest[i],)])
    return out
