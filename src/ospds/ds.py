"""Reduction of a simple module's diagram by removing arcs.

The rank-r reduction has one component per order filter F of r arcs in the
arc forest of the compacted diagram: a set of arcs holding the enclosing arc
of each member, which is what r steps can remove.  It erases the crosses of
F, zero-stack arcs off the top of the stack, and is lifted back into the
block; for t=0 a bare zero position with a cross left takes both signs.  A
step removes a root with a multiplicity read off the parity of ``e``, the
free positions left of its support:

    t = 1, 2:  (1|0) for e = 0,   (2|0) for even e > 0,   (0|2) for odd e
    t = 0:     (1|0) for even e,  (0|1) for odd e

Removing an arc adds 2 to ``e`` of the arcs right of it, so ``e`` has the
parity of the support, less 1 for t=2: the component is (0|W) when these
sum to an odd number over the off-zero arcs of F, else (W|0).  W counts the
removal orders of F, r!/prod s(a) of them by the hook-length formula for
forests, where s(a) is the size of a's subtree in F; in the whole forest
s(a) = (reach - support + 1) / 2, because an arc's span holds nothing but
crosses and the ends of arcs inside it.

* t = 1, 2: a step counts 2, or 1 when ``e`` is 0: when the arc is tight,
  the N arcs wholly to its left in the forest filling every position before
  its support (support 2N, or 2N + 1 for t=2; every zero-stack arc is
  tight), and it goes before the N_F of them in F.  In a random removal
  order that has probability s / (N_F + s), independently for each arc, so
  W = 2^r r!/prod s(a) * prod (2 N_F + s) / (2(N_F + s)) over tight arcs.
* t = 0: a step counts 1, but one that empties the zero stack or starts with
  it empty, and leaves a cross behind, yields both signings.  Without a
  stack W = 2^(r-1) r!/prod s(a); while the lowest zero cross stays,
  W = r!/prod s(a); else W is r!/prod s(a) times the mean of 2^(arcs removed
  after the lowest zero cross) over the removal orders.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

from .arcs import Arc, ArcDiagram, _build_arcs, _erase
from .diagram import (CROSS, DomainError, WeightDiagram, atypicality,
                      check_valid, core_of, fmt, pari, sigma)
from .howl import _howl, _unhowl, howl


class GradedMult(NamedTuple):
    """Multiplicities of a simple module and of its parity shift."""

    d0: int
    d1: int

    def __str__(self) -> str:
        return f"({self.d0}|{self.d1})"

    def __add__(self, other) -> "GradedMult":
        return GradedMult(self.d0 + other[0], self.d1 + other[1])


ZERO = GradedMult(0, 0)
ONE = GradedMult(1, 0)


@dataclass
class Decomposition:
    """Finite multiset of components with graded multiplicities."""

    t: int
    components: dict[WeightDiagram, GradedMult] = field(default_factory=dict)

    def add(self, d: WeightDiagram, g: GradedMult) -> None:
        self.components[d] = self.components.get(d, ZERO) + g

    def get(self, d: WeightDiagram) -> GradedMult:
        return self.components.get(d, ZERO)

    def items_sorted(self):
        return sorted(self.components.items(), key=lambda kv: fmt(kv[0]))

    def to_json(self, source: WeightDiagram, rank: int) -> dict:
        return {
            "t": self.t,
            "rank": rank,
            "input": fmt(source),
            "components": [{"diagram": fmt(d), "d0": g.d0, "d1": g.d1}
                           for d, g in self.items_sorted()],
        }


def _sign_variants(h: WeightDiagram) -> list[WeightDiagram]:
    """Both signings of an even-series diagram whose zero position is bare."""
    if h.t == 0 and h.zero_crosses == 0 and h.count(CROSS) >= 1:
        return [h.with_sign("+"), h.with_sign("-")]
    return [h]


def ds1(lam: WeightDiagram) -> Decomposition:
    """One reduction step applied to a simple module's diagram."""
    return _dsr(check_valid(lam), 1)


def dsr(lam: WeightDiagram, r: int) -> Decomposition:
    """The rank-r reduction: one component per order filter of r arcs."""
    if r < 0:
        raise DomainError("rank must be non-negative")
    return _dsr(check_valid(lam), r)


def _dsr(lam: WeightDiagram, r: int) -> Decomposition:
    """:func:`dsr` of a diagram known to be valid."""
    if r == 0:
        return Decomposition(lam.t, {lam: ONE})
    out = Decomposition(lam.t)
    if r > atypicality(lam):
        return out
    h = _howl(lam)
    diagram = _build_arcs(h)
    # r = 1: the roots, tight when no free position lies left of the support
    filters = ([[(a, 1, 0, e == 0)] for a, e in diagram.roots.items()]
               if r == 1 else _filters(diagram, r))
    g, t2 = core_of(lam), h.t == 2
    for members in filters:
        w = _weight(h, members)
        supports = [m[0].support for m in members]
        odd = sum(p - t2 for p in supports if p) % 2
        mult = GradedMult(0, w) if odd else GradedMult(w, 0)
        for h2 in _sign_variants(_erase(h, supports)):
            for nu in _unhowl(g, h2):
                out.add(nu, mult)
    return out


def _filters(diagram: ArcDiagram, r: int):
    """Each order filter of ``r`` arcs as its members in preorder: (arc,
    subtree size in the filter, members wholly left of it, tight)."""
    n = len(diagram.arcs)
    # preorder: a subtree is a run, and an arc before ``a`` encloses ``a``
    # or lies wholly left of it; the whole forest needs no order
    arcs = diagram.arcs if r == n else sorted(
        diagram.arcs, key=lambda a: (a.support, -a.reach))
    reaches = sorted([a.reach for a in arcs])
    t2 = diagram.base.t == 2
    forest = []  # (arc, subtree size, arcs wholly left of it, tight)
    for a in arcs:
        left = bisect_left(reaches, a.support)
        forest.append((a, (a.reach - a.support + 1) // 2, left,
                       a.support in (0, 2 * left + t2)))
    if r == n:
        yield forest
        return
    # (next arc, members so far): an arc is reached only when its parent is a
    # member, and a state is kept only when the arcs after it can fill F; the
    # members left of an arc are those before it but its ancestors
    todo: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while todo:
        j, members = todo.pop()
        if len(members) == r:
            yield [(a, bisect_left(members, i + size, m) - m, m - i + left, tight)
                   for m, i in enumerate(members)
                   for a, size, left, tight in (forest[i],)]
        elif len(members) + n - j >= r:
            todo.append((j + forest[j][1], members))  # leave out arc j's subtree
            todo.append((j + 1, members + (j,)))


def _weight(h: WeightDiagram, members: list[tuple[Arc, int, int, bool]]) -> int:
    """Total multiplicity of the component that removing the filter
    ``members`` from ``h`` leaves (see the module docstring)."""
    r = len(members)
    num, den = math.factorial(r), math.prod(s for _, s, _, _ in members)
    if h.t == 0:
        chain = sorted(s for a, s, _, _ in members if a.support == 0)
        if not h.zero_crosses:
            return num * 2 ** (r - 1) // den
        if len(chain) < h.zero_crosses:  # the lowest zero cross stays
            return num // den
        after, orders = _after_stack(chain, r)
        return num * after // (den * orders)
    num <<= r
    for _, s, n, tight in members:
        if tight:
            num *= 2 * n + s
            den *= 2 * (n + s)
    return num // den


def _after_stack(chain: list[int], r: int) -> tuple[int, int]:
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


def _pari_of(d: WeightDiagram) -> int:
    return pari(howl(d))


def check_purity(dec: Decomposition, lam: WeightDiagram) -> bool:
    """No component may occur together with its parity shift, and the grading
    of each component must be the source grading twisted by the shift."""
    base = _pari_of(lam)
    for nu, (d0, d1) in dec.components.items():
        if d0 and d1:
            return False
        p = _pari_of(nu)
        if d0 and p != base:
            return False
        if d1 and p != -base:
            return False
    return True


def _strip_sign(d: WeightDiagram) -> WeightDiagram:
    return d.with_sign(None) if d.sign else d


def ds_osp(lam: WeightDiagram) -> Decomposition:
    """One reduction step for modules of the full orthosymplectic group.

    For the even series the simple modules are labelled by unsigned diagrams
    (a sign orbit); the multiplicity doubles when the source orbit has two
    members.  For the odd series the labels carry an extra +/- tag that both
    sides must share, and the multiplicities are those of :func:`ds1`.
    """
    plain = ds1(lam)
    if lam.t == 1:
        return plain
    factor = 2 if (lam.t == 0 and sigma(lam) != lam) else 1
    out = Decomposition(lam.t)
    seen: set[WeightDiagram] = set()
    for nu, g in plain.components.items():
        key = _strip_sign(nu)
        if key in seen:
            continue
        seen.add(key)
        out.add(key, GradedMult(factor * g.d0, factor * g.d1))
    return out
