"""Reduction of a simple module's diagram by removing maximal arcs.

One reduction step lists, for every maximal arc of the compacted diagram,
the smaller diagram left after removing it, lifted back into the block, with
a graded multiplicity read off the parity of ``e`` (the free positions left
of the arc's support):

    t = 1, 2:  (1|0) for e = 0,   (2|0) for even e > 0,   (0|2) for odd e
    t = 0:     (1|0) for even e,  (0|1) for odd e

For t=0 the multiplicity is blind to the sign of the target, so a signed
target always appears together with its sign flip.  Iterating the step
computes the rank-r reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .arcs import _build_arcs, free_left, maximal_arcs, remove_arc
from .diagram import (CROSS, DomainError, WeightDiagram, check_valid,
                      core_of, fmt, pari, sigma)
from .howl import _howl, _unhowl, howl, tau


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


def gm_mul(x: GradedMult, y: GradedMult) -> GradedMult:
    """Multiplication in the parity-shift group ring."""
    return GradedMult(x.d0 * y.d0 + x.d1 * y.d1, x.d0 * y.d1 + x.d1 * y.d0)


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


def mult_rule(t: int, e: int) -> GradedMult:
    if t == 0:
        return GradedMult(1, 0) if e % 2 == 0 else GradedMult(0, 1)
    if e == 0:
        return GradedMult(1, 0)
    return GradedMult(2, 0) if e % 2 == 0 else GradedMult(0, 2)


def _sign_variants(h: WeightDiagram) -> list[WeightDiagram]:
    """Both signings of an even-series diagram whose zero position is bare."""
    if h.t == 0 and h.zero_crosses == 0 and h.count(CROSS) >= 1:
        return [h.with_sign("+"), h.with_sign("-")]
    return [h]


def ds1(lam: WeightDiagram) -> Decomposition:
    """One reduction step applied to a simple module's diagram."""
    return _ds1(check_valid(lam))


def _ds1(lam: WeightDiagram) -> Decomposition:
    """:func:`ds1` of a diagram known to be valid."""
    g = core_of(lam)
    diagram = _build_arcs(_howl(lam))
    out = Decomposition(lam.t)
    for arc in maximal_arcs(diagram):
        mult = mult_rule(lam.t, free_left(diagram, arc))
        for h2 in _sign_variants(remove_arc(diagram, arc)):
            for nu in _unhowl(g, h2):
                out.add(nu, mult)
    return out


def dsr(lam: WeightDiagram, r: int) -> Decomposition:
    """r-fold iteration of :func:`ds1` with multiplicities composed.  From
    rank k + 1 on the decomposition is empty, so at most k + 1 steps run."""
    if r < 0:
        raise DomainError("rank must be non-negative")
    current = Decomposition(lam.t, {check_valid(lam): ONE})
    for _ in range(r):
        if not current.components:
            break
        nxt = Decomposition(lam.t)
        for nu, g in current.components.items():
            for nu2, g2 in _ds1(nu).components.items():
                nxt.add(nu2, gm_mul(g, g2))
        current = nxt
    return current


def _pari_of(d: WeightDiagram) -> int:
    h = howl(d)
    return pari(tau(h)) if d.t == 2 else pari(h)


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
