"""Reduction of a simple module's diagram by removing arcs.

The rank-r reduction has one component per order filter F of r arcs in the
arc forest of the compacted diagram: a set of arcs holding the enclosing arc
of each member, which is what r steps can remove.  The component is erased
in lam: lam's own diagram with the crosses of F erased, zero-stack arcs off
the top of the stack; compaction only finds the arcs.  Compacted position p
is index at[p] of lam's tail: the table lists the indices free of the core,
after a None unless a zero core folded the first into the stack, so a
folded cross is at[0], the last the stack gives up.  The one sign rule
signs the result: a t=0 component that needs a sign comes in both signings,
a t=1 one keeps lam's sign.  A step removes a root with a multiplicity read
off the parity of ``e``, the free positions left of its support:

    t = 1, 2:  (1|0) for e = 0,   (2|0) for even e > 0,   (0|2) for odd e
    t = 0:     (1|0) for even e,  (0|1) for odd e

Removing an arc adds 2 to ``e`` of the arcs right of it, so ``e`` has the
parity of the support, less 1 for t=2: the component is (0|W) when these
sum to an odd number over the off-zero arcs of F, else (W|0).  W counts the
removal orders of F, r!/prod s(a) of them by the hook-length formula for
forests, where s(a) is the size of a's subtree in F; in the whole forest
s(a) = (reach - support + 1) / 2, because an arc's span holds nothing but
crosses and the ends of arcs inside it.

Rank 1 reads the table straight off the roots of the sweep, one component
per root named by its support: (1|0) when e = 0, as at the zero stack, else
``_ROOT_MULT[t != 0][e & 1]``.  Rank 2 and up read the filters off the
sweep's rows, which carry each arc's support, ends and count of arcs wholly
left of it, erase each filter in one list copy of lam's tail, and
:func:`_weight` gives W:

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
import re
from bisect import bisect_left
from collections import namedtuple
from operator import itemgetter

from .arcs import _sweep
from .diagram import (EMPTY, DomainError, WeightDiagram, _needs_sign, _parity,
                      atypicality, check_valid, fmt)
from .howl import _compact, _howl


class GradedMult(namedtuple("GradedMult", "d0 d1")):
    """Multiplicities of a simple module and of its parity shift."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.d0}|{self.d1})"

    def __add__(self, other) -> "GradedMult":
        return GradedMult(self.d0 + other[0], self.d1 + other[1])


ZERO = GradedMult(0, 0)
ONE = GradedMult(1, 0)
# the rank-1 table of the module docstring for e > 0: _ROOT_MULT[t != 0][e & 1]
_ROOT_MULT = ((ONE, GradedMult(0, 1)), (GradedMult(2, 0), GradedMult(0, 2)))
_FREE_RUNS = re.compile("[ox]+")  # the runs of a tail free of the core


class Decomposition(namedtuple("Decomposition", "t components")):
    """Finite multiset of components with graded multiplicities: the block
    type ``t`` and a dict from each component to its ``GradedMult``."""

    __slots__ = ()

    def __new__(cls, t: int, components: dict[WeightDiagram, GradedMult] | None = None):
        return tuple.__new__(cls, (t, {} if components is None else components))

    def get(self, d: WeightDiagram) -> GradedMult:
        return self.components.get(d, ZERO)

    def to_json(self, source: WeightDiagram, rank: int) -> dict:
        return {
            "t": self.t,
            "rank": rank,
            "input": fmt(source),
            "components": [{"diagram": text, "d0": g.d0, "d1": g.d1} for text, g
                           in sorted((fmt(d), g) for d, g in self.components.items())],
        }


def ds1(lam: WeightDiagram) -> Decomposition:
    """One reduction step applied to a simple module's diagram."""
    return _dsr(check_valid(lam), 1)


def dsr(lam: WeightDiagram, r: int) -> Decomposition:
    """The rank-r reduction: one component per order filter of r arcs."""
    # type(), not isinstance(), as the diagram constructor: True is no rank
    if type(r) is not int:
        raise DomainError(f"rank must be an int, got {r!r}")
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
    t, stack, core, tail, _ = lam
    # at[p]: the index in lam's tail of compacted position p, p - 1 if core-free
    if h is lam:
        at = range(-1, len(tail))
    else:
        at = [] if t != 2 and core is not None else [None]
        for m in _FREE_RUNS.finditer(tail):
            at += range(*m.span())
    components = out.components
    both = (lam.sign,) if t == 1 else ("+", "-")
    if r == 1:
        # each root is a component: erase its one cross, read the table
        mults = _ROOT_MULT[t != 0]
        for p, e in _sweep(h).items():
            if p or not stack:
                q, s = at[p], stack
                erased = tail[:q] + EMPTY + tail[q + 1:]
            else:
                erased, s = tail, stack - 1
            mult = mults[e & 1] if e else ONE
            for sign in both if _needs_sign(t, s, core, erased) else (None,):
                components[WeightDiagram._trusted(t, s, core, erased, sign)] = mult
        return out
    t2 = t == 2
    for members in _filters(h, r):
        w = _weight(h, members)
        erased, s, odd = list(tail), stack, 0
        for p, _, _, _ in members:
            if p or not s:
                erased[at[p]] = EMPTY
                odd ^= (p - t2) & 1
            else:
                s -= 1
        erased = "".join(erased)
        mult = GradedMult(0, w) if odd else GradedMult(w, 0)
        # different filters erase different crosses: no component repeats
        for sign in both if _needs_sign(t, s, core, erased) else (None,):
            components[WeightDiagram._trusted(t, s, core, erased, sign)] = mult
    return out


def _filters(h: WeightDiagram, r: int):
    """Each order filter of ``r`` arcs of ``h`` as integer rows in preorder:
    (support, subtree size in the filter, members wholly left of it, tight),
    the forest's read off the sweep's rows."""
    _sweep(h, arcs := [])
    n = len(arcs)
    # preorder: a subtree is a run, and an arc before ``a`` encloses ``a``
    # or lies wholly left of it; the sweep lists the zero-stack arcs
    # outermost first, and the whole forest needs no order
    if r < n:
        arcs.sort(key=itemgetter(0))
    t2 = h.t == 2
    # (support, subtree size, arcs wholly left of it, tight)
    forest = [(p, (ends[-1] - p + 1) // 2, left, p in (0, 2 * left + t2))
              for p, _, ends, left in arcs]
    if r == n:
        yield forest
        return
    # (next arc, members kept): an arc is reached only when its parent is a
    # member, and a state is kept only when the arcs after it can fill F; the
    # members left of an arc are those before it but its ancestors
    members, todo = [], [(0, 0)]
    while todo:
        j, c = todo.pop()
        del members[c:]
        if c == r:
            yield [(p, bisect_left(members, i + size, m) - m, m - i + left, tight)
                   for m, i in enumerate(members)
                   for p, size, left, tight in (forest[i],)]
        elif c + n - j >= r:
            todo.append((j + forest[j][1], c))  # leave out arc j's subtree
            todo.append((j + 1, c + 1))
            members.append(j)


def _weight(h: WeightDiagram, members: list[tuple[int, int, int, bool]]) -> int:
    """Total multiplicity of the component that removing the filter
    ``members`` from ``h`` leaves (see the module docstring)."""
    r = len(members)
    num, den = math.factorial(r), math.prod(s for _, s, _, _ in members)
    if h.t == 0:
        chain = sorted(s for p, s, _, _ in members if p == 0)
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
    """Two counts whose ratio is the mean of 2^(arcs removed after the lowest
    zero cross) over the removal orders; only the ratio is meaningful.

    ``chain`` holds the subtree sizes of the zero-stack arcs, smallest first:
    the lowest zero cross, then each double-ended arc above it, which is its
    parent, up to the top one, a root among trees of ``r`` arcs in all.  As
    in a Polya urn, an order starts as the cross's subtree, the cross first;
    each parent goes first, and each arc of a sibling subtree takes one of
    the n + 1 gaps among the n arcs below the parent so far, q + 1 of them
    after the cross when q arcs are: after[q] <- (n - q) after[q] + q after[q - 1].
    Each interleaving is counted b! times per level of b sibling arcs.
    """
    after = [0] * (chain[0] - 1) + [1]  # after[q]: ways with q arcs after the cross
    n = chain[0]
    # a virtual arc of size r + 1 above the roots changes nothing
    for whole in chain[1:] + [r + 1]:
        for n in range(n, whole - 1):  # each sibling arc takes one of the n + 1 gaps
            after = [(n - q) * w + q * v for q, (w, v) in enumerate(zip(after + [0], [0] + after))]
        n = whole
    return sum(w << q for q, w in enumerate(after)), sum(after)


def check_purity(dec: Decomposition, lam: WeightDiagram) -> bool:
    """No component may occur together with its parity shift, and the grading
    of each component must be the source grading twisted by the shift: the
    grading of a diagram is ``pari`` of its compaction."""
    base = _parity(lam.t, _compact(check_valid(lam))[1])
    for nu, (d0, d1) in dec.components.items():
        if d0 and d1:
            return False
        p = _parity(nu.t, _compact(check_valid(nu))[1])
        if d0 and p != base or d1 and p != -base:
            return False
    return True


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
    # one unsigned key per component: its two signings share a multiplicity
    factor = 2 if lam.sign else 1
    return Decomposition(lam.t, {nu.with_sign(None): GradedMult(factor * d0, factor * d1)
                                 for nu, (d0, d1) in plain.components.items()})
