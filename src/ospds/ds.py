"""Reduction of a simple module's diagram by removing arcs.

The rank-r reduction has one component per order filter F of r arcs in the
arc forest of the compacted diagram: a set of arcs holding the enclosing arc
of each member, which is what r steps can remove.  The component is erased
in lam: lam's own diagram with the crosses of F erased, zero-stack arcs off
the top of the stack; compaction only finds the arcs, and the table ``at``
of ``howl._source`` maps each compacted position to its index in lam's
tail.  The one sign rule signs the result: a t=0 component that needs a
sign comes in both signings, a t=1 one keeps lam's sign.  A step removes a
root with a multiplicity read off the parity of ``e``, the free positions
left of its support:

    t = 1, 2:  (1|0) for e = 0,   (2|0) for even e > 0,   (0|2) for odd e
    t = 0:     (1|0) for even e,  (0|1) for odd e

Removing an arc adds 2 to ``e`` of the arcs right of it, so ``e`` has the
parity of the support, less 1 for t=2: the component is (0|W) when these
sum to an odd number over the off-zero arcs of F, else (W|0).  W counts the
removal orders of F, r!/prod s(a) of them by the hook-length formula for
forests, where s(a) is the size of a's subtree in F; in the whole forest
s(a) = (reach - support + 1) / 2, because an arc's span holds nothing but
crosses and the ends of arcs inside it.

:func:`_components` streams the components as unsigned rows (zero stack,
erased tail, multiplicity), and :func:`_dsr` alone signs them.  Rank 1 reads
one row off each root of the sweep, named by its support: (1|0) when e = 0, as
at the zero stack, else ``_ROOT_MULT[t != 0][e & 1]``.  Ranks 2 to k - 1 erase
each filter of :func:`_filters` in one list copy of lam's tail, and
:func:`_graded` counts each member's subtree and members wholly left in F as
it sums the parity and W.  Rank k erases every cross, and :func:`_whole`
grades the whole forest in one pass, for ``sdim.superdimension`` too, its
parity off ``diagram._parity``; both graders end in :func:`_finish`.  W is:

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
from collections import namedtuple
from operator import itemgetter

from .arcs import _sweep
from .diagram import (CROSS, EMPTY, DomainError, WeightDiagram, _needs_sign, _parity,
                      check_valid, fmt)
from .howl import _howl, _source


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
    return _dsr(lam, 1, _source(lam))


def dsr(lam: WeightDiagram, r: int) -> Decomposition:
    """The rank-r reduction: one component per order filter of r arcs."""
    # type(), not isinstance(), as the diagram constructor: True is no rank
    if type(r) is not int:
        raise DomainError(f"rank must be an int, got {r!r}")
    if r < 0:
        raise DomainError("rank must be non-negative")
    return _dsr(lam, r, _source(lam))


def _dsr(lam: WeightDiagram, r: int, source: tuple) -> Decomposition:
    """:func:`dsr` of a valid diagram whose ``howl._source`` fields are ``source``."""
    t, _, core, _, sign = lam
    if r == 0:
        return Decomposition(t, {lam: ONE})
    both = (sign,) if t == 1 else ("+", "-")
    # different components erase different crosses: none repeats
    return Decomposition(t, {WeightDiagram._trusted(t, s, core, erased, sg): mult
                             for s, erased, mult in _components(lam, r, source)
                             for sg in (both if _needs_sign(t, s, core, erased) else (None,))})


def _components(lam: WeightDiagram, r: int, source: tuple):
    """Each component of the rank-``r`` reduction of the valid ``lam``, r >= 1,
    as an unsigned row (zero stack, erased tail, GradedMult); the arcs are
    those of the record's compaction ``h``, at lam's indices ``at``."""
    k, _, h, at = source
    if r > k:
        return
    t, stack, _, tail, _ = lam
    if r == 1:
        # each root is a component: erase its one cross, read the table
        mults = _ROOT_MULT[t != 0]
        for p, e in _sweep(h).items():
            if p or not stack:
                yield stack, tail[:at[p]] + EMPTY + tail[at[p] + 1:], mults[e & 1] if e else ONE
            else:  # the top zero cross, with e = 0
                yield stack - 1, tail, ONE
        return
    if r == k:  # the whole forest erases every cross
        yield 0, tail.replace(CROSS, EMPTY), _whole(h)
        return
    for forest, members in _filters(h, r):
        erased, s = list(tail), stack
        for i in members:
            p = forest[i][0]
            if p or not s:
                erased[at[p]] = EMPTY
            else:
                s -= 1
        yield s, "".join(erased), _graded(h, forest, members)


def _filters(h: WeightDiagram, r: int):
    """Each order filter of ``r`` arcs of ``h`` as (forest, members): the rows
    (support, subtree size, arcs wholly left of it, tight) read off the sweep
    once, and the indices of the members in one list that each filter reuses."""
    _sweep(h, arcs := [])
    n, t2 = len(arcs), h[0] == 2
    # preorder: a subtree is a run, and an arc before ``a`` encloses ``a`` or
    # lies wholly left of it; the sweep lists the zero-stack arcs outermost first
    arcs.sort(key=itemgetter(0))
    forest = [(p, (ends[-1] - p + 1) // 2, left, p in (0, 2 * left + t2))
              for p, _, ends, left in arcs]
    # (next arc, members kept): an arc is reached only when its parent is a
    # member, and a state is kept only when the arcs after it can fill F
    members, todo = [], [(0, 0)] if r else []
    while todo:
        j, c = todo.pop()
        del members[c:]
        if c == r or c + n - j == r:  # F is full, or the arcs left just fill it
            members += range(j, j + r - c)
            yield forest, members
        elif c + n - j > r:
            todo.append((j + forest[j][1], c))  # leave out arc j's subtree
            todo.append((j + 1, c + 1))
            members.append(j)


def _graded(h: WeightDiagram, forest: list[tuple], members: list[int]) -> GradedMult:
    """The graded multiplicity, by the module docstring's rules, of the
    component that removing the filter ``members`` of ``forest`` leaves."""
    t, r, t2 = h[0], len(members), h[0] == 2
    num, den, odd, chain = math.factorial(r), 1, 0, []
    for m, i in enumerate(members):
        p, s, left, tight = forest[i]
        s = bisect_left(members, i + s, m) - m  # its subtree in F: the members in its run
        den *= s
        if p:
            odd += p - t2
        elif not t:
            chain.append(s)
        if tight and t:
            left += m - i  # the members wholly left: those before it but its ancestors
            num *= 2 * left + s
            den *= 2 * (left + s)
    return _finish(h, r, num, den, odd, chain)


def _whole(h: WeightDiagram) -> GradedMult:
    """The graded multiplicity of rank k's one filter, the whole forest of a valid
    core-free ``h``, in one pass that matches crosses to empties as ``_sweep`` does,
    with one padded empty per arc still open past the tail, graded by ``_parity``;
    not in ``_sweep``: its rows and a loop over them made superdimension 30% slower."""
    t, stack, _, tail, _ = h
    t2, supports = t == 2, [0] if t != 2 and stack else []  # a single-ended lowest zero cross
    taken = 2 * (stack - len(supports))  # ends of the double-ended arcs
    num, den, chain, firsts, closed, p = 1, 1, [], [], 0, 0
    for padding in (False, True):  # the stored tail, then one empty per arc still open
        for p, sym in enumerate(EMPTY * len(supports) if padding else tail, p + 1):
            if sym == CROSS:
                supports.append(p)
            elif supports:
                support = supports.pop()
                s = (p - support + 1) // 2  # its span holds its subtree
                den *= s
                if t:
                    left = closed - (p - support - 1) // 2 + len(firsts) // 2  # the sweep's formula
                    if not support or support == 2 * left + t2:  # tight
                        num, den = num * (2 * left + s), den * 2 * (left + s)
                elif not support:
                    chain.append(s)
                closed += 1
            elif len(firsts) < taken:
                firsts.append(p)
    # double-ended arcs take the first free positions two at a time, all free past the sweep
    sizes = [(q + 1) // 2 for q in [*firsts, *range(p + 1, p + 1 + taken)][1:taken:2]]
    den *= math.prod(sizes) << len(sizes) if t else math.prod(sizes)  # tight: s / 2s cancels s
    odd = _parity(t, tail) < 0
    return _finish(h, r := closed + len(sizes), math.factorial(r) * num, den, odd, chain + sizes)


def _finish(h: WeightDiagram, r: int, num: int, den: int, odd: int, chain: list[int]) -> GradedMult:
    """W of a filter of ``r`` arcs by the module docstring's rules, graded by ``odd``."""
    t, stack, _, _, _ = h
    if t:
        w = (num << r) // den
    elif not stack:
        w = (num << r >> 1) // den
    elif len(chain) < stack:  # the lowest zero cross stays
        w = num // den
    else:
        after, orders = _after_stack(sorted(chain), r)
        w = num * after // (den * orders)
    return GradedMult(0, w) if odd & 1 else GradedMult(w, 0)


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
    """No component may occur together with its parity shift, and each grading,
    ``pari`` of the compaction, must be the source's twisted by the shift; each
    is read off a compacted tail: the source's off the compaction that
    ``howl._source`` records, a component's off ``howl._howl``."""
    t, _, _, tail, _ = _source(lam)[2]
    base = _parity(t, tail)
    for nu, (d0, d1) in dec.components.items():
        if d0 and d1:
            return False
        nt, _, _, ntail, _ = _howl(check_valid(nu))
        p = _parity(nt, ntail)
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
    source = _source(lam)
    t, _, core, _, sign = lam
    if t == 1:
        return _dsr(lam, 1, source)
    # one unsigned key per component: its two signings share a multiplicity
    return Decomposition(t, {WeightDiagram._trusted(t, s, core, erased, None):
                             mult + mult if sign else mult
                             for s, erased, mult in _components(lam, 1, source)})
