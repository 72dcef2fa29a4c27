"""Superdimensions from the arc forest and the Weyl dimension formula.

The reduction preserves superdimension, and reducing by the full
atypicality k strips all crosses.  When n = k the residue is a plain
orthogonal Lie algebra so_(2(m-k)+t): every component is a lift of the empty
diagram into the core of ``lam``, and its ordinary dimension is a Weyl
product over the surviving ``>`` coordinates.  When n > k the residue keeps
odd directions and every component is typical there, so the answer is 0.

The full reduction itself is never run.  Every component carries the same
total multiplicity W, with the sign of the grading of ``lam``, and W is a
weighted count of the orders in which the arcs of the compacted diagram can
be removed: the linear extensions of the arc forest, k!/prod s(a) of them
by the hook-length formula for forests, where the subtree size s(a) is
(reach - support + 1) / 2 because an arc's span holds nothing but crosses
and the ends of arcs inside it.

* t = 1, 2: removing an arc counts 1 when its free-left count ``e`` is 0
  and 2 otherwise.  Removing an arc wholly to the left of an arc adds 2 to
  its ``e``.  So ``e`` is 0 exactly when the N arcs wholly to its left fill
  every position before its support, the zero ``>`` of t=2 aside (support
  2N, or 2N + 1 for t=2; every zero-stack arc qualifies), and the arc goes
  before all its left siblings.  In a random removal order that happens
  with probability s / (N + s), s being its subtree size, independently
  for each arc, so
  W = 2^k k!/prod s(a) * prod (2N + s) / (2(N + s)) over those arcs.
* t = 0: every step counts 1, but a step that empties the zero stack or
  starts with it empty, and leaves a cross behind, yields both signings of
  the reduced diagram.  Without a stack W = 2^(k-1) k!/prod s(a); with
  one, W is k!/prod s(a) times the mean of 2^(arcs removed after the
  lowest zero cross) over the removal orders, found by interleaving the
  subtrees along the chain of zero-stack arcs.

All of this costs time polynomial in k; ``dsr`` stays the rank-r route.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .arcs import _build_arcs
from .diagram import (CROSS, GT, LT, DomainError, WeightDiagram, atypicality,
                      check_valid, core_of, fmt)
from .ds import _pari_of
from .howl import _howl, _unhowl

Q = Fraction


def _dim_from_shifted(N: int, a: list[Fraction]) -> int:
    """Weyl dimension of so_N from the rho-shifted weight ``a``."""
    r = len(a)
    if N <= 2:
        return 1
    if N % 2:  # odd: shifted rho is (r - 1/2, ..., 1/2)
        rho = [Q(2 * (r - i) - 1, 2) for i in range(r)]
    else:  # even: (r - 1, ..., 1, 0)
        rho = [Q(r - 1 - i) for i in range(r)]
    num = den = Q(1)
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


def weyl_dim_so(N: int, hw) -> int:
    """Dimension of the irreducible so_N module with highest weight ``hw``."""
    if N < 0:
        raise DomainError("N must be non-negative")
    hw = [Q(x) for x in hw]
    r = N // 2
    if len(hw) != r:
        raise DomainError(f"so_{N} takes {r} weight coordinates, got {len(hw)}")
    for x, y in zip(hw, hw[1:]):
        if x < y:
            raise DomainError("weight coordinates must be non-increasing")
    if N % 2:
        if hw and hw[-1] < 0:
            raise DomainError("odd so weights are non-negative")
        a = [x + Q(2 * (r - i) - 1, 2) for i, x in enumerate(hw)]
    else:
        if len(hw) >= 2 and hw[-2] < abs(hw[-1]):
            raise DomainError("even so weights need hw[r-2] >= |hw[r-1]|")
        a = [x + Q(r - 1 - i) for i, x in enumerate(hw)]
    if any((2 * x).denominator != 1 for x in hw):
        raise DomainError("weight coordinates must be integers or half-integers")
    return _dim_from_shifted(N, a)


def _component_dim(nu: WeightDiagram) -> int:
    """Ordinary so-dimension of a crossless component diagram."""
    if nu.count(CROSS):
        raise DomainError("component still has crosses")
    if nu.count(LT):
        raise DomainError("component keeps odd directions; dimension is not so-like")
    positions = sorted((p for p, s in enumerate(nu.tail_symbols, 1) if s == GT),
                       reverse=True)
    if nu.zero_core == GT:
        positions.append(0)
    shift = Q(1, 2) if nu.t == 1 else Q(0)
    a = [Q(p) + shift for p in positions]
    N = 2 * len(a) + (1 if nu.t == 1 else 0)
    return _dim_from_shifted(N, a)


def superdimension(lam: WeightDiagram, m: int, n: int) -> int:
    """Superdimension of the simple module with diagram ``lam`` over
    osp(2m+t|2n); ``(m, n)`` must match the diagram's symbol counts."""
    check_valid(lam)
    k = atypicality(lam)
    want_gt = m + 1 - k if lam.t == 2 else m - k
    if lam.count(GT) != want_gt or lam.count(LT) != n - k:
        raise DomainError(f"count mismatch: {fmt(lam)!r} does not describe a weight "
                          f"with m={m}, n={n}")
    if n > k:
        return 0
    if k == 0:
        return _component_dim(lam)
    empty = WeightDiagram(lam.t, 0, GT if lam.t == 2 else None)
    dims = sum(_component_dim(nu) for nu in _unhowl(core_of(lam), empty))
    # the empty diagram has grading +1
    return _pari_of(lam) * _removal_weight(_howl(lam)) * dims


def _removal_weight(h: WeightDiagram) -> int:
    """Total multiplicity with which the full reduction of the core-free
    diagram ``h`` reaches the empty diagram (see the module docstring)."""
    arcs = _build_arcs(h).arcs
    k = len(arcs)
    sizes = [(a.reach - a.support + 1) // 2 for a in arcs]
    num, den = math.factorial(k), math.prod(sizes)
    if h.t == 0:
        chain = sorted(s for a, s in zip(arcs, sizes) if a.support == 0)
        if not chain:
            return num * 2 ** (k - 1) // den
        after, orders = _after_stack(chain, k)
        return num * after // (den * orders)
    num *= 2 ** k
    reaches = sorted(a.reach for a in arcs)
    for a, s in zip(arcs, sizes):
        left = bisect_left(reaches, a.support)  # arcs wholly left of ``a``
        if a.support in (0, 2 * left + (h.t == 2)):
            num *= 2 * left + s
            den *= 2 * (left + s)
    return num // den


def _after_stack(chain: list[int], k: int) -> tuple[int, int]:
    """Sum of 2^(arcs removed after the lowest zero cross) over the ways to
    interleave subtrees along its ancestors, and the number of those ways.

    ``chain`` holds the subtree sizes of the zero-stack arcs, smallest first:
    the lowest zero cross, then each double-ended arc above it, which is its
    parent, up to the top one, a root among trees of ``k`` arcs in all.
    """
    after = {chain[0] - 1: 1}  # arcs after the lowest zero cross -> ways
    orders = 1
    # a virtual arc of size k + 1 above the roots changes nothing
    for a, whole in zip(chain, chain[1:] + [k + 1]):
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
