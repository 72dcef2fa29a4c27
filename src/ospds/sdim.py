"""Superdimensions from the rank-k reduction and the Weyl dimension formula.

The reduction preserves superdimension, and reducing by the full
atypicality k strips all crosses.  When n = k the residue is a plain
orthogonal Lie algebra so_(2(m-k)+t): every component is a lift of the empty
diagram into the core of ``lam``, and its ordinary dimension is a Weyl
product over the surviving ``>`` coordinates.  When n > k the residue keeps
odd directions and every component is typical there, so the answer is 0.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import (CROSS, GT, LT, DomainError, WeightDiagram, atypicality,
                      check_valid, fmt)
from .ds import _dsr

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
    return sum((g.d0 - g.d1) * _component_dim(nu)
               for nu, g in _dsr(lam, k).components.items())
