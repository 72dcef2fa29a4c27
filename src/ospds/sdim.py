"""Superdimensions from the rank-k reduction and the Weyl dimension formula.

The reduction preserves superdimension, and reducing by the full
atypicality k strips all crosses.  When n = k the residue is a plain
orthogonal Lie algebra so_(2(m-k)+t): every component is a lift of the empty
diagram into the core of ``lam``, and its ordinary dimension is a Weyl
product over the surviving ``>`` coordinates.  When n > k the residue keeps
odd directions and every component is typical there, so the answer is 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .diagram import (CROSS, GT, LT, DomainError, WeightDiagram, atypicality,
                      check_valid, fmt)
from .ds import _dsr


def _dim_from_shifted(N: int, a: list[int]) -> int:
    """Weyl dimension of so_N from the doubled rho-shifted weight ``a``, whose
    coordinates are integers; the powers of 2 cancel in the quotient of the
    products at ``a`` and at rho, so one division is exact or fails."""
    if N <= 2:
        return 1
    # doubled rho: (2r - 1, ..., 3, 1) for odd N, (2r - 2, ..., 2, 0) for even
    rho = list(range(2 * len(a) - 2 + N % 2, -1, -2))

    def product(x: list[int]) -> int:
        """The product of x_i^2 - x_j^2 over i < j, times every x_i for odd N."""
        sq = [y * y for y in x]
        # row by row, so that few products involve the large running one
        out = math.prod(math.prod(p - q for q in sq[i + 1:]) for i, p in enumerate(sq))
        return out * math.prod(x) if N % 2 else out

    dim, rest = divmod(product(a), product(rho))
    if rest or dim <= 0:
        raise DomainError("weight is not dominant for so_%d" % N)
    return dim


def weyl_dim_so(N: int, hw) -> int:
    """Dimension of the irreducible so_N module with highest weight ``hw``."""
    if N < 0:
        raise DomainError("N must be non-negative")
    hw = [Fraction(x) for x in hw]
    r = N // 2
    if len(hw) != r:
        raise DomainError(f"so_{N} takes {r} weight coordinates, got {len(hw)}")
    for x, y in zip(hw, hw[1:]):
        if x < y:
            raise DomainError("weight coordinates must be non-increasing")
    if N % 2:
        if hw and hw[-1] < 0:
            raise DomainError("odd so weights are non-negative")
    elif len(hw) >= 2 and hw[-2] < abs(hw[-1]):
        raise DomainError("even so weights need hw[r-2] >= |hw[r-1]|")
    if any((2 * x).denominator != 1 for x in hw):
        raise DomainError("weight coordinates must be integers or half-integers")
    rho = range(2 * r - 2 + N % 2, -1, -2)  # doubled, as in _dim_from_shifted
    return _dim_from_shifted(N, [int(2 * x) + y for x, y in zip(hw, rho)])


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
    # the doubled shifted coordinates: 2p + 1 for the odd series, 2p for the even
    odd = 1 if nu.t == 1 else 0
    return _dim_from_shifted(2 * len(positions) + odd, [2 * p + odd for p in positions])


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
