"""Superdimensions from the rank-k reduction and the Weyl dimension formula.

The reduction preserves superdimension, and reducing by the full atypicality k
strips all crosses, with the whole arc forest as its one filter, graded by
``ds._whole`` in one pass.  When n = k the residue is a plain orthogonal Lie
algebra so_(2(m-k)+t): the answer is its signed multiplicity, doubled when t=0
signs ``lam`` with its crosses erased, times one Weyl product over the ``>`` of
``lam``.  When n > k the residue keeps odd directions; while m > k or t = 2
every component is typical there, so the answer is 0; at k = m < n that 0 is a
known defect (ROADMAP item 12): ``ospds sdim "<" --t 1 --m 0 --n 1`` prints 0, not 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .diagram import CROSS, EMPTY, GT, DomainError, WeightDiagram, _check_counts, _needs_sign
from .ds import _whole
from .howl import _howl
from .weightmap import _rationals


def _dim_from_shifted(N: int, a: list[int]) -> int:
    """Weyl dimension of so_N from the doubled rho-shifted weight ``a``, whose
    coordinates are integers; each row of factors at ``a`` is divided by the
    same row at rho, so the powers of 2 cancel and the quotient stays exact."""
    if N <= 2:
        return 1
    # doubled rho: (2r - 1, ..., 3, 1) for odd N, (2r - 2, ..., 2, 0) for even
    rho = range(2 * len(a) - 2 + N % 2, -1, -2)

    def row(x, i: int) -> int:
        """The product of x_i^2 - x_j^2 over j > i, times x_i for odd N."""
        return math.prod(x[i] ** 2 - y * y for y in x[i + 1:]) * (x[i] if N % 2 else 1)

    # from the last coordinate up: the last m coordinates of a dominant weight
    # are one of so_(2m + N % 2), so no quotient on the way outgrows the answer
    dim = math.prod(Fraction(row(a, i), row(rho, i)) for i in reversed(range(len(a))))
    if dim.denominator != 1 or dim <= 0:
        raise DomainError("weight is not dominant for so_%d" % N)
    return int(dim)


def weyl_dim_so(N: int, hw) -> int:
    """Dimension of the irreducible so_N module with highest weight ``hw``."""
    # type(), not isinstance(), as the diagram constructor: True is no N
    if type(N) is not int:
        raise DomainError(f"N must be an int, got {N!r}")
    if N < 0:
        raise DomainError("N must be non-negative")
    hw = _rationals(hw)
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
    if len({x.denominator for x in hw}) > 1:
        raise DomainError("weight coordinates must be all integers or all half-integers")
    rho = range(2 * r - 2 + N % 2, -1, -2)  # doubled, as in _dim_from_shifted
    return _dim_from_shifted(N, [int(2 * x) + y for x, y in zip(hw, rho)])


def _core_dim(lam: WeightDiagram) -> int:
    """Ordinary so-dimension of ``lam`` with no ``<``, its crosses erased; 1 when
    its tail holds no ``>``: so_0 to so_3 at rho, with at most the zero ``>``."""
    t, _, core, tail, _ = lam
    if GT not in tail:
        return 1
    positions, q = [], tail.rfind(GT)
    while q >= 0:  # right to left: the coordinates decrease
        positions.append(q + 1)
        q = tail.rfind(GT, 0, q)
    if core == GT:
        positions.append(0)
    # the doubled shifted coordinates: 2p + 1 for the odd series, 2p for the even
    odd = 1 if t == 1 else 0
    return _dim_from_shifted(2 * len(positions) + odd, [2 * p + odd for p in positions])


def superdimension(lam: WeightDiagram, m: int, n: int) -> int:
    """Superdimension of the simple module ``lam`` over osp(2m+t|2n), graded off
    its whole arc forest in one pass; ``(m, n)`` must match its symbol counts."""
    k = _check_counts(lam, m, n)
    if n > k:
        return 0
    if not k:
        return _core_dim(lam)
    t, _, core, tail, _ = lam
    d0, d1 = _whole(_howl(lam))
    return (d0 - d1) * (1 + _needs_sign(t, 0, core, tail.replace(CROSS, EMPTY))) * _core_dim(lam)
