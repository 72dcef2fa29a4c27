"""Conversion between shifted dominant weights and weight diagrams.

Only the shifted weight (highest weight plus Weyl vector) is ever stored, as
two exact-rational coefficient lists.  For the even series the coefficients
are integers, non-negative except possibly the last epsilon one; positions
are their absolute values.  For the odd series they are half-integers and
positions shift down by one half.  Coinciding epsilon/delta positions merge
into crosses; the diagram sign encodes what the coordinates forget (the sign
of the last epsilon coefficient, or which zero-stack entry is +1/2).
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from fractions import Fraction

from .diagram import (CROSS, EMPTY, GT, LT, MAX_WIDTH, DomainError, ParseError,
                      WeightDiagram, _check_counts, _needs_sign, check_valid)

Q = Fraction
# the symbol at a position past 0 from its (epsilon, delta) coordinate counts
_SYMBOL = {(0, 0): EMPTY, (1, 0): GT, (0, 1): LT, (1, 1): CROSS}
# a decimal literal with an exponent, in the grammar ``Fraction`` reads; not
# compiled at import, which every start of the CLI would pay
_EXPONENT = (r"\s*[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
             r"[eE][-+]?(\d+(?:_\d+)*)\s*")


def _check_exponent(text: str) -> None:
    """Refuse an exponent longer than the cap before ``Fraction`` expands it."""
    m = re.fullmatch(_EXPONENT, text)
    if m and len(m[1].replace("_", "").lstrip("0")) > len(str(MAX_WIDTH)):
        raise DomainError(f"weight number exponent longer than the cap MAX_WIDTH = {MAX_WIDTH}")


def _rational(x) -> Fraction:
    """``Fraction(x)``, refusing with :class:`DomainError` what it cannot read
    (infinities, NaN, text that is no number, non-numbers)."""
    if type(x) is Q:
        return x
    if isinstance(x, str):
        _check_exponent(x)
    try:
        return Q(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"a weight coordinate must be a rational number, got {x!r}") from None


def _rationals(xs) -> tuple[Fraction, ...]:
    """:func:`_rational` over a coordinate list, refusing one that is not iterable."""
    try:
        return tuple(map(_rational, xs))
    except TypeError:
        raise DomainError(f"weight coordinates must be a list, got {xs!r}") from None


class DominantWeight(namedtuple("DominantWeight", "series m n a b")):
    """Shifted dominant weight of osp: ``a`` are the epsilon coefficients,
    ``b`` the delta ones, normalised to tuples of ``Fraction``."""

    __slots__ = ()

    def __new__(cls, series: str, m: int, n: int, a, b):
        if series not in ("B", "D"):
            raise DomainError(f"series must be 'B' or 'D', got {series!r}")
        if type(m) is not int or type(n) is not int:
            raise DomainError(f"m and n must be ints, got {m!r} and {n!r}")
        a, b = _rationals(a), _rationals(b)
        if len(a) != m or len(b) != n:
            raise DomainError("coefficient lists must have lengths m and n")
        return tuple.__new__(cls, (series, m, n, a, b))

    @classmethod
    def _make(cls, fields) -> "DominantWeight":
        return cls(*fields)


def _check_shape(w: DominantWeight) -> tuple[list[int], list[int]]:
    """Refuse coefficients of the wrong kind or order; returns each 2x as an int."""
    # 2x, or None where it is no integer
    a, b = ([x.numerator * (2 // x.denominator) if x.denominator <= 2 else None for x in xs]
            for xs in (w.a, w.b))
    if w.series == "D":
        if any(x is None or x & 1 for x in a + b):
            raise DomainError("even-series coefficients must be integers")
        if any(x < 0 for x in a[:-1]) or any(x < 0 for x in b):
            raise DomainError("coefficients must be non-negative (except the last epsilon one)")
        floors, ties = (0, 0), "0"
    else:
        if any(x is None or not x & 1 or x < -1 for x in a):
            raise DomainError("epsilon coefficients must be half-integers >= -1/2")
        if any(x is None or not x & 1 or x < 1 for x in b):
            raise DomainError("delta coefficients must be half-integers >= 1/2")
        floors, ties = (-1, 1), "the boundary value"
    for seq, floor in zip((a, b), floors):
        for x, y in zip(seq, seq[1:]):
            if x < y or (x == y and x != floor):
                raise DomainError(f"coefficients must strictly decrease, ties only at {ties}")
    return a, b


def weight_to_diagram(w: DominantWeight) -> WeightDiagram:
    """Diagram of a shifted dominant weight; rejects non-dominant input and
    coordinates above :data:`~ospds.diagram.MAX_WIDTH`."""
    a, b = _check_shape(w)
    # |2x| is odd in the odd series, whose positions shift down one half
    shift = w.series == "B"
    acoord, bcoord = ([(abs(x) - shift) >> 1 for x in xs] for xs in (a, b))
    if any(c > MAX_WIDTH for c in acoord + bcoord):
        raise DomainError(f"coordinate above the cap MAX_WIDTH = {MAX_WIDTH}")
    gts, lts = Counter(acoord), Counter(bcoord)
    symbols = []
    for p in range(1, max(acoord + bcoord, default=0) + 1):
        pair = (gts[p], lts[p])
        if pair not in _SYMBOL:
            raise DomainError(f"not dominant: {pair[0]} epsilon and {pair[1]} delta "
                              f"coordinates collide at position {p}")
        symbols.append(_SYMBOL[pair])
    g0, l0 = gts[0], lts[0]
    stack = min(g0, l0)
    if stack > MAX_WIDTH:
        raise DomainError(f"zero stack above the cap MAX_WIDTH = {MAX_WIDTH}")
    zero_core = None
    if g0 - stack == 1:
        zero_core = GT
    elif l0 - stack == 1:
        zero_core = LT
    elif (g0 - stack, l0 - stack) != (0, 0):
        raise DomainError("not dominant: too many coordinates at the zero position")

    # the sign the weight reads, applied where the sign rule asks for one
    if w.series == "D":
        t = 2 if zero_core == GT else 0
        if zero_core == LT and w.m > 0:
            raise DomainError("not dominant: '<' at the zero position needs m = 0")
        plus = bool(a) and a[-1] > 0
    else:
        t = 1
        plus = 1 in a
        if zero_core == GT and not plus:
            raise DomainError("not dominant: an unpaired zero '>' needs an "
                              "epsilon coefficient +1/2")
    tail = "".join(symbols)
    sign = ("+" if plus else "-") if _needs_sign(t, stack, zero_core, tail) else None
    return check_valid(WeightDiagram(t, stack, zero_core, tail, sign))


def diagram_to_weight(d: WeightDiagram, m: int, n: int) -> DominantWeight:
    """Inverse of :func:`weight_to_diagram` for consistent ``(m, n)``."""
    _check_counts(d, m, n)
    series = "B" if d.t == 1 else "D"
    shift = Q(1, 2) if series == "B" else Q(0)
    a: list[Fraction] = []
    b: list[Fraction] = []
    for p, s in enumerate(d.tail_symbols, 1):
        if s in (GT, CROSS):
            a.append(p + shift)
        if s in (LT, CROSS):
            b.append(p + shift)
    if series == "B":
        plus = 1 if (d.zero_core == GT or d.sign == "+") else 0
        a.extend([Q(1, 2)] * plus)
        a.extend([Q(-1, 2)] * (d.zero_crosses - (plus if d.zero_core is None else 0)))
        b.extend([Q(1, 2)] * (d.zero_crosses + (1 if d.zero_core == LT else 0)))
    else:
        zeros = d.zero_crosses + (1 if d.zero_core == GT else 0)
        a.extend([Q(0)] * zeros)
        b.extend([Q(0)] * (d.zero_crosses + (1 if d.zero_core == LT else 0)))
    a.sort(reverse=True)
    b.sort(reverse=True)
    if d.t == 0 and d.sign == "-":
        a[-1] = -a[-1]
    mm = m + 1 if d.t == 2 else m
    return DominantWeight(series, mm, n, tuple(a), tuple(b))


def parse_weight(text: str) -> DominantWeight:
    """Parse the CLI weight format ``B m n / a1,...,am / b1,...,bn``.

    Rationals are written as ``p`` or ``p/2`` without spaces; the three
    sections are divided by slashes surrounded by whitespace.  A malformed
    number raises :class:`ParseError`; a text of the wrong shape raises
    :class:`DomainError`.
    """
    sections = re.split(r"\s+/\s+", text.strip())
    if len(sections) != 3:
        raise DomainError("expected 'SERIES m n / a1,...,am / b1,...,bn'")
    head = sections[0].split()
    if len(head) != 3:
        raise DomainError("the header must be 'B|D m n'")
    series, m, n = head[0], _number(int, head[1]), _number(int, head[2])

    def rationals(chunk: str) -> tuple[Fraction, ...]:
        chunk = chunk.strip()
        if not chunk or chunk == "-":
            return ()
        return tuple(_number(Q, tok.strip()) for tok in chunk.split(","))

    return DominantWeight(series, m, n, rationals(sections[1]), rationals(sections[2]))


_NUMBER_RE = re.compile(r"[+-]?0*([0-9]+)(?:/0*([0-9]+))?")


def _number(kind, token: str):
    # count digits before converting, because int() refuses very long runs;
    # a numerator longer than the denominator by more digits than the cap
    # has is surely above the cap
    m = _NUMBER_RE.fullmatch(token)
    if m and len(m[1]) > len(m[2] or "") + len(str(MAX_WIDTH)):
        raise DomainError(f"weight number above the cap MAX_WIDTH = {MAX_WIDTH}")
    if kind is Q:
        _check_exponent(token)
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {token!r} in a weight") from None
