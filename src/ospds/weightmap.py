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
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (CROSS, GT, LT, MAX_WIDTH, DomainError, ParseError,
                      WeightDiagram, atypicality, build, check_valid, fmt)

Q = Fraction


@dataclass(frozen=True)
class DominantWeight:
    """Shifted dominant weight of osp: ``a`` are the epsilon coefficients,
    ``b`` the delta ones."""

    series: str
    m: int
    n: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        if self.series not in ("B", "D"):
            raise DomainError(f"series must be 'B' or 'D', got {self.series!r}")
        object.__setattr__(self, "a", tuple(Q(x) for x in self.a))
        object.__setattr__(self, "b", tuple(Q(x) for x in self.b))
        if len(self.a) != self.m or len(self.b) != self.n:
            raise DomainError("coefficient lists must have lengths m and n")


def _check_shape(w: DominantWeight) -> None:
    a, b = w.a, w.b
    if w.series == "D":
        if any(x.denominator != 1 for x in a + b):
            raise DomainError("even-series coefficients must be integers")
        if any(x < 0 for x in a[:-1]) or any(x < 0 for x in b):
            raise DomainError("coefficients must be non-negative (except the last epsilon one)")
        for seq in (a, b):
            for x, y in zip(seq, seq[1:]):
                if x < y or (x == y and x != 0):
                    raise DomainError("coefficients must strictly decrease, ties only at 0")
    else:
        if any((x + Q(1, 2)).denominator != 1 or x < Q(-1, 2) for x in a):
            raise DomainError("epsilon coefficients must be half-integers >= -1/2")
        if any((x - Q(1, 2)).denominator != 1 or x < Q(1, 2) for x in b):
            raise DomainError("delta coefficients must be half-integers >= 1/2")
        for seq, floor in ((a, Q(-1, 2)), (b, Q(1, 2))):
            for x, y in zip(seq, seq[1:]):
                if x < y or (x == y and x != floor):
                    raise DomainError("coefficients must strictly decrease, "
                                      "ties only at the boundary value")


def weight_to_diagram(w: DominantWeight) -> WeightDiagram:
    """Diagram of a shifted dominant weight; rejects non-dominant input and
    coordinates above :data:`~ospds.diagram.MAX_WIDTH`."""
    _check_shape(w)
    shift = Q(1, 2) if w.series == "B" else Q(0)
    acoord = [abs(x) - shift for x in w.a]
    bcoord = [abs(x) - shift for x in w.b]
    if any(c < 0 or c.denominator != 1 for c in acoord + bcoord):
        raise DomainError("coordinates must land on non-negative integers")
    if any(c > MAX_WIDTH for c in acoord + bcoord):
        raise DomainError(f"coordinate above the cap MAX_WIDTH = {MAX_WIDTH}")
    gts: dict[int, int] = {}
    lts: dict[int, int] = {}
    for c in acoord:
        gts[int(c)] = gts.get(int(c), 0) + 1
    for c in bcoord:
        lts[int(c)] = lts.get(int(c), 0) + 1

    positions: dict[int, str] = {}
    for p in sorted(set(gts) | set(lts)):
        if p == 0:
            continue
        pair = (gts.get(p, 0), lts.get(p, 0))
        if pair == (1, 0):
            positions[p] = GT
        elif pair == (0, 1):
            positions[p] = LT
        elif pair == (1, 1):
            positions[p] = CROSS
        else:
            raise DomainError(f"not dominant: {pair[0]} epsilon and {pair[1]} delta "
                              f"coordinates collide at position {p}")
    g0, l0 = gts.get(0, 0), lts.get(0, 0)
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

    sign = None
    if w.series == "D":
        if zero_core == GT:
            t = 2
        else:
            t = 0
            if zero_core == LT and w.m > 0:
                raise DomainError("not dominant: '<' at the zero position needs m = 0")
        if t == 0 and stack == 0 and zero_core is None and w.m >= 1:
            sign = "+" if w.a[-1] > 0 else "-"
    else:
        t = 1
        plus_half = sum(1 for x in w.a if x == Q(1, 2))
        minus_half = sum(1 for x in w.a if x == Q(-1, 2))
        if plus_half > 1:
            raise DomainError("not dominant: two epsilon coefficients equal +1/2")
        if zero_core == GT and plus_half == 0:
            raise DomainError("not dominant: an unpaired zero '>' needs an "
                              "epsilon coefficient +1/2")
        if minus_half > stack:
            raise DomainError("not dominant: a -1/2 epsilon coefficient is unmatched")
        if stack and zero_core is None:
            sign = "+" if plus_half else "-"
    return check_valid(build(t, stack, zero_core, positions, sign))


def diagram_to_weight(d: WeightDiagram, m: int, n: int) -> DominantWeight:
    """Inverse of :func:`weight_to_diagram` for consistent ``(m, n)``."""
    check_valid(d)
    k = atypicality(d)
    want_gt = m + 1 - k if d.t == 2 else m - k
    if d.count(GT) != want_gt or d.count(LT) != n - k:
        raise DomainError(f"count mismatch: {fmt(d)!r} does not describe a weight "
                          f"with m={m}, n={n}")
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
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {token!r} in a weight") from None
