"""Weight diagrams for the orthosymplectic series.

A diagram labels the number line 0, 1, 2, ... with the symbols ``>``, ``<``,
``x`` (a matched pair) and ``o`` (empty).  Position 0 is special: it can carry
a whole stack of ``x`` symbols and, depending on the block type ``t``, a
single core symbol underneath the stack.  Three block types exist:

* ``t = 1`` -- the odd series osp(2m+1|2n).  The zero position holds a stack
  plus at most one of ``>``, ``<``; a sign ``+``/``-`` is present exactly when
  the zero position is a bare non-empty stack.
* ``t = 0`` -- the even series osp(2m|2n) with nothing but crosses at zero.
  A sign is present exactly when the zero position is empty and the diagram
  contains at least one ``>`` or ``x``.
* ``t = 2`` -- the even series osp(2m+2|2n) whose zero position always holds
  ``>`` (optionally under a stack).  Never signed.

Position 1 folds into the zero position when a zero core symbol leaves or a
type-2 zero ``>`` is dropped (Gruson--Serganova): a cross tops the stack
under ``+``, an empty leaves ``-`` on a non-empty stack and no sign on an
empty one.  Unfolding undoes it: only ``+`` moves the top cross to position 1.

Diagrams are finitely supported: positions past the stored width are empty,
and two diagrams are equal iff they agree after trimming trailing empties.
The completely empty diagram is canonically unsigned.

ASCII grammar (bit-exact, used by :func:`parse` / :func:`fmt`)::

    diagram := sign? zerotok postok*
    sign    := '+' | '-'
    zerotok := 'o' | '>' | '<' | stack | stack '/>' | stack '/<'
    stack   := 'x' | 'x^' INT          (INT >= 1)
    postok  := 'o' | 'x' | '>' | '<'

Trailing ``o`` tokens are optional.

A diagram stores its positions past 0 as a string over ``o x > <``, and the
symbol names :data:`GT`, :data:`LT`, :data:`CROSS`, :data:`EMPTY` are those
characters.  :func:`parse` refuses a zero stack or a width above
:data:`MAX_WIDTH`.

The public constructor checks shape (``int`` fields, known symbols),
:func:`validate` the block rules above, and :func:`_needs_sign` is the one
sign rule.  Diagrams the library derives from valid ones are built through
``WeightDiagram._trusted``, which skips the shape check and makes the tuple
of the five fields with one ``tuple.__new__``; never for input.  A diagram
is a ``namedtuple`` subclass: its fields are read by C-level accessors, and
it hashes and compares as the plain tuple of its fields.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import combinations


class ParseError(ValueError):
    """Raised when a diagram string does not match the grammar."""


class DomainError(ValueError):
    """Raised when an operation's precondition on diagrams is violated."""


GT, LT, CROSS, EMPTY = ">", "<", "x", "o"
# a tuple, not the string "><": the empty string is in every string
CORE_SYMBOLS = (GT, LT)

# largest zero stack, off-zero position or weight coordinate read from text
MAX_WIDTH = 10_000


_new = tuple.__new__


class WeightDiagram(namedtuple("WeightDiagram",
                                "t zero_crosses zero_core tail_symbols sign")):
    """Immutable weight diagram of block type ``t``.

    ``tail_symbols[i]`` is the symbol at position ``i + 1``.  Any iterable
    of symbols is joined into a string and trailing empties are trimmed on
    construction, so equality and hashing are canonical.  A diagram is the
    tuple of its five fields: it equals the plain tuple
    ``(t, zero_crosses, zero_core, tail_symbols, sign)``, and unpacks,
    indexes and compares as one.  Every way in from outside, ``_make``,
    ``_replace``, ``pickle`` and ``copy`` included, goes through the checks.
    """

    __slots__ = ()

    def __new__(cls, t: int, zero_crosses: int = 0, zero_core: str | None = None,
                tail_symbols: str = "", sign: str | None = None):
        # type(), not isinstance(): True and 1.0 are no block type or stack
        if type(t) is not int or t not in (0, 1, 2):
            raise DomainError(f"block type must be 0, 1 or 2, got {t!r}")
        if type(zero_crosses) is not int or zero_crosses < 0:
            raise DomainError(f"zero_crosses must be an int >= 0, got {zero_crosses!r}")
        if zero_core is not None and zero_core not in CORE_SYMBOLS:
            raise DomainError("zero_core must be '>' or '<'")
        if sign not in (None, "+", "-"):
            raise DomainError(f"sign must be '+', '-' or None, got {sign!r}")
        tail = tail_symbols
        if not isinstance(tail, str):
            try:
                tail = "".join(tail)
            except TypeError:
                raise DomainError("tail_symbols must be a string of o, x, >, <, "
                                  f"got {tail!r}") from None
        bad = tail.lstrip("ox><")
        if bad:
            raise DomainError(f"bad symbol {bad[0]!r} (positions past 0 take o, x, >, <)")
        tail = tail.rstrip(EMPTY)
        # the completely empty diagram is canonically unsigned; tuple.__new__,
        # not _trusted, which the tests replace with a spy
        return _new(cls, (t, zero_crosses, zero_core, tail,
                          sign if zero_crosses or zero_core or tail else None))

    @classmethod
    def _make(cls, fields) -> "WeightDiagram":
        return cls(*fields)

    @classmethod
    def _trusted(cls, t: int, zero_crosses: int, zero_core: str | None,
                 tail: str, sign: str | None) -> "WeightDiagram":
        """Unchecked construction from well-shaped fields, in canonical form."""
        tail = tail.rstrip(EMPTY)
        return _new(cls, (t, zero_crosses, zero_core, tail,
                          sign if zero_crosses or zero_core or tail else None))

    # -- basic geometry ----------------------------------------------------

    @property
    def width(self) -> int:
        return 1 + len(self.tail_symbols)

    def sym(self, p: int) -> str:
        """The symbol at positive position ``p`` (EMPTY beyond the support)."""
        if p < 1:
            raise DomainError("sym() addresses positive positions only")
        return self.tail_symbols[p - 1:p] or EMPTY

    def count(self, symbol: str) -> int:
        _, stack, core, tail, _ = self
        n = tail.count(symbol)
        if symbol == CROSS:
            n += stack
        elif core == symbol:
            n += 1
        return n

    def with_sign(self, sign: str | None) -> "WeightDiagram":
        if sign not in (None, "+", "-"):
            raise DomainError(f"sign must be '+', '-' or None, got {sign!r}")
        t, stack, core, tail, _ = self
        return WeightDiagram._trusted(t, stack, core, tail, sign)

    def is_core_free(self) -> bool:
        """True when the core consists of nothing but the obligatory zero ``>``."""
        t, _, core, tail, _ = self
        if GT in tail or LT in tail:
            return False
        if t == 2:
            return core == GT
        return core is None

    def __str__(self) -> str:
        return fmt(self)


def build(t: int, zero_crosses: int = 0, zero_core: str | None = None,
          positions: dict[int, str] | None = None, sign: str | None = None) -> WeightDiagram:
    """Convenience constructor from a sparse position map."""
    positions = positions or {}
    if positions and min(positions) < 1:
        raise DomainError("positions must be >= 1; use zero_crosses/zero_core for 0")
    hi = max(positions, default=0)
    tail = [positions.get(p, EMPTY) for p in range(1, hi + 1)]
    return WeightDiagram(t, zero_crosses, zero_core, tail, sign)


# -- parse / format ---------------------------------------------------------

_STACK_RE = re.compile(r"x(?:\^([0-9]+))?")

GRAMMAR_HELP = (
    "diagram := sign? zerotok postok*\n"
    "sign    := '+' | '-'\n"
    "zerotok := 'o' | '>' | '<' | stack | stack '/>' | stack '/<'   "
    "(stack := 'x' | 'x^' INT, INT >= 1)\n"
    "postok  := 'o' | 'x' | '>' | '<'\n"
    "examples: '-x^2oxoox'  '+xoox'  'x^2/>oox'  '>xx'"
)


def parse(text: str, t: int) -> WeightDiagram:
    """Parse the ASCII diagram grammar.  Raises :class:`ParseError`."""
    s = text.strip()
    if not s:
        raise ParseError("empty diagram string (write 'o' for the empty diagram)")
    sign = None
    if s[0] in "+-":
        sign, s = s[0], s[1:]
    if not s:
        raise ParseError("sign without a diagram body")
    # zero token
    zero_crosses, zero_core = 0, None
    if s[0] == "o":
        s = s[1:]
    elif s[0] in "><":
        zero_core = s[0]
        s = s[1:]
    elif s[0] == "x":
        m = _STACK_RE.match(s)
        # count the digits before int(), which refuses very long runs
        digits = (m.group(1) or "1").lstrip("0") or "0"
        if len(digits) > len(str(MAX_WIDTH)) or int(digits) > MAX_WIDTH:
            raise DomainError(f"zero stack above the cap MAX_WIDTH = {MAX_WIDTH}")
        zero_crosses = int(digits)
        if zero_crosses < 1:
            raise ParseError("stack exponent must be >= 1")
        s = s[m.end():]
        if s[:2] in ("/>", "/<"):
            zero_core = s[1]
            s = s[2:]
    else:
        raise ParseError(f"bad zero token at {s!r}")
    if len(s) > MAX_WIDTH:
        raise DomainError(f"diagram wider than the cap MAX_WIDTH = {MAX_WIDTH}")
    bad = s.lstrip("ox><")
    if bad:
        raise ParseError(f"bad symbol {bad[0]!r} (positions past 0 take o, x, >, <)")
    return WeightDiagram(t, zero_crosses, zero_core, s, sign)


def fmt(d: WeightDiagram) -> str:
    """Canonical ASCII form; inverse of :func:`parse` up to normalisation."""
    out = [d.sign or ""]
    if d.zero_crosses:
        out.append("x" if d.zero_crosses == 1 else f"x^{d.zero_crosses}")
        if d.zero_core is not None:
            out.append("/" + d.zero_core)
    elif d.zero_core is not None:
        out.append(d.zero_core)
    else:
        out.append("o")
    out.append(d.tail_symbols)
    return "".join(out)


# -- validation --------------------------------------------------------------

_SIGN_MISSING = {0: "t=0 diagram with empty zero position must carry a sign",
                 1: "t=1 diagram with a bare zero stack must carry a sign"}
_SIGN_PRESENT = {0: "sign present but the zero position is occupied",
                 1: "sign present but the zero position is not a bare stack",
                 2: "t=2 diagrams carry no sign"}
_SIGN_UNNEEDED = "sign present but the diagram has no '>' and no 'x'"


def _needs_sign(t: int, stack: int, zero_core: str | None, tail: str) -> bool:
    """The sign rule: t=1 signs a bare non-empty zero stack, t=0 an empty
    zero position in a diagram with a ``>`` or a cross, t=2 nothing."""
    if t == 1:
        return stack > 0 and zero_core is None
    return t == 0 and not stack and zero_core is None and (GT in tail or CROSS in tail)


def validate(d: WeightDiagram) -> list[str]:
    """Return the list of broken well-formedness rules (empty when valid)."""
    t, stack, core, tail, sign = d
    bad: list[str] = []
    if t == 2 and core != GT:
        bad.append("t=2 requires '>' at the zero position")
    if t == 0 and core == GT:
        bad.append("'>' at the zero position makes the diagram type 2, not 0")
    if t == 0 and core == LT and (stack or GT in tail or CROSS in tail):
        bad.append("t=0 forbids '<' at the zero position unless the diagram "
                   "has no '>' and no 'x' at all")
    needs_sign = _needs_sign(t, stack, core, tail)
    if needs_sign and sign is None:
        bad.append(_SIGN_MISSING[t])
    if not needs_sign and sign is not None:
        # a t=0 sign with the zero position empty fails for want of '>' or 'x'
        bare = t == 0 and not stack and core is None
        bad.append(_SIGN_UNNEEDED if bare else _SIGN_PRESENT[t])
    return bad


def check_valid(d: WeightDiagram) -> WeightDiagram:
    bad = validate(d)
    if bad:
        raise DomainError(f"invalid diagram {fmt(d)!r} (t={d.t}): " + "; ".join(bad))
    return d


def _check_counts(d: WeightDiagram, m: int, n: int) -> int:
    """Check ``d`` and that it has the counts of osp(2m+t|2n); returns k."""
    # type(), not isinstance(), as the constructor: True and 1.0 are no count
    if type(m) is not int or type(n) is not int:
        raise DomainError(f"m and n must be ints, got {m!r} and {n!r}")
    t, stack, core, tail, _ = check_valid(d)
    k = stack + tail.count(CROSS)
    if tail.count(GT) + (core == GT) != (m + 1 - k if t == 2 else m - k) \
            or tail.count(LT) + (core == LT) != n - k:
        raise DomainError(f"count mismatch: {fmt(d)!r} does not describe a weight "
                          f"with m={m}, n={n}")
    return k


# -- the zero position ---------------------------------------------------------

def _fold(stack: int, tail: str) -> tuple[int, str, str | None]:
    """Fold position 1 (``tail[0]``) into the zero stack: (stack, rest, sign)."""
    if tail[:1] == CROSS:
        return stack + 1, tail[1:], "+"
    return stack, tail[1:], "-" if stack else None


def _unfold(stack: int, tail: str, sign: str | None) -> tuple[int, str]:
    """Inverse of :func:`_fold`: the stack and the tail from position 1 on."""
    if sign == "+":
        return stack - 1, CROSS + tail
    return stack, EMPTY + tail


# -- elementary statistics ----------------------------------------------------

def core_of(d: WeightDiagram) -> WeightDiagram:
    """Erase every cross; the result is signed ``+`` when it needs a sign (for
    t=0, when its zero position is empty and it still holds a ``>``)."""
    tail = d.tail_symbols.replace(CROSS, EMPTY)
    sign = "+" if _needs_sign(d.t, 0, d.zero_core, tail) else None
    return WeightDiagram._trusted(d.t, 0, d.zero_core, tail, sign)


def atypicality(d: WeightDiagram) -> int:
    """Total number of crosses, zero stack included."""
    return d.count(CROSS)


def tail_length(d: WeightDiagram) -> int:
    """Size of the zero stack, with a ``+`` sign discounting one for t=1."""
    return d.zero_crosses - 1 if d.t == 1 and d.sign == "+" else d.zero_crosses


def is_stable(d: WeightDiagram) -> bool:
    """True when every cross strictly precedes every core symbol, the zero
    ``>`` of the even series being exempt."""
    tail = d.tail_symbols
    if d.t == 1 and d.zero_core is not None:
        return not d.zero_crosses and CROSS not in tail
    return CROSS not in tail.lstrip(CROSS + EMPTY)


def sigma(d: WeightDiagram) -> WeightDiagram:
    """Sign flip; the identity on unsigned diagrams (all of t=2)."""
    if d.sign is None:
        return d
    return d.with_sign("-" if d.sign == "+" else "+")


def pari(d: WeightDiagram) -> int:
    """The +-1 grading of a core-free diagram.

    For t=0,1 it is (-1) to the sum of the cross coordinates (the zero stack
    contributes nothing).  A t=2 diagram is graded through its t=1 companion:
    the position-1 symbol is absorbed into the zero stack and everything else
    shifts down one step, so each cross at position p >= 2 contributes p - 1.
    """
    if not d.is_core_free():
        raise DomainError("pari is defined on core-free diagrams")
    return _parity(d.t, d.tail_symbols)


def _parity(t: int, tail: str) -> int:
    """:func:`pari` of the core-free diagram of type ``t`` with ``tail``."""
    # tail index i is position p = i + 1, and a cross counts p - [t = 2]
    return -1 if tail[t == 2::2].count(CROSS) % 2 else 1


def enumerate_corefree(t: int, k: int, width: int) -> list[WeightDiagram]:
    """All valid core-free diagrams of type ``t`` with exactly ``k`` crosses
    and every coordinate below ``width``, in a fixed deterministic order:
    zero stack descending, off-zero supports lexicographic, '-' before '+'.
    """
    return list(_iter_corefree(t, k, width))


def _iter_corefree(t: int, k: int, width: int):
    """The diagrams of :func:`enumerate_corefree`, one at a time; refuses a
    stack or a position that :func:`parse` would refuse."""
    if type(k) is not int or type(width) is not int:
        raise DomainError(f"k and width must be ints, got {k!r} and {width!r}")
    if k < 0:
        raise DomainError(f"k must be non-negative, got {k}")
    if width < k:
        raise DomainError("width must be at least k")
    if k > MAX_WIDTH or width - 1 > MAX_WIDTH:
        raise DomainError(f"k and width - 1 must not exceed the cap MAX_WIDTH = {MAX_WIDTH}")
    WeightDiagram(t)  # refuses a bad block type
    zero_core = GT if t == 2 else None
    for s in range(k, -1, -1):
        for pos in combinations(range(1, width), k - s):
            tail = "".join(EMPTY * (p - q - 1) + CROSS for q, p in zip((0,) + pos, pos))
            signs = ("-", "+") if _needs_sign(t, s, zero_core, tail) else (None,)
            for sg in signs:
                yield WeightDiagram._trusted(t, s, zero_core, tail, sg)
