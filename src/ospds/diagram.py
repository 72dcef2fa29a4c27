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
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class WeightDiagram:
    """Immutable weight diagram of block type ``t``.

    ``tail_symbols[i]`` is the symbol at position ``i + 1``.  Any iterable
    of symbols is joined into a string and trailing empties are trimmed on
    construction, so equality and hashing are canonical.
    """

    t: int
    zero_crosses: int = 0
    zero_core: str | None = None
    tail_symbols: str = ""
    sign: str | None = None

    def __post_init__(self):
        if self.t not in (0, 1, 2):
            raise DomainError(f"block type must be 0, 1 or 2, got {self.t!r}")
        if self.zero_crosses < 0:
            raise DomainError("zero_crosses must be non-negative")
        if self.zero_core is not None and self.zero_core not in CORE_SYMBOLS:
            raise DomainError("zero_core must be '>' or '<'")
        if self.sign not in (None, "+", "-"):
            raise DomainError(f"sign must be '+', '-' or None, got {self.sign!r}")
        tail = self.tail_symbols
        if not isinstance(tail, str):
            tail = "".join(tail)
        object.__setattr__(self, "tail_symbols", tail.rstrip(EMPTY))
        # the completely empty diagram is canonically unsigned
        if self.sign is not None and not self.has_symbols:
            object.__setattr__(self, "sign", None)

    # -- basic geometry ----------------------------------------------------

    @property
    def width(self) -> int:
        return 1 + len(self.tail_symbols)

    @property
    def has_symbols(self) -> bool:
        return bool(self.zero_crosses or self.zero_core or self.tail_symbols)

    def sym(self, p: int) -> str:
        """The symbol at positive position ``p`` (EMPTY beyond the support)."""
        if p < 1:
            raise DomainError("sym() addresses positive positions only")
        if p <= len(self.tail_symbols):
            return self.tail_symbols[p - 1]
        return EMPTY

    def cross_positions(self) -> tuple[int, ...]:
        """Positive positions holding a cross (the zero stack is separate)."""
        return tuple(p for p, s in enumerate(self.tail_symbols, 1) if s == CROSS)

    def core_positions(self) -> tuple[int, ...]:
        """All positions holding a core symbol, including 0 for the zero core."""
        out = [0] if self.zero_core is not None else []
        out.extend(p for p, s in enumerate(self.tail_symbols, 1) if s in CORE_SYMBOLS)
        return tuple(out)

    def count(self, symbol: str) -> int:
        n = self.tail_symbols.count(symbol)
        if symbol == CROSS:
            n += self.zero_crosses
        elif self.zero_core == symbol:
            n += 1
        return n

    def with_tail(self, tail) -> "WeightDiagram":
        return dataclasses.replace(self, tail_symbols=tail)

    def with_sign(self, sign: str | None) -> "WeightDiagram":
        return dataclasses.replace(self, sign=sign)

    def set_positions(self, updates: dict[int, str]) -> "WeightDiagram":
        """Copy with the given positive positions overwritten."""
        tail = list(self.tail_symbols.ljust(max(updates, default=0), EMPTY))
        for p, s in updates.items():
            tail[p - 1] = s
        return self.with_tail(tail)

    def is_core_free(self) -> bool:
        """True when the core consists of nothing but the obligatory zero ``>``."""
        if GT in self.tail_symbols or LT in self.tail_symbols:
            return False
        if self.t == 2:
            return self.zero_core == GT
        return self.zero_core is None

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

def validate(d: WeightDiagram) -> list[str]:
    """Return the list of broken well-formedness rules (empty when valid)."""
    bad: list[str] = []
    gt, cross = d.count(GT), d.count(CROSS)
    if d.t == 2:
        if d.zero_core != GT:
            bad.append("t=2 requires '>' at the zero position")
        if d.sign is not None:
            bad.append("t=2 diagrams carry no sign")
    elif d.t == 0:
        if d.zero_core == GT:
            bad.append("'>' at the zero position makes the diagram type 2, not 0")
        if d.zero_core == LT and (gt or cross):
            bad.append("t=0 forbids '<' at the zero position unless the diagram "
                       "has no '>' and no 'x' at all")
        zero_empty = d.zero_crosses == 0 and d.zero_core is None
        needs_sign = zero_empty and (gt + cross) >= 1
        if needs_sign and d.sign is None:
            bad.append("t=0 diagram with empty zero position must carry a sign")
        if not needs_sign and d.sign is not None:
            bad.append("sign present but the zero position is occupied")
    else:  # t == 1
        needs_sign = d.zero_crosses >= 1 and d.zero_core is None
        if needs_sign and d.sign is None:
            bad.append("t=1 diagram with a bare zero stack must carry a sign")
        if not needs_sign and d.sign is not None:
            bad.append("sign present but the zero position is not a bare stack")
    return bad


def check_valid(d: WeightDiagram) -> WeightDiagram:
    bad = validate(d)
    if bad:
        raise DomainError(f"invalid diagram {fmt(d)!r} (t={d.t}): " + "; ".join(bad))
    return d


# -- elementary statistics ----------------------------------------------------

def core_of(d: WeightDiagram) -> WeightDiagram:
    """Erase every cross.  For t=0 the result gains a ``+`` sign when its zero
    position is empty and it still contains a ``>`` (the canonical signless
    empty diagram stays signless)."""
    tail = d.tail_symbols.replace(CROSS, EMPTY)
    sign = None
    if d.t == 0 and d.zero_core is None and GT in tail:
        sign = "+"
    return WeightDiagram(d.t, 0, d.zero_core, tail, sign)


def atypicality(d: WeightDiagram) -> int:
    """Total number of crosses, zero stack included."""
    return d.count(CROSS)


def tail_length(d: WeightDiagram) -> int:
    """Size of the zero stack, with a ``+`` sign discounting one for t=1."""
    if d.t == 1 and d.sign == "+":
        return d.zero_crosses - 1
    return d.zero_crosses


def is_stable(d: WeightDiagram) -> bool:
    """True when every cross strictly precedes every core symbol, the zero
    ``>`` of the even series being exempt."""
    cores = [p for p in d.core_positions() if not (d.t in (0, 2) and p == 0)]
    if not cores:
        return True
    first_core = min(cores)
    crosses = list(d.cross_positions())
    if d.zero_crosses:
        crosses.append(0)
    return all(x < first_core for x in crosses)


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
    if d.t == 2:
        total = sum(p - 1 for p in d.cross_positions() if p >= 2)
    else:
        total = sum(d.cross_positions())
    return -1 if total % 2 else 1


def enumerate_corefree(t: int, k: int, width: int) -> list[WeightDiagram]:
    """All valid core-free diagrams of type ``t`` with exactly ``k`` crosses
    and every coordinate below ``width``, in a fixed deterministic order:
    zero stack descending, off-zero supports lexicographic, '-' before '+'.
    """
    return list(_iter_corefree(t, k, width))


def _iter_corefree(t: int, k: int, width: int):
    """The diagrams of :func:`enumerate_corefree`, one at a time."""
    if width < k:
        raise DomainError("width must be at least k")
    zero_core = GT if t == 2 else None
    for s in range(k, -1, -1):
        for pos in combinations(range(1, width), k - s):
            body = build(t, s, zero_core, {p: CROSS for p in pos})
            if t == 1 and s >= 1:
                signs = ["-", "+"]
            elif t == 0 and s == 0 and k >= 1:
                signs = ["-", "+"]
            else:
                signs = [None]
            for sg in signs:
                yield body.with_sign(sg)
