"""Seeded inputs, operations and correctness gates of the four workloads.

Every workload is a closed loop with one client: the runner calls ``run(op)``
for one operation at a time, back to back, in one process and one thread.
Inputs come from the seed alone, and the program under test sees only the
generated diagrams (or, for ``cli_mix``, argv lists).

Operations come in *cycles*.  A cycle holds a fixed quota of every input
class (size, shape, subcommand), so a run of whole cycles has the same mix
of cheap and expensive operations whatever the seed; the seed decides which
inputs fill the quotas.  This keeps the run-to-run spread of throughput and
latency small enough for the bounds in ``BENCHMARK.json``.  Cycles are made
one at a time as the run reaches them and are not kept afterwards, so the
benchmark's own memory does not grow with the number of operations run.

The library is called through module attributes (``ds.ds1``), never through
names imported into this file, so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import zlib
from collections import defaultdict
from pathlib import Path
from typing import Iterator, NamedTuple

from ospds import cli, diagram, ds, oracle, sdim, weightmap
from ospds.diagram import GT, LT, WeightDiagram

# the package re-exports the function ``howl`` under the module's name
howl = importlib.import_module("ospds.howl")


class Op(NamedTuple):
    label: str   # input class, used to group timings (e.g. "arcs_100")
    args: tuple


class Workload:
    """Base class: a seeded corpus and a sequence of operation cycles."""

    name = ""
    MAX_CYCLES: int | None = None   # a run stops here even before its time is up
    NOMINAL_S = 0.0                 # the reference's time at nominal machine speed

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.prepare()
        self._first = self.make_cycle(0)   # set-up ends with the first cycle's inputs

    def prepare(self) -> None:
        """Build the corpus the cycles draw from."""

    def make_cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def cycles(self) -> Iterator[list[Op]]:
        """The operation cycles in order, each made when the run reaches it."""
        ops, self._first = self._first, None
        index = 0
        while True:
            yield ops
            index += 1
            ops = self.make_cycle(index)

    def run(self, op: Op):
        """The timed operation; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, op: Op, result) -> str | None:
        """Correctness gate, run outside the timed region.  Returns a
        description of the wrong result, or None when it is right."""
        raise NotImplementedError

    @staticmethod
    def make_reference():
        """The speed reference (``speed.py``): a function that does the same
        kind of work as one operation, on a fixed input, with the frozen
        copy of the library in ``reference_ospds``.  Importing that copy and
        building the input happen here, after set-up is timed."""
        raise NotImplementedError

    def known_defects(self) -> list[str]:
        """Summary lines on inputs that hit a known defect of the program.
        They run once, before the measured loop, and are not operations."""
        return []


# -- diagram generators ---------------------------------------------------------

def _gaps(rng: random.Random) -> str:
    return "o" * rng.choice((0, 0, 1, 2))


def _dealt(rng: random.Random, total: int, slots: int) -> list[int]:
    """``total`` free positions dealt at random into ``slots`` gaps."""
    cuts = sorted(rng.randint(0, total) for _ in range(slots - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _unnested(rng: random.Random, arcs: int) -> str:
    """Tail with ``arcs`` side-by-side arcs behind seeded gaps.  The gaps
    hold ``3 * arcs // 4`` free positions in all, so the width, and with it
    the cost, is the same for every seed."""
    return "".join("o" * g + "xo" for g in _dealt(rng, 3 * arcs // 4, arcs))


def _stack_tail(rng: random.Random) -> str:
    """The tail of a zero stack: four side-by-side arcs behind seeded gaps
    of 64 free positions in all."""
    return "".join("o" * g + "xo" for g in _dealt(rng, 64, 4))


def _tree(rng: random.Random, size: int) -> str:
    return "x" + _forest(rng, size - 1) + "o"


def _forest(rng: random.Random, size: int) -> str:
    out = []
    while size:
        part = rng.randint(1, size)
        out.append(_tree(rng, part))
        size -= part
    return "".join(out)


def _nested(rng: random.Random, arcs: int, roots: int) -> str:
    """Tail with ``arcs`` arcs in a seeded forest of exactly ``roots`` trees."""
    cuts = sorted(rng.sample(range(1, arcs), roots - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [arcs])]
    return "".join(_gaps(rng) + _tree(rng, s) for s in sizes)


def _corefree(rng: random.Random, t: int, tail: str, stack: int = 0) -> str:
    """Core-free diagram text of type ``t`` with the given zero stack."""
    if stack:
        exp = "x" if stack == 1 else f"x^{stack}"
        if t == 2:
            return exp + "/>" + tail
        if t == 1:
            return rng.choice("+-") + exp + tail
        return exp + tail
    if t == 2:
        return ">" + tail
    if t == 0 and "x" in tail:
        return rng.choice("+-") + "o" + tail
    return "o" + tail


def _core(rng: random.Random, t: int, symbols: int, span: int) -> WeightDiagram:
    """Seeded valid core diagram of type ``t`` with core symbols in 1..span."""
    while True:
        positions = rng.sample(range(1, span + 1), symbols)
        body = {p: rng.choice((GT, LT)) for p in positions}
        g = diagram.build(t, 0, GT if t == 2 else None, body)
        if t == 0 and GT in body.values():
            g = g.with_sign("+")
        if not diagram.validate(g):
            return g


def _lift(rng: random.Random, h: WeightDiagram, symbols: int,
          span: int) -> WeightDiagram:
    """Seeded cored lift of the core-free diagram ``h``."""
    while True:
        try:
            return howl.unhowl(_core(rng, h.t, symbols, span), h)[0]
        except diagram.DomainError:
            continue


def _mn(d: WeightDiagram) -> tuple[int, int]:
    """The (m, n) of osp(2m+t|2n) that a diagram's symbol counts describe."""
    k = diagram.atypicality(d)
    return d.count(GT) + k - (1 if d.t == 2 else 0), d.count(LT) + k


# -- pool_sweep -----------------------------------------------------------------

class PoolSweep(Workload):
    """The acceptance sweep (test_06/07/10), sampled.

    Sources are the width-10, k <= 4 core-free pool of all three types and
    its lifts into up to 12 seeded cores per type (as in test_11), drawn
    without repeats.  One operation on a source: ``ds1``; ``oracle_mult1``
    against every ``ds1`` component and a seeded sample of other same-core
    targets with one cross fewer (most give zero, as in test_06); and, when
    k >= 3, ``dsr`` at one seeded partial rank 2 <= r < k, checked with
    ``check_purity``.
    """

    name = "pool_sweep"
    WIDTH = 10
    MAX_K = 4
    CORES_PER_TYPE = 12   # each core-free diagram is also lifted into each
    EXTRA_TARGETS = 8
    OPS_PER_CYCLE = 50

    def prepare(self):
        rng = self.rng
        cores = {t: list(dict.fromkeys(_core(rng, t, rng.randint(1, 3), 5)
                                       for _ in range(self.CORES_PER_TYPE)))
                 for t in (0, 1, 2)}
        # blocks[t, core, k]: the diagrams with that core and k crosses
        # (core None: the core-free pool itself)
        self.blocks = defaultdict(list)
        for t in (0, 1, 2):
            for k in range(self.MAX_K + 1):
                for h in diagram.enumerate_corefree(t, k, self.WIDTH):
                    for g in [None] + cores[t]:
                        try:
                            lam = h if g is None else howl.unhowl(g, h)[0]
                        except diagram.DomainError:
                            continue
                        self.blocks[t, g, k].append(lam)
        self.sources = [(key, lam) for key, lams in self.blocks.items() for lam in lams]
        self._queue: list[tuple] = []

    def _op(self, key, lam: WeightDiagram) -> Op:
        rng = self.rng
        t, g, k = key
        pool = self.blocks.get((t, g, k - 1), [])
        targets = tuple(rng.sample(pool, min(self.EXTRA_TARGETS, len(pool))))
        r = rng.randint(2, k - 1) if k >= 3 else 0
        return Op(f"k{k}", (lam, targets, r))

    def make_cycle(self, index):
        ops = []
        for _ in range(self.OPS_PER_CYCLE):
            if not self._queue:
                self._queue = self.rng.sample(self.sources, len(self.sources))
            ops.append(self._op(*self._queue.pop()))
        return ops

    NOMINAL_S = 0.0012

    @staticmethod
    def make_reference():
        from reference_ospds import diagram as fdiagram, ds as fds, oracle as foracle
        lam = fdiagram.enumerate_corefree(0, 3, PoolSweep.WIDTH)[40]
        targets = fdiagram.enumerate_corefree(0, 2, PoolSweep.WIDTH)[:PoolSweep.EXTRA_TARGETS]

        def reference():
            dec = fds.ds1(lam)
            for nu in (*dec.components, *targets):
                foracle.oracle_mult1(lam, nu)
            fds.check_purity(fds.dsr(lam, 2), lam)
        return reference

    def run(self, op):
        lam, targets, r = op.args
        dec = ds.ds1(lam)
        pairs = [(nu, oracle.oracle_mult1(lam, nu))
                 for nu in (*dec.components, *targets)]
        pure = ds.check_purity(ds.dsr(lam, r), lam) if r else True
        return dec, pairs, pure

    def check(self, op, result):
        dec, pairs, pure = result
        for nu, g in pairs:
            if g != dec.get(nu):
                return (f"oracle {g} != arc formula {dec.get(nu)} for "
                        f"{diagram.fmt(op.args[0])} -> {diagram.fmt(nu)}")
        if not pure:
            return f"dsr at rank {op.args[2]} of {diagram.fmt(op.args[0])} is not pure"
        return None


# -- wide_ds1 -------------------------------------------------------------------

class _Unseen:
    """Texts drawn so far, in constant memory: a Bloom filter with one hash.
    A false hit only makes the generator draw again."""

    BITS = 1 << 21

    def __init__(self):
        self.bits = bytearray(self.BITS // 8)

    def add(self, text: str) -> bool:
        """Record ``text``; False when it was recorded before."""
        byte, bit = divmod(zlib.crc32(text.encode()) % self.BITS, 8)
        if self.bits[byte] >> bit & 1:
            return False
        self.bits[byte] |= 1 << bit
        return True


class WideDs1(Workload):
    """One ``ds1`` per operation on large diagrams, each one distinct.

    Classes: core-free diagrams with 10-100 arcs, side by side (every arc
    maximal) and nested (one root per five arcs); zero stacks of 100-800
    with a four-arc seeded tail; cored lifts of both kinds.  The quota of a
    class falls as its size grows, so that no single size dominates; with
    these quotas p50 falls among the 100-stacks and p90 among the 50-arc and
    nested 100-arc inputs.
    """

    name = "wide_ds1"
    ARCS = {10: 8, 25: 4, 50: 2, 100: 1}
    STACKS = {100: 8, 200: 4, 400: 2, 800: 1}
    CORED = {"cored_arcs_25": 2, "cored_stack_200": 2}
    # 400 cycles draw about 1100 inputs of each type from the 10-arc and the
    # 100-stack classes, which have 11,440 and 47,905 distinct tails per
    # type, so redraws stay rare.
    MAX_CYCLES = 400

    def prepare(self):
        self._seen = _Unseen()

    def _distinct(self, make) -> str:
        while True:
            text = make()
            if self._seen.add(text):
                return text

    def _arcs(self, t, arcs, nested):
        rng = self.rng
        tail = _nested(rng, arcs, arcs // 5) if nested else _unnested(rng, arcs)
        return _corefree(rng, t, tail)

    def _stack(self, t, size):
        return _corefree(self.rng, t, _stack_tail(self.rng), size)

    def make_cycle(self, index):
        rng = self.rng
        ops = []
        slot = 0
        for arcs, quota in self.ARCS.items():
            for nested, kind in ((False, "arcs"), (True, "nested")):
                for _ in range(quota):
                    t, slot = slot % 3, slot + 1
                    text = self._distinct(lambda: self._arcs(t, arcs, nested))
                    ops.append(Op(f"{kind}_{arcs}", (diagram.parse(text, t),)))
        for size, quota in self.STACKS.items():
            for _ in range(quota):
                t, slot = slot % 3, slot + 1
                text = self._distinct(lambda: self._stack(t, size))
                ops.append(Op(f"stack_{size}", (diagram.parse(text, t),)))
        for label, quota in self.CORED.items():
            for _ in range(quota):
                t, slot = slot % 3, slot + 1
                if label == "cored_arcs_25":
                    h = diagram.parse(self._arcs(t, 25, False), t)
                else:
                    h = diagram.parse(self._stack(t, 200), t)
                text = self._distinct(
                    lambda: diagram.fmt(_lift(rng, h, rng.randint(2, 6),
                                                  2 * (h.width + h.zero_crosses))))
                ops.append(Op(label, (diagram.parse(text, t),)))
        rng.shuffle(ops)
        return ops

    NOMINAL_S = 0.0035

    @staticmethod
    def make_reference():
        from reference_ospds import diagram as fdiagram, ds as fds
        lam = fdiagram.parse("+o" + "".join("o" * (i % 3) + "xo" for i in range(15)), 0)
        return lambda: fds.ds1(lam)

    def run(self, op):
        return ds.ds1(op.args[0])

    def check(self, op, result):
        lam = op.args[0]
        k = diagram.atypicality(lam)
        core = diagram.core_of(lam)
        if not result.components:
            return f"ds1 of {op.label} input has no components"
        for nu, g in result.components.items():
            if diagram.core_of(nu) != core:
                return f"{op.label}: component {diagram.fmt(nu)} lost the core"
            if diagram.atypicality(nu) != k - 1:
                return f"{op.label}: component {diagram.fmt(nu)} has atypicality != k-1"
            want = oracle.oracle_mult1(lam, nu)
            if want != g:
                return f"{op.label}: arc formula {g} != oracle {want} on {diagram.fmt(nu)}"
        return None


# -- sdim_highk -----------------------------------------------------------------

def families(m: int) -> list[tuple[str, int, int]]:
    """The five test_13 shapes: (diagram, t, |sdim| / (2^(m-1) m!))."""
    return [("+" + "ox" * m, 0, 1), ("ox" * m, 1, 2), (">" + "ox" * m, 2, 2),
            ("-x" + "oox" * (m - 1), 1, 1),
            (("x/>o" + "oox" * (m - 1)) if m > 1 else "x/>", 2, 1)]


# Forest shapes of the seeded diagrams, three per k: lists of tree sizes,
# each tree a chain (an arc nested in an arc ...).  A fixed shape and type
# per slot fix the number of dsr states (the order ideals of the forest), so
# the seed moves the gaps, signs and tree order but hardly the cost.  With
# the 30 family inputs a cycle holds 45 operations.
SDIM_SHAPES = {k: [[1] * k, [2] * (k // 2) + [1] * (k % 2), [k - k // 2, k // 2]]
               for k in range(4, 9)}


class SdimHighK(Workload):
    """One ``superdimension`` per operation.

    Inputs: the five test_13 family shapes for m = 3..8, and seeded
    core-free diagrams with n = k = 4..8 built on fixed forest shapes.
    """

    name = "sdim_highk"
    CONSERVE_MAX_K = 6   # conservation gate on seeded inputs up to this k

    def prepare(self):
        self.fixed = []
        for m in range(3, 9):
            base = 2 ** (m - 1) * math.factorial(m)
            for text, t, factor in families(m):
                self.fixed.append(Op(f"family_m{m}",
                                     (diagram.parse(text, t), m, m, factor * base, False)))

    def _seeded(self, t: int, shape: list[int]) -> WeightDiagram:
        rng = self.rng
        trees = rng.sample(shape, len(shape))
        tail = "".join(_gaps(rng) + "x" * s + "o" * s for s in trees)
        return diagram.parse(_corefree(rng, t, tail), t)

    def make_cycle(self, index):
        ops = list(self.fixed)
        slot = 0
        for k, shapes in SDIM_SHAPES.items():
            for shape in shapes:
                t, slot = slot % 3, slot + 1
                lam = self._seeded(t, shape)
                m, n = _mn(lam)
                ops.append(Op(f"seeded_k{k}", (lam, m, n, None, k <= self.CONSERVE_MAX_K)))
        self.rng.shuffle(ops)
        return ops

    NOMINAL_S = 0.0045

    @staticmethod
    def make_reference():
        from reference_ospds import diagram as fdiagram, sdim as fsdim
        text, t, _ = families(5)[1]
        lam = fdiagram.parse(text, t)
        return lambda: fsdim.superdimension(lam, 5, 5)

    def run(self, op):
        lam, m, n, _, _ = op.args
        return sdim.superdimension(lam, m, n)

    def check(self, op, result):
        lam, m, n, closed, conserve = op.args
        if closed is not None and abs(result) != closed:
            return f"|sdim({diagram.fmt(lam)})| = {abs(result)}, closed form {closed}"
        if conserve:
            total = sum((g.d0 - g.d1) * sdim.superdimension(nu, m - 1, n - 1)
                        for nu, g in ds.ds1(lam).components.items())
            if total != result:
                return f"sdim({diagram.fmt(lam)}) = {result} but one step gives {total}"
        return None


# -- cli_mix ----------------------------------------------------------------------

PINNED = Path(__file__).with_name("pinned.json")
MUTATION_CHARS = "ox<>+-^/0123456789a ,"
WRONG_NUMBERS = ("1/3", "7/2", "-9", "0", "99")   # well-formed, wrong values


class CliMix(Workload):
    """In-process ``ospds.cli.main(argv)`` per operation, output captured.

    Each cycle: 90 well-formed argv lists over every subcommand, 10 made
    malformed by one seeded mutation of their diagram or weight text, and
    the pinned argv lists whose output must stay byte-identical.

    A weight text is mutated in its structure or by a number of the wrong
    value, never into a bad number literal: ``parse`` raises on those
    instead of exiting 1, a known defect.  The argv lists of
    ``KNOWN_DEFECTS`` show it once per run, outside the measured loop.
    """

    name = "cli_mix"
    KNOWN_DEFECTS = (("parse", "B 1 1 / a / 1/2"), ("parse", "B 1 1 / 1/0 / 1/2"))
    VALID = 90
    MALFORMED = 10
    KINDS = ("parse", "parse_weight", "validate", "core", "howl", "unhowl",
             "tau", "stabilize", "arcs", "es", "ds", "oracle", "sdim",
             "enumerate")

    def prepare(self):
        rng = self.rng
        with open(PINNED) as fh:
            self.pinned = [Op("pinned", (tuple(p["argv"]), p["code"], p["stdout"], p["stderr"]))
                           for p in json.load(fh)]
        self.corefree = [d for t in (0, 1, 2) for k in range(4)
                         for d in diagram.enumerate_corefree(t, k, 7)]
        self.cored = [_lift(rng, h, rng.randint(1, 3), 6) for h in self.corefree]
        self.tau_inputs = [d for d in self.corefree if d.t in (1, 2)]

    def _diagram(self, cored: bool | None = None) -> WeightDiagram:
        if cored is None:
            cored = self.rng.random() < 0.5
        return self.rng.choice(self.cored if cored else self.corefree)

    def _argv(self, kind: str) -> tuple[list[str], int]:
        """A well-formed argv for ``kind`` and the index of its text argument."""
        rng = self.rng
        d = self._diagram()
        s, t = diagram.fmt(d), str(d.t)
        if kind == "parse":
            return ["parse", s, "--t", t] + rng.choice(([], ["--json"])), 1
        if kind == "parse_weight":
            m, n = _mn(d)
            w = weightmap.diagram_to_weight(d, m, n)
            a, b = (",".join(map(str, xs)) or "-" for xs in (w.a, w.b))
            text = f"{w.series} {w.m} {w.n} / {a} / {b}"
            return ["parse", text] + rng.choice(([], ["--json"])), 1
        if kind in ("validate", "core", "howl"):
            return [kind, s, "--t", t], 1
        if kind == "unhowl":
            core, h = diagram.core_of(d), howl.howl(d)
            return ["unhowl", diagram.fmt(core), diagram.fmt(h), "--t", t], 2
        if kind == "tau":
            h = rng.choice(self.tau_inputs)
            extra = ["--inverse"] if h.t == 1 else []
            return ["tau", diagram.fmt(h), "--t", str(h.t)] + extra, 1
        if kind == "stabilize":
            d = self._diagram(True)
            return ["stabilize", diagram.fmt(d), "--t", str(d.t)], 1
        if kind == "arcs":
            return ["arcs", s, "--t", t] + rng.choice(([], ["--render"], ["--json"])), 1
        if kind == "es":
            series = "B" if d.t == 1 else "D"
            return (["es", s, "--t", t, "--series", series]
                    + rng.choice(([], ["--render"], ["--json"]))), 1
        if kind == "ds":
            k = diagram.atypicality(d)
            flags = rng.choice((["--json", "--rank", str(rng.randint(0, k))],
                                [], ["--osp"]))
            return ["ds", s, "--t", t] + flags, 1
        if kind == "oracle":
            lam = self._diagram()
            comps = list(ds.ds1(lam).components)
            nu = rng.choice(comps) if comps else lam
            return ["oracle", diagram.fmt(lam), diagram.fmt(nu), "--t", str(lam.t),
                    "--trace"], 1
        if kind == "sdim":
            m, n = _mn(d)
            return ["sdim", s, "--t", t, "--m", str(m), "--n", str(n)], 1
        k = rng.randint(0, 2)
        return ["enumerate", "--t", t, "-k", str(k), "--width", str(rng.randint(max(k, 1), 6))], -1

    def _mutate_weight(self, text: str) -> str:
        """One seeded mutation of a weight text ``S m n / a / b``."""
        rng = self.rng
        parts = text.split(" / ")
        kind = rng.randrange(4)
        if kind == 0:     # two sections run together, or one too many
            if rng.random() < 0.5:
                i = rng.randrange(2)
                parts[i:i + 2] = [parts[i] + " " + parts[i + 1]]
            else:
                parts.append(rng.choice(WRONG_NUMBERS))
        elif kind == 1:   # a header token too many or too few
            head = parts[0].split()
            parts[0] = " ".join(rng.choice((head + head[-1:], head[1:])))
        else:             # a number dropped, added or of the wrong value
            i = rng.randint(1, 2)
            nums = [] if parts[i] == "-" else parts[i].split(",")
            if nums and kind == 2:
                j = rng.randrange(len(nums))
                nums[j:j + 1] = rng.choice(([], [rng.choice(WRONG_NUMBERS)]))
            else:
                nums.insert(rng.randint(0, len(nums)), rng.choice(WRONG_NUMBERS))
            parts[i] = ",".join(nums) or "-"
        return " / ".join(parts)

    def _mutate(self, argv: list[str], index: int) -> list[str]:
        """One seeded mutation of the text argument at ``index``."""
        rng = self.rng
        text = argv[index]
        if " / " in text:
            text = self._mutate_weight(text)
        else:
            i = rng.randrange(len(text))
            c = rng.choice(MUTATION_CHARS)
            text = rng.choice((text[:i] + c + text[i:],          # insert
                               text[:i] + c + text[i + 1:],      # replace
                               text[:i] + text[i + 1:]))         # delete
        return argv[:index] + [text] + argv[index + 1:]

    def make_cycle(self, index):
        rng = self.rng
        ops = []
        for i in range(self.VALID + self.MALFORMED):
            kind = self.KINDS[(index * (self.VALID + self.MALFORMED) + i) % len(self.KINDS)]
            argv, at = self._argv(kind)
            if i < self.MALFORMED:
                if at < 0:   # enumerate has no text argument: break a flag value
                    argv[2] = rng.choice(("3", "x", "-1"))
                else:
                    argv = self._mutate(argv, at)
                ops.append(Op("malformed", (tuple(argv), None, None, None)))
            else:
                ops.append(Op(kind, (tuple(argv), 0, None, None)))
        ops.extend(self.pinned)
        rng.shuffle(ops)
        return ops

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.args[0]))
        return code, out.getvalue(), err.getvalue()

    NOMINAL_S = 0.004
    REFERENCE_ARGV = (["ds", "+oxoxooxo", "--t", "0", "--json", "--rank", "1"],
                      ["arcs", "x/>oxoxo", "--t", "2", "--render"])

    @staticmethod
    def make_reference():
        from reference_ospds import cli as fcli

        def reference():
            for argv in CliMix.REFERENCE_ARGV:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    fcli.main(list(argv))
        return reference

    def known_defects(self):
        lines = []
        for argv in self.KNOWN_DEFECTS:
            try:
                code = self.run(Op("known_defect", (argv,)))[0]
            except Exception as exc:
                lines.append(f"  known defect: {list(argv)} raises {exc!r}")
            else:
                lines.append(f"  known defect gone: {list(argv)} exits {code}")
        return lines

    def check(self, op, result):
        code, out, err = result
        argv, want_code, want_out, want_err = op.args
        if code not in (0, 1, 2):
            return f"exit code {code!r} for {list(argv)}"
        if want_code is not None and code != want_code:
            return f"exit code {code} != {want_code} for {list(argv)}"
        if want_out is not None and (out, err) != (want_out, want_err):
            return f"output of pinned {list(argv)} changed"
        if op.label == "ds" and "--json" in argv:
            lam = diagram.parse(argv[1], int(argv[3]))
            r = int(argv[argv.index("--rank") + 1])
            if json.loads(out) != ds.dsr(lam, r).to_json(lam, r):
                return f"ds --json output disagrees with dsr for {list(argv)}"
        if op.label == "sdim":
            lam = diagram.parse(argv[1], int(argv[3]))
            if out.strip() != str(sdim.superdimension(lam, int(argv[5]), int(argv[7]))):
                return f"sdim output disagrees with superdimension for {list(argv)}"
        if op.label == "oracle":
            lam, nu = (diagram.parse(a, int(argv[4])) for a in argv[1:3])
            if out.splitlines()[-1] != str(oracle.oracle_mult1(lam, nu)):
                return f"oracle output disagrees with oracle_mult1 for {list(argv)}"
        return None


def scale_inputs(seed: int) -> list[tuple[str, object, tuple]]:
    """Probes for the scaling curves: (metric, function, arguments).

    Side-by-side arcs and zero stacks come from the ``wide_ds1`` generators,
    superdimension from the first test_13 family, as in ``sdim_highk``.
    """
    rng = random.Random(f"scale:{seed}")
    out = []
    for arcs in WideDs1.ARCS:
        lam = diagram.parse(_corefree(rng, 0, _unnested(rng, arcs)), 0)
        out.append((f"scale.arcs_{arcs}.ms", ds.ds1, (lam,)))
    for size in WideDs1.STACKS:
        lam = diagram.parse(_corefree(rng, 1, _stack_tail(rng), size), 1)
        out.append((f"scale.stack_{size}.ms", ds.ds1, (lam,)))
    for m in range(3, 9):
        text, t, _ = families(m)[0]
        out.append((f"scale.sdim_m{m}.ms", sdim.superdimension, (diagram.parse(text, t), m, m)))
    return out


WORKLOADS = {w.name: w for w in (PoolSweep, WideDs1, SdimHighK, CliMix)}
