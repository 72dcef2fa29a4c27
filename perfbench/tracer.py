"""Span recording around the public functions of every ``ospds`` module.

The tracer lives in the benchmark process only; nothing under ``src/`` is
changed.  ``install`` replaces each function named in ``LAYERS`` by a
wrapper in every ``ospds`` namespace that binds it (its own module, the
modules that import it by name, and the package), so that calls across
module boundaries and the module's own calls to it are both recorded.
``uninstall`` puts the originals back.

A span is (name, start, end, parent span, operation id, value).  Spans are
kept in flat arrays in memory and written out at the end of the run; self
time, counts and ratios are derived from them afterwards.  ``value`` holds a
per-call counter taken at the boundary: the number of components returned by
``ds1`` and ``dsr``, and 1 for a nonzero ``oracle_mult1`` result.  The inputs
of ``ds1`` and ``superdimension`` are also counted, to give the share of
calls whose input was seen before.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import time
from array import array
from collections import Counter, defaultdict

import ospds

# Public functions that are called across module boundaries, by module.
# Functions that only their own module calls (``arc_less``, ``trans_swap``,
# ``gm_mul``, ``weyl_dim_so`` ...) stay unwrapped: they belong to the caller's
# self time.
LAYERS = {
    "diagram": ("parse", "fmt", "validate", "check_valid", "build", "core_of",
                "atypicality", "tail_length", "sigma", "pari",
                "enumerate_corefree"),
    "howl": ("howl", "unhowl", "tau", "tau_inv"),
    "arcs": ("build_arcs", "maximal_arcs", "free_left", "remove_arc",
             "render_ascii", "arcs_json", "es_dotted", "render_dotted"),
    "ds": ("ds1", "dsr", "check_purity", "ds_osp"),
    "oracle": ("oracle_mult1",),
    "translate": ("shrink", "stabilize"),
    "sdim": ("superdimension",),
    "weightmap": ("parse_weight", "weight_to_diagram"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op_id: array = array("i")
        self.value: array = array("i")
        self.op = -1                   # operation id stamped on new spans
        self.inputs: defaultdict[str, set] = defaultdict(set)
        self.repeats: Counter[str] = Counter()   # calls on an input seen before
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- wrapping -------------------------------------------------------------

    def _note_input(self, name: str, key) -> None:
        if key in self.inputs[name]:
            self.repeats[name] += 1
        else:
            self.inputs[name].add(key)

    def _count_ds1(self, args, result) -> int:
        self._note_input("ds.ds1", args[0])
        return len(result.components)

    def _count_sdim(self, args, result) -> int:
        self._note_input("sdim.superdimension", args)
        return 0

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = {
            "ds.ds1": self._count_ds1,
            "ds.dsr": lambda args, result: len(result.components),
            "sdim.superdimension": self._count_sdim,
            "oracle.oracle_mult1": lambda args, result: int(any(result)),
        }.get(name)
        name_id, start, end, parent, op_id, value = (
            self.name_id, self.start, self.end, self.parent, self.op_id, self.value)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            value.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                value[i] = hook(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, funcs in LAYERS.items():
            mod = importlib.import_module(f"ospds.{module}")
            for func in funcs:
                fn = getattr(mod, func)
                wrappers[id(fn)] = self._wrap(f"{module}.{func}", fn)
        namespaces = [ospds] + [importlib.import_module(f"ospds.{m.name}")
                                for m in pkgutil.iter_modules(ospds.__path__)]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._restore.append((ns, attr, val))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._restore):
            setattr(ns, attr, val)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per function: calls, self seconds and summed values."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "value": 0}
               for name in self.names}
        names, name_id, value = self.names, self.name_id, self.value
        for i in range(n):
            row = out[names[name_id[i]]]
            row["calls"] += 1
            row["self_s"] += end[i] - start[i] - child[i]
            row["value"] += value[i]
        return out

    def self_by_op(self, name: str) -> dict[int, float]:
        """Self seconds of one function, per operation id."""
        n = len(self.start)
        nid = self.names.index(name)
        child = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and self.name_id[p] == nid:
                child[p] = child.get(p, 0.0) + self.end[i] - self.start[i]
        out: dict[int, float] = {}
        for i in range(n):
            if self.name_id[i] == nid:
                op = self.op_id[i]
                out[op] = out.get(op, 0.0) + self.end[i] - self.start[i] - child.get(i, 0.0)
        return out

    def dsr_layers(self) -> tuple[int, int, int]:
        """(states, distinct components added, contributions added) over all
        ``dsr`` calls, from the ``ds1`` spans whose parent is a ``dsr`` span."""
        dsr_id = self.names.index("ds.dsr")
        ds1_id = self.names.index("ds.ds1")
        calls = contributions = finals = dsr_calls = 0
        for i in range(len(self.start)):
            nid = self.name_id[i]
            if nid == dsr_id:
                dsr_calls += 1
                finals += self.value[i]
            elif nid == ds1_id and self.parent[i] >= 0 and self.name_id[self.parent[i]] == dsr_id:
                calls += 1
                contributions += self.value[i]
        # layer 0 of each dsr call is its input alone; every other layer
        # but the last is the input of one ds1 call per component
        return calls + finals, calls - dsr_calls + finals, contributions

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated text, one per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_us\tend_us\tparent\top\tvalue\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\t"
                         f"{self.parent[i]}\t{self.op_id[i]}\t{self.value[i]}\n")
