"""Benchmark of ``ospds``: four closed-loop workloads, end-to-end metrics and a
traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide_ds1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  README.md next to this file documents the metrics,
the output schema and which metric should move on which workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS = ROOT / ".perfbench"     # span files of traced runs
WORKLOAD_NAMES = ("pool_sweep", "wide_ds1", "sdim_highk", "cli_mix")
SETUP_PROBES = 15               # timed fresh interpreters per run
MIN_SAMPLES = 200               # so that at least 10 latencies lie beyond p95
MAX_SPANS = 1_000_000           # no new cycle is traced past this many spans
SCALE_PROBE_S = 0.25            # repeat a scaling probe until this much time
REF_EVERY_S = 0.1               # operation time between reference checkpoints
REF_SPAN = 3                    # extra checkpoints on each side of an operation


class Measurement:
    """Latencies of the operations of whole cycles, and their failures.

    Each operation's wall time is scaled to nominal machine speed by the
    times of the workload's reference (``speed.py``) at the checkpoints
    around it: the one before it, the one after it, and ``REF_SPAN`` more on
    either side, which smooths the reference's own noise over most of a
    second.
    """

    def __init__(self, reference, nominal: float):
        self.reference, self.nominal = reference, nominal
        self.raw = array("d")                # wall time per operation, seconds
        self.window = array("i")             # checkpoint before each operation
        self.refs: list[list[float]] = []    # reference times per checkpoint
        self.labels: list[str] = []
        self.cycles = 0
        self.busy = 0.0                      # summed wall time of operations
        self.wrong = 0                       # operations that raised or were wrong
        self.problems: list[str] = []
        self._latency: array | None = None

    def checkpoint(self) -> None:
        self.refs.append(speed.sample(self.reference))
        self._latency = None

    @property
    def latency(self) -> array:
        """Operation times at nominal machine speed, seconds."""
        if self._latency is None:
            near = [sum(self.refs[max(0, j - REF_SPAN):j + 2 + REF_SPAN], [])
                    for j in range(len(self.refs))]
            scale = [speed.factor(samples, self.nominal) for samples in near]
            self._latency = array("d", (dt * scale[j] for dt, j in zip(self.raw, self.window)))
        return self._latency

    def speed_ratio(self) -> float:
        """Median reference time over nominal: how slow the machine ran."""
        return statistics.median(x for xs in self.refs for x in xs) / self.nominal

    def fail(self, problem: str) -> None:
        self.wrong += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def measure(wl, reference, cycles, stop, gate=True, tracer=None,
            keep=None) -> Measurement:
    """Run whole cycles from ``cycles`` back to back until ``stop(m)`` holds
    after one of them, or the cycles run out.

    A checkpoint times ``reference`` before the first operation,
    after every ``REF_EVERY_S`` of operation time and after the last one.
    With ``gate`` every result is checked, outside the timed region.  With
    ``tracer`` the spans of each operation are stamped with its index.  The
    list ``keep``, when given, receives every cycle run, for a traced replay
    of the same operations; otherwise no cycle is kept once it has run.
    """
    m = Measurement(reference, wl.NOMINAL_S)
    clock = time.perf_counter
    since = 0.0          # operation time since the last checkpoint
    m.checkpoint()
    for ops in cycles:
        for op in ops:
            if tracer is not None:
                tracer.op = len(m.raw)
            t0 = clock()
            try:
                result = wl.run(op)
            except Exception as exc:  # a failed operation; the loop goes on
                dt = clock() - t0
                result, problem = None, f"{op.label} raised {exc!r}"
            else:
                dt = clock() - t0
                problem = None
            m.raw.append(dt)
            m.window.append(len(m.refs) - 1)
            m.labels.append(op.label)
            m.busy += dt
            since += dt
            if since >= REF_EVERY_S:
                m.checkpoint()
                since = 0.0
            if gate and problem is None:
                try:
                    problem = wl.check(op, result)
                except Exception as exc:  # the gate itself hit a defect
                    problem = f"{op.label}: gate raised {exc!r}"
            if problem:
                m.fail(problem)
        m.cycles += 1
        if keep is not None:
            keep.append(ops)
        if stop(m):
            break
    if since:
        m.checkpoint()
    return m


def timed_run(wl, seconds: float):
    """Stop condition of a gated run: ``seconds`` of operation time and
    ``MIN_SAMPLES`` operations, or the workload's cycle limit."""
    def stop(m: Measurement) -> bool:
        return ((m.busy >= seconds and len(m.raw) >= MIN_SAMPLES)
                or m.cycles == wl.MAX_CYCLES)
    return stop


def probe(name: str, seed: int) -> tuple[float, float, float]:
    """(set-up seconds at nominal speed, the same in wall time, peak RSS in
    MB) from fresh interpreters.

    A first probe writes the bytecode caches and is not counted.  Set-up time
    is the median over ``SETUP_PROBES`` probes after it.  A last probe runs
    the first cycle and gives the peak memory of the program on that fixed
    work.
    """
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]

    def run(*extra) -> list[float]:
        out = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        return [float(x) for x in out.stdout.split()]

    run()
    setups = [run() for _ in range(SETUP_PROBES)]
    return (statistics.median(s[0] for s in setups),
            statistics.median(s[1] for s in setups), run("rss")[0])


def band_mean(xs, lo: float, hi: float) -> float:
    """Mean of the values ranked between the ``lo`` and ``hi`` quantiles.

    The operations of a workload come in a few cost levels, so a single
    order statistic jumps from one level to the next when noise moves an
    operation across it; the mean of a band of ranks around the quantile
    moves only by a share of that jump.
    """
    s = sorted(xs)
    a = int(lo * len(s))
    b = max(int(hi * len(s)), a + 1)
    return sum(s[a:b]) / (b - a)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summary_lines(name, seed, trace, m: Measurement) -> list[str]:
    lat = m.latency
    p95 = statistics.quantiles(lat, n=20)[-1]
    beyond = sum(1 for x in lat if x > p95)
    lines = [f"workload {name}  seed {seed}  trace {trace}  (one client, closed loop)",
             f"  {len(lat)} operations in {m.cycles} cycles, {m.busy:.3f} s of operation "
             f"time, {sum(lat):.3f} s at nominal speed",
             f"  machine speed: the reference took {m.speed_ratio():.3f} x nominal "
             f"(median of {sum(map(len, m.refs))} samples)",
             f"  latency samples {len(lat)}, {beyond} beyond p95",
             f"  error_rate {m.wrong / len(lat):.6f} ratio  ({m.wrong} raised or wrong)"]
    lines += [f"  failure: {p}" for p in m.problems]
    return lines


def run_plain(name: str, seed: int, seconds: float) -> dict:
    setup, setup_wall, rss = probe(name, seed)
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    defects = wl.known_defects()
    m = measure(wl, wl.make_reference(), wl.cycles(), timed_run(wl, seconds))
    lat = m.latency
    metrics = {
        "throughput_ops_s": metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": metric(band_mean(lat, 0.40, 0.60) * 1e3, "ms"),
        "latency_p90_ms": metric(band_mean(lat, 0.85, 0.95) * 1e3, "ms"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    for line in summary_lines(name, seed, 0, m) + defects:
        print(line)
    print(f"  setup_s in wall time {setup_wall:.6g} s")
    return result(m, metrics)


def scale_metrics(seed: int) -> dict:
    import workloads
    out = {}
    for key, fn, args in workloads.scale_inputs(seed):
        times = []
        while not times or (sum(times) < SCALE_PROBE_S and len(times) < 15):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        out[key] = metric(statistics.median(times) * 1e3, "ms")
    return out


def layer_metrics(tracer, traced: Measurement, plain: Measurement) -> dict:
    s = tracer.summary()
    ops = len(traced.latency)
    busy = traced.busy     # wall time, like the spans

    def calls(name):
        return metric(s[name]["calls"] / ops, "calls/op")

    def self_ms(*names):
        return metric(sum(s[n]["self_s"] for n in names) * 1e3 / ops, "ms/op")

    def ratio(num, den):
        return metric(num / den if den else 0.0, "ratio")

    states, distinct, contributions = tracer.dsr_layers()
    out = {
        "arcs.maximal_arcs.calls": calls("arcs.maximal_arcs"),
        "arcs.maximal_arcs.self_ms": self_ms("arcs.maximal_arcs"),
        "arcs.maximal_arcs.share": ratio(s["arcs.maximal_arcs"]["self_s"], busy),
        "arcs.build_arcs.self_ms": self_ms("arcs.build_arcs"),
        "arcs.free_left.self_ms": self_ms("arcs.free_left"),
        "arcs.remove_arc.self_ms": self_ms("arcs.remove_arc"),
        "diagram.check_valid.calls": calls("diagram.check_valid"),
        "diagram.check_valid.self_ms": self_ms("diagram.check_valid"),
        "diagram.parse.self_ms": self_ms("diagram.parse"),
        "diagram.fmt.self_ms": self_ms("diagram.fmt"),
        "howl.howl.calls": calls("howl.howl"),
        "howl.howl.self_ms": self_ms("howl.howl"),
        "howl.unhowl.self_ms": self_ms("howl.unhowl"),
        "oracle.oracle_mult1.self_ms": self_ms("oracle.oracle_mult1"),
        "oracle.nonzero_ratio": ratio(s["oracle.oracle_mult1"]["value"],
                                      s["oracle.oracle_mult1"]["calls"]),
        "translate.shrink.calls": calls("translate.shrink"),
        "translate.shrink.self_ms": self_ms("translate.shrink"),
        "ds.ds1.calls": calls("ds.ds1"),
        "ds.ds1.self_ms": self_ms("ds.ds1"),
        "ds.ds1.repeat_ratio": ratio(tracer.repeats["ds.ds1"], s["ds.ds1"]["calls"]),
        "ds.dsr.states": metric(states / ops, "states/op"),
        "ds.dsr.merge_ratio": ratio(distinct, contributions),
        "ds.check_purity.self_ms": self_ms("ds.check_purity"),
        "sdim.superdimension.self_ms": self_ms("sdim.superdimension"),
        "sdim.superdimension.repeat_ratio": ratio(tracer.repeats["sdim.superdimension"],
                                                  s["sdim.superdimension"]["calls"]),
        "cli.main.self_ms": self_ms("cli.main"),
        "weightmap.parse_weight.self_ms": self_ms("weightmap.parse_weight"),
        "weightmap.weight_to_diagram.self_ms": self_ms("weightmap.weight_to_diagram"),
        "arcs.render.self_ms": self_ms("arcs.render_ascii", "arcs.es_dotted",
                                       "arcs.render_dotted"),
        "translate.stabilize.self_ms": self_ms("translate.stabilize"),
        "trace.overhead_ratio": metric(sum(plain.latency[:ops]) / sum(traced.latency),
                                       "ratio"),
    }
    return out


def run_traced(name: str, seed: int, seconds: float) -> dict:
    import workloads
    from tracer import Tracer
    wl = workloads.WORKLOADS[name](seed)
    kept: list = []
    reference = wl.make_reference()
    plain = measure(wl, reference, wl.cycles(), timed_run(wl, seconds / 2), keep=kept)
    tracer = Tracer()
    tracer.install()
    try:
        # the same cycles again, recording spans; past MAX_SPANS no new cycle
        # starts, so the per-op figures always cover whole cycles
        traced = measure(wl, reference, kept, lambda m: len(tracer) >= MAX_SPANS,
                         gate=False, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced, plain)
    metrics.update(scale_metrics(seed))
    for line in summary_lines(name, seed, 1, plain):
        print(line)
    print(f"  traced replay: {len(traced.latency)} operations in {traced.cycles} cycles, "
          f"{len(tracer)} spans")
    by_op = tracer.self_by_op("arcs.maximal_arcs")
    big = [i for i, label in enumerate(traced.labels) if label == "arcs_100"]
    if big:
        share = sum(by_op.get(i, 0.0) for i in big) / sum(traced.raw[i] for i in big)
        print(f"  arcs.maximal_arcs self time on the 100-arc inputs: {share:.1%}")
    SPANS.mkdir(exist_ok=True)
    tracer.write(SPANS / f"spans_{name}.tsv.gz")
    return result(plain, metrics)


def result(m: Measurement, metrics: dict) -> dict:
    # any operation that raised or gave a wrong result makes the run incorrect
    return {"correct": m.wrong == 0, "attempted": len(m.latency),
            "failed": m.wrong, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=600, check=True)
        *lines, last = out.stdout.strip().splitlines()
        print("\n".join(lines))
        one = json.loads(last)
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for key, val in one["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    return combined


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ospds" / "__init__.py").is_file():
        print(f"error: no ospds sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        res = run_all(args)
    elif args.trace:
        res = run_traced(args.workload, args.seed, args.seconds)
    else:
        res = run_plain(args.workload, args.seed, args.seconds)
    if args.workload != "all":
        for key, val in res["metrics"].items():
            print(f"  {key:<36} {val['value']:.6g} {val['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
