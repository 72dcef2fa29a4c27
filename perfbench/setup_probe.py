"""One set-up sample: in a fresh interpreter, import ``ospds`` and build one
workload's inputs, then print the time this took, in seconds: first scaled
to nominal machine speed by the workload's reference, timed right after it
(``speed.py``), then in wall time.

    python3 perfbench/setup_probe.py <workload> <seed> [rss]

With ``rss`` the probe then runs the workload's first cycle, without gates,
and prints the process's peak resident memory in MB instead: the program's
footprint on a fixed amount of work, whatever the program's speed, and
without the memory of the benchmark's gates.

``run.py`` starts this several times per run and reports the median scaled
time as ``setup_s``, so that work moved into import time or precomputation
shows.
"""

import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import ospds  # noqa: F401  -- importing the package is part of set-up
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    setup = time.perf_counter() - start
    if sys.argv[3:] == ["rss"]:
        for op in next(wl.cycles()):
            try:
                wl.run(op)
            except Exception:  # reported by the gated run
                pass
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        import speed
        reference = wl.make_reference()
        speed.sample(reference, 3)   # warm-up
        print(setup * speed.factor(speed.sample(reference, 7), wl.NOMINAL_S), setup)
