"""The speed of the machine at the moment, from a fixed reference task.

On a shared host the CPU's speed moves by up to a factor of two within
seconds, as other load comes and goes, and the program slows down with it.
The benchmark therefore times a reference task between operations, about
every tenth of a second, and scales each operation's wall time by the
reference's nominal time over its measured time around the operation.

Each workload has its own reference (``Workload.make_reference``): the same
kind of work as one of its operations, on a fixed input, run by
``reference_ospds``, a frozen copy of the library.  So the reference slows
down with the machine much as the operations do, and it does not change
when the program does.  The reported times are what the operations take on
a machine where the reference takes exactly its nominal time; a change of
the program moves them and a change of the host's load mostly does not.

    python3 perfbench/speed.py     # each reference's raw time on this machine
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time


def sample(reference, n: int = 1) -> list[float]:
    """``n`` timed runs of ``reference()``, in seconds.

    The cyclic garbage collector is off while they run: a collection then
    would time the benchmark's own heap, not the machine.
    """
    clock = time.perf_counter
    out = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n):
            t0 = clock()
            reference()
            out.append(clock() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return out


def factor(samples: list[float], nominal: float) -> float:
    """Scale from measured to nominal-speed time, given nearby samples."""
    return nominal / statistics.median(samples)


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import workloads
    for name, cls in workloads.WORKLOADS.items():
        reference = cls.make_reference()
        sample(reference, 5)   # warm-up
        xs = sample(reference, 100)
        q = statistics.quantiles(xs, n=4)
        print(f"{name:<11} reference: median {statistics.median(xs) * 1e3:.4f} ms, "
              f"quartiles {q[0] * 1e3:.4f} / {q[2] * 1e3:.4f} ms, "
              f"nominal {cls.NOMINAL_S * 1e3} ms")
