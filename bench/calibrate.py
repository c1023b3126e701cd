"""Two fixed gauges of how fast the machine runs right now.

The benchmark's machine is shared: its speed for pure-Python work drifts by
up to 1.5x between periods that last minutes, which no median inside one run
can remove.  So every timing is paired with a gauge timed next to it and
scaled to a machine on which the gauge takes its reference time
(``scale``).  Neither gauge touches sfttrace, so a change to the program
cannot change their cost.

- ``kernel``, timed between passes, mixes the three kinds of work the
  workloads do: big-integer sums in a path-count recurrence, products of
  numbers tens of thousands of bits long, and many small tuples looked up
  in a set.
- ``startup_seconds``, timed after every set-up probe, starts a fresh
  interpreter that imports a fixed set of standard-library modules: like a
  set-up, it is mostly process start-up and module loading, which the
  kernel does not track.

Run as a script, this file times those imports and prints the seconds.
"""

import itertools
import subprocess
import sys
import time

# the gauges' usual times on the machine the benchmark was tuned on (see README.md)
KERNEL_REF_S = 0.11
STARTUP_REF_S = 0.1

STARTUP_MODULES = ("argparse", "asyncio", "decimal", "email.parser", "fractions",
                   "http.client", "json", "statistics", "unittest", "xml.dom.minidom")


def kernel():
    n, d = 24, 12
    succ = [[(i + s) % n for s in range(d)] for i in range(n)]
    row = [1] + [0] * (n - 1)
    for _ in range(800):
        nxt = [0] * n
        for i, c in enumerate(row):
            for j in succ[i]:
                nxt[j] += c
        row = nxt
    x = 3 ** 30001
    for _ in range(40):
        y = x * x
    tails = set(itertools.product(range(3), repeat=6))
    hits = 0
    for w in itertools.product(range(3), repeat=9):
        hits += (w[1:] + w[:1])[3:] in tails
        hits += w[::-1][:6] in tails
    return row, y, hits


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def startup_seconds() -> float:
    """The import time a fresh interpreter running this file reports."""
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def scale(measured_s: float, gauge_s: float, gauge_ref_s: float) -> float:
    """`measured_s` as it would read where the gauge takes `gauge_ref_s`."""
    return measured_s * gauge_ref_s / gauge_s


if __name__ == "__main__":
    import importlib

    t0 = time.perf_counter()
    for module in STARTUP_MODULES:
        importlib.import_module(module)
    print(repr(time.perf_counter() - t0))
