"""The host's speed, sampled during a run, and times scaled to a fixed speed.

The machine this benchmark runs on is a share of a host whose speed changes
all the time: a fixed loop runs at one of two speeds about 1.5x apart,
switching every fraction of a second, and the share of time spent at each
drifts over minutes and hours.  No CPU steal is reported.  Raw wall times of
the same code therefore spread more between runs than the changes they
should show.  So the timed phase also times a fixed *unit* of work that
never touches the package, between operations (never inside one), and every
operation's time is scaled to a fixed speed:

    reported = wall * nominal / local

where `local` is the mean of the `nearest` unit timings around the
operation.  The reported figures are "seconds at the reference speed": on a
host that runs the unit in `nominal` seconds they are wall-clock seconds.
A change of the host's speed moves unit and operation alike and cancels; a
change of the program moves only the operation.

Two units match the two kinds of operation:

* `unit()`, for the in-process workloads: the kind of work their operations
  spend time on, in a fixed amount: the interpreter loop with float and
  integer arithmetic and dicts, exact 6x6 `Fraction` matrix products, and
  small dense eigenproblems through numpy's LAPACK;
* `process_unit()`, for `cli_cold`: a fresh interpreter that imports numpy
  and the scipy subpackages the package uses, since its calls are mostly
  interpreter start and import.  What it imports is fixed here, so a change
  that makes the package import less still shows in full.

The in-process unit takes a few milliseconds and is sampled just before an
operation whenever 50 ms have passed since the last sample, and `local` is
the mean of the two samples nearest the operation (in practice the ones just
before and just after it); the process unit takes about 0.7 s and is sampled
about every 2.5 s, and `local` is the mean of the three nearest.
"""

import bisect
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

PROCESS_ARGV = [sys.executable, "-c",
                "import numpy, scipy.integrate, scipy.optimize, scipy.special"]

_SQUARE = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i + 2 * j) % 7) for j in range(6)]
           for i in range(6)]


def unit():
    """A fixed amount of in-process work, a few milliseconds long."""
    import numpy as np

    acc, table, x = 0, {}, 0.5
    for i in range(1, 4000):
        acc += (i * i) % 7
        table[i % 61] = acc
        x = math.sqrt(x * x + 1.0 / i) - 0.25 * x
    m = _SQUARE
    for _ in range(2):
        m = [[sum((m[i][k] * _SQUARE[k][j] for k in range(6) if m[i][k]), Fraction(0))
              for j in range(6)] for i in range(6)]
    a = np.array([[float(v) for v in row] for row in m])
    gram = a.T @ a + a @ a.T
    # eigh, not svd: a traced run counts every numpy svd as the oracle's
    for _ in range(10):
        np.linalg.eigh(gram)
    return acc, x, m[0][0]


def process_unit():
    """A fresh interpreter importing the package's third-party dependencies."""
    subprocess.run(PROCESS_ARGV, check=True, env=dict(os.environ), timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class Speed:
    """Timings of one unit, (start, seconds) in time order, and the scaling."""

    def __init__(self, work, nominal, spacing, nearest):
        self.work, self.nominal = work, nominal
        self.spacing, self.nearest = spacing, nearest
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        self.work()
        self.samples.append((t0, time.perf_counter() - t0))

    def maybe_sample(self):
        """Sample if `spacing` seconds have passed since the last sample began."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.spacing:
            self.sample()

    def local(self, t0, t1):
        """Mean unit time of the `nearest` samples around the interval [t0, t1]."""
        starts = [s for s, _ in self.samples]
        mid = 0.5 * (t0 + t1)
        lo = hi = bisect.bisect_left(starts, mid)
        while hi - lo < self.nearest and (lo > 0 or hi < len(starts)):
            if lo > 0 and (hi >= len(starts) or mid - starts[lo - 1] <= starts[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return math.fsum(d for _, d in self.samples[lo:hi]) / (hi - lo)

    def scale(self, t0, t1):
        """The interval [t0, t1] in seconds at the reference speed."""
        return (t1 - t0) * self.nominal / self.local(t0, t1)


# each unit's typical time on the reference machine (see README.md)
NOMINAL_S = 0.003
NOMINAL_PROCESS_S = 0.7


def for_workload(workload):
    if workload == "cli_cold":
        return Speed(process_unit, NOMINAL_PROCESS_S, spacing=2.5, nearest=3)
    unit()  # loads numpy before the first timing
    return Speed(unit, NOMINAL_S, spacing=0.05, nearest=2)
