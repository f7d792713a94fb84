"""How fast the machine is while the benchmark runs.

Shared machines drift in speed by tens of percent over minutes, far more
than a run of under a minute can average out.  A `SpeedProbe` interrupts
the run at a fixed period of wall time and times a short fixed pure-Python
job; times are then divided by the job's mean slowdown against its nominal
time, which removes the drift common to the job and the program.  The job does what
voa's inner loops do, exact Fraction arithmetic on values found by tuple
keys in a large dict, and imports nothing from voa, so no change to the
program can move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Seconds one round of the job takes on the reference machine, a 2-vCPU
# x86-64 VM running Python 3.11 in its faster state; scaled times are
# seconds at that speed.
NOMINAL_ROUND_S = 2e-6
TABLE = 20_000


class SpeedProbe:
    """Periodic samples of the job's time; a context manager.

    `excluded` accumulates the seconds spent in the probe itself, so that
    callers can take them out of the intervals they time.
    """

    def __init__(self, period_s: float = 0.05, rounds: int = 1000):
        self.period_s = period_s
        self.rounds = rounds
        self.samples: list[float] = []
        self.excluded = 0.0
        self._table = {(i % 97, i % 89, i): Fraction(i, i % 7 + 1)
                       for i in range(TABLE)}
        self._key = 1
        self._previous = None

    def job(self) -> Fraction:
        table, k = self._table, self._key
        acc = Fraction(0)
        for _ in range(self.rounds):
            k = (k * 1103515245 + 12345) % TABLE
            acc += table[(k % 97, k % 89, k)]
        self._key = k
        return acc

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.job()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.excluded += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: int = 0) -> float | None:
        """Mean job time over its nominal time, from sample `start` on.

        1 on the reference machine; None when there is no such sample.
        """
        samples = self.samples[start:]
        if not samples:
            return None
        return statistics.fmean(samples) / (self.rounds * NOMINAL_ROUND_S)
