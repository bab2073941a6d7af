"""Machine-speed normalisation of the benchmark's timings.

On a shared virtual machine the same work can take up to twice as long
from one minute to the next, which swamps any change a commit makes.
While a timing is taken, a fixed unit of pure-Python work (float arithmetic,
`math` calls, small allocations, like the kernels) runs on a 20 ms timer
signal in the same thread, so it sees the same slowdowns as the program.
Each sample runs the unit twice and times the second run, so the
program's own cache footprint does not leak into the measured speed.
A time measured in that window, times `Speed.factor`, is the time at the
reference speed, at which one unit takes NOMINAL_UNIT_S.  The samples add
about 0.6% to every timing, on every commit alike.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

NOMINAL_UNIT_S = 60e-6  # about what one unit took on a 2 GHz Xeon VM
PERIOD_S = 0.02
RECENT_WEIGHT = 0.05  # moving average over roughly the last 0.4 s
OWN_SAMPLES = 10  # work spanning this many samples is scaled by its own


def unit():
    acc = 0.0
    cells = []
    for i in range(1, 121):
        x = i * 0.37
        acc += math.log(x) * x**-1.5 + (x - math.floor(x))
        cells.append((x, acc))
    return acc + len(cells)


class Speed:
    """Samples the machine's speed while active (a context manager), or
    in explicit bursts around work done by another process."""

    def __init__(self):
        self.total_s = 0.0
        self.units = 0
        self.recent_s = None  # moving average of the unit time
        self._old_handler = None

    def _sample(self):
        unit()  # untimed: refills the caches the program's work evicted
        t0 = perf_counter()
        unit()
        dt = perf_counter() - t0
        self.total_s += dt
        self.units += 1
        if self.recent_s is None:
            self.recent_s = dt
        else:
            self.recent_s += RECENT_WEIGHT * (dt - self.recent_s)

    def burst(self, seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            self._sample()

    def __enter__(self):
        self.burst(0.005)  # so that `recent_s` is known from the start
        self._old_handler = signal.signal(signal.SIGALRM, lambda *_: self._sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def mark(self):
        return self.units, self.total_s

    def factor_since(self, mark):
        """Factor for one piece of work that started at `mark`: from the
        samples taken during it when there are enough, else from the
        recent moving average."""
        units = self.units - mark[0]
        if units >= OWN_SAMPLES:
            return NOMINAL_UNIT_S * units / (self.total_s - mark[1])
        return NOMINAL_UNIT_S / self.recent_s

    @property
    def factor(self):
        """Reference-speed time per measured time (above 1 when the machine
        runs faster than the reference)."""
        if not self.units:
            raise RuntimeError("no speed samples were taken")
        return NOMINAL_UNIT_S * self.units / self.total_s
