"""A clock that reads in reference seconds, so that host speed phases cancel.

A shared host runs the same code at several speeds: phases of a few seconds
to minutes in which a fixed pure-Python loop takes up to twice as long. Raw
times then differ by more between runs than the benchmark's bounds allow.

``HostClock`` times a fixed slice of pure-Python work (``calibration_slice``)
at most every ``period`` seconds, at points the caller chooses with
``tick()``, between units of the program's work. Each stretch of time between
two slices is scaled by ``NOMINAL_SLICE_S`` over the median of the last few
slice times, and the slices themselves are left out. A time read from this
clock is therefore the time the work would take on a host that runs the
slice in ``NOMINAL_SLICE_S``. The slice does not touch the package, so a
change that makes the program faster shows in full.
"""

import statistics
from collections import deque
from time import perf_counter, process_time

SLICE_ITERS = 800
# the slice's median time on a 2-vCPU Intel Xeon VM, Python 3.11, in its fast phase
NOMINAL_SLICE_S = 0.0015
PERIOD_S = 0.05
RECENT = 5


def calibration_slice():
    """Fixed interpreter work: small-list arithmetic, clamping and dict stores."""
    acc = 0.0
    table = {}
    for i in range(SLICE_ITERS):
        values = [float(i % 7), 0.5, 1.5, acc % 3.0]
        acc += sum(min(max(v + 0.1, 0.2), 0.9) for v in values)
        table[i & 255] = acc
    return acc


class HostClock:
    """Reference-second wall and CPU clocks; ``tick()`` between units of work."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.slices = []
        self._recent = deque(maxlen=RECENT)
        self._ref_wall = self._ref_cpu = 0.0
        self.spent_wall = 0.0
        self._sample()

    @property
    def scale(self):
        """Reference seconds per measured second at the current host speed."""
        return NOMINAL_SLICE_S / statistics.median(self._recent)

    def _sample(self):
        w0, c0 = perf_counter(), process_time()
        if self.slices:
            scale = self.scale
            self._ref_wall += (w0 - self._wall_end) * scale
            self._ref_cpu += (c0 - self._cpu_end) * scale
        calibration_slice()
        self._wall_end, self._cpu_end = perf_counter(), process_time()
        self.spent_wall += self._wall_end - w0
        self.slices.append(self._wall_end - w0)
        self._recent.append(self._wall_end - w0)

    def tick(self):
        """Time a slice if ``period`` has passed since the last one."""
        if perf_counter() - self._wall_end >= self.period:
            self._sample()

    def now(self):
        """(wall, cpu) in reference seconds since the clock started, slices left out."""
        scale = self.scale
        return (self._ref_wall + (perf_counter() - self._wall_end) * scale,
                self._ref_cpu + (process_time() - self._cpu_end) * scale)
