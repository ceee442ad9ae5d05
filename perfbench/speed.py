"""Machine-speed normalization for timings on a shared, drifting host.

Each vCPU of the small shared machines this benchmark runs on flips
between a fast state and states up to about half as fast (another tenant
on the same physical core), every 50-500 ms and independently of the other
vCPUs. The same item with the same inputs then takes up to twice as long
from one pass to the next, and thread CPU time moves with wall time, so no
clock alone is steady from one run to the next. What stays steady is the
ratio between two pieces of pure-Python code timed at the same moment.

So ``SpeedMeter`` times a fixed reference kernel (stdlib ``Fraction``
matrix products, no scorza code): between items, where it also pins the
process to the fastest CPU, and every ``TICK_S`` from a ``SIGALRM``
handler, so long items are sampled while they run. A timing is multiplied
by ``REF_NOMINAL_S / mean kernel time over its span``: it reads as
seconds on a machine where one kernel unit takes exactly
``REF_NOMINAL_S``. A change to scorza moves the item times and not the
kernel, so it moves the scaled time in full. Kernel time spent inside an
item is taken out of the item's latency. The raw wall times are kept next
to the scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_NOMINAL_S = 0.0007  # one kernel unit on a 2.0 GHz Xeon vCPU in its fast state
EVERY_S = 0.1           # wall time between two samples between items
TICK_S = 0.05           # interval of the samples taken while an item runs
SAMPLE_UNITS = 3        # kernel units per CPU in a sample between items
MAX_CPUS = 4            # CPUs tried at each sample between items
WARMUP = 10

_N = 6
_A = [[Fraction(i * _N + j + 1, j + 2) for j in range(_N)] for i in range(_N)]
_B = [[Fraction(i - j, i + j + 1) for j in range(_N)] for i in range(_N)]


def kernel_unit() -> int:
    """Fixed work in the style of scorza's inner loops: one small dense
    exact matrix product. It leaves no garbage for the cycle collector,
    whose pauses would make it a worse clock (a dict-building kernel was
    tried and was about eight times noisier)."""
    c = [[sum((_A[i][k] * _B[k][j] for k in range(_N)), Fraction(0))
          for j in range(_N)] for i in range(_N)]
    return sum(x.numerator for row in c for x in row)


def _time_units(n: int) -> float:
    """Wall seconds per unit over ``n`` kernel units."""
    start = perf_counter()
    for _ in range(n):
        kernel_unit()
    return (perf_counter() - start) / n


class SpeedMeter:
    """Kernel samples over a run, and the scale factor of any time span.

    Where the process may use more than one CPU, a sample between items
    times the kernel on each of up to ``MAX_CPUS`` of them and pins the
    process to the fastest until the next one. ``restore`` gives the
    process its CPU set back."""

    def __init__(self):
        usable = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self._home = set(usable)
        self.cpus = usable[:MAX_CPUS] if len(usable) > 1 else []
        _time_units(WARMUP)
        self.times: list = []     # midpoint of each sample, perf_counter seconds
        self.kernel_s: list = []  # wall seconds per kernel unit in each sample
        self.spent = 0.0          # total wall time spent sampling
        self._last = float("-inf")
        self._sampling = False

    def _record(self, start: float, end: float, per_unit: float):
        self.times.append((start + end) / 2)
        self.kernel_s.append(per_unit)
        self.spent += end - start

    def sample(self):
        """A sample between items, on the fastest CPU."""
        self._sampling = True
        start = perf_counter()
        try:
            per_unit = self._fastest_cpu()
        except OSError:  # the CPU set cannot be changed here: stay put
            self.cpus = []
            per_unit = _time_units(SAMPLE_UNITS)
        end = perf_counter()
        self._record(start, end, per_unit)
        self._last = end
        self._sampling = False

    def _fastest_cpu(self) -> float:
        """Pin the process to the fastest of ``self.cpus`` right now and
        return its kernel time per unit."""
        if not self.cpus:
            return _time_units(SAMPLE_UNITS)
        best = None
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            per_unit = _time_units(SAMPLE_UNITS)
            if best is None or per_unit < best[0]:
                best = (per_unit, cpu)
        os.sched_setaffinity(0, {best[1]})
        return best[0]

    def maybe_sample(self):
        """Sample if ``EVERY_S`` has passed since the last sample."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def _tick(self, signum, frame):
        if self._sampling:
            return
        start = perf_counter()
        kernel_unit()
        end = perf_counter()
        self._record(start, end, end - start)

    @contextlib.contextmanager
    def ticking(self):
        """Also sample every ``TICK_S`` while the block runs, from a
        ``SIGALRM`` handler that interrupts whatever Python code runs."""
        if not hasattr(signal, "setitimer"):
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def restore(self):
        if self.cpus:
            os.sched_setaffinity(0, self._home)

    def kernel_over(self, start: float, end: float) -> float:
        """Mean kernel time per unit of the samples taken inside
        ``[start, end]`` and of the nearest one on each side. (The mean
        follows the share of time spent in each speed state; over five
        moment runs it left items 15% apart between passes, the median 17%.)"""
        if not self.times:
            raise ValueError("no kernel samples taken")
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = bisect.bisect_right(self.times, end) + 1
        return statistics.fmean(self.kernel_s[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a wall time measured over ``[start, end]`` into
        seconds at the nominal speed."""
        return REF_NOMINAL_S / self.kernel_over(start, end)
