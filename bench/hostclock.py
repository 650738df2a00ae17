"""Wall intervals rescaled to a fixed reference speed of the host.

The benchmark runs on a shared virtual machine whose speed drifts by up
to 1.5x within seconds and further over minutes, and the drift reaches
process CPU time as much as wall time.  Runs of the same code then spread
more than any useful regression bound.  HostClock measures the host's
speed while the run goes on and takes that drift out of each duration.

While started, it interrupts the main thread every PERIOD seconds with
SIGALRM and runs a short fixed pure-Python kernel (the benchmark's own
code, never omrev), recording when each kernel run started and ended.
A wall interval then converts to reference seconds: each stretch of
program time between kernel runs is multiplied by REFERENCE_S / k, where
k is the median kernel time of the WINDOW runs centred on that stretch.
Kernel time is left out of every interval, so the program is charged
only for its own work.  At a speed where the kernel takes REFERENCE_S,
reference seconds equal wall seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.025
KERNEL_STEPS = 50
# Kernel time at the reference speed: a round figure near its median
# (0.4-0.6 ms) on a 2-vCPU x86_64 VM under Python 3.11.7.
REFERENCE_S = 0.0005
WINDOW = 9


def kernel():
    """Fixed integer-loop work, then allocation, hashing and rational arithmetic.

    Under the host's slowdowns the integer loop tracked the signed and
    verify workloads best and the allocation half the matrix workload, so
    the kernel does both.  At most eight of its objects are alive at once,
    so it does not push the garbage collector towards a collection inside
    the program.
    """
    table = [0] * 256
    x = 1
    for i in range(15 * KERNEL_STEPS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        if x & 1:
            table[x & 255] += i
        else:
            table[(x >> 8) & 255] ^= i
    recent = {}
    product = Fraction(0)
    for i in range(KERNEL_STEPS):
        triple = (i, i + 1, 3 * i)
        recent[i & 7] = frozenset(triple)
        product = Fraction(i + 1, 7) * Fraction(3, i + 2)
    return table, recent, product


class HostClock:
    """Samples host speed from SIGALRM while started; converts intervals."""

    def __init__(self):
        self.starts = []  # kernel start times, ascending
        self.ends = []
        self._scales = []  # cached REFERENCE_S / windowed median
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def _window_scale(self, k):
        half = WINDOW // 2
        runs = range(max(0, k - half), min(len(self.starts), k + half + 1))
        return REFERENCE_S / statistics.median(self.ends[i] - self.starts[i] for i in runs)

    def _scale(self, k):
        """Speed factor around kernel run k (WINDOW runs, cut at the ends).

        Only factors whose window is complete are cached; one near the end
        of the record is recomputed once later runs have come in.
        """
        if k + WINDOW // 2 >= len(self.starts):
            return self._window_scale(k)
        while len(self._scales) <= k:
            self._scales.append(self._window_scale(len(self._scales)))
        return self._scales[k]

    def seconds(self, a, b):
        """Reference seconds of program time in the wall interval [a, b]."""
        count = len(self.starts)
        if not count:
            raise RuntimeError("HostClock has no speed samples; was it started?")
        i = bisect.bisect_right(self.ends, a)
        total, cursor = 0.0, a
        while i < count and self.starts[i] < b:
            total += max(0.0, self.starts[i] - cursor) * self._scale(i)
            cursor = max(cursor, self.ends[i])
            i += 1
        total += max(0.0, b - cursor) * self._scale(min(i, count - 1))
        return total
