"""The host's speed over time, to put every measured time on one scale.

On a shared virtual host the speed a process gets swings with its
neighbours' load: a fixed pure-Python loop ran between 57 and 108 times per
CPU second within one minute on a 2-vCPU Xeon VM, in phases of 5 to 20
seconds, and the same TPC-C load took 2.2 to 3.4 CPU seconds in one
process.  CPU time does not exclude that (stolen time it does), so every
figure of a run moved with it.

:class:`HostSpeed` runs a sampler thread that times a small fixed kernel of
dictionary and string work every :data:`PERIOD` seconds, in its own thread's
CPU time so that waiting for the GIL does not count.  A figure measured over
an interval is scaled by the host's mean speed over that interval (at least
:data:`MIN_SPAN` seconds around it) relative to :data:`REFERENCE_SPEED`:
times are reported as they would read on a host that runs the kernel at the
reference speed.  Each figure is scaled by the speed of its own moment, not
of its whole run, as the speed changes within a run.  Times are on
``time.monotonic``, the clock of the threaded executor (and, on Linux, of
``time.perf_counter``).  The kernel does not touch the
program under test, so a change to the program moves the scaled figures as
it moves the raw ones.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right

#: Seconds between kernel samples; about 1% of one core.
PERIOD = 0.05
#: Dictionary entries the kernel builds and sums.
KERNEL_ITEMS = 800
#: Shortest interval a factor averages over (about 20 samples).
MIN_SPAN = 1.0
#: Kernels per CPU second that define the reference host (about the mean
#: of a 2-vCPU Xeon VM).
REFERENCE_SPEED = 3000.0


def _kernel() -> int:
    table = {}
    for i in range(KERNEL_ITEMS):
        table[str(i)] = (i, i * 2)
    return sum(pair[1] for pair in table.values())


class HostSpeed:
    """Samples the host's speed from a thread while the ``with`` block
    runs; :meth:`factor` is its mean over an interval relative to the
    reference speed (above 1 on a faster host)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.speeds: list[float] = []
        #: Running sums of ``speeds``, for a mean over any interval.
        self._sums = [0.0]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-speed",
                                        daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD):
            started = time.thread_time()
            _kernel()
            spent = time.thread_time() - started
            if spent > 0:
                self.add(time.monotonic(), 1.0 / spent)

    def add(self, at: float, speed: float) -> None:
        # ``times`` grows last: a reader that finds a sample by its time
        # finds its running sum too.
        self.speeds.append(speed)
        self._sums.append(self._sums[-1] + speed)
        self.times.append(at)

    def factor(self, low: float, high: float) -> float:
        """Mean speed over the monotonic interval ``[low, high]``, widened
        to :data:`MIN_SPAN`, relative to the reference; over the nearest
        samples when it holds none."""
        if high - low < MIN_SPAN:
            middle = (low + high) / 2.0
            low, high = middle - MIN_SPAN / 2.0, middle + MIN_SPAN / 2.0
        first = bisect_left(self.times, low)
        last = bisect_right(self.times, high)
        if first >= last:
            first, last = max(0, first - 1), min(len(self.times), first + 1)
        if first >= last:
            return 1.0
        return ((self._sums[last] - self._sums[first]) / (last - first)
                / REFERENCE_SPEED)
