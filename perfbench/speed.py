"""Times scaled to a fixed machine speed.

On a shared 2-vCPU host other tenants take the cores in bursts of about a
tenth of a second and slow this process by up to 1.8x while they last; how
much of a 30-second run they take changes from run to run, by 1.5x between
runs of the same code.  So each time is scaled by the speed the host had
while it was measured: a fixed reference loop is timed, and a time measured
while the loop took ``ref`` seconds on average is multiplied by
NOMINAL_S / ref.  Times then read as on a machine where the loop takes
NOMINAL_S.

The loop is pure-Python arithmetic plus a heap-ordered event loop.  Timed
between simulator and closed-form calls for five minutes on such a host, the
ratio of either call's time to the pair's varied about half as much
(interquartile range 0.09-0.11 of the median) as against either loop alone
(0.15-0.18), and a quarter as much as the raw times (0.38-0.48).
"""

from __future__ import annotations

import heapq
import math
import random
import signal
import statistics
from collections import deque
from time import perf_counter

LOOPS = 13_000
EVENTS = 800
NOMINAL_S = 0.002
# A sample every PERIOD_S spends about 4% of the time in the loop; an
# operation during which no sample fell takes the mean of the last RECENT.
PERIOD_S = 0.05
RECENT = 4


def reference_loop_s() -> float:
    """Wall time of one run of the fixed reference loop."""
    t0 = perf_counter()
    x = 0.0
    for i in range(LOOPS):
        x += math.sqrt(i)
    rnd = random.Random(1)
    heap, t, busy = [], 0.0, 0.0
    for i in range(EVENTS):
        t += rnd.expovariate(1.0)
        heapq.heappush(heap, (t, i))
    while heap:
        arrival, _ = heapq.heappop(heap)
        busy = max(arrival, busy) + rnd.expovariate(1.2)
    return perf_counter() - t0


def reference_s(repeats: int) -> float:
    """Mean time of ``repeats`` runs of the reference loop."""
    return statistics.fmean(reference_loop_s() for _ in range(repeats))


class SpeedClock:
    """While entered, times the reference loop from a timer signal every
    PERIOD_S, between the bytecodes of whatever runs in the main thread.

    ``mark()`` notes the clock's state when a measurement starts and
    ``scale(mark, seconds)`` turns the seconds measured since then into
    (seconds less the signal handler's time, those seconds scaled).
    """

    def __init__(self):
        self.samples = 0
        self.handler_s = 0.0
        self._ref_sum = 0.0
        self._recent: deque[float] = deque(maxlen=RECENT)
        self._old_handler = None

    def __enter__(self) -> SpeedClock:
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self._sample()
        self.handler_s += perf_counter() - t0

    def _sample(self) -> None:
        ref = reference_loop_s()
        self._recent.append(ref)
        self._ref_sum += ref
        self.samples += 1

    def mark(self) -> tuple[float, int, float]:
        return self.handler_s, self.samples, self._ref_sum

    def scale(self, mark: tuple[float, int, float], seconds: float) -> tuple[float, float]:
        handler_s, samples, ref_sum = mark
        raw = seconds - (self.handler_s - handler_s)
        n = self.samples - samples
        ref = (self._ref_sum - ref_sum) / n if n else statistics.fmean(self._recent)
        return raw, raw * NOMINAL_S / ref
