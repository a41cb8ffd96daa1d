"""The host's speed while an op runs, sampled by a fixed pure-Python probe.

On a shared 2-vCPU VM the CPU speed was seen to swing by up to 2x within
seconds and to drift for minutes, so op wall time in seconds mixes the
program's cost with the host's state. A SIGALRM timer interrupts the
benchmark process every INTERVAL_S and times `probe`, a fixed snippet of
small-Fraction and int arithmetic that never touches deltahull. The probe is the benchmark's own
code, so a change to deltahull cannot speed it up or slow it down.

An op's cost in reference units is its wall time, minus the time the probes
took inside it, divided by the median probe time during the op (or the
latest probe before it, for an op shorter than the interval). A 10% slower
program reads 10% higher, while most of the host's swings cancel out (not
all: the probe and an op do not slow down by exactly the same factor).
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
WARM_PROBES = 4  # timed before the first op, so every op has a probe level
_VALUES = [Fraction(i * 37 % 101 + 1, i % 13 + 2) for i in range(12)]


def probe() -> None:
    """About 0.6 ms of Fraction and int arithmetic on this kind of host."""
    out = []
    for a in _VALUES:
        for b in _VALUES[:6]:
            out.append(a * b - b / a)
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) % 1_000_003


class Sampler:
    """Times `probe` from a SIGALRM handler while the timed ops run."""

    def __init__(self):
        self.ends = []  # perf_counter() at the end of each probe
        self.durations = []
        self.stolen_s = 0.0  # total time spent in probes
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)
        self.stolen_s += end - start

    def start(self):
        for _ in range(WARM_PROBES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def level(self, start: float, end: float) -> float:
        """Median probe time in [start, end], else the latest before start."""
        i = bisect.bisect_left(self.ends, start)
        j = bisect.bisect_right(self.ends, end)
        if j > i:
            return statistics.median(self.durations[i:j])
        return self.durations[max(i - 1, 0)]

    def median_s(self) -> float:
        return statistics.median(self.durations)
