"""Scale timings to a reference speed of the host.

The benchmark's machine is a share of a busy host: on the 2-core
development VM the same single-object loop ran 2x slower in some stretches
of seconds than in others, and two sets of ten runs of the same code
differed by 29% in their median set-up time. While a run is timed, a timer
signal interrupts it every ``INTERVAL_S`` to time a fixed reference loop,
which uses no deepreflecs code and no BLAS. A phase's time leaves out the
time spent in those readings and is divided by the host's slowness during
the phase: the median of the readings taken in it over ``REFERENCE_S``.
A scaled time reads as it would at the host speed at which the reference
loop takes ``REFERENCE_S``. A change to deepreflecs moves it as it moves
the raw time; a slow stretch of the host moves it much less.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import List

import numpy as np

REFERENCE_S = 0.0006  # the reference loop's time at the reference speed
INTERVAL_S = 0.04  # time between two readings

_VECTOR = np.linspace(-1.0, 1.0, 2048)


def _reference_loop() -> float:
    """Fixed interpreter and small-array work, like the per-sample paths."""
    total = 0.0
    table = {}
    for i in range(1500):
        total += (i * 7) % 13
        table[i & 127] = total
    for _ in range(40):
        clipped = np.maximum(_VECTOR - 0.25, 0.0)
        total += float(clipped.sum()) + float(np.sort(clipped[:128])[-1])
    return total


@dataclass(frozen=True)
class Mark:
    readings: int  # readings taken before the mark
    paused_s: float  # time spent in readings before the mark
    at: float  # perf_counter at the mark


class HostSpeed:
    """Readings of the reference loop, taken on a timer while a run is timed.

    Use as a context manager around the timed part of a run. Take a
    ``mark()`` before a phase and pass it to ``seconds_since`` or
    ``slowness_since`` after it.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.paused_s = 0.0
        self._previous_handler = None
        _reference_loop()

    def _read(self, signum=None, frame=None) -> None:
        # the first loop refills the caches the program left cold; the second is timed
        started = time.perf_counter()
        _reference_loop()
        timed = time.perf_counter()
        _reference_loop()
        ended = time.perf_counter()
        self.readings.append(ended - timed)
        self.paused_s += ended - started

    def __enter__(self) -> "HostSpeed":
        self._previous_handler = signal.signal(signal.SIGALRM, self._read)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._read()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def mark(self) -> Mark:
        return Mark(len(self.readings), self.paused_s, time.perf_counter())

    def seconds_since(self, mark: Mark) -> float:
        """Time since `mark`, without the time spent in readings."""
        return time.perf_counter() - mark.at - (self.paused_s - mark.paused_s)

    def slowness_since(self, mark: Mark) -> float:
        """Median reading since `mark` (at least the last one before it) over REFERENCE_S."""
        readings = self.readings[max(mark.readings - 1, 0):]
        return statistics.median(readings) / REFERENCE_S


class WallClock:
    """The same interface without readings: raw wall time, slowness 1."""

    paused_s = 0.0

    def mark(self) -> Mark:
        return Mark(0, 0.0, time.perf_counter())

    def seconds_since(self, mark: Mark) -> float:
        return time.perf_counter() - mark.at

    def slowness_since(self, mark: Mark) -> float:
        return 1.0
