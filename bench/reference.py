"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the speed of one core drifts by a third and more within
seconds, as other tenants load the host, and process CPU time drifts with
it.  The benchmark therefore samples the speed of a fixed kernel while it
times the program, and reports each op's time scaled to a fixed reference
speed:

    op time at reference speed = measured op time * mean(NOMINAL / kernel time)

over the kernel samples taken during the op.  ``Gauge`` takes those samples
on an interval timer in the measuring thread itself, so each sample runs on
the same core as the op, a few milliseconds apart.  The kernel uses numpy
and plain Python only, never l1gram, so no change to the program can change
it; it mixes what the program does (small dense solves called from Python,
matrix-vector products and dictionary work), on data small enough to stay
in cache, so that what the program leaves in the cache hardly changes it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Seconds per kernel unit at reference speed: about what a 2-vCPU x86-64
# host (OpenBLAS with one thread) gives between the program's calls, so that
# scaled times read close to wall times there.  Only their unit depends on it.
NOMINAL_UNIT_S = 0.00012
MEASURE_UNITS = 80  # one measure(): about 10 ms
TICK_UNITS = 4      # one gauge sample: about 0.5 ms
TICK_S = 0.025      # gauge sampling interval: about 2% of the time
WINDOW_MARGIN_S = 0.15

_state = {}


def _inputs():
    if not _state:
        rng = np.random.default_rng(20240510)
        _state["systems"] = [(rng.standard_normal((6, 6)) + 6.0 * np.eye(6),
                              rng.standard_normal(6)) for _ in range(6)]
        _state["M"] = rng.standard_normal((48, 48))
        _state["v"] = rng.standard_normal(48)
    return _state


def kernel(units: int) -> float:
    """`units` fixed units of work; returns a checksum so nothing is skipped."""
    s = _inputs()
    acc = 0.0
    for _ in range(units):
        for A, b in s["systems"]:
            acc += float(np.linalg.solve(A, b)[0])
        x = s["M"] @ s["v"]
        x = s["M"] @ (x / np.abs(x).sum())
        acc += float(x[0])
        tally = {}
        for i in range(250):
            tally[i % 31] = tally.get(i % 31, 0) + i
        acc += tally[0]
    return acc


def measure() -> float:
    """Wall time of MEASURE_UNITS kernel units, in seconds."""
    t0 = time.perf_counter()
    kernel(MEASURE_UNITS)
    return time.perf_counter() - t0


def scale(elapsed: float, before: float, after: float) -> float:
    """`elapsed` at reference speed, given measure() just before and after."""
    return elapsed * NOMINAL_UNIT_S * MEASURE_UNITS / (0.5 * (before + after))


class Gauge:
    """Samples the kernel's speed every TICK_S seconds on SIGALRM.

    The handler runs in the main thread between bytecodes, times TICK_UNITS
    kernel units, and keeps ``(start, speed)`` where speed is nominal over
    measured time.  ``spent`` is the total time the handler took, so a
    caller can take it out of what it times.  Use only from the main
    thread, with no other user of SIGALRM.
    """

    def __init__(self):
        self.starts = []
        self.speeds = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel(TICK_UNITS)
        took = time.perf_counter() - t0
        self.starts.append(t0)
        self.speeds.append(NOMINAL_UNIT_S * TICK_UNITS / took)
        self.spent += took

    def __enter__(self):
        kernel(TICK_UNITS)  # warm the inputs before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, t0: float, t1: float) -> float:
        """Mean relative speed over [t0, t1], widened by WINDOW_MARGIN_S on
        each side; 1.0 if no sample falls there."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_MARGIN_S)
        window = self.speeds[lo:hi]
        return sum(window) / len(window) if window else 1.0
