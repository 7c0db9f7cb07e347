"""Machine-speed probe, read on a timer throughout an untraced run.

On a 2-core x86_64 virtual machine shared with other tenants, the same pass
ran anywhere from 10 to 17 s within half an hour: the speed of the cores
drifts with the other tenants' load, in episodes of a second or two and over
minutes.  The probe is a fixed piece of pure-Python graph search, the
interpreter work that dominates the solver.  It belongs to the benchmark,
so no change to the package moves it.  Its time over :data:`NOMINAL_S` is
the machine's slowdown at that moment; a cell's time divided by the mean
slowdown read while it ran is the cell's time at nominal machine speed.

The readings come from a ``SIGALRM`` interval timer, so they also fall
inside long cells.  Python runs the handler between bytecodes of the main
thread; the probe calls no library code, so it cannot re-enter a native
call that the cell is in the middle of.  The time spent in the handler is
subtracted from the cell's time.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# median probe time on the reference machine (2-core x86_64 virtual machine,
# Python 3.11.7); only a scale, never changed between commits
NOMINAL_S = 0.0013
# one reading every PERIOD_S of wall time.  Recorded at 0.02 s and thinned
# offline, six corpus-optimal passes in one process spread 1.5 % (quartile
# distance over median) scaled at 0.02 s, 4.3 % at 0.1 s, 25 % unscaled.
PERIOD_S = 0.02

_rng = random.Random(1)
_N = 40
_ADJ = [[_rng.randrange(_N) for _ in range(6)] for _ in range(_N)]
# the probe's working lists, reset in place: a reading allocates no object
# the garbage collector tracks, so a collection cannot start inside it and
# charge the probe for the solver's live objects
_UNSEEN = [-1] * _N
_level = [-1] * _N
_queue = [0] * _N


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    level, queue, adj = _level, _queue, _ADJ
    t0 = time.perf_counter()
    for rep in range(120):
        level[:] = _UNSEEN
        source = rep % _N
        level[source] = 0
        queue[0] = source
        head, tail = 0, 1
        while head < tail:
            v = queue[head]
            head += 1
            for w in adj[v]:
                if level[w] < 0:
                    level[w] = level[v] + 1
                    queue[tail] = w
                    tail += 1
    return time.perf_counter() - t0


class Sampler:
    """Reads the probe every PERIOD_S while active (a context manager)."""

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (time, slowdown)
        self.spent = 0.0  # seconds spent in the handler so far
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings.append((t0, probe() / NOMINAL_S))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown read within one period of [start, end], or the
        reading closest to it when none was.

        A cell's time is its work times the machine's mean slowdown while it
        ran, so the mean, slow readings included, is the statistic to divide
        by: on the same six passes the median spread 4.9 %, the mean 1.5 %.
        """
        near = [s for t, s in self.readings if start - PERIOD_S <= t <= end + PERIOD_S]
        if not near:
            mid = (start + end) / 2
            near = [min(self.readings, key=lambda r: abs(r[0] - mid))[1]]
        return statistics.fmean(near)


class NullSampler:
    """Stands in for :class:`Sampler` in the traced run: never reads."""

    spent = 0.0

    def __enter__(self) -> "NullSampler":
        return self

    def __exit__(self, *exc) -> None:
        pass
