"""Times at a reference machine speed.

The machines this benchmark runs on are shared.  For tens of seconds at a
time, the same Python code runs up to twice as fast or as slow.  While an
untraced pass runs, a SIGALRM handler times a fixed reference computation
every INTERVAL_S seconds, in the benchmark's one thread.  Each measured
interval is then scaled by REF_SPEED_S / (reference time), using the
samples taken in it and the nearest one on either side, after the
handler's own time is taken out of it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_SPEED_S = 0.0005
INTERVAL_S = 0.1


def _derangements(n: int) -> int:
    used = [False] * n
    count = 0

    def rec(pos):
        nonlocal count
        if pos == n:
            count += 1
            return
        for v in range(n):
            if not used[v] and v != pos:
                used[v] = True
                rec(pos + 1)
                used[v] = False

    rec(0)
    return count


class SpeedMeter:
    """Context manager that samples the machine's speed while it is open."""

    def __init__(self):
        self.at: list[float] = []  # start of each sample
        self.took: list[float] = []  # seconds each sample kept the thread
        self.scale: list[float] = []

    def _sample(self, *_):
        start = time.perf_counter()
        runs = []
        for _ in range(3):
            t = time.perf_counter()
            _derangements(6)
            runs.append(time.perf_counter() - t)
        self.scale.append(REF_SPEED_S / statistics.median(runs))
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _inside(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)

    def sampling(self, start: float, end: float) -> float:
        """Seconds spent sampling within [start, end]."""
        lo, hi = self._inside(start, end)
        return sum(self.took[lo:hi])

    def normalize(self, start: float, end: float, seconds: float) -> float:
        """`seconds` measured over [start, end] (wall or CPU time), less the
        sampling done inside it, at reference speed."""
        lo, hi = self._inside(start, end)
        scales = self.scale[max(lo - 1, 0) : hi + 1]
        return (seconds - self.sampling(start, end)) * statistics.fmean(scales)
