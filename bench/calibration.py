"""Timings corrected for the drifting speed of a shared machine.

On a shared host the speed of one core drifts by a quarter or more over
seconds to minutes, far more than the changes the benchmark must detect.
While a ``Calibrator`` is active, a SIGALRM timer runs a fixed pure-Python
reference loop every ``EVERY_S`` seconds and records when it ran.  The
calibrated length of a measured interval leaves the reference runs out and
scales each stretch between two of them by ``NOMINAL_S`` over the median
reference time around that stretch: it is the time the interval would have
taken had the machine run at the speed at which the reference takes
``NOMINAL_S``.  The reference is part of the benchmark, so a change to the
program cannot move it.  The same timer samples the resident set size, so
the peak can be taken over the measured intervals alone.
"""

import gc
import os
import signal
from bisect import bisect_right
from statistics import median
from time import perf_counter

NOMINAL_S = 0.003
EVERY_S = 0.1


def reference() -> int:
    """About 3 ms of the interpreter work the program does: dicts, sets,
    tuples, frozensets, sorting and a breadth-first search."""
    n, total = 300, 0
    for rep in range(6):
        adj = {i: tuple(sorted({(i * 7 + rep) % n, (i * 13 + 5) % n,
                                (i * i + 1) % n})) for i in range(n)}
        seen = {0: ()}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen[w] = seen[v] + (w,) if len(seen[v]) < 4 else (w,)
                        nxt.append(w)
            frontier = nxt
        groups = [frozenset(path) for path in seen.values()]
        total += len(set(groups)) + sum(map(len, groups))
    return total


def rss_kib() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * PAGE_KIB


PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024


class Calibrator:
    """While active, runs the reference on a timer and samples the resident
    set size before each reference run."""

    def __init__(self):
        self.runs: list[tuple[float, float]] = []
        self.rss_kib: list[int] = []

    def _sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.rss_kib.append(rss_kib())
            start = perf_counter()
            reference()
            self.runs.append((start, perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def peak_rss_kib(self, intervals) -> int:
        """Largest sampled resident set size inside the intervals."""
        return max((rss for (t, _), rss in zip(self.runs, self.rss_kib)
                    if any(a <= t <= b for a, b in intervals)), default=0)

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def reference_s(self) -> float:
        """Median reference time: the machine's speed over the whole run."""
        return median(end - start for start, end in self.runs)

    def calibrated(self, intervals) -> list[float]:
        """Calibrated lengths of (start, end) intervals measured while the
        calibrator was active."""
        runs = self.runs
        took = [end - start for start, end in runs]
        # stretch k lies between reference runs k and k + 1
        factor = [NOMINAL_S / median(took[max(0, k - 1):k + 3])
                  for k in range(len(runs) - 1)]
        ends = [end for _, end in runs]
        out = []
        for a, b in intervals:
            k = min(max(bisect_right(ends, a) - 1, 0), len(factor) - 1)
            total = 0.0
            while k < len(factor):
                lo, hi = max(a, runs[k][1]), min(b, runs[k + 1][0])
                if hi > lo:
                    total += (hi - lo) * factor[k]
                if runs[k + 1][0] >= b:
                    break
                k += 1
            out.append(total)
        return out
