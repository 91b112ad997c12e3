"""Host speed reference for the end-to-end times.

The benchmark's 2-core host is shared, and its speed for pure-Python code
drifts by 30-40% over seconds to minutes (the same fixed loop timed at 19 ms
and at 31 ms within a minute; CPU time drifts with wall time, so the cause is
contention for the core rather than descheduling). A 36-second run cannot
average that out, so every end-to-end time is scaled to a reference speed.
While commands run, an interval timer interrupts the process every
TICK_S seconds and times a fixed pure-Python kernel in the signal handler,
on the same core, in the same thread; the handler's time is taken out of
the command's time. A command's time is then multiplied by
REFERENCE_S / (median kernel time of the ticks during it and next to it).
The kernel is a frozen copy of the operation mix of psltilde's hot loops and
imports nothing from psltilde, so a faster psltilde lowers scaled and raw
times alike, while a slower host raises the kernel time with the command
time.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.005   # one kernel run on the reference host when quiet
TICK_S = 0.25         # interval between kernel samples

_SPLITTER = 134217729.0


def _two_prod(a, b):
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    return p, ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) \
        + (a - ah) * (b - bh)


def _dd_matmul(x, y):
    """Double-double 2x2 product with the same operation mix as
    psltilde.dd (a frozen copy, so a change to psltilde cannot move it)."""
    out = []
    for i in (0, 4):
        for j in (0, 2):
            p1, e1 = _two_prod(x[i], y[j])
            p2, e2 = _two_prod(x[i + 2], y[j + 4])
            s = p1 + p2
            out.extend((s, (e1 + e2) + x[i + 1] * y[j] + x[i + 3] * y[j + 4]))
    return tuple(out)


_MATS = [(1.0 + k / 97.0, 0.0, 0.25, 0.0, -0.5, 0.0, 1.0 / (1.0 + k / 97.0),
          0.0) for k in range(8)]


def _kernel() -> int:
    """Fixed work in the mix of psltilde's hot loops: double-double products
    along words, and the rotations, tuple keys and dict lookups of
    canonical forms."""
    acc = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    for k in range(550):
        acc = _dd_matmul(acc, _MATS[k & 7])
        if abs(acc[0]) > 1e6:
            acc = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    word = tuple((f"c{1 + (k * 7) % 3}", 1 - 2 * (k & 1)) for k in range(48))
    seen = {}
    for shift in range(168):
        rot = word[shift % 48:] + word[:shift % 48]
        key = tuple((g, 0 if e == 1 else 1) for g, e in rot)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def _kernel_time() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedRef:
    """Kernel samples taken on a timer; use as a context manager around the
    commands being timed."""

    def __init__(self):
        self.starts: list[float] = []   # when each tick's kernel started
        self.busy: list[float] = []     # handler time of each tick
        self.kernel: list[float] = []   # kernel time of each tick

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        k = _kernel_time()
        self.starts.append(t0)
        self.kernel.append(k)
        self.busy.append(time.perf_counter() - t0)

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """Raw and scaled time of an interval [t0, t1] timed inside the
        context: the ticks' handler time inside it is taken out, and the
        speed is the median kernel time of the ticks from the one before t0
        to the one after t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        raw = (t1 - t0) - sum(self.busy[lo:hi])
        near = self.kernel[max(lo - 1, 0):hi + 1]
        return raw, raw * REFERENCE_S / statistics.median(near)
