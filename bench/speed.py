"""Machine-speed probe: scales measured times to a fixed reference speed.

On a shared host the speed of one core can drift by 1.5x over tens of
seconds, and CPU time drifts with wall time, so the median of a run
then mostly tells which phase the run landed in.  The probe runs a fixed
piece of pure-Python work (a *tick*) from a SIGALRM handler every
``TICK_INTERVAL_S`` on the measuring thread itself; the slower the core,
the longer the ticks.  :meth:`SpeedProbe.scaled` removes the ticks'
own time from an interval and scales the rest by
``REFERENCE_TICK_S / mean tick duration`` inside the interval: the time
the interval would have taken on a core running ticks at the reference
speed.  The cores of a shared host can drift independently, which is
why the ticks run on the measuring thread rather than in a helper
process.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

TICK_INTERVAL_S = 0.02
REFERENCE_TICK_S = 370e-6  # typical tick on the machine the baseline was measured on
# Interpreter-bound and memory-bound code slow down by different factors, so
# the tick does both: a bytecode loop and big-integer shifts over 50 KB.
_BIG = (1 << 400_000) - 12345
_BIG_MASK = _BIG // 3


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        # A garbage collection triggered inside the tick would be charged to
        # the tick instead of to the measured code.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        for shift in range(1, 5):
            acc += ((_BIG >> shift) & _BIG_MASK).bit_count()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds in [t0, t1] outside ticks, the same at reference speed).

        The speed is the mean tick inside the interval: ticks sample the
        core at even intervals, so their mean follows the average speed
        over the interval.  An interval shorter than one tick period
        borrows the speed of the last tick before it ends.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        raw = t1 - t0 - sum(inside)
        speed = inside or self.durations[max(hi - 1, 0):hi] or [REFERENCE_TICK_S]
        return raw, raw * REFERENCE_TICK_S * len(speed) / sum(speed)

    def mean_tick_s(self) -> float:
        return sum(self.durations) / len(self.durations) if self.durations else 0.0
