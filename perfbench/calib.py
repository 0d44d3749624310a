"""Speed calibration shared by run.py and its workers.

The machine the benchmark runs on is shared: for tens of seconds at a time
other tenants can slow a core by a third or more, far beyond the bounds the
benchmark sets.  Every time the benchmark reports is therefore scaled to a
reference speed: a fixed pure-Python loop is timed around and during each
measured interval, and the interval is multiplied by ``REF_S / loop time``.
ahwarp spends its time in the interpreter (scipy's step loop and the
right-hand-side callbacks), so the loop slows down with it.  On an
undisturbed reference machine the scaled time equals the wall time.
"""

import bisect
import signal
import statistics
import time

LOOPS = 100_000
# The loop's time on the machine the benchmark was defined on (2-vCPU KVM
# guest, Intel Xeon, Python 3.11.7); it only fixes the unit of scaled times.
REF_S = 0.0058


def _loop(n: int) -> None:
    acc = 0
    for i in range(n):
        acc += i * i


def loop_s(reps: int = 1) -> float:
    """Median wall time of ``reps`` runs of the calibration loop."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _loop(LOOPS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(wall_s: float, loop_before_s: float, loop_after_s: float) -> float:
    """``wall_s`` at the reference speed, from loop times on either side."""
    return wall_s * REF_S / ((loop_before_s + loop_after_s) / 2.0)


class Sampler:
    """Times a short slice of the loop from a timer signal every PERIOD_S,
    so that an operation of several seconds is scaled by the speed the core
    had while it ran, not only at its ends.  The handler's own time is taken
    out of the operation's time."""

    PERIOD_S = 0.1
    SLICE = LOOPS // 10
    WINDOW_S = 1.0  # samples this close to an operation also count for it

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._spent: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop(self.SLICE)
        self._starts.append(t0)
        self._spent.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self._starts) < 3:  # a job shorter than a few periods
            self._tick(None, None)

    def scaled(self, t0: float, t1: float) -> float:
        """Time of the interval [t0, t1] of ``perf_counter`` at the
        reference speed, less the sampler's own time inside it."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        net = (t1 - t0) - sum(self._spent[lo:hi])
        lo = bisect.bisect_left(self._starts, t0 - self.WINDOW_S)
        hi = bisect.bisect_left(self._starts, t1 + self.WINDOW_S)
        near = self._spent[lo:hi] if hi - lo >= 3 else self._spent
        per_loop = statistics.median(near) * (LOOPS / self.SLICE)
        return net * REF_S / per_loop
