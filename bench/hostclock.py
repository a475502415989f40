"""Host speed, sampled while the benchmark runs, to put times on one scale.

The benchmark runs on shared machines whose speed changes from second to
second with other tenants' load: on a shared 2-vCPU virtual machine, a fixed
loop swung between 19 and 34 ms within a minute, and 30-second runs of one
workload differed by up to 70% in wall time.  Repeating work inside a run cannot
remove swings that last longer than the run, so every timed call is rescaled
by the host's speed measured during that call.

A ``SIGALRM`` timer runs a fixed reference computation every ``INTERVAL``
seconds.  It uses only the standard library, so no change to bioqm can speed
it up or slow it down, and it allocates small frozen dataclasses and
Fractions the way bioqm's hot paths do, so load that slows bioqm slows it in
step.  The handler's own time is taken out of the timed call, and the call's
seconds are multiplied by ``REFERENCE_S`` over the mean reference time sampled
from ``PAD`` seconds before the call to ``PAD`` seconds after it.  The result
reads as the seconds the call would take on a host where the reference runs in
``REFERENCE_S`` (the machine described in BASELINE.md, when it is quiet).
"""

from __future__ import annotations

import bisect
import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.02
PAD = 0.1
REFERENCE_S = 175e-6
_STEPS = 36


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int

    def __post_init__(self) -> None:
        if not (0 <= self.a < 7 and 0 <= self.b < 7):
            raise ValueError("reference pair out of range")


def reference() -> int:
    """The fixed computation whose time measures the host's speed."""
    seen = {}
    total = Fraction(0)
    for i in range(_STEPS):
        x = _Pair(i % 7, (3 * i) % 7)
        y = _Pair(x.b, (x.a + x.b) % 7)
        seen[(x, y)] = i
        total += Fraction(x.a * y.b + 1, i + 1)
    return len(seen) + total.numerator % 7


def reference_seconds(repeats: int) -> float:
    """Median time of ``repeats`` reference runs, outside any timer."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        reference()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


class HostClock:
    """Samples the reference on a timer; rescales call times by host speed."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference()
        end = perf_counter()
        self.stamps.append(start)
        self.samples.append(end - start)
        self.spent += end - start

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, func):
        """(result, start, end, seconds of the call without handler time)."""
        spent = self.spent
        start = perf_counter()
        result = func()
        end = perf_counter()
        return result, start, end, (end - start) - (self.spent - spent)

    def reference_during(self, start: float, end: float) -> float:
        """Mean reference time sampled from PAD before ``start`` to PAD after ``end``."""
        lo = bisect.bisect_left(self.stamps, start - PAD)
        hi = bisect.bisect_right(self.stamps, end + PAD)
        if hi == lo:
            raise RuntimeError("no host-speed sample near the call; is the timer running?")
        return statistics.fmean(self.samples[lo:hi])

    def scaled(self, start: float, end: float, seconds: float) -> float:
        return seconds * REFERENCE_S / self.reference_during(start, end)
