"""A fixed pure-Python reference kernel that measures the host's speed.

On a shared host, other tenants slow every process by a factor that
changes from one millisecond to the next and drifts over tens of seconds,
by a third or more; CPU time slows with wall time.  The benchmark runs
slices of this kernel beside the program and reports a time at the
reference speed: multiplied by `SLICE_S` over the mean time the slices
took while it ran.  The kernel is integer work like the package's and
imports nothing from ppav, so no change to the package changes it.

`Sampler` runs one slice every `INTERVAL_S` from a timer signal, so slices
and the program see the same moments of the host; the slices' own time is
taken out of the work they interrupt.  This module imports only `signal`
and `time`, so loading it first leaves a fresh interpreter's import of
ppav with all its own work.
"""

import signal
from time import perf_counter

# Discriminants whose reduced forms make up one slice.
_SLICE_N = (60_003, 60_007, 120_003)

# Seconds one slice is taken to last at the reference speed: about the
# median on the 2-vCPU host the baselines were measured on.
SLICE_S = 0.002

# While a sampler is active, one slice starts every INTERVAL_S of wall time.
INTERVAL_S = 0.02


def class_count(n):
    """Six times the Hurwitz class number H(n), n > 0, n = 0 or 3 mod 4,
    by counting reduced forms of discriminant -n in integers."""
    total = 0
    b = n % 2
    while 3 * b * b <= n:
        m = (b * b + n) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if a == b == c:
                    total += 2
                elif b == 0 and a == c:
                    total += 3
                elif b == 0 or b == a or a == c:
                    total += 6
                else:
                    total += 12
            a += 1
        b += 2
    return total


def run_slice():
    for n in _SLICE_N:
        class_count(n)


def scale(seconds, slices, spent):
    """`seconds` at the reference speed, given `slices` that took `spent`."""
    return seconds * SLICE_S * slices / spent


class Sampler:
    """Runs a slice every `INTERVAL_S` while active, from SIGALRM.

    `spans` holds the (start, end) clock readings of the slices run."""

    def __init__(self):
        self.spans = []
        self._busy = False
        self._previous = None

    @property
    def slices(self):
        return len(self.spans)

    @property
    def spent(self):
        return sum(end - start for start, end in self.spans)

    def inside(self, start, end, first=0):
        """(count, seconds) of the slices from `spans[first]` on that ran
        within [start, end]."""
        spans = [(a, b) for a, b in self.spans[first:] if start <= a and b <= end]
        return len(spans), sum(b - a for a, b in spans)

    def _tick(self, signum, frame):
        if self._busy:  # a slow slice outlasted the interval
            return
        self._busy = True
        try:
            start = perf_counter()
            run_slice()
            self.spans.append((start, perf_counter()))
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)  # so that even the shortest pass has a slice
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
