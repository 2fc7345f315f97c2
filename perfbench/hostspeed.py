"""The host's speed, sampled all through a run by timing a fixed kernel.

The benchmark shares a few cores of a host with other work, and the host's
speed drifts by half or more within a minute: a fixed pure-Python loop
takes anywhere from 1x to 1.5x its fastest time over 20-second windows.
The speed mostly flips between two levels about 1.8x apart, staying at
each for a fraction of a second to a few seconds, so the share of time
spent at the slow level differs from one run to the next, and a wall time
measured in one minute and one measured in the next differ by that much
before the program changes at all.

So every timed interval is also taken at a fixed nominal speed.  While a
`Sampler` runs, an interval timer interrupts the process every PERIOD_S
and times the kernel below; a sample's speed relative to nominal is
NOMINAL_S over the kernel's time.  An interval's wall time is multiplied
by the mean speed of the samples taken during it and within PAD_S on
either side, at least a dozen samples.  The samples land inside long jobs
as well as between short ones, so the mean follows the flips.  The result
is in seconds at the speed at which the kernel takes NOMINAL_S.

The kernel is exact arithmetic in pure Python (row reduction over F_p, a
sum of fractions), the same kind of work ditred does, so a slower host
stretches both alike and the ratio keeps what the program itself costs.
It is the benchmark's own code and never changes with the program.  The
samples take about 1% of the run's time; that share is the same whatever
the program does, and it is included in every time.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0006  # the kernel's time at the nominal speed
PERIOD_S = 0.05     # one sample per period of wall time
PAD_S = 0.3         # samples this close to an interval count for it


def _kernel():
    rng = random.Random(7)
    p, n = 10007, 9
    A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if A[r][c])
        A[c], A[piv] = A[piv], A[c]
        inv = pow(A[c][c], p - 2, p)
        A[c] = [x * inv % p for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[c])]
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i)
    return A, s


class Sampler:
    """Samples the host speed from a SIGALRM handler while in a `with` block."""

    def __init__(self):
        self.at = []      # start of each sample, perf_counter seconds
        self.speed = []   # its speed relative to nominal
        self._old = None
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _sample(self, signum, frame):
        if self._busy:  # a late tick arrived while the kernel ran; keep samples in order
            return
        self._busy = True
        try:
            t0 = perf_counter()
            _kernel()
            self.at.append(t0)
            self.speed.append(NOMINAL_S / (perf_counter() - t0))
        finally:
            self._busy = False

    def scale(self, start, end):
        """The factor that takes the wall time from `start` to `end` to
        seconds at the nominal speed."""
        i = bisect.bisect_left(self.at, start - PAD_S)
        j = bisect.bisect_right(self.at, end + PAD_S)
        if i == j:
            raise ValueError(f"no host speed sample near {start:.3f}..{end:.3f}")
        return statistics.fmean(self.speed[i:j])
