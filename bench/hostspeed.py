"""Host speed, from a fixed pure-Python loop timed next to the work.

The benchmark shares a few cores of a host whose speed drifts by 30% and
more, over seconds and over minutes, in wall time and in process time alike
(with no steal time).  The same orbits timed a few seconds apart differ by
that much.  So the benchmark times a fixed loop between any two timed
operations, and rescales each operation's wall time to the speed at which
that loop takes ``REF_S``:

    seconds = wall * REF_S / median(loop times within WINDOW_S of the op)

The loop is part of the benchmark, so no change to the package moves it;
a slower program still reads slower.  The raw wall times stay in the
details line of every run.
"""

import bisect
import statistics
import time

REF_ITERATIONS = 20_000
# The host of the README numbers runs in fast and slow spells; this is the
# loop's time in a slow spell, the speed most of its runs see most of the
# time, so rescaled times read like wall times of a slow spell.
REF_S = 1.65e-3
# one loop time jitters by +-15% from the next; the median of those around
# an operation follows the drift, which lasts seconds
WINDOW_S = 1.0


def host_ref():
    """Seconds of the fixed loop: the host's speed at this moment."""
    t = time.perf_counter()
    sum(i * i for i in range(REF_ITERATIONS))
    return time.perf_counter() - t


class Speedometer:
    """Loop times taken between operations; the host speed around any one."""

    def __init__(self):
        self.at = []              # perf_counter at the start of each loop
        self.loop_s = []

    def sample(self, times=1):
        for _ in range(times):
            self.at.append(time.perf_counter())
            self.loop_s.append(host_ref())

    def rescale(self, wall, start, end):
        """Seconds of an operation over [start, end] at the reference speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return wall * REF_S / statistics.median(self.loop_s[lo:hi])

    def summary(self):
        ms = [1e3 * s for s in self.loop_s]
        return {"n": len(ms), "median": statistics.median(ms),
                "min": min(ms), "max": max(ms)}
