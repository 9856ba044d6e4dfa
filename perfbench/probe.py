"""Speed probe: a fixed piece of exact rational arithmetic, timed.

The benchmark's machine shares its cores with other tenants, and its speed
changes by up to 1.5x, within seconds or for minutes at a time.  The
benchmark therefore times this probe while the operations run and reports
their times at the reference speed: measured seconds x REF_S / mean probe
time.  The probe uses only the standard library, so no change to lcpforge
can move it.  Inside an operation's process `Sampler` times the probe
PRE_PROBES times before each operation and every PERIOD_S during it, from a
SIGALRM handler, so each operation is scaled by the speed of its own moment.
"""

import signal
import time
from fractions import Fraction

PERIOD_S = 0.2
PRE_PROBES = 5
# about the mean probe time inside an operation on a 2-core Xeon at 2.1 GHz
# with Python 3.11.7; it fixes the scale of the reported times, not their
# ratios
REF_S = 0.0025
_X = Fraction((1 << 256) + 12345, 1 << 255)


def timed():
    """Seconds taken by 200 evaluations of x^3 - x - 1 at a 256-bit x."""
    start = time.perf_counter()
    acc = 0
    for _ in range(200):
        value = ((_X * _X) - 1) * _X - 1
        acc += value.numerator & 0xFF
    return time.perf_counter() - start


class Sampler:
    """Times the probe around operations."""

    def __init__(self):
        self.samples = []
        self.total = 0.0

    def _handler(self, signum, frame):
        seconds = timed()
        self.samples.append(seconds)
        self.total += seconds

    def start(self):
        """Probe every PERIOD_S from now on, as well as before each operation."""
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def measure(self, call):
        """(call(), its seconds without probe time, the probe times taken
        just before and during it)."""
        before = [timed() for _ in range(PRE_PROBES)]
        first, probed = len(self.samples), self.total
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start - (self.total - probed)
        return result, seconds, before + self.samples[first:]
