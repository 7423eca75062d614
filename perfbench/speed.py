"""Interpreter-speed normalisation of the benchmark's timings.

The benchmark runs on machines whose cores are shared with other tenants:
the speed of one Python thread drifts by up to 2x within seconds, which
would swamp any change worth measuring.  A `SpeedProbe` samples that speed
while a measurement runs.  Every `INTERVAL_S` of wall time a SIGALRM
handler, which runs in the measured thread between two bytecodes, times a
fixed calibration kernel of exact Fraction arithmetic, the kind of work the
library does.  `seconds(wall)` takes the kernel's own time out of a wall
time and rescales the rest to the speed at which the kernel takes
`REFERENCE_S`; `factor` is that rescaling, for times measured inside the
probed interval.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# kernel time on an otherwise idle 2-core x86-64 VM under CPython 3.11
REFERENCE_S = 0.0003

_A = [Fraction(i, 7 * i + 3) for i in range(1, 21)]
_B = [Fraction(5 * i + 1, i + 2) for i in range(1, 6)]


def _kernel():
    total = Fraction(0)
    for a in _A:
        for b in _B:
            total += a * b
    return total


class SpeedProbe:
    """Context manager sampling the calibration kernel's time; it also
    samples once on entry and once on exit, so a short interval still has
    a speed."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, *_):
        t = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    @property
    def factor(self):
        return REFERENCE_S / statistics.fmean(self.samples)

    def seconds(self, wall):
        """A wall time inside the probe, kernel time removed, at reference
        speed.  The entry and exit samples lie outside `wall`."""
        inside = sum(self.samples[1:-1])
        return (wall - inside) * self.factor
