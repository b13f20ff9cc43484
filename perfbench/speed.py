"""Machine-speed probe, so that wall times from a shared host compare.

On a host shared with other tenants the same run can take 1.0x to 1.7x its
quiet time, switching within seconds; measured on a 2-vCPU Xeon VM, runs of
the default spectrum took from 2.7 s to 5.2 s within two minutes. A fixed pure-Python probe, timed every ``PERIOD`` seconds while the
program runs (from a SIGALRM handler, in the same thread), slows down by
about the same factor. The benchmark reports a wall time rescaled to the
probe's reference speed:

    wall time at reference speed = (wall - probe time) * REFERENCE_S / median(probe)

The probe costs about 0.5% of the run, and that time is subtracted.
"""

from __future__ import annotations

import signal
import time

PERIOD = 0.05
# Probe time on an uncontended core of the machine the benchmark was
# defined on (2-vCPU Intel Xeon VM, Python 3.11).
REFERENCE_S = 2.5e-4
_PRESAMPLES = 3


def _probe() -> float:
    total = 0.0
    for i in range(5000):
        total += i * 0.5
    return total


class SpeedProbe:
    """Context manager that samples the probe before and during a block."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples.clear()
        for _ in range(_PRESAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescaled(self, wall: float) -> float:
        """``wall`` seconds measured inside the block, minus the probe time
        spent in it, at the reference speed."""
        inside = sum(self.samples[_PRESAMPLES:])
        ordered = sorted(self.samples)
        middle = len(ordered) // 2
        median = (ordered[middle] + ordered[~middle]) / 2.0
        return (wall - inside) * REFERENCE_S / median
