"""Host-speed correction for timings taken on a shared host.

On a host whose cores are shared with other tenants the same work takes
a varying time: a fixed loop was seen to take anywhere between 1 and 1.7
times its fastest time, changing within a second and drifting over
minutes.  A ``HostGauge`` samples that speed while a pass runs: every
4 ms of wall time a SIGALRM handler times a fixed pure-Python loop of
small-integer arithmetic, tuple keys and dict updates, the operations
the library spends its time on.  (A loop of arithmetic alone tracked the
slowdowns of the orbit sweeps less well, one of dict updates alone those
of the membership queries.)

``correct`` turns an interval into its net time (the samples taken inside
it removed) and its host-corrected time: the net time scaled by
``PROBE_REF_S`` over the mean sample time during the interval (the two
samples on each side stand in for an interval too short to hold three).
The corrected time is what the interval would have taken with the loop
running at ``PROBE_REF_S``, i.e. on an uncontended core.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from time import perf_counter

PROBE_LOOPS = 300
# the loop's time on an uncontended core of a 2-vCPU Intel Xeon cloud host
# under CPython 3.11 (its fastest times there are 70-77 us)
PROBE_REF_S = 77e-6
SAMPLE_EVERY_S = 0.004


class HostGauge:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        d: dict = {}
        acc = 0
        for i in range(PROBE_LOOPS):
            key = (i & 15, i >> 4)
            d[key] = d.get(key, 0) + i
            acc += i * i % 7 + i * 3 % 5
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def correct(self, t0: float, t1: float) -> tuple[float, float]:
        """(net seconds, host-corrected seconds) of the interval [t0, t1]."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        net = t1 - t0 - sum(inside)
        near = inside if len(inside) >= 3 else self.durations[max(lo - 2, 0) : hi + 2]
        if not near:
            return net, net
        return net, net * PROBE_REF_S * len(near) / sum(near)
