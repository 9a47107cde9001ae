"""Host-speed probe: wall-clock timings scaled to an uncontended host.

The benchmark runs on shared virtual machines.  There, another tenant
busy on the same physical core slows a process by up to 2x, for a few
milliseconds or for minutes, and CPU time slows just as much as wall
time.  Wall-clock latencies of ten runs spread by 11-28% from that
alone.

While a worker measures, ``SIGALRM`` fires every ``PERIOD_S`` and the
handler times ``probe_loop``, a fixed piece of interpreter work that
never changes with the program.  A probe's *speed* is
``(REFERENCE_S / probe time) ** EXPONENT``: 1 on a quiet host, lower
when the host is contended.  A timing from ``start`` to ``end`` is
scaled by the mean speed of the probes in ``[start - MARGIN_S,
end + MARGIN_S]``, so it reads what it would have on a quiet host.
The mean over probes spaced evenly in time weights each moment by how
long it lasted, as the workload's own progress does.

``REFERENCE_S`` is the probe time on a quiet 2-vCPU Xeon KVM guest
under Python 3.11; on other hardware the scaled values shift by a
constant factor, which a comparison on one machine cancels.  The
solvers slow down a little more than the probe does;
``EXPONENT = 1.15`` is fitted so that operations run under light and
under heavy contention scale to the same value (solve-er, solve-rmat
and stream-circulant agree within 5% between their lightest and
heaviest quarters).  The probe costs about 0.5% of the run, the same
for every version of the program.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import List

PERIOD_S = 0.01
MARGIN_S = 0.05
REFERENCE_S = 47e-6
EXPONENT = 1.15


def probe_loop() -> int:
    """About ``REFERENCE_S`` of bytecode: arithmetic and a small dict."""
    total = 0
    table = {}
    for i in range(400):
        total += i * i % 7
        table[i & 1023] = total
    return total


class HostSpeed:
    """Probes the host while started; scales timings afterwards."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.speeds: List[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = perf_counter()
        probe_loop()
        self.times.append(start)
        self.speeds.append(
            (REFERENCE_S / (perf_counter() - start)) ** EXPONENT
        )

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean probe speed around ``[start, end]``; the window widens
        until it holds a probe (a long C call delays the signal)."""
        margin = MARGIN_S
        while margin < 60:
            lo = bisect_left(self.times, start - margin)
            hi = bisect_right(self.times, end + margin)
            if hi > lo:
                return sum(self.speeds[lo:hi]) / (hi - lo)
            margin *= 2
        raise RuntimeError("no host-speed probe ran near the timing")

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` as it would read on a quiet host."""
        return (end - start) * self.speed(start, end)
