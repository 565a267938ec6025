"""How fast the processor ran a stretch of work, and what the work would
have taken at a fixed reference speed.

On a shared machine the speed one process gets changes from millisecond
to millisecond, as other tenants contend for the core it runs on, and
its average drifts over minutes (on a 2-vCPU cloud VM, by up to 40%
within a minute). Work timed on such a machine carries that drift, and
the operating system cannot see it (it is not steal time). So the
benchmark times a fixed pure-Python probe, about 0.6 ms long, every 50
ms while a command runs, or in a burst right after work it cannot
interrupt. A time multiplied by REFERENCE_PROBE_S over the mean time of
the probes taken during it is the time the work would have taken on a
reference core, on which one probe takes REFERENCE_PROBE_S, and that is
what the benchmark reports. Over 15 runs of one ``experiment
trajectories`` command on that VM the time's standard deviation was
15.9% raw, 4.5% at the reference speed, and 6.6% when scaled instead to
the fastest probe right after each run, whose speed moves with the
machine's; a fit of log time on log mean probe time gave a slope of
0.97, so the work slows in proportion to the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

INTERVAL_S = 0.05
BURST = 100
#: One probe's time on the reference core: about the fastest probe on
#: the 2-vCPU VM above, with Python 3.11.
REFERENCE_PROBE_S = 600e-6


_CELLS = [0] * 64


def _probe() -> float:
    # Allocates no container, so it never sets off a garbage collection
    # of the program's objects, whose cost would be counted as slowness.
    t0 = time.perf_counter()
    cells = _CELLS
    x = 0
    for i in range(5000):
        j = i & 63
        x = (x + cells[j] * 31 + i) & 0xFFFF
        cells[j] = x
    return time.perf_counter() - t0


def burst() -> list[float]:
    """Seconds taken by each of BURST probes in a row."""
    return [_probe() for _ in range(BURST)]


@contextmanager
def sampling() -> Iterator[list[float]]:
    """Probe every INTERVAL_S seconds, from a timer signal, while the
    block runs; yields the list the probe times go to."""
    taken: list[float] = []

    def on_timer(signum, frame) -> None:
        taken.append(_probe())

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield taken
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def scale(probes: list[float]) -> float:
    """What a time taken while probes took ``probes`` seconds is
    multiplied by to give the time at the reference speed."""
    return REFERENCE_PROBE_S / statistics.fmean(probes)
