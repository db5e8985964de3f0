"""Op timing in reference seconds.

The throughput of a small shared machine drifts by up to 2x within
seconds while no steal time shows (other tenants share the host), so raw
times of the same work differ by tens of percent between runs.  A fixed
probe, made of the two kinds of work esdkit's ops are made of (small
numpy products and interpreter work), therefore measures the machine's
current speed: three times between ops, and every ``TICK_S`` seconds
inside an op from a SIGALRM handler, so long ops are followed as the
speed changes under them.  The time the ticks take is subtracted from
the op, and the rest is scaled by ``PROBE_REF_S`` over the probe times
seen around and during the op.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 5e-4
TICK_S = 0.05
_MATRIX = np.full((16, 16), 1.0 / 16.0, dtype=complex)


def probe() -> float:
    """Seconds taken by a fixed piece of work of about PROBE_REF_S: twenty
    steps of a classical Runge-Kutta loop on a 16-vector, the mix of small
    numpy products and interpreter work that esdkit's ops are made of."""
    v = np.ones(16, dtype=complex)
    h = 0.01
    start = time.perf_counter()
    for _ in range(20):
        k1 = _MATRIX @ v
        k2 = _MATRIX @ (v + 0.5 * h * k1)
        k3 = _MATRIX @ (v + 0.5 * h * k2)
        k4 = _MATRIX @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - start


def point() -> float:
    """The probe time between two ops."""
    return statistics.median(probe() for _ in range(3))


class Timed:
    """Times one call: ``net`` seconds excluding the ticks' own time, and
    the probe times of the ticks taken while it ran."""

    def __init__(self, fn):
        self.ticks: list[float] = []
        spent = 0.0

        def tick(signum, frame):
            nonlocal spent
            start = time.perf_counter()
            self.ticks.append(probe())
            spent += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            self.result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.net = elapsed - spent


def calibrate(timed: list[Timed], points: list[float]) -> list[float]:
    """Reference seconds of each call; call i ran between points i and i+1.

    The scale is the mean of PROBE_REF_S over each probe time: the running
    medians of five points at the two ends, and every tick inside."""
    smooth = [statistics.median(points[max(0, k - 2):k + 3]) for k in range(len(points))]
    out = []
    for i, call in enumerate(timed):
        probes = [smooth[i], smooth[i + 1], *call.ticks]
        out.append(call.net * statistics.fmean(PROBE_REF_S / p for p in probes))
    return out
