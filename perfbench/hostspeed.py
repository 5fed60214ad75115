"""Host-speed reference: a fixed probe timed between the timed items.

The benchmark runs on a few shared vCPUs whose speed moves with the
load of neighbouring machines: a fixed loop swings ±20 % within seconds
and drifts as much over minutes, so raw host times of the same work
spread 13-24 % (interquartile range over the median) between runs a
minute apart.  The timed loop therefore runs :func:`probe`, a fixed
loop of small NumPy operations written here (no code of the program),
after every ``PROBE_EVERY_S`` of item time, outside the items' timers.
Each call time is then divided by the host's slowness at that moment,
the median probe time within ``WINDOW_S`` of the call over
:data:`NOMINAL_S`: times are reported in seconds of a host on which the
probe takes ``NOMINAL_S``.  Set-up times are rated the same way, by
blocks of probes taken during set-up (``worker.SetupClock``).

Workloads differ in how much a slow phase slows them (0.7x to 1.5x the
probe's slowdown, measured), so the correction narrows the spread
rather than removing it.  The probe never calls the program, so a
change to the simulator moves the normalised times exactly as it moves
the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Median probe time (s) on the reference host: a shared 2-vCPU VM,
#: Python 3.11, NumPy 2.4.  Only scales the reported values.
NOMINAL_S = 1.6e-3

#: Item time (s) between two probes: ≈2 % of a window goes to probing.
PROBE_EVERY_S = 0.1

#: Half-width (s) of the span of probes that rates one call.
WINDOW_S = 1.0


def _kernel() -> int:
    values = np.arange(64)
    mask = np.zeros((8, 64), dtype=bool)
    for i in range(150):
        values = (values * 3 + 1) % 1000
        mask[i & 7] = values > 500
        mask.sum(axis=0)
    return int(values[0])


def probe() -> float:
    """Run the fixed reference kernel once; returns its host time (s)."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scales(probes: list[tuple[float, float]], calls: list[tuple[float, float]]) -> np.ndarray:
    """Host slowness for each ``(start, end)`` call: the median of the
    probes taken within ``WINDOW_S`` of the call, over ``NOMINAL_S``
    (all probes when none is that close).  ``probes`` holds
    ``(time, duration)`` pairs in time order."""
    at = np.array([t for t, _ in probes])
    took = np.array([d for _, d in probes])
    overall = float(np.median(took))
    out = np.empty(len(calls))
    for k, (start, end) in enumerate(calls):
        lo, hi = np.searchsorted(at, (start - WINDOW_S, end + WINDOW_S))
        out[k] = (float(np.median(took[lo:hi])) if hi > lo else overall) / NOMINAL_S
    return out
