"""Host speed probe, so that times read the same on a host whose speed drifts.

The benchmark runs on a few cores of a shared machine. There, a fixed loop
takes 0.40 ms in one second and 0.72 ms in the next, and a whole pass of a
workload can take twice as long in one minute as in another. Raw wall time
therefore cannot hold a bound of 25% from one run to the next.

So every timed stretch is paired with probes: a fixed task of exact-rational
Fourier-Motzkin work, the kind of work the solver does, timed on the thread's
CPU clock. A probe runs the task once to warm the caches and times the second
run, so what the solver did before does not change the figure. A time ``t``
measured while the probes took ``p`` on average is reported as
``t * REFERENCE_S / p``: the time on a host that runs the probe in
``REFERENCE_S``. The probe uses nothing from ``dimsolve``, so a change to the
solver moves the scaled time as it would move the wall time on a steady host.
"""

from __future__ import annotations

import statistics
import threading
import time
from fractions import Fraction

REFERENCE_S = 0.0006  # probe time a scaled figure is expressed at: a 2-core
# Xeon VM at its fastest
PERIOD_S = 0.1  # between probes in the solving process

_ROWS = tuple(tuple(Fraction((i * 7 + j * 5) % 9 - 4, 1 + (i * j) % 3) for j in range(5))
              for i in range(6))


def _task() -> int:
    """Eliminate two variables from a fixed system of rational rows."""
    rows = list(_ROWS)
    for var in (0, 1):
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        out = [r for r in rows if r[var] == 0]
        for p in pos:
            for n in neg:
                a, b = p[var], -n[var]
                out.append(tuple(b * x + a * y for x, y in zip(p, n)))
        rows = sorted(dict.fromkeys(out), key=lambda r: (r[-1], r))[:16]
    return len(rows)


def probe() -> float:
    """CPU seconds of one warm run of the task."""
    _task()
    began = time.thread_time()
    _task()
    return time.thread_time() - began


def scale(seconds: float, probes: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.fmean(probes)


class Sampler:
    """A thread that probes every ``PERIOD_S`` while the process works.

    The thread shares the process's CPU, so the process should be pinned to
    one CPU; otherwise the probe may time a different one."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, probe s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append((time.perf_counter(), probe()))

    def between(self, began: float, ended: float) -> list[float]:
        """Probe times taken from ``began`` to ``ended``; the latest one
        before ``ended`` when the stretch was shorter than a period."""
        inside = [s for t, s in self.samples if began <= t <= ended]
        if inside:
            return inside
        before = [s for t, s in self.samples if t <= ended]
        return before[-1:] or [probe()]

    def stop(self):
        self._stop.set()
        self._thread.join()
