"""Host speed sampling, for end-to-end times that do not drift with the host.

On a shared virtual machine the same code runs up to ~1.7x slower for
stretches of seconds to minutes, while the process's CPU time rises with
its wall time, so neither clock hides it. While a workload runs, a
SIGALRM timer runs a fixed reference kernel (numpy only, no sepcost
code) every INTERVAL_S in the workload's own thread and records when it
ran and how long it took. `slowdown(start, end)` is the mean kernel time
around that span over NOMINAL_S, a fixed constant near the kernel's
time inside a workload on an uncontended 2-vCPU host; `normalise`
divides the span's length by it, giving host-normalised seconds. The
raw times are reported too.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
NOMINAL_S = 4.0e-4
# spans shorter than this are judged by the samples within this window
MIN_WINDOW_S = 1.0
MIN_SAMPLES = 3


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((32, 32))
        self._square = rng.standard_normal((96, 96))
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)

    def _kernel(self) -> None:
        # small-array calls, a fresh page-faulting 1 MB array and a small
        # matmul: the kinds of work the workloads are made of
        a = self._small
        for _ in range(20):
            b = (a * 1.5 + a)[:, 3:20].copy()
            float(b.sum())
        fresh = np.empty(131072)
        fresh.fill(1.0)
        self._square @ self._square

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> "HostSpeed":
        self._kernel()  # first call pays one-off allocation
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time around [start, end] over NOMINAL_S."""
        if not self.samples:
            return 1.0
        when = np.array([t for t, _ in self.samples])
        took = np.array([d for _, d in self.samples])
        mid, half = (start + end) / 2.0, max(end - start, MIN_WINDOW_S) / 2.0
        inside = np.abs(when - mid) <= half
        if inside.sum() < MIN_SAMPLES:
            inside = np.argsort(np.abs(when - mid))[:MIN_SAMPLES]
        return float(took[inside].mean()) / NOMINAL_S

    def overall(self) -> float:
        """Mean kernel time over the whole run over NOMINAL_S."""
        return float(np.mean([d for _, d in self.samples])) / NOMINAL_S if self.samples else 1.0

    def normalise(self, start: float, end: float) -> float:
        return (end - start) / self.slowdown(start, end)
