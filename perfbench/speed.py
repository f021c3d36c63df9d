"""Host-speed adjustment of the benchmark's times.

The benchmark shares its host with other tenants. A core runs the same
numpy code up to about 1.8 times slower while a neighbour loads it, and
that state flips every few seconds. A run's wall time therefore measures
the neighbours as much as the program.

The probe measures that speed on the benchmark's own core while it runs.
A SIGALRM timer interrupts the workload every PERIOD_S seconds and times a
short, fixed numpy kernel. It mixes the two inner loops of the gdnls
experiments: FFT, phase multiply and inverse FFT of 4096 points, and a
block of the off-lattice Fourier sum, exp(-i q x) times a vector. On this
host such a mix tracks the slowdown of both kinds of work better than
either alone. A stretch of work
between two probes is scaled by REFERENCE_KERNEL_S over the mean kernel
time at its two ends. The time spent in the probes is left out. The sum
is the time the work would have taken on a core that runs the kernel in
REFERENCE_KERNEL_S: "reference seconds".

The process is pinned to one CPU (see pin_to_one_cpu), so the kernel and
the work it calibrates share a core.
"""

from __future__ import annotations

import math
import os
import signal
import time
from contextlib import contextmanager
from typing import NamedTuple

PERIOD_S = 0.25
KERNEL_REPEATS = 2        # the kernel's time is the best of these
KERNEL_ROUNDS = 4         # FFT round trips in one repeat
KERNEL_TARGETS = 8        # off-lattice frequencies in one repeat
REFERENCE_KERNEL_S = 1.35e-3 # near the kernel's best on an idle core of the baseline host


class Probe(NamedTuple):
    start: float    # time.perf_counter() when the probe began
    end: float      # ... and ended
    kernel: float   # best kernel time in seconds


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts later) to its lowest CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def adjusted_time(probes: list, a: float, b: float,
                  reference: float = REFERENCE_KERNEL_S) -> float:
    """Reference seconds of the work done in [a, b].

    `probes` are in time order. Only the stretches between two probes
    count, each scaled by reference over the mean kernel time of its two
    probes, so [a, b] must start and end within a probe.
    """
    if not probes or a < probes[0].start or b > probes[-1].end:
        raise ValueError(f"[{a}, {b}] is not bracketed by the probes")
    total = 0.0
    for p, q in zip(probes, probes[1:]):
        lo, hi = max(a, p.end), min(b, q.start)
        if hi > lo:
            total += (hi - lo) * 2.0 * reference / (p.kernel + q.kernel)
    return total


class SpeedProbe:
    """Times the kernel on a timer while the workload runs (see the module doc)."""

    def __init__(self, period: float = PERIOD_S):
        import numpy as np

        # Bound here, so that a traced run's FFT counters never see the probe.
        self._fft, self._ifft = np.fft.fft, np.fft.ifft
        self._exp, self._multiply, self._matmul = np.exp, np.multiply, np.matmul
        self._copyto = np.copyto
        self.period = period
        self.probes: list = []
        self._busy = False
        # Every buffer is allocated here: the kernel's time must not depend
        # on the state of the heap the workload leaves behind.
        n = 4096
        x = np.linspace(-40.0, 40.0, n)
        q = np.linspace(0.01, 1.0, KERNEL_TARGETS)
        self._x = np.exp(-x ** 2).astype(complex)
        self._y = np.empty(n, complex)
        self._spec = np.empty(n, complex)
        self._phase_arg = -1j * np.fft.fftfreq(n, 1.0 / n) ** 2 * 1e-6
        self._phase = np.empty(n, complex)
        self._block_arg = -1j * np.outer(q, x)
        self._block = np.empty_like(self._block_arg)
        self._sums = np.empty(KERNEL_TARGETS, complex)

    def _kernel(self) -> float:
        best = math.inf
        for _ in range(KERNEL_REPEATS):
            t = time.perf_counter()
            self._copyto(self._y, self._x)
            for _ in range(KERNEL_ROUNDS):
                self._exp(self._phase_arg, out=self._phase)
                self._fft(self._y, out=self._spec)
                self._multiply(self._spec, self._phase, out=self._spec)
                self._ifft(self._spec, out=self._y)
            self._exp(self._block_arg, out=self._block)
            self._matmul(self._block, self._y, out=self._sums)
            best = min(best, time.perf_counter() - t)
        return best

    def _probe(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel = self._kernel()
            self.probes.append(Probe(start, time.perf_counter(), kernel))
        finally:
            self._busy = False

    def mark(self) -> float:
        """Probe now, with the timer held off, and return the probe's start time.

        Call it before and after a stretch of work to bracket it.
        """
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._probe()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)
        return self.probes[-1].start

    def between(self, a: float, b: float) -> float:
        """Reference seconds of the work between marks a and b."""
        return adjusted_time(self.probes, a, b)

    @contextmanager
    def running(self):
        """Probe every `period` seconds of wall time inside the block."""
        old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def overhead_share(self) -> float:
        """Share of the probed span spent in the probes themselves."""
        if len(self.probes) < 2:
            return 0.0
        span = self.probes[-1].end - self.probes[0].start
        return sum(p.end - p.start for p in self.probes) / span
