"""A fixed kernel that gauges how fast this machine runs at the moment.

On a shared host the speed of a core drifts by tens of percent, over
seconds and over minutes, so raw times of the same code spread too widely
to compare two commits. The benchmark runs one burst of this kernel before
the first timed run of a workload and one after every run, and reports
each run's wall and CPU time divided by the mean wall time of the two
bursts around it. The bursts' own CPU time is not used: it includes the
BLAS threads' spin-waiting, which varies from burst to burst.

The kernel uses numpy only, never ricemele, so no change to the program
can change it. Its mix follows the workloads: a Python loop of 10 x 10
matrix-vector products like the midpoint step loop (single-threaded), and
batched ``eigh`` of 30 x 30 Hermitian matrices (threaded by the BLAS
library, like the N = 30 scan).
"""

from __future__ import annotations

import time

import numpy as np

# Bound at import, so a tracer that later wraps numpy.linalg.eigh never sees the gauge.
from numpy.linalg import eigh

LOOP_PASSES, LOOP_STEPS, EIGH_PASSES = 20, 1024, 10


class Gauge:
    """Fixed inputs built once; ``burst`` times one pass of the kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)

        def hermitian(count, n):
            a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
            return a + np.conj(np.swapaxes(a, 1, 2))

        self.small, self.large = hermitian(256, 10), hermitian(256, 30)
        self.psi0 = np.full(10, 1.0 / np.sqrt(10.0), dtype=complex)
        self.burst()  # starts the BLAS threads and fills caches before any timing

    def _loop(self) -> None:
        w, v = eigh(self.small)
        phases = np.exp(-1e-3j * w)
        psi = self.psi0
        for k in range(LOOP_STEPS):
            vk = v[k % len(v)]
            psi = vk @ (phases[k % len(v)] * (vk.conj().T @ psi))

    def burst(self) -> float:
        """Wall seconds of one burst."""
        t0 = time.perf_counter()
        for _ in range(LOOP_PASSES):
            self._loop()
        for _ in range(EIGH_PASSES):
            eigh(self.large)
        return time.perf_counter() - t0
