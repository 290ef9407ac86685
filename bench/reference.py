"""A fixed reference kernel that measures how fast the host runs right now.

Shared virtual machines share their cores with other tenants, and their
speed drifts by tens of percent over minutes, for every program alike.  The kernel
mixes what the library's hot loops do (numpy operations on small arrays
inside Python loops, Python integer bit operations, sorting a 0.8 MB
array) on fixed data, and never calls the library, so a change to the
library cannot move it.  `run.py` times it around the set-up probes and
after every pass, and rescales the run's times by NOMINAL_S over the mean
kernel time: the times a host of the nominal speed would have shown.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on a 2-core virtual machine (Intel Xeon, 2.1 GHz)
NOMINAL_S = 0.30


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.memb = rng.random((96, 64)) < 0.3
        self.weights = rng.random(64)
        self.big = rng.random(100_000)

    def _kernel(self) -> float:
        s = 0.0
        for i in range(96):
            for j in range(i + 1, 96):
                s += float(self.weights[self.memb[i] & self.memb[j]].sum())
        m = 0
        for i in range(60_000):
            m ^= (i * 2654435761) & 0xFFFFFF
            s += m.bit_count()
        for _ in range(24):
            s += float(np.sort(self.big)[::997].sum())
        return s

    def time(self) -> float:
        """Wall time of one timing of the kernel (six repetitions)."""
        t0 = time.perf_counter()
        for _ in range(6):
            self._kernel()
        return time.perf_counter() - t0
