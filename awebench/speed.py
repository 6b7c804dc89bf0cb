"""Timing at a reference speed on a machine whose speed swings.

On a small shared virtual machine the same code runs up to 1.8 times as
fast in some spells as in others (neighbours on the host). A spell lasts
from under a second to minutes, so it can change inside one timed sample
and can also cover several whole runs.

A `MarkClock` times a stretch of work in short intervals. The benchmark
marks it at points inside the work (each training step, each embedding
call, each dynamic program) and after each CLI command. At a mark the
clock ends the interval, runs a small fixed probe, and adds the interval
scaled by the probe's reference time over its measured time. The probe
itself is not timed. The probes are the benchmark's own code, so a change
to awekit moves the intervals and not the probes.

There are two probes, one per kind of work: "blas", one float32 matrix
product of the tall, narrow shape of an im2col convolution (training and
the AWE forward pass spend most of their time in such products), and
"python", a small dynamic program over lists (S-DTW is a pure-Python
dynamic program).
"""

import contextlib
import time

import numpy as np

BLAS_PRODUCT = (1024, 144, 64)  # rows, 16 channels x 3 x 3 taps, output channels
PYTHON_DP = (8, 100)

# Median probe times on the machine the benchmark was built on (2 vCPU
# Intel Xeon at 2.1 GHz, one OpenBLAS 0.3.31 thread, Python 3.11), so that
# scaled times read as seconds at that machine's usual speed.
REFERENCE_S = {"blas": 0.00032, "python": 0.00024}


class MarkClock:
    def __init__(self, kind):
        self.kind = kind
        rng = np.random.default_rng(0)
        rows, inner, cols = BLAS_PRODUCT
        self._a = rng.standard_normal((rows, inner)).astype(np.float32)
        self._b = rng.standard_normal((inner, cols)).astype(np.float32)
        self._costs = rng.random(PYTHON_DP).tolist()
        self._work = {"blas": self._blas, "python": self._python}[kind]
        self.times = []  # seconds of every probe, in order
        self.raw = self.scaled = 0.0
        self._start = None

    def _blas(self):
        self._a @ self._b

    def _python(self):
        prev = list(self._costs[0])
        for costs in self._costs[1:]:
            row = [prev[0] + costs[0]]
            for j in range(1, len(costs)):
                row.append(costs[j] + min(prev[j - 1], prev[j], row[j - 1]))
            prev = row

    def _probe(self):
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    @contextlib.contextmanager
    def run(self):
        """Time the body: `raw` and `scaled` hold its seconds afterwards."""
        self.raw = self.scaled = 0.0
        self._start = time.perf_counter()
        try:
            yield self
        finally:
            self.mark()
            self._start = None

    def mark(self):
        """End the current interval, probe, and start the next one."""
        interval = time.perf_counter() - self._start
        probe = self._probe()
        self.times.append(probe)
        self.raw += interval
        self.scaled += interval * REFERENCE_S[self.kind] / probe
        self._start = time.perf_counter()
