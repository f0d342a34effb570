"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics

import numpy as np


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples, beyond: int = 10) -> tuple[int, float]:
    """Highest whole percentile with at least `beyond` samples above it.

    Returns (percentile, value).  A tail read from fewer samples than
    that says little, so the percentile falls as the sample count does;
    callers report it together with the count.  Samples with ties at the
    top can leave no percentile qualifying; the minimum is returned then.
    """
    data = np.sort(np.asarray(samples, dtype=np.float64))
    if data.size <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {data.size}")
    for p in range(99, -1, -1):
        value = float(np.percentile(data, p))
        if int(np.count_nonzero(data > value)) >= beyond:
            return p, value
    return 0, float(data[0])


def finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def steps_per_epoch(n: int, batch_size: int) -> int:
    return math.ceil(n / batch_size)


class Reference:
    """A fixed NumPy kernel whose run time tracks the machine's current speed.

    On a shared machine every timing in a run can stretch by a quarter or
    more for tens of seconds at a time.  The benchmark runs this kernel
    next to each measurement and scales the measurement by
    NOMINAL_S / (kernel time), so end-to-end timings read as seconds on a
    machine where the kernel takes NOMINAL_S.  The kernel mixes the
    program's kinds of work: a (128, 128) x (128, 4096) matmul, exp and a
    reduction over the 2 MB result, a 2 MB copy, and many small ops.
    """

    NOMINAL_S = 0.008

    def __init__(self, clock):
        self.clock = clock
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((128, 128)).astype(np.float32)
        self._q = rng.standard_normal((4096, 128)).astype(np.float32)
        self._s = rng.standard_normal((32, 32, 9)).astype(np.float32)
        self.samples: list[float] = []

    def __call__(self) -> float:
        t0 = self.clock()
        logits = self._a @ self._q.T
        np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)
        self._q.copy()
        for _ in range(60):
            x = self._s * 1.5 + self._s
            np.where(x > 0, x, 0.0).mean(axis=(0, 2))
        elapsed = self.clock() - t0
        self.samples.append(elapsed)
        return elapsed

    def scale(self, *ref_seconds: float) -> float:
        """Factor for a measurement bracketed by these kernel times."""
        return self.NOMINAL_S / (sum(ref_seconds) / len(ref_seconds))
