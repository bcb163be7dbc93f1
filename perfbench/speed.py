"""Host-speed gauge: scales each timing to a fixed reference speed.

The benchmark runs on a shared host whose speed drifts with what other
tenants run.  On the reference host (2-vCPU Intel Xeon guest at 2.1 GHz,
Python 3.11.7, NumPy 2.4.6) every job kind, from pure-Python synthesis to
NumPy-heavy verification, slowed by about the same factor, up to 1.7x for
seconds to minutes at a time, and CPU time slowed with wall time.  Raw
medians of 30-second runs spread by 20-40% from run to run; scaled, by
2-7% over ten seeds per workload.

The gauge times a fixed kernel of the same mix (small LAPACK calls and
interpreted loops) in short bursts between jobs.  ``scaled(raw, t0, t1)``
returns ``raw * REFERENCE_MS / kernel``, where ``kernel`` is the mean
kernel time of the bursts near the job: the duration at the speed where the
kernel takes ``REFERENCE_MS``, its mean on the reference host while quiet.
Co-tenant load comes and goes within a second, so a long job is slowed by
the share of time the host is loaded; that is what the mean of many short
kernel runs measures (a median would count a host loaded 60% of the time
as loaded all the time).  A short job is scaled by the bursts of the
surrounding second, a long one by bursts over a few times its length.
The kernel does not touch qclone, so no change to qclone moves it.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REFERENCE_MS = 0.55
BURST = 3
#: ``tick()`` takes a burst at most this often unless forced.
TICK_S = 0.1
#: A job is scaled by the bursts within max(MIN_WINDOW_S, WINDOW_SPANS x its
#: duration) of it.
MIN_WINDOW_S = 0.5
WINDOW_SPANS = 3.0

_MATRIX = np.array(
    [[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.2, 0.1], [0.1, 0.2, 3.0, 0.4], [0.0, 0.1, 0.4, 1.5]]
)
_EYE = np.eye(4)


def kernel() -> float:
    acc = 0.0
    for k in range(40):
        acc += float(np.linalg.eigvalsh(_MATRIX + k * 1e-3 * _EYE).min())
        acc += sum(i * k for i in range(100))
    return acc


class SpeedGauge:
    """Kernel bursts at most every ``TICK_S`` seconds, taken when ``tick()`` is called."""

    def __init__(self) -> None:
        self.times: list[float] = []  # end of each burst
        self.bursts: list[list[float]] = []

    def tick(self, force: bool = False) -> None:
        if not force and self.times and perf_counter() - self.times[-1] < TICK_S:
            return
        burst = []
        for _ in range(BURST):
            t0 = perf_counter()
            kernel()
            burst.append(perf_counter() - t0)
        self.bursts.append(burst)
        self.times.append(perf_counter())

    def kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel time of the bursts ending near [t0, t1].

        With none in the window, the nearest burst on either side stands in.
        """
        window = max(MIN_WINDOW_S, WINDOW_SPANS * (t1 - t0))
        lo = bisect.bisect_left(self.times, t0 - window)
        hi = bisect.bisect_right(self.times, t1 + window)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return statistics.fmean(s for burst in self.bursts[lo:hi] for s in burst)

    def scaled(self, raw_s: float, t0: float, t1: float) -> float:
        return raw_s * REFERENCE_MS / (self.kernel_s(t0, t1) * 1e3)

    def mean_kernel_ms(self) -> float:
        return statistics.fmean(s for burst in self.bursts for s in burst) * 1e3
