"""Machine-speed reference for the timed runs.

The 2-core machine this benchmark was built on changes speed by 10-40 %
over tens of seconds to minutes, whatever runs on it; the same jobs timed
twice in a row differed by 9 %.  A fixed kernel, timed between jobs, follows
those changes.  Timed runs therefore probe the kernel between jobs and scale
their times by ``REFERENCE_S`` over the mean probe: the times reported are
those of a machine on which the kernel takes ``REFERENCE_S``.  The raw times
are kept in the run record.

The kernel runs small complex numpy arrays through a Python loop, as qhyp's
root finding and series code do.  Over 240 s in 10 s blocks, cheap ``config``
jobs varied in time with a coefficient of variation of 13 % and their ratio
to this kernel's time by 2.7 %, with time ~ kernel^1.01.  A pure-Python
complex loop tracked them less well: ratio 3.7 %, time ~ kernel^1.18, so
that scaling by it left slow runs slower than fast ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 2.4e-3   # best-of-3 kernel time on the baseline machine
INTERVAL_S = 0.25
_COEFFS = np.array([1.0 + 0.5j, -0.3 + 0.2j, 0.7 - 0.1j, 0.2 + 0.9j])
_START = np.array([0.4 + 0.9j, 0.9 - 0.4j, -0.6 + 0.3j])


def reference_kernel() -> complex:
    """Newton-like steps on a cubic, with numpy calls on 3-element arrays."""
    z, acc = _START, 0j
    for _ in range(150):
        p = np.polyval(_COEFFS, z)
        z = z - 0.01 * p / (1 + np.abs(p))
        acc += complex(np.sum(z * z.conj()))
    return acc


def probe() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedTrack:
    """Probes taken between jobs, at most one per ``INTERVAL_S``."""

    def __init__(self):
        self.samples = [probe()]
        self._last = time.perf_counter()

    def job_done(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(probe())
            self._last = time.perf_counter()

    def factor(self) -> float:
        """Scale for the run's times: REFERENCE_S over the mean probe.  The
        mean follows the slow phases that a whole run can sit in; single
        probes are too noisy to scale single jobs."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
