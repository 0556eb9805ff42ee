"""mpmath oracle for the kernels' forward error.

During the traced pass a seeded reservoir keeps a sample of the argument
tuples (and float results) that the run actually passes to ``qpoch_ratio``,
``phi`` and ``w87``.  Afterwards each sample is re-evaluated at 40 digits:
``mp.qp`` for the Pochhammer ratio, ``mp.qhyper`` for ``phi`` and a direct
mp sum for ``w87``.  Terminating series are summed to the last term the
kernels keep, with the parameters exactly as passed.
"""

from __future__ import annotations

import random

import mpmath

DIGITS = 40
SAMPLES_PER_KERNEL = 48
# The kernels' termination test (qseries._TERMINATION_RTOL).
TERMINATION_RTOL = 1e-12
KERNELS = ("qcore.qpoch_ratio", "qseries.phi", "qseries.w87")


class Reservoir:
    """Uniform sample of at most ``size`` items from a stream (algorithm R)."""

    def __init__(self, size: int, rng: random.Random):
        self.size = size
        self.items: list = []
        self.seen = 0
        self._rng = rng

    def add(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
            return
        j = self._rng.randrange(self.seen)
        if j < self.size:
            self.items[j] = item


class KernelSampler:
    """Tracer observers that feed one reservoir per kernel; they also count
    the arguments of every ``qpoch_ratio`` call."""

    def __init__(self, seed: int, size: int = SAMPLES_PER_KERNEL):
        rng = random.Random(seed)
        self.reservoirs = {k: Reservoir(size, rng) for k in KERNELS}
        self.qpoch_args = 0

    @property
    def mean_args(self) -> float:
        calls = self.reservoirs["qcore.qpoch_ratio"].seen
        return self.qpoch_args / calls if calls else 0.0

    def observers(self):
        def qpoch_ratio(args, kwargs, result):
            nums, dens, ctx = args
            self.qpoch_args += len(nums) + len(dens)
            self.reservoirs["qcore.qpoch_ratio"].add(
                ([complex(v) for v in nums], [complex(v) for v in dens], complex(ctx.q), result))

        def phi(args, kwargs, result):
            spec, ctx = args
            self.reservoirs["qseries.phi"].add(
                (list(spec.numerator), list(spec.denominator), spec.argument, complex(ctx.q), result))

        def w87(args, kwargs, result):
            *params, z, ctx = args
            self.reservoirs["qseries.w87"].add(
                ([complex(v) for v in params], complex(z), complex(ctx.q), result))

        return {"qcore.qpoch_ratio": qpoch_ratio, "qseries.phi": phi, "qseries.w87": w87}

    def forward_errors(self) -> dict[str, float]:
        """Worst relative forward error per kernel (0 when never called)."""
        evaluate = {"qcore.qpoch_ratio": mp_qpoch_ratio, "qseries.phi": mp_phi,
                    "qseries.w87": mp_w87}
        out = {}
        with mpmath.workdps(DIGITS):
            for kernel, reservoir in self.reservoirs.items():
                worst = 0.0
                for *args, value in reservoir.items:
                    ref = evaluate[kernel](*args)
                    err = abs(mpmath.mpc(value) - ref) / max(abs(ref), mpmath.mpf(1e-300))
                    worst = max(worst, float(err))
                out[kernel] = worst
        return out


def _termination_order(params, q) -> int | None:
    """Smallest n with a parameter within TERMINATION_RTOL of q^-n, as the
    kernels find it (None when the series does not terminate)."""
    stop = None
    for a in params:
        w, n = complex(a), 0
        while w != 0 and abs(w) >= 0.5:
            if abs(w - 1.0) <= TERMINATION_RTOL * (1.0 + abs(w)):
                stop = n if stop is None else min(stop, n)
                break
            w *= complex(q)
            n += 1
    return stop


def mp_qpoch_ratio(nums, dens, q):
    qm = mpmath.mpc(q)
    value = mpmath.mpc(1)
    for a in nums:
        value *= mpmath.qp(mpmath.mpc(a), qm)
    for d in dens:
        value /= mpmath.qp(mpmath.mpc(d), qm)
    return value


def _finite_series(nums, dens, z, q, p, stop):
    """sum_{n<=stop} (nums)_n / (dens, q)_n [(-1)^n q^C(n,2)]^p z^n."""
    total, term, qn = mpmath.mpc(0), mpmath.mpc(1), mpmath.mpc(1)
    for _ in range(stop + 1):
        total += term
        ratio = z
        for a in nums:
            ratio *= 1 - a * qn
        for b in dens:
            ratio /= 1 - b * qn
        ratio *= (-qn) ** p
        qn *= q
        term *= ratio / (1 - qn)
    return total


def mp_phi(nums, dens, z, q):
    qm, zm = mpmath.mpc(q), mpmath.mpc(z)
    stop = _termination_order(nums, q)
    nums_m = [mpmath.mpc(a) for a in nums]
    dens_m = [mpmath.mpc(b) for b in dens]
    if stop is not None:
        return _finite_series(nums_m, dens_m, zm, qm, len(dens) + 1 - len(nums), stop)
    return mpmath.qhyper(nums_m, dens_m, qm, zm, maxterms=100_000)


def mp_w87(params, z, q):
    qm, zm = mpmath.mpc(q), mpmath.mpc(z)
    stop = _termination_order(params, q)
    a, *rest = [mpmath.mpc(v) for v in params]
    dens = [qm * a / p for p in rest]
    total, term, qn = mpmath.mpc(0), mpmath.mpc(1), mpmath.mpc(1)
    tiny = mpmath.mpf(10) ** (-DIGITS - 5)
    scale = mpmath.mpf(1)
    for n in range(100_000):
        total += term
        scale = max(scale, abs(term))
        if stop is not None and n == stop:
            break
        if stop is None and abs(term) < tiny * scale:
            break
        ratio = zm * (1 - a * qn) * (1 - a * qn * qn * qm * qm) / (1 - a * qn * qn)
        for p, d in zip(rest, dens):
            ratio *= (1 - p * qn) / (1 - d * qn)
        qn *= qm
        term *= ratio / (1 - qn)
    return total
