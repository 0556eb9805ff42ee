import numpy as np
import pytest

from qhyp.qcore import _CONSECUTIVE_SMALL, QContext, _tail_state


@pytest.fixture
def ctx():
    return QContext(0.45)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_complex(rng, lo=0.4, hi=1.6, phase=0.85):
    return rng.uniform(lo, hi) * np.exp(1j * rng.uniform(-phase * np.pi, phase * np.pi))


class _Tail:
    """The truncation rule of qhyp.qcore as a scalar monitor, with its running
    maximum and its count of consecutive small terms: the reference that the
    term-by-term loops of the tests stop by.

    :meth:`done` is fed one term magnitude at a time; :meth:`first_stop` one
    chunk of magnitudes, through the kernel's own :func:`_tail_state`.  Both
    carry the state across calls, so any split of a magnitude sequence into
    scalars and chunks stops at the same term.
    """

    __slots__ = ("tol", "scale", "run")

    def __init__(self, ctx: QContext):
        self.tol = ctx.tail_tol
        self.scale = 1.0
        self.run = 0

    def done(self, mag: float) -> bool:
        """Feed the magnitude of the term just added; True once the sum stops."""
        if mag > self.scale:
            self.scale = mag
        if mag < self.tol * self.scale:
            self.run += 1
            return self.run >= _CONSECUTIVE_SMALL
        self.run = 0
        return False

    def first_stop(self, mags: np.ndarray) -> int | None:
        """Index of the term of a non-empty chunk at which the sum stops, or
        None when it runs on past the chunk."""
        prior = np.array([self.run >= 2, self.run >= 1])
        scale, small, stop = _tail_state(mags, self.scale, prior, self.tol)
        hit = stop.argmax()
        if stop[hit]:
            return int(hit)
        self.scale = float(scale[-1])
        self.run = int(small[-1]) + int(small[-1] and small[-2])
        return None


def loop_appell_phi1(a, b1, b2, c, x1, x2, ctx: QContext) -> tuple[complex, float]:
    """The q-Appell series term by term, in double precision: the sum over m
    of (a, b1)_m / (q, c)_m x1^m times the inner 2phi1(a q^m, b2; c q^m; q,
    x2), the outer sum and each inner one stopped by :class:`_Tail`.
    Returns the value and the sum of |t_m| sum_n |u_mn| over the terms
    summed, which bounds what the two summations can lose to rounding."""
    q = complex(ctx.q)
    total, mags, outer, tail = 0j, 0.0, 1.0 + 0j, _Tail(ctx)
    for m in range(ctx.max_terms):
        u, v = a * q**m, c * q**m
        inner, inner_mags, term, inner_tail = 0j, 0.0, 1.0 + 0j, _Tail(ctx)
        for n in range(ctx.max_terms):
            inner += term
            inner_mags += abs(term)
            if inner_tail.done(abs(term)):
                break
            term *= (1 - u * q**n) * (1 - b2 * q**n) / ((1 - q ** (n + 1)) * (1 - v * q**n)) * x2
        else:
            raise AssertionError("inner 2phi1 did not meet the tail rule")
        total += outer * inner
        mags += abs(outer) * inner_mags
        if tail.done(abs(outer * inner)):
            return total, mags
        outer *= (1 - a * q**m) * (1 - b1 * q**m) / ((1 - q ** (m + 1)) * (1 - c * q**m)) * x1
    raise AssertionError("appell sum did not meet the tail rule")
