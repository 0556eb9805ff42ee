import math

import numpy as np
import pytest

from qhyp.errors import PoleError
from qhyp.qcore import (
    _CONSECUTIVE_SMALL,
    _MAX_CHUNK,
    _MIN_CHUNK,
    _RATIO_FACTORS,
    QContext,
    _tail_state,
    _vanishes,
)


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


def ref_termination_order(params, ctx: QContext) -> int | None:
    """The scalar scan that qhyp.qcore._termination_orders replaced, kept as
    its reference: the smallest n < max_terms with some 1 - c q^n zero, else
    None, each value c stepped by repeated multiplication w *= q until
    |w| < 0.5."""
    q = complex(ctx.q)
    best = None
    for a in params:
        order, w = None, complex(a)
        for n in range(ctx.max_terms):
            if abs(w) < 0.5:
                break  # |c q^n| only shrinks from here: can no longer hit 1
            if _vanishes(1.0 - w, w):
                order = n
                break
            w *= q
        if order is not None and (best is None or order < best):
            best = order
    return best


def ref_row_plan(rate, reach, last, pole, ctx: QContext, what: str):
    """The scalar plan of one row of qhyp.qcore._ratio_sum that the array
    plans (qhyp.qcore._plans) replaced, kept as their reference: (first
    chunk, end, closing, tailed, whole), or the PoleError of a row whose
    pole comes before its end at ``last`` (None: none)."""
    if pole is not None and (last is None or pole < last):
        return PoleError(f"{what}: a denominator factor vanishes at n = {pole}")
    count = ctx.max_terms if last is None else min(ctx.max_terms, last + 1)
    whole = last is not None and count == last + 1
    if whole and count <= _CONSECUTIVE_SMALL:
        return count, count, False, False, True
    rho = abs(rate)
    n = 0.0 if rho == 0.0 else math.inf  # |rate| >= 1 or NaN: no decay to read off
    closure = math.inf
    if 0.0 < rho < 1.0:
        lr, aq = math.log1p(reach), abs(ctx.q)
        lq = -math.log(aq)
        n = (lr * lr / (2.0 * lq) + lr / (1.0 - aq) - math.log(ctx.tail_tol)) / -math.log(rho)
        spread = _RATIO_FACTORS * reach / ((1.0 - aq) * ctx.tail_tol)
        if last is None and spread < math.inf:  # not for an infinite or NaN reach
            closure = max(math.ceil(math.log(max(spread, 1.0)) / lq), 1)
    size = _MAX_CHUNK
    if n < _MAX_CHUNK:
        size = min(max(int(n) + 1 + _CONSECUTIVE_SMALL, _MIN_CHUNK), _MAX_CHUNK)
    if closure <= count:
        return min(size, max(closure, _MIN_CHUNK)), closure, True, True, False
    return size, count, False, True, whole


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
