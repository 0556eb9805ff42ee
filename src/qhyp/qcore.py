"""Foundational q-arithmetic: Pochhammer symbols, theta, Jackson integration,
and the series kernel.

Everything here is pure and reentrant.  The global numeric policy lives in
:class:`QContext`, and so does the one truncation rule every sum of the
package obeys (:class:`_Tail`): a sum stops at the third consecutive term
whose magnitude is below ``tail_tol`` times the running maximum of the
magnitudes so far (floored at 1), so that isolated tiny terms of alternating
series do not trigger premature truncation.  Term-by-term loops feed it one
magnitude at a time; chunked numpy kernels feed it whole chunks.

Every term-ratio sum (``phi``, ``w87``, both sides of ``psi33`` and of the
Jackson grid sums) is one chunked kernel, :func:`_ratio_sum`, and whether a
factor 1 - w is zero is one test, :func:`_vanishes`, for poles, exact zeros
and terminating parameters alike.

Every infinite q-Pochhammer product, (a)_inf alone or a ratio of them, comes
from one numpy kernel (:func:`qpoch_ratio`).  It builds the factors
1 - a q^k as a matrix, one row per argument and one column per k, in chunks
of ``_CHUNK`` columns; each argument keeps its factors while
|a| |q|^k >= ``tail_tol``.  Each column's numerator factors are divided by
its denominator factors before the running product over k takes them, which
keeps the partial products bounded.  A vanishing denominator factor within
the budget raises PoleError before an exhausted budget raises
BudgetExceededError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    NonDecayingSumError,
    PoleError,
)

_CONSECUTIVE_SMALL = 3
_ZERO_FACTOR_RTOL = 1e-12
_CHUNK = 128


def _vanishes(factor, w):
    """Whether the factor 1 - w is zero to rounding (elementwise for arrays)."""
    return abs(factor) <= _ZERO_FACTOR_RTOL * (1.0 + abs(w))


def _termination_order(params: Sequence[complex], ctx: QContext) -> int | None:
    """Smallest n < ``max_terms`` with some 1 - c q^n zero (:func:`_vanishes`),
    else None: where a series with numerators c terminates, or the first pole
    of denominators c.  A descending form v q^n - c has the zeros of v / c."""
    q = complex(ctx.q)
    best: int | None = None
    for a in params:
        w = complex(a)
        for n in range(ctx.max_terms):
            if abs(w) < 0.5:
                break  # |a q^n| only shrinks from here: can no longer hit 1
            if _vanishes(1.0 - w, w):
                best = n if best is None else min(best, n)
                break
            w *= q
    return best


def _quotient(factors: np.ndarray, split: int) -> np.ndarray:
    """The product of the first ``split`` rows of ``factors`` over that of the
    rest: the step ratio of a product of q-Pochhammer symbols, one row per
    parameter and one column per n."""
    return np.multiply.reduce(factors[:split], axis=0) / np.multiply.reduce(factors[split:], axis=0)


class _Tail:
    """The truncation rule, with its running maximum and its count of
    consecutive small terms.

    :meth:`done` is the scalar monitor, fed one term magnitude at a time;
    :meth:`first_stop` is the vectorised finder, fed one chunk of magnitudes.
    Both carry the state across calls, so any split of a magnitude sequence
    into scalars and chunks stops at the same term.
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
        # fmax, unlike maximum, skips NaN exactly as the scalar comparison does
        scale = np.fmax(np.fmax.accumulate(mags), self.scale)
        idx = np.arange(len(mags))
        # run length of small terms ending at each index, the carried run included
        last_big = np.maximum.accumulate(np.where(mags < self.tol * scale, -1 - self.run, idx))
        run = idx - last_big
        hit = (run >= _CONSECUTIVE_SMALL).argmax()
        if run[hit] >= _CONSECUTIVE_SMALL:
            return int(hit)
        self.scale = float(scale[-1])
        self.run = int(run[-1])
        return None


_MIN_CHUNK = 32
# a bigger chunk makes psi33's factor matrices (6 rows) big enough that
# allocating them page-faults anew for every chunk: at 4096, psi33 near
# z = 1 ran ~1.5 times as long
_MAX_CHUNK = 2048


def _ratio_sum(
    t0: complex,
    step: Callable[[np.ndarray], np.ndarray],
    ctx: QContext,
    rate: complex,
    reach: float,
    what: str,
    last: int | None = None,
    pole: int | None = None,
    weigh: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> complex:
    """sum_n t_n, where t_0 = ``t0`` and t_{n+1} = t_n r_n, a chunk at a time.

    ``step(ns)`` gives the ratios r_n at an index array; a chunk asks only
    for those its terms need.  ``weigh(ns, t)``, if given, turns a chunk of
    t_n into the terms summed.  The sum stops by the tail rule or after term
    ``last``; ``max_terms`` terms without either raise NonDecayingSumError.
    ``pole`` is the first n whose r_n divides by a vanishing factor
    (:func:`_termination_order` of the denominators): unless the sum ends
    at ``last`` first, it raises PoleError before summing anything.

    The first chunk is read off the parameters, as :func:`_pochhammer_product`
    reads its factor counts: ``rate`` is the limit of r_n and ``reach`` the
    largest |c| among its factors 1 - c q^n; it holds the terms a geometric
    sum of ratio |rate| takes to fall by 1/tail_tol times the growth those
    factors can add, and the run the tail rule waits for.  Later chunks
    double, up to ``_MAX_CHUNK``.
    """
    if pole is not None and (last is None or pole < last):
        raise PoleError(f"{what}: a denominator factor vanishes at n = {pole}")
    rho = abs(rate)
    n = 0.0 if rho == 0.0 else math.inf  # |rate| >= 1 or NaN: no decay to read off
    if 0.0 < rho < 1.0:
        lq, lr = -math.log(abs(ctx.q)), math.log1p(reach)
        growth = lr * lr / (2.0 * lq) + lr / (1.0 - abs(ctx.q))
        n = (growth - math.log(ctx.tail_tol)) / -math.log(rho)
    size = _MAX_CHUNK
    if n < _MAX_CHUNK:
        size = min(max(int(n) + 1 + _CONSECUTIVE_SMALL, _MIN_CHUNK), _MAX_CHUNK)
    count = ctx.max_terms if last is None else min(ctx.max_terms, last + 1)
    # the tail rule cannot end a terminating sum this short before its last term
    untailed = last is not None and count == last + 1 <= _CONSECUTIVE_SMALL
    total = 0.0 + 0.0j
    tail = _Tail(ctx)
    t = complex(t0)  # the term before the chunk, or t_0 with a first ratio 1
    n0 = 0
    while n0 < count:
        ns = np.arange(n0, min(n0 + size, count))
        ratios = step(ns - 1) if n0 else np.concatenate(([1.0], step(ns[:-1])))
        seq = t * np.multiply.accumulate(ratios)
        terms = seq if weigh is None else weigh(ns, seq)
        end = None if untailed else tail.first_stop(np.abs(terms))
        if end is not None:
            return complex(total + np.add.reduce(terms[: end + 1]))
        total += np.add.reduce(terms)
        t = seq[-1]
        n0 = int(ns[-1]) + 1
        size = min(2 * size, _MAX_CHUNK)
    if last is not None and count == last + 1:
        return complex(total)
    raise NonDecayingSumError(f"{what} did not meet the tail criterion in {ctx.max_terms} terms")


@dataclass(frozen=True)
class QContext:
    """Numeric policy: base q, truncation budget and tolerances.

    ``tail_tol`` stops products/sums once consecutive term magnitudes fall
    below it (relative to the running term scale); ``eq_tol`` is the relative
    tolerance used by equality assertions built on top of this module.
    """

    q: complex
    max_terms: int = 512
    tail_tol: float = 1e-16
    eq_tol: float = 1e-8

    def __post_init__(self):
        aq = abs(self.q)
        if not 0.0 < aq < 1.0:
            raise ValueError(f"need 0 < |q| < 1, got |q| = {aq}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")
        if not 0.0 < self.tail_tol < self.eq_tol <= 1e-6:
            raise ValueError("need 0 < tail_tol < eq_tol <= 1e-6")

    def with_budget(self, max_terms: int) -> "QContext":
        return QContext(self.q, max_terms, self.tail_tol, self.eq_tol)


def qpoch_inf(a: complex, ctx: QContext) -> complex:
    """Infinite q-Pochhammer product prod_{n>=0} (1 - a q^n).

    The one-argument case of :func:`qpoch_ratio`, with the same truncation.
    """
    return _pochhammer_product([a], 1, ctx)


def qpoch_fin(a: complex, m: int, ctx: QContext) -> complex:
    """Finite q-Pochhammer (a)_m.

    For m >= 0 this is the exact finite product; for m < 0 it is computed
    directly as prod_{k=1}^{-m} (1 - a q^{-k})^{-1}, which avoids the
    cancellation of the two-infinite-product route.
    """
    a = complex(a)
    q = complex(ctx.q)
    if m >= 0:
        result = 1.0 + 0.0j
        w = a
        for _ in range(m):
            result *= 1.0 - w
            w *= q
        return result
    result = 1.0 + 0.0j
    for k in range(1, -m + 1):
        factor = 1.0 - a * q ** (-k)
        if _vanishes(factor, a * q ** (-k)):
            raise PoleError(f"(a)_m pole: 1 - a q^-{k} vanishes for a={a}")
        result /= factor
    return result


def qpoch_ratio(nums: Sequence[complex], dens: Sequence[complex], ctx: QContext) -> complex:
    """prod (n_i)_inf / prod (d_j)_inf.

    Argument a contributes the factors 1 - a q^k for the k with
    |a| |q|^k >= ``tail_tol`` (none for 0 and NaN); the discarded tail
    differs from 1 by O(tail_tol).  The factors are taken column by column:
    the ratio of the numerator and denominator factors of one k first, then
    the running product over k.  This keeps the partial products bounded even
    when individual arguments are large, as long as the overall ratio is
    representable.  The columns are built in chunks of ``_CHUNK``, so memory
    does not grow with ``max_terms`` or as |q| -> 1.

    Errors, in this order: a denominator factor that vanishes to rounding
    (:func:`_vanishes`) in a column k < ``max_terms`` raises PoleError;
    an argument that needs ``max_terms`` factors or more, or is NaN, raises
    BudgetExceededError.  The budget is read from the factor counts, so no
    column at or past ``max_terms`` is built, and a NaN argument adds no
    column: only the other arguments' columns are built and pole-checked
    before the budget error.
    """
    return _pochhammer_product([*nums, *dens], len(nums), ctx)


def _pochhammer_product(args: Sequence[complex], n_num: int, ctx: QContext) -> complex:
    """prod_{i < n_num} (a_i)_inf / prod_{i >= n_num} (a_i)_inf; see qpoch_ratio."""
    a = np.array(args, dtype=complex)
    q = complex(ctx.q)
    mags = np.abs(a)
    live = mags >= ctx.tail_tol  # False for 0 and NaN
    # counts[i]: the number of k with |a_i| |q|^k >= tail_tol
    counts = np.zeros(len(a))
    counts[live] = np.floor(
        (np.log(mags[live]) - math.log(ctx.tail_tol)) / -math.log(abs(q))) + 1
    horizon = np.maximum.reduce(counts, initial=0.0)
    # a NaN argument never falls below tail_tol, so it exhausts any budget;
    # its factors are all 1, so the other arguments' columns hold every pole
    exhausted = horizon >= ctx.max_terms or np.isnan(mags).any()
    cols = int(min(horizon, ctx.max_terms))
    result = 1.0 + 0.0j
    for start in range(0, cols, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK, cols))
        w = a[:, None] * q**ks
        f = 1.0 - w
        f[ks >= counts[:, None]] = 1.0
        den = f[n_num:]
        pole = _vanishes(den, w[n_num:])
        if pole.any():
            j, k = np.argwhere(pole)[0]
            raise PoleError(f"denominator q-Pochhammer factor vanishes: arg={w[n_num + j, k]}")
        ratios = np.multiply.reduce(f[:n_num], axis=0) / np.multiply.reduce(den, axis=0)
        result = np.multiply.reduce(ratios, initial=result)
    if exhausted:
        raise BudgetExceededError(
            f"q-Pochhammer product needs {ctx.max_terms} or more factors "
            f"(max |a| = {mags.max():.3g}, |q| = {abs(q):.6f})")
    return complex(result)


def theta(t: complex, ctx: QContext) -> complex:
    """theta(t) = (t)_inf (q/t)_inf.  Satisfies theta(q t) = -theta(t)/t."""
    t = complex(t)
    if t == 0:
        raise DomainError("theta(t) requires t != 0")
    return qpoch_inf(t, ctx) * qpoch_inf(ctx.q / t, ctx)


def _jackson_side(
    f: Callable[[complex], complex], t: complex, step: complex, weighted: bool,
    ctx: QContext, what: str,
) -> complex:
    """sum_k f(t step^k) (times t step^k when ``weighted``) under the tail rule."""
    total = 0.0 + 0.0j
    tail = _Tail(ctx)
    for _ in range(ctx.max_terms):
        term = complex(f(t))
        if weighted:
            term *= t
        total += term
        if tail.done(abs(term)):
            return total
        t *= step
    raise NonDecayingSumError(f"{what} did not meet the tail criterion within budget")


def jackson_0_to_tau(
    f: Callable[[complex], complex],
    tau: complex,
    measure: str,
    ctx: QContext,
) -> complex:
    """One-sided Jackson integral of ``f`` from 0 to ``tau``.

    measure "dqt" sums (1-q) sum_n f(tau q^n) tau q^n, measure "dqt_over_t"
    drops the weight.  Truncated by the tail rule of this module.
    """
    if measure not in ("dqt", "dqt_over_t"):
        raise ValueError(f"unknown measure {measure!r}")
    tau = complex(tau)
    if tau == 0:
        return 0.0 + 0.0j
    q = complex(ctx.q)
    return (1.0 - q) * _jackson_side(f, tau, q, measure == "dqt", ctx, "one-sided Jackson sum")


def jackson_bilateral(
    f: Callable[[complex], complex],
    tau: complex,
    ctx: QContext,
    measure: str = "dqt_over_t",
) -> complex:
    """Bilateral Jackson integral: (1-q) sum over all n in Z of f(tau q^n).

    Both tails must decay; each direction is truncated by the same tail rule
    as the one-sided sum.
    """
    if measure not in ("dqt", "dqt_over_t"):
        raise ValueError(f"unknown measure {measure!r}")
    tau = complex(tau)
    if tau == 0:
        raise DomainError("bilateral Jackson integral requires tau != 0")
    q = complex(ctx.q)
    weighted = measure == "dqt"
    up = _jackson_side(f, tau, q, weighted, ctx, "bilateral Jackson sum: n -> +inf tail")
    down = _jackson_side(f, tau / q, 1.0 / q, weighted, ctx,
                         "bilateral Jackson sum: n -> -inf tail")
    return (1.0 - q) * (up + down)
