"""Foundational q-arithmetic: Pochhammer symbols, theta, Jackson integration.

Everything here is pure and reentrant.  The global numeric policy lives in
:class:`QContext`, and so does the one truncation rule every sum of the
package obeys (:class:`_Tail`): a sum stops at the third consecutive term
whose magnitude is below ``tail_tol`` times the running maximum of the
magnitudes so far (floored at 1), so that isolated tiny terms of alternating
series do not trigger premature truncation.  Term-by-term loops feed it one
magnitude at a time; chunked numpy kernels feed it whole chunks.

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
    return np.abs(factor) <= _ZERO_FACTOR_RTOL * (1.0 + np.abs(w))


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
        hits = np.flatnonzero(run >= _CONSECUTIVE_SMALL)
        if hits.size:
            return int(hits[0])
        self.scale = float(scale[-1])
        self.run = int(run[-1])
        return None


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
    column at or past ``max_terms`` is built.
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
    if np.isnan(mags).any():
        horizon = math.inf  # a NaN argument never falls below tail_tol
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
    if horizon >= ctx.max_terms:
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
