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
Jackson grid sums) is one chunked kernel, :func:`_ratio_sum`, which sums many
rows at once, each in order and with its own stop, so that a row's value does
not depend on the rows beside it; scalar callers pass one row.  Whether a
factor 1 - w is zero is one test, :func:`_vanishes`, for poles, exact zeros
and terminating parameters alike.  Where the step ratios tend to a constant
r with 0 < |r| < 1, the kernel sums term by term only up to the closure
index N, past which every ratio equals r to rounding; there it computes in
closed form the term where the tail rule would stop, which decides the
budget as before, and adds the tail as t r / (1 - r), t the last term summed.
The running maximum stays floored at 1, because the closed-form stop index
and the reference loops in the tests apply the same rule.

Every infinite q-Pochhammer product, (a)_inf alone or a ratio of them, comes
from one numpy kernel (:func:`_pochhammer_product`, many products at once;
:func:`qpoch_ratio` is its one-product case).  It builds the factors
1 - a q^k as an array, one row per product, one entry per argument and one
column per k, in chunks of ``_CHUNK`` columns; each argument keeps its
factors while |a| |q|^k >= ``tail_tol``.  Each column's numerator factors are divided by
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

# a sum stops at its third small term in a row (_tail_state spells the three out)
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


def _tail_state(mags: np.ndarray, scale, prior: np.ndarray, tol: float) -> tuple:
    """The truncation rule over magnitudes (..., W) that follow a carried
    running maximum ``scale`` (a scalar, or one per row shaped (..., 1)) and
    ``prior`` (..., 2), whether the two terms before them were small.

    Returns the running maximum at each index; whether each term is small,
    with ``prior`` in front (..., W + 2); and whether the rule stops at each
    index (..., W), the third small term in a row.  A run of three ends the
    sum, so the last two flags are all the state the next chunk needs.
    """
    # fmax, unlike maximum, skips NaN exactly as the scalar comparison does
    scale = np.fmax(np.fmax.accumulate(mags, axis=-1), scale)
    small = np.concatenate((prior, mags < tol * scale), axis=-1)
    return scale, small, small[..., 2:] & small[..., 1:-1] & small[..., :-2]


class _Tail:
    """The truncation rule, with its running maximum and its count of
    consecutive small terms.

    :meth:`done` is the scalar monitor, fed one term magnitude at a time;
    :meth:`first_stop` is the chunk finder (:func:`_tail_state`, which the
    series kernel applies to many rows at once), fed one chunk of
    magnitudes.  Both carry the state across calls, so any split of a
    magnitude sequence into scalars and chunks stops at the same term.
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


def _one(outcomes: list) -> complex:
    """The value of a one-row batch; raises the error of its row instead."""
    (value,) = outcomes
    if isinstance(value, Exception):
        raise value
    return value


_MIN_CHUNK = 32
# a bigger chunk makes psi33's factor matrices (6 rows) big enough that
# allocating them page-faults anew for every chunk: at 4096, psi33 near
# z = 1 ran ~1.5 times as long
_MAX_CHUNK = 2048
# no step ratio here has more factors 1 - c q^n than this (w87 has 14)
_RATIO_FACTORS = 16


def _row_plan(rho: float, reach: float, last: int | None, ctx: QContext, lq: float) -> tuple:
    """(first chunk, end, closing, tailed) of one row of :func:`_ratio_sum`
    (lq = -log |q|): the chunk its terms want first, the index where it
    stops summing term by term, whether that is its closure index (else its
    budget or its last term), and whether the tail rule may end it before."""
    count = ctx.max_terms if last is None else min(ctx.max_terms, last + 1)
    if last is not None and count == last + 1 <= _CONSECUTIVE_SMALL:
        # the tail rule cannot end a terminating sum this short before its last term
        return count, count, False, False
    n = 0.0 if rho == 0.0 else math.inf  # |rate| >= 1 or NaN: no decay to read off
    closure = math.inf
    if 0.0 < rho < 1.0:
        lr, aq = math.log1p(reach), abs(ctx.q)
        n = (lr * lr / (2.0 * lq) + lr / (1.0 - aq) - math.log(ctx.tail_tol)) / -math.log(rho)
        spread = _RATIO_FACTORS * reach / ((1.0 - aq) * ctx.tail_tol)
        if last is None and spread < math.inf:  # not for an infinite or NaN reach
            closure = max(math.ceil(math.log(max(spread, 1.0)) / lq), 1)
    size = _MAX_CHUNK
    if n < _MAX_CHUNK:
        size = min(max(int(n) + 1 + _CONSECUTIVE_SMALL, _MIN_CHUNK), _MAX_CHUNK)
    if closure <= count:
        return min(size, max(closure, _MIN_CHUNK)), closure, True, True
    return size, count, False, True


def _ratio_sum(
    t0: Sequence[complex],
    step: Callable[[list, np.ndarray], np.ndarray],
    ctx: QContext,
    rate: Sequence[complex],
    reach: Sequence[float],
    what: str,
    last: Sequence[int | None] | None = None,
    pole: Sequence[int | None] | None = None,
    weigh: Callable[[list, np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> list:
    """Row r: sum_n t_n, where t_0 = ``t0[r]`` and t_{n+1} = t_n r_n; all
    rows are summed together, a chunk of n at a time.

    Returns one entry per row: its sum, or the error it raises (a scalar
    caller passes one row and raises it with :func:`_one`).

    ``step(rows, ns)`` gives the ratios r_n at the indices ``ns`` for the
    rows ``rows`` (a list of row indices), one array row each; a chunk asks
    only for the rows still summing.  ``weigh(rows, ns, t)``, if given, turns a
    chunk of t_n into the terms summed.  ``rate[r]`` is the limit of the
    ratios of row r's terms (weighed, where ``weigh`` is given) and
    ``reach[r]`` the largest |c| among the factors 1 - c q^n of its r_n.
    ``last`` and ``pole``, if given, hold one entry (or None) per row.  Row r
    stops by the tail rule or after term ``last[r]``; ``max_terms`` terms
    without either raise NonDecayingSumError.  ``pole[r]`` is the first n
    whose r_n divides by a vanishing factor (:func:`_termination_order` of
    the denominators): unless the row ends at ``last[r]`` first, it raises
    PoleError before summing anything.

    Each row is summed in order, one product and one addition at a time:
    t_n = (... (t_0 r_0) r_1 ...) r_{n-1}, and the sum adds t_n to the sum
    of the terms before it.  So a row's value, bit for bit, depends neither
    on the chunks nor on the rows it is summed with.  The chunks are read
    off ``rate`` and ``reach``, as :func:`_pochhammer_product` reads its
    factor counts: a row wants first the terms a geometric sum of ratio
    |rate| takes to fall by 1/tail_tol times the growth those factors can
    add, and the run the tail rule waits for, but no more than its closure
    index N (or ``_MIN_CHUNK``).  A batch's first chunk is the largest its
    rows want; later chunks double, up to ``_MAX_CHUNK``.

    The closed-form tail: from N on, where _RATIO_FACTORS reach |q|^N /
    (1 - |q|) <= tail_tol, every later r_n equals ``rate`` to rounding.  So
    a row without ``last`` and with 0 < |rate| < 1 that the tail rule has
    not stopped before N ends there: the magnitudes still to come are
    |t| |rate|^k, which fixes where the tail rule would stop.  If that index
    is within ``max_terms``, the rest is added as t rate / (1 - rate), t the
    last term summed; if not (or t is not finite), NonDecayingSumError is
    raised at once.
    """
    rows = len(t0)
    last = [None] * rows if last is None else last
    out: list = [None] * rows
    plans: list = [None] * rows  # (first chunk, end, closing, tailed) of each row
    live, ends, size, tailed_any = [], [], 0, False
    lq = -math.log(abs(ctx.q))
    for r in range(rows):
        if pole is not None and pole[r] is not None and (last[r] is None or pole[r] < last[r]):
            out[r] = PoleError(f"{what}: a denominator factor vanishes at n = {pole[r]}")
            continue
        plans[r] = first, end, _, tailed = _row_plan(abs(rate[r]), reach[r], last[r], ctx, lq)
        live.append(r)
        ends.append(end)
        size, tailed_any = max(size, first), tailed_any or tailed
    if not live:
        return out
    t = np.array(t0, dtype=complex)[:, None]  # the term before the chunk
    if len(live) < rows:
        t = t[live]
    n0 = 0
    while True:
        hi = min(n0 + size, max(ends))
        ns = np.arange(n0, hi)
        if n0:
            ratios = step(live, ns - 1)
            seq = np.multiply.accumulate(np.concatenate((t, ratios), axis=1), axis=1)[:, 1:]
            terms = seq if weigh is None else weigh(live, ns, seq)
            # sums[:, k]: the sum of the terms up to n0 + k
            sums = np.add.accumulate(np.concatenate((total, terms), axis=1), axis=1)[:, 1:]
        else:  # t_0 r_0 ... needs no first ratio 1, and 0 + t_0 is t_0
            seq = np.multiply.accumulate(np.concatenate((t, step(live, ns[:-1])), axis=1), axis=1)
            terms = seq if weigh is None else weigh(live, ns, seq)
            sums = np.add.accumulate(terms, axis=1)
            scale, prior = 1.0, np.zeros((len(live), 2), dtype=bool)
        if tailed_any:  # rows the tail rule cannot end all end in the first chunk
            scales, small, stop = _tail_state(np.abs(terms), scale, prior, ctx.tail_tol)
            stops = stop.argmax(axis=1).tolist()
        going = []  # the rows that sum on past this chunk
        for i, r in enumerate(live):
            _, end, closing, tailed = plans[r]
            w = min(end, hi) - n0
            if tailed and stops[i] < w and stop[i, stops[i]]:
                out[r] = complex(sums[i, stops[i]])
            elif end > hi:
                going.append(i)
            elif closing and math.isfinite(mag := abs(terms[i, w - 1])):
                # the tail rule's run of small terms goes on from the run
                # ending at the last term summed; with none, it starts at the
                # first k with mag rho^k < tol scale
                run = int(small[i, w + 1]) + int(small[i, w + 1] and small[i, w])
                k = 1
                if not run:
                    k += math.floor(math.log(ctx.tail_tol * scales[i, w - 1] / mag)
                                    / math.log(abs(rate[r])))
                out[r] = NonDecayingSumError(
                    f"{what} did not meet the tail criterion in {ctx.max_terms} terms")
                if end + k + 1 - run < ctx.max_terms:
                    out[r] = complex(sums[i, w - 1] + terms[i, w - 1] * rate[r] / (1.0 - rate[r]))
            elif last[r] is not None and end == last[r] + 1:
                out[r] = complex(sums[i, w - 1])
            else:
                out[r] = NonDecayingSumError(
                    f"{what} did not meet the tail criterion in {ctx.max_terms} terms")
        if not going:
            return out
        if len(going) < len(live):
            live, ends = [live[i] for i in going], [ends[i] for i in going]
            seq, sums, scales, small = seq[going], sums[going], scales[going], small[going]
        t, total, scale, prior = seq[:, -1:], sums[:, -1:], scales[:, -1:], small[:, -2:]
        n0, size = hi, min(2 * size, _MAX_CHUNK)


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
    return _one(_pochhammer_product([[a]], 1, ctx))


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
    return _one(_pochhammer_product([[*nums, *dens]], len(nums), ctx))


def _pochhammer_product(args, n_num: int, ctx: QContext) -> list:
    """Row r of ``args`` (R, M): prod_{i < n_num} (a_ri)_inf / prod_{i >= n_num}
    (a_ri)_inf, as :func:`qpoch_ratio` computes it, all rows in the same
    columns.  Returns one entry per row: its product, or the error it raises.

    A column past a row's own factor counts holds factors 1 for it, and a
    row refused for a pole takes factors 1 from then on, so each row's
    product is the same as it would be alone, bit for bit.
    """
    a = np.array(args, dtype=complex)
    q = complex(ctx.q)
    mags = np.abs(a)
    live = mags >= ctx.tail_tol  # False for 0 and NaN
    # counts[r, i]: the number of k with |a_ri| |q|^k >= tail_tol
    counts = np.zeros(a.shape)
    counts[live] = np.floor(
        (np.log(mags[live]) - math.log(ctx.tail_tol)) / -math.log(abs(q))) + 1
    top = counts.max(initial=0.0)
    cols = int(min(top, ctx.max_terms))
    result = None
    poles: dict[int, PoleError] = {}
    for start in range(0, cols, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK, cols))
        w = a[:, :, None] * q**ks
        f = 1.0 - w
        f[ks >= counts[:, :, None]] = 1.0
        pole = _vanishes(f[:, n_num:], w[:, n_num:])
        if pole.any():
            for r, j, k in np.argwhere(pole):
                poles.setdefault(int(r), PoleError(
                    f"denominator q-Pochhammer factor vanishes: arg={w[r, n_num + j, k]}"))
            f[list(poles)] = 1.0
        ratios = np.multiply.reduce(f[:, :n_num], axis=1) / np.multiply.reduce(f[:, n_num:], axis=1)
        # the running product over k, left to right from 1 (1 z == z exactly)
        if result is not None:
            ratios = np.concatenate((result[:, None], ratios), axis=1)
        result = np.multiply.reduce(ratios, axis=1)
    out: list = [1.0 + 0.0j] * len(a) if result is None else result.tolist()
    # a NaN argument never falls below tail_tol, so it exhausts any budget;
    # its factors are all 1, so the other arguments' columns hold every pole
    nan = np.isnan(mags).any()
    if top >= ctx.max_terms or nan:
        exhausted = counts.max(axis=1, initial=0.0) >= ctx.max_terms
        if nan:
            exhausted |= np.isnan(mags).any(axis=1)
        for r in exhausted.nonzero()[0]:
            out[r] = BudgetExceededError(
                f"q-Pochhammer product needs {ctx.max_terms} or more factors "
                f"(max |a| = {mags[r].max():.3g}, |q| = {abs(q):.6f})")
    for r, err in poles.items():
        out[r] = err
    return out


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
