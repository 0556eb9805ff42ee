"""Foundational q-arithmetic: Pochhammer symbols, theta and the series kernel.

Everything here is pure and reentrant.  The one state the kernels keep is
the cache of power tables (:func:`_power_table`), which holds the values any
call would compute.  The global numeric policy lives in :class:`QContext`,
and so does the one truncation rule every sum of the package obeys
(:func:`_tail_state`): a sum stops at the third consecutive term whose
magnitude is below ``tail_tol`` times the running maximum of the magnitudes
so far (floored at 1), so that isolated tiny terms of alternating series do
not trigger premature truncation.  The series kernel applies it to whole
chunks of terms of many rows at once.

Every term-ratio sum of the package (``phi``, ``w87``, both sides of
``psi33`` and of the Jackson grid sums, and ``appell_phi1``, a row weighed by
its inner series) is one chunked kernel, :func:`_ratio_sum`, which sums many
rows at once, each in order and with its own stop, so that a row's value does
not depend on the rows beside it; scalar callers pass one row.  A step over
one column is taken as one over two equal columns, because numpy rounds
complex products over a single element differently (:func:`_ratio_sum`).
The two batch kernels, :func:`_ratio_sum` and :func:`_pochhammer_product`,
take unplanned rows and return one entry per row.  Each plans its rows itself
in array passes: the series kernel its rows' chunks, ends and closed-form
tails (:func:`_plans`), giving a row whose pole comes first its PoleError, and
the product kernel its factor counts.  Each then computes its rows in blocks
(:func:`_by_blocks`): rows of like first chunks together, at most
``_BATCH_BYTES`` (512 KiB) of rows x factors x columns in a block's first
chunk, counted in the bytes of the block's dtype, and no later chunk wider
than keeps its rows within it, so their working set does not grow with their
rows and stays on the C heap (see ``_BATCH_BYTES``).  Their callers, one batch
per kernel and shape for all the labels of a job
(:func:`qhyp.solutions.fill`), find the termination and pole orders of their
rows in one scan of the batch's parameters (:func:`_termination_orders`).  A
chunk steps every row of its block to the chunk's end; the ratios past a row's
own end are never summed, and the kernel keeps them from warning and takes
them as 1.  Whether a factor 1 - w is zero is one test, :func:`_vanishes`, for
poles, exact zeros and terminating parameters alike.  Where the step ratios
tend to a constant r with 0 < |r| < 1, the kernel sums term by term only up to
the closure index N, past which every ratio equals r to rounding; there it
computes in closed form the term where the tail rule would stop, which decides
the budget as before, and adds the tail as t r / (1 - r), t the last term
summed.  The running maximum stays floored at 1, because the closed-form stop
index and the reference loops in the tests apply the same rule.

The kernel multiplies and adds in the precision of its first terms and
step ratios.  ``phi``, ``w87`` and ``appell_phi1`` build their ratios in
extended precision (``np.clongdouble``, a 64-bit significand on x86-64) from
the powers q^n of :func:`_qpow`, so each of their values is rounded to a
complex once, at its end.  In double precision every factor, ratio and
partial sum is rounded at the scale of the largest term, which a series
that cancels (|sum| << sum |t_n|) or a factor 1 - c q^n near 0 turns into
errors above 1e-13 of the value.  ``psi33`` and the Jackson grid sums stay
in double precision: a numerator q^-k ends a ``psi33`` side only through a
factor that rounds to 0 or to about 1e-16, and where the tail rule stops
such a side at the budget's edge depends on that rounding.  Where ``long
double`` is plain double, every sum is a double-precision one.

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

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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


def _product(ar, ai, br, bi) -> tuple:
    """(ar + i ai)(br + i bi) as CPython multiplies complex numbers, with no
    fused multiply-add, which numpy's complex loops may use."""
    return ar * br - ai * bi, ar * bi + ai * br


def _termination_orders(values, ctx: QContext) -> np.ndarray:
    """For each value c of the array ``values``: the first n < ``max_terms``
    where 1 - c q^n is zero (:func:`_vanishes`), else ``max_terms``; where
    numerators c end a series, or denominators c have their first pole (v
    q^n - c has the zeros of v / c).  One scan, a chunk of n at a time, in
    the scalar loop's arithmetic: w = c q^n by repeated products
    (:func:`_product`), |w| by ``np.hypot``, as ``abs``.  1 - w is zero only
    where |w| is 1 to 3e-12, and |w| shrinks a step, so the loop's stop at
    |w| < 0.5 never comes first, and one whose next |w| is below 0.999 is
    done.  NaN has no order; inf (or |c| past the largest float) order 0."""
    c = np.asarray(values, dtype=complex)
    q = complex(ctx.q)
    orders, live = np.full(c.size, ctx.max_terms), np.arange(c.size)
    w = c.real.reshape(-1), c.imag.reshape(-1)
    top = np.abs(c)  # the largest finite |w|, about
    top = top.max(initial=1.0, where=top < np.inf)
    n0 = 0
    with np.errstate(all="ignore"):  # the loop warns of nothing: NaN, inf and overflow pass
        while True:
            # the steps until the largest |w| is below 1, within budget and _BATCH_BYTES
            width = min(int(min(math.log(top) / -math.log(abs(q)), ctx.max_terms)) + 1,
                        ctx.max_terms - n0, _BATCH_BYTES // (16 * live.size + 1) + 1)
            re, im = np.empty((width, live.size)), np.empty((width, live.size))
            re[0], im[0] = w
            for k in range(1, width):
                re[k], im[k] = _product(re[k - 1], im[k - 1], q.real, q.imag)
            mags = np.hypot(re, im)
            zero = np.hypot(1.0 - re, im) <= _ZERO_FACTOR_RTOL * (1.0 + mags)
            first = zero.argmax(axis=0)
            hit = zero[first, np.arange(live.size)]
            orders[live[hit]] = n0 + first[hit]
            going = ~hit & (mags[-1] >= 0.999 / abs(q))  # NaN is done
            n0 += width
            if n0 >= ctx.max_terms or not going.any():
                return orders.reshape(c.shape)
            live, top = live[going], mags[-1, going].max()
            w = _product(re[-1, going], im[-1, going], q.real, q.imag)


# q^n for 0 <= n < _POWER_TABLE comes from a table of each q (at most
# _POWER_TABLES of them): one 32 KiB extended-precision array per q
_POWER_TABLE = 2048
_POWER_TABLES = 16


@functools.lru_cache(maxsize=_POWER_TABLES)
def _power_table(q: complex) -> np.ndarray:
    return np.clongdouble(q) ** np.arange(_POWER_TABLE)


def _qpow(q: complex, ns: np.ndarray) -> np.ndarray:
    """q^n at the ascending integers ``ns``, in extended precision.  Each
    power is one ``np.power`` of its n alone, whether it comes from the table
    or not, so it does not depend on the other entries of ``ns``."""
    if ns.size and 0 <= ns[0] and ns[-1] < _POWER_TABLE:
        return _power_table(q)[ns]
    return np.clongdouble(q) ** ns


# the most bytes (rows x factors x columns x itemsize) of one chunk of one
# block of a batch: 32K complex elements of a grid or Pochhammer block, 16K
# extended-precision elements of a series block (32 bytes on x86-64).  The
# blocks are cut by their rows' first chunks, and later chunks double for
# the rows that sum on past them, but no wider than keeps them within it
# (:func:`_ratio_sum`), so no array of a chunk is larger.  Each block pays a
# fixed dispatch cost for its kernels; 512 KiB was the knee of the job times
# in a sweep from 64 KiB to 1 MiB
_BATCH_BYTES = 1 << 19
# The C allocator (glibc's malloc) maps a block of 128 KiB or more afresh and
# unmaps it when freed, and gives back the heap's free top past 128 KiB; in
# a process that keeps its results, a chunk's arrays then take fresh pages
# every time (a series job took 0.6-3.7 thousand minor page faults).  Freeing
# a mapped block raises both limits, to its size and to twice that
# (mallopt(3), M_MMAP_THRESHOLD and M_TRIM_THRESHOLD): this one, freed at
# once, keeps every array of a chunk on the heap and its pages mapped.  It
# changes no value, and a C library without the rule ignores it
np.empty(2 * _BATCH_BYTES, np.uint8)


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


def _one(outcomes: list) -> complex:
    """The value of a one-row batch; raises the error of its row instead,
    with its traceback cleared, as a stored error may be raised again."""
    (value,) = outcomes
    if isinstance(value, Exception):
        raise value.with_traceback(None)
    return value


def _by_blocks(kernel: Callable[[Sequence], list], rows: Sequence, column: int,
               widths: Sequence[int] | Callable[[], Sequence[int]]) -> list:
    """``kernel(block)`` over blocks of ``rows``: one entry per row, in the
    order of ``rows``; the one blocking rule of the two batch kernels,
    :func:`_ratio_sum` and :func:`_pochhammer_product`.  Row i wants
    ``widths[i]`` columns first (its planned first chunk, or its first
    chunk of Pochhammer factors) of ``column`` bytes each (factors x
    itemsize); ``widths`` may be a function that gives them, called for
    every batch of two rows or more.  A batch
    within ``_BATCH_BYTES`` (rows x its widest width x ``column``), or of
    one row, is one block.  Else the rows are taken by width, narrowest
    first (a stable sort), and each block holds as many rows (one at least)
    as keep rows x its widest width x ``column`` within the budget.  An
    entry must depend on its row alone, not on the block it is computed
    in."""
    if not rows:
        return []
    if len(rows) == 1:
        return kernel(rows)
    if callable(widths):
        widths = widths()
    if len(rows) * column * max(widths) <= _BATCH_BYTES:
        return kernel(rows)
    order = sorted(range(len(rows)), key=widths.__getitem__)
    out: list = [None] * len(rows)
    lo = 0
    while lo < len(order):
        hi = lo + 1
        while hi < len(order) and (hi + 1 - lo) * column * widths[order[hi]] <= _BATCH_BYTES:
            hi += 1
        block = order[lo:hi]
        for i, entry in zip(block, kernel([rows[i] for i in block])):
            out[i] = entry
        lo = hi
    return out


_MIN_CHUNK = 32
# a bigger chunk makes psi33's factor matrices (6 rows) big enough that
# allocating them page-faults anew for every chunk: at 4096, psi33 near
# z = 1 ran ~1.5 times as long
_MAX_CHUNK = 2048
# no step ratio here has more factors 1 - c q^n than this (w87 has 14)
_RATIO_FACTORS = 16
_EXTENDED_BYTES = np.dtype(np.clongdouble).itemsize


class _Plans(NamedTuple):
    """The plans of a :func:`_ratio_sum` batch, one entry per row: its first
    chunk, where it stops summing term by term, whether that is its closure
    index, whether the tail rule may end it before, and whether ``end`` is
    one past its last term (else, if not closing, past the budget)."""

    first: np.ndarray
    end: np.ndarray
    closing: np.ndarray
    tailed: np.ndarray
    whole: np.ndarray


def _plans(rate: np.ndarray, reach: np.ndarray, last: np.ndarray, ctx: QContext) -> _Plans:
    """The plans of rows with these rates, reaches and last terms
    (``max_terms``: none), as the scalar plan made them: its ceil's argument
    for the closure index, which decides values, by ``math.log`` where it
    lies within 1e-12 (relative) of an integer, as ``np.log`` may differ."""
    whole = last < ctx.max_terms
    count = np.minimum(last + 1, ctx.max_terms)
    aq, lq = abs(ctx.q), -math.log(abs(ctx.q))
    with np.errstate(divide="ignore", invalid="ignore"):  # |rate| 0 or 1, NaN and inf
        # n > 0 where 0 < |rate| < 1; 0 for |rate| 0 and a finite reach; else < 0 or NaN
        lr, rho = np.log1p(reach), np.hypot(rate.real, rate.imag)
        n = (lr * lr / (2.0 * lq) + lr / (1.0 - aq) - math.log(ctx.tail_tol)) / -np.log(rho)
        # the closure index N = max(ceil(x), 1) where n > 0 and there is no last term
        spread = _RATIO_FACTORS * reach / ((1.0 - aq) * ctx.tail_tol)
        x = np.log(np.maximum(spread, 1.0)) / lq / ((n > 0.0) & ~whole)
        for i in (np.abs(x - np.rint(x)) <= 1e-12 * x).nonzero()[0].tolist():
            x[i] = math.log(max(spread[i], 1.0)) / lq
    n[rho == 0.0] = 0.0
    n[~(n >= 0.0)] = _MAX_CHUNK
    first = np.minimum(np.maximum(np.minimum(n, _MAX_CHUNK).astype(int) + 1 + _CONSECUTIVE_SMALL,
                                  _MIN_CHUNK), _MAX_CHUNK)
    x = np.ceil(x)
    closing = x <= count  # N <= count, which is 1 at least; not for NaN
    end = np.fmin(np.maximum(x, 1.0), count).astype(int)
    np.copyto(first, np.minimum(first, np.maximum(end, _MIN_CHUNK)), where=closing)
    # the tail rule cannot end a terminating sum this short before its last term
    short = whole & (count <= _CONSECUTIVE_SMALL)
    np.copyto(first, count, where=short)
    return _Plans(first, end, closing, ~short, whole)


def _ratio_sum(
    t0: Sequence[complex],
    step: Callable[[list, np.ndarray], np.ndarray],
    ctx: QContext,
    rows: tuple,
    what: str,
    *,
    weigh: Callable[[list, np.ndarray, np.ndarray], np.ndarray] | None = None,
    column: int = _RATIO_FACTORS * _EXTENDED_BYTES,
    errors: list | None = None,
) -> list:
    """Row r: sum_n t_n, where t_0 = ``t0[r]`` and t_{n+1} = t_n r_n; the
    rows are summed together, a chunk of n at a time.

    Returns one entry per row: its sum, or the error it raises (a scalar
    caller passes one row and raises it with :func:`_one`).

    ``rows`` is (rate, reach, last, pole), one entry per row each: ``rate``
    the limit of the ratios of its terms (weighed, where ``weigh`` is
    given), ``reach`` the largest |c| among the factors 1 - c q^n of its
    r_n, ``last`` its last term and ``pole`` the first n whose r_n divides
    by a vanishing factor, as :func:`_termination_orders` gives them
    (``max_terms``: none; None: none for any row).  Row r stops by the tail
    rule or after term ``last``; ``max_terms`` terms without either raise
    NonDecayingSumError.  The kernel plans the rows in array passes
    (:func:`_plans`): one whose ``pole`` comes before its end is a
    PoleError, and one with an error in ``errors`` (None: none) that error;
    neither sums anything.  It sums the rest in blocks cut by their first
    chunks (:func:`_by_blocks`), so a batch's working set does not grow.

    ``step(rows, ns)`` gives the ratios r_n at the indices ``ns`` for the
    rows ``rows`` (a list of indices into the batch), one array row each; a
    chunk asks only for the rows still summing, in an array of its own,
    which the kernel may overwrite.  ``weigh(rows, ns, t)``, if given, turns
    a chunk of t_n of those rows into the terms summed, without writing to
    t.  ``column`` is the bytes of one column of one row of the step factors
    (factors x itemsize; by default the most a step here has).

    Each row is summed in order, one product and one addition at a time:
    t_n = (... (t_0 r_0) r_1 ...) r_{n-1}, and the sum adds t_n to the sum
    of the terms before it.  So a row's value, bit for bit, depends neither
    on the chunks nor on the rows it is summed with.  The plans read the
    chunks off the rate and the reach, as :func:`_pochhammer_product` reads its
    factor counts: a row wants first the terms a geometric sum of ratio
    |rate| takes to fall by 1/tail_tol times the growth those factors can
    add, and the run the tail rule waits for, but no more than its closure
    index N (or ``_MIN_CHUNK``).  A block's first chunk is the largest its
    rows want; later chunks double, up to ``_MAX_CHUNK``.  No chunk is wider
    than keeps the step factors of the rows still summing within
    ``_BATCH_BYTES`` (``_MIN_CHUNK`` at least), so the arrays of a chunk,
    the step's and the weights' included, come from the C heap below the
    threshold raised at import, not from fresh pages.  A chunk runs every
    row still summing to its own last index, so a row that ends inside it
    gets ratios past its end: those are computed with numpy's
    floating-point warnings off (past a terminating row's last term a
    denominator may vanish) and taken as 1, and no row reads them.

    The closed-form tail: from N on, where _RATIO_FACTORS reach |q|^N /
    (1 - |q|) <= tail_tol, every later r_n equals ``rate`` to rounding.  So
    a row without ``last`` and with 0 < |rate| < 1 that the tail rule has
    not stopped before N ends there: the magnitudes still to come are
    |t| |rate|^k, which fixes where the tail rule would stop.  If that index
    is within ``max_terms``, the rest is added as t rate / (1 - rate), t the
    last term summed; if not (or t is not finite), NonDecayingSumError is
    raised at once.
    """
    rate, reach, last, pole = np.asarray(rows[0], complex), np.asarray(rows[1], float), *rows[2:]
    last = np.full(len(t0), ctx.max_terms) if last is None else np.asarray(last)
    plans = _plans(rate, reach, last, ctx)
    out: list = [None] * len(t0) if errors is None else list(errors)
    if pole is not None:
        for r in (np.asarray(pole) < last).nonzero()[0].tolist():  # each row raises its own
            out[r] = out[r] or PoleError(f"{what}: a denominator factor vanishes at n = {pole[r]}")
    live = [r for r, error in enumerate(out) if error is None]
    if not live:
        return out
    t0 = np.asarray(t0)  # complex, or extended as t0 is
    t0 = t0.astype(np.promote_types(t0.dtype, complex))
    rates = rate.tolist()
    firsts, ends, closings, taileds, wholes = (a.tolist() for a in plans)

    def block(members: list) -> list:
        """The sums of the rows ``members``."""
        sums_of: dict = {}
        live = members  # the rows still summing
        ends_live = [ends[r] for r in live]
        size = max(firsts[r] for r in live)
        tailed_any = any(taileds[r] for r in live)
        t = t0[live, None]  # the term before the chunk

        def ratios_at(ns: np.ndarray, short: bool) -> np.ndarray:
            """r_n at ``ns`` for the live rows; ``short``: some row ends before
            the chunk does, and takes 1 for each r_n with n >= its end - 1."""
            if short:  # past a terminating row's last term a denominator may vanish
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    ratios = ratios_at(ns, False)
                np.copyto(ratios, 1.0, where=np.asarray(ends_live)[:, None] <= ns + 1)
                return ratios
            # numpy rounds a complex product over one column other than over
            # many (an in-place product or a product reduction over a single
            # element skips the fused multiply-add of its vector loops, and a
            # broadcast over one column changes which operand its loop holds
            # fixed); so one column is stepped as two equal ones, and every
            # ratio is rounded as in a chunk of many, alone or in a batch
            if len(ns) == 1:
                return step(live, np.repeat(ns, 2))[:, :1]
            return step(live, ns)

        n0 = 0
        while True:
            size = min(size, max(_BATCH_BYTES // (len(live) * column), _MIN_CHUNK))
            hi = min(n0 + size, max(ends_live))
            ns = np.arange(n0, hi)
            short = min(ends_live) < hi
            # the terms t_n0 ... of a chunk follow the term t before it; the first
            # chunk starts at t_0, with no first ratio 1.  t and the ratios, then
            # their running products in place
            seq = np.concatenate((t, ratios_at(ns - 1 if n0 else ns[:-1], short)), axis=1)
            np.multiply.accumulate(seq, axis=1, out=seq)
            seq = seq[:, 1:] if n0 else seq
            terms = seq if weigh is None else weigh(live, ns, seq)
            if n0:  # sums[:, k]: the sum of the terms up to n0 + k
                sums = np.concatenate((total, terms), axis=1)
                sums = np.add.accumulate(sums, axis=1, out=sums)[:, 1:]
            else:  # 0 + t_0 is t_0
                sums = np.add.accumulate(terms, axis=1)
                scale, prior = 1.0, np.zeros((len(live), 2), dtype=bool)
            if tailed_any:  # rows the tail rule cannot end all end in the first chunk
                # the magnitudes of the terms rounded to complex: on x86-64, np.abs
                # of an extended-precision array takes about six times as long
                mags = np.abs(terms.astype(complex, copy=False))
                scales, small, stop = _tail_state(mags, scale, prior, ctx.tail_tol)
                stops = stop.argmax(axis=1).tolist()
            going = []  # the rows that sum on past this chunk
            for i, r in enumerate(live):
                end = ends[r]
                w = min(end, hi) - n0
                if taileds[r] and stops[i] < w and stop[i, stops[i]]:
                    sums_of[r] = complex(sums[i, stops[i]])
                elif end > hi:
                    going.append(i)
                elif closings[r] and math.isfinite(mag := abs(terms[i, w - 1])):
                    # the tail rule's run of small terms goes on from the run
                    # ending at the last term summed; with none, it starts at the
                    # first k with mag rho^k < tol scale
                    run = int(small[i, w + 1]) + int(small[i, w + 1] and small[i, w])
                    k = 1
                    if not run:
                        k += math.floor(math.log(ctx.tail_tol * scales[i, w - 1] / mag)
                                        / math.log(abs(rates[r])))
                    if end + k + 1 - run < ctx.max_terms:
                        sums_of[r] = complex(sums[i, w - 1] + terms[i, w - 1] * rates[r]
                                             / (1.0 - rates[r]))
                    else:
                        sums_of[r] = NonDecayingSumError(
                            f"{what} did not meet the tail criterion in {ctx.max_terms} terms")
                elif wholes[r]:
                    sums_of[r] = complex(sums[i, w - 1])
                else:
                    sums_of[r] = NonDecayingSumError(
                        f"{what} did not meet the tail criterion in {ctx.max_terms} terms")
            if not going:
                return [sums_of[r] for r in members]
            if len(going) < len(live):  # what the next chunk carries: the rows going on
                live, ends_live = [live[i] for i in going], [ends_live[i] for i in going]
            else:
                going = slice(None)
            t, total = seq[going, -1:], sums[going, -1:]
            scale, prior = scales[going, -1:], small[going, -2:]
            n0, size = hi, min(2 * size, _MAX_CHUNK)

    for r, value in zip(live, _by_blocks(block, live, column, [firsts[r] for r in live])):
        out[r] = value
    return out


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


def _factor_counts(mags: np.ndarray, ctx: QContext) -> np.ndarray:
    """The number of k with |a| |q|^k >= tail_tol for each magnitude |a|
    (0 for 0 and NaN): the factors 1 - a q^k of (a)_inf in a product."""
    live = mags >= ctx.tail_tol  # False for 0 and NaN
    counts = np.zeros(mags.shape)
    counts[live] = np.floor(
        (np.log(mags[live]) - math.log(ctx.tail_tol)) / -math.log(abs(complex(ctx.q)))) + 1
    return counts


def _pochhammer_product(args, n_num: int, ctx: QContext) -> list:
    """Row r of ``args`` (R, M): prod_{i < n_num} (a_ri)_inf / prod_{i >= n_num}
    (a_ri)_inf, as :func:`qpoch_ratio` computes it.  Returns one entry per
    row: its product, or the error it raises.

    The factors of each argument are counted once for the batch, and the
    rows are computed in blocks (:func:`_by_blocks`), each row wanting its
    most factors of any argument, at most ``_CHUNK`` columns, first.  A
    column past a row's own factor counts holds factors 1 for it, and a row
    refused for a pole takes factors 1 from then on, so each row's product
    is the same as it would be alone, bit for bit.
    """
    a = np.array(args, dtype=complex)
    mags = np.abs(a)
    counts = _factor_counts(mags, ctx)

    def block(rows: Sequence[int]) -> list:
        if len(rows) == len(a):
            return _pochhammer_block(a, mags, counts, n_num, ctx)
        return _pochhammer_block(a[rows], mags[rows], counts[rows], n_num, ctx)

    return _by_blocks(block, range(len(a)), a.shape[1] * a.itemsize, lambda: np.minimum(
        counts.max(axis=1, initial=0.0), _CHUNK).astype(int).tolist())


def _pochhammer_block(a: np.ndarray, mags: np.ndarray, counts: np.ndarray, n_num: int,
                      ctx: QContext) -> list:
    """The entries of :func:`_pochhammer_product` for the rows ``a``, with
    their magnitudes and factor counts, all rows in the same columns."""
    q = complex(ctx.q)
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
