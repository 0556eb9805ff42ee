"""Foundational q-arithmetic: Pochhammer symbols, theta and the series kernel.

Everything here is pure and reentrant.  The one state the kernels keep is
a pool of work buffers per thread (:func:`_work`), into which a large chunk
writes its arrays with ufunc ``out=`` arguments instead of allocating them
afresh: a chunk borrows from it in a scope (:func:`_lend`) that it gives back
in a ``finally`` (:func:`_reclaim`), inner scopes stacking above outer ones
(``appell_phi1``'s inner series run inside its outer chunk), every array is
written before it is read, and nothing borrowed outlives its scope; so no
value depends on what ran before it, in any thread.  The global numeric
policy lives in :class:`QContext`, and so does the one truncation rule
every sum of the package obeys (:func:`_tail_state`): a sum stops at the
third consecutive term whose magnitude is below ``tail_tol`` times the
running maximum of the magnitudes so far (floored at 1), so that isolated
tiny terms of alternating series do not trigger premature truncation.  The
series kernel applies it to whole chunks of terms of many rows at once.

Every term-ratio sum of the package (``phi``, ``w87``, both sides of
``psi33`` and of the Jackson grid sums, and ``appell_phi1``, a row weighed by
its inner series) is one chunked kernel, :func:`_ratio_sum`, which sums many
rows at once, each in order and with its own stop, so that a row's value does
not depend on the rows beside it; scalar callers pass one row.  A step over
one column is taken as one over two equal columns, because numpy rounds
complex products over a single element differently (:func:`_ratio_sum`).
The series and grid batches, one per kernel and shape for all the labels of
a job (:func:`qhyp.solutions.fill`), plan each distinct row once
(:func:`_row_plans`), scan each distinct parameter value once for their
termination and pole orders (:func:`_termination_order` with one dict for
the batch), and are summed in blocks cut by those plans (:func:`_by_blocks`),
as are the Pochhammer batches by their columns (:func:`_pochhammer_widths`):
rows of like first chunks together, at most ``_BATCH_BYTES`` (512 KiB) of
rows x factors x columns in a block's first chunk, counted in the bytes of
the block's dtype, and no later chunk wider than keeps its rows within it,
so their working set does not grow with their rows and fits the buffers of
the pool.  A chunk steps every row of its block to the chunk's end; the
ratios past a row's own end are never summed, and the kernel keeps them
from warning and takes them as 1.  Whether a factor 1 - w is zero is one test,
:func:`_vanishes`, for poles, exact zeros and terminating parameters alike.
Where the step ratios tend to a constant r with 0 < |r| < 1, the kernel
sums term by term only up to the closure index N, past which every ratio
equals r to rounding; there it computes in closed form the term where the
tail rule would stop, which decides the budget as before, and adds the tail
as t r / (1 - r), t the last term summed.  The running maximum stays
floored at 1, because the closed-form stop index and the reference loops in
the tests apply the same rule.

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
import threading
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


def _vanishing(factor: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`_vanishes` of arrays, written into work arrays (:func:`_work`):
    the same operations in the same order."""
    lend = _pool.lending
    bound = np.abs(w, out=_work(w.shape, float) if lend else None)
    np.multiply(_ZERO_FACTOR_RTOL, np.add(1.0, bound, out=bound), out=bound)
    return np.less_equal(np.abs(factor, out=_work(factor.shape, float) if lend else None), bound,
                         out=_work(factor.shape, bool) if lend else None)


def _termination_order(params: Sequence[complex], ctx: QContext,
                       orders: dict | None = None) -> int | None:
    """Smallest n < ``max_terms`` with some 1 - c q^n zero (:func:`_vanishes`),
    else None: where a series with numerators c terminates, or the first pole
    of denominators c.  A descending form v q^n - c has the zeros of v / c.

    ``orders``, if given, maps the values c already scanned under ``ctx`` to
    their own orders (None for none) and takes those of the values scanned
    now: a batch passes one dict for all its rows, so that each distinct
    value is scanned once.  The scan of a value is the same either way."""
    q = complex(ctx.q)
    best: int | None = None
    for a in params:
        c = complex(a)
        if orders is not None and c in orders:
            order = orders[c]
        else:
            order, w = None, c
            for n in range(ctx.max_terms):
                if abs(w) < 0.5:
                    break  # |c q^n| only shrinks from here: can no longer hit 1
                if _vanishes(1.0 - w, w):
                    order = n
                    break
                w *= q
            if orders is not None:
                orders[c] = order
        if order is not None and (best is None or order < best):
            best = order
    return best


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
# (:func:`_ratio_sum`); so it is also the size of a work buffer
# (:func:`_work`).  Each block pays a fixed dispatch cost for its kernels;
# 512 KiB was the knee of the job times in a sweep from 64 KiB to 1 MiB
_BATCH_BYTES = 1 << 19
# The work arrays of a chunk come from a pool of the thread (:func:`_work`):
# at most _POOL_BUFFERS buffers of _BATCH_BYTES, about as many as the
# arrays of the largest chunk take, a series chunk inside appell_phi1's
# outer chunk included.  Fresh arrays of a block's size are mapped and
# unmapped afresh by the C allocator once a process's heap holds what it
# keeps: a series job took 0.6-3.7 thousand minor page faults before.  A
# chunk whose step factors take fewer than _POOL_MIN_BYTES, outside any
# open scope, leaves its arrays to numpy: they are small, and taking them
# from the pool would cost more time than it saves.  numpy's ufuncs copy broadcast and cast
# operands through buffers of their own, by default of 8192 elements (up
# to 256 KiB each, mapped afresh as well); a lending scope runs them with
# buffers of _UFUNC_BUFFER elements, 125 KiB of extended precision, below
# the 128 KiB from which the C allocator maps a block afresh by default.
# Neither changes a value: a work array is written whole before it is
# read, and a ufunc computes each element alike whatever its buffers.
_POOL_BUFFERS = 6
_POOL_MIN_BYTES = 1 << 14
_UFUNC_BUFFER = 4000


class _Pool(threading.local):
    """One thread's work buffers: ``buffers``, byte arrays of _BATCH_BYTES;
    ``top``, the bytes lent from the start of the first, a buffer's tail
    left unlent where the next array does not fit; and ``lending``, whether
    a scope (:func:`_lend`) is open."""

    def __init__(self):
        self.buffers: list[np.ndarray] = []
        self.top = 0
        self.lending = False


_pool = _Pool()


def _lend(nbytes: int) -> tuple | None:
    """Open a scope of work arrays for a chunk whose step factors take
    ``nbytes``, if at least _POOL_MIN_BYTES or inside an open scope (else
    None: a small chunk's arrays come from numpy).  Returns the mark that
    :func:`_reclaim`, called in a ``finally``, takes the buffers back to:
    what the scope lent, and only that, inner scopes being reclaimed first.
    The outermost scope runs numpy's ufuncs with buffers of _UFUNC_BUFFER
    elements."""
    pool = _pool
    if pool.lending:
        return pool.top, None
    if nbytes < _POOL_MIN_BYTES:
        return None
    pool.lending = True
    return pool.top, np.setbufsize(_UFUNC_BUFFER)


def _reclaim(mark: tuple | None) -> None:
    """Close the scope opened by :func:`_lend` that returned ``mark``;
    drop the buffers past _POOL_BUFFERS that no open scope uses."""
    if mark is None:
        return
    pool = _pool
    pool.top, bufsize = mark
    if bufsize is not None:  # the outermost scope
        pool.lending = False
        np.setbufsize(bufsize)
    if len(pool.buffers) > _POOL_BUFFERS:
        del pool.buffers[max(_POOL_BUFFERS, -(-pool.top // _BATCH_BYTES)):]


def _work(shape: tuple, dtype) -> np.ndarray | None:
    """An array of ``shape`` and ``dtype``, its values unset, on the
    thread's work buffers, for a ufunc's ``out=``; or None, for numpy to
    allocate it, outside a lending scope (:func:`_lend`) or where it would
    be empty or exceed _BATCH_BYTES.  Every caller writes it whole before
    reading it, and only while its scope is open."""
    pool = _pool
    if not pool.lending:
        return None
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    if not 0 < size <= _BATCH_BYTES:
        return None
    i, at = divmod(pool.top, _BATCH_BYTES)
    if at + size > _BATCH_BYTES:
        i, at = i + 1, 0
    if i == len(pool.buffers):
        pool.buffers.append(np.empty(_BATCH_BYTES, np.uint8))
    pool.top = i * _BATCH_BYTES + at + -(-size // 64) * 64  # the next array 64-byte aligned
    return np.ndarray(shape, dtype, pool.buffers[i], at)


def _quotient(factors: np.ndarray, split: int) -> np.ndarray:
    """The product of the first ``split`` rows of ``factors`` over that of the
    rest: the step ratio of a product of q-Pochhammer symbols, one row per
    parameter and one column per n (on work arrays, :func:`_work`)."""
    lend = _pool.lending  # work arrays (_work) only where a scope lends them
    num = np.multiply.reduce(factors[:split], axis=0,
                             out=_work(factors.shape[1:], factors.dtype) if lend else None)
    num /= np.multiply.reduce(factors[split:], axis=0,
                              out=_work(num.shape, num.dtype) if lend else None)
    return num


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
    lend = _pool.lending  # work arrays (_work) only where a scope lends them
    scales = np.fmax.accumulate(mags, axis=-1, out=_work(mags.shape, mags.dtype) if lend else None)
    np.fmax(scales, scale, out=scales)
    small = np.concatenate((prior, mags < tol * scales), axis=-1, out=_work(
        (*mags.shape[:-1], mags.shape[-1] + 2), bool) if lend else None)
    stop = np.bitwise_and(small[..., 2:], small[..., 1:-1],
                          out=_work(mags.shape, bool) if lend else None)
    stop &= small[..., :-2]
    return scales, small, stop


def _one(outcomes: list) -> complex:
    """The value of a one-row batch; raises the error of its row instead,
    with its traceback cleared, as a stored error may be raised again."""
    (value,) = outcomes
    if isinstance(value, Exception):
        raise value.with_traceback(None)
    return value


def _by_blocks(kernel: Callable[[Sequence], list], rows: Sequence, factors: int,
               widths: Sequence[int] | Callable[[], Sequence[int]], itemsize: int) -> list:
    """``kernel(block)`` over blocks of ``rows``: one entry per row, in the
    order of ``rows``.  Row i wants ``widths[i]`` columns first (its planned
    first chunk, or its first chunk of :func:`_pochhammer_product`,
    :func:`_pochhammer_widths`) of ``factors`` factors of ``itemsize`` bytes
    each; ``widths`` may be a function that gives them, called for every
    batch of two rows or more.  A batch within ``_BATCH_BYTES`` (rows x
    ``factors`` x its widest width x ``itemsize``), or of one row, is one
    block.  Else the rows are taken by width, narrowest first (a stable
    sort), and each block holds as many rows (one at least) as keep rows x
    ``factors`` x its widest width x ``itemsize`` within the budget.  An
    entry must depend on its row alone, not on the block it is computed
    in."""
    if not rows:
        return []
    if len(rows) == 1:
        return kernel(rows)
    if callable(widths):
        widths = widths()
    column = factors * itemsize  # the bytes of one column of one row
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


def _row_plan(rate: complex, reach: float, last: int | None, pole: int | None,
              ctx: QContext, what: str) -> tuple | PoleError:
    """The plan of one row of :func:`_ratio_sum`, whose arguments these are:
    (first chunk, end, closing, tailed, whole), the chunk its terms want
    first, the index where it stops summing term by term, whether that is
    its closure index, whether the tail rule may end it before, and whether
    ``end`` is one past its last term (else, if not closing, its budget runs
    out).  Or the PoleError it raises before summing anything, where
    ``pole`` comes before its end at ``last``."""
    if pole is not None and (last is None or pole < last):
        return PoleError(f"{what}: a denominator factor vanishes at n = {pole}")
    count = ctx.max_terms if last is None else min(ctx.max_terms, last + 1)
    whole = last is not None and count == last + 1
    if whole and count <= _CONSECUTIVE_SMALL:
        # the tail rule cannot end a terminating sum this short before its last term
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


def _row_plans(rows: Sequence[tuple], ctx: QContext, what: str) -> list:
    """The :func:`_row_plan` of each (rate, reach, last, pole) of ``rows``,
    one batch's: each distinct tuple is planned once (a PoleError once per
    row, as each row raises its own)."""
    if len(rows) == 1:  # nothing to share
        return [_row_plan(*rows[0], ctx, what)]
    plans: dict = {}
    out = []
    for row in rows:
        plan = plans.get(row)
        if plan is None:
            plan = _row_plan(*row, ctx, what)
            if not isinstance(plan, Exception):
                plans[row] = plan
        out.append(plan)
    return out


def _ratio_sum(
    t0: Sequence[complex],
    step: Callable[[list, np.ndarray], np.ndarray],
    ctx: QContext,
    rate: Sequence[complex],
    what: str,
    *,
    plans: Sequence,
    weigh: Callable[[list, np.ndarray, np.ndarray], np.ndarray] | None = None,
    column: int = _RATIO_FACTORS * _EXTENDED_BYTES,
) -> list:
    """Row r: sum_n t_n, where t_0 = ``t0[r]`` and t_{n+1} = t_n r_n; all
    rows are summed together, a chunk of n at a time.

    Returns one entry per row: its sum, or the error it raises (a scalar
    caller passes one row and raises it with :func:`_one`).

    ``step(rows, ns)`` gives the ratios r_n at the indices ``ns`` for the
    rows ``rows`` (a list of row indices), one array row each; a chunk asks
    only for the rows still summing, in an array of its own, which the
    kernel may overwrite.  ``weigh(rows, ns, t)``, if given, turns a chunk
    of t_n into the terms summed, without writing to t.  ``rate[r]`` is the
    limit of the ratios of row r's terms (weighed, where ``weigh`` is given), and
    ``plans[r]`` its :func:`_row_plan` of that rate, the largest |c| among
    the factors 1 - c q^n of its r_n (its reach), its ``last`` and its
    ``pole``, made by the caller.  Row r stops by the tail rule or after term
    ``last``; ``max_terms`` terms without either raise NonDecayingSumError.
    ``pole`` is the first n whose r_n divides by a vanishing factor
    (:func:`_termination_order` of the denominators): unless the row ends at
    ``last`` first, its plan is the PoleError it raises before summing
    anything.  ``column`` is the bytes of one column of one row of the step
    factors (factors x itemsize, as :func:`_by_blocks` takes them; by
    default the most a step here has).

    Each row is summed in order, one product and one addition at a time:
    t_n = (... (t_0 r_0) r_1 ...) r_{n-1}, and the sum adds t_n to the sum
    of the terms before it.  So a row's value, bit for bit, depends neither
    on the chunks nor on the rows it is summed with.  The plans read the
    chunks off the rate and the reach, as :func:`_pochhammer_product` reads its
    factor counts: a row wants first the terms a geometric sum of ratio
    |rate| takes to fall by 1/tail_tol times the growth those factors can
    add, and the run the tail rule waits for, but no more than its closure
    index N (or ``_MIN_CHUNK``).  A batch's first chunk is the largest its
    rows want; later chunks double, up to ``_MAX_CHUNK``.  No chunk is wider
    than keeps the step factors of the rows still summing within
    ``_BATCH_BYTES`` (``_MIN_CHUNK`` at least), so each array of a chunk
    fits a work buffer: the arrays of a large chunk, the step's and the
    weights' included, are work arrays of one scope (:func:`_lend`,
    :func:`_work`), taken back when the chunk ends, and what the next chunk
    carries is copied out.  A chunk runs every row still summing to its own
    last index, so a row that ends inside it gets ratios past its end: those
    are computed with numpy's floating-point warnings off (past a
    terminating row's last term a denominator may vanish) and taken as 1,
    and no row reads them.

    The closed-form tail: from N on, where _RATIO_FACTORS reach |q|^N /
    (1 - |q|) <= tail_tol, every later r_n equals ``rate`` to rounding.  So
    a row without ``last`` and with 0 < |rate| < 1 that the tail rule has
    not stopped before N ends there: the magnitudes still to come are
    |t| |rate|^k, which fixes where the tail rule would stop.  If that index
    is within ``max_terms``, the rest is added as t rate / (1 - rate), t the
    last term summed; if not (or t is not finite), NonDecayingSumError is
    raised at once.
    """
    out: list = [None] * len(plans)
    live, ends, size, tailed_any = [], [], 0, False
    for r, plan in enumerate(plans):
        if isinstance(plan, Exception):
            out[r] = plan
            continue
        first, end, _, tailed, _ = plan
        live.append(r)
        ends.append(end)
        size, tailed_any = max(size, first), tailed_any or tailed
    if not live:
        return out
    t = np.asarray(t0)  # the term before the chunk: complex, or extended as t0 is
    t = t.astype(np.promote_types(t.dtype, complex))[:, None]
    if len(live) < len(plans):
        t = t[live]

    def ratios_at(ns: np.ndarray, short: bool) -> np.ndarray:
        """r_n at ``ns`` for the live rows; ``short``: some row ends before
        the chunk does, and takes 1 for each r_n with n >= its end - 1."""
        if short:  # past a terminating row's last term a denominator may vanish
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratios = ratios_at(ns, False)
            np.copyto(ratios, 1.0, where=np.asarray(ends)[:, None] <= ns + 1)
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
        hi = min(n0 + size, max(ends))
        ns = np.arange(n0, hi)
        short = min(ends) < hi
        mark = _lend(len(live) * (hi - n0) * column)
        lend = mark is not None  # work arrays (_work) only where this chunk lends them
        try:
            # the terms t_n0 ... of a chunk follow the term t before it; the
            # first chunk starts at t_0, with no first ratio 1
            ratios = ratios_at(ns - 1 if n0 else ns[:-1], short)
            # t and the ratios, then their running products in place
            seq = np.concatenate((t, ratios), axis=1, out=_work(
                (len(live), ratios.shape[1] + 1), np.promote_types(t.dtype, ratios.dtype))
                if lend else None)
            np.multiply.accumulate(seq, axis=1, out=seq)
            seq = seq[:, 1:] if n0 else seq
            terms = seq if weigh is None else weigh(live, ns, seq)
            if n0:  # sums[:, k]: the sum of the terms up to n0 + k, of the terms' dtype
                sums = np.concatenate((total, terms), axis=1, out=_work(
                    (len(live), terms.shape[1] + 1), terms.dtype) if lend else None)
                sums = np.add.accumulate(sums, axis=1, out=sums)[:, 1:]
            else:  # 0 + t_0 is t_0
                sums = np.add.accumulate(terms, axis=1,
                                         out=_work(terms.shape, terms.dtype) if lend else None)
                scale, prior = 1.0, np.zeros((len(live), 2), dtype=bool)
            if tailed_any:  # rows the tail rule cannot end all end in the first chunk
                # the magnitudes of the terms rounded to complex: on x86-64, np.abs
                # of an extended-precision array takes about six times as long
                mags = np.abs(terms.astype(complex, copy=False),
                              out=_work(terms.shape, float) if lend else None)
                scales, small, stop = _tail_state(mags, scale, prior, ctx.tail_tol)
                stops = stop.argmax(axis=1).tolist()
            going = []  # the rows that sum on past this chunk
            for i, r in enumerate(live):
                _, end, closing, tailed, whole = plans[r]
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
                    if end + k + 1 - run < ctx.max_terms:
                        out[r] = complex(
                            sums[i, w - 1] + terms[i, w - 1] * rate[r] / (1.0 - rate[r]))
                    else:
                        out[r] = NonDecayingSumError(
                            f"{what} did not meet the tail criterion in {ctx.max_terms} terms")
                elif whole:
                    out[r] = complex(sums[i, w - 1])
                else:
                    out[r] = NonDecayingSumError(
                        f"{what} did not meet the tail criterion in {ctx.max_terms} terms")
            if not going:
                return out
            # what the next chunk carries, copied off work arrays (it reuses them)
            carry = going if lend or len(going) < len(live) else slice(None)
            t, total = seq[carry, -1:], sums[carry, -1:]
            scale, prior = scales[carry, -1:], small[carry, -2:]
        finally:
            _reclaim(mark)
        if len(going) < len(live):
            live, ends = [live[i] for i in going], [ends[i] for i in going]
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


def _factor_counts(mags: np.ndarray, ctx: QContext) -> np.ndarray:
    """The number of k with |a| |q|^k >= tail_tol for each magnitude |a|
    (0 for 0 and NaN): the factors 1 - a q^k of (a)_inf in a product."""
    live = mags >= ctx.tail_tol  # False for 0 and NaN
    counts = np.zeros(mags.shape)
    counts[live] = np.floor(
        (np.log(mags[live]) - math.log(ctx.tail_tol)) / -math.log(abs(complex(ctx.q)))) + 1
    return counts


def _pochhammer_widths(args, ctx: QContext) -> list:
    """The first chunk of each row of ``args`` in :func:`_pochhammer_product`:
    the most factors of any of its arguments, at most ``_CHUNK`` (the widths
    that :func:`_by_blocks` cuts a batch of products by)."""
    counts = _factor_counts(np.abs(np.array(args, dtype=complex)), ctx)
    return np.minimum(counts.max(axis=1, initial=0.0), _CHUNK).astype(int).tolist()


def _pochhammer_product(args, n_num: int, ctx: QContext) -> list:
    """Row r of ``args`` (R, M): prod_{i < n_num} (a_ri)_inf / prod_{i >= n_num}
    (a_ri)_inf, as :func:`qpoch_ratio` computes it, all rows in the same
    columns.  Returns one entry per row: its product, or the error it raises.

    A column past a row's own factor counts holds factors 1 for it, and a
    row refused for a pole takes factors 1 from then on, so each row's
    product is the same as it would be alone, bit for bit.  A chunk of
    columns writes its factors, pole tests and ratios into work arrays of
    one scope (:func:`_lend`, :func:`_work`); only the running product
    leaves it.
    """
    a = np.array(args, dtype=complex)
    q = complex(ctx.q)
    mags = np.abs(a)
    counts = _factor_counts(mags, ctx)
    top = counts.max(initial=0.0)
    cols = int(min(top, ctx.max_terms))
    result = None
    poles: dict[int, PoleError] = {}
    for start in range(0, cols, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK, cols))
        mark = _lend(a.nbytes * len(ks))
        lend = mark is not None  # work arrays (_work) only where this chunk lends them
        try:
            w = np.multiply(a[:, :, None], q**ks,
                            out=_work((*a.shape, len(ks)), complex) if lend else None)
            f = np.subtract(1.0, w, out=_work(w.shape, complex) if lend else None)
            f[np.greater_equal(ks, counts[:, :, None],
                               out=_work(w.shape, bool) if lend else None)] = 1.0
            pole = _vanishing(f[:, n_num:], w[:, n_num:])
            if pole.any():
                for r, j, k in np.argwhere(pole):
                    poles.setdefault(int(r), PoleError(
                        f"denominator q-Pochhammer factor vanishes: arg={w[r, n_num + j, k]}"))
                f[list(poles)] = 1.0
            ratios = np.multiply.reduce(f[:, :n_num], axis=1,
                                        out=_work((len(a), len(ks)), complex) if lend else None)
            ratios /= np.multiply.reduce(f[:, n_num:], axis=1,
                                         out=_work(ratios.shape, complex) if lend else None)
            # the running product over k, left to right from 1 (1 z == z exactly)
            if result is not None:
                ratios = np.concatenate((result[:, None], ratios), axis=1, out=_work(
                    (len(a), len(ks) + 1), complex) if lend else None)
            result = np.multiply.reduce(ratios, axis=1)
        finally:
            _reclaim(mark)
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
