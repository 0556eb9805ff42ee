"""Closed-form solution families (Jackson integrals and series), residual
verification, and the relation checks among the integrals.

Integral evaluators sum Jordan-Pochhammer integrands over q-grids with
:func:`_grid_sum`, for one-sided and bilateral endpoints alike, one row per
grid start and many rows in one batch, summed in blocks of bounded size: the
integrands at the grid starts are one row-wise Pochhammer-ratio evaluation
a block, and each direction of the grids is a term-ratio sum of the series
kernel of :mod:`qhyp.qcore` (chunked, stopped row by row by its tail rule),
with the grid weights t^alpha w(t) applied per chunk.  Zeros and poles on a
grid are refused up front, row by row, by the one zero test of
:mod:`qhyp.qcore`, which scans each distinct argument of a batch once.

Every handle gives its values through one call, :meth:`SolutionHandle.read`,
which takes many points and returns one value or error per point; calling a
handle reads one point.  Values are kept by point in :class:`SeriesTable`
memos, which store an error like a value, so every read of a failing point
returns its error.  A table's missing values are computed by one fill
(:func:`_fill`), over as many tables as there are to fill: the rows of all
their missing points first, then one Pochhammer batch per prefactor shape
and one kernel batch per kernel and series shape, each summed block by
block.  A job fills every label's handle once, before it measures any
(:func:`fill`, the CLI's label loop); a handle's own read is the one-handle
fill.  Every row is independent of its batch, so each value equals the
one-point evaluator's bit for bit, whatever shares its fill.

Each integral solution is the difference of two single-endpoint integrals of
one integrand.  A :class:`JacksonTable` holds those of one parameter tuple,
one memo per integrand and endpoint, so the pair labels of a job that share
an endpoint and a sample point share its grid sum; a fill sums all the
missing endpoints of an integrand in one grid batch a side, the bilateral
endpoint apart.  A lone lookup (``phi3`` and its siblings) is the one-point
read, with the same value bit for bit, and one given no table uses a
throwaway one.

A series handle keeps a memo of its own values, which its row's ``values``
(its family's ``_*_table``) makes from the row: the catalogue formula runs
per point and gives its lead factor, Pochhammer prefactor and
:func:`qhyp.qseries._phi_rows` or ``_w87_rows`` row.

The catalogue is :data:`CATALOGUE`, one :class:`Solution` record per label
(end of the module): the operator a label solves, its endpoint pair and
:class:`Integrand` (which says whether it is reflected) or its series
formula in Gasper & Rahman's notation and table builder, its domain,
sampling scale and the parameter condition under which it holds.
Handles, :func:`all_labels`, the samplers and the CLI read these records,
and a label that is not a key of the catalogue is refused with ValueError.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import DomainError, PoleError, UnsupportedCaseError
from .equations import (
    BUILDERS,
    HeineParams,
    Params2,
    Params3,
    build_e3,
    e_sym,
    qpow,
)
from .opalgebra import QDiffOperator
from .qcore import (
    QContext,
    _by_blocks,
    _one,
    _pochhammer_product,
    _pochhammer_widths,
    _quotient,
    _ratio_sum,
    _row_plans,
    _termination_order,
    qpoch_ratio,
)
from .qseries import PhiSpec, _phi_rows, _w87_rows, phi


# -- endpoints --------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    """Admissible integration endpoint of the solution theorems.

    tag: one of "q_over_a", "q_over_Ax", "b", "Bx", "zero", "sigma_infinity";
    index selects a_i / b_i; value carries the free constant of the bilateral
    endpoint.
    """

    tag: str
    index: int = 0
    value: complex = 1.0

    @classmethod
    def q_over_a(cls, i: int) -> "Endpoint":
        return cls("q_over_a", i)

    @classmethod
    def q_over_Ax(cls) -> "Endpoint":
        return cls("q_over_Ax")

    @classmethod
    def b(cls, i: int) -> "Endpoint":
        return cls("b", i)

    @classmethod
    def Bx(cls) -> "Endpoint":
        return cls("Bx")

    @classmethod
    def zero(cls) -> "Endpoint":
        return cls("zero")

    @classmethod
    def sigma_inf(cls, sigma: complex = 1.3) -> "Endpoint":
        return cls("sigma_infinity", value=sigma)

    def resolve(self, p, x: complex, ctx: QContext) -> complex:
        q = complex(ctx.q)
        if self.tag == "q_over_a":
            return q / complex(getattr(p, f"a{self.index}"))
        if self.tag == "q_over_Ax":
            return q / (complex(p.A) * complex(x))
        if self.tag == "b":
            return complex(getattr(p, f"b{self.index}"))
        if self.tag == "Bx":
            return complex(p.B) * complex(x)
        if self.tag == "sigma_infinity":
            return complex(self.value)
        raise ValueError(f"endpoint {self.tag} has no finite resolution")


# -- Jordan-Pochhammer Jackson sums -------------------------------------------------


def _grid_sum(
    taus: Sequence[complex],
    nums: Sequence[Sequence[complex]],
    dens: Sequence[Sequence[complex]],
    ctx: QContext,
    alpha: complex = 0.0,
    weighted: bool = True,
    bilateral: bool = False,
) -> list:
    """Row r: (1-q) sum over the grid t = tau_r q^n of  t^alpha w(t) F_r(t),
    F_r(t) = prod_i (n_ri t)_inf / prod_j (d_rj t)_inf,  with w = t for the
    plain measure (weighted) and w = 1 for dq t / t; one row per grid start
    ``taus[r]``, with its arguments ``nums[r]`` and ``dens[r]``.

    Returns one entry per row: its sum, or the error it raises.  The batch
    is planned and tested once, before it is cut: each row's plans upwards
    and, bilateral, downwards (:func:`qhyp.qcore._row_plans`), and its
    refusal tests below.  The rows are then summed in blocks cut by their
    upward plans (:func:`qhyp.qcore._by_blocks`, at most
    ``qcore._BATCH_BYTES`` of complex factors in a block's first chunk: the
    54 rows of a ``thmint2`` integrand's one-sided batch make one block), so
    the working set of a batch does not grow with its rows, and a block only
    runs the kernels.  Each row's value is the same, bit for bit, whatever
    rows share the batch (a scalar caller passes one row): the weights
    multiply the terms by an explicit ``np.multiply``, because numpy may
    compute ``F * temporary`` in place as ``temporary * F`` once the
    temporary reaches 256 KiB, and a complex product with a fused
    multiply-add differs in its last bits when its operands are swapped.

    One-sided sums run n >= 0; the bilateral version adds the n < 0 tail and
    needs equally many numerator and denominator arguments.  The seeds
    F_r(tau_r) are one row-wise Pochhammer-ratio evaluation a block, whose
    errors come before the refusals; each direction is then a term-ratio
    sum of the series kernel of :mod:`qhyp.qcore`, with the step ratios
    F(t q) / F(t) = prod (1 - d_j t) / prod (1 - n_i t) and the weights
    t^alpha w(t) applied per chunk.
    t^alpha is exp(alpha (log tau + n log q)), single-valued along the grid.
    A row whose tau is 0 sums to 0.

    Zeros: F is zero on an ascending run of the grid that ends where a
    factor 1 - n_i t vanishes, and the recurrence cannot step out of it.  Such
    a run always holds the grid start, so a seed that is exactly zero, or an
    argument n_i tau that is q^-k to rounding (:func:`_termination_order`,
    each distinct argument scanned once a batch), is refused up front
    (UnsupportedCaseError).  Descending, a vanishing numerator factor makes
    the rest of the tail exactly zero, which the tail rule ends; a vanishing
    denominator factor anywhere within the budget is a pole (PoleError, also
    up front, raised by a row whose upward sum succeeds).
    """
    q = complex(ctx.q)
    alpha = complex(alpha)
    taus = np.array(taus, dtype=complex)
    nums = np.array(nums, dtype=complex).reshape(len(taus), -1)
    dens = np.array(dens, dtype=complex).reshape(len(taus), -1)
    n_num = nums.shape[1]
    log_q = cmath.log(q)
    # upwards the step ratio tends to q^(alpha + 1) (weighted) or q^alpha
    rate = cmath.exp((alpha + (1 if weighted else 0)) * log_q)
    what = "Jackson sum"
    live = np.flatnonzero(taus != 0)
    nd = np.hstack((nums, dens))
    dn = np.hstack((dens, nums)).T[:, :, None]
    starts = nd * taus[:, None]
    log_tau = np.zeros(len(taus), dtype=complex)
    log_tau[live] = np.log(taus[live])
    # per live row, before the batch is cut: its plan upwards; whether it is
    # refused, for a numerator argument that is q^-k at its grid start, or,
    # descending, for a denominator pole (q/t - d_j at t = tau q^-n vanishes
    # where 1 - (q / (tau d_j)) q^n does); and its rate and plan downwards
    plans = _row_plans([(rate, reach, None, None) for reach in np.abs(starts[live]).max(axis=1)],
                       ctx, what)
    orders: dict = {}
    vanishing = [_termination_order(start, ctx, orders) is not None
                 for start in starts[live, :n_num].tolist()]
    if bilateral:
        poles = [_termination_order(c, ctx, orders) is not None
                 for c in (q / (taus[live, None] * dens[live])).tolist()]
        rates = np.prod(nums[live], axis=1) / np.prod(dens[live], axis=1) / rate
        reaches = np.abs(q * q / (taus[live, None] * nd[live])).max(axis=1)
        down_plans = _row_plans([(r, reach, None, None) for r, reach in zip(rates, reaches)],
                                ctx, what)

    # the rows below are indices into taus; the step factors take ``column``
    # bytes a column of a row
    column = nd.shape[1] * starts.itemsize

    def weigh(rows: Sequence[int], ns: np.ndarray, F: np.ndarray) -> np.ndarray:
        if alpha != 0:
            F = np.multiply(F, np.exp(np.multiply(alpha, log_tau[rows, None] + ns * log_q)))
        return np.multiply(F, taus[rows, None] * q**ns) if weighted else F

    def up(rows: Sequence[int], ns: np.ndarray) -> np.ndarray:
        """F(t q) / F(t) at t = tau q^n."""
        return _quotient(1.0 - dn[:, rows] * (taus[rows, None] * q**ns), dens.shape[1])

    def down(rows: Sequence[int], ns: np.ndarray) -> np.ndarray:
        """F(t / q) / F(t) at t = tau q^n.  1 - c t/q = (t/q) (q/t - c): the
        powers of t/q cancel between numerator and denominator, and q/t
        underflows harmlessly."""
        return _quotient(q / (taus[rows, None] * q**ns) - nd.T[:, rows, None], n_num)

    def block(ks: list) -> list:
        """The sums of the live rows ``ks`` (indices into ``live``): only
        the kernels run here, on the rows the refusals above leave."""
        value = _pochhammer_product(starts[live[ks]], n_num, ctx)
        for i, k in enumerate(ks):
            if not isinstance(value[i], Exception) and (value[i] == 0 or vanishing[k]):
                value[i] = UnsupportedCaseError(
                    f"integrand vanishes at the grid start {complex(taus[live[k]])}")
        good = [i for i, v in enumerate(value) if not isinstance(v, Exception)]
        if not good:
            return value
        seed, up_ks = np.array([value[i] for i in good]), [ks[i] for i in good]
        at = live[up_ks]
        sums = _ratio_sum(seed, lambda sub, ns: up(at[sub], ns), ctx, [rate] * len(good), what,
                          weigh=lambda sub, ns, F: weigh(at[sub], ns, F),
                          plans=[plans[k] for k in up_ks], column=column)
        if bilateral:
            for i, k in enumerate(up_ks):
                if not isinstance(sums[i], Exception) and poles[k]:
                    sums[i] = PoleError("integrand pole on the descending grid")
            on = [i for i, v in enumerate(sums) if not isinstance(v, Exception)]
            down_ks = [up_ks[i] for i in on]
            down_at = live[down_ks]
            tails = _ratio_sum(
                seed[on] * down(down_at, np.array([0]))[:, 0],
                lambda sub, js: down(down_at[sub], -1 - js), ctx, rates[down_ks], what,
                weigh=lambda sub, js, F: weigh(down_at[sub], -1 - js, F),
                plans=[down_plans[k] for k in down_ks], column=column)
            for i, v in zip(on, tails):
                sums[i] = v if isinstance(v, Exception) else sums[i] + v
        for i, v in zip(good, sums):
            value[i] = v if isinstance(v, Exception) else (1.0 - q) * v
        return value

    out: list = [0.0 + 0.0j] * len(taus)
    entries = _by_blocks(block, list(range(len(live))), column, [plan[0] for plan in plans])
    for r, v in zip(live, entries):
        out[r] = v
    return out


# -- integral solution families -------------------------------------------------------


@dataclass(frozen=True)
class Integrand:
    """One Jordan-Pochhammer integrand of the integral rows of the catalogue.

    Called as ``integrand(p, points, ctx)``, it gives the single-endpoint
    Jackson integrals of the tuple p at many points, (endpoint, x) pairs: one
    grid row and one entry each, a value or the error its row raises.  The
    one-sided endpoints make one :func:`_grid_sum` batch and the bilateral
    endpoint one more, the only one that sums the descending grid too; the
    endpoint 0 adds nothing.

    args(p, q, x): the arguments (n, d) of F(t) = prod (n_i t)_inf /
        prod (d_j t)_inf at x.
    reflected: an integral solution of a reflected integrand is x^lambda
        times its difference of integrals (:func:`_differences`).
    alpha(p), weighted: the grid weights t^alpha w(t) of :func:`_grid_sum`.
    """

    args: Callable
    reflected: bool = False
    alpha: Callable = lambda p: 0.0
    weighted: bool = True

    def __call__(self, p, points: Sequence[tuple[Endpoint, complex]], ctx: QContext) -> list:
        q = complex(ctx.q)
        out: list = [0.0 + 0.0j] * len(points)
        for bilateral in (False, True):
            rows = [i for i, (e, _) in enumerate(points)
                    if e.tag != "zero" and (e.tag == "sigma_infinity") == bilateral]
            if rows:
                taus = [points[i][0].resolve(p, points[i][1], ctx) for i in rows]
                nums, dens = zip(*[self.args(p, q, points[i][1]) for i in rows])
                sums = _grid_sum(taus, nums, dens, ctx, alpha=self.alpha(p),
                                 weighted=self.weighted, bilateral=bilateral)
                for i, v in zip(rows, sums):
                    out[i] = v
        return out


_phi3_single = Integrand(lambda p, q, x: ((p.A * x, p.a1, p.a2, p.a3), (p.B * x, p.b1, p.b2, p.b3)))
_phi3_tilde_single = Integrand(
    lambda p, q, x: ((q / (p.B * x), q / p.b1, q / p.b2, q / p.b3),
                     (q / (p.A * x), q / p.a1, q / p.a2, q / p.a3)), reflected=True)
_phi2_single = Integrand(lambda p, q, x: ((p.A * x, p.a1, p.a2), (p.B * x, p.b1, p.b2)),
                         alpha=lambda p: p.alpha, weighted=False)
_phi2_tilde_single = Integrand(
    lambda p, q, x: ((q / (p.B * x), q / p.b1, q / p.b2), (q / (p.A * x), q / p.a1, q / p.a2)),
    reflected=True)


class SeriesTable:
    """The values of one function at many points, each computed once: a
    series label's values, or one integrand and endpoint of a
    :class:`JacksonTable`.

    ``terms(x)`` gives the row of x: (lead, prefactor, args), where lead is
    a factor or None, prefactor the (numerators, denominators) of a
    Pochhammer ratio or None, and args the row of ``kernel``, a batch
    function ``kernel(rows, ctx)`` with one value or error per row
    (:func:`qhyp.qseries._phi_rows` or ``_w87_rows`` of a series, or a
    Jackson integrand of its (endpoint, x)).  The rows of one table have one
    shape: a prefactor or none, and the same numbers of numerators and
    denominators in each.  The value at x is lead * ratio * kernel value,
    multiplied left to right, where an absent (None) factor is skipped, not
    taken as 1; or the error that evaluating x alone raises first: that of
    ``terms``, then the prefactor's, then the kernel's.

    :func:`_fill` computes the missing points of many tables together, and
    :meth:`read` is its one-table case.  Points are compared by value.  An
    error is stored like a value, and every read of its point returns it.
    """

    __slots__ = ("terms", "kernel", "ctx", "_values")

    def __init__(self, terms: Callable[[Any], tuple], kernel: Callable, ctx: QContext):
        self.terms = terms
        self.kernel = kernel
        self.ctx = ctx
        self._values: dict = {}

    def read(self, xs: Sequence) -> list:
        """The value or error at each x of ``xs``."""
        _fill([(self, xs)])
        return self.stored(xs)

    def stored(self, xs: Sequence) -> list:
        """The value or error at each x of ``xs``, all of them filled."""
        return [self._values[x] for x in xs]


def _shape(args: tuple) -> tuple:
    """The lengths of the parameter lists of a kernel row: rows of one
    kernel and shape make one batch."""
    return tuple([len(a) for a in args if isinstance(a, (list, tuple))])


def _fill(requests: Sequence[tuple[SeriesTable, Sequence]]) -> None:
    """Compute the missing values of every (table, points) request at once.

    The rows of all the missing points come first, table by table in
    request order.  Then the prefactors are one Pochhammer batch per context
    and shape, summed block by block (:func:`qhyp.qcore._by_blocks`), and
    the kernel rows one call per kernel (the same object), context and shape
    (:func:`qhyp.qseries._phi_rows` and ``_w87_rows`` block their rows the
    same way, and a Jackson integrand makes one :func:`_grid_sum` batch a
    side).  Every row is independent of its batch, so each value equals the
    one-point value bit for bit, whatever else the fill computes."""
    rows = []  # (table, x, lead, prefactor, args) of each missing point, once
    queued: dict = {}  # table -> its points in rows
    prefactors: dict = {}  # (ctx, numerators, denominators) -> indices into rows
    batches: dict = {}  # (kernel, ctx, shape) -> indices into rows
    for table, xs in requests:
        known, seen = table._values, queued.setdefault(table, set())
        first = len(rows)
        for x in xs:
            if x in known or x in seen:
                continue
            try:
                rows.append((table, x, *table.terms(x)))
                seen.add(x)
            except (DomainError, ArithmeticError, ValueError) as exc:
                known[x] = exc  # as evaluating x alone raises it
        if len(rows) > first:  # the rows of a table share their shapes
            _, _, _, prefactor, args = rows[first]
            batches.setdefault((table.kernel, table.ctx, _shape(args)), []).extend(
                range(first, len(rows)))
            if prefactor is not None:
                prefactors.setdefault((table.ctx, *map(len, prefactor)), []).extend(
                    range(first, len(rows)))
    ratios: list = [None] * len(rows)
    for (ctx, n_num, n_den), members in prefactors.items():
        args = [[*rows[i][3][0], *rows[i][3][1]] for i in members]
        column = (n_num + n_den) * np.dtype(complex).itemsize
        for i, ratio in zip(members, _by_blocks(
                lambda block: _pochhammer_product(block, n_num, ctx), args, column,
                lambda: _pochhammer_widths(args, ctx))):
            ratios[i] = ratio
    values: list = [None] * len(rows)
    for (kernel, ctx, _), members in batches.items():
        for i, value in zip(members, kernel([rows[i][4] for i in members], ctx)):
            values[i] = value
    for (table, x, lead, _, _), ratio, value in zip(rows, ratios, values):
        if isinstance(ratio, Exception) or isinstance(value, Exception):
            table._values[x] = ratio if isinstance(ratio, Exception) else value
            continue
        factor = lead
        if ratio is not None:
            factor = ratio if factor is None else factor * ratio
        table._values[x] = value if factor is None else factor * value


class JacksonTable:
    """The single-endpoint Jackson integrals of one parameter tuple under one
    context, each computed once; meant to live for one job.

    Each integrand and endpoint has a :class:`SeriesTable` of its values at
    the points x (:meth:`entry`): the integrand is one of the ``_*_single``
    helpers above, the endpoint carries the free constant of the bilateral
    endpoint, and x is compared by value.  The entries of one integrand
    share one kernel, so a fill sums all their missing points together; a
    point whose integral raises stores its error, which every read of it
    returns.
    """

    __slots__ = ("params", "ctx", "_tables", "_kernels")

    def __init__(self, params, ctx: QContext):
        self.params = params
        self.ctx = ctx
        self._tables: dict[tuple, SeriesTable] = {}
        self._kernels: dict[Callable, Callable] = {}

    def entry(self, single: Callable, e: Endpoint) -> SeriesTable:
        """The table of the integrals single(params, [(e, x)], ctx) over x."""
        table = self._tables.get((single, e))
        if table is None:
            kernel = self._kernels.setdefault(single, functools.partial(single, self.params))
            table = self._tables[single, e] = SeriesTable(
                lambda x: (None, None, (e, x)), kernel, self.ctx)
        return table


def _table_for(p, ctx: QContext, table: JacksonTable | None) -> JacksonTable:
    if table is None:
        return JacksonTable(p, ctx)
    if table.params != p or table.ctx != ctx:
        raise ValueError("the Jackson table belongs to another parameter tuple or context")
    return table


def _differences(table: JacksonTable, single: Integrand, e1: Endpoint, e2: Endpoint,
                 xs: Sequence[complex]) -> list:
    """Entry i: single(e2) - single(e1) at ``xs[i]`` from the table, times
    x^lambda (principal branch) if ``single`` is reflected; or the error of
    e2's integral there, else e1's.  The missing integrals of both
    endpoints are computed first, in one fill, and then looked up."""
    if e1 == e2:
        return [0.0 + 0.0j] * len(xs)
    low, high = table.entry(single, e1), table.entry(single, e2)
    _fill([(low, xs), (high, xs)])
    lows, highs = low.stored(xs), high.stored(xs)
    lam = table.params.lam(table.ctx) if single.reflected else None
    out = []
    for x, low, high in zip(xs, lows, highs):
        if isinstance(high, Exception) or isinstance(low, Exception):
            out.append(high if isinstance(high, Exception) else low)
            continue
        value = high - low
        out.append(value if lam is None else cmath.exp(lam * cmath.log(complex(x))) * value)
    return out


def phi3(p: Params3, t1: Endpoint, t2: Endpoint, x: complex, ctx: QContext,
         table: JacksonTable | None = None) -> complex:
    """Difference of two one-sided Jackson integrals of the degree-three
    Jordan-Pochhammer integrand between admissible endpoints."""
    table = _table_for(p, ctx, table)
    return _one(_differences(table, _phi3_single, t1, t2, [x]))


def phi3_tilde(p: Params3, s1: Endpoint, s2: Endpoint, x: complex, ctx: QContext,
               table: JacksonTable | None = None) -> complex:
    """x^lambda times the reflected-integrand Jackson integral between
    admissible sigma-endpoints."""
    table = _table_for(p, ctx, table)
    return _one(_differences(table, _phi3_tilde_single, s1, s2, [x]))


def phi2(p: Params2, t1: Endpoint, t2: Endpoint, x: complex, ctx: QContext,
         table: JacksonTable | None = None) -> complex:
    """Degree-two integral solution: t^alpha measure dq t / t, endpoints may
    include 0 (which contributes nothing)."""
    table = _table_for(p, ctx, table)
    return _one(_differences(table, _phi2_single, t1, t2, [x]))


def phi2_tilde(p: Params2, s1: Endpoint, s2: Endpoint, x: complex, ctx: QContext,
               table: JacksonTable | None = None) -> complex:
    """Degree-two reflected integral; the sigma-infinity endpoint uses the
    bilateral Jackson sum."""
    table = _table_for(p, ctx, table)
    return _one(_differences(table, _phi2_tilde_single, s1, s2, [x]))


# -- series solutions -----------------------------------------------------------------
#
# A series row of the catalogue (end of the module) keeps its formulas as a
# function of its family's variables, and its family's ``_*_table`` below as
# its ``values``: called with the row, the tuple and the context, it gives the
# label's :class:`SeriesTable`, whose ``terms`` compute those variables at a
# point and read the row: the point's lead factor, prefactor and series.  The
# one-point evaluators (``e3_series``, ``e2_series``, ``heine_solution``,
# ``heine_extra``) look their row up once and read one point of a fresh
# table; what a label is lives in its row alone.


def _gr_terms(a: complex, b: complex, cd: tuple[complex, complex],
              efg: tuple[complex, complex, complex], h: complex, q: complex) -> tuple:
    """(lead, prefactor, W(8,7) arguments) of the series side of the
    Jackson-integral <-> very-well-poised correspondence

        int_a^b (qt/a, qt/b, ct, dt)_inf / (et, ft, gt, ht)_inf dq t
        = b (1-q) (q, bq/a, a/b, cd/eh, cd/fh, cd/gh, bc, bd)_inf
          / (ae, af, ag, be, bf, bg, bh, bcd/h)_inf
          * W(bcd/(h q); be, bf, bg, c/h, d/h; a h),

    valid for balanced data cd = ab efg h and |a h| < 1.
    """
    c, d = cd
    e, f, g = efg
    return (b * (1.0 - q),
            ([q, b * q / a, a / b, c * d / (e * h), c * d / (f * h), c * d / (g * h),
              b * c, b * d],
             [a * e, a * f, a * g, b * e, b * f, b * g, b * h, b * c * d / h]),
            (b * c * d / (h * q), b * e, b * f, b * g, c / h, d / h, a * h))


def _e3_table(row: Solution, p: Params3, ctx: QContext) -> SeriesTable:
    """The values of the ``thmser3`` row at any points: the row's formula
    gives the GR role assignment (a, b, {c,d}, {e,f,g}, h) at each."""
    q = complex(ctx.q)

    def terms(x):
        a, b, cd, efg, h = row.formula(q, p.A * x, p.B * x, p)
        if abs(a * h) >= 1.0:
            raise DomainError(f"series {row.index}: |a h| = {abs(a*h):.4g} >= 1 at x = {x}")
        return _gr_terms(a, b, cd, efg, h, q)
    return SeriesTable(terms, _w87_rows, ctx)


def e3_series(p: Params3, which: int, x: complex, ctx: QContext) -> complex:
    """One of the six very-well-poised series solutions of the degree-three
    equation, normalized to equal its corresponding endpoint-pair integral."""
    return _one(_e3_table(_row(f"thmser3.{which}"), p, ctx).read([x]))


def _e2_table(row: Solution, p: Params2, ctx: QContext) -> SeriesTable:
    """The values of the ``thmser2`` row at any points."""
    q = complex(ctx.q)
    qa, formula = qpow(q, p.alpha), row.formula
    return SeriesTable(
        lambda x: (None, *formula(q, qa, complex(x), p.alpha, p.a1, p.a2, p.b1, p.b2, p.A, p.B)),
        _phi_rows, ctx)


def e2_series(p: Params2, which: int, x: complex, ctx: QContext) -> complex:
    """One of the six catalogued 3phi2 series solutions of the degree-two
    equation."""
    return _one(_e2_table(_row(f"thmser2.{which}"), p, ctx).read([x]))


def e2_series_limit_target(p: Params2, x: complex, ctx: QContext) -> complex:
    """Term-by-term limit of the first degree-three series under
    b3 = q^(alpha-1) a3, a3 -> infinity:

        (qAx/a2)_inf/(qBx/a2)_inf
          * 3phi2(q b1/a2, q b2/a2, A/B; q^(1-alpha) A/B, qAx/a2; q).

    A solution of the degree-two equation exactly when the series terminates
    (q b1/a2 in q^{-Z>=0}); used by the degeneration checks in that regime.
    """
    q = complex(ctx.q)
    pref = qpoch_ratio([q * p.A * x / p.a2], [q * p.B * x / p.a2], ctx)
    return pref * phi(PhiSpec([q * p.b1 / p.a2, q * p.b2 / p.a2, p.A / p.B],
                              [qpow(q, 1 - p.alpha) * p.A / p.B, q * p.A * x / p.a2],
                              q), ctx)


def e3_to_e2_series_deviation(
    p2: Params2, x1: complex, x2: complex, ell: float, ctx: QContext
) -> float:
    """Deviation from proportionality between the first degree-three series
    (a3 = ell, b3 = q^(alpha-1) a3) and its degree-two limit target,
    measured as |r(x1)/r(x2) - 1| with r = series/target.

    Meaningful in the terminating regime A/B in q^{-Z>0}, where the
    term-by-term limit is the sum limit; the x-free normalization of the
    degree-three series does not itself converge, hence the two-point ratio.
    """
    q = complex(ctx.q)
    p3 = Params3(p2.a1, p2.a2, ell, p2.b1, p2.b2,
                 qpow(q, p2.alpha - 1) * ell, p2.A, p2.B)
    r1 = e3_series(p3, 1, x1, ctx) / e2_series_limit_target(p2, x1, ctx)
    r2 = e3_series(p3, 1, x2, ctx) / e2_series_limit_target(p2, x2, ctx)
    return abs(r1 / r2 - 1.0)


def e2_series_scale(p: Params2, ctx: QContext) -> float:
    q = abs(complex(ctx.q))
    return min(abs(p.a1), abs(p.a2)) / (q * abs(p.B))


def _heine_exponents(p: HeineParams, ctx: QContext):
    lq = cmath.log(complex(ctx.q))
    return (cmath.log(complex(p.a)) / lq,
            cmath.log(complex(p.b)) / lq,
            cmath.log(complex(p.c)) / lq)


def _heine_table(row: Solution, p: HeineParams, ctx: QContext) -> SeriesTable:
    """The values of the ``heine`` row at any points."""
    q = complex(ctx.q)
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    power = None if row.exponent is None else complex(row.exponent(*_heine_exponents(p, ctx)))

    def terms(z):
        z = complex(z)
        lead = None if power is None else cmath.exp(power * cmath.log(z))
        return (lead, *row.formula(a, b, c, q, z, a * b * z / c))
    return SeriesTable(terms, _phi_rows, ctx)


def heine_solution(p: HeineParams, which: int, z: complex, ctx: QContext) -> complex:
    """One of the 32 catalogued series solutions of the q-hypergeometric
    equation of Heine type; exponent prefactors use principal branches."""
    return _one(_heine_table(_row(f"heine.{which}"), p, ctx).read([z]))


def _heine_extra_table(row: Solution, p: HeineParams, ctx: QContext) -> SeriesTable:
    """The values of the ``heine_extra`` row at any points."""
    q = complex(ctx.q)
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    return SeriesTable(lambda z: (None, *row.formula(a, b, c, q, complex(z))), _phi_rows, ctx)


def heine_extra(p: HeineParams, which: int, z: complex, ctx: QContext) -> complex:
    """The two additional catalogued solutions: the terminating 3phi1 form
    (formal otherwise) and the integral-analog series behind the
    transformation formula."""
    return _one(_heine_extra_table(_row(f"heine_extra.{which}"), p, ctx).read([z]))


# -- verification utilities ---------------------------------------------------------


@dataclass
class SolutionHandle:
    """A named evaluable solution: label, ``read``, positive-axis sampling
    interval and scale, claimed operator and its T-power range.  ``read``
    gives the value at each of many points in one call, or the error
    evaluating there raises, computing what they need in one fill: a series
    handle's values from its :class:`SeriesTable`, an integral handle's from
    its two :class:`JacksonTable` entries per point.  ``tables`` are the
    tables ``read`` takes its values from, which :func:`fill` fills for many
    handles at once (none for a handle whose ``read`` is its own).  Calling
    the handle reads one point and raises its error."""

    label: str
    read: Callable[[Sequence[complex]], list]
    interval: tuple[float, float]
    equation: QDiffOperator
    params: object
    scale: float = 1.0
    tables: tuple[SeriesTable, ...] = ()

    def domain(self, x: complex) -> bool:
        lo, hi = self.interval
        return lo < abs(x) < hi

    def __call__(self, x: complex) -> complex:
        return _one(self.read([x]))


def residual_points(op: QDiffOperator, handle: SolutionHandle,
                    xs: Sequence[complex]) -> list[complex]:
    """The points x q^j at which :func:`residual` reads ``handle``: for each
    sample point x in order, one per T-power j of ``op``, ascending.  Raises
    DomainError, before anything is read, if one is outside the handle's
    domain."""
    powers = [op.q**j for j in range(op.t_min, op.t_max + 1)]
    points = [qj * complex(x) for x in xs for qj in powers]
    bad = [y for y in points if not handle.domain(y)]
    if bad:
        raise DomainError(f"points outside the solution domain: {sorted(set(map(abs, bad)))}")
    return points


def residual(
    op: QDiffOperator,
    handle: SolutionHandle,
    xs: Sequence[complex],
    ctx: QContext,
    points: Sequence[complex] | None = None,
) -> float:
    """Max over sample points of |sum of operator terms| relative to the sum
    of term magnitudes (backward-error style; floor keeps zeros harmless).

    The handle gives its values at every point x q^j in one read before the
    loop over the sample points: at ``points``, the caller's
    :func:`residual_points` of ``op``, ``handle`` and ``xs`` (the CLI has
    them from its first pass), else at those computed here.  The terms
    a_ij x^i f(x q^j) are then formed and added in coefficient order, and
    the first error among them, sample point by sample point, is raised."""
    shifts = range(op.t_min, op.t_max + 1)
    if points is None:
        points = residual_points(op, handle, xs)
    values, width = handle.read(points), len(shifts)
    terms_of = [(i, j - shifts.start, c) for (i, j), c in op.coeffs.items()]
    worst = 0.0
    for k, x in enumerate(xs):
        x = complex(x)
        row = values[k * width:(k + 1) * width]
        terms = []
        for i, j, c in terms_of:
            if isinstance(row[j], Exception):
                raise row[j].with_traceback(None)
            terms.append(c * x**i * row[j])
        num = abs(sum(terms))
        den = sum(abs(t) for t in terms) + 1e-30
        worst = max(worst, num / den)
    return worst


def check_intcalcu(p: Params3, endpoint: Endpoint, x: complex, ctx: QContext) -> float:
    """Deviation of the single-endpoint Jackson integral from its known
    operator image: (1-q) q (A-B) x^2 on the tau side and
    (1-q) q^{-1} (B-A) a1 a2 a3 / B x^(lambda+1) on the sigma side.

    Normalized backward-error style against the operator's term magnitudes
    plus the target, consistently with :func:`residual`.
    """
    q = complex(ctx.q)
    op = build_e3(p, ctx)
    if endpoint.tag in ("q_over_a", "q_over_Ax"):
        def F(y: complex) -> complex:
            return _one(_phi3_single(p, [(endpoint, y)], ctx))
        terms = op.apply_terms(F, x)
        target = (1.0 - q) * q * (p.A - p.B) * complex(x) ** 2
    elif endpoint.tag in ("b", "Bx"):
        lam = p.lam(ctx)

        def F(y: complex) -> complex:
            pref = cmath.exp(lam * cmath.log(complex(y)))
            return pref * _one(_phi3_tilde_single(p, [(endpoint, y)], ctx))
        terms = op.apply_terms(F, x)
        # the a1 a2 a3 / B factor is forced by expanding the integral at the
        # moving endpoint: the x^(lam+1) coefficient is
        # q^-(lam+1) L0(q^(lam+1)) (1-q) B / (1 - q B/A)
        target = ((1.0 - q) / q * (p.B - p.A) * e_sym(p.a_list(), 3) / p.B
                  * cmath.exp((lam + 1) * cmath.log(complex(x))))
    else:
        raise ValueError(f"endpoint {endpoint.tag} not admissible here")
    scale = sum(abs(t) for t in terms) + abs(target)
    return abs(sum(terms) - target) / scale


def cocycle_check(
    p: Params3, t1: Endpoint, t2: Endpoint, t3: Endpoint, x: complex, ctx: QContext,
    table: JacksonTable | None = None,
) -> float:
    """|phi(t1,t2) + phi(t2,t3) + phi(t3,t1)| relative to the largest term."""
    table = _table_for(p, ctx, table)
    v12 = phi3(p, t1, t2, x, ctx, table)
    v23 = phi3(p, t2, t3, x, ctx, table)
    v31 = phi3(p, t3, t1, x, ctx, table)
    scale = max(abs(v12), abs(v23), abs(v31), 1e-300)
    return abs(v12 + v23 + v31) / scale


def incidence_matrix() -> np.ndarray:
    """Coefficients of the four cocycle relations among the six tau-side
    integrals, ordered (12, 13, 23, 1x, 2x, 3x) with x the moving endpoint."""
    return np.array([
        [1, -1, 1, 0, 0, 0],
        [1, 0, 0, -1, 1, 0],
        [0, 1, 0, -1, 0, 1],
        [0, 0, 1, 0, -1, 1],
    ], dtype=float)


_INCIDENCE_TOL = 1e-12


def incidence_rank() -> int:
    svals = np.linalg.svd(incidence_matrix(), compute_uv=False)
    return int((svals > _INCIDENCE_TOL * svals[0]).sum())


def casoratian(
    f: Callable[[complex], complex],
    g: Callable[[complex], complex],
    x: complex,
    ctx: QContext,
) -> float:
    """The relative Casoratian |f(x) g(qx) - f(qx) g(x)| / (|f(x) g(qx)| +
    |f(qx) g(x)|): vanishes identically iff f, g are dependent over the
    pseudo-constants.  A handle is such a function."""
    q = complex(ctx.q)
    u, v = f(x) * g(q * x), f(q * x) * g(x)
    return abs(u - v) / (abs(u) + abs(v) + 1e-300)


# -- the catalogue ------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    """One row of the solution catalogue: everything the library knows about
    one label.

    equation: the operator the row solves, a key of ``equations.BUILDERS``.
    values: series rows only, the function (its family's ``_*_table``)
        that makes the row's values: ``values(row, params, ctx)`` gives the
        :class:`SeriesTable` of the label.
    index: the row's number within its family.
    pair, single: integral rows only, the endpoint pair (the bilateral
        endpoint takes the handle's sigma) and the single-endpoint
        :class:`Integrand` whose difference the row is.
    formula: series rows only, a function of the family's variables.  For
        ``thmser2``, ``heine`` and ``heine_extra`` it gives (prefactor,
        series): prefactor = (numerators, denominators) of a Pochhammer ratio
        in front, or None; series = (numerators, denominators, argument) of
        r_phi_s.  For ``thmser3`` it gives the role assignment
        (a, b, (c, d), (e, f, g), h) of :func:`_gr_terms`.
    exponent: ``heine`` rows only, the power of z in front as a function of
        (alpha, beta, gamma) = log_q (a, b, c), or None.
    domain, scale: (params, ctx) -> the |x| interval on the positive axis
        and the natural |x| scale of sampling.
    condition: (params, q, n) -> the parameters with the row's condition
        imposed, or None.  A zero-slot ``heine`` row holds exactly when its
        relation of order n >= 0 terminates it; the ``heine_extra`` rows need
        a = q^-3 and |a| = 0.55 < 1, and ignore n.
    """

    label: str
    equation: str
    domain: Callable[[Any, QContext], tuple[float, float]]
    scale: Callable[[Any, QContext], float]
    values: Callable | None = None
    index: int = 0
    pair: tuple[Endpoint, Endpoint] | None = None
    single: Integrand | None = None
    formula: Callable | None = None
    exponent: Callable | None = None
    condition: Callable | None = None

    @property
    def family(self) -> str:
        return self.label.partition(".")[0]


def integral_scale(p, ctx: QContext) -> float:
    """Natural |x| scale for the integral families (the pole grids have
    complex-generic bases, so no hard positive-axis window is needed)."""
    q = abs(complex(ctx.q))
    return min(abs(v) for v in p.a_list()) / (q * abs(p.B))


def _integral_rows():
    """thmint3.phi3 over the endpoints q/a1, q/a2, q/a3, q/(Ax) and
    thmint3.tilde over b1, b2, b3, Bx (1..4); thmint2.phi2 over 0, q/a1, q/a2,
    q/(Ax) (0..3) and thmint2.tilde over b1, b2, Bx, sigma*infinity (1..4);
    the label [i,j], i < j, is the integral from endpoint i to endpoint j."""
    families = (
        ("thmint3.phi3", _phi3_single, "e3", 1,
         (Endpoint.q_over_a(1), Endpoint.q_over_a(2), Endpoint.q_over_a(3), Endpoint.q_over_Ax())),
        ("thmint3.tilde", _phi3_tilde_single, "e3", 1,
         (Endpoint.b(1), Endpoint.b(2), Endpoint.b(3), Endpoint.Bx())),
        ("thmint2.phi2", _phi2_single, "e2", 0,
         (Endpoint.zero(), Endpoint.q_over_a(1), Endpoint.q_over_a(2), Endpoint.q_over_Ax())),
        ("thmint2.tilde", _phi2_tilde_single, "e2", 1,
         (Endpoint.b(1), Endpoint.b(2), Endpoint.Bx(), Endpoint.sigma_inf())),
    )
    for name, single, equation, first, ends in families:
        for i, j in itertools.combinations(range(len(ends)), 2):
            yield Solution(f"{name}[{first + i},{first + j}]", equation,
                           lambda p, ctx: (0.0, np.inf),
                           lambda p, ctx: 0.3 * integral_scale(p, ctx),
                           pair=(ends[i], ends[j]), single=single)


def _thmser3(n: int, domain, formula) -> Solution:
    """Degree-three row n: formula(q, A x, B x, params); domain over
    |q|, |A|, |B|, |a1|, |b3|, where the series argument stays in the unit
    disc (pole grids with complex-generic bases miss the positive axis)."""
    return Solution(
        f"thmser3.{n}", "e3",
        lambda p, ctx: domain(abs(complex(ctx.q)), abs(p.A), abs(p.B), abs(p.a1), abs(p.b3)),
        lambda p, ctx: 0.3 * integral_scale(p, ctx), _e3_table, index=n, formula=formula)


def _thmser2(n: int, domain, formula) -> Solution:
    """Degree-two row n: formula(q, q^alpha, x, alpha, a1, a2, b1, b2, A, B);
    domain over |q|, |B|, |a1|, |a2|, where the argument stays in the unit
    disc (the x-free arguments q^alpha and A/B impose nothing on x)."""
    return Solution(
        f"thmser2.{n}", "e2",
        lambda p, ctx: domain(abs(complex(ctx.q)), abs(p.B), abs(p.a1), abs(p.a2)),
        lambda p, ctx: 0.3 * e2_series_scale(p, ctx), _e2_table, index=n, formula=formula)


# |z| intervals of the Heine rows over |a|, |b|, |c|, |q|: series convergence
# (|argument| < 1) and the real pole grid of a (z)_inf denominator where
# present; pole grids with complex-generic bases miss the positive axis.
_HEINE_DOMAINS = {
    "disc": lambda a, b, c, q: (0.0, 1.0),
    "disc_w": lambda a, b, c, q: (0.0, min(1.0, 1.0 / (a * b / c))),
    "plane": lambda a, b, c, q: (0.0, np.inf),
    "outside": lambda a, b, c, q: (c * q / (a * b), np.inf),
    "outside_q": lambda a, b, c, q: (max(q, c * q / (a * b)), np.inf),
}

_Z_POWERS = {
    "1-gamma": lambda alpha, beta, gamma: 1 - gamma,
    "-alpha": lambda alpha, beta, gamma: -alpha,
    "-beta": lambda alpha, beta, gamma: -beta,
}

_TERMINATING = {
    "a=q^-n": lambda p, q, n: HeineParams(q ** (-n), p.b, p.c),
    "b=q^-n": lambda p, q, n: HeineParams(p.a, q ** (-n), p.c),
    "a=q^n+1": lambda p, q, n: HeineParams(q ** (n + 1), p.b, p.c),
    "b=q^n+1": lambda p, q, n: HeineParams(p.a, q ** (n + 1), p.c),
    "c=a*q^-n": lambda p, q, n: HeineParams(p.a, p.b, p.a * q ** (-n)),
    "c=a*q^n+1": lambda p, q, n: HeineParams(p.a, p.b, p.a * q ** (n + 1)),
}


def _moduli(p: HeineParams, ctx: QContext) -> tuple[float, float, float, float]:
    return abs(p.a), abs(p.b), abs(p.c), abs(complex(ctx.q))


def _heine(n: int, power: str | None, domain: str, terminating: str | None, formula,
           scale=lambda a, b, c, q: 1.0) -> Solution:
    """Heine row n: z^power * formula(a, b, c, q, z, w = a b z / c); the
    domain and scale are functions of |a|, |b|, |c|, |q|."""
    interval = _HEINE_DOMAINS[domain]
    return Solution(
        f"heine.{n}", "heine",
        lambda p, ctx: interval(*_moduli(p, ctx)),
        lambda p, ctx: 0.5 * scale(*_moduli(p, ctx)),
        _heine_table, index=n, formula=formula, exponent=power and _Z_POWERS[power],
        condition=terminating and _TERMINATING[terminating])


def _heine_extra(n: int, condition, formula) -> Solution:
    """Extra Heine-type row n: formula(a, b, c, q, z), inside the unit disc."""
    return Solution(f"heine_extra.{n}", "heine", lambda p, ctx: (0.0, 1.0), lambda p, ctx: 0.4,
                    _heine_extra_table, index=n, formula=formula, condition=condition)


_ROWS = (
    *_integral_rows(),
    # degree three: the integral from endpoint i to j as a W(8,7) series
    _thmser3(1, lambda q, A, B, a1, b3: (0.0, a1 / (q * B)),  # argument q B x / a1
             lambda q, Ax, Bx, p: (q / p.a1, q / p.a2, (Ax, p.a3), (p.b1, p.b2, p.b3), Bx)),
    _thmser3(2, lambda q, A, B, a1, b3: (0.0, np.inf),  # argument q b3 / a1, x-free
             lambda q, Ax, Bx, p: (q / p.a1, q / p.a2, (Ax, p.a3), (Bx, p.b1, p.b2), p.b3)),
    _thmser3(3, lambda q, A, B, a1, b3: (0.0, np.inf),  # argument q b3 / a1, x-free
             lambda q, Ax, Bx, p: (q / p.a1, q / Ax, (p.a2, p.a3), (Bx, p.b1, p.b2), p.b3)),
    _thmser3(4, lambda q, A, B, a1, b3: (0.0, a1 / (q * B)),  # argument q B x / a1
             lambda q, Ax, Bx, p: (q / p.a1, q / Ax, (p.a2, p.a3), (p.b1, p.b2, p.b3), Bx)),
    _thmser3(5, lambda q, A, B, a1, b3: (q * b3 / A, np.inf),  # argument q b3 / (A x)
             lambda q, Ax, Bx, p: (q / Ax, q / p.a1, (p.a2, p.a3), (Bx, p.b1, p.b2), p.b3)),
    _thmser3(6, lambda q, A, B, a1, b3: (0.0, np.inf),  # argument q B / A, x-free
             lambda q, Ax, Bx, p: (q / Ax, q / p.a1, (p.a2, p.a3), (p.b1, p.b2, p.b3), Bx)),
    # degree two, 1 and 2: 3phi2(q^alpha, A/B, a_i/(Bx); A a_i/(B b1), A a_i/(B b2); qBx/a_j)
    _thmser2(1, lambda q, B, a1, a2: (0.0, a2 / (q * B)),
             lambda q, qa, x, alpha, a1, a2, b1, b2, A, B: (None, (
                 [qa, A / B, a1 / (B * x)], [A * a1 / (B * b1), A * a1 / (B * b2)],
                 q * B * x / a2))),
    _thmser2(2, lambda q, B, a1, a2: (0.0, a1 / (q * B)),
             lambda q, qa, x, alpha, a1, a2, b1, b2, A, B: (None, (
                 [qa, A / B, a2 / (B * x)], [A * a2 / (B * b1), A * a2 / (B * b2)],
                 q * B * x / a1))),
    # 3 and 4: the Jackson-integral forms, equal (up to constants) to the
    # endpoint integrals from 0 to q/a_j
    _thmser2(3, lambda q, B, a1, a2: (0.0, np.inf),
             lambda q, qa, x, alpha, a1, a2, b1, b2, A, B: (
                 ([q * A * x / a2], [q * B * x / a2]),
                 ([q * b1 / a2, q * b2 / a2, q * B * x / a2], [q * a1 / a2, q * A * x / a2], qa))),
    _thmser2(4, lambda q, B, a1, a2: (0.0, np.inf),
             lambda q, qa, x, alpha, a1, a2, b1, b2, A, B: (
                 ([q * A * x / a1], [q * B * x / a1]),
                 ([q * b1 / a1, q * b2 / a1, q * B * x / a1], [q * a2 / a1, q * A * x / a1], qa))),
    # 5: the Pochhammer-gauge image of 1
    _thmser2(5, lambda q, B, a1, a2: (0.0, a2 / (q * B)),
             lambda q, qa, x, alpha, a1, a2, b1, b2, A, B: (
                 ([A * x / b1], [q * B * x / a1]),
                 ([a2 / b2, q * b1 / a1, q * b1 / (A * x)],
                  [qpow(q, 1 - alpha) * a2 / b2, q * b1 / b2], q * B * x / a2))),
    # 6: the index-1 reflection image of 3
    _thmser2(6, lambda q, B, a1, a2: (0.0, np.inf),
             lambda q, qa, x, alpha, a1, a2, b1, b2, A, B: (
                 ([qpow(q, alpha + 1) * B * x / a2], [q * B * x / a2]),
                 ([a1 / b1, a1 / b2, q * B * x / a2],
                  [q * a1 / a2, qpow(q, alpha + 1) * B * x / a2], A / B))),
    # Heine type: 2phi1 rows 1-8 and 17-24, zero-slot 3phi2 rows 9-16 and 25-32
    _heine(1, None, "disc", None, lambda a, b, c, q, z, w: (None, ([a, b], [c], z))),
    _heine(2, None, "disc_w", None,
           lambda a, b, c, q, z, w: (([w], [z]), ([c / a, c / b], [c], w))),
    _heine(3, "1-gamma", "disc", None,
           lambda a, b, c, q, z, w: (None, ([a * q / c, b * q / c], [q**2 / c], z))),
    _heine(4, "1-gamma", "disc_w", None,
           lambda a, b, c, q, z, w: (([w], [z]), ([q / a, q / b], [q**2 / c], w))),
    _heine(5, "-alpha", "outside", None,
           lambda a, b, c, q, z, w: (None, ([a, a * q / c], [a * q / b], c * q / (a * b * z)))),
    _heine(6, "-alpha", "outside_q", None,
           lambda a, b, c, q, z, w: (([q / z], [c * q / (a * b * z)]),
                                     ([q / b, c / b], [a * q / b], q / z))),
    _heine(7, "-beta", "outside", None,
           lambda a, b, c, q, z, w: (None, ([b, b * q / c], [b * q / a], c * q / (a * b * z)))),
    _heine(8, "-beta", "outside_q", None,
           lambda a, b, c, q, z, w: (([q / z], [c * q / (a * b * z)]),
                                     ([q / a, c / a], [b * q / a], q / z))),
    _heine(9, None, "plane", "a=q^-n",
           lambda a, b, c, q, z, w: (None, ([a, b, w], [a * b * q / c, 0.0], q))),
    _heine(10, None, "disc_w", "c=a*q^-n",
           lambda a, b, c, q, z, w: (([w], [z]), ([c / a, c / b, z], [c * q / (a * b), 0.0], q))),
    _heine(11, "1-gamma", "plane", "c=a*q^n+1",
           lambda a, b, c, q, z, w: (None, ([a * q / c, b * q / c, w], [a * b * q / c, 0.0], q))),
    _heine(12, "1-gamma", "disc_w", "a=q^n+1",
           lambda a, b, c, q, z, w: (([w], [z]), ([q / a, q / b, z], [c * q / (a * b), 0.0], q))),
    _heine(13, "-alpha", "plane", "a=q^-n",
           lambda a, b, c, q, z, w: (None, ([a, a * q / c, q / z], [a * b * q / c, 0.0], q))),
    _heine(14, "-alpha", "outside", "b=q^n+1",
           lambda a, b, c, q, z, w: (([q / z], [c * q / (a * b * z)]),
                                     ([q / b, c / b, c * q / (a * b * z)],
                                      [c * q / (a * b), 0.0], q))),
    _heine(15, "-beta", "plane", "b=q^-n",
           lambda a, b, c, q, z, w: (None, ([b, b * q / c, q / z], [a * b * q / c, 0.0], q))),
    _heine(16, "-beta", "outside", "c=a*q^-n",
           lambda a, b, c, q, z, w: (([q / z], [c * q / (a * b * z)]),
                                     ([q / a, c / a, c * q / (a * b * z)],
                                      [c * q / (a * b), 0.0], q))),
    _heine(17, None, "disc", None,
           lambda a, b, c, q, z, w: (([a * z], [z]), ([a, c / b], [c, a * z], b * z))),
    _heine(18, None, "disc", None,
           lambda a, b, c, q, z, w: (([b * z], [z]), ([b, c / a], [c, b * z], a * z))),
    _heine(19, "1-gamma", "disc", None,
           lambda a, b, c, q, z, w: (([a * q * z / c], [z]),
                                     ([a * q / c, q / b], [q**2 / c, a * q * z / c],
                                      b * q * z / c))),
    _heine(20, "1-gamma", "disc", None,
           lambda a, b, c, q, z, w: (([b * q * z / c], [z]),
                                     ([b * q / c, q / a], [q**2 / c, b * q * z / c],
                                      a * q * z / c))),
    _heine(21, None, "plane", None,
           lambda a, b, c, q, z, w: (([w], [b * z / c]),
                                     ([c / b, a], [a * q / b, c * q / (b * z)], q**2 / (b * z))),
           scale=lambda a, b, c, q: c / b),
    _heine(22, None, "plane", None,
           lambda a, b, c, q, z, w: (([w], [a * z / c]),
                                     ([c / a, b], [b * q / a, c * q / (a * z)], q**2 / (a * z))),
           scale=lambda a, b, c, q: c / a),
    _heine(23, "1-gamma", "plane", None,
           lambda a, b, c, q, z, w: (([w], [b * z / q]),
                                     ([a * q / c, q / b], [a * q / b, q**2 / (b * z)],
                                      c * q / (b * z))),
           scale=lambda a, b, c, q: q / b),
    _heine(24, "1-gamma", "plane", None,
           lambda a, b, c, q, z, w: (([w], [a * z / q]),
                                     ([b * q / c, q / a], [b * q / a, q**2 / (a * z)],
                                      c * q / (a * z))),
           scale=lambda a, b, c, q: q / a),
    _heine(25, None, "disc", "a=q^-n",
           lambda a, b, c, q, z, w: (([a * z], [z]), ([c / b, a, 0.0], [a * q / b, a * z], q))),
    _heine(26, None, "disc", "b=q^-n",
           lambda a, b, c, q, z, w: (([b * z], [z]), ([c / a, b, 0.0], [b * q / a, b * z], q))),
    _heine(27, "1-gamma", "disc", "b=q^n+1",
           lambda a, b, c, q, z, w: (([a * q * z / c], [z]),
                                     ([q / b, a * q / c, 0.0], [a * q / b, a * q * z / c], q))),
    _heine(28, "1-gamma", "disc", "a=q^n+1",
           lambda a, b, c, q, z, w: (([b * q * z / c], [z]),
                                     ([q / a, b * q / c, 0.0], [b * q / a, b * q * z / c], q))),
    _heine(29, "-alpha", "outside", "a=q^-n",
           lambda a, b, c, q, z, w: (([c * q / (b * z)], [c * q / (a * b * z)]),
                                     ([c / b, a, 0.0], [c, c * q / (b * z)], q))),
    _heine(30, "-alpha", "outside", "b=q^n+1",
           lambda a, b, c, q, z, w: (([q**2 / (b * z)], [c * q / (a * b * z)]),
                                     ([q / b, a * q / c, 0.0], [q**2 / c, q**2 / (b * z)], q))),
    _heine(31, "-beta", "outside", "b=q^-n",
           lambda a, b, c, q, z, w: (([c * q / (a * z)], [c * q / (a * b * z)]),
                                     ([c / a, b, 0.0], [c, c * q / (a * z)], q))),
    _heine(32, "-beta", "outside", "a=q^n+1",
           lambda a, b, c, q, z, w: (([q**2 / (a * z)], [c * q / (a * b * z)]),
                                     ([q / a, b * q / c, 0.0], [q**2 / c, q**2 / (a * z)], q))),
    # the terminating 3phi1 form (formal otherwise) and the integral-analog
    # series behind the transformation formula
    _heine_extra(1, lambda p, q, n: HeineParams(q ** (-3), p.b, p.c),
                 lambda a, b, c, q, z: (None, ([a, b, q / z], [a * b * q / c], z / c))),
    _heine_extra(2, lambda p, q, n: HeineParams(p.a * 0.55 / abs(p.a), p.b, p.c),
                 lambda a, b, c, q, z: (([b * z], [z]), ([c / a, z], [b * z], a))),
)

CATALOGUE: dict[str, Solution] = {row.label: row for row in _ROWS}


def _row(label: str) -> Solution:
    try:
        return CATALOGUE[label]
    except KeyError:
        raise ValueError(f"unknown solution label {label!r}") from None


# -- handles ---------------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _claimed_operator(equation: str, params, ctx: QContext) -> QDiffOperator:
    """``BUILDERS[equation](params, ctx)``, built once per key among the last
    eight, so the labels of a job share one operator.  Keys compare by value.
    Operators are never mutated after they are built, so every handle may
    hold the same one."""
    return BUILDERS[equation](params, ctx)


def solution_handle(
    label: str,
    params,
    ctx: QContext,
    sigma: complex = 1.3,
    table: JacksonTable | None = None,
) -> SolutionHandle:
    """Build the evaluable solution for a catalogue label (a key of
    ``CATALOGUE``; any other label raises ValueError).

    An integral label evaluates through ``table``, the single-endpoint
    integrals of ``params`` shared with the other labels of a job; without
    one, the handle keeps a table of its own.  Series labels ignore it: a
    series handle keeps a :class:`SeriesTable` of its own values.
    ``sigma`` is the free constant of the bilateral endpoint.
    """
    row = _row(label)
    op = _claimed_operator(row.equation, params, ctx)
    if row.pair is None:
        values = row.values(row, params, ctx)
        read, tables = values.read, (values,)
    else:
        e1, e2 = (Endpoint.sigma_inf(sigma) if e.tag == "sigma_infinity" else e
                  for e in row.pair)
        table = _table_for(params, ctx, table)
        tables = () if e1 == e2 else (table.entry(row.single, e1), table.entry(row.single, e2))

        def read(xs: Sequence[complex]) -> list:
            return _differences(table, row.single, e1, e2, xs)
    return SolutionHandle(label, read, row.domain(params, ctx), op, params,
                          scale=row.scale(params, ctx), tables=tables)


def fill(requests: Sequence[tuple[SolutionHandle, Sequence[complex]]]) -> None:
    """Compute every value that reading each handle at its points needs and
    its tables do not hold yet, for all the (handle, points) requests in one
    fill (:func:`_fill`): one Pochhammer batch per prefactor shape and one
    series batch per series shape over all the series labels, one Jackson
    grid sum per integrand and side over all the integral labels.  Each
    handle's ``read`` of its points then looks its values up; every value is
    the same, bit for bit, as the handle's ``read`` alone computes it."""
    _fill([(table, xs) for handle, xs in requests for table in handle.tables])


def all_labels(family: str) -> list[str]:
    """The labels of a family, in catalogue order."""
    labels = [label for label, row in CATALOGUE.items() if row.family == family]
    if not labels:
        raise ValueError(f"unknown family {family!r}")
    return labels


_SAMPLE_SPREAD = 25.0


def sample_points(handle: SolutionHandle, n: int, ctx: QContext) -> list[float]:
    """Log-spaced positive sample points keeping x q^j inside the handle's
    interval for every T-power j of its operator; unbounded interval sides
    fall back to the handle's natural scale."""
    q = abs(complex(ctx.q))
    lo, hi = handle.interval
    jmin, jmax = handle.equation.t_min, handle.equation.t_max
    lo_eff = lo / q**jmax if lo > 0 else 0.0
    hi_eff = hi * q ** (-jmin) if (np.isfinite(hi) and jmin < 0) else hi
    s = handle.scale
    if lo_eff <= 0 and not np.isfinite(hi_eff):
        lo_s, hi_s = s / np.sqrt(_SAMPLE_SPREAD), s * np.sqrt(_SAMPLE_SPREAD)
    elif lo_eff <= 0:
        hi_s = min(hi_eff * 0.92, s * np.sqrt(_SAMPLE_SPREAD))
        lo_s = hi_s / _SAMPLE_SPREAD
    elif not np.isfinite(hi_eff):
        lo_s = max(lo_eff * 1.1, s / np.sqrt(_SAMPLE_SPREAD))
        hi_s = lo_s * _SAMPLE_SPREAD
    else:
        lo_s, hi_s = lo_eff * 1.08, hi_eff * 0.92
    if lo_s >= hi_s:
        raise DomainError(
            f"empty sampling window for {handle.label}: ({lo_eff:.3g}, {hi_eff:.3g})")
    return _log_spaced(lo_s, hi_s, n)


def _log_spaced(lo: float, hi: float, n: int) -> list:
    """``list(np.geomspace(lo, hi, n))`` for 0 < lo < hi, float for float:
    the same exponents and powers of 10, both ends pinned, without
    geomspace's generic dtype and sign handling (~5 times as fast)."""
    a, b = np.log10(lo), np.log10(hi)
    exps = np.arange(n) * ((b - a) / max(n - 1, 1)) + a
    exps[-1:] = b
    xs = np.power(10.0, exps)
    xs[-1:], xs[:1] = hi, lo  # for n = 1, lo alone
    return list(xs)
