"""Closed-form solution families (Jackson integrals and series), residual
verification, and the relation checks among the integrals.

Integral evaluators sum Jordan-Pochhammer integrands over q-grids with
:func:`_grid_sum`, for one-sided and bilateral endpoints alike, one row per
grid start and many rows in one batch: the integrands at the grid starts are
one row-wise Pochhammer-ratio evaluation, and each direction of the grids is
a term-ratio sum of the series kernel of :mod:`qhyp.qcore` (chunked, stopped
row by row by its tail rule), with the grid weights t^alpha w(t) applied per
chunk.  Zeros and poles on a grid are refused up front, row by row, by the
one zero test of :mod:`qhyp.qcore`.

Each integral solution is the difference of two single-endpoint integrals of
one integrand.  A :class:`JacksonTable` holds those of one parameter tuple
and computes each once, so the pair labels of a job that share an endpoint
and a sample point share its grid sum.  :func:`residual` has a handle's table
fill every point x q^j of an endpoint in one batch before it evaluates
anything; a lone lookup is the one-row case of the same kernel, with the
same value bit for bit.  An evaluator given no table uses a throwaway one.

The catalogue is :data:`CATALOGUE`, one :class:`Solution` record per label
(end of the module): the operator a label solves, its endpoint pair or its
series formula in Gasper & Rahman's notation, its domain, sampling scale and
terminating relation.  Handles, :func:`all_labels`, the samplers and the CLI
read these records, and a label that is not a key of the catalogue is
refused with ValueError.
"""

from __future__ import annotations

import cmath
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
    _one,
    _pochhammer_product,
    _quotient,
    _ratio_sum,
    _termination_order,
    qpoch_ratio,
)
from .qseries import PhiSpec, phi, w87


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

    Returns one entry per row: its sum, or the error it raises.  The rows
    are summed in one batch, and each row's value is the same, bit for bit,
    whatever rows share the batch (a scalar caller passes one row).

    One-sided sums run n >= 0; the bilateral version adds the n < 0 tail and
    needs equally many numerator and denominator arguments.  The seeds
    F_r(tau_r) are one row-wise Pochhammer-ratio evaluation; each direction
    is then a term-ratio sum of the series kernel of :mod:`qhyp.qcore`, with
    the step ratios F(t q) / F(t) = prod (1 - d_j t) / prod (1 - n_i t) and
    the weights t^alpha w(t) applied per chunk.  t^alpha is
    exp(alpha (log tau + n log q)), single-valued along the grid.  A row
    whose tau is 0 sums to 0.

    Zeros: F is zero on an ascending run of the grid that ends where a
    factor 1 - n_i t vanishes, and the recurrence cannot step out of it.  Such
    a run always holds the grid start, so a seed that is exactly zero, or an
    argument n_i tau that is q^-k to rounding (:func:`_termination_order`),
    is refused up front (UnsupportedCaseError).  Descending, a vanishing
    numerator factor makes the rest of the tail exactly zero, which the tail
    rule ends; a vanishing denominator factor anywhere within the budget is
    a pole (PoleError, also up front).
    """
    q = complex(ctx.q)
    alpha = complex(alpha)
    taus = np.array(taus, dtype=complex)
    nums = np.array(nums, dtype=complex).reshape(len(taus), -1)
    dens = np.array(dens, dtype=complex).reshape(len(taus), -1)
    n_num = nums.shape[1]
    out: list = [0.0 + 0.0j if tau == 0 else None for tau in taus]
    starts = np.hstack((nums, dens)) * taus[:, None]
    live = np.flatnonzero(taus != 0)
    for r, seed in zip(live, _pochhammer_product(starts[live], n_num, ctx)):
        if isinstance(seed, Exception):
            out[r] = seed
        elif seed == 0 or _termination_order(starts[r, :n_num], ctx) is not None:
            out[r] = UnsupportedCaseError(
                f"integrand vanishes at the grid start {complex(taus[r])}")
        else:
            out[r] = seed
    live = np.array([r for r in live if not isinstance(out[r], Exception)], dtype=int)
    if not live.size:
        return out
    seed = np.array([out[r] for r in live])
    tau, nums, dens = taus[live], nums[live], dens[live]
    log_tau = np.log(tau)
    log_q = cmath.log(q)

    def weigh(rows: Sequence[int], ns: np.ndarray, F: np.ndarray) -> np.ndarray:
        if alpha != 0:
            F = F * np.exp(alpha * (log_tau[rows, None] + ns * log_q))
        return F * (tau[rows, None] * q**ns) if weighted else F

    dn, nd = np.hstack((dens, nums)).T[:, :, None], np.hstack((nums, dens))

    def up(rows: Sequence[int], ns: np.ndarray) -> np.ndarray:
        """F(t q) / F(t) at t = tau q^n."""
        return _quotient(1.0 - dn[:, rows] * (tau[rows, None] * q**ns), dens.shape[1])

    def down(rows: Sequence[int], ns: np.ndarray) -> np.ndarray:
        """F(t / q) / F(t) at t = tau q^n.  1 - c t/q = (t/q) (q/t - c): the
        powers of t/q cancel between numerator and denominator, and q/t
        underflows harmlessly."""
        return _quotient(q / (tau[rows, None] * q**ns) - nd.T[:, rows, None], n_num)

    # upwards the step ratio tends to q^(alpha + 1) (weighted) or q^alpha
    rate = cmath.exp((alpha + (1 if weighted else 0)) * log_q)
    value = _ratio_sum(seed, up, ctx, [rate] * len(seed), np.abs(nd * tau[:, None]).max(axis=1),
                       "Jackson sum", weigh=weigh)
    if bilateral:
        # q/t - d_j at t = tau q^-n vanishes where 1 - (q / (tau d_j)) q^n does
        for i in range(len(live)):
            if (not isinstance(value[i], Exception)
                    and _termination_order(q / (tau[i] * dens[i]), ctx) is not None):
                value[i] = PoleError("integrand pole on the descending grid")
        rows = np.array([i for i, v in enumerate(value) if not isinstance(v, Exception)], dtype=int)
        tails = _ratio_sum(
            seed[rows] * down(rows, np.array([0]))[:, 0], lambda sub, ks: down(rows[sub], -1 - ks),
            ctx, np.prod(nums[rows], axis=1) / np.prod(dens[rows], axis=1) / rate,
            np.abs(q * q / (tau[rows, None] * nd[rows])).max(axis=1), "Jackson sum",
            weigh=lambda sub, ks, F: weigh(rows[sub], -1 - ks, F))
        for i, v in zip(rows, tails):
            value[i] = v if isinstance(v, Exception) else value[i] + v
    for r, v in zip(live, value):
        out[r] = v if isinstance(v, Exception) else (1.0 - q) * v
    return out


# -- integral solution families -------------------------------------------------------


# Each integrand below gives the single-endpoint integrals of one parameter
# tuple from one endpoint at many x: one grid row per x, summed in one batch,
# and one entry per x, a value or the error its row raises.


def _phi3_single(p: Params3, e: Endpoint, xs: Sequence[complex], ctx: QContext) -> list:
    return _grid_sum([e.resolve(p, x, ctx) for x in xs],
                     [(p.A * x, p.a1, p.a2, p.a3) for x in xs],
                     [(p.B * x, p.b1, p.b2, p.b3) for x in xs], ctx, weighted=True)


def _phi3_tilde_single(p: Params3, e: Endpoint, xs: Sequence[complex], ctx: QContext) -> list:
    q = complex(ctx.q)
    return _grid_sum([e.resolve(p, x, ctx) for x in xs],
                     [(q / (p.B * x), q / p.b1, q / p.b2, q / p.b3) for x in xs],
                     [(q / (p.A * x), q / p.a1, q / p.a2, q / p.a3) for x in xs], ctx,
                     weighted=True)


def _phi2_single(p: Params2, e: Endpoint, xs: Sequence[complex], ctx: QContext) -> list:
    if e.tag == "zero":
        return [0.0 + 0.0j] * len(xs)
    return _grid_sum([e.resolve(p, x, ctx) for x in xs],
                     [(p.A * x, p.a1, p.a2) for x in xs],
                     [(p.B * x, p.b1, p.b2) for x in xs], ctx, alpha=p.alpha, weighted=False)


def _phi2_tilde_single(p: Params2, e: Endpoint, xs: Sequence[complex], ctx: QContext) -> list:
    q = complex(ctx.q)
    return _grid_sum([e.resolve(p, x, ctx) for x in xs],
                     [(q / (p.B * x), q / p.b1, q / p.b2) for x in xs],
                     [(q / (p.A * x), q / p.a1, q / p.a2) for x in xs], ctx, weighted=True,
                     bilateral=e.tag == "sigma_infinity")


class JacksonTable:
    """The single-endpoint Jackson integrals of one parameter tuple under one
    context, each computed once; meant to live for one job.

    Entries are keyed by (integrand, endpoint, x): the integrand is one of the
    ``_*_single`` helpers above, the endpoint carries the free constant of the
    bilateral endpoint, and x is compared by value.  :meth:`fill` computes
    the missing entries of one integrand and endpoint at many x in one
    batch; :meth:`value` looks one up and computes it alone if it is
    missing.  A computation that raises stores nothing, so every lookup of
    it computes it anew and raises.
    """

    __slots__ = ("params", "ctx", "_values")

    def __init__(self, params, ctx: QContext):
        self.params = params
        self.ctx = ctx
        self._values: dict[tuple, complex] = {}

    def fill(self, single: Callable, e: Endpoint, xs: Sequence[complex]) -> None:
        """single(params, e, x, ctx) for every x of ``xs`` not yet held, in
        one batch, in the order of ``xs``."""
        todo = [x for x in dict.fromkeys(xs) if (single, e, x) not in self._values]
        if todo:
            for x, found in zip(todo, single(self.params, e, todo, self.ctx)):
                if not isinstance(found, Exception):
                    self._values[single, e, x] = found

    def value(self, single: Callable, e: Endpoint, x: complex) -> complex:
        """single(params, e, x, ctx), computed on the first lookup."""
        key = (single, e, x)
        found = self._values.get(key)
        if found is None:
            found = self._values[key] = _one(single(self.params, e, [x], self.ctx))
        return found


def _table_for(p, ctx: QContext, table: JacksonTable | None) -> JacksonTable:
    if table is None:
        return JacksonTable(p, ctx)
    if table.params != p or table.ctx != ctx:
        raise ValueError("the Jackson table belongs to another parameter tuple or context")
    return table


def _difference(single: Callable, p, e1: Endpoint, e2: Endpoint, x: complex, ctx: QContext,
                table: JacksonTable | None, reflected: bool) -> complex:
    """single(e2) - single(e1) from the table, times x^lambda (principal
    branch) for the reflected integrands."""
    if e1 == e2:
        return 0.0 + 0.0j
    table = _table_for(p, ctx, table)
    value = table.value(single, e2, x) - table.value(single, e1, x)
    return cmath.exp(p.lam(ctx) * cmath.log(complex(x))) * value if reflected else value


def phi3(p: Params3, t1: Endpoint, t2: Endpoint, x: complex, ctx: QContext,
         table: JacksonTable | None = None) -> complex:
    """Difference of two one-sided Jackson integrals of the degree-three
    Jordan-Pochhammer integrand between admissible endpoints."""
    return _difference(_phi3_single, p, t1, t2, x, ctx, table, False)


def phi3_tilde(p: Params3, s1: Endpoint, s2: Endpoint, x: complex, ctx: QContext,
               table: JacksonTable | None = None) -> complex:
    """x^lambda times the reflected-integrand Jackson integral between
    admissible sigma-endpoints."""
    return _difference(_phi3_tilde_single, p, s1, s2, x, ctx, table, True)


def phi2(p: Params2, t1: Endpoint, t2: Endpoint, x: complex, ctx: QContext,
         table: JacksonTable | None = None) -> complex:
    """Degree-two integral solution: t^alpha measure dq t / t, endpoints may
    include 0 (which contributes nothing)."""
    return _difference(_phi2_single, p, t1, t2, x, ctx, table, False)


def phi2_tilde(p: Params2, s1: Endpoint, s2: Endpoint, x: complex, ctx: QContext,
               table: JacksonTable | None = None) -> complex:
    """Degree-two reflected integral; the sigma-infinity endpoint uses the
    bilateral Jackson sum."""
    return _difference(_phi2_tilde_single, p, s1, s2, x, ctx, table, True)


# -- series solutions -----------------------------------------------------------------
#
# A series row of the catalogue (end of the module) keeps its formulas as a
# function of its family's variables.  The evaluators below compute those
# variables and read the row; what a label is lives in its row alone.


def _phi_row(spec, ctx: QContext, factor: complex | None = None) -> complex:
    """factor * prefactor ratio * phi(series) for spec = (prefactor, series),
    multiplied left to right; an absent factor is skipped, not taken as 1."""
    prefactor, series = spec
    if prefactor is not None:
        ratio = qpoch_ratio(*prefactor, ctx)
        factor = ratio if factor is None else factor * ratio
    value = phi(PhiSpec(*series), ctx)
    return value if factor is None else factor * value


def _gr_series_value(
    a: complex, b: complex, cd: tuple[complex, complex],
    efg: tuple[complex, complex, complex], h: complex, ctx: QContext,
) -> complex:
    """Series side of the Jackson-integral <-> very-well-poised correspondence

        int_a^b (qt/a, qt/b, ct, dt)_inf / (et, ft, gt, ht)_inf dq t
        = b (1-q) (q, bq/a, a/b, cd/eh, cd/fh, cd/gh, bc, bd)_inf
          / (ae, af, ag, be, bf, bg, bh, bcd/h)_inf
          * W(bcd/(h q); be, bf, bg, c/h, d/h; a h),

    valid for balanced data cd = ab efg h and |a h| < 1.
    """
    q = complex(ctx.q)
    c, d = cd
    e, f, g = efg
    pref_num = [q, b * q / a, a / b, c * d / (e * h), c * d / (f * h),
                c * d / (g * h), b * c, b * d]
    pref_den = [a * e, a * f, a * g, b * e, b * f, b * g, b * h, b * c * d / h]
    pref = b * (1.0 - q) * qpoch_ratio(pref_num, pref_den, ctx)
    return pref * w87(b * c * d / (h * q), b * e, b * f, b * g, c / h, d / h,
                      a * h, ctx)


def _e3_gr_data(p: Params3, which: int, x: complex, ctx: QContext):
    """GR role assignment (a, b, {c,d}, {e,f,g}, h) of degree-three series
    row ``which``."""
    return _row(f"thmser3.{which}").formula(complex(ctx.q), p.A * x, p.B * x, p)


def e3_series(p: Params3, which: int, x: complex, ctx: QContext) -> complex:
    """One of the six very-well-poised series solutions of the degree-three
    equation, normalized to equal its corresponding endpoint-pair integral."""
    a, b, cd, efg, h = _e3_gr_data(p, which, x, ctx)
    if abs(a * h) >= 1.0:
        raise DomainError(f"series {which}: |a h| = {abs(a*h):.4g} >= 1 at x = {x}")
    return _gr_series_value(a, b, cd, efg, h, ctx)


def e2_series(p: Params2, which: int, x: complex, ctx: QContext) -> complex:
    """One of the six catalogued 3phi2 series solutions of the degree-two
    equation."""
    q = complex(ctx.q)
    spec = _row(f"thmser2.{which}").formula(
        q, qpow(q, p.alpha), complex(x), p.alpha, p.a1, p.a2, p.b1, p.b2, p.A, p.B)
    return _phi_row(spec, ctx)


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


def heine_solution(p: HeineParams, which: int, z: complex, ctx: QContext) -> complex:
    """One of the 32 catalogued series solutions of the q-hypergeometric
    equation of Heine type; exponent prefactors use principal branches."""
    row = _row(f"heine.{which}")
    q = complex(ctx.q)
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    z = complex(z)
    alpha, beta, gamma = _heine_exponents(p, ctx)
    zpow = None
    if row.exponent is not None:
        zpow = cmath.exp(complex(row.exponent(alpha, beta, gamma)) * cmath.log(z))
    return _phi_row(row.formula(a, b, c, q, z, a * b * z / c), ctx, zpow)


def heine_extra(p: HeineParams, which: int, z: complex, ctx: QContext) -> complex:
    """The two additional catalogued solutions: the terminating 3phi1 form
    (formal otherwise) and the integral-analog series behind the
    transformation formula."""
    q = complex(ctx.q)
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    return _phi_row(_row(f"heine_extra.{which}").formula(a, b, c, q, complex(z)), ctx)


# -- verification utilities ---------------------------------------------------------


@dataclass
class SolutionHandle:
    """A named evaluable solution: label, evaluator, positive-axis sampling
    interval and scale, claimed operator and its T-power range.  An integral
    handle also names the Jackson table it evaluates through and the
    (integrand, endpoint) pairs of its two single integrals."""

    label: str
    evaluator: Callable[[complex], complex]
    interval: tuple[float, float]
    equation: QDiffOperator
    params: object
    scale: float = 1.0
    table: JacksonTable | None = None
    integrals: tuple[tuple[Callable, Endpoint], ...] = ()

    def domain(self, x: complex) -> bool:
        lo, hi = self.interval
        return lo < abs(x) < hi

    def fill(self, xs: Sequence[complex]) -> None:
        """Compute the single integrals the evaluator reads at ``xs``, one
        batch per endpoint; nothing for a series handle."""
        for single, e in self.integrals:
            self.table.fill(single, e, xs)

    def __call__(self, x: complex) -> complex:
        return self.evaluator(x)


def residual(
    op: QDiffOperator,
    f: Callable[[complex], complex] | SolutionHandle,
    xs: Sequence[complex],
    ctx: QContext,
) -> float:
    """Max over sample points of |sum of operator terms| relative to the sum
    of term magnitudes (backward-error style; floor keeps zeros harmless).

    A handle's single integrals at every point x q^j are computed before the
    loop over the sample points, one batch per endpoint."""
    ev = f.evaluator if isinstance(f, SolutionHandle) else f
    if isinstance(f, SolutionHandle):
        # every point the operator reads, formed as apply_terms forms it
        points = [op.q**j * complex(x) for x in xs for j in range(op.t_min, op.t_max + 1)]
        bad = [y for y in points if not f.domain(y)]
        if bad:
            raise DomainError(f"points outside the solution domain: {sorted(set(map(abs, bad)))}")
        f.fill(points)
    worst = 0.0
    for x in xs:
        terms = op.apply_terms(ev, x)
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
            return _one(_phi3_single(p, endpoint, [y], ctx))
        terms = op.apply_terms(F, x)
        target = (1.0 - q) * q * (p.A - p.B) * complex(x) ** 2
    elif endpoint.tag in ("b", "Bx"):
        lam = p.lam(ctx)

        def F(y: complex) -> complex:
            pref = cmath.exp(lam * cmath.log(complex(y)))
            return pref * _one(_phi3_tilde_single(p, endpoint, [y], ctx))
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
    f: Callable[[complex], complex] | SolutionHandle,
    g: Callable[[complex], complex] | SolutionHandle,
    x: complex,
    ctx: QContext,
) -> complex:
    """f(x) g(qx) - f(qx) g(x): vanishes identically iff f, g are dependent
    over the pseudo-constants."""
    fe = f.evaluator if isinstance(f, SolutionHandle) else f
    ge = g.evaluator if isinstance(g, SolutionHandle) else g
    q = complex(ctx.q)
    return fe(x) * ge(q * x) - fe(q * x) * ge(x)


# -- the catalogue ------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    """One row of the solution catalogue: everything the library knows about
    one label.

    equation: the operator the row solves, a key of ``equations.BUILDERS``.
    evaluator: the name of the module function that evaluates the row; a
        series row passes it ``index``, an integral row its endpoint
        ``pair`` (the bilateral endpoint takes the handle's sigma).
    single: integral rows only, the single-endpoint integrand (one of the
        ``_*_single`` helpers) whose difference the evaluator takes.
    formula: series rows only, a function of the family's variables.  For
        ``thmser2``, ``heine`` and ``heine_extra`` it gives (prefactor,
        series): prefactor = (numerators, denominators) of a Pochhammer ratio
        in front, or None; series = (numerators, denominators, argument) of
        r_phi_s.  For ``thmser3`` it gives the role assignment
        (a, b, (c, d), (e, f, g), h) of :func:`_gr_series_value`.
    exponent: ``heine`` rows only, the power of z in front as a function of
        (alpha, beta, gamma) = log_q (a, b, c), or None.
    domain, scale: (params, ctx) -> the |x| interval on the positive axis
        and the natural |x| scale of sampling.
    terminating: (params, q, n) -> the parameters with the relation imposed
        (n >= 0) that terminates a zero-slot ``heine`` row, which is rigorous
        exactly then; None for the other rows.
    """

    label: str
    equation: str
    evaluator: str
    domain: Callable[[Any, QContext], tuple[float, float]]
    scale: Callable[[Any, QContext], float]
    index: int = 0
    pair: tuple[Endpoint, Endpoint] | None = None
    single: Callable | None = None
    formula: Callable | None = None
    exponent: Callable | None = None
    terminating: Callable | None = None

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
        ("thmint3.phi3", "phi3", _phi3_single, "e3", 1,
         (Endpoint.q_over_a(1), Endpoint.q_over_a(2), Endpoint.q_over_a(3), Endpoint.q_over_Ax())),
        ("thmint3.tilde", "phi3_tilde", _phi3_tilde_single, "e3", 1,
         (Endpoint.b(1), Endpoint.b(2), Endpoint.b(3), Endpoint.Bx())),
        ("thmint2.phi2", "phi2", _phi2_single, "e2", 0,
         (Endpoint.zero(), Endpoint.q_over_a(1), Endpoint.q_over_a(2), Endpoint.q_over_Ax())),
        ("thmint2.tilde", "phi2_tilde", _phi2_tilde_single, "e2", 1,
         (Endpoint.b(1), Endpoint.b(2), Endpoint.Bx(), Endpoint.sigma_inf())),
    )
    for name, evaluator, single, equation, first, ends in families:
        for i, j in itertools.combinations(range(len(ends)), 2):
            yield Solution(f"{name}[{first + i},{first + j}]", equation, evaluator,
                           lambda p, ctx: (0.0, np.inf),
                           lambda p, ctx: 0.3 * integral_scale(p, ctx),
                           pair=(ends[i], ends[j]), single=single)


def _thmser3(n: int, domain, formula) -> Solution:
    """Degree-three row n: formula(q, A x, B x, params); domain over
    |q|, |A|, |B|, |a1|, |b3|, where the series argument stays in the unit
    disc (pole grids with complex-generic bases miss the positive axis)."""
    return Solution(
        f"thmser3.{n}", "e3", "e3_series",
        lambda p, ctx: domain(abs(complex(ctx.q)), abs(p.A), abs(p.B), abs(p.a1), abs(p.b3)),
        lambda p, ctx: 0.3 * integral_scale(p, ctx), index=n, formula=formula)


def _thmser2(n: int, domain, formula) -> Solution:
    """Degree-two row n: formula(q, q^alpha, x, alpha, a1, a2, b1, b2, A, B);
    domain over |q|, |B|, |a1|, |a2|, where the argument stays in the unit
    disc (the x-free arguments q^alpha and A/B impose nothing on x)."""
    return Solution(
        f"thmser2.{n}", "e2", "e2_series",
        lambda p, ctx: domain(abs(complex(ctx.q)), abs(p.B), abs(p.a1), abs(p.a2)),
        lambda p, ctx: 0.3 * e2_series_scale(p, ctx), index=n, formula=formula)


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
        f"heine.{n}", "heine", "heine_solution",
        lambda p, ctx: interval(*_moduli(p, ctx)),
        lambda p, ctx: 0.5 * scale(*_moduli(p, ctx)),
        index=n, formula=formula, exponent=power and _Z_POWERS[power],
        terminating=terminating and _TERMINATING[terminating])


def _heine_extra(n: int, formula) -> Solution:
    """Extra Heine-type row n: formula(a, b, c, q, z), inside the unit disc."""
    return Solution(f"heine_extra.{n}", "heine", "heine_extra",
                    lambda p, ctx: (0.0, 1.0), lambda p, ctx: 0.4, index=n, formula=formula)


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
    _heine_extra(1, lambda a, b, c, q, z: (None, ([a, b, q / z], [a * b * q / c], z / c))),
    _heine_extra(2, lambda a, b, c, q, z: (([b * z], [z]), ([c / a, z], [b * z], a))),
)

CATALOGUE: dict[str, Solution] = {row.label: row for row in _ROWS}


def _row(label: str) -> Solution:
    try:
        return CATALOGUE[label]
    except KeyError:
        raise ValueError(f"unknown solution label {label!r}") from None


# -- handles ---------------------------------------------------------------------------------


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
    one, the handle keeps a table of its own.  Series labels ignore it.
    ``sigma`` is the free constant of the bilateral endpoint.
    """
    row = _row(label)
    op = BUILDERS[row.equation](params, ctx)
    # looked up when the handle is built, so a wrapper installed on the
    # module attribute sees every evaluation
    evaluate = globals()[row.evaluator]
    if row.pair is None:
        which = row.index
        table, integrals = None, ()

        def evaluator(x: complex) -> complex:
            return evaluate(params, which, x, ctx)
    else:
        e1, e2 = (Endpoint.sigma_inf(sigma) if e.tag == "sigma_infinity" else e
                  for e in row.pair)
        table, integrals = _table_for(params, ctx, table), ((row.single, e1), (row.single, e2))

        def evaluator(x: complex) -> complex:
            return evaluate(params, e1, e2, x, ctx, table)
    return SolutionHandle(label, evaluator, row.domain(params, ctx), op, params,
                          scale=row.scale(params, ctx), table=table, integrals=integrals)


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
    return list(np.geomspace(lo_s, hi_s, n))
