"""Closed-form solution families (Jackson integrals and series), residual
verification, and the relation checks among the integrals.

Integral evaluators sum Jordan-Pochhammer integrands over q-grids with one
kernel, :func:`_grid_sum`, for one-sided and bilateral endpoints alike: the
integrand at the endpoint is a single Pochhammer-ratio evaluation, the rest of
the grid follows by a chunked multiplicative recurrence, which is both fast
and stable (no large intermediate products), and the sum stops by the tail
rule of :mod:`qhyp.qcore`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonDecayingSumError, PoleError, UnsupportedCaseError
from .equations import (
    HeineParams,
    Params2,
    Params3,
    build_e2,
    build_e3,
    build_heine,
    e_sym,
    qpow,
)
from .opalgebra import QDiffOperator
from .qcore import QContext, _Tail, _vanishes, qpoch_ratio
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

    def describe(self) -> str:
        if self.tag in ("q_over_a", "b"):
            return f"{self.tag}{self.index}"
        return self.tag


# -- Jordan-Pochhammer Jackson sums -------------------------------------------------


_GRID_CHUNK = 128


def _grid_sum(
    tau: complex,
    nums: Sequence[complex],
    dens: Sequence[complex],
    ctx: QContext,
    alpha: complex = 0.0,
    weighted: bool = True,
    bilateral: bool = False,
) -> complex:
    """(1-q) sum over the grid t = tau q^n of  t^alpha w(t) F(t),
    F(t) = prod (n_i t)_inf / (d_j t)_inf,  with w = t for the plain measure
    (weighted) and w = 1 for dq t / t.

    One-sided sums run n >= 0; the bilateral version adds the n < 0 tail and
    needs equally many numerator and denominator arguments.  F(tau) is one
    Pochhammer-ratio evaluation; the rest of the grid follows a chunk at a
    time as cumulative products of the step ratios
    F(t q) / F(t) = prod (1 - d_j t) / prod (1 - n_i t), and each direction is
    truncated by the tail rule of :mod:`qhyp.qcore`.  t^alpha is
    exp(alpha (log tau + n log q)), single-valued along the grid.

    Zeros: F is zero on an ascending run of the grid that ends where a
    factor 1 - n_i t vanishes, and the recurrence cannot step out of it, so a
    seed that is exactly zero, or an ascending step factor that vanishes to
    rounding by the pole test of :mod:`qhyp.qcore` (|1 - n_i t| <=
    1e-12 (1 + |n_i t|); rounding leaves such a zero tiny but nonzero), raises
    UnsupportedCaseError.  Descending, a vanishing numerator factor makes the
    rest of the tail exactly zero, which the tail rule ends; a vanishing
    denominator factor is a pole (PoleError).
    """
    q = complex(ctx.q)
    tau = complex(tau)
    if tau == 0:
        return 0.0 + 0.0j
    nums = np.array([complex(v) for v in nums])
    dens = np.array([complex(v) for v in dens])
    alpha = complex(alpha)
    log_tau = cmath.log(tau)
    log_q = cmath.log(q)
    seed = qpoch_ratio(nums * tau, dens * tau, ctx)
    if seed == 0:
        raise UnsupportedCaseError(f"integrand vanishes exactly at the grid start {tau}")

    def up_steps(ts: np.ndarray) -> np.ndarray:
        """F(t q) / F(t) at the grid points ts."""
        nt = nums[:, None] * ts[None, :]
        den = 1.0 - nt
        if np.any(_vanishes(den, nt)):
            raise UnsupportedCaseError("integrand vanishes on the ascending grid")
        return np.prod(1.0 - dens[:, None] * ts[None, :], axis=0) / np.prod(den, axis=0)

    def down_steps(ts: np.ndarray) -> np.ndarray:
        """F(t / q) / F(t) at the grid points ts.  1 - c t/q = (t/q) (q/t - c):
        the powers of t/q cancel between numerator and denominator, and q/t
        underflows harmlessly."""
        u = q / ts
        num = np.prod(u[None, :] - nums[:, None], axis=0)
        den = np.prod(u[None, :] - dens[:, None], axis=0)
        if np.any(np.abs(den) < 1e-13 * (np.abs(u) ** len(dens) + np.abs(num))):
            raise PoleError("integrand pole on the descending grid")
        return num / den

    def side(F0: complex, n0: int, direction: int, steps) -> complex:
        total = 0.0 + 0.0j
        tail = _Tail(ctx)
        emitted = 0
        while emitted < ctx.max_terms:
            m = min(_GRID_CHUNK, ctx.max_terms - emitted)
            ns = np.arange(n0, n0 + direction * m, direction)
            ts = tau * q**ns
            ratios = steps(ts)
            F = F0 * np.concatenate(([1.0 + 0.0j], np.cumprod(ratios[:-1])))
            terms = F
            if alpha != 0:
                terms = terms * np.exp(alpha * (log_tau + ns * log_q))
            if weighted:
                terms = terms * ts
            stop = tail.first_stop(np.abs(terms))
            if stop is not None:
                return total + terms[: stop + 1].sum()
            total += terms.sum()
            emitted += m
            F0 = F[-1] * ratios[-1]
            n0 += direction * m
        raise NonDecayingSumError("Jackson sum did not meet the tail criterion")

    value = side(seed, 0, 1, up_steps)
    if bilateral:
        value += side(seed * down_steps(np.array([tau]))[0], -1, -1, down_steps)
    return (1.0 - q) * value


# -- integral solution families -------------------------------------------------------


def _phi3_single(p: Params3, tau: complex, x: complex, ctx: QContext) -> complex:
    nums = (p.A * x, p.a1, p.a2, p.a3)
    dens = (p.B * x, p.b1, p.b2, p.b3)
    return _grid_sum(tau, nums, dens, ctx, weighted=True)


def phi3(p: Params3, t1: Endpoint, t2: Endpoint, x: complex, ctx: QContext) -> complex:
    """Difference of two one-sided Jackson integrals of the degree-three
    Jordan-Pochhammer integrand between admissible endpoints."""
    if t1 == t2:
        return 0.0 + 0.0j
    v2 = _phi3_single(p, t2.resolve(p, x, ctx), x, ctx)
    v1 = _phi3_single(p, t1.resolve(p, x, ctx), x, ctx)
    return v2 - v1


def _phi3_tilde_single(p: Params3, sigma: complex, x: complex, ctx: QContext) -> complex:
    q = complex(ctx.q)
    nums = (q / (p.B * x), q / p.b1, q / p.b2, q / p.b3)
    dens = (q / (p.A * x), q / p.a1, q / p.a2, q / p.a3)
    return _grid_sum(sigma, nums, dens, ctx, weighted=True)


def phi3_tilde(p: Params3, s1: Endpoint, s2: Endpoint, x: complex, ctx: QContext) -> complex:
    """x^lambda times the reflected-integrand Jackson integral between
    admissible sigma-endpoints; principal branch of x^lambda."""
    if s1 == s2:
        return 0.0 + 0.0j
    lam = p.lam(ctx)
    pref = cmath.exp(lam * cmath.log(complex(x)))
    v2 = _phi3_tilde_single(p, s2.resolve(p, x, ctx), x, ctx)
    v1 = _phi3_tilde_single(p, s1.resolve(p, x, ctx), x, ctx)
    return pref * (v2 - v1)


def _phi2_single(p: Params2, tau: complex, x: complex, ctx: QContext) -> complex:
    nums = (p.A * x, p.a1, p.a2)
    dens = (p.B * x, p.b1, p.b2)
    return _grid_sum(tau, nums, dens, ctx, alpha=p.alpha, weighted=False)


def phi2(p: Params2, t1: Endpoint, t2: Endpoint, x: complex, ctx: QContext) -> complex:
    """Degree-two integral solution: t^alpha measure dq t / t, endpoints may
    include 0 (which contributes nothing)."""
    if t1 == t2:
        return 0.0 + 0.0j

    def single(e: Endpoint) -> complex:
        if e.tag == "zero":
            return 0.0 + 0.0j
        return _phi2_single(p, e.resolve(p, x, ctx), x, ctx)

    return single(t2) - single(t1)


def _phi2_tilde_single(p: Params2, e: Endpoint, x: complex, ctx: QContext) -> complex:
    q = complex(ctx.q)
    nums = (q / (p.B * x), q / p.b1, q / p.b2)
    dens = (q / (p.A * x), q / p.a1, q / p.a2)
    return _grid_sum(e.resolve(p, x, ctx), nums, dens, ctx, weighted=True,
                     bilateral=e.tag == "sigma_infinity")


def phi2_tilde(p: Params2, s1: Endpoint, s2: Endpoint, x: complex, ctx: QContext) -> complex:
    """Degree-two reflected integral; the sigma-infinity endpoint uses the
    bilateral Jackson sum."""
    if s1 == s2:
        return 0.0 + 0.0j
    lam = p.lam(ctx)
    pref = cmath.exp(lam * cmath.log(complex(x)))
    return pref * (_phi2_tilde_single(p, s2, x, ctx) - _phi2_tilde_single(p, s1, x, ctx))


# -- series solutions: degree three ---------------------------------------------------


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
    """GR role assignment (a, b, {c,d}, {e,f,g}, h) for each of the six
    degree-three series solutions."""
    q = complex(ctx.q)
    Ax, Bx = p.A * x, p.B * x
    if which in (1, 2):
        a, b = q / p.a1, q / p.a2
        cd = (Ax, p.a3)
    elif which in (3, 4):
        a, b = q / p.a1, q / (p.A * x)
        cd = (p.a2, p.a3)
    elif which in (5, 6):
        a, b = q / (p.A * x), q / p.a1
        cd = (p.a2, p.a3)
    else:
        raise ValueError("which must be 1..6")
    if which in (1, 4, 6):
        h = Bx
        efg = (p.b1, p.b2, p.b3)
    else:
        h = p.b3
        efg = (Bx, p.b1, p.b2)
    return a, b, cd, efg, h


def e3_series(p: Params3, which: int, x: complex, ctx: QContext) -> complex:
    """One of the six very-well-poised series solutions of the degree-three
    equation, normalized to equal its corresponding endpoint-pair integral."""
    a, b, cd, efg, h = _e3_gr_data(p, which, x, ctx)
    if abs(a * h) >= 1.0:
        raise DomainError(f"series {which}: |a h| = {abs(a*h):.4g} >= 1 at x = {x}")
    return _gr_series_value(a, b, cd, efg, h, ctx)


def e3_series_domain(p: Params3, which: int, ctx: QContext) -> tuple[float, float]:
    """|x| interval (lo, hi) on the positive axis where the series argument
    stays inside the unit disc.  Pole grids of prefactors and denominator
    parameters have complex-generic bases and never meet the real axis, so
    only the convergence bound constrains the interval."""
    q = abs(complex(ctx.q))
    A, B, a1, b3 = abs(p.A), abs(p.B), abs(p.a1), abs(p.b3)
    if which in (1, 4):
        return 0.0, a1 / (q * B)  # argument q B x / a1
    if which in (2, 3):
        return 0.0, np.inf  # argument q b3 / a1, x-free
    if which == 5:
        return q * b3 / A, np.inf  # argument q b3 / (A x)
    if which == 6:
        return 0.0, np.inf  # argument q B / A, x-free
    raise ValueError("which must be 1..6")


def e3_series_scale(p: Params3, ctx: QContext) -> float:
    """Natural |x| scale of the degree-three family (where q B x / a_i ~ 1)."""
    q = abs(complex(ctx.q))
    return min(abs(p.a1), abs(p.a2), abs(p.a3)) / (q * abs(p.B))


# -- series solutions: degree two ------------------------------------------------------


def e2_series(p: Params2, which: int, x: complex, ctx: QContext) -> complex:
    """One of the six catalogued 3phi2 series solutions of the degree-two
    equation.

    1, 2:  3phi2(q^alpha, A/B, a_i/(Bx); A a_i/(B b1), A a_i/(B b2); qBx/a_j)
           for (i, j) = (1, 2) and (2, 1);
    3, 4:  the Jackson-integral forms
           (qAx/a_j)_inf/(qBx/a_j)_inf
             * 3phi2(q b1/a_j, q b2/a_j, qBx/a_j; q a_i/a_j, qAx/a_j; q^alpha),
           equal (up to constants) to the endpoint integrals from 0 to q/a_j;
    5:     the Pochhammer-gauge image of 1,
           (Ax/b1)_inf/(qBx/a1)_inf
             * 3phi2(a2/b2, q b1/a1, q b1/(Ax); q^(1-alpha) a2/b2, q b1/b2; qBx/a2);
    6:     the index-1 reflection image of 3,
           (q^(alpha+1) Bx/a2)_inf/(qBx/a2)_inf
             * 3phi2(a1/b1, a1/b2, qBx/a2; q a1/a2, q^(alpha+1) Bx/a2; A/B).
    """
    q = complex(ctx.q)
    qa = qpow(q, p.alpha)
    A, B, a1, a2, b1, b2 = p.A, p.B, p.a1, p.a2, p.b1, p.b2
    x = complex(x)
    if which == 1:
        return phi(PhiSpec([qa, A / B, a1 / (B * x)],
                           [A * a1 / (B * b1), A * a1 / (B * b2)],
                           q * B * x / a2), ctx)
    if which == 2:
        return phi(PhiSpec([qa, A / B, a2 / (B * x)],
                           [A * a2 / (B * b1), A * a2 / (B * b2)],
                           q * B * x / a1), ctx)
    if which == 3:
        pref = qpoch_ratio([q * A * x / a2], [q * B * x / a2], ctx)
        return pref * phi(PhiSpec([q * b1 / a2, q * b2 / a2, q * B * x / a2],
                                  [q * a1 / a2, q * A * x / a2], qa), ctx)
    if which == 4:
        pref = qpoch_ratio([q * A * x / a1], [q * B * x / a1], ctx)
        return pref * phi(PhiSpec([q * b1 / a1, q * b2 / a1, q * B * x / a1],
                                  [q * a2 / a1, q * A * x / a1], qa), ctx)
    if which == 5:
        pref = qpoch_ratio([A * x / b1], [q * B * x / a1], ctx)
        return pref * phi(PhiSpec([a2 / b2, q * b1 / a1, q * b1 / (A * x)],
                                  [qpow(q, 1 - p.alpha) * a2 / b2, q * b1 / b2],
                                  q * B * x / a2), ctx)
    if which == 6:
        pref = qpoch_ratio([qpow(q, p.alpha + 1) * B * x / a2], [q * B * x / a2], ctx)
        return pref * phi(PhiSpec([a1 / b1, a1 / b2, q * B * x / a2],
                                  [q * a1 / a2, qpow(q, p.alpha + 1) * B * x / a2],
                                  A / B), ctx)
    raise ValueError("which must be 1..6")


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


def e2_series_domain(p: Params2, which: int, ctx: QContext) -> tuple[float, float]:
    """|x| interval where the series argument stays inside the unit disc
    (the x-free arguments q^alpha and A/B impose nothing on x)."""
    q = abs(complex(ctx.q))
    B = abs(p.B)
    if which in (1, 5):
        return 0.0, abs(p.a2) / (q * B)  # argument q B x / a2
    if which == 2:
        return 0.0, abs(p.a1) / (q * B)
    if which in (3, 4, 6):
        return 0.0, np.inf
    raise ValueError("which must be 1..6")


def e2_series_scale(p: Params2, ctx: QContext) -> float:
    q = abs(complex(ctx.q))
    return min(abs(p.a1), abs(p.a2)) / (q * abs(p.B))


# -- Heine-family series solutions ------------------------------------------------------


def _heine_exponents(p: HeineParams, ctx: QContext):
    lq = cmath.log(complex(ctx.q))
    return (cmath.log(complex(p.a)) / lq,
            cmath.log(complex(p.b)) / lq,
            cmath.log(complex(p.c)) / lq)


def heine_solution(p: HeineParams, which: int, z: complex, ctx: QContext) -> complex:
    """One of the 32 catalogued series solutions of the q-hypergeometric
    equation of Heine type; exponent prefactors use principal branches."""
    q = complex(ctx.q)
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    z = complex(z)
    alpha, beta, gamma = _heine_exponents(p, ctx)

    def zpow(e: complex) -> complex:
        return cmath.exp(complex(e) * cmath.log(z))

    def R(nums, dens) -> complex:
        return qpoch_ratio(nums, dens, ctx)

    w = a * b * z / c
    if which == 1:
        return phi(PhiSpec([a, b], [c], z), ctx)
    if which == 2:
        return R([w], [z]) * phi(PhiSpec([c / a, c / b], [c], w), ctx)
    if which == 3:
        return zpow(1 - gamma) * phi(PhiSpec([a * q / c, b * q / c], [q**2 / c], z), ctx)
    if which == 4:
        return zpow(1 - gamma) * R([w], [z]) * phi(
            PhiSpec([q / a, q / b], [q**2 / c], w), ctx)
    if which == 5:
        return zpow(-alpha) * phi(PhiSpec([a, a * q / c], [a * q / b],
                                          c * q / (a * b * z)), ctx)
    if which == 6:
        return zpow(-alpha) * R([q / z], [c * q / (a * b * z)]) * phi(
            PhiSpec([q / b, c / b], [a * q / b], q / z), ctx)
    if which == 7:
        return zpow(-beta) * phi(PhiSpec([b, b * q / c], [b * q / a],
                                         c * q / (a * b * z)), ctx)
    if which == 8:
        return zpow(-beta) * R([q / z], [c * q / (a * b * z)]) * phi(
            PhiSpec([q / a, c / a], [b * q / a], q / z), ctx)
    if which == 9:
        return phi(PhiSpec([a, b, w], [a * b * q / c, 0.0], q), ctx)
    if which == 10:
        return R([w], [z]) * phi(PhiSpec([c / a, c / b, z],
                                         [c * q / (a * b), 0.0], q), ctx)
    if which == 11:
        return zpow(1 - gamma) * phi(PhiSpec([a * q / c, b * q / c, w],
                                             [a * b * q / c, 0.0], q), ctx)
    if which == 12:
        return zpow(1 - gamma) * R([w], [z]) * phi(
            PhiSpec([q / a, q / b, z], [c * q / (a * b), 0.0], q), ctx)
    if which == 13:
        return zpow(-alpha) * phi(PhiSpec([a, a * q / c, q / z],
                                          [a * b * q / c, 0.0], q), ctx)
    if which == 14:
        return zpow(-alpha) * R([q / z], [c * q / (a * b * z)]) * phi(
            PhiSpec([q / b, c / b, c * q / (a * b * z)],
                    [c * q / (a * b), 0.0], q), ctx)
    if which == 15:
        return zpow(-beta) * phi(PhiSpec([b, b * q / c, q / z],
                                         [a * b * q / c, 0.0], q), ctx)
    if which == 16:
        return zpow(-beta) * R([q / z], [c * q / (a * b * z)]) * phi(
            PhiSpec([q / a, c / a, c * q / (a * b * z)],
                    [c * q / (a * b), 0.0], q), ctx)
    if which == 17:
        return R([a * z], [z]) * phi(PhiSpec([a, c / b], [c, a * z], b * z), ctx)
    if which == 18:
        return R([b * z], [z]) * phi(PhiSpec([b, c / a], [c, b * z], a * z), ctx)
    if which == 19:
        return zpow(1 - gamma) * R([a * q * z / c], [z]) * phi(
            PhiSpec([a * q / c, q / b], [q**2 / c, a * q * z / c], b * q * z / c), ctx)
    if which == 20:
        return zpow(1 - gamma) * R([b * q * z / c], [z]) * phi(
            PhiSpec([b * q / c, q / a], [q**2 / c, b * q * z / c], a * q * z / c), ctx)
    if which == 21:
        return R([w], [b * z / c]) * phi(
            PhiSpec([c / b, a], [a * q / b, c * q / (b * z)], q**2 / (b * z)), ctx)
    if which == 22:
        return R([w], [a * z / c]) * phi(
            PhiSpec([c / a, b], [b * q / a, c * q / (a * z)], q**2 / (a * z)), ctx)
    if which == 23:
        return zpow(1 - gamma) * R([w], [b * z / q]) * phi(
            PhiSpec([a * q / c, q / b], [a * q / b, q**2 / (b * z)],
                    c * q / (b * z)), ctx)
    if which == 24:
        return zpow(1 - gamma) * R([w], [a * z / q]) * phi(
            PhiSpec([b * q / c, q / a], [b * q / a, q**2 / (a * z)],
                    c * q / (a * z)), ctx)
    if which == 25:
        return R([a * z], [z]) * phi(PhiSpec([c / b, a, 0.0], [a * q / b, a * z], q), ctx)
    if which == 26:
        return R([b * z], [z]) * phi(PhiSpec([c / a, b, 0.0], [b * q / a, b * z], q), ctx)
    if which == 27:
        return zpow(1 - gamma) * R([a * q * z / c], [z]) * phi(
            PhiSpec([q / b, a * q / c, 0.0], [a * q / b, a * q * z / c], q), ctx)
    if which == 28:
        return zpow(1 - gamma) * R([b * q * z / c], [z]) * phi(
            PhiSpec([q / a, b * q / c, 0.0], [b * q / a, b * q * z / c], q), ctx)
    if which == 29:
        return zpow(-alpha) * R([c * q / (b * z)], [c * q / (a * b * z)]) * phi(
            PhiSpec([c / b, a, 0.0], [c, c * q / (b * z)], q), ctx)
    if which == 30:
        return zpow(-alpha) * R([q**2 / (b * z)], [c * q / (a * b * z)]) * phi(
            PhiSpec([q / b, a * q / c, 0.0], [q**2 / c, q**2 / (b * z)], q), ctx)
    if which == 31:
        return zpow(-beta) * R([c * q / (a * z)], [c * q / (a * b * z)]) * phi(
            PhiSpec([c / a, b, 0.0], [c, c * q / (a * z)], q), ctx)
    if which == 32:
        return zpow(-beta) * R([q**2 / (a * z)], [c * q / (a * b * z)]) * phi(
            PhiSpec([q / a, b * q / c, 0.0], [q**2 / c, q**2 / (a * z)], q), ctx)
    raise ValueError("which must be 1..32")


def heine_extra(p: HeineParams, which: int, z: complex, ctx: QContext) -> complex:
    """The two additional catalogued solutions: the terminating 3phi1 form
    (formal otherwise) and the integral-analog series behind the
    transformation formula."""
    q = complex(ctx.q)
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    z = complex(z)
    if which == 1:
        return phi(PhiSpec([a, b, q / z], [a * b * q / c], z / c), ctx)
    if which == 2:
        return qpoch_ratio([b * z], [z], ctx) * phi(PhiSpec([c / a, z], [b * z], a), ctx)
    raise ValueError("which must be 1 or 2")


def heine_domain(p: HeineParams, which: int, ctx: QContext) -> tuple[float, float]:
    """|z| interval on the positive axis for each catalogued solution.

    Bounds come from series convergence (|argument| < 1) and from the real
    pole grid of a (z)_inf denominator where present; pole grids with
    complex-generic bases do not restrict the positive axis.
    """
    q = abs(complex(ctx.q))
    a, b, c = abs(p.a), abs(p.b), abs(p.c)
    w = a * b / c
    if which in (1, 3):
        return 0.0, 1.0
    if which in (2, 4, 10, 12):
        return 0.0, min(1.0, 1.0 / w)
    if which in (5, 7, 14, 16, 29, 30, 31, 32):
        return c * q / (a * b), np.inf
    if which in (6, 8):
        return max(q, c * q / (a * b)), np.inf
    if which in (9, 11, 13, 15, 21, 22, 23, 24):
        return 0.0, np.inf
    if which in (17, 18, 19, 20, 25, 26, 27, 28):
        return 0.0, 1.0
    raise ValueError("which must be 1..32")


# rows whose zero-slot 3phi2 forms are rigorous exactly in the terminating
# regime (a numerator parameter in q^{-Z>=0}); the map below names the
# parameter relation that terminates each row.
HEINE_TERMINATING: dict[int, str] = {
    9: "a=q^-n", 13: "a=q^-n", 25: "a=q^-n", 29: "a=q^-n",
    15: "b=q^-n", 26: "b=q^-n", 31: "b=q^-n",
    12: "a=q^n+1", 28: "a=q^n+1", 32: "a=q^n+1",
    14: "b=q^n+1", 27: "b=q^n+1", 30: "b=q^n+1",
    10: "c=a*q^-n", 16: "c=a*q^-n",
    11: "c=a*q^n+1",
}


def heine_scale(p: HeineParams, which: int, ctx: QContext) -> float:
    q = abs(complex(ctx.q))
    a, b = abs(p.a), abs(p.b)
    c = abs(p.c)
    if which in (21, 23):
        return c / b if which == 21 else q / b
    if which in (22, 24):
        return c / a if which == 22 else q / a
    return 1.0


# -- verification utilities ---------------------------------------------------------


@dataclass
class SolutionHandle:
    """A named evaluable solution: label, evaluator, positive-axis sampling
    interval and scale, claimed operator and its T-power range."""

    label: str
    evaluator: Callable[[complex], complex]
    interval: tuple[float, float]
    equation: QDiffOperator
    params: object
    scale: float = 1.0

    def domain(self, x: complex) -> bool:
        lo, hi = self.interval
        return lo < abs(x) < hi

    def __call__(self, x: complex) -> complex:
        return self.evaluator(x)


def residual(
    op: QDiffOperator,
    f: Callable[[complex], complex] | SolutionHandle,
    xs: Sequence[complex],
    ctx: QContext,
) -> float:
    """Max over sample points of |sum of operator terms| relative to the sum
    of term magnitudes (backward-error style; floor keeps zeros harmless)."""
    ev = f.evaluator if isinstance(f, SolutionHandle) else f
    if isinstance(f, SolutionHandle):
        bad = [x for x in xs
               for j in range(op.t_min, op.t_max + 1)
               if not f.domain(complex(ctx.q) ** j * complex(x))]
        if bad:
            raise DomainError(f"points outside the solution domain: {sorted(set(map(abs, bad)))}")
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
            return _phi3_single(p, endpoint.resolve(p, y, ctx), y, ctx)
        terms = op.apply_terms(F, x)
        target = (1.0 - q) * q * (p.A - p.B) * complex(x) ** 2
    elif endpoint.tag in ("b", "Bx"):
        lam = p.lam(ctx)

        def F(y: complex) -> complex:
            pref = cmath.exp(lam * cmath.log(complex(y)))
            return pref * _phi3_tilde_single(p, endpoint.resolve(p, y, ctx), y, ctx)
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
    p: Params3, t1: Endpoint, t2: Endpoint, t3: Endpoint, x: complex, ctx: QContext
) -> float:
    """|phi(t1,t2) + phi(t2,t3) + phi(t3,t1)| relative to the largest term."""
    v12 = phi3(p, t1, t2, x, ctx)
    v23 = phi3(p, t2, t3, x, ctx)
    v31 = phi3(p, t3, t1, x, ctx)
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


def incidence_rank(tol: float = 1e-12) -> int:
    svals = np.linalg.svd(incidence_matrix(), compute_uv=False)
    return int((svals > tol * svals[0]).sum())


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


# -- handles and label parsing ---------------------------------------------------------

_T3_TAUS = {1: Endpoint.q_over_a(1), 2: Endpoint.q_over_a(2),
            3: Endpoint.q_over_a(3), 4: Endpoint.q_over_Ax()}
_T3_SIGMAS = {1: Endpoint.b(1), 2: Endpoint.b(2), 3: Endpoint.b(3),
              4: Endpoint.Bx()}
_T2_TAUS = {0: Endpoint.zero(), 1: Endpoint.q_over_a(1), 2: Endpoint.q_over_a(2),
            3: Endpoint.q_over_Ax()}


def _t2_sigmas(sigma: complex):
    return {1: Endpoint.b(1), 2: Endpoint.b(2), 3: Endpoint.Bx(),
            4: Endpoint.sigma_inf(sigma)}


def integral_scale(p, ctx: QContext) -> float:
    """Natural |x| scale for the integral families (the pole grids have
    complex-generic bases, so no hard positive-axis window is needed)."""
    q = abs(complex(ctx.q))
    return min(abs(v) for v in p.a_list()) / (q * abs(p.B))


def solution_handle(
    label: str,
    params,
    ctx: QContext,
    sigma: complex = 1.3,
) -> SolutionHandle:
    """Build the evaluable solution for a catalogue label.

    Labels: thmint3.phi3[i,j], thmint3.tilde[i,j] (i, j in 1..4),
    thmint2.phi2[i,j] (0..3), thmint2.tilde[i,j] (1..4, 4 the bilateral
    endpoint), thmser3.1..6, thmser2.1..6, heine.1..32, heine_extra.1..2.
    """
    fam, _, rest = label.partition(".")
    if fam == "thmint3":
        p: Params3 = params
        kind, i, j = _parse_pair(rest)
        table = _T3_TAUS if kind == "phi3" else _T3_SIGMAS
        e1, e2 = table[i], table[j]
        fn = phi3 if kind == "phi3" else phi3_tilde
        op = build_e3(p, ctx)
        return SolutionHandle(label, lambda x: fn(p, e1, e2, x, ctx), (0.0, np.inf),
                              op, p, scale=0.3 * integral_scale(p, ctx))
    if fam == "thmint2":
        p2: Params2 = params
        kind, i, j = _parse_pair(rest)
        if kind == "phi2":
            e1, e2 = _T2_TAUS[i], _T2_TAUS[j]
            fn2 = phi2
        else:
            sig = _t2_sigmas(sigma)
            e1, e2 = sig[i], sig[j]
            fn2 = phi2_tilde
        op = build_e2(p2, ctx)
        return SolutionHandle(label, lambda x: fn2(p2, e1, e2, x, ctx), (0.0, np.inf),
                              op, p2, scale=0.3 * integral_scale(p2, ctx))
    if fam == "thmser3":
        p3: Params3 = params
        which = int(rest)
        op = build_e3(p3, ctx)
        lo, hi = e3_series_domain(p3, which, ctx)
        return SolutionHandle(label, lambda x: e3_series(p3, which, x, ctx), (lo, hi),
                              op, p3, scale=0.3 * e3_series_scale(p3, ctx))
    if fam == "thmser2":
        p2s: Params2 = params
        which = int(rest)
        op = build_e2(p2s, ctx)
        lo, hi = e2_series_domain(p2s, which, ctx)
        return SolutionHandle(label, lambda x: e2_series(p2s, which, x, ctx), (lo, hi),
                              op, p2s, scale=0.3 * e2_series_scale(p2s, ctx))
    if fam == "heine":
        ph: HeineParams = params
        which = int(rest)
        op = build_heine(ph, ctx)
        lo, hi = heine_domain(ph, which, ctx)
        return SolutionHandle(label, lambda z: heine_solution(ph, which, z, ctx), (lo, hi),
                              op, ph, scale=0.5 * heine_scale(ph, which, ctx))
    if fam == "heine_extra":
        ph2: HeineParams = params
        which = int(rest)
        op = build_heine(ph2, ctx)
        return SolutionHandle(label, lambda z: heine_extra(ph2, which, z, ctx), (0.0, 1.0),
                              op, ph2, scale=0.4)
    raise ValueError(f"unknown solution label {label!r}")


def _parse_pair(rest: str) -> tuple[str, int, int]:
    kind, _, idx = rest.partition("[")
    if not idx.endswith("]"):
        raise ValueError(f"malformed endpoint pair in label: {rest!r}")
    i, j = idx[:-1].split(",")
    return kind, int(i), int(j)


def all_labels(family: str) -> list[str]:
    """Expand a family name to its full label list."""
    if family == "thmint3":
        return ([f"thmint3.phi3[{i},{j}]" for i in range(1, 5) for j in range(i + 1, 5)]
                + [f"thmint3.tilde[{i},{j}]" for i in range(1, 5) for j in range(i + 1, 5)])
    if family == "thmint2":
        return ([f"thmint2.phi2[{i},{j}]" for i in range(0, 4) for j in range(i + 1, 4)]
                + [f"thmint2.tilde[{i},{j}]" for i in range(1, 5) for j in range(i + 1, 5)])
    if family == "thmser3":
        return [f"thmser3.{k}" for k in range(1, 7)]
    if family == "thmser2":
        return [f"thmser2.{k}" for k in range(1, 7)]
    if family == "heine":
        return [f"heine.{k}" for k in range(1, 33)]
    if family == "heine_extra":
        return [f"heine_extra.{k}" for k in range(1, 3)]
    raise ValueError(f"unknown family {family!r}")


def sample_points(
    handle: SolutionHandle, n: int, ctx: QContext, spread: float = 25.0
) -> list[float]:
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
        lo_s, hi_s = s / np.sqrt(spread), s * np.sqrt(spread)
    elif lo_eff <= 0:
        hi_s = min(hi_eff * 0.92, s * np.sqrt(spread))
        lo_s = hi_s / spread
    elif not np.isfinite(hi_eff):
        lo_s = max(lo_eff * 1.1, s / np.sqrt(spread))
        lo_s = lo_eff * 1.1 if lo_s < lo_eff * 1.1 else lo_s
        hi_s = lo_s * spread
    else:
        lo_s, hi_s = lo_eff * 1.08, hi_eff * 0.92
    if lo_s >= hi_s:
        raise DomainError(
            f"empty sampling window for {handle.label}: ({lo_eff:.3g}, {hi_eff:.3g})")
    return list(np.geomspace(lo_s, hi_s, n))
