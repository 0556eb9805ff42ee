"""Constructors for the named q-difference operators, their parameter tuples,
expected configurations, rigidity reconstruction and degeneration limits.

Operator displays in the source material carry a few sign/exponent variants;
the forms built here are the ones under which every stated configuration,
non-logarithmic condition and solution family verifies numerically (the test
suite exercises all of them).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BalanceError, DomainError, GenericityError
from .opalgebra import Configuration, QDiffOperator, sorted_roots
from .qcore import QContext

_GENERICITY_WINDOW = 64
_GENERICITY_TOL = 1e-6


def qpow(q: complex, z: complex) -> complex:
    """Principal q^z for complex exponent z."""
    return cmath.exp(complex(z) * cmath.log(complex(q)))


def _near_q_power(value: complex, q: complex, lo: int, hi: int,
                  tol: float = _GENERICITY_TOL, floor: float = 1.0) -> bool:
    """Whether |value - q^k| <= tol * max(|q^k|, floor) for some lo <= k <= hi.

    The genericity checks keep floor 1 (a margin absolute below 1); the
    samplers pass 1e-12 (a margin relative to every power)."""
    q = complex(q)
    for k in range(lo, hi + 1):
        target = q**k
        if abs(value - target) <= tol * max(abs(target), floor):
            return True
    return False


def _monic_product(roots: Sequence[complex]) -> dict[int, complex]:
    """x-coefficients of prod (x - r_i), from numpy.poly's sequential
    convolutions."""
    coeffs = np.atleast_1d(np.poly(np.array(roots, dtype=complex)))
    deg = len(coeffs) - 1
    return {deg - k: complex(c) for k, c in enumerate(coeffs)}


def e_sym(vals: Sequence[complex], k: int) -> complex:
    """Elementary symmetric polynomial e_k of the given values: the x^(n-k)
    coefficient of prod (x + v)."""
    return _monic_product([-complex(v) for v in vals]).get(len(vals) - k, 0j)


# -- parameter tuples -----------------------------------------------------------


@dataclass(frozen=True)
class HeineParams:
    a: complex
    b: complex
    c: complex

    def validate(self, ctx: QContext):
        if 0 in (self.a, self.b, self.c):
            raise DomainError("Heine parameters a, b and c must be nonzero")

    def validate_generic(self, ctx: QContext):
        if _near_q_power(complex(self.c), ctx.q, -_GENERICITY_WINDOW, 0):
            raise GenericityError("c must avoid q^{-n}, n >= 0, for series at 0")


@dataclass(frozen=True)
class Params2:
    """Degree-two family: exponent alpha (a0 = q^alpha) and a1,a2,b1,b2,A,B
    with the balance a1 a2 A = q^{alpha+1} b1 b2 B."""

    alpha: complex
    a1: complex
    a2: complex
    b1: complex
    b2: complex
    A: complex
    B: complex

    def balance_deviation(self, ctx: QContext) -> float:
        lhs = self.a1 * self.a2 * self.A
        rhs = qpow(ctx.q, self.alpha + 1) * self.b1 * self.b2 * self.B
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

    def validate(self, ctx: QContext):
        if self.balance_deviation(ctx) > ctx.eq_tol:
            raise BalanceError("need a1 a2 A = q^(alpha+1) b1 b2 B")

    def validate_generic(self, ctx: QContext):
        ratio = self.B / self.A
        if _near_q_power(ratio, ctx.q, -1, _GENERICITY_WINDOW):
            raise GenericityError("B/A must avoid q^{Z >= -1}")
        if _near_q_power(qpow(ctx.q, self.alpha + 1) * ratio, ctx.q,
                         -_GENERICITY_WINDOW, 0):
            raise GenericityError("q^(alpha+1) B/A must avoid q^{Z <= 0}")

    def lam(self, ctx: QContext) -> complex:
        return cmath.log(self.B / self.A) / cmath.log(complex(ctx.q))

    def a_list(self):
        return (self.a1, self.a2)

    def b_list(self):
        return (self.b1, self.b2)


@dataclass(frozen=True)
class Params3:
    """Degree-three family: a1..a3, b1..b3, A, B with the balance
    a1 a2 a3 A = q^2 b1 b2 b3 B; q^lambda = B/A."""

    a1: complex
    a2: complex
    a3: complex
    b1: complex
    b2: complex
    b3: complex
    A: complex
    B: complex

    def balance_deviation(self, ctx: QContext) -> float:
        lhs = self.a1 * self.a2 * self.a3 * self.A
        rhs = ctx.q**2 * self.b1 * self.b2 * self.b3 * self.B
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

    def validate(self, ctx: QContext):
        if self.balance_deviation(ctx) > ctx.eq_tol:
            raise BalanceError("need a1 a2 a3 A = q^2 b1 b2 b3 B")

    def validate_generic(self, ctx: QContext):
        if _near_q_power(self.B / self.A, ctx.q,
                         -_GENERICITY_WINDOW, _GENERICITY_WINDOW):
            raise GenericityError("B/A must avoid integer powers of q")

    def lam(self, ctx: QContext) -> complex:
        return cmath.log(self.B / self.A) / cmath.log(complex(ctx.q))

    def a_list(self):
        return (self.a1, self.a2, self.a3)

    def b_list(self):
        return (self.b1, self.b2, self.b3)


@dataclass(frozen=True)
class HeunParams:
    """q-Heun family (degree two, accessory parameter E)."""

    h1: complex
    h2: complex
    l1: complex
    l2: complex
    t1: complex
    t2: complex
    alpha1: complex
    alpha2: complex
    beta: complex
    E: complex = 0.0

    def lambda_pm(self) -> tuple[complex, complex]:
        base = self.h1 + self.h2 - self.l1 - self.l2 - self.alpha1 - self.alpha2 + 2
        return ((base + self.beta) / 2, (base - self.beta) / 2)


@dataclass(frozen=True)
class Heun3Params:
    """Degree-three q-Heun variant (accessory parameter E)."""

    h1: complex
    h2: complex
    h3: complex
    l1: complex
    l2: complex
    l3: complex
    t1: complex
    t2: complex
    t3: complex
    beta: complex
    E: complex = 0.0

    def mu_pm(self) -> tuple[complex, complex]:
        base = (self.h1 + self.h2 + self.h3) - (self.l1 + self.l2 + self.l3) + 3
        return ((base + self.beta) / 2, (base - self.beta) / 2)


@dataclass(frozen=True)
class H2Params:
    """Degree-two variant of the q-hypergeometric family: the accessory
    parameter is pinned so that x = 0 becomes a non-logarithmic double point."""

    h1: complex
    h2: complex
    l1: complex
    l2: complex
    t1: complex
    t2: complex
    alpha1: complex
    alpha2: complex

    @property
    def lam0(self) -> complex:
        return (self.h1 + self.h2 - self.l1 - self.l2
                - self.alpha1 - self.alpha2 + 1) / 2

    def p_factor(self, q: complex) -> complex:
        return qpow(q, (self.h1 + self.h2 + self.l1 + self.l2
                        + self.alpha1 + self.alpha2) / 2)

    def accessory(self, q: complex) -> complex:
        p = self.p_factor(q)
        return -p * ((qpow(q, -self.h2) + qpow(q, -self.l2)) * self.t1
                     + (qpow(q, -self.h1) + qpow(q, -self.l1)) * self.t2)


@dataclass(frozen=True)
class H3Params:
    """Degree-three variant of the q-hypergeometric family."""

    h1: complex
    h2: complex
    h3: complex
    l1: complex
    l2: complex
    l3: complex
    t1: complex
    t2: complex
    t3: complex
    alpha: complex

    @property
    def nu(self) -> complex:
        return ((self.h1 + self.h2 + self.h3)
                - (self.l1 + self.l2 + self.l3) + 1) / 2

    def h_list(self):
        return (self.h1, self.h2, self.h3)

    def l_list(self):
        return (self.l1, self.l2, self.l3)

    def t_list(self):
        return (self.t1, self.t2, self.t3)


# -- builders ---------------------------------------------------------------------


def _poly_times_tpower(q: complex, xcoeffs: dict[int, complex], j: int) -> QDiffOperator:
    """Operator (sum_k c_k x^k) T^j from a dict of x-coefficients."""
    return QDiffOperator(q, {(k, j): c for k, c in xcoeffs.items()})


def build_heine(p: HeineParams, ctx: QContext) -> QDiffOperator:
    """x (1 - a T)(1 - b T) - (1 - T)(1 - c q^{-1} T)."""
    q = complex(ctx.q)
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    return QDiffOperator(q, {
        (1, 0): 1.0, (1, 1): -(a + b), (1, 2): a * b,
        (0, 0): -1.0, (0, 1): 1.0 + c / q, (0, 2): -c / q,
    })


def _uv(q: complex, h: Sequence[complex], l: Sequence[complex], t: Sequence[complex]):
    u = [qpow(q, hi + 0.5) * ti for hi, ti in zip(h, t)]
    v = [qpow(q, li - 0.5) * ti for li, ti in zip(l, t)]
    return u, v


def build_qheun(p: HeunParams, ctx: QContext) -> QDiffOperator:
    """The q-Heun operator minus its accessory parameter E."""
    q = complex(ctx.q)
    u, v = _uv(q, (p.h1, p.h2), (p.l1, p.l2), (p.t1, p.t2))
    s = (p.h1 + p.h2 + p.l1 + p.l2 + p.alpha1 + p.alpha2) / 2
    down = _poly_times_tpower(q, {1: 1.0, 0: -(u[0] + u[1]), -1: u[0] * u[1]}, -1)
    up_scale = qpow(q, p.alpha1 + p.alpha2)
    up = _poly_times_tpower(
        q, {1: up_scale, 0: -up_scale * (v[0] + v[1]), -1: up_scale * v[0] * v[1]}, 1
    )
    mid = QDiffOperator(q, {
        (1, 0): -(qpow(q, p.alpha1) + qpow(q, p.alpha2)),
        (-1, 0): -qpow(q, s) * (qpow(q, p.beta / 2) + qpow(q, -p.beta / 2)) * p.t1 * p.t2,
        (0, 0): -complex(p.E),
    })
    return down + up + mid


def build_qheun3(p: Heun3Params, ctx: QContext) -> QDiffOperator:
    """The degree-three q-Heun variant minus its accessory parameter E."""
    q = complex(ctx.q)
    h = (p.h1, p.h2, p.h3)
    l = (p.l1, p.l2, p.l3)
    t = (p.t1, p.t2, p.t3)
    u, v = _uv(q, h, l, t)
    w = (sum(h) + sum(l)) / 2
    tt = p.t1 * p.t2 * p.t3

    def shifted(poly_roots):
        c = _monic_product(poly_roots)
        return {k - 1: val for k, val in c.items()}  # x^{-1} prod (x - r_i)

    down = _poly_times_tpower(q, shifted(u), -1)
    up = _poly_times_tpower(q, shifted(v), 1)
    mid = QDiffOperator(q, {
        (2, 0): -(qpow(q, 0.5) + qpow(q, -0.5)),
        (1, 0): sum((qpow(q, hi) + qpow(q, li)) * ti for hi, li, ti in zip(h, l, t)),
        (-1, 0): qpow(q, w) * (qpow(q, p.beta / 2) + qpow(q, -p.beta / 2)) * tt,
        (0, 0): -complex(p.E),
    })
    return down + up + mid


def build_h2(p: H2Params, ctx: QContext) -> QDiffOperator:
    """Degree-two variant: x = 0 carries the double point {q^lam0, q^(lam0+1)}."""
    q = complex(ctx.q)
    u, v = _uv(q, (p.h1, p.h2), (p.l1, p.l2), (p.t1, p.t2))
    pp = p.p_factor(q)
    E = p.accessory(q)
    down = _poly_times_tpower(q, _monic_product(u), -1)
    up_scale = qpow(q, p.alpha1 + p.alpha2)
    upc = _monic_product(v)
    up = _poly_times_tpower(q, {k: up_scale * c for k, c in upc.items()}, 1)
    mid = QDiffOperator(q, {
        (2, 0): -(qpow(q, p.alpha1) + qpow(q, p.alpha2)),
        (1, 0): -E,
        (0, 0): -pp * (qpow(q, 0.5) + qpow(q, -0.5)) * p.t1 * p.t2,
    })
    return down + up + mid


def build_h3(p: H3Params, ctx: QContext) -> QDiffOperator:
    """Degree-three variant: double points at both x-boundaries."""
    q = complex(ctx.q)
    h, l, t = p.h_list(), p.l_list(), p.t_list()
    u, v = _uv(q, h, l, t)
    w = (sum(h) + sum(l)) / 2
    tt = p.t1 * p.t2 * p.t3
    qa = qpow(q, p.alpha)
    down = _poly_times_tpower(q, _monic_product(u), -1)
    up_scale = qpow(q, 2 * p.alpha + 1)
    upc = _monic_product(v)
    up = _poly_times_tpower(q, {k: up_scale * c for k, c in upc.items()}, 1)
    mid = QDiffOperator(q, {
        (3, 0): -qa * (q + 1),
        (2, 0): qa * qpow(q, 0.5) * sum(
            (qpow(q, hi) + qpow(q, li)) * ti for hi, li, ti in zip(h, l, t)
        ),
        (1, 0): -qa * qpow(q, w + 0.5) * tt * sum(
            (qpow(q, -hi) + qpow(q, -li)) / ti for hi, li, ti in zip(h, l, t)
        ),
        (0, 0): qa * qpow(q, w) * (q + 1) * tt,
    })
    return down + up + mid


def build_e2(p: Params2, ctx: QContext, check_balance: bool = True) -> QDiffOperator:
    """[x^2 (1 - q^alpha T)(B - A T) - x (e1(a) - q^alpha e1(b) T)(1 - T)
    + e2(a) B^{-1} (1 - q^{-1} T)(1 - T)] T^{-1}."""
    if check_balance:
        p.validate(ctx)
    q = complex(ctx.q)
    A, B = complex(p.A), complex(p.B)
    qa = qpow(q, p.alpha)
    e1a, e1b = e_sym(p.a_list(), 1), e_sym(p.b_list(), 1)
    e2a = e_sym(p.a_list(), 2)
    X = QDiffOperator.x_power(q)
    T = QDiffOperator.t_power(q)
    one = QDiffOperator.constant(q, 1.0)
    bracket = (
        X * X * ((one - qa * T) * (B * one - A * T))
        - X * ((e1a * one - qa * e1b * T) * (one - T))
        + (e2a / B) * ((one - (1.0 / q) * T) * (one - T))
    )
    return bracket * QDiffOperator.t_power(q, -1)


def build_e3(p: Params3, ctx: QContext, check_balance: bool = True) -> QDiffOperator:
    """[x^3 (B - A T)(B - A q T) - x^2 (e1(a) - q e1(b) T)(B - A T)
    + x (e2(a) - q e2(b) T)(1 - T) - e3(a) B^{-1} (1 - q^{-1} T)(1 - T)] T^{-1}."""
    if check_balance:
        p.validate(ctx)
    q = complex(ctx.q)
    A, B = complex(p.A), complex(p.B)
    e1a, e2a, e3a = (e_sym(p.a_list(), k) for k in (1, 2, 3))
    e1b, e2b = e_sym(p.b_list(), 1), e_sym(p.b_list(), 2)
    X = QDiffOperator.x_power(q)
    T = QDiffOperator.t_power(q)
    one = QDiffOperator.constant(q, 1.0)
    bracket = (
        X * X * X * ((B * one - A * T) * (B * one - A * q * T))
        - X * X * ((e1a * one - q * e1b * T) * (B * one - A * T))
        + X * ((e2a * one - q * e2b * T) * (one - T))
        - (e3a / B) * ((one - (1.0 / q) * T) * (one - T))
    )
    return bracket * QDiffOperator.t_power(q, -1)


# -- expected configurations ----------------------------------------------------


def expected_configuration(kind: str, p, ctx: QContext) -> Configuration:
    """The configuration each named equation is certified against."""
    q = complex(ctx.q)
    if kind == "heine":
        return Configuration(
            roots_x0=sorted_roots([1.0, q / p.c]),
            roots_xinf=sorted_roots([1.0 / p.a, 1.0 / p.b]),
            roots_T0=sorted_roots([1.0]),
            roots_Tinf=sorted_roots([p.c / (p.a * p.b * q)]),
        )
    if kind == "qheun":
        u, v = _uv(q, (p.h1, p.h2), (p.l1, p.l2), (p.t1, p.t2))
        lp, lm = p.lambda_pm()
        return Configuration(
            roots_x0=sorted_roots([qpow(q, lp), qpow(q, lm)]),
            roots_xinf=sorted_roots([qpow(q, -p.alpha1), qpow(q, -p.alpha2)]),
            roots_T0=sorted_roots(u),
            roots_Tinf=sorted_roots(v),
        )
    if kind == "qheun3":
        u, v = _uv(q, (p.h1, p.h2, p.h3), (p.l1, p.l2, p.l3), (p.t1, p.t2, p.t3))
        mp, mm = p.mu_pm()
        return Configuration(
            roots_x0=sorted_roots([qpow(q, mp), qpow(q, mm)]),
            roots_xinf=sorted_roots([qpow(q, 0.5), qpow(q, -0.5)]),
            roots_T0=sorted_roots(u),
            roots_Tinf=sorted_roots(v),
            double_xinf=qpow(q, -0.5),
        )
    if kind == "h2":
        u, v = _uv(q, (p.h1, p.h2), (p.l1, p.l2), (p.t1, p.t2))
        lam0 = qpow(q, p.lam0)
        return Configuration(
            roots_x0=sorted_roots([lam0, lam0 * q]),
            roots_xinf=sorted_roots([qpow(q, -p.alpha1), qpow(q, -p.alpha2)]),
            roots_T0=sorted_roots(u),
            roots_Tinf=sorted_roots(v),
            double_x0=lam0,
        )
    if kind == "h3":
        u, v = _uv(q, p.h_list(), p.l_list(), p.t_list())
        base = qpow(q, p.nu - p.alpha)
        top = qpow(q, -p.alpha - 1)
        return Configuration(
            roots_x0=sorted_roots([base, base * q]),
            roots_xinf=sorted_roots([top, top * q]),
            roots_T0=sorted_roots(u),
            roots_Tinf=sorted_roots(v),
            double_x0=base,
            double_xinf=top,
        )
    if kind == "e2":
        return Configuration(
            roots_x0=sorted_roots([1.0, q]),
            roots_xinf=sorted_roots([qpow(q, -p.alpha), p.B / p.A]),
            roots_T0=sorted_roots([p.a1 / p.B, p.a2 / p.B]),
            roots_Tinf=sorted_roots([p.b1 / p.A, p.b2 / p.A]),
            double_x0=1.0 + 0.0j,
        )
    if kind == "e3":
        return Configuration(
            roots_x0=sorted_roots([1.0, q]),
            roots_xinf=sorted_roots([p.B / (q * p.A), p.B / p.A]),
            roots_T0=sorted_roots([p.a1 / p.B, p.a2 / p.B, p.a3 / p.B]),
            roots_Tinf=sorted_roots([p.b1 / p.A, p.b2 / p.A, p.b3 / p.A]),
            double_x0=1.0 + 0.0j,
            double_xinf=p.B / (q * p.A),
        )
    raise ValueError(f"unknown equation kind {kind!r}")


BUILDERS = {
    "heine": build_heine,
    "qheun": build_qheun,
    "qheun3": build_qheun3,
    "h2": build_h2,
    "h3": build_h3,
    "e2": build_e2,
    "e3": build_e3,
}


# -- cross-family parameter dictionaries ------------------------------------------


def params3_to_h3(p: Params3, alpha: complex, ctx: QContext) -> tuple[H3Params, complex]:
    """H3 parameters whose operator is the x^(nu-alpha)-gauge image of the
    degree-three operator built from ``p``; returns (params, mu) with mu the
    exponent to pass to ``gauge_power``.

    Gauge choice t_i = 1; the returned operator satisfies
    build_e3(p).gauge_power(mu) = const * build_h3(params).
    """
    q = complex(ctx.q)
    lq = cmath.log(q)
    nu = -p.lam(ctx)  # q^{-nu} = B/A
    h = [cmath.log(ai / p.B) / lq - 0.5 for ai in p.a_list()]
    l = [cmath.log(bi / p.A) / lq + 0.5 for bi in p.b_list()]
    hp = H3Params(h[0], h[1], h[2], l[0], l[1], l[2], 1.0, 1.0, 1.0, alpha)
    mu = alpha - nu
    return hp, mu


def params2_to_h2(p: Params2, lam0: complex, ctx: QContext) -> tuple[H2Params, complex]:
    """H2 parameters for the x^lam0-gauge image of the degree-two operator;
    the split alpha1 = alpha - lam0, alpha2 = -lam0 - lambda is free in lam0."""
    q = complex(ctx.q)
    lq = cmath.log(q)
    lam = p.lam(ctx)
    h = [cmath.log(ai / p.B) / lq - 0.5 for ai in (p.a1, p.a2)]
    l = [cmath.log(bi / p.A) / lq + 0.5 for bi in (p.b1, p.b2)]
    hp = H2Params(h[0], h[1], l[0], l[1], 1.0, 1.0, p.alpha - lam0, -lam0 - lam)
    mu = -lam0
    return hp, mu


# -- degeneration verification ------------------------------------------------------


@dataclass
class DegenerationReport:
    kind: str
    scales: list[float]
    deviations: list[float]
    monotone: bool | None
    passed: bool

    def rows(self) -> list[dict]:
        return [
            {"scale": s, "deviation": d}
            for s, d in zip(self.scales, self.deviations)
        ]


def _pivot_normalize(op: QDiffOperator, pivot_key: tuple[int, int]) -> dict:
    pivot = op.coeffs.get(pivot_key)
    if pivot is None or pivot == 0:
        raise ValueError(f"pivot coefficient {pivot_key} absent")
    return {k: c / pivot for k, c in op.coeffs.items()}


def _coeff_deviation(big: QDiffOperator, limit: QDiffOperator) -> float:
    """Max coefficient deviation after normalizing both by the limit
    operator's lexicographically largest (i, j) entry."""
    pivot_key = max(limit.coeffs)
    nb = _pivot_normalize(big, pivot_key)
    nl = _pivot_normalize(limit, pivot_key)
    keys = set(nb) | set(nl)
    return max(abs(nb.get(k, 0.0) - nl.get(k, 0.0)) for k in keys)


def verify_degeneration(
    kind: str,
    base_params,
    scale_sequence: Sequence[float],
    ctx: QContext,
) -> DegenerationReport:
    """Coefficientwise degeneration check.

    kind "e3_to_e2": base_params is Params2; the degree-three operator is
        built with a3 = s, b3 = q^(alpha-1) s and compared against the
        degree-two operator as s grows.
    kind "h3_to_h2": base_params is H3Params; t3 = s -> infinity, limit has
        (alpha1, alpha2) = (alpha, alpha - h3 + l3).
    kind "h2_to_heine": base_params is H2Params with t1 = 1, h1 = 1/2 and
        h2 - l2 = alpha1 + alpha2 + l1 - 3/2; t2 = s -> 0, limit is
        x T^{-1} Heine(q^alpha1, q^alpha2, q^(alpha1+alpha2+l1-1/2)).
    """
    q = complex(ctx.q)
    devs: list[float] = []
    scales = [float(s) for s in scale_sequence]

    if kind == "e3_to_e2":
        p2: Params2 = base_params
        limit = build_e2(p2, ctx)
        for s in scales:
            p3 = Params3(p2.a1, p2.a2, s, p2.b1, p2.b2,
                         qpow(q, p2.alpha - 1) * s, p2.A, p2.B)
            devs.append(_coeff_deviation(build_e3(p3, ctx), limit))
    elif kind == "h3_to_h2":
        p3h: H3Params = base_params
        limit = build_h2(
            H2Params(p3h.h1, p3h.h2, p3h.l1, p3h.l2, p3h.t1, p3h.t2,
                     p3h.alpha, p3h.alpha - p3h.h3 + p3h.l3),
            ctx,
        )
        for s in scales:
            big = build_h3(
                H3Params(p3h.h1, p3h.h2, p3h.h3, p3h.l1, p3h.l2, p3h.l3,
                         p3h.t1, p3h.t2, s, p3h.alpha),
                ctx,
            )
            devs.append(_coeff_deviation(big, limit))
    elif kind == "h2_to_heine":
        p2h: H2Params = base_params
        a = qpow(q, p2h.alpha1)
        b = qpow(q, p2h.alpha2)
        c = qpow(q, p2h.alpha1 + p2h.alpha2 + p2h.l1 - 0.5)
        heine = build_heine(HeineParams(a, b, c), ctx)
        limit = QDiffOperator.x_power(q) * QDiffOperator.t_power(q, -1) * heine
        for s in scales:
            big = build_h2(
                H2Params(p2h.h1, p2h.h2, p2h.l1, p2h.l2, p2h.t1, s,
                         p2h.alpha1, p2h.alpha2),
                ctx,
            )
            devs.append(_coeff_deviation(big, limit))
    else:
        raise ValueError(f"unknown degeneration kind {kind!r}")

    monotone = None
    if len(devs) >= 2:
        monotone = all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
    passed = bool(monotone) and devs[-1] < ctx.eq_tol * 10 if monotone is not None else True
    return DegenerationReport(kind, scales, devs, monotone, passed)


# -- rigidity: configuration -> operator -------------------------------------------


def rigidity_reconstruct(kind: str, p, ctx: QContext) -> QDiffOperator:
    """Reconstruct the operator from its expected configuration alone.

    Sets up the homogeneous linear system expressing root data plus the two
    non-logarithmic conditions and returns the (unique up to scale) null
    vector as an operator; the builders must match it up to one constant.
    """
    q = complex(ctx.q)
    if kind == "h2":
        i_range = range(0, 3)
        cfg = expected_configuration("h2", p, ctx)
        nonlog = [("x0", cfg.double_x0)]
    elif kind == "h3":
        i_range = range(0, 4)
        cfg = expected_configuration("h3", p, ctx)
        nonlog = [("x0", cfg.double_x0), ("xinf", cfg.double_xinf * complex(ctx.q))]
    else:
        raise ValueError("rigidity reconstruction implemented for h2 and h3")
    j_range = range(-1, 2)
    keys = [(i, j) for i in i_range for j in j_range]
    index = {k: n for n, k in enumerate(keys)}
    rows: list[np.ndarray] = []

    def add_row(pairs):
        row = np.zeros(len(keys), dtype=complex)
        for key, val in pairs:
            row[index[key]] += val
        rows.append(row)

    i_lo, i_hi = min(i_range), max(i_range)

    def row_constraints(i, roots):
        # a_{i,1} y^2 + a_{i,0} y + a_{i,-1} proportional to (y-r1)(y-r2)
        r1, r2 = roots
        add_row([((i, 0), 1.0), ((i, 1), r1 + r2)])
        add_row([((i, -1), 1.0), ((i, 1), -r1 * r2)])

    def col_constraints(j, roots):
        # sum_i a_{i,j} x^i proportional to prod (x - r_k)
        mon = _monic_product(roots)  # monic degree len(roots)
        deg = len(roots)
        for i in range(i_lo, i_hi):  # ratios against the leading coefficient
            add_row([((i, j), 1.0), ((i_hi, j), -mon.get(i, 0.0))])

    row_constraints(i_lo, cfg.roots_x0)
    row_constraints(i_hi, cfg.roots_xinf)
    col_constraints(-1, cfg.roots_T0)
    col_constraints(1, cfg.roots_Tinf)
    for side, a in nonlog:
        i = i_lo + 1 if side == "x0" else i_hi - 1
        add_row([((i, j), complex(a) ** j) for j in j_range])

    mat = np.vstack(rows)
    _, svals, vh = np.linalg.svd(mat)
    null = vh[-1].conj()
    if svals[-2] < 1e-8 * svals[0]:
        raise ArithmeticError("configuration does not determine the operator")
    coeffs = {k: complex(null[index[k]]) for k in keys}
    top = max(abs(v) for v in coeffs.values())
    coeffs = {k: v for k, v in coeffs.items() if abs(v) > 1e-10 * top}
    return QDiffOperator(q, coeffs)
