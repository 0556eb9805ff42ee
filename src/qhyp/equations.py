"""Constructors for the named q-difference operators, their parameter tuples,
expected configurations and degeneration limits, and rigidity reconstruction:
one solve from a support and a configuration that determines heine, h2, h3,
e2 and e3 and leaves the q-Heun pair's accessory parameter free.

Operator displays in the source material carry a few sign/exponent variants;
the forms built here are the ones under which every stated configuration,
non-logarithmic condition and solution family verifies numerically (the test
suite exercises all of them).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import BalanceError, DomainError
from .opalgebra import Configuration, QDiffOperator, sorted_roots
from .qcore import QContext


def qpow(q: complex, z: complex) -> complex:
    """Principal q^z for complex exponent z."""
    return cmath.exp(complex(z) * cmath.log(complex(q)))


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


def _nonzero(values: Sequence[complex], what: str) -> None:
    """The zero check of every tuple's ``validate``: ``what`` names ``values``."""
    if 0 in values:
        raise DomainError(f"{what} must be nonzero")


@dataclass(frozen=True)
class HeineParams:
    a: complex
    b: complex
    c: complex

    def validate(self, ctx: QContext):
        _nonzero((self.a, self.b, self.c), "Heine parameters a, b and c")


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
        _nonzero((*self.a_list(), *self.b_list(), self.A, self.B),
                 "degree-two parameters a_i, b_i, A and B")
        if self.balance_deviation(ctx) > ctx.eq_tol:
            raise BalanceError("need a1 a2 A = q^(alpha+1) b1 b2 B")

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
        _nonzero((*self.a_list(), *self.b_list(), self.A, self.B),
                 "degree-three parameters a_i, b_i, A and B")
        if self.balance_deviation(ctx) > ctx.eq_tol:
            raise BalanceError("need a1 a2 a3 A = q^2 b1 b2 b3 B")

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

    def validate(self, ctx: QContext):
        _nonzero((self.t1, self.t2), "qheun parameters t1 and t2")


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

    def validate(self, ctx: QContext):
        _nonzero((self.t1, self.t2, self.t3), "qheun3 parameters t1, t2 and t3")


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

    def validate(self, ctx: QContext):
        _nonzero((self.t1, self.t2), "h2 parameters t1 and t2")


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

    def validate(self, ctx: QContext):
        _nonzero(self.t_list(), "h3 parameters t1, t2 and t3")


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


def build_e2(p: Params2, ctx: QContext) -> QDiffOperator:
    """[x^2 (1 - q^alpha T)(B - A T) - x (e1(a) - q^alpha e1(b) T)(1 - T)
    + e2(a) B^{-1} (1 - q^{-1} T)(1 - T)] T^{-1}."""
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


def build_e3(p: Params3, ctx: QContext) -> QDiffOperator:
    """[x^3 (B - A T)(B - A q T) - x^2 (e1(a) - q e1(b) T)(B - A T)
    + x (e2(a) - q e2(b) T)(1 - T) - e3(a) B^{-1} (1 - q^{-1} T)(1 - T)] T^{-1}."""
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
    kind "h2_to_heine": base_params is H2Params; the limit holds on the
        slice t1 = 1, h1 = 1/2, h2 - l2 = alpha1 + alpha2 + l1 - 3/2, to
        which the check pins the base's t1, h1 and h2; t2 = s -> 0, limit is
        x T^{-1} Heine(q^alpha1, q^alpha2, q^(alpha1+alpha2+l1-1/2)).
    """
    q = complex(ctx.q)
    p = base_params
    if kind == "h2_to_heine":
        p = replace(p, h1=0.5, h2=p.alpha1 + p.alpha2 + p.l1 - 1.5 + p.l2, t1=1.0)
    # kind -> (limit operator of the base tuple, operator at scale s)
    cases = {
        "e3_to_e2": (
            lambda: build_e2(p, ctx),
            lambda s: build_e3(Params3(p.a1, p.a2, s, p.b1, p.b2,
                                       qpow(q, p.alpha - 1) * s, p.A, p.B), ctx)),
        "h3_to_h2": (
            lambda: build_h2(H2Params(p.h1, p.h2, p.l1, p.l2, p.t1, p.t2,
                                      p.alpha, p.alpha - p.h3 + p.l3), ctx),
            lambda s: build_h3(replace(p, t3=s), ctx)),
        "h2_to_heine": (
            lambda: QDiffOperator.x_power(q) * QDiffOperator.t_power(q, -1) * build_heine(
                HeineParams(qpow(q, p.alpha1), qpow(q, p.alpha2),
                            qpow(q, p.alpha1 + p.alpha2 + p.l1 - 0.5)), ctx),
            lambda s: build_h2(replace(p, t2=s), ctx)),
    }
    if kind not in cases:
        raise ValueError(f"unknown degeneration kind {kind!r}")
    limit_of, at_scale = cases[kind]
    limit = limit_of()
    scales = [float(s) for s in scale_sequence]
    devs = [_coeff_deviation(at_scale(s), limit) for s in scales]

    monotone = None
    if len(devs) >= 2:
        monotone = all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
    passed = bool(monotone) and devs[-1] < ctx.eq_tol * 10 if monotone is not None else True
    return DegenerationReport(kind, scales, devs, monotone, passed)


# -- rigidity: configuration -> operator -------------------------------------------


def rigidity_reconstruct(
    support: Iterable[tuple[int, int]], cfg: Configuration, ctx: QContext
) -> QDiffOperator:
    """The operator with configuration ``cfg`` on the (i, j) bounding box of
    ``support`` (a builder's ``coeffs`` keys), up to one constant.

    The boundary rows L_0, L_M (in T) and columns P_0, P_N (in x), each counted
    from its lowest power in ``support``, are proportional to prod (y - r) over
    ``cfg``'s roots; a non-logarithmic double point a adds L_1(a) = 0 at x = 0
    or L_{M-1}(a q) = 0 at x = infinity.  Raises ArithmeticError unless the
    null space of that system has dimension 1 and its vector spans the
    bounding box (a nonzero coefficient on each boundary line): a
    configuration that breaks the product relation can leave a null vector
    zero on the boundary, which is no operator of the support.
    """
    q = complex(ctx.q)
    support = set(support)
    i_range = range(min(i for i, _ in support), max(i for i, _ in support) + 1)
    j_range = range(min(j for _, j in support), max(j for _, j in support) + 1)
    keys = [(i, j) for i in i_range for j in j_range]
    index = {k: n for n, k in enumerate(keys)}
    rows: list[np.ndarray] = []

    def add_row(pairs):
        row = np.zeros(len(keys), dtype=complex)
        for key, val in pairs:
            row[index[key]] += val
        rows.append(row)

    def line_constraints(line, roots):
        # ratios against the coefficient of y^len(roots) past the lowest power
        lo = min(n for n, key in enumerate(line) if key in support)
        if len(line) - lo < len(roots) + 1:
            raise ValueError(f"a boundary line of {len(line) - lo} entries "
                             f"cannot carry {len(roots)} roots")
        mon = _monic_product(roots)
        lead = line[lo + len(roots)]
        for n, key in enumerate(line):
            if key != lead:
                add_row([(key, 1.0), (lead, -mon.get(n - lo, 0.0))])

    line_constraints([(i_range[0], j) for j in j_range], cfg.roots_x0)
    line_constraints([(i_range[-1], j) for j in j_range], cfg.roots_xinf)
    line_constraints([(i, j_range[0]) for i in i_range], cfg.roots_T0)
    line_constraints([(i, j_range[-1]) for i in i_range], cfg.roots_Tinf)
    if cfg.double_x0 is not None:
        add_row([((i_range[0] + 1, j), complex(cfg.double_x0) ** j) for j in j_range])
    if cfg.double_xinf is not None:
        add_row([((i_range[-1] - 1, j), complex(cfg.double_xinf * q) ** j) for j in j_range])

    _, svals, vh = np.linalg.svd(np.vstack(rows))
    dim = len(keys) - int((svals > 1e-8 * svals[0]).sum())
    if dim != 1:
        raise ArithmeticError(f"configuration leaves a null space of dimension {dim}")
    null = vh[-1].conj()
    coeffs = {k: complex(null[index[k]]) for k in keys}
    top = max(abs(v) for v in coeffs.values())
    coeffs = {k: v for k, v in coeffs.items() if abs(v) > 1e-10 * top}
    i_kept, j_kept = [i for i, _ in coeffs], [j for _, j in coeffs]
    if (min(i_kept), max(i_kept), min(j_kept), max(j_kept)) != (
            i_range[0], i_range[-1], j_range[0], j_range[-1]):
        raise ArithmeticError("the configuration's null vector does not span the bounding box "
                              "of the support")
    return QDiffOperator(q, coeffs)
