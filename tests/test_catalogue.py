"""The solution catalogue: every row of ``qhyp.solutions.CATALOGUE`` against
the dispatch chains it replaced, and the README label table against the
catalogue.

The reference functions below are the if-chains and tables that defined the
labels before the catalogue, copied unchanged apart from a ``ref_`` prefix on
their names.  Every record-built evaluator, domain, scale and terminating draw
must equal its reference with ``==``: the records keep each floating-point
expression and its order of operations, so the values are the same floats.
"""

import cmath
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from qhyp import solutions
from qhyp.equations import (
    HeineParams,
    Params2,
    Params3,
    build_e2,
    build_e3,
    build_heine,
    qpow,
)
from qhyp.errors import DomainError
from qhyp.qcore import QContext, _one, qpoch_ratio
from qhyp.qseries import PhiSpec, _w87_rows, phi
from qhyp.sampling import draw_heine, draw_heine_for, draw_params2, draw_params3
from qhyp.solutions import (
    CATALOGUE,
    Endpoint,
    JacksonTable,
    SeriesTable,
    SolutionHandle,
    _gr_terms,
    _heine_exponents,
    all_labels,
    e2_series_scale,
    integral_scale,
    phi2,
    phi2_tilde,
    phi3,
    phi3_tilde,
    solution_handle,
)

FAMILIES = ("thmint3", "thmint2", "thmser3", "thmser2", "heine", "heine_extra")
README = Path(__file__).resolve().parents[1] / "README.md"


# -- references: the chains and tables the catalogue replaced ----------------------------


def ref_e3_gr_data(p: Params3, which: int, x: complex, ctx: QContext):
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


def ref_e3_series(p: Params3, which: int, x: complex, ctx: QContext) -> complex:
    """One of the six very-well-poised series solutions of the degree-three
    equation, normalized to equal its corresponding endpoint-pair integral."""
    a, b, cd, efg, h = ref_e3_gr_data(p, which, x, ctx)
    if abs(a * h) >= 1.0:
        raise DomainError(f"series {which}: |a h| = {abs(a*h):.4g} >= 1 at x = {x}")
    terms = _gr_terms(a, b, cd, efg, h, complex(ctx.q))
    return _one(SeriesTable(lambda _: terms, _w87_rows, ctx).read([None]))


def ref_e3_series_domain(p: Params3, which: int, ctx: QContext) -> tuple[float, float]:
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


def ref_e3_series_scale(p: Params3, ctx: QContext) -> float:
    """Natural |x| scale of the degree-three family (where q B x / a_i ~ 1)."""
    q = abs(complex(ctx.q))
    return min(abs(p.a1), abs(p.a2), abs(p.a3)) / (q * abs(p.B))


def ref_e2_series(p: Params2, which: int, x: complex, ctx: QContext) -> complex:
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


def ref_e2_series_domain(p: Params2, which: int, ctx: QContext) -> tuple[float, float]:
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


def ref_heine_solution(p: HeineParams, which: int, z: complex, ctx: QContext) -> complex:
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


def ref_heine_extra(p: HeineParams, which: int, z: complex, ctx: QContext) -> complex:
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


def ref_heine_domain(p: HeineParams, which: int, ctx: QContext) -> tuple[float, float]:
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
REF_HEINE_TERMINATING: dict[int, str] = {
    9: "a=q^-n", 13: "a=q^-n", 25: "a=q^-n", 29: "a=q^-n",
    15: "b=q^-n", 26: "b=q^-n", 31: "b=q^-n",
    12: "a=q^n+1", 28: "a=q^n+1", 32: "a=q^n+1",
    14: "b=q^n+1", 27: "b=q^n+1", 30: "b=q^n+1",
    10: "c=a*q^-n", 16: "c=a*q^-n",
    11: "c=a*q^n+1",
}


def ref_heine_scale(p: HeineParams, which: int, ctx: QContext) -> float:
    q = abs(complex(ctx.q))
    a, b = abs(p.a), abs(p.b)
    c = abs(p.c)
    if which in (21, 23):
        return c / b if which == 21 else q / b
    if which in (22, 24):
        return c / a if which == 22 else q / a
    return 1.0


REF_T3_TAUS = {1: Endpoint.q_over_a(1), 2: Endpoint.q_over_a(2),
            3: Endpoint.q_over_a(3), 4: Endpoint.q_over_Ax()}
REF_T3_SIGMAS = {1: Endpoint.b(1), 2: Endpoint.b(2), 3: Endpoint.b(3),
              4: Endpoint.Bx()}
REF_T2_TAUS = {0: Endpoint.zero(), 1: Endpoint.q_over_a(1), 2: Endpoint.q_over_a(2),
            3: Endpoint.q_over_Ax()}


def ref_t2_sigmas(sigma: complex):
    return {1: Endpoint.b(1), 2: Endpoint.b(2), 3: Endpoint.Bx(),
            4: Endpoint.sigma_inf(sigma)}


def ref_read(evaluate):
    """A handle's ``read`` from a one-point evaluator: at each point, its
    value or the error it raises."""
    def read(xs):
        out = []
        for x in xs:
            try:
                out.append(evaluate(x))
            except Exception as exc:
                out.append(exc)
        return out
    return read


def ref_solution_handle(
    label: str,
    params,
    ctx: QContext,
    sigma: complex = 1.3,
    table: JacksonTable | None = None,
) -> SolutionHandle:
    """Build the evaluable solution for a catalogue label.

    Labels: thmint3.phi3[i,j], thmint3.tilde[i,j] (i, j in 1..4),
    thmint2.phi2[i,j] (0..3), thmint2.tilde[i,j] (1..4, 4 the bilateral
    endpoint), thmser3.1..6, thmser2.1..6, heine.1..32, heine_extra.1..2.

    An integral label evaluates through ``table``, the single-endpoint
    integrals of ``params`` shared with the other labels of a job; without
    one, each evaluation uses a throwaway table.  Series labels ignore it.
    """
    fam, _, rest = label.partition(".")
    if fam == "thmint3":
        p: Params3 = params
        kind, i, j = ref_parse_pair(rest)
        ends = REF_T3_TAUS if kind == "phi3" else REF_T3_SIGMAS
        e1, e2 = ends[i], ends[j]
        fn = phi3 if kind == "phi3" else phi3_tilde
        op = build_e3(p, ctx)
        return SolutionHandle(label, ref_read(lambda x: fn(p, e1, e2, x, ctx, table)),
                              (0.0, np.inf), op, p, scale=0.3 * integral_scale(p, ctx))
    if fam == "thmint2":
        p2: Params2 = params
        kind, i, j = ref_parse_pair(rest)
        if kind == "phi2":
            e1, e2 = REF_T2_TAUS[i], REF_T2_TAUS[j]
            fn2 = phi2
        else:
            sig = ref_t2_sigmas(sigma)
            e1, e2 = sig[i], sig[j]
            fn2 = phi2_tilde
        op = build_e2(p2, ctx)
        return SolutionHandle(label, ref_read(lambda x: fn2(p2, e1, e2, x, ctx, table)),
                              (0.0, np.inf), op, p2, scale=0.3 * integral_scale(p2, ctx))
    if fam == "thmser3":
        p3: Params3 = params
        which = int(rest)
        op = build_e3(p3, ctx)
        lo, hi = ref_e3_series_domain(p3, which, ctx)
        return SolutionHandle(label, ref_read(lambda x: ref_e3_series(p3, which, x, ctx)),
                              (lo, hi), op, p3, scale=0.3 * ref_e3_series_scale(p3, ctx))
    if fam == "thmser2":
        p2s: Params2 = params
        which = int(rest)
        op = build_e2(p2s, ctx)
        lo, hi = ref_e2_series_domain(p2s, which, ctx)
        return SolutionHandle(label, ref_read(lambda x: ref_e2_series(p2s, which, x, ctx)),
                              (lo, hi), op, p2s, scale=0.3 * e2_series_scale(p2s, ctx))
    if fam == "heine":
        ph: HeineParams = params
        which = int(rest)
        op = build_heine(ph, ctx)
        lo, hi = ref_heine_domain(ph, which, ctx)
        return SolutionHandle(label, ref_read(lambda z: ref_heine_solution(ph, which, z, ctx)),
                              (lo, hi), op, ph, scale=0.5 * ref_heine_scale(ph, which, ctx))
    if fam == "heine_extra":
        ph2: HeineParams = params
        which = int(rest)
        op = build_heine(ph2, ctx)
        return SolutionHandle(label, ref_read(lambda z: ref_heine_extra(ph2, which, z, ctx)),
                              (0.0, 1.0), op, ph2, scale=0.4)
    raise ValueError(f"unknown solution label {label!r}")


def ref_parse_pair(rest: str) -> tuple[str, int, int]:
    kind, _, idx = rest.partition("[")
    if not idx.endswith("]"):
        raise ValueError(f"malformed endpoint pair in label: {rest!r}")
    i, j = idx[:-1].split(",")
    return kind, int(i), int(j)


def ref_all_labels(family: str) -> list[str]:
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


def ref_draw_heine_for(
    rng: np.random.Generator, ctx: QContext, which: int, n: int = 2
) -> HeineParams:
    """Heine parameters admissible for catalogue row ``which``: generic for
    the everywhere-valid rows, with the row's terminating relation imposed
    for the zero-slot rows."""
    p = draw_heine(rng, ctx)
    rel = REF_HEINE_TERMINATING.get(which)
    if rel is None:
        return p
    q = complex(ctx.q)
    if rel == "a=q^-n":
        return HeineParams(q ** (-n), p.b, p.c)
    if rel == "b=q^-n":
        return HeineParams(p.a, q ** (-n), p.c)
    if rel == "a=q^n+1":
        return HeineParams(q ** (n + 1), p.b, p.c)
    if rel == "b=q^n+1":
        return HeineParams(p.a, q ** (n + 1), p.c)
    if rel == "c=a*q^-n":
        return HeineParams(p.a, p.b, p.a * q ** (-n))
    if rel == "c=a*q^n+1":
        return HeineParams(p.a, p.b, p.a * q ** (n + 1))
    raise ValueError(f"unknown terminating relation {rel!r}")


# -- properties ----------------------------------------------------------------------------


def outcome(fn, *args):
    """fn(*args), or the class and message of the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except Exception as exc:  # the record and its reference must fail alike
        return type(exc), str(exc)


def assert_same(new, old, what):
    # == first; repr only tells apart values with NaN parts, which == never equates
    assert new == old or repr(new) == repr(old), (what, new, old)


# A failing draw is reported as found: its message names the row and both
# outcomes, and shrinking it would re-run dozens of series per step.
checked = settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
moduli = st.floats(0.3, 2.5)
phases = st.floats(-3.1, 3.1)
numbers = st.builds(cmath.rect, moduli, phases)
contexts = st.one_of(
    st.builds(QContext, st.floats(0.2, 0.8)),
    st.builds(QContext, st.builds(cmath.rect, st.floats(0.2, 0.8), st.floats(-0.6, 0.6))),
)
# sample points: mostly on the positive axis, where the CLI samples, and some off it
points = st.one_of(st.floats(0.02, 4.0), st.builds(cmath.rect, st.floats(0.02, 4.0), phases))
heine_params = st.builds(HeineParams, numbers, numbers, numbers)
params2 = st.builds(Params2, st.builds(complex, st.floats(0.3, 1.3), st.floats(-0.3, 0.3)),
                    numbers, numbers, numbers, numbers, numbers, numbers)
params3 = st.builds(Params3, numbers, numbers, numbers, numbers, numbers, numbers,
                    numbers, numbers)


class TestRecordsEqualTheChains:
    @settings(checked, max_examples=40)
    @given(p=heine_params, z=points, ctx=contexts)
    def test_heine_rows(self, p, z, ctx):
        for which in range(1, 33):
            assert_same(outcome(solutions.heine_solution, p, which, z, ctx),
                        outcome(ref_heine_solution, p, which, z, ctx), which)
        for which in (1, 2):
            assert_same(outcome(solutions.heine_extra, p, which, z, ctx),
                        outcome(ref_heine_extra, p, which, z, ctx), which)

    @settings(checked, max_examples=40)
    @given(p=params2, x=points, ctx=contexts)
    def test_degree_two_rows(self, p, x, ctx):
        for which in range(1, 7):
            assert_same(outcome(solutions.e2_series, p, which, x, ctx),
                        outcome(ref_e2_series, p, which, x, ctx), which)

    @settings(checked, max_examples=40)
    @given(p=params3, x=points, ctx=contexts)
    def test_degree_three_rows(self, p, x, ctx):
        for which in range(1, 7):
            assert_same(CATALOGUE[f"thmser3.{which}"].formula(complex(ctx.q), p.A * x, p.B * x, p),
                        ref_e3_gr_data(p, which, x, ctx), which)
            assert_same(outcome(solutions.e3_series, p, which, x, ctx),
                        outcome(ref_e3_series, p, which, x, ctx), which)

    @settings(checked, max_examples=25)
    @given(ph=heine_params, p2=params2, p3=params3, ctx=contexts)
    def test_series_domains_scales_and_handles(self, ph, p2, p3, ctx):
        """Every series label's handle has the interval, the scale and the
        values (at points of its sampling window) of the old handle."""
        q = complex(ctx.q)  # A from the balance, which the operator builders check
        p2 = replace(p2, A=qpow(q, p2.alpha + 1) * p2.b1 * p2.b2 * p2.B / (p2.a1 * p2.a2))
        p3 = replace(p3, A=q**2 * p3.b1 * p3.b2 * p3.b3 * p3.B / (p3.a1 * p3.a2 * p3.a3))
        for family, p in (("thmser3", p3), ("thmser2", p2), ("heine", ph), ("heine_extra", ph)):
            for label in all_labels(family):
                new = outcome(solution_handle, label, p, ctx)
                old = outcome(ref_solution_handle, label, p, ctx)
                if not isinstance(old, SolutionHandle):
                    assert_same(new, old, label)
                    continue
                assert_same(new.interval, old.interval, label)
                assert_same(new.scale, old.scale, label)
                assert new.equation.coeffs == old.equation.coeffs, label
                xs = outcome(solutions.sample_points, old, 3, ctx)
                assert_same(outcome(solutions.sample_points, new, 3, ctx), xs, label)
                for x in xs if isinstance(xs, list) else ():
                    assert_same(outcome(new, x), outcome(old, x), (label, x))

    def test_integral_rows(self):
        """Every integral label has the endpoint pair of the old label parser,
        and its handle the interval, the scale and the values (with a bilateral
        constant other than the records' 1.3) of the old handle."""
        rng = np.random.default_rng(6)
        ctx = QContext(0.45)
        sigma = 1.17 * cmath.exp(0.41j)
        for family, p in (("thmint3", draw_params3(rng, ctx)),
                          ("thmint2", draw_params2(rng, ctx))):
            for label in ref_all_labels(family):
                kind, i, j = ref_parse_pair(label.partition(".")[2])
                ends = {"phi3": REF_T3_TAUS, "phi2": REF_T2_TAUS}.get(kind) or (
                    REF_T3_SIGMAS if family == "thmint3" else ref_t2_sigmas(1.3))
                assert CATALOGUE[label].pair == (ends[i], ends[j]), label
                new = solution_handle(label, p, ctx, sigma=sigma)
                old = ref_solution_handle(label, p, ctx, sigma=sigma)
                assert (new.interval, new.scale) == (old.interval, old.scale), label
                assert new.equation.coeffs == old.equation.coeffs, label
                for x in (0.3 * integral_scale(p, ctx), 0.7 * integral_scale(p, ctx)):
                    assert_same(new(x), old(x), (label, x))

    @settings(checked, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), q=st.floats(0.3, 0.6), n=st.integers(0, 5))
    def test_terminating_draws_are_bit_identical(self, seed, q, n):
        ctx = QContext(q)
        for which in range(1, 33):
            new = draw_heine_for(np.random.default_rng(seed), ctx, f"heine.{which}", n)
            old = ref_draw_heine_for(np.random.default_rng(seed), ctx, which, n)
            assert new == old and repr(new) == repr(old), which

    def test_labels(self):
        for family in FAMILIES:
            assert all_labels(family) == ref_all_labels(family)
        assert sorted(CATALOGUE) == sorted(lab for fam in FAMILIES for lab in ref_all_labels(fam))
        assert {row.label for row in CATALOGUE.values() if row.condition} == {
            f"heine.{which}" for which in REF_HEINE_TERMINATING} | {"heine_extra.1", "heine_extra.2"}


def readme_labels() -> dict[str, list[str]]:
    """The labels of the README "Solution labels" table, by family."""
    section = README.read_text().split("## Solution labels", 1)[1]
    table = section.split("```", 2)[1]
    labels: dict[str, list[str]] = {}
    for line in table.strip().splitlines():
        name = line.split()[0]
        pair = re.fullmatch(r"(\w+)\.(\w+)\[i,j\]", name)
        if pair:
            lo, hi = map(int, re.search(r"i<j in (\d+)\.\.(\d+)", line).groups())
            found = [f"{name[:-5]}[{i},{j}]"
                     for i in range(lo, hi + 1) for j in range(i + 1, hi + 1)]
            family = pair.group(1)
        else:
            family, lo, hi = re.fullmatch(r"(\w+)\.(\d+)\.\.(\d+)", name).groups()
            found = [f"{family}.{k}" for k in range(int(lo), int(hi) + 1)]
        labels.setdefault(family, []).extend(found)
    return labels


def test_readme_label_table_matches_the_catalogue():
    table = readme_labels()
    assert sorted(table) == sorted(FAMILIES)
    for family, labels in table.items():
        assert labels == all_labels(family), family
