"""q-hypergeometric series families and their structural transforms.

The general series follows the convention

    r_phi_s(a; b; x) = sum_n  (a_1,...,a_r)_n / (b_1,...,b_s, q)_n
                        * [(-1)^n q^C(n,2)]^(s+1-r) * x^n,

so r <= s gains the superexponentially convergent factor and r = s+1 is the
plain power series with radius 1.

``phi``, ``w87`` and both sides of ``psi33`` are term-ratio sums: each builds
its step ratios t_{n+1} / t_n as arrays over a chunk of n and hands them to
the one series kernel, :func:`qhyp.qcore._ratio_sum`, as a batch of one row.
A denominator factor that vanishes to rounding (:func:`qhyp.qcore._vanishes`)
before the sum ends raises PoleError; a numerator parameter q^-n ends the
series after term n; divergence is refused up front (DivergenceError,
AnnulusError).
``appell_phi1`` is a double series and keeps its own loop.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AnnulusError, DivergenceError, NonDecayingSumError, PoleError
from .qcore import (
    QContext,
    _one,
    _quotient,
    _ratio_sum,
    _Tail,
    _termination_order,
    _vanishes,
    qpoch_ratio,
)


@dataclass(frozen=True)
class PhiSpec:
    """Parameter block for the general series: numerator list, denominator
    list and argument."""

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]
    argument: complex

    def __init__(self, numerator: Sequence[complex], denominator: Sequence[complex], argument: complex):
        object.__setattr__(self, "numerator", tuple(complex(v) for v in numerator))
        object.__setattr__(self, "denominator", tuple(complex(v) for v in denominator))
        object.__setattr__(self, "argument", complex(argument))


def phi(spec: PhiSpec, ctx: QContext) -> complex:
    """Evaluate the general q-hypergeometric series at ``spec.argument``."""
    nums, dens, z = spec.numerator, spec.denominator, spec.argument
    r, s = len(nums), len(dens)
    p = s + 1 - r  # exponent of the (-1)^n q^C(n,2) factor
    q = complex(ctx.q)

    n_stop = _termination_order(nums, ctx)
    if n_stop is None:
        if p < 0:
            raise DivergenceError(
                "series with r > s+1 diverges unless a numerator parameter "
                "is q^-n for some n >= 0"
            )
        if p == 0 and abs(z) >= 1.0:
            raise DivergenceError(f"|argument| = {abs(z):.6g} >= 1 for r = s+1")

    params = np.array((*nums, *dens, q), dtype=complex)[:, None]

    def step(rows: list, ns: np.ndarray) -> np.ndarray:
        qn = q**ns
        ratio = _quotient(1.0 - params * qn, r)
        ratio *= z * (-qn) ** p if p else z
        return ratio[None]

    return _one(_ratio_sum([1.0], step, ctx, [z if p == 0 else 0.0],
                           [max(map(abs, (*nums, *dens, q)))], "q-hypergeometric series",
                           last=[n_stop], pole=[_termination_order(dens, ctx)]))


def phi21(a: complex, b: complex, c: complex, z: complex, ctx: QContext) -> complex:
    return phi(PhiSpec([a, b], [c], z), ctx)


def phi32(nums: Sequence[complex], dens: Sequence[complex], z: complex, ctx: QContext) -> complex:
    return phi(PhiSpec(nums, dens, z), ctx)


def psi33(a: Sequence[complex], b: Sequence[complex], z: complex, ctx: QContext) -> complex:
    """Bilateral series sum_{n in Z} (a1,a2,a3)_n / (b1,b2,b3)_n z^n.

    Converges on the annulus |b1 b2 b3 / (a1 a2 a3)| < |z| < 1.
    """
    a = [complex(v) for v in a]
    b = [complex(v) for v in b]
    z = complex(z)
    q = complex(ctx.q)
    inner = b[0] * b[1] * b[2] / (a[0] * a[1] * a[2])
    if not abs(inner) < abs(z) < 1.0:
        raise AnnulusError(
            f"psi33 needs {abs(inner):.6g} < |z| < 1, got |z| = {abs(z):.6g}"
        )
    # a pole of (b)_n for n > 0 is a zero of 1 - b_i q^n; one of 1/(a)_n for
    # n < 0 is a zero of q^{1-n} - a_i, i.e. of 1 - (q / a_i) q^{-n}
    poles = _termination_order(b, ctx), _termination_order([q / v for v in a], ctx)
    ab, ba = np.array(a + b)[:, None], np.array(b + a)[:, None]

    def up(rows: list, ns: np.ndarray) -> np.ndarray:
        """t_{n+1} / t_n for n >= 0."""
        return z * _quotient(1.0 - ab * q ** ns.astype(complex), 3)[None]

    def down(ks: np.ndarray) -> np.ndarray:
        """t_{n-1} / t_n for n = -k: with u = q^{1-n}, 1 - c q^{n-1} = (u - c) / u,
        and the powers of u cancel between numerator and denominator."""
        return _quotient(q ** (1 + ks).astype(complex) - ba, 3) / z

    reach = np.abs(ab)
    value = _one(_ratio_sum([1.0], up, ctx, [z], [reach.max()], "psi33 upward tail",
                            pole=[poles[0]]))
    if poles[1] is not None:
        raise PoleError(f"psi33: (a)_n has a pole at n = {-1 - poles[1]}")
    return value + _one(_ratio_sum([down(np.array([0]))[0]], lambda rows, ks: down(ks + 1)[None],
                                   ctx, [inner / z], [(abs(q * q) / reach).max()],
                                   "psi33 downward tail"))


def w87(a: complex, b: complex, c: complex, d: complex, e: complex, f: complex, z: complex,
        ctx: QContext) -> complex:
    """Very-well-poised series
    sum_n (1-a q^{2n})/(1-a) (a,b,c,d,e,f)_n / (q, qa/b, ..., qa/f)_n z^n."""
    a, b, c, d, e, f, z = (complex(v) for v in (a, b, c, d, e, f, z))
    q = complex(ctx.q)
    params = (b, c, d, e, f)
    n_stop = _termination_order(params + (a,), ctx)
    if n_stop is None and abs(z) >= 1.0:
        raise DivergenceError(f"w87 needs |z| < 1, got {abs(z):.6g}")
    dens = [q * a / p for p in params]
    # 1 - a q^{2n} = (1 - sqrt(a) q^n)(1 + sqrt(a) q^n) divides the step ratio too
    poles = [n for n in (_termination_order(dens, ctx), _termination_order(
        [cmath.sqrt(a), -cmath.sqrt(a)], ctx)) if n is not None]
    pole = min(poles, default=None)
    num = np.array((a, *params), dtype=complex)[:, None]
    den = np.array((*dens, q), dtype=complex)[:, None]

    def step(rows: list, ns: np.ndarray) -> np.ndarray:
        """(a, b, ..., f)_n / (q, qa/b, ..., qa/f)_n steps and the very-well-poised
        (1 - a q^{2n+2}) / (1 - a q^{2n})."""
        qn = q**ns
        sq = a * qn * qn
        return z * _quotient(1.0 - np.vstack((num * qn, q * q * sq, den * qn, sq)), 7)[None]

    return _one(_ratio_sum([1.0], step, ctx, [z], [max(map(abs, (a, *params, *dens, q)))],
                           "w87 series", last=[n_stop], pole=[pole]))


def is_balanced_w87(
    a: complex, b: complex, c: complex, d: complex, e: complex, f: complex,
    z: complex, ctx: QContext,
) -> bool:
    """True iff z = a^2 q^2 / (b c d e f) to eq_tol (relative)."""
    target = complex(a) ** 2 * complex(ctx.q) ** 2 / (
        complex(b) * complex(c) * complex(d) * complex(e) * complex(f)
    )
    return abs(complex(z) - target) <= ctx.eq_tol * max(1.0, abs(target))


def appell_phi1(
    a: complex,
    b1: complex,
    b2: complex,
    c: complex,
    x1: complex,
    x2: complex,
    ctx: QContext,
) -> complex:
    """q-Appell double series
    sum (a)_{n1+n2} (b1)_{n1} (b2)_{n2} / ((c)_{n1+n2} (q)_{n1} (q)_{n2}) x1^n1 x2^n2.

    Summed along anti-diagonals n1+n2 = s, matching the (a)_{n1+n2} coupling;
    the tail rule is applied to the anti-diagonal blocks.
    """
    a, b1, b2, c, x1, x2 = (complex(v) for v in (a, b1, b2, c, x1, x2))
    if abs(x1) >= 1.0 or abs(x2) >= 1.0:
        raise DivergenceError("appell_phi1 needs |x1| < 1 and |x2| < 1")
    q = complex(ctx.q)

    # u[k] = (b1)_k x1^k / (q)_k,  v[k] = (b2)_k x2^k / (q)_k, grown on demand
    u = [1.0 + 0.0j]
    v = [1.0 + 0.0j]
    ac = 1.0 + 0.0j  # (a)_s / (c)_s
    total = 0.0 + 0.0j
    tail = _Tail(ctx)
    for s in range(ctx.max_terms):
        k = len(u) - 1
        while k < s:
            qk = q**k
            u.append(u[-1] * (1.0 - b1 * qk) * x1 / (1.0 - q ** (k + 1)))
            v.append(v[-1] * (1.0 - b2 * qk) * x2 / (1.0 - q ** (k + 1)))
            k += 1
        block = ac * sum(u[n1] * v[s - n1] for n1 in range(s + 1))
        total += block
        if tail.done(abs(block)):
            return total
        qs = q**s
        cfac = 1.0 - c * qs
        if _vanishes(cfac, c * qs):
            raise PoleError(f"appell_phi1 denominator parameter {c} hits q^-{s}")
        ac *= (1.0 - a * qs) / cfac
    raise NonDecayingSumError("appell_phi1 did not converge within budget")


def heine_transformation_constant(
    a: complex, b: complex, c: complex, z: complex, ctx: QContext
) -> complex:
    """Ratio  2phi1(a,b;c;z) / [ (bz)_inf/(z)_inf * 2phi1(c/a, z; bz; a) ].

    Constant in z, equal to (a)_inf / (c)_inf; requires |a| < 1 and |z| < 1.
    """
    lhs = phi21(a, b, c, z, ctx)
    rhs = qpoch_ratio([b * z], [z], ctx) * phi21(c / a, z, b * z, a, ctx)
    return lhs / rhs


def bailey_w87_transform(
    a: complex, b: complex, c: complex, d: complex, e: complex, f: complex,
    ctx: QContext,
) -> tuple[complex, complex]:
    """Both sides of the two-term very-well-poised-balanced transformation:

        W(a; b,c,d,e,f; a^2 q^2/(bcdef))
          = (aq, aq/(ef), mq/e, mq/f)_inf / (aq/e, aq/f, mq, mq/(ef))_inf
            * W(m; mb/a, mc/a, md/a, e, f; aq/(ef)),   m = q a^2/(bcd).

    Needs max(|aq/(ef)|, |mq/(ef)|, |a^2 q^2/(bcdef)|) < 1.
    """
    q = complex(ctx.q)
    mu = q * a * a / (b * c * d)
    z_lhs = a * a * q * q / (b * c * d * e * f)
    z_rhs = a * q / (e * f)
    lhs = w87(a, b, c, d, e, f, z_lhs, ctx)
    pref = qpoch_ratio(
        [a * q, a * q / (e * f), mu * q / e, mu * q / f],
        [a * q / e, a * q / f, mu * q, mu * q / (e * f)],
        ctx,
    )
    rhs = pref * w87(mu, mu * b / a, mu * c / a, mu * d / a, e, f, z_rhs, ctx)
    return lhs, rhs


def w87_to_phi32_limit(
    which: int,
    a: complex, b: complex, c: complex, d: complex, e: complex, f: complex,
    ell: float,
    ctx: QContext,
) -> tuple[complex, complex]:
    """One of the six scaling degenerations of the very-well-poised-balanced
    series to a 3phi2 value; returns (value at scale ``ell``, limit value).

    which = 1: (a,b,c) -> (a l, b l, c l), l -> inf
    which = 2: same scaling, l -> 0 (pass ell < 1)
    which = 3: b -> b*l -> inf at fixed balanced argument
    which = 4: b -> b*l -> 0, with the compensating Pochhammer prefactor
    which = 5: (a; b..f) -> (a l^2; b l, ..., f l), l -> inf, prefactor form
    which = 6: same scaling, l -> 0, prefactor form
    Variants 4-6 are evaluated through their two-term-transformed convergent
    form, since the raw argument leaves the unit disc in the limit.
    """
    q = complex(ctx.q)
    mu = q * a * a / (b * c * d)

    if which == 1 or which == 2:
        al, bl, cl = a * ell, b * ell, c * ell
        z = (a * q) ** 2 / (b * c * d * e * f)
        val = w87(al, bl, cl, d, e, f, z, ctx)
        if which == 1:
            lim = phi32([d, e, f], [a * q / b, a * q / c], q, ctx)
        else:
            lim = phi32([d, e, f], [a * q / b, a * q / c], z, ctx)
        return val, lim

    if which == 3:
        bl = b * ell
        z = (a * q) ** 2 / (bl * c * d * e * f)
        val = w87(a, bl, c, d, e, f, z, ctx)
        lim = qpoch_ratio([a * q, a * q / (e * f)], [a * q / e, a * q / f], ctx) * phi32(
            [a * q / (c * d), e, f], [a * q / c, a * q / d], a * q / (e * f), ctx
        )
        return val, lim

    if which == 4:
        bl = b * ell
        mul = q * a * a / (bl * c * d)
        pref = qpoch_ratio([a * q, a * q / (e * f)], [a * q / e, a * q / f], ctx)
        val = pref * w87(mul, mul * bl / a, mul * c / a, mul * d / a, e, f,
                         a * q / (e * f), ctx)
        lim = pref * phi32(
            [a * q / (c * d), e, f], [a * q / c, a * q / d], q, ctx
        )
        return val, lim

    if which == 5 or which == 6:
        mul, el, fl = mu * ell, e * ell, f * ell
        heads = [(a * q) ** 2 / (b * c * d * e), (a * q) ** 2 / (b * c * d * f)]
        if which == 5:
            pref = qpoch_ratio(
                [a * q / (e * f), heads[0], heads[1]],
                [(a * q) ** 2 / (b * c * d * e * f * ell)],
                ctx,
            )
        else:
            pref = qpoch_ratio(
                [a * q * ell**2, a * q / (e * f), heads[0], heads[1]],
                [(a * q) ** 2 * ell / (b * c * d), a * q * ell / e, a * q * ell / f],
                ctx,
            )
        val = pref * w87(mul, mu * b / a, mu * c / a, mu * d / a, el, fl,
                         a * q / (e * f), ctx)
        tail = [a * q / (b * c), a * q / (c * d), a * q / (b * d)]
        lim_pref = qpoch_ratio(
            [a * q / (e * f), heads[0], heads[1]], [], ctx
        )
        arg = q if which == 5 else a * q / (e * f)
        lim = lim_pref * phi32(tail, heads, arg, ctx)
        return val, lim

    raise ValueError(f"which must be 1..6, got {which}")
