"""q-hypergeometric series families and their structural transforms.

The general series follows the convention

    r_phi_s(a; b; x) = sum_n  (a_1,...,a_r)_n / (b_1,...,b_s, q)_n
                        * [(-1)^n q^C(n,2)]^(s+1-r) * x^n,

so r <= s gains the superexponentially convergent factor and r = s+1 is the
plain power series with radius 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AnnulusError,
    DivergenceError,
    NonDecayingSumError,
    PoleError,
)
from .qcore import QContext, _Tail, qpoch_ratio

_TERMINATION_RTOL = 1e-12


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


def _termination_order(nums: Sequence[complex], ctx: QContext) -> int | None:
    """Smallest n with some numerator parameter equal to q^-n, else None."""
    q = complex(ctx.q)
    best: int | None = None
    for a in nums:
        if a == 0:
            continue
        w = complex(a)
        for n in range(ctx.max_terms):
            if abs(w - 1.0) <= _TERMINATION_RTOL * (1.0 + abs(w)):
                best = n if best is None else min(best, n)
                break
            if abs(w) < 0.5:
                break  # |a q^n| only shrinks from here: can no longer hit 1
            w *= q
    return best


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

    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    tail = _Tail(ctx)
    for n in range(ctx.max_terms):
        total += term
        if n == n_stop or tail.done(abs(term)):
            return total
        qn = q**n
        ratio = z
        for a in nums:
            ratio *= 1.0 - a * qn
        for b in dens:
            factor = 1.0 - b * qn
            if abs(factor) <= _TERMINATION_RTOL * (1.0 + abs(b * qn)):
                raise PoleError(f"denominator parameter {b} hits q^-{n}")
            ratio /= factor
        qfac = 1.0 - q ** (n + 1)
        ratio /= qfac
        if p:
            ratio *= (-(qn)) ** p if p > 0 else 1.0 / ((-(qn)) ** (-p))
        term *= ratio
    raise NonDecayingSumError("q-hypergeometric series did not converge within budget")


def phi21(a: complex, b: complex, c: complex, z: complex, ctx: QContext) -> complex:
    return phi(PhiSpec([a, b], [c], z), ctx)


def phi32(nums: Sequence[complex], dens: Sequence[complex], z: complex, ctx: QContext) -> complex:
    return phi(PhiSpec(nums, dens, z), ctx)


def psi33(
    a: Sequence[complex],
    b: Sequence[complex],
    z: complex,
    ctx: QContext,
) -> complex:
    """Bilateral series sum_{n in Z} (a1,a2,a3)_n / (b1,b2,b3)_n z^n.

    Converges on the annulus |b1 b2 b3 / (a1 a2 a3)| < |z| < 1.
    """
    a = [complex(v) for v in a]
    b = [complex(v) for v in b]
    z = complex(z)
    q = complex(ctx.q)
    inner = abs(b[0] * b[1] * b[2] / (a[0] * a[1] * a[2]))
    if not inner < abs(z) < 1.0:
        raise AnnulusError(
            f"psi33 needs {inner:.6g} < |z| < 1, got |z| = {abs(z):.6g}"
        )

    chunk = 4096

    def step_ratios(ns: np.ndarray, downward: bool) -> np.ndarray:
        """Multiplicative step t_{n+1}/t_n (upward) or t_{n-1}/t_n (downward)."""
        if not downward:
            qn = q ** ns.astype(complex)
            ratio = np.full(len(ns), z, dtype=complex)
            for ai, bi in zip(a, b):
                den = 1.0 - bi * qn
                if np.any(np.abs(den) < 1e-14):
                    raise PoleError("psi33: vanishing (b)_n factor for n >= 0")
                ratio *= (1.0 - ai * qn) / den
            return ratio
        # (1 - c q^{n-1}) = q^{n-1} (q^{1-n} - c); the q^{1-n} prefactors cancel
        # between numerator and denominator, and q^{1-n} underflows harmlessly.
        qinv = q ** (1 - ns).astype(complex)
        ratio = np.full(len(ns), 1.0 / z, dtype=complex)
        for ai, bi in zip(a, b):
            den = qinv - ai
            if np.any(np.abs(den) < 1e-300):
                raise PoleError("psi33: vanishing (a)_n factor for n < 0")
            ratio *= (qinv - bi) / den
        return ratio

    def one_side(downward: bool) -> complex:
        part = 0.0 + 0.0j
        tail = _Tail(ctx)
        if not downward:
            t0, n0 = 1.0 + 0.0j, 0
        else:
            first = step_ratios(np.array([0]), True)[0]
            t0, n0 = first, -1
        emitted = 0
        while emitted < ctx.max_terms:
            m = min(chunk, ctx.max_terms - emitted)
            ns = n0 + np.arange(m) * (-1 if downward else 1)
            ratios = step_ratios(ns, downward)
            terms = t0 * np.concatenate(([1.0 + 0.0j], np.cumprod(ratios[:-1])))
            stop = tail.first_stop(np.abs(terms))
            if stop is not None:
                return part + terms[: stop + 1].sum()
            part += terms.sum()
            emitted += m
            t0 = terms[-1] * ratios[-1]
            n0 = int(ns[-1]) + (-1 if downward else 1)
        raise NonDecayingSumError("psi33 tail did not decay within budget")

    return one_side(False) + one_side(True)


def w87(
    a: complex,
    b: complex,
    c: complex,
    d: complex,
    e: complex,
    f: complex,
    z: complex,
    ctx: QContext,
) -> complex:
    """Very-well-poised series
    sum_n (1-a q^{2n})/(1-a) (a,b,c,d,e,f)_n / (q, qa/b, ..., qa/f)_n z^n."""
    a, b, c, d, e, f, z = (complex(v) for v in (a, b, c, d, e, f, z))
    q = complex(ctx.q)
    params = (b, c, d, e, f)
    n_stop = _termination_order(params + (a,), ctx)
    if n_stop is None and abs(z) >= 1.0:
        raise DivergenceError(f"w87 needs |z| < 1, got {abs(z):.6g}")
    dens = tuple(q * a / p for p in params)

    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    tail = _Tail(ctx)
    for n in range(ctx.max_terms):
        total += term
        if n == n_stop or tail.done(abs(term)):
            return total
        qn = q**n
        vwp_num = 1.0 - a * qn * qn * q * q
        vwp_den = 1.0 - a * qn * qn
        ratio = z * (1.0 - a * qn) * vwp_num / vwp_den
        for p in params:
            ratio *= 1.0 - p * qn
        for dpar in dens:
            factor = 1.0 - dpar * qn
            if abs(factor) <= _TERMINATION_RTOL * (1.0 + abs(dpar * qn)):
                raise PoleError(f"w87 denominator parameter {dpar} hits q^-{n}")
            ratio /= factor
        ratio /= 1.0 - q ** (n + 1)
        term *= ratio
    raise NonDecayingSumError("w87 series did not converge within budget")


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
        if abs(cfac) <= _TERMINATION_RTOL * (1.0 + abs(c * qs)):
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
