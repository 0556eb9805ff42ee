"""q-hypergeometric series families and their structural transforms.

The general series follows the convention

    r_phi_s(a; b; x) = sum_n  (a_1,...,a_r)_n / (b_1,...,b_s, q)_n
                        * [(-1)^n q^C(n,2)]^(s+1-r) * x^n,

so r <= s gains the superexponentially convergent factor and r = s+1 is the
plain power series with radius 1.

``phi``, ``w87`` and both sides of ``psi33`` are term-ratio sums: each builds
its step ratios t_{n+1} / t_n as arrays over a chunk of n and hands them to
the one series kernel, :func:`qhyp.qcore._ratio_sum`.  :func:`_phi_rows` and
:func:`_w87_rows` sum many parameter tuples at once, one row each, their step
ratios read from per-row parameter arrays; a job's fill hands them the rows
of all its labels of one series shape (:func:`qhyp.solutions.fill`).  They
plan each row (termination and pole orders, reach,
:func:`qhyp.qcore._row_plans`), scanning each distinct parameter value of
the batch once and planning each distinct row once, and sum the rows in
blocks of bounded size cut by their planned first chunks
(:func:`qhyp.qcore._by_blocks`), so rows of like length share a block; each
row's value or error is what it is alone, bit for bit, and ``phi`` and
``w87`` are the one-row case.  Both sides
of ``psi33`` pass one row.  A denominator factor that vanishes to rounding
(:func:`qhyp.qcore._vanishes`) before the sum ends raises PoleError; a
numerator parameter q^-n ends the series after term n; divergence is refused
up front (DivergenceError, AnnulusError), row by row.  The q-Appell double
series ``appell_phi1`` is one row over its first index, each term weighed by
its inner 2phi1, and the inner series of a chunk are one :func:`_phi_rows`
batch.  ``phi``, ``w87`` and ``appell_phi1`` step in extended precision
(:mod:`qhyp.qcore`), ``psi33`` in double precision.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AnnulusError, DivergenceError, PoleError
from .qcore import (
    _EXTENDED_BYTES,
    QContext,
    _by_blocks,
    _one,
    _qpow,
    _quotient,
    _ratio_sum,
    _row_plan,
    _row_plans,
    _termination_order,
    _work,
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


def _sum_rows(out: list, rows: list, step, factors: int, ctx: QContext, what: str) -> list:
    """Sum the rows of a series batch into ``out``: ``rows`` holds (i,
    values, rate, reach, last, pole) for entry i, with ``values`` the row's
    parameters and the rest as :func:`qhyp.qcore._row_plan` takes them
    (:func:`qhyp.qcore._row_plans` plans each distinct row once).  A row
    whose plan is its PoleError takes that error; the others are summed in
    blocks cut by their planned first chunks (:func:`qhyp.qcore._by_blocks`).
    ``step(v, ns)`` gives the step ratios at ``ns`` of the rows whose
    parameters are ``v``, shaped (parameters, rows, 1), from ``factors``
    factors 1 - c q^n a step, written into work arrays
    (:func:`qhyp.qcore._work`) of the kernel's chunk."""
    todo = []
    for row, plan in zip(rows, _row_plans([row[2:] for row in rows], ctx, what)):
        if isinstance(plan, Exception):
            out[row[0]] = plan
        else:
            todo.append((row[0], row[1], row[2], plan))

    def block(members: list) -> list:
        _, values, rate, plans = zip(*members)
        v = np.array(values, dtype=np.clongdouble).T.copy()[:, :, None]
        return _ratio_sum([1.0] * len(members),
                          lambda sub, ns: step(v if len(sub) == len(members) else v[:, sub], ns),
                          ctx, rate, what, plans=plans, column=factors * _EXTENDED_BYTES)

    for row, value in zip(todo, _by_blocks(block, todo, factors, [row[3][0] for row in todo],
                                           _EXTENDED_BYTES)):
        out[row[0]] = value
    return out


def _phi_rows(rows: Sequence[tuple], ctx: QContext) -> list:
    """Row i: the general series of (numerators, denominators, argument) =
    ``rows[i]``, as :func:`phi` sums it alone; the rows share their numbers
    of numerators and of denominators.  Returns one entry per row: its
    value, or the error it raises (:func:`_sum_rows`)."""
    if not rows:
        return []
    q = complex(ctx.q)
    r, s = len(rows[0][0]), len(rows[0][1])
    p = s + 1 - r  # exponent of the (-1)^n q^C(n,2) factor
    what = "q-hypergeometric series"
    out: list = [None] * len(rows)
    planned = []  # (i, parameters, rate, reach, last, pole) of the rows that do not diverge
    # each distinct parameter value is scanned once (a lone row shares nothing)
    orders = {} if len(rows) > 1 else None
    for i, (nums, dens, z) in enumerate(rows):
        z = complex(z)
        n_stop = _termination_order(nums, ctx, orders)
        if n_stop is None and p < 0:
            out[i] = DivergenceError(
                "series with r > s+1 diverges unless a numerator parameter "
                "is q^-n for some n >= 0"
            )
        elif n_stop is None and p == 0 and abs(z) >= 1.0:
            out[i] = DivergenceError(f"|argument| = {abs(z):.6g} >= 1 for r = s+1")
        else:
            values = (*nums, *dens, q, z)
            planned.append((i, values, z if p == 0 else 0.0, max(map(abs, values[:-1])), n_stop,
                            _termination_order(dens, ctx, orders)))

    def step(v: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """v: the numerators, denominators, q and the argument."""
        qn = _qpow(q, ns)
        f = np.multiply(v[:-1], qn, out=_work((len(v) - 1, v.shape[1], len(ns)), v.dtype))
        ratio = _quotient(np.subtract(1.0, f, out=f), r)
        if p:
            lead = np.multiply(v[-1], (-qn) ** p, out=_work(ratio.shape, v.dtype))
            return np.multiply(ratio, lead, out=ratio)
        return np.multiply(ratio, v[-1], out=ratio)

    return _sum_rows(out, planned, step, r + s + 1, ctx, what)


def phi(spec: PhiSpec, ctx: QContext) -> complex:
    """Evaluate the general q-hypergeometric series at ``spec.argument``:
    the one-row case of :func:`_phi_rows`."""
    return _one(_phi_rows([(spec.numerator, spec.denominator, spec.argument)], ctx))


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
    what = "psi33 upward tail"
    value = _one(_ratio_sum([1.0], up, ctx, [z], what, column=ab.nbytes,
                            plans=[_row_plan(z, reach.max(), None, poles[0], ctx, what)]))
    if poles[1] is not None:
        raise PoleError(f"psi33: (a)_n has a pole at n = {-1 - poles[1]}")
    what = "psi33 downward tail"
    plan = _row_plan(inner / z, (abs(q * q) / reach).max(), None, None, ctx, what)
    return value + _one(_ratio_sum([down(np.array([0]))[0]], lambda rows, ks: down(ks + 1)[None],
                                   ctx, [inner / z], what, plans=[plan], column=ba.nbytes))


def _w87_rows(rows: Sequence[tuple], ctx: QContext) -> list:
    """Row i: the very-well-poised series of (a, b, c, d, e, f, z) =
    ``rows[i]``, as :func:`w87` sums it alone.  Returns one entry per row:
    its value, or the error it raises (:func:`_sum_rows`, with 14 factors
    1 - c q^n a step)."""
    q = complex(ctx.q)
    what = "w87 series"
    out: list = [None] * len(rows)
    planned = []  # (i, parameters, rate, reach, last, pole) of the rows that do not diverge
    # each distinct parameter value is scanned once (a lone row shares nothing)
    orders = {} if len(rows) > 1 else None
    for i, row in enumerate(rows):
        a, b, c, d, e, f, z = (complex(v) for v in row)
        params = (b, c, d, e, f)
        n_stop = _termination_order(params + (a,), ctx, orders)
        if n_stop is None and abs(z) >= 1.0:
            out[i] = DivergenceError(f"w87 needs |z| < 1, got {abs(z):.6g}")
            continue
        dens = [q * a / p for p in params]
        # 1 - a q^{2n} = (1 - sqrt(a) q^n)(1 + sqrt(a) q^n) divides the step ratio too
        poles = [n for n in (_termination_order(dens, ctx, orders), _termination_order(
            [cmath.sqrt(a), -cmath.sqrt(a)], ctx, orders)) if n is not None]
        planned.append((i, (a, *params, q, z), z, max(map(abs, (a, *params, *dens, q))), n_stop,
                        min(poles, default=None)))
    qx = np.clongdouble(q)

    def step(v: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """(a, b, ..., f)_n / (q, qa/b, ..., qa/f)_n steps and the very-well-poised
        (1 - a q^{2n+2}) / (1 - a q^{2n}); v: a, b, ..., f, q, z.  qa/b, ...,
        qa/f are formed here, in extended precision: one of them near 1
        would turn a rounded quotient into a large error of its factor."""
        qn = _qpow(q, ns)
        shape = (14, v.shape[1], len(ns))  # the factors' c q^n, then 1 - c q^n
        f = _work(shape, v.dtype)
        f = np.empty(shape, v.dtype) if f is None else f  # written a part at a time
        sq = np.multiply(np.multiply(v[0], qn, out=f[13]), qn, out=f[13])
        np.multiply(v[:6], qn, out=f[:6])
        np.multiply(qx * q, sq, out=f[6])
        np.multiply(qx * v[0] / v[1:6], qn, out=f[7:12])
        np.multiply(v[6:7], qn, out=f[12:13])
        ratio = _quotient(np.subtract(1.0, f, out=f), 7)
        return np.multiply(v[7], ratio, out=ratio)

    return _sum_rows(out, planned, step, 14, ctx, what)


def w87(a: complex, b: complex, c: complex, d: complex, e: complex, f: complex, z: complex,
        ctx: QContext) -> complex:
    """Very-well-poised series
    sum_n (1-a q^{2n})/(1-a) (a,b,c,d,e,f)_n / (q, qa/b, ..., qa/f)_n z^n;
    the one-row case of :func:`_w87_rows`."""
    return _one(_w87_rows([(a, b, c, d, e, f, z)], ctx))


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
    sum (a)_{m+n} (b1)_m (b2)_n / ((c)_{m+n} (q)_m (q)_n) x1^m x2^n
      = sum_m (a, b1)_m / (q, c)_m x1^m 2phi1(a q^m, b2; c q^m; q, x2)
    (Gasper & Rahman, ch. 10): one row of the series kernel over m, each chunk
    of its terms weighed by one :func:`_phi_rows` batch of the inner series.
    """
    a, b1, b2, c, x1, x2 = (complex(v) for v in (a, b1, b2, c, x1, x2))
    if abs(x1) >= 1.0 or abs(x2) >= 1.0:
        raise DivergenceError("appell_phi1 needs |x1| < 1 and |x2| < 1")
    q = complex(ctx.q)
    outer = np.array([a, b1, q, c])[:, None]

    def step(rows: list, ns: np.ndarray) -> np.ndarray:
        return x1 * _quotient(1.0 - outer * _qpow(q, ns), 2)[None]

    def weigh(rows: list, ns: np.ndarray, t: np.ndarray) -> np.ndarray:
        """t_m times 2phi1(a q^m, b2; c q^m; q, x2), whose error is raised."""
        qm = q**ns
        inner = _phi_rows([((u, b2), (v,), x2) for u, v in zip(a * qm, c * qm)], ctx)
        return t * np.array([_one([value]) for value in inner])

    plan = _row_plan(x1, max(map(abs, (a, b1, c, q))), _termination_order([a, b1], ctx),
                     _termination_order([c], ctx), ctx, "appell_phi1")
    return _one(_ratio_sum([1.0], step, ctx, [x1], "appell_phi1", weigh=weigh, plans=[plan],
                           column=len(outer) * _EXTENDED_BYTES))


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
