"""Series families: the general q-hypergeometric sum, bilateral series,
very-well-poised series, the q-Appell double sum and the transformation
identities connecting them."""

import cmath
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import _Tail, loop_appell_phi1, rand_complex
from qhyp.errors import AnnulusError, DivergenceError, NonDecayingSumError, PoleError
from qhyp import qcore, qseries
from qhyp.qcore import (
    _BATCH_BYTES,
    _CHUNK,
    _RATIO_FACTORS,
    QContext,
    _one,
    qpoch_fin,
    qpoch_inf,
    qpoch_ratio,
)
from qhyp.qseries import (
    PhiSpec,
    _phi_rows,
    _w87_rows,
    appell_phi1,
    bailey_w87_transform,
    heine_transformation_constant,
    is_balanced_w87,
    phi,
    phi21,
    psi33,
    w87,
    w87_to_phi32_limit,
)
from qhyp.solutions import _grid_sum


class TestPhi:
    def test_argument_zero(self, ctx, rng):
        spec = PhiSpec([rand_complex(rng), rand_complex(rng)], [rand_complex(rng)], 0.0)
        assert phi(spec, ctx) == 1.0

    def test_q_binomial_theorem(self, ctx, rng):
        for _ in range(20):
            a = rand_complex(rng)
            z = rand_complex(rng, 0.1, 0.8)
            lhs = phi(PhiSpec([a], [], z), ctx)
            rhs = qpoch_ratio([a * z], [z], ctx)
            assert abs(lhs - rhs) <= ctx.eq_tol * abs(rhs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_q_vandermonde(self, ctx, rng, n):
        a, c = rand_complex(rng), rand_complex(rng)
        lhs = phi21(a, ctx.q**-n, c, ctx.q, ctx)
        rhs = qpoch_fin(c / a, n, ctx) / qpoch_fin(c, n, ctx) * a**n
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_shuffled_parameter_lists(self, ctx, rng):
        nums = [rand_complex(rng) for _ in range(3)]
        dens = [rand_complex(rng) for _ in range(2)]
        z = 0.4 + 0.2j
        v1 = phi(PhiSpec(nums, dens, z), ctx)
        v2 = phi(PhiSpec(nums[::-1], dens[::-1], z), ctx)
        assert abs(v1 - v2) <= 1e-13 * abs(v1)  # identical up to product order

    def test_divergence_r_greater(self, ctx):
        with pytest.raises(DivergenceError):
            phi(PhiSpec([0.3, 0.4, 0.5], [0.6], 0.5), ctx)

    def test_terminating_allows_large_argument(self, ctx):
        val = phi(PhiSpec([ctx.q**-2, 0.4, 0.5], [0.6], 3.0), ctx)
        assert np.isfinite(abs(val))

    def test_unit_disc_boundary(self, ctx):
        with pytest.raises(DivergenceError):
            phi(PhiSpec([0.3, 0.4], [0.6], 1.0), ctx)

    def test_denominator_pole(self, ctx):
        with pytest.raises(PoleError):
            phi(PhiSpec([0.3, 0.4], [ctx.q**-3], 0.5), ctx)

    def test_terminating_identity_chain(self, ctx, rng):
        """The four terminating representations of the regular solution agree."""
        q = complex(ctx.q)
        b, c, z = rand_complex(rng), rand_complex(rng), 0.55 + 0.1j
        for n in (1, 2, 3):
            a = q**-n
            r1 = phi21(a, b, c, z, ctx)
            r2 = qpoch_fin(a * z, n, ctx) * phi(PhiSpec([a, c / b], [c, a * z], b * z), ctx)
            r3 = (
                qpoch_fin(c / b, n, ctx)
                / qpoch_fin(c, n, ctx)
                * phi(PhiSpec([a, b, a * b * z / c], [q ** (1 - n) * b / c, 0.0], q), ctx)
            )
            r4 = (
                qpoch_fin(b, n, ctx)
                / qpoch_fin(c, n, ctx)
                * qpoch_fin(a * z, n, ctx)
                * phi(PhiSpec([a, c / b, 0.0], [q ** (1 - n) / b, a * z], q), ctx)
            )
            r5 = qpoch_fin(a * b * z / c, n, ctx) * phi(
                PhiSpec([c / b, a, 0.0], [c, c * q / (b * z)], q), ctx
            )
            for r in (r2, r3, r4, r5):
                assert abs(r - r1) <= 1e-12 * abs(r1)


class TestPsi33:
    def test_annulus_violation(self, ctx):
        with pytest.raises(AnnulusError):
            psi33([2.0, 1.5, 1.2], [0.2, 0.3, 0.4], 0.001, ctx)
        with pytest.raises(AnnulusError):
            psi33([2.0, 1.5, 1.2], [0.2, 0.3, 0.4], 1.1, ctx)

    def test_one_sided_reduction(self, ctx, rng):
        av = [0.31, 0.42, 0.47]
        bv = [complex(ctx.q), 0.11, 0.12]
        z = 0.5
        full = psi33(av, bv, z, ctx)
        one = sum(
            np.prod([qpoch_fin(a, n, ctx) for a in av])
            / np.prod([qpoch_fin(b, n, ctx) for b in bv])
            * z**n
            for n in range(250)
        )
        assert abs(full - one) <= 1e-12 * abs(full)

    def test_bilateral_brute_force(self, ctx):
        av = [2.3, 1.7, 1.1]
        bv = [0.21, 0.13, 0.17]
        z = 0.4
        q = complex(ctx.q)

        def term(n):
            t = z**n
            for a, b in zip(av, bv):
                if n >= 0:
                    t *= qpoch_fin(a, n, ctx) / qpoch_fin(b, n, ctx)
                else:
                    for k in range(1, -n + 1):
                        t *= (1 - b * q**-k) / (1 - a * q**-k)
            return t

        brute = sum(term(n) for n in range(-150, 250))
        assert abs(psi33(av, bv, z, ctx) - brute) <= 1e-12 * abs(brute)

    def test_list_permutation_invariance(self, ctx):
        av = [2.3, 1.7, 1.1]
        bv = [0.21, 0.13, 0.17]
        v1 = psi33(av, bv, 0.4, ctx)
        v2 = psi33(av[::-1], [bv[1], bv[0], bv[2]], 0.4, ctx)
        assert abs(v1 - v2) <= 1e-13 * abs(v1)

    def test_limit_lemma_extrapolation(self, ctx, rng):
        """(1-z) * bilateral sum -> product ratio as z -> 1: raw error
        decreasing over z = 1 - 1e-2, 1e-3, 1e-4 and Neville extrapolation
        (augmented with two intermediate nodes) accurate to 1e-8."""
        big = ctx.with_budget(600_000)
        for _ in range(3):
            av = [rand_complex(rng, 1.2, 1.9, 0.4) for _ in range(3)]
            bv = [rand_complex(rng, 0.1, 0.35, 0.4) for _ in range(3)]
            target = np.prod([qpoch_inf(a, ctx) for a in av]) / np.prod(
                [qpoch_inf(b, ctx) for b in bv]
            )
            coarse = [1e-2, 1e-3, 1e-4]
            errs = [abs(e * psi33(av, bv, 1 - e, big) - target) for e in coarse]
            assert errs[0] > errs[1] > errs[2]
            eps = [1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4]
            xs = np.array(eps)
            ys = np.array([e * psi33(av, bv, 1 - e, big) for e in eps])
            tableau = ys.copy()
            for j in range(1, len(xs)):
                # Neville value at 0: combine spans [i, i+j]
                tableau = np.array([
                    (xs[i] * tableau[i + 1] - xs[i + j] * tableau[i])
                    / (xs[i] - xs[i + j])
                    for i in range(len(tableau) - 1)
                ])
            assert abs(tableau[0] - target) <= 1e-8 * abs(target)


class TestW87:
    def test_argument_zero(self, ctx, rng):
        v = w87(*(rand_complex(rng) for _ in range(6)), 0.0, ctx)
        assert v == 1.0

    def test_balanced_detector(self, ctx, rng):
        vals = [rand_complex(rng) for _ in range(6)]
        z = vals[0] ** 2 * ctx.q**2 / np.prod(vals[1:])
        assert is_balanced_w87(*vals, z, ctx)
        assert not is_balanced_w87(*vals, z * 1.01, ctx)

    def test_agrees_with_general_series_form(self, ctx, rng):
        """Dual route: the very-well-poised weight equals the 8-parameter
        general series with the +-sqrt(a) satellite parameters."""
        import cmath

        for _ in range(10):
            a = rand_complex(rng, 0.5, 1.3)
            params = [rand_complex(rng, 0.6, 1.4) for _ in range(5)]
            z = rand_complex(rng, 0.1, 0.6)
            sq = cmath.sqrt(a)
            q = complex(ctx.q)
            lhs = w87(a, *params, z, ctx)
            rhs = phi(PhiSpec(
                [a, q * sq, -q * sq] + params,
                [sq, -sq] + [q * a / p for p in params],
                z), ctx)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_bailey_two_term_transformation(self, ctx, rng):
        count = 0
        while count < 20:
            vals = [rand_complex(rng, 0.7, 1.4) for _ in range(6)]
            a, b, c, d, e, f = vals
            if abs(a * a * ctx.q**2 / np.prod(vals[1:])) >= 0.9:
                continue
            mu = ctx.q * a * a / (b * c * d)
            if abs(a * ctx.q / (e * f)) >= 0.9 or abs(mu * ctx.q / (e * f)) >= 0.9:
                continue
            lhs, rhs = bailey_w87_transform(a, b, c, d, e, f, ctx)
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)
            count += 1

    @pytest.mark.parametrize("which", [1, 2, 3, 4, 5, 6])
    def test_limits_to_phi32(self, which):
        """Each scaling degeneration converges monotonically to its 3phi2
        value; the growing-parameter variants are run in terminating form and
        along the q-lattice so the sum limit equals the term-by-term limit."""
        ctx = QContext(0.5)
        q = 0.5
        if which in (1, 4):
            args = (0.9, 1.2, 1.1, q**-5, 1.3, 1.4) if which == 1 else (
                0.9, 1.2, 1.1, 0.8, q**-5, 1.4)
        elif which in (5, 6):
            args = (q**-6 * 1.2 * 1.1, 1.2, 1.1, 0.8, 1.3, 1.4)
        else:
            args = (0.9, 1.2, 1.1, 0.8, 1.3, 1.4)
        errs = []
        for k in (12, 16, 20):
            ell = q**k if which in (2, 4, 6) else q**-k
            val, lim = w87_to_phi32_limit(which, *args, ell, ctx)
            errs.append(abs(val - lim) / abs(lim))
        assert errs[0] > errs[1] > errs[2]


class TestAppell:
    def test_reduces_to_single_series(self, ctx, rng):
        a, b1, b2, c = (rand_complex(rng) for _ in range(4))
        x1 = 0.3 + 0.1j
        v = appell_phi1(a, b1, b2, c, x1, 0.0, ctx)
        w = phi21(a, b1, c, x1, ctx)
        assert abs(v - w) <= 1e-12 * abs(w)

    def test_symmetry(self, ctx, rng):
        a, b1, b2, c = (rand_complex(rng) for _ in range(4))
        v1 = appell_phi1(a, b1, b2, c, 0.3, 0.2, ctx)
        v2 = appell_phi1(a, b2, b1, c, 0.2, 0.3, ctx)
        assert abs(v1 - v2) <= 1e-12 * abs(v1)

    def test_integral_representation(self, ctx, rng):
        """The one-dimensional Jackson integral reproduces the double sum."""
        q = complex(ctx.q)
        alpha = complex(rng.uniform(0.4, 1.2), rng.uniform(-0.2, 0.2))
        a = cmath.exp(alpha * cmath.log(q))
        b1, b2, c = (rand_complex(rng) for _ in range(3))
        x1, x2 = 0.35 + 0.1j, 0.25 - 0.15j
        lhs = _one(_grid_sum([1.0], [[q, b1 * x1, b2 * x2]], [[c / a, x1, x2]], ctx,
                             alpha=alpha, weighted=False))
        rhs = (
            (1 - q)
            * qpoch_ratio([q, c], [a, c / a], ctx)
            * appell_phi1(a, b1, b2, c, x1, x2, ctx)
        )
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_nested_batches_match_the_loops(self):
        """At q = 0.9 and x1 = 0.85 the outer row's first chunk is ~300 terms
        wide, and lends work arrays; the inner 2phi1 of its terms are one
        batch of several blocks, whose chunks lend again inside it.  The value
        matches the scalar loops of conftest to 1e-13 of sum |t_m| sum
        |u_mn|, and every buffer is back."""
        ctx = QContext(0.9)
        args = (0.3 + 0.1j, 0.5, 0.7 - 0.2j, 0.8, 0.85, 0.5 + 0.1j)
        want, mags = loop_appell_phi1(*args, ctx)
        assert abs(appell_phi1(*args, ctx) - want) <= 1e-13 * mags
        assert qcore._pool.top == 0 and not qcore._pool.lending


class TestHeineTransformation:
    def test_constant_in_z(self, ctx, rng):
        for _ in range(20):
            a = rand_complex(rng, 0.2, 0.8)
            b, c = rand_complex(rng), rand_complex(rng)
            vals = [
                heine_transformation_constant(a, b, c, z, ctx)
                for z in (0.15, 0.3, 0.45)
            ]
            target = qpoch_inf(a, ctx) / qpoch_inf(c, ctx)
            assert all(abs(v - target) <= 1e-8 * abs(target) for v in vals)


# -- the series kernel against the loops it replaced and against mpmath ------------
#
# phi, w87 and both sides of psi33 are sums of qcore._ratio_sum.  The loops
# below are the ones they replaced, kept as references: scalar term-by-term
# loops for phi and w87 (pole test 1e-12 relative, checked as each step is
# taken), and psi33's chunks of 4096 terms (pole tests 1e-14 and 1e-300
# absolute, over the whole chunk).


def loop_termination_order(nums, ctx):
    q = complex(ctx.q)
    best = None
    for a in nums:
        if a == 0:
            continue
        w = complex(a)
        for n in range(ctx.max_terms):
            if abs(w - 1.0) <= 1e-12 * (1.0 + abs(w)):
                best = n if best is None else min(best, n)
                break
            if abs(w) < 0.5:
                break
            w *= q
    return best


def loop_phi(spec, ctx, scan=None):
    """``scan``, a list, collects (|term|, kappa) for every term summed, where
    kappa sums (n + 1) |w| / |1 - w| over the factors 1 - w of its ratio."""
    nums, dens, z = spec.numerator, spec.denominator, spec.argument
    r, s = len(nums), len(dens)
    p = s + 1 - r
    q = complex(ctx.q)
    n_stop = loop_termination_order(nums, ctx)
    if n_stop is None:
        if p < 0:
            raise DivergenceError("r > s+1")
        if p == 0 and abs(z) >= 1.0:
            raise DivergenceError("|z| >= 1")
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    tail = _Tail(ctx)
    kappa = 0.0
    for n in range(ctx.max_terms):
        total += term
        if scan is not None:
            scan.append((abs(term), kappa))
        if n == n_stop or tail.done(abs(term)):
            return total
        qn = q**n
        ratio = z
        for a in nums:
            ratio *= 1.0 - a * qn
        for b in dens:
            factor = 1.0 - b * qn
            if abs(factor) <= 1e-12 * (1.0 + abs(b * qn)):
                raise PoleError(f"denominator parameter {b} hits q^-{n}")
            ratio /= factor
        for w in [a * qn for a in nums] + [b * qn for b in dens]:
            kappa += (n + 1) * abs(w) / max(abs(1.0 - w), 1e-300)
        ratio /= 1.0 - q ** (n + 1)
        if p:
            ratio *= (-(qn)) ** p if p > 0 else 1.0 / ((-(qn)) ** (-p))
        term *= ratio
    raise NonDecayingSumError("budget")


def loop_w87(a, b, c, d, e, f, z, ctx, scan=None):
    a, b, c, d, e, f, z = (complex(v) for v in (a, b, c, d, e, f, z))
    q = complex(ctx.q)
    params = (b, c, d, e, f)
    n_stop = loop_termination_order(params + (a,), ctx)
    if n_stop is None and abs(z) >= 1.0:
        raise DivergenceError("|z| >= 1")
    dens = tuple(q * a / p for p in params)
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    tail = _Tail(ctx)
    kappa = 0.0
    for n in range(ctx.max_terms):
        total += term
        if scan is not None:
            scan.append((abs(term), kappa))
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
            if abs(factor) <= 1e-12 * (1.0 + abs(dpar * qn)):
                raise PoleError(f"w87 denominator parameter {dpar} hits q^-{n}")
            ratio /= factor
        for w in [v * qn for v in (a, *params, *dens)] + [a * qn * qn, a * qn * qn * q * q]:
            kappa += (n + 1) * abs(w) / max(abs(1.0 - w), 1e-300)
        ratio /= 1.0 - q ** (n + 1)
        term *= ratio
    raise NonDecayingSumError("budget")


def loop_psi33(a, b, z, ctx, scan=None):
    a = [complex(v) for v in a]
    b = [complex(v) for v in b]
    z = complex(z)
    q = complex(ctx.q)
    inner = abs(b[0] * b[1] * b[2] / (a[0] * a[1] * a[2]))
    if not inner < abs(z) < 1.0:
        raise AnnulusError("annulus")
    chunk = 4096

    def step_ratios(ns, downward):
        if not downward:
            qn = q ** ns.astype(complex)
            ratio = np.full(len(ns), z, dtype=complex)
            for ai, bi in zip(a, b):
                den = 1.0 - bi * qn
                if np.any(np.abs(den) < 1e-14):
                    raise PoleError("psi33: vanishing (b)_n factor for n >= 0")
                ratio *= (1.0 - ai * qn) / den
            return ratio
        qinv = q ** (1 - ns).astype(complex)
        ratio = np.full(len(ns), 1.0 / z, dtype=complex)
        for ai, bi in zip(a, b):
            den = qinv - ai
            if np.any(np.abs(den) < 1e-300):
                raise PoleError("psi33: vanishing (a)_n factor for n < 0")
            ratio *= (qinv - bi) / den
        return ratio

    def one_side(downward):
        part = 0.0 + 0.0j
        tail = _Tail(ctx)
        if not downward:
            t0, n0 = 1.0 + 0.0j, 0
        else:
            t0, n0 = step_ratios(np.array([0]), True)[0], -1
        emitted = 0
        while emitted < ctx.max_terms:
            m = min(chunk, ctx.max_terms - emitted)
            ns = n0 + np.arange(m) * (-1 if downward else 1)
            ratios = step_ratios(ns, downward)
            terms = t0 * np.concatenate(([1.0 + 0.0j], np.cumprod(ratios[:-1])))
            stop = tail.first_stop(np.abs(terms))
            if stop is not None:
                if scan is not None:
                    scan.extend(np.abs(terms[: stop + 1]))
                return part + terms[: stop + 1].sum()
            if scan is not None:
                scan.extend(np.abs(terms))
            part += terms.sum()
            emitted += m
            t0 = terms[-1] * ratios[-1]
            n0 = int(ns[-1]) + (-1 if downward else 1)
        raise NonDecayingSumError("budget")

    return one_side(False) + one_side(True)


def outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except (PoleError, DivergenceError, NonDecayingSumError, ZeroDivisionError) as exc:
        return type(exc)


def well_conditioned(scan, value):
    """Few digits lost to cancellation (sum |t_n| / |sum|) or to the rounding
    of the factors 1 - c q^n (kappa); the two versions round both differently."""
    if not value:
        return False
    mags = sum(m for m, _ in scan)
    return mags <= 4 * abs(value) and max(k for _, k in scan) <= 100


def q_draw(draw):
    return draw(st.floats(0.2, 0.8)) * cmath.exp(1j * draw(st.sampled_from([0.0, 0.4, -1.5])))


def params_draw(lo, hi):
    return st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(lo, hi),
                     st.floats(-math.pi, math.pi))


@st.composite
def phi_cases(draw):
    """Parameters of modulus 0.05-2, numerators q^-k (terminating),
    denominators q^-k (poles), |z| < 0.95 and budgets from 1 to 60 or 512."""
    q = q_draw(draw)
    power = st.integers(0, 8).map(lambda k: q**-k)
    nums = draw(st.lists(st.one_of(params_draw(0.05, 2.0), power), max_size=3))
    dens = draw(st.lists(st.one_of(params_draw(0.05, 2.0), params_draw(0.05, 2.0), power,
                                   st.just(0j)), max_size=3))
    z = draw(params_draw(0.0, 0.95))
    return q, PhiSpec(nums, dens, z), draw(st.one_of(st.just(512), st.integers(1, 60)))


@st.composite
def w87_cases(draw):
    q = q_draw(draw)
    a = draw(st.one_of(params_draw(0.3, 1.5), params_draw(0.3, 1.5),
                       st.integers(1, 3).map(lambda m: q ** (-2 * m))))
    rest = draw(st.lists(st.one_of(
        params_draw(0.3, 1.5), params_draw(0.3, 1.5),
        st.integers(0, 6).map(lambda k: q**-k),          # terminating
        st.integers(0, 6).map(lambda k: a * q ** (k + 1))), min_size=5, max_size=5))
    z = draw(params_draw(0.0, 0.9))
    return q, (a, *rest, z), draw(st.one_of(st.just(512), st.integers(1, 60)))


@st.composite
def psi33_cases(draw):
    q = q_draw(draw)
    a = draw(st.lists(st.one_of(params_draw(1.2, 3.0), params_draw(1.2, 3.0),
                                st.integers(1, 4).map(lambda k: q**-k)),  # zero upwards
                      min_size=3, max_size=3))
    b = draw(st.lists(st.one_of(params_draw(0.05, 0.5), params_draw(0.05, 0.5),
                                st.integers(1, 4).map(lambda k: q**k),    # zero downwards
                                st.integers(0, 2).map(lambda k: q**-k)),  # pole upwards
                      min_size=3, max_size=3))
    inner = abs(np.prod(b) / np.prod(a))
    z = draw(st.floats(0.01, 1.0)) * (0.9 - inner) + inner if inner < 0.9 else 0.5
    z *= cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return q, a, b, z, draw(st.one_of(st.just(512), st.integers(1, 60)))


def reached_pole(dens, n_stop, ctx):
    """A denominator parameter q^-k with k below the budget and before the
    series terminates: the terms after k are infinite."""
    k = loop_termination_order(dens, ctx)
    return k is not None and (n_stop is None or k < n_stop)


class TestSeriesKernel:
    """The one kernel against the loops it replaced: the same outcome always,
    values within 1e-13 where the sum is well conditioned.  One documented
    difference: a pole that the series reaches before it terminates raises
    PoleError even when the tail rule stopped the old loop short of it."""

    @settings(max_examples=300, deadline=None)
    @given(case=phi_cases())
    def test_phi_matches_loop(self, case):
        q, spec, max_terms = case
        ctx = QContext(q, max_terms=max_terms)
        scan = []
        ref = outcome(loop_phi, spec, ctx, scan)
        got = outcome(phi, spec, ctx)
        if got is PoleError and not isinstance(ref, type):
            assert reached_pole(spec.denominator,
                                loop_termination_order(spec.numerator, ctx), ctx)
            return
        if isinstance(ref, type):
            assert got is ref
            return
        assert not isinstance(got, type)
        if well_conditioned(scan, ref):
            assert abs(got - ref) <= 1e-13 * abs(ref)

    @settings(max_examples=200, deadline=None)
    @given(case=w87_cases())
    def test_w87_matches_loop(self, case):
        q, args, max_terms = case
        ctx = QContext(q, max_terms=max_terms)
        scan = []
        ref = outcome(loop_w87, *args, ctx, scan)
        got = outcome(w87, *args, ctx)
        a = args[0]
        if got is PoleError and ref is not PoleError:
            n_stop = loop_termination_order(args[:6], ctx)
            # a = q^-2m: the step ratio (1 - a q^{2n+2}) / (1 - a q^{2n}) is 0/0 at n = m
            root = cmath.sqrt(a)
            assert reached_pole([q * a / p for p in args[1:6]] + [root, -root], n_stop, ctx)
            return
        if isinstance(ref, type):
            assert got is ref
            return
        assert not isinstance(got, type)
        if well_conditioned(scan, ref):
            assert abs(got - ref) <= 1e-13 * abs(ref)

    @settings(max_examples=200, deadline=None)
    @given(case=psi33_cases())
    def test_psi33_matches_chunked_sides(self, case):
        q, a, b, z, max_terms = case
        ctx = QContext(q, max_terms=max_terms)
        scan = []
        ref = outcome(loop_psi33, a, b, z, ctx, scan)
        got = outcome(psi33, a, b, z, ctx)
        if isinstance(ref, type):
            assert got is ref
            return
        assert not isinstance(got, type)
        if sum(scan) <= 4 * abs(ref):
            assert abs(got - ref) <= 1e-13 * abs(ref)


# -- row batches --------------------------------------------------------------
#
# _phi_rows and _w87_rows sum many rows at once, block by block; phi and w87
# are their one-row case.  Every row must be what it is alone, bit for bit.


def raised(fn, *args):
    """fn(*args), or the series error it raises."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except (PoleError, DivergenceError, NonDecayingSumError) as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
    else:
        assert not isinstance(got, Exception), got
        assert repr(got) == repr(want)


@st.composite
def phi_batches(draw):
    """30 rows of phi_cases that share q, the budget and the numbers of
    numerators and of denominators; they may mix good rows with divergent,
    polar and budget-exhausting ones."""
    q = q_draw(draw)
    r, s = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    power = st.integers(0, 8).map(lambda k: q**-k)
    row = st.tuples(
        st.lists(st.one_of(params_draw(0.05, 2.0), power), min_size=r, max_size=r),
        st.lists(st.one_of(params_draw(0.05, 2.0), params_draw(0.05, 2.0), power, st.just(0j)),
                 min_size=s, max_size=s),
        params_draw(0.0, 1.05))
    rows = draw(st.lists(row, min_size=30, max_size=30))
    return q, rows, draw(st.one_of(st.just(512), st.integers(1, 60)))


@st.composite
def w87_batches(draw):
    """30 rows drawn as w87_cases draws one, but with one q and budget for
    all, and |z| up to 1.1: good rows mixed with terminating, polar,
    divergent and budget-exhausting ones."""
    q = q_draw(draw)
    rows = []
    for _ in range(30):
        a = draw(st.one_of(params_draw(0.3, 1.5), params_draw(0.3, 1.5),
                           st.integers(1, 3).map(lambda m: q ** (-2 * m))))
        rest = draw(st.lists(st.one_of(
            params_draw(0.3, 1.5), params_draw(0.3, 1.5),
            st.integers(0, 6).map(lambda k: q**-k),
            st.integers(0, 6).map(lambda k: a * q ** (k + 1))), min_size=5, max_size=5))
        rows.append((a, *rest, draw(params_draw(0.0, 1.1))))
    return q, rows, draw(st.one_of(st.just(512), st.integers(1, 60)))


class TestRowBatches:
    # a batch of 30 rows is the smallest input these tests are about
    batch_settings = settings(max_examples=25, deadline=None,
                              suppress_health_check=[HealthCheck.large_base_example])

    @batch_settings
    @given(case=phi_batches())
    def test_phi_rows_equal_phi_alone(self, case):
        q, rows, max_terms = case
        ctx = QContext(q, max_terms=max_terms)
        for n in (1, 2, 30):
            batch = raised(_phi_rows, rows[:n], ctx)
            assert len(batch) == n
            for row, got in zip(rows, batch):
                assert_same(got, raised(phi, PhiSpec(*row), ctx))

    @batch_settings
    @given(case=w87_batches())
    def test_w87_rows_equal_w87_alone(self, case):
        q, rows, max_terms = case
        ctx = QContext(q, max_terms=max_terms)
        for n in (1, 2, 30):
            batch = raised(_w87_rows, rows[:n], ctx)
            assert len(batch) == n
            for row, got in zip(rows, batch):
                assert_same(got, raised(w87, *row, ctx))

    def test_batch_memory_does_not_grow_with_its_rows(self):
        """A batch is summed block by block: the traced peak of 300 rows of
        3phi2 stays within twice that of 30 rows.  Each batch starts from an
        empty work pool (qcore._work), so that its peak counts the buffers it
        takes, whatever ran before it."""
        ctx = QContext(0.5)
        rng = np.random.default_rng(11)
        rows = [([rand_complex(rng) for _ in range(3)], [rand_complex(rng) for _ in range(2)],
                 rand_complex(rng, 0.2, 0.9)) for _ in range(300)]
        peaks = []
        for n in (30, 300):
            qcore._pool.buffers.clear()
            tracemalloc.start()
            try:
                values = _phi_rows(rows[:n], ctx)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert not any(isinstance(v, Exception) for v in values)
        assert peaks[1] <= 2 * peaks[0], peaks


def series_outcome(fn, *args):
    """fn(*args), or the series error it raises; numpy's warnings stay errors."""
    try:
        return fn(*args)
    except (PoleError, DivergenceError, NonDecayingSumError) as exc:
        return exc


def mixed_phi_rows(rng, q, n):
    """n 2phi1 rows in random order: generic rows with |z| in [0.05, 0.95],
    rows terminating after term L = 0-6, some of them with a denominator
    that vanishes just past L, and rows with a pole before their end."""
    rows = []
    for _ in range(n):
        a, b, c = (rand_complex(rng, 0.3, 1.6) for _ in range(3))
        z = rng.uniform(0.05, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        kind, order = rng.integers(4), int(rng.integers(7))
        if kind == 1:
            a = q**-order
        elif kind == 2:
            a, c = q**-order, q ** -(order + 1)
        elif kind == 3:
            c = q**-order
        rows.append(((a, b), (c,), z))
    return rows


def mixed_w87_rows(rng, q, n):
    """n W(8,7) rows in random order, drawn as mixed_phi_rows draws its
    rows: b = q^-L ends a row after term L, and f = a q^(k+1) makes
    qa/f = q^-k, a pole at n = k."""
    rows = []
    for _ in range(n):
        a, b, c, d, e, f = (rand_complex(rng, 0.3, 1.5) for _ in range(6))
        z = rng.uniform(0.05, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        kind, order = rng.integers(4), int(rng.integers(7))
        if kind == 1:
            b = q**-order
        elif kind == 2:
            b, f = q**-order, a * q ** (order + 2)
        elif kind == 3:
            f = a * q ** (order + 1)
        rows.append((a, b, c, d, e, f, z))
    return rows


class TestPlannedBlocks:
    """_phi_rows and _w87_rows plan each row once and cut their blocks by
    the rows' planned first chunks, narrowest first.  Each row is still
    what it is alone, in input order, and no block of several rows builds
    more than _BATCH_BYTES of extended-precision factors in its first
    chunk."""

    KINDS = {"phi": (mixed_phi_rows, _phi_rows, lambda row, ctx: phi(PhiSpec(*row), ctx), 4),
             "w87": (mixed_w87_rows, _w87_rows, lambda row, ctx: w87(*row, ctx), 14)}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_shuffled_batches_equal_rows_alone(self, kind):
        draw, rows_of, alone, _ = self.KINDS[kind]
        rng = np.random.default_rng(22)
        seen = set()
        for k in range(16):
            # a dyadic q makes c q^n exactly 1: a pole just past a row's end
            # divides by an exact zero there
            q = rng.choice([0.5, 0.375, 0.625]) if k % 2 else \
                rng.uniform(0.3, 0.7) * cmath.exp(1j * rng.choice([0.0, 0.4]))
            ctx = QContext(q)
            rows = draw(rng, q, int(rng.integers(1, 61)))
            batch = rows_of(rows, ctx)
            assert len(batch) == len(rows)
            for row, got in zip(rows, batch):
                want = series_outcome(alone, row, ctx)
                assert_same(got, want)
                seen.add(type(want))
        assert {complex, PoleError} <= seen

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_first_chunk_of_a_block_stays_within_the_budget(self, kind, monkeypatch):
        draw, rows_of, _, factors = self.KINDS[kind]
        blocks, itemsizes = [], set()
        ratio_sum = qseries._ratio_sum

        def recorded(t0, step, *args, plans, **kwargs):
            def stepped(rows, ns):
                ratios = step(rows, ns)
                itemsizes.add(ratios.itemsize)
                return ratios

            blocks.append([plan[0] for plan in plans])
            return ratio_sum(t0, stepped, *args, plans=plans, **kwargs)

        monkeypatch.setattr(qseries, "_ratio_sum", recorded)
        rng = np.random.default_rng(23)
        for _ in range(8):
            rows_of(draw(rng, 0.5, 300), QContext(0.5))
        assert sum(len(b) for b in blocks) > 8 * 200  # the pole rows skip the kernel
        # the series kernels step in extended precision, and are budgeted so
        (itemsize,) = itemsizes
        assert itemsize == np.dtype(np.clongdouble).itemsize
        for firsts in blocks:
            assert (len(firsts) == 1
                    or len(firsts) * factors * max(firsts) * itemsize <= _BATCH_BYTES)
        # narrow rows share a block with more rows than a _CHUNK-wide block holds
        assert max(map(len, blocks)) > _BATCH_BYTES // (factors * _CHUNK * itemsize)

    def test_rows_ending_inside_a_chunk_do_not_warn(self):
        """Rows terminating after terms 0-3, each with a denominator that
        vanishes at the next index, share a block with rows that sum on, so
        the block's chunk steps them past their ends; the kernel keeps those
        unused ratios from warning (the suite turns RuntimeWarning into an
        error), and every row equals its one-row value."""
        q = 0.5
        ctx = QContext(q)
        rows = [((q**-k, 0.3 + 0.2j), (q ** -(k + 1),), 0.7) for k in range(4)]
        rows += [((0.6 + 0.1j, 1.2), (0.8j,), 0.9 * cmath.exp(1j * k)) for k in range(4)]
        assert [repr(v) for v in _phi_rows(rows, ctx)] == \
            [repr(phi(PhiSpec(*row), ctx)) for row in rows]


def mp_terms_sum(first, ratio, scale_digits=45, limit=20_000):
    """sum of t_n, t_0 = first, t_{n+1} = t_n ratio(n), at the working
    precision, until a term falls below 10^-scale_digits of the largest."""
    total, term, top = mpmath.mpc(0), mpmath.mpc(first), mpmath.mpf(0)
    for n in range(limit):
        total += term
        top = max(top, abs(term))
        if abs(term) < mpmath.mpf(10) ** -scale_digits * top:
            return total
        term *= ratio(n)
    raise AssertionError("mp sum did not converge")


class TestSeriesOracle:
    """phi, w87 and psi33 against 40-digit mpmath sums.  Parameters keep
    their factors 1 - c q^n away from 0 and |z| <= 0.8, so every double
    precision sum keeps its digits."""

    params = st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.1, 0.9),
                       st.one_of(st.floats(0.3, math.pi), st.floats(-math.pi, -0.3)))

    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(0.1, 0.8), nums=st.lists(params, min_size=1, max_size=3),
           dens=st.lists(params, max_size=2), z=st.floats(0.05, 0.8))
    def test_phi_against_qhyper(self, q, nums, dens, z):
        nums = nums[: len(dens) + 1]
        with mpmath.workdps(40):
            exact = mpmath.qhyper([mpmath.mpc(v) for v in nums], [mpmath.mpc(v) for v in dens],
                                  mpmath.mpf(q), mpmath.mpf(z), maxterms=10**5)
            got = phi(PhiSpec(nums, dens, z), QContext(q))
            assert abs(got - exact) <= 1e-13 * abs(exact)

    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(0.1, 0.8), a=params, rest=st.lists(params, min_size=5, max_size=5),
           z=st.floats(0.05, 0.8))
    def test_w87_against_direct_sum(self, q, a, rest, z):
        with mpmath.workdps(40):
            qm, am = mpmath.mpf(q), mpmath.mpc(a)
            ps = [mpmath.mpc(v) for v in rest]

            def ratio(n):
                qn = qm**n
                r = z * (1 - am * qn) * (1 - am * qn**2 * qm**2) / (1 - am * qn**2)
                for p in ps:
                    r *= (1 - p * qn) / (1 - qm * am / p * qn)
                return r / (1 - qn * qm)

            exact = mp_terms_sum(1, ratio)
            got = w87(a, *rest, z, QContext(q))
            assert abs(got - exact) <= 1e-13 * abs(exact)

    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(0.1, 0.8),
           a=st.lists(st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(1.2, 3.0),
                                st.floats(-math.pi, math.pi)), min_size=3, max_size=3),
           b=st.lists(params, min_size=3, max_size=3), u=st.floats(0.1, 0.9))
    def test_psi33_against_both_direct_sides(self, q, a, b, u):
        inner = abs(np.prod(b) / np.prod(a))
        z = inner + u * (0.8 - inner)
        with mpmath.workdps(40):
            qm, zm = mpmath.mpf(q), mpmath.mpf(z)
            am = [mpmath.mpc(v) for v in a]
            bm = [mpmath.mpc(v) for v in b]

            def up(n):   # t_{n+1} / t_n, n >= 0
                return zm * mpmath.fprod((1 - x * qm**n) / (1 - y * qm**n) for x, y in zip(am, bm))

            def down(k):  # t_{-k-1} / t_{-k}, k >= 0
                return mpmath.fprod((1 - y * qm ** (-k - 1)) / (1 - x * qm ** (-k - 1))
                                    for x, y in zip(am, bm)) / zm

            exact = mp_terms_sum(1, up) + mp_terms_sum(down(0), lambda k: down(k + 1))
            got = psi33(a, b, z, QContext(q))
            assert abs(got - exact) <= 1e-13 * abs(exact)


def mp_appell(a, b1, b2, c, x1, x2, q, last=None):
    """The q-Appell double sum at 40 digits and its sum |t_mn| in double
    precision, summed along the anti-diagonals m + n = s: up to s = ``last``,
    or until five diagonals in a row add less than 1e-25 of sum |t_mn|."""
    with mpmath.workdps(40):
        qm = mpmath.mpf(q)
        a, b1, b2, c, x1, x2 = (mpmath.mpc(v) for v in (a, b1, b2, c, x1, x2))
        u, v = [mpmath.mpc(1)], [mpmath.mpc(1)]  # (b1)_k x1^k / (q)_k, (b2)_k x2^k / (q)_k
        ac, total, mags, quiet = mpmath.mpc(1), mpmath.mpc(0), 0.0, 0  # ac = (a)_s / (c)_s
        for s in range(10_000):
            total += ac * mpmath.fdot(u, v[::-1])
            size = float(abs(ac) * mpmath.fdot(map(abs, u), map(abs, v[::-1])))
            mags += size
            quiet = quiet + 1 if size < 1e-25 * mags else 0
            if s == last or quiet == 5:
                return complex(total), mags
            qs = qm**s
            ac *= (1 - a * qs) / (1 - c * qs)
            u.append(u[-1] * (1 - b1 * qs) * x1 / (1 - qs * qm))
            v.append(v[-1] * (1 - b2 * qs) * x2 / (1 - qs * qm))
        raise AssertionError("mp double sum did not converge")


class TestAppellOracle:
    """appell_phi1 against the 40-digit double sum, to 1e-14 of sum |t_mn|:
    a bound on the rounding of the terms, so cancellation among them cannot
    make it flake.  Parameters keep a phase of at least 0.3 from the real
    q, so no factor 1 - c q^n comes within 0.29 of 0."""

    params = st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.1, 1.6),
                       st.one_of(st.floats(0.3, math.pi), st.floats(-math.pi, -0.3)))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(q=st.floats(0.1, 0.8), abc=st.lists(params, min_size=4, max_size=4),
           x1=params_draw(0.0, 0.8), x2=params_draw(0.0, 0.8))
    def test_against_double_sum(self, q, abc, x1, x2):
        exact, mags = mp_appell(*abc, x1, x2, q)
        got = appell_phi1(*abc, x1, x2, QContext(q))
        assert abs(got - exact) <= 1e-14 * mags

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_terminating(self, n):
        """a = q^-n: (a)_{m+n} ends the double sum after its diagonal s = n."""
        q = 0.6
        args = (q**-n, 1.3 + 0.4j, 0.7 - 1.1j, 0.5j, 0.95j, -0.9)
        exact, mags = mp_appell(*args, q, last=n)
        assert abs(appell_phi1(*args, QContext(q)) - exact) <= 1e-14 * mags

    def test_pole(self):
        """c = q^-2: (c)_{m+n} vanishes from m + n = 3 on, a pole.  With
        a = q^-2 and c = q^-3 the sum ends at m + n = 2, before its pole."""
        q = 0.6
        ctx = QContext(q)
        with pytest.raises(PoleError):
            appell_phi1(0.8j, 1.3, 0.7, q**-2, 0.3, 0.2, ctx)
        exact, mags = mp_appell(q**-2, 1.3, 0.7, q**-3, 0.3, 0.2, q, last=2)
        assert abs(appell_phi1(q**-2, 1.3, 0.7, q**-3, 0.3, 0.2, ctx) - exact) <= 1e-14 * mags


class TestSeriesKernelPaths:
    """One pole, one exact zero and one exhausted budget per path, each with
    the outcome of the loop it replaced."""

    ctx = QContext(0.5)

    def test_phi(self):
        q = 0.5
        with pytest.raises(PoleError):
            phi(PhiSpec([0.3, 0.4], [q**-3], 0.5), self.ctx)
        spec = PhiSpec([q**-2, 0.4], [0.6], 3.0)   # terminates after n = 2
        assert phi(spec, self.ctx) == pytest.approx(loop_phi(spec, self.ctx), rel=1e-15)
        with pytest.raises(NonDecayingSumError):
            phi(PhiSpec([0.3, 0.4], [0.6], 0.97), self.ctx)

    def test_w87(self):
        q, a = 0.5, 0.8 + 0.1j
        with pytest.raises(PoleError):   # q a / b = q^-2
            w87(a, a * q**3, 1.1, 0.9, 1.2, 0.7, 0.5, self.ctx)
        args = (a, q**-2, 1.1, 0.9, 1.2, 0.7, 3.0)   # terminates after n = 2
        assert w87(*args, self.ctx) == pytest.approx(loop_w87(*args, self.ctx), rel=1e-14)
        with pytest.raises(NonDecayingSumError):
            w87(a, 1.3, 1.1, 0.9, 1.2, 0.7, 0.99, self.ctx.with_budget(64))

    def test_psi33_upward(self):
        q = 0.5
        a, b = [8.0, 9.0, 10.0], [q**-2, 0.2, 0.3]
        with pytest.raises(PoleError):
            psi33(a, b, 0.5, self.ctx)
        a = [q**-1, 9.0, 10.0]    # (a)_n = 0 for n >= 2
        assert psi33(a, [0.2, 0.3, 0.1], 0.5, self.ctx) == pytest.approx(
            loop_psi33(a, [0.2, 0.3, 0.1], 0.5, self.ctx), rel=1e-14)
        with pytest.raises(NonDecayingSumError):
            psi33([1.3, 1.2, 1.1], [0.2, 0.3, 0.1], 1 - 1e-3, self.ctx.with_budget(64))

    def test_psi33_downward(self):
        q = 0.5
        with pytest.raises(PoleError):   # 1 / (a)_n has 1 - a q^-2 = 0 for n <= -2
            psi33([q**2, 9.0, 10.0], [0.2, 0.3, 0.1], 0.5, self.ctx)
        # a pole known only to rounding: the chunked sides' |q^{1-n} - a| < 1e-300
        # missed it and returned ~800
        with pytest.raises(PoleError):
            psi33([0.45**5, 9.0, 10.0], [0.2, 0.3, 0.1], 0.5, QContext(0.45))
        b = [q**2, 0.3, 0.1]    # (b)_n^-1 = 0 for n <= -2
        assert psi33([8.0, 9.0, 10.0], b, 0.5, self.ctx) == pytest.approx(
            loop_psi33([8.0, 9.0, 10.0], b, 0.5, self.ctx), rel=1e-14)
        with pytest.raises(NonDecayingSumError):   # |inner / z| -> 1
            psi33([1.3, 1.2, 1.1], [0.9, 0.95, 0.99], 0.5, self.ctx.with_budget(64))


# -- the closed-form geometric tail of the series kernel ---------------------------
#
# Past its closure index N the kernel stops summing term by term: the rest is
# t rate / (1 - rate), and the index where the tail rule would stop is
# computed, so every budget still decides the same outcome as the loops.


def closure_index(q, reach):
    """N of qcore._ratio_sum: the first n with _RATIO_FACTORS reach |q|^n /
    (1 - |q|) <= tail_tol (1e-16 here)."""
    spread = _RATIO_FACTORS * reach / ((1 - abs(q)) * 1e-16)
    return max(0, math.ceil(math.log(spread) / -math.log(abs(q))))


def loop_budget(fn, *args, q):
    """The smallest max_terms with which ``fn`` does not run out of terms
    (binary search; the outcome is monotone in the budget)."""
    def short(max_terms):
        return outcome(fn, *args, QContext(q, max_terms=max_terms)) is NonDecayingSumError

    lo, hi = 1, 1 << 12
    while short(hi):
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if short(mid) else (lo, mid)
    return lo


def mp_closed_sum(first, ratio, rate, head):
    """sum of t_n, t_0 = first, t_{n+1} = t_n ratio(n), at the working
    precision: terms 0 .. head - 1 one by one, then t_head / (1 - rate), exact
    to that precision once ratio(n) equals ``rate`` to it for n >= head."""
    total, term = mpmath.mpc(0), mpmath.mpc(first)
    for n in range(head):
        total += term
        term *= ratio(n)
    return total + term / (1 - rate)


def mp_head(q, reach=10.0):
    """Terms after which every factor 1 - c q^n, |c| <= reach, is 1 to 1e-45."""
    return math.ceil(math.log(1e45 * reach) / -math.log(q))


def mp_psi33(a, b, z, q):
    """psi33 at 40 digits: each side's terms to n = 400, then its exact tail."""
    with mpmath.workdps(40):
        qm, zm = mpmath.mpf(q), mpmath.mpc(z)
        am = [mpmath.mpc(v) for v in a]
        bm = [mpmath.mpc(v) for v in b]

        def up(n):   # t_{n+1} / t_n, n >= 0
            return zm * mpmath.fprod((1 - x * qm**n) / (1 - y * qm**n) for x, y in zip(am, bm))

        def down(k):  # t_{-k-1} / t_{-k}, k >= 0
            return mpmath.fprod((1 - y * qm ** (-k - 1)) / (1 - x * qm ** (-k - 1))
                                for x, y in zip(am, bm)) / zm

        inner = mpmath.fprod(bm) / mpmath.fprod(am) / zm
        return complex(mp_closed_sum(1, up, zm, 400)
                       + mp_closed_sum(down(0), lambda k: down(k + 1), inner, 400))


def mp_w87(a, rest, z, q):
    with mpmath.workdps(40):
        qm, am, zm = mpmath.mpf(q), mpmath.mpc(a), mpmath.mpc(z)
        ps = [mpmath.mpc(v) for v in rest]

        def ratio(n):
            qn = qm**n
            r = zm * (1 - am * qn) * (1 - am * qn**2 * qm**2) / (1 - am * qn**2)
            for p in ps:
                r *= (1 - p * qn) / (1 - qm * am / p * qn)
            return r / (1 - qn * qm)

        reach = max(abs(v) for v in (a, *rest, *(q * a / p for p in rest)))
        return complex(mp_closed_sum(1, ratio, zm, mp_head(q, reach)))


class TestClosedFormTail:
    """Sums that run past their closure index: values against 40-digit
    mpmath sums, and outcomes at the budget edge against the loops."""

    @pytest.mark.parametrize("eps", [1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4])
    def test_psi33_near_one_against_mp(self, eps):
        """The criterion-6 points: q = 0.45, z = 1 - eps, budget 600,000."""
        rng = np.random.default_rng(606)
        big = QContext(0.45).with_budget(600_000)
        for _ in range(3):
            av = [rand_complex(rng, 1.2, 1.9, 0.4) for _ in range(3)]
            bv = [rand_complex(rng, 0.1, 0.35, 0.4) for _ in range(3)]
            exact = mp_psi33(av, bv, 1 - eps, 0.45)
            assert abs(psi33(av, bv, 1 - eps, big) - exact) <= 1e-14 * abs(exact)

    def assert_budget_edge(self, fn, ref, args, q, reach):
        """With the loop's own smallest budget both return a value; with one
        term less both raise NonDecayingSumError."""
        need = loop_budget(ref, *args, q=q)
        assert need > max(closure_index(q, reach), 32) + 1   # past the closure
        scan = []
        with np.errstate(all="ignore"):
            want = ref(*args, QContext(q, max_terms=need), scan)
        mags = sum(m[0] if isinstance(m, tuple) else m for m in scan)
        got = outcome(fn, *args, QContext(q, max_terms=need))
        assert not isinstance(got, type)
        assert abs(got - want) <= 1e-12 * mags
        assert outcome(fn, *args, QContext(q, max_terms=need - 1)) is NonDecayingSumError
        assert outcome(ref, *args, QContext(q, max_terms=need - 1)) is NonDecayingSumError

    @settings(max_examples=15, deadline=None)
    @given(q=st.floats(0.2, 0.6), nums=st.lists(TestSeriesOracle.params, min_size=2, max_size=3),
           u=st.floats(0.9, 0.99), t=st.floats(-math.pi, math.pi))
    def test_phi_budget_edge(self, q, nums, u, t):
        dens = [v.conjugate() for v in nums[1:]]
        z = u * cmath.exp(1j * t)
        spec = PhiSpec(nums, dens, z)
        reach = max(abs(v) for v in (*nums, *dens, q))
        self.assert_budget_edge(phi, loop_phi, (spec,), q, reach)

    @settings(max_examples=10, deadline=None)
    @given(q=st.floats(0.2, 0.6), a=TestSeriesOracle.params,
           rest=st.lists(TestSeriesOracle.params, min_size=5, max_size=5),
           u=st.floats(0.9, 0.99))
    def test_w87_budget_edge(self, q, a, rest, u):
        reach = max(abs(v) for v in (a, *rest, *(q * a / p for p in rest), q))
        self.assert_budget_edge(w87, loop_w87, (a, *rest, u), q, reach)

    @pytest.mark.parametrize("u", [0.9, 0.95, 0.99])
    def test_psi33_upward_budget_edge(self, u):
        q, a, b = 0.45, [1.3 + 0.4j, 1.7, 1.5 - 0.2j], [0.2j, 0.3, 0.25 + 0.1j]
        z = u * cmath.exp(0.7j)
        self.assert_budget_edge(psi33, loop_psi33, (a, b, z), q, max(map(abs, a + b)))

    @pytest.mark.parametrize("u", [0.9, 0.95, 0.99])
    def test_psi33_downward_budget_edge(self, u):
        """|inner / z| = u: the downward side is the long one."""
        q, a, z = 0.45, [1.3 + 0.4j, 1.7, 1.5 - 0.2j], 0.3 * cmath.exp(-0.4j)
        b = [0.6j, 0.9, 0.8 + 0.1j]
        b[0] *= u * abs(z) / abs(np.prod(b) / np.prod(a))
        reach = max(abs(q * q / v) for v in a + b)
        self.assert_budget_edge(psi33, loop_psi33, (a, b, z), q, reach)

    def test_exhausted_large_budget_raises_at_once(self):
        """Budgets of 600,000 terms that a sum needs millions for."""
        big = QContext(0.45).with_budget(600_000)
        a, b, z = [1.3, 1.7, 1.5], [0.2, 0.3, 0.25], 0.3
        b_down = [b[0] * (1 - 1e-6) * z / abs(np.prod(b) / np.prod(a)), *b[1:]]
        calls = [
            lambda: psi33(a, b, 1 - 1e-6, big),          # upward side
            lambda: psi33(a, b_down, z, big),            # downward side
            lambda: phi(PhiSpec([0.3, 0.4], [0.6], 1 - 1e-6), big),
            lambda: w87(0.8 + 0.1j, 1.3, 1.1, 0.9, 1.2, 0.7, 1 - 1e-6, big),
        ]
        for call in calls:
            start = time.perf_counter()
            with pytest.raises(NonDecayingSumError):
                call()
            assert time.perf_counter() - start < 0.1

    @settings(max_examples=5, deadline=None)
    @given(q=st.floats(0.1, 0.8), nums=st.lists(TestSeriesOracle.params, min_size=1, max_size=3),
           dens=st.lists(TestSeriesOracle.params, max_size=2), z=st.floats(0.9, 0.999))
    def test_phi_slow_against_qhyper(self, q, nums, dens, z):
        nums = (nums * 3)[: len(dens) + 1]
        got = phi(PhiSpec(nums, dens, z), QContext(q, max_terms=10**6))
        with mpmath.workdps(20):
            exact = complex(mpmath.qhyper([mpmath.mpc(v) for v in nums],
                                          [mpmath.mpc(v) for v in dens],
                                          mpmath.mpf(q), mpmath.mpf(z), maxterms=10**6))
        assert abs(got - exact) <= 1e-13 * abs(exact)

    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(0.1, 0.8), nums=st.lists(TestSeriesOracle.params, min_size=1, max_size=3),
           dens=st.lists(TestSeriesOracle.params, max_size=2), z=st.floats(0.9, 0.999))
    def test_phi_slow_against_direct_sum(self, q, nums, dens, z):
        nums = (nums * 3)[: len(dens) + 1]
        with mpmath.workdps(40):
            qm, zm = mpmath.mpf(q), mpmath.mpc(z)
            nm = [mpmath.mpc(v) for v in nums]
            dm = [mpmath.mpc(v) for v in dens]

            def ratio(n):
                qn = qm**n
                return zm * mpmath.fprod(1 - v * qn for v in nm) / mpmath.fprod(
                    1 - v * qn for v in dm) / (1 - qm * qn)

            exact = complex(mp_closed_sum(1, ratio, zm, mp_head(q)))
        got = phi(PhiSpec(nums, dens, z), QContext(q, max_terms=10**6))
        assert abs(got - exact) <= 1e-13 * abs(exact)

    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.1, 0.8), a=TestSeriesOracle.params,
           rest=st.lists(TestSeriesOracle.params, min_size=5, max_size=5),
           z=st.floats(0.9, 0.999))
    def test_w87_slow_against_direct_sum(self, q, a, rest, z):
        exact = mp_w87(a, rest, z, q)
        got = w87(a, *rest, z, QContext(q, max_terms=10**6))
        assert abs(got - exact) <= 1e-13 * abs(exact)
