"""Foundational q-arithmetic: products, theta, Jackson sums."""

import cmath
import math
import time
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rand_complex
from qhyp.errors import (
    BudgetExceededError,
    DomainError,
    NonDecayingSumError,
    PoleError,
)
from qhyp.qcore import (
    QContext,
    _one,
    _ratio_sum,
    _Tail,
    jackson_0_to_tau,
    jackson_bilateral,
    qpoch_fin,
    qpoch_inf,
    qpoch_ratio,
    theta,
)

# (q; q)_inf at q = 1/2, computed with a 220-digit Decimal product of 714
# factors (truncation tail < 1e-215); first 30 digits frozen here.
QQ_INF_HALF = 0.288788095086602421278899721929


class TestContext:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QContext(1.2)
        with pytest.raises(ValueError):
            QContext(0.0)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QContext(0.5, tail_tol=1e-8, eq_tol=1e-10)
        with pytest.raises(ValueError):
            QContext(0.5, eq_tol=1e-3)


class TestQpochInf:
    def test_zero_argument(self, ctx):
        assert qpoch_inf(0.0, ctx) == 1.0

    def test_peel_one_factor(self, ctx, rng):
        for _ in range(20):
            a = rand_complex(rng)
            lhs = qpoch_inf(a, ctx)
            rhs = (1 - a) * qpoch_inf(a * ctx.q, ctx)
            assert abs(lhs - rhs) <= ctx.eq_tol * abs(rhs)

    def test_high_precision_oracle(self):
        ctx = QContext(0.5)
        # independent live recomputation of the frozen constant
        getcontext().prec = 220
        q = Decimal("0.5")
        prod, w = Decimal(1), q
        while w > Decimal(10) ** -215:
            prod *= 1 - w
            w *= q
        assert abs(float(prod) - QQ_INF_HALF) < 1e-15
        assert abs(qpoch_inf(0.5, ctx) - QQ_INF_HALF) < 1e-12

    def test_budget_exceeded(self):
        ctx = QContext(0.999, max_terms=64)
        with pytest.raises(BudgetExceededError):
            qpoch_inf(1.5, ctx)


class TestQpochFin:
    def test_empty_product(self, ctx, rng):
        assert qpoch_fin(rand_complex(rng), 0, ctx) == 1.0

    def test_direct_product(self):
        ctx = QContext(0.5)
        assert abs(qpoch_fin(0.5, 2, ctx) - 0.375) < 1e-15

    def test_negative_index_inverse(self, ctx, rng):
        for m in (1, 2, 3):
            a = rand_complex(rng)
            prod = qpoch_fin(a, -m, ctx) * qpoch_fin(a * ctx.q ** (-m), m, ctx)
            assert abs(prod - 1) < 1e-12

    def test_index_addition(self, ctx, rng):
        for _ in range(10):
            a = rand_complex(rng)
            m = int(rng.integers(-3, 4))
            n = int(rng.integers(-3, 4))
            lhs = qpoch_fin(a, m + n, ctx)
            rhs = qpoch_fin(a, m, ctx) * qpoch_fin(a * ctx.q**m, n, ctx)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_negative_index_pole(self):
        ctx = QContext(0.5)
        with pytest.raises(PoleError):
            qpoch_fin(ctx.q**2, -3, ctx)


class TestTheta:
    def test_zero_rejected(self, ctx):
        with pytest.raises(DomainError):
            theta(0.0, ctx)

    def test_vanishes_at_q(self):
        ctx = QContext(0.5)
        assert theta(ctx.q, ctx) == 0.0

    def test_quasi_periodicity(self, ctx, rng):
        for _ in range(100):
            t = rand_complex(rng, 0.3, 2.0)
            lhs = theta(ctx.q * t, ctx) + theta(t, ctx) / t
            assert abs(lhs) <= 1e-12 * max(1.0, abs(theta(t, ctx)))

    def test_theta_ratio_pseudo_constant(self, ctx, rng):
        alpha, beta = 0.37 + 0.11j, -0.52 + 0.2j
        qa, qb = cmath.exp(alpha * cmath.log(ctx.q)), cmath.exp(beta * cmath.log(ctx.q))

        def C(t):
            return t ** (alpha - beta) * theta(qa * t, ctx) / theta(qb * t, ctx)

        for _ in range(10):
            t = rng.uniform(0.2, 1.5)
            assert abs(C(ctx.q * t) - C(t)) <= 1e-10 * abs(C(t))


class TestJackson:
    def test_zero_function(self, ctx):
        assert jackson_0_to_tau(lambda t: 0.0, 1.0, "dqt", ctx) == 0.0

    def test_geometric(self):
        ctx = QContext(0.5)
        value = jackson_0_to_tau(lambda t: 1.0, 1.0, "dqt", ctx)
        assert abs(value - 1.0) < 1e-14

    def test_linear_in_integrand(self, ctx, rng):
        f = lambda t: 1.0 / (1 - 0.3 * t)
        g = lambda t: t**2
        a, b = rand_complex(rng), rand_complex(rng)
        tau = 0.8
        combo = jackson_0_to_tau(lambda t: a * f(t) + b * g(t), tau, "dqt", ctx)
        parts = a * jackson_0_to_tau(f, tau, "dqt", ctx) + b * jackson_0_to_tau(
            g, tau, "dqt", ctx
        )
        assert abs(combo - parts) <= 1e-13 * max(1.0, abs(parts))

    def test_non_decaying(self, ctx):
        with pytest.raises(NonDecayingSumError):
            jackson_0_to_tau(lambda t: 1.0 / t, 1.0, "dqt_over_t", ctx)

    def test_degree2_series_representation(self, ctx, rng):
        # int_0^{q/a2} t^alpha prod(...)dq t/t against its 3phi2 form
        from qhyp.qseries import PhiSpec, phi
        from qhyp.sampling import draw_params2

        p = draw_params2(rng, ctx)
        q = complex(ctx.q)
        x = 0.2 * min(abs(p.a1), abs(p.a2)) / (abs(q) * abs(p.B))
        alpha = p.alpha

        def integrand(t):
            return (
                cmath.exp(alpha * cmath.log(t))
                * qpoch_ratio(
                    [p.A * x * t, p.a1 * t, p.a2 * t],
                    [p.B * x * t, p.b1 * t, p.b2 * t],
                    ctx,
                )
            )

        lhs = jackson_0_to_tau(integrand, q / p.a2, "dqt_over_t", ctx)
        qa = cmath.exp(alpha * cmath.log(q))
        ser = qpoch_ratio([q * p.A * x / p.a2], [q * p.B * x / p.a2], ctx) * phi(
            PhiSpec(
                [q * p.b1 / p.a2, q * p.b2 / p.a2, q * p.B * x / p.a2],
                [q * p.a1 / p.a2, q * p.A * x / p.a2],
                qa,
            ),
            ctx,
        )
        const = (
            (1 - q)
            * qpoch_ratio([q, q * p.a1 / p.a2], [q * p.b1 / p.a2, q * p.b2 / p.a2], ctx)
            * cmath.exp(alpha * cmath.log(q / p.a2))
        )
        assert abs(lhs - const * ser) <= 1e-10 * abs(lhs)


class TestJacksonBilateral:
    def test_zero_function(self, ctx):
        assert jackson_bilateral(lambda t: 0.0, 1.0, ctx) == 0.0

    def test_reduces_to_onesided_at_vanishing_endpoint(self, ctx, rng):
        a1 = rand_complex(rng)

        def poch_zero_aware(z):
            # (z)_inf with an exact-zero detector, so the grid points where a
            # factor vanishes identically return 0 instead of rounding noise
            w, res = complex(z), 1.0 + 0.0j
            for _ in range(2 * ctx.max_terms):
                if abs(w) < ctx.tail_tol:
                    return res
                if abs(1 - w) < 1e-10 * (1 + abs(w)):
                    return 0.0 + 0.0j
                res *= 1 - w
                w *= ctx.q
            raise AssertionError("no convergence")

        f = lambda t: poch_zero_aware(a1 * t) * t / (1 + 0.1 * t)
        tau = ctx.q / a1
        two_sided = jackson_bilateral(f, tau, ctx)
        one_sided = jackson_0_to_tau(f, tau, "dqt_over_t", ctx)
        assert abs(two_sided - one_sided) <= 1e-12 * max(1.0, abs(one_sided))

    def test_non_decaying(self, ctx):
        with pytest.raises(NonDecayingSumError):
            jackson_bilateral(lambda t: 1.0, 1.0, ctx)


class TestTailRule:
    def test_stops_at_third_consecutive_small_term(self, ctx):
        tail = _Tail(ctx)
        mags = [1.0, 5.0, 1e-17, 1e-17, 2.0, 1e-16, 1e-18, 0.0, 1.0]
        assert [tail.done(m) for m in mags[:8]] == [False] * 7 + [True]

    def test_floor_ends_a_sum_of_tiny_terms_after_three(self, ctx):
        """The running maximum is floored at 1, so terms that all lie below
        tail_tol (1e-16) end a sum after three of them, whatever its size:
        here 3e-20 of a true 1e-17."""
        tail = _Tail(ctx)
        assert [tail.done(1e-20 * 0.999**n) for n in range(3)] == [False, False, True]
        got = _one(_ratio_sum([1e-20], lambda rows, ns: np.full((1, len(ns)), 0.999 + 0j), ctx,
                              [0.999], [0.0], "tiny"))
        assert got == pytest.approx(1e-20 * (1 + 0.999 + 0.999**2), rel=1e-15)

    @given(
        mags=st.lists(
            st.one_of(st.integers(-30, 6).map(lambda e: 10.0**e),
                      st.sampled_from([0.0, np.inf, np.nan])),
            min_size=1, max_size=80,
        ),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=20),
    )
    def test_scalar_and_chunked_stop_at_the_same_term(self, mags, sizes):
        ctx = QContext(0.5, tail_tol=1e-12)
        scalar = _Tail(ctx)
        expected = next((i for i, m in enumerate(mags) if scalar.done(m)), None)
        chunked = _Tail(ctx)
        bounds = np.cumsum(sizes)
        got, start = None, 0
        for end in [int(b) for b in bounds if b < len(mags)] + [len(mags)]:
            hit = chunked.first_stop(np.array(mags[start:end]))
            if hit is not None:
                got = start + hit
                break
            start = end
        assert got == expected


class TestBatchedSeriesKernel:
    """The series kernel sums many rows in one batch.  Here the rows cross
    chunk boundaries and leave the batch at different chunks: terminating
    rows whose first chunk is read off a fast rate while their ratios decay
    slowly, beside rows that close their tail in closed form."""

    row = st.tuples(st.floats(0.3, 0.95), st.floats(-math.pi, math.pi),
                    st.one_of(st.none(), st.integers(0, 700)))

    @staticmethod
    def loop(t0, ratio, last, ctx):
        """The row summed term by term, stopped by the tail rule or at ``last``."""
        total, t, tail = 0.0 + 0.0j, complex(t0), _Tail(ctx)
        for n in range(ctx.max_terms):
            total += t
            if n == last or tail.done(abs(t)):
                return total
            t *= complex(ratio(np.array([n]))[0])
        raise NonDecayingSumError("budget")

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(row, min_size=1, max_size=6))
    def test_rows_are_the_same_alone_and_match_the_loop(self, rows):
        ctx = QContext(0.5, max_terms=4096)
        zs = [u * cmath.exp(1j * phase) for u, phase, _ in rows]
        lasts = [last for _, _, last in rows]

        def ratios(r, ns):  # z (1 + 0.3 q^n): the limit is z, the reach 0.3 |z|
            return zs[r] * (1.0 + 0.3 * 0.5**ns)

        def step(live, ns):
            return np.array([ratios(r, ns) for r in live])

        # a terminating row's first chunk is read off a fast rate
        rates = [0.1 if last is not None else z for z, last in zip(zs, lasts)]
        reaches = [0.3 * abs(z) for z in zs]
        t0s = [1.0 + 0.5j] * len(rows)
        batch = _ratio_sum(t0s, step, ctx, rates, reaches, "row", last=lasts)
        for r, got in enumerate(batch):
            alone = _ratio_sum([t0s[r]], lambda live, ns, r=r: ratios(r, ns)[None], ctx,
                               [rates[r]], [reaches[r]], "row", last=[lasts[r]])[0]
            assert got == alone
            want = self.loop(t0s[r], lambda ns, r=r: ratios(r, ns), lasts[r], ctx)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)) / (1 - abs(zs[r]))

    def test_run_of_small_terms_across_a_chunk_boundary(self):
        """Terms 0-29 are 1, terms 30-32 are 1e-20 and the terms after are 1
        again.  The first chunk of this terminating row holds 32 terms, so
        the rule's third small term in a row is the first of the second
        chunk: the row stops there, as the loop does, alone or in a batch."""
        ctx = QContext(0.5)
        jumps = {29: 1e-20, 32: 1e20}

        def ratios(ns):
            return np.array([jumps.get(int(n), 1.0) for n in ns], dtype=complex)

        want = self.loop(1.0, ratios, 100, ctx)
        assert want == 30.0
        for rows in (1, 3):
            got = _ratio_sum([1.0] * rows, lambda live, ns: np.array([ratios(ns)] * len(live)),
                             ctx, [0.1] * rows, [0.0] * rows, "row", last=[100] * rows)
            assert got == [want] * rows


def scalar_qpoch_ratio(nums, dens, ctx):
    """Reference for qpoch_ratio, factor by factor: column k multiplies the
    numerator factors 1 - n_i q^k, then divides by the denominator factors,
    each while |arg q^k| >= tail_tol."""
    nums = [complex(v) for v in nums]
    dens = [complex(v) for v in dens]
    q = complex(ctx.q)
    result = 1.0 + 0.0j
    wn = nums[:]
    wd = dens[:]
    for _ in range(ctx.max_terms):
        if all(abs(w) < ctx.tail_tol for w in wn) and all(
            abs(w) < ctx.tail_tol for w in wd
        ):
            return result
        for i, w in enumerate(wn):
            if abs(w) >= ctx.tail_tol:
                result *= 1.0 - w
                wn[i] = w * q
        for i, w in enumerate(wd):
            if abs(w) >= ctx.tail_tol:
                factor = 1.0 - w
                if abs(factor) <= 1e-12 * (1.0 + abs(w)):
                    raise PoleError(f"denominator q-Pochhammer factor vanishes: arg={w}")
                result /= factor
                wd[i] = w * q
    raise BudgetExceededError("q-Pochhammer ratio did not converge within budget")


def scalar_scan(args, ctx):
    """(columns the scalar loop runs, condition number kappa of the product).

    kappa sums (k + 1) |w| / |1 - w| over the factors 1 - w, w = a q^k: the
    loops round q^k differently (k successive products against binary
    powers), and kappa bounds how much the product amplifies a relative
    error of order k eps in q^k.
    """
    need, kappa = 0, 0.0
    for a in args:
        w, k = complex(a), 0
        while abs(w) >= ctx.tail_tol and k <= 4096:
            kappa += (k + 1) * abs(w) / max(abs(1 - w), 1e-300)
            w, k = w * ctx.q, k + 1
        need = max(need, k)
    return need, kappa


@st.composite
def ratio_cases(draw):
    """(q, nums, dens, max_terms): zeros, NaN and infinities, magnitudes up to
    1e300, denominators within 1e-13 of q^-k, budgets around the need."""
    q = draw(st.floats(0.2, 0.95)) * cmath.exp(1j * draw(st.sampled_from([0.0, 0.3, -2.0])))
    phase = st.floats(-math.pi, math.pi).map(lambda t: cmath.exp(1j * t))
    finite = st.builds(lambda e, u: 10.0**e * u, st.floats(-20, 300), phase)
    special = st.sampled_from([0j, complex(math.nan, 0), complex(math.inf, 0),
                               complex(-math.inf, 1), complex(0, math.inf)])
    near_pole = st.builds(lambda k, d: q**-k * (1 + d), st.integers(0, 12),
                          st.builds(lambda m, u: m * u, st.floats(0, 1e-13), phase))
    # a numerator near q^-k is a near-zero of the ratio, known only to rounding
    nums = draw(st.lists(st.one_of(finite, finite, special), max_size=4))
    dens = draw(st.lists(st.one_of(finite, finite, special, near_pole), max_size=4))
    need, _ = scalar_scan(nums + dens, QContext(q))
    max_terms = draw(st.one_of(st.just(512), st.integers(-2, 2).map(lambda d: max(1, need + d))))
    return q, nums, dens, max_terms


def outcome(fn, nums, dens, ctx):
    try:
        return fn(nums, dens, ctx)
    except (PoleError, BudgetExceededError) as exc:
        return type(exc)


class TestQpochRatio:
    @settings(max_examples=300, deadline=None)
    @given(case=ratio_cases())
    # a pole at k = 2 lies before the budget that the large numerator overruns
    @example(case=(0.5, [1e30], [4.0], 3)).via("pole before budget")
    @example(case=(0.5, [1e30], [4.0], 2)).via("budget before pole")
    def test_matches_scalar_loop(self, case):
        q, nums, dens, max_terms = case
        ctx = QContext(q, max_terms=max_terms)
        # the draws overflow on purpose; both versions must then agree
        with np.errstate(all="ignore"):
            got = outcome(qpoch_ratio, nums, dens, ctx)
            ref = outcome(scalar_qpoch_ratio, nums, dens, ctx)
        if isinstance(ref, type):
            assert got is ref
            return
        assert not isinstance(got, type)
        # kappa eps bounds the rounding of each version; ill-conditioned draws
        # (huge arguments, factors near 0) still check the exception class above
        if scalar_scan(nums + dens, ctx)[1] <= 200:
            assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_matches_direct_quotient(self, ctx, rng):
        nums = [rand_complex(rng) for _ in range(3)]
        dens = [rand_complex(rng) for _ in range(3)]
        lhs = qpoch_ratio(nums, dens, ctx)
        rhs = np.prod([qpoch_inf(v, ctx) for v in nums]) / np.prod(
            [qpoch_inf(v, ctx) for v in dens]
        )
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_stable_for_large_arguments(self, ctx):
        big = 1e6
        val = qpoch_ratio([1.3 * big], [0.9 * big], ctx)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_denominator_pole(self):
        ctx = QContext(0.5)
        with pytest.raises(PoleError):
            qpoch_ratio([0.3], [ctx.q**-2], ctx)

    def test_nan_argument_exhausts_the_budget_at_once(self):
        """A NaN argument never falls below tail_tol, so no budget suffices;
        the kernel builds only the other arguments' columns before it says
        so, not every column up to max_terms."""
        ctx = QContext(0.5, max_terms=10**8)
        nan = complex(math.nan, 0)
        start = time.perf_counter()
        for nums, dens in (([nan], []), ([0.3], [nan]), ([nan, 2.0], [0.7 + 0.2j])):
            with pytest.raises(BudgetExceededError):
                qpoch_ratio(nums, dens, ctx)
        with pytest.raises(BudgetExceededError):
            qpoch_inf(nan, ctx)
        assert time.perf_counter() - start < 1.0
        # a pole of another argument still comes before the budget error
        with pytest.raises(PoleError):
            qpoch_ratio([nan], [ctx.q**-3], ctx)


def mp_qpoch(a, q):
    return mpmath.qp(mpmath.mpc(a), mpmath.mpc(q), maxterms=10**5)


class TestQpochOracle:
    """qpoch_ratio and qpoch_inf against mpmath at 40 digits.  Arguments keep
    |1 - a q^k| away from 0, where any double-precision product loses digits."""

    args = st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(1e-3, 10.0),
                     st.one_of(st.floats(0.3, math.pi), st.floats(-math.pi, -0.3)))

    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(0.1, 0.8), nums=st.lists(args, max_size=4), dens=st.lists(args, max_size=4))
    def test_ratio(self, q, nums, dens):
        ctx = QContext(q)
        with mpmath.workdps(40):
            exact = mpmath.fprod(mp_qpoch(a, q) for a in nums) / mpmath.fprod(
                mp_qpoch(d, q) for d in dens)
            got = qpoch_ratio(nums, dens, ctx)
            assert abs(got - exact) <= 1e-13 * abs(exact)

    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(0.1, 0.8), a=args)
    def test_inf(self, q, a):
        with mpmath.workdps(40):
            exact = mp_qpoch(a, q)
            assert abs(qpoch_inf(a, QContext(q)) - exact) <= 1e-13 * abs(exact)

    def test_many_column_chunks(self):
        # at q = 0.99 an argument of modulus 0.5 needs ~3,600 factors
        ctx = QContext(0.99, max_terms=8192)
        nums, dens = [0.5 + 0.2j, -0.3j], [0.7 - 0.1j]
        with mpmath.workdps(40):
            first, second, third = (mp_qpoch(a, 0.99) for a in nums + dens)
            exact = first * second / third
            assert abs(qpoch_ratio(nums, dens, ctx) - exact) <= 1e-13 * abs(exact)
            assert abs(qpoch_inf(nums[0], ctx) - first) <= 1e-13 * abs(first)
