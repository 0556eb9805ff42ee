"""Noncommutative operator algebra, boundary polynomials, configurations,
local series and operator transforms."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import rand_complex
from qhyp.errors import PreconditionError, ResonanceError, UnsupportedCaseError
from qhyp.opalgebra import QDiffOperator, multiset_close, poly_roots
from qhyp.qcore import qpoch_fin
from qhyp.qseries import phi21
from qhyp.equations import HeineParams, build_e3, build_heine
from qhyp.sampling import draw_heine, draw_params3


def random_operator(rng, q, n_terms=6, span=2):
    coeffs = {}
    for _ in range(n_terms):
        key = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        coeffs[key] = rand_complex(rng)
    return QDiffOperator(q, coeffs)


class TestAlgebra:
    def test_commutation_rule(self, ctx):
        X = QDiffOperator.x_power(ctx.q)
        T = QDiffOperator.t_power(ctx.q)
        assert (T * X).coeffs == {(1, 1): complex(ctx.q)}

    def test_identity(self, ctx, rng):
        L = random_operator(rng, ctx.q)
        one = QDiffOperator.constant(ctx.q, 1.0)
        assert (L * one).ratio_to(L) == 1.0

    def test_shifted_factor_product(self, ctx):
        # (B - A T)(B - A q T) expands with the q-weighted cross terms
        q = complex(ctx.q)
        A, B = 0.8 + 0.1j, 1.3 - 0.2j
        one = QDiffOperator.constant(q, 1.0)
        T = QDiffOperator.t_power(q)
        prod = (B * one - A * T) * (B * one - A * q * T)
        expected = {(0, 0): B * B, (0, 1): -A * B * (1 + q), (0, 2): A * A * q}
        for key, val in expected.items():
            assert abs(prod.coeffs[key] - val) < 1e-14

    def test_associativity(self, ctx, rng):
        for _ in range(10):
            L, M, N = (random_operator(rng, ctx.q, 4) for _ in range(3))
            left = (L * M) * N
            right = L * (M * N)
            keys = set(left.coeffs) | set(right.coeffs)
            top = max(left.max_abs_coeff(), 1.0)
            assert all(
                abs(left.coeffs.get(k, 0) - right.coeffs.get(k, 0)) <= 1e-12 * top
                for k in keys
            )

    def test_apply_composes(self, ctx, rng):
        L = random_operator(rng, ctx.q, 4, span=1)
        M = random_operator(rng, ctx.q, 4, span=1)
        f = lambda t: 1.0 / (1 + 0.3 * t) + t**2
        x = 0.7 + 0.4j
        direct = (L * M).apply(f, x)
        nested = L.apply(lambda y: M.apply(f, y), x)
        assert abs(direct - nested) <= 1e-12 * max(1.0, abs(direct))

    def test_apply_monomials(self, ctx):
        q = complex(ctx.q)
        xT = QDiffOperator(q, {(1, 1): 1.0})
        f = lambda t: t**3
        x = 0.9 + 0.2j
        assert abs(xT.apply(f, x) - x * (q * x) ** 3) < 1e-14
        Tj = QDiffOperator.t_power(q, 2)
        lam = 0.73
        g = lambda t: t**lam
        assert abs(Tj.apply(g, x) - q ** (2 * lam) * x**lam) < 1e-12


def polar(modulus, phase):
    return st.builds(cmath.rect, modulus, phase)


PHASE = st.floats(-math.pi, math.pi)


def oracle_roots(coeffs):
    """The roots of sum_k coeffs[k] y^k at 40 digits."""
    with mpmath.workdps(40):
        roots = mpmath.polyroots([mpmath.mpc(c) for c in reversed(coeffs)],
                                 maxsteps=200, extraprec=100)
    return [complex(r) for r in roots]


def separation(roots):
    """Smallest distance between two roots, relative to max(1, |r|)."""
    return min((abs(a - b) / max(1.0, abs(a), abs(b))
                for i, a in enumerate(roots) for b in roots[i + 1:]), default=math.inf)


def assert_matches_oracle(coeffs):
    """Every computed root lies within 1e-12 max(1, |r|) of its own oracle
    root r (matched one to one)."""
    exact = oracle_roots(coeffs)
    got = poly_roots(coeffs)
    assert len(got) == len(exact)
    for g in got:
        j = min(range(len(exact)), key=lambda i: abs(exact[i] - g))
        r = exact.pop(j)
        assert abs(g - r) <= 1e-12 * max(1.0, abs(r)), (coeffs, g, r)


class TestRoots:
    def test_poly_roots_known_roots(self, rng):
        roots = [rand_complex(rng) for _ in range(4)]
        coeffs = np.array([1.0 + 0.0j])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
        got = poly_roots(list(coeffs))
        assert multiset_close(got, roots, 1e-10)

    @settings(max_examples=200, deadline=None)
    @given(roots=st.lists(polar(st.floats(0.25, 4.0), PHASE), min_size=1, max_size=4),
           lead=polar(st.floats(0.5, 2.0), PHASE))
    def test_well_separated_roots_match_mpmath(self, roots, lead):
        """Degree 1-4 from drawn roots at least 0.2 max(1, |r|) apart; the
        oracle solves the same double coefficients."""
        assume(separation(roots) >= 0.2)
        coeffs = np.array([lead])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([1.0, -r]))
        assert_matches_oracle(list(coeffs[::-1]))

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(polar(st.floats(0.5, 2.0), PHASE), min_size=2, max_size=5))
    def test_drawn_coefficients_match_mpmath(self, coeffs):
        """Degree 1-4 from drawn coefficients; draws whose exact roots lie
        closer than 0.1 max(1, |r|) (ill-conditioned in double) are skipped."""
        assume(separation(oracle_roots(coeffs)) >= 0.1)
        assert_matches_oracle(coeffs)

    def test_residual_gate_refuses_a_wrong_root(self, monkeypatch):
        coeffs = [2.0, -3.0, 1.0]  # roots 1 and 2
        assert sorted(r.real for r in poly_roots(coeffs)) == pytest.approx([1.0, 2.0])
        monkeypatch.setattr(np, "roots", lambda p: np.array([1.0 + 0j, 2.0 + 1e-9j]))
        with pytest.raises(ArithmeticError, match="residual"):
            poly_roots(coeffs)

    def test_scale_invariance(self, ctx, rng):
        p = draw_heine(rng, ctx)
        L = build_heine(p, ctx)
        scaled = (2.3 - 1.1j) * L
        for where in ("x0", "xinf", "T0", "Tinf"):
            assert multiset_close(
                scaled.char_roots(where, ctx), L.char_roots(where, ctx), 1e-10
            )

    def test_heine_boundary_roots(self, ctx, rng):
        p = draw_heine(rng, ctx)
        L = build_heine(p, ctx)
        q = complex(ctx.q)
        assert multiset_close(L.char_roots("x0", ctx), [1.0, q / p.c], 1e-8)
        assert multiset_close(L.char_roots("xinf", ctx), [1 / p.a, 1 / p.b], 1e-8)
        assert multiset_close(L.char_roots("T0", ctx), [1.0], 1e-8)
        assert multiset_close(L.char_roots("Tinf", ctx), [p.c / (p.a * p.b * q)], 1e-8)

    def test_e3_boundary_rows(self, ctx, rng):
        p = draw_params3(rng, ctx)
        L = build_e3(p, ctx)
        q = complex(ctx.q)
        assert multiset_close(L.char_roots("x0", ctx), [1.0, q], 1e-8)
        assert multiset_close(
            L.char_roots("T0", ctx), [p.a1 / p.B, p.a2 / p.B, p.a3 / p.B], 1e-8
        )
        assert multiset_close(
            L.char_roots("Tinf", ctx), [p.b1 / p.A, p.b2 / p.A, p.b3 / p.A], 1e-8
        )

    def test_row_outside_range_is_zero(self, ctx, rng):
        L = build_heine(draw_heine(rng, ctx), ctx)
        assert L.l_poly(5) == {}

    def test_heine_l0_factorization(self, ctx, rng):
        p = draw_heine(rng, ctx)
        L = build_heine(p, ctx)
        q = complex(ctx.q)
        for y in (0.3 + 0.1j, 1.1 - 0.4j):
            expected = -(1 - y) * (1 - p.c / q * y)
            assert abs(L.l_poly_eval(0, y) - expected) < 1e-12


class TestConfiguration:
    def test_product_relation(self, ctx, rng):
        for draw, build in ((draw_heine, build_heine), (draw_params3, build_e3)):
            cfg = build(draw(rng, ctx), ctx).configuration(ctx)
            assert cfg.product_relation_deviation() < 1e-10

    def test_nonlog_detection_on_e3(self, ctx, rng):
        p = draw_params3(rng, ctx)
        L = build_e3(p, ctx)
        assert L.is_nonlog(1.0, "x0", ctx)
        assert L.is_nonlog(p.B / p.A, "xinf", ctx)

    def test_nonlog_precondition(self, ctx, rng):
        p = draw_heine(rng, ctx)
        L = build_heine(p, ctx)
        with pytest.raises(PreconditionError):
            L.is_nonlog(1.0, "x0", ctx)  # roots {1, q/c} are not a q-pair

    def test_gap_two_unsupported(self, ctx):
        # roots {1, q^2} at x = 0: one-step test refuses the case
        q = complex(ctx.q)
        L0 = QDiffOperator(q, {(0, 0): q**2, (0, 1): -(1 + q**2), (0, 2): 1.0,
                               (1, 0): 1.0, (1, 1): 0.3})
        with pytest.raises(UnsupportedCaseError):
            L0.is_nonlog(1.0, "x0", ctx)


class TestFrobenius:
    def test_heine_coefficients(self, ctx, rng):
        p = draw_heine(rng, ctx)
        L = build_heine(p, ctx)
        q = complex(ctx.q)
        c = L.frobenius_series(1.0, 12, ctx)
        for n in range(13):
            expected = (
                qpoch_fin(p.a, n, ctx)
                * qpoch_fin(p.b, n, ctx)
                / (qpoch_fin(p.c, n, ctx) * qpoch_fin(q, n, ctx))
            )
            assert abs(c[n] - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_leading_coefficient(self, ctx, rng):
        L = build_heine(draw_heine(rng, ctx), ctx)
        assert L.frobenius_series(1.0, 3, ctx)[0] == 1.0

    def test_resonance_error(self, ctx):
        # roots {a, aq} with L1(a) != 0: logarithmic case refused at n = 1
        q = complex(ctx.q)
        a = 0.7
        L = QDiffOperator(q, {
            (0, 0): a * a * q, (0, 1): -a * (1 + q), (0, 2): 1.0,
            (1, 0): 1.0, (1, 1): 0.5, (2, 0): 0.3, (2, 1): 1.1,
        })
        with pytest.raises(ResonanceError) as err:
            L.frobenius_series(a, 4, ctx)
        assert err.value.n == 1

    def test_truncation_residual_order(self, ctx, rng):
        p = draw_params3(rng, ctx)
        L = build_e3(p, ctx)
        n_terms = 8
        c = L.frobenius_series(1.0, n_terms, ctx)
        f = lambda x: sum(ci * x**k for k, ci in enumerate(c))
        # residual should scale like x^(n_terms + 1 + M') with M' = 0
        r1 = abs(L.apply(f, 0.04))
        r2 = abs(L.apply(f, 0.02))
        order = np.log2(r1 / r2)
        assert abs(order - (n_terms + 1)) < 0.35


class TestTransforms:
    def test_gauge_power_roundtrip(self, ctx, rng):
        L = build_heine(draw_heine(rng, ctx), ctx)
        assert abs(L.gauge_power(0.41).gauge_power(-0.41).ratio_to(L) - 1) < 1e-12

    def test_gauge_power_identity(self, ctx, rng):
        L = build_heine(draw_heine(rng, ctx), ctx)
        assert L.gauge_power(0.0).coeffs == L.coeffs

    def test_invert_twice(self, ctx, rng):
        L = random_operator(rng, ctx.q)
        assert abs(L.invert_variable().invert_variable().ratio_to(L) - 1) < 1e-14

    def test_invert_identity(self, ctx):
        one = QDiffOperator.constant(ctx.q, 1.0)
        assert one.invert_variable().coeffs == one.coeffs

    def test_invert_swaps_boundaries(self, ctx, rng):
        p = draw_heine(rng, ctx)
        L = build_heine(p, ctx)
        inv = L.invert_variable()
        cfg_i, cfg_o = inv.configuration(ctx), L.configuration(ctx)
        recip = lambda roots: [1 / r for r in roots]
        assert multiset_close(cfg_i.roots_x0, recip(cfg_o.roots_xinf), 1e-8)
        assert multiset_close(cfg_i.roots_xinf, recip(cfg_o.roots_x0), 1e-8)
        assert multiset_close(cfg_i.roots_T0, recip(cfg_o.roots_Tinf), 1e-8)
        assert multiset_close(cfg_i.roots_Tinf, recip(cfg_o.roots_T0), 1e-8)

    def test_records_roundtrip(self, ctx, rng):
        L = random_operator(rng, ctx.q)
        back = QDiffOperator.from_records(ctx.q, L.to_records())
        assert back.ratio_to(L) == 1.0


class TestResidualOnSeries:
    def test_heine_annihilates_its_series(self, ctx, rng):
        p = draw_heine(rng, ctx)
        L = build_heine(p, ctx)
        f = lambda z: phi21(p.a, p.b, p.c, z, ctx)
        for x in (0.1, 0.2):
            terms = L.apply_terms(f, x)
            rel = abs(sum(terms)) / sum(abs(t) for t in terms)
            assert rel < 1e-12

    def test_perturbed_parameter_detected(self, ctx, rng):
        """A 1% parameter error lifts the residual far above the pass
        tolerance (absolute size depends on the draw's conditioning)."""
        p = draw_heine(rng, ctx)
        L = build_heine(HeineParams(p.a, p.b, p.c * 1.01), ctx)
        L0 = build_heine(p, ctx)
        f = lambda z: phi21(p.a, p.b, p.c, z, ctx)
        worst = worst0 = 0.0
        for x in (0.2, 0.35, 0.5, 0.65):
            terms = L.apply_terms(f, x)
            worst = max(worst, abs(sum(terms)) / sum(abs(t) for t in terms))
            terms0 = L0.apply_terms(f, x)
            worst0 = max(worst0, abs(sum(terms0)) / sum(abs(t) for t in terms0))
        assert worst > 1e-4
        assert worst > 1e8 * worst0
