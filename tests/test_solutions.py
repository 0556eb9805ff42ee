"""Solution families: integral and series evaluators, operator residuals,
single-endpoint identities, cocycle structure and Casoratians."""

import itertools

import numpy as np
import pytest

from qhyp.equations import Params3, build_e2, build_e3, build_h2, build_heine, qpow
from qhyp.errors import DomainError, UnsupportedCaseError
from qhyp.qcore import QContext, qpoch_ratio
from qhyp.solutions import (
    _grid_sum,
    Endpoint,
    all_labels,
    casoratian,
    check_intcalcu,
    cocycle_check,
    e2_series,
    e2_series_scale,
    e3_series,
    e3_to_e2_series_deviation,
    heine_solution,
    incidence_matrix,
    incidence_rank,
    integral_scale,
    phi2,
    phi3,
    phi3_tilde,
    residual,
    sample_points,
    solution_handle,
)
from qhyp.sampling import (
    default_sigma,
    draw_heine_for,
    draw_params2,
    draw_params2_terminating,
    draw_params3,
)

TAUS = {1: Endpoint.q_over_a(1), 2: Endpoint.q_over_a(2),
        3: Endpoint.q_over_a(3), 4: Endpoint.q_over_Ax()}


class TestIntegralSolutions:
    def test_equal_endpoints_vanish(self, ctx, rng):
        p = draw_params3(rng, ctx)
        assert phi3(p, TAUS[2], TAUS[2], 0.4, ctx) == 0.0

    def test_degree3_residuals(self, rng):
        for _ in range(2):
            ctx = QContext(rng.uniform(0.35, 0.55))
            p = draw_params3(rng, ctx)
            for label in all_labels("thmint3"):
                h = solution_handle(label, p, ctx)
                xs = sample_points(h, 5, ctx)
                assert residual(h.equation, h, xs, ctx) < 1e-8, label

    def test_degree2_residuals(self, rng):
        for _ in range(2):
            ctx = QContext(rng.uniform(0.35, 0.55))
            p = draw_params2(rng, ctx)
            sigma = default_sigma(p)
            for label in all_labels("thmint2"):
                h = solution_handle(label, p, ctx, sigma=sigma)
                xs = sample_points(h, 5, ctx)
                assert residual(h.equation, h, xs, ctx) < 1e-8, label

    def test_single_endpoint_operator_images(self, ctx, rng):
        p = draw_params3(rng, ctx)
        sc = integral_scale(p, ctx)
        xs = np.geomspace(0.05 * sc, 0.5 * sc, 3)
        for ep in (TAUS[1], TAUS[2], TAUS[3], TAUS[4]):
            assert max(check_intcalcu(p, ep, x, ctx) for x in xs) < 1e-8
        for ep in (Endpoint.b(1), Endpoint.b(2), Endpoint.b(3), Endpoint.Bx()):
            assert max(check_intcalcu(p, ep, x, ctx) for x in xs) < 1e-8

    def test_rational_special_case(self, ctx):
        """With coinciding parameter lists the integrals collapse to rational
        functions; matching them validates the whole Jackson-sum pipeline."""
        q = complex(ctx.q)
        B = 0.9 + 0.2j
        a = (1.1 + 0.3j, 0.8 - 0.4j, 1.3 + 0.1j)
        p = Params3(*a, *a, q**2 * B, B)
        x = 0.7
        for i, j in itertools.combinations(range(1, 4), 2):
            got = phi3(p, TAUS[i], TAUS[j], x, ctx)
            ti = TAUS[i].resolve(p, x, ctx)
            tj = TAUS[j].resolve(p, x, ctx)
            closed = (tj - ti) / ((1 - B * x * ti) * (1 - B * x * tj))
            assert abs(got - closed) <= 1e-10 * abs(closed)
        for i, j in itertools.combinations(range(1, 4), 2):
            got = phi3_tilde(p, Endpoint.b(i), Endpoint.b(j), x, ctx)
            si, sj = a[i - 1], a[j - 1]
            closed = (q * B) ** 2 * (sj - si) / ((q * B * x - si) * (q * B * x - sj))
            assert abs(got - closed) <= 1e-10 * abs(closed)

    def test_appell_solution_correspondence(self, ctx, rng):
        """phi2 between 0 and the moving endpoint reproduces the q-Appell
        double-series solution."""
        import cmath

        from qhyp.qseries import appell_phi1
        from qhyp.qcore import qpoch_ratio

        p = draw_params2(rng, ctx)
        q = complex(ctx.q)
        qa = qpow(q, p.alpha)
        x = 1.4 * max(abs(q * p.b1 / p.A), abs(q * p.b2 / p.A)) / 0.45
        lhs = appell_phi1(
            qa,
            qpow(q, p.alpha + 1) * p.b2 * p.B / (p.a2 * p.A),
            qpow(q, p.alpha + 1) * p.b1 * p.B / (p.a1 * p.A),
            qpow(q, p.alpha + 1) * p.B / p.A,
            q * p.b1 / (p.A * x),
            q * p.b2 / (p.A * x),
            ctx,
        )
        const = (
            qpoch_ratio([qa, q * p.B / p.A], [q, qpow(q, p.alpha + 1) * p.B / p.A], ctx)
            / (1 - q)
            * cmath.exp(p.alpha * cmath.log(p.A / q))
        )
        rhs = const * cmath.exp(p.alpha * cmath.log(complex(x))) * phi2(
            p, Endpoint.zero(), Endpoint.q_over_Ax(), x, ctx
        )
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


class TestSeriesSolutions:
    def test_degree3_series_residuals_and_balance(self, rng):
        from qhyp.qseries import is_balanced_w87
        from qhyp.solutions import _e3_gr_data

        for _ in range(2):
            ctx = QContext(rng.uniform(0.35, 0.55))
            p = draw_params3(rng, ctx, series_room=True)
            op = build_e3(p, ctx)
            for which in range(1, 7):
                h = solution_handle(f"thmser3.{which}", p, ctx)
                xs = sample_points(h, 5, ctx)
                assert residual(op, h, xs, ctx) < 1e-8, which
                a, b, cd, efg, hh = _e3_gr_data(p, which, xs[0], ctx)
                q = complex(ctx.q)
                assert is_balanced_w87(
                    b * cd[0] * cd[1] / (hh * q), b * efg[0], b * efg[1],
                    b * efg[2], cd[0] / hh, cd[1] / hh, a * hh, ctx
                ), which

    def test_degree3_series_match_integrals(self, ctx, rng):
        """The series values equal their endpoint-pair integrals exactly
        (the normalization keeps the full correspondence constants)."""
        p = draw_params3(rng, ctx, series_room=True)
        pair = {1: (1, 2), 2: (1, 2), 3: (1, 4), 4: (1, 4), 5: (4, 1), 6: (4, 1)}
        for which in (1, 2, 3, 5):
            h = solution_handle(f"thmser3.{which}", p, ctx)
            x = sample_points(h, 3, ctx)[1]
            i, j = pair[which]
            iv = phi3(p, TAUS[i], TAUS[j], x, ctx)
            sv = e3_series(p, which, x, ctx)
            assert abs(sv - iv) <= 1e-8 * abs(iv), which

    def test_degree3_solutions_1_2_agree(self, ctx, rng):
        p = draw_params3(rng, ctx, series_room=True)
        h = solution_handle("thmser3.1", p, ctx)
        for x in sample_points(h, 4, ctx):
            v1 = e3_series(p, 1, x, ctx)
            v2 = e3_series(p, 2, x, ctx)
            assert abs(v1 - v2) <= 1e-8 * abs(v1)

    def test_degree2_series_residuals(self, rng):
        for _ in range(2):
            ctx = QContext(rng.uniform(0.35, 0.55))
            p = draw_params2(rng, ctx, series_room=True)
            op = build_e2(p, ctx)
            for which in range(1, 7):
                h = solution_handle(f"thmser2.{which}", p, ctx)
                xs = sample_points(h, 5, ctx)
                assert residual(op, h, xs, ctx) < 1e-8, which

    def test_degree2_series_out_of_domain(self, ctx, rng):
        p = draw_params2(rng, ctx, series_room=True)
        hi = abs(p.a2) / (abs(ctx.q) * abs(p.B))
        with pytest.raises(Exception):
            e2_series(p, 1, hi * 1.5, ctx)

    def test_terminating_series_limit(self, ctx, rng):
        """Degree-three series 1 degenerates to the degree-two limit target
        monotonically along the q-lattice in the terminating regime."""
        p2 = draw_params2_terminating(rng, ctx)
        sc = e2_series_scale(p2, ctx)
        x1, x2 = 0.2 * sc, 0.4 * sc
        q = abs(complex(ctx.q))
        devs = [e3_to_e2_series_deviation(p2, x1, x2, 1.1 * q**-k, ctx)
                for k in (12, 16, 20)]
        assert devs[0] > devs[1] > devs[2]

    def test_gauge_image_solves_h2(self, ctx, rng):
        """x^lam0 times a degree-two series solves the H-form operator under
        the parameter dictionary."""
        import cmath

        from qhyp.equations import params2_to_h2

        p = draw_params2(rng, ctx, series_room=True)
        lam0 = 0.23 - 0.04j
        hp, mu = params2_to_h2(p, lam0, ctx)
        oph = build_h2(hp, ctx)

        def g(x):
            return cmath.exp(lam0 * cmath.log(complex(x))) * e2_series(p, 6, x, ctx)

        for x in (0.2, 0.4):
            terms = oph.apply_terms(g, x)
            rel = abs(sum(terms)) / sum(abs(t) for t in terms)
            assert rel < 1e-8


class TestHeineCatalogue:
    @pytest.mark.parametrize("which", list(range(1, 33)))
    def test_residuals(self, which, rng):
        ctx = QContext(0.45)
        p = draw_heine_for(rng, ctx, which)
        op = build_heine(p, ctx)
        h = solution_handle(f"heine.{which}", p, ctx)
        xs = sample_points(h, 5, ctx)
        assert residual(op, h, xs, ctx) < 1e-8

    def test_first_is_plain_series(self, ctx, rng):
        from qhyp.qseries import phi21

        p = draw_heine_for(rng, ctx, 1)
        z = 0.3
        assert heine_solution(p, 1, z, ctx) == phi21(p.a, p.b, p.c, z, ctx)

    def test_rows_one_and_two_equal(self, ctx, rng):
        """Both are the regular solution at the origin normalized to 1."""
        p = draw_heine_for(rng, ctx, 2)
        for z in (0.15, 0.3):
            v1 = heine_solution(p, 1, z, ctx)
            v2 = heine_solution(p, 2, z, ctx)
            assert abs(v1 - v2) <= 1e-9 * abs(v1)

    def test_extras(self, ctx, rng):
        from qhyp.sampling import draw_heine_extra

        for which in (1, 2):
            p = draw_heine_extra(rng, ctx, which)
            h = solution_handle(f"heine_extra.{which}", p, ctx)
            xs = sample_points(h, 4, ctx)
            assert residual(h.equation, h, xs, ctx) < 1e-8

    def test_formal_series_diverges_when_not_terminating(self, ctx, rng):
        from qhyp.errors import DivergenceError
        from qhyp.sampling import draw_heine
        from qhyp.solutions import heine_extra

        p = draw_heine(rng, ctx)
        with pytest.raises(DivergenceError):
            heine_extra(p, 1, 0.4, ctx)


class TestRelationsAmongIntegrals:
    def test_cocycle(self, ctx, rng):
        p = draw_params3(rng, ctx)
        x = 0.3 * integral_scale(p, ctx)
        for t1, t2, t3 in itertools.combinations(TAUS.values(), 3):
            assert cocycle_check(p, t1, t2, t3, x, ctx) < 1e-12

    def test_cocycle_with_repeated_endpoint(self, ctx, rng):
        p = draw_params3(rng, ctx)
        x = 0.3 * integral_scale(p, ctx)
        assert cocycle_check(p, TAUS[1], TAUS[1], TAUS[3], x, ctx) < 1e-12

    def test_incidence_rank(self):
        assert incidence_rank() == 3

    def test_incidence_relations_hold_on_values(self, ctx, rng):
        p = draw_params3(rng, ctx)
        x = 0.3 * integral_scale(p, ctx)
        order = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
        vec = np.array([phi3(p, TAUS[i], TAUS[j], x, ctx) for i, j in order])
        resid = incidence_matrix() @ vec
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(vec))

    def test_casoratian_of_dependent_pair(self, ctx, rng):
        p = draw_params3(rng, ctx)
        f = lambda x: phi3(p, TAUS[1], TAUS[2], x, ctx)
        g = lambda x: 2.0 * f(x)
        assert abs(casoratian(f, g, 0.3 * integral_scale(p, ctx), ctx)) < 1e-14

    def test_casoratian_pattern_special_case(self, ctx):
        q = complex(ctx.q)
        B = 0.9 + 0.2j
        a = (1.1 + 0.3j, 0.8 - 0.4j, 1.3 + 0.1j)
        p = Params3(*a, *a, q**2 * B, B)
        x = 0.4
        f12 = lambda y: phi3(p, TAUS[1], TAUS[2], y, ctx)
        f13 = lambda y: phi3(p, TAUS[1], TAUS[3], y, ctx)
        t12 = lambda y: phi3_tilde(p, Endpoint.b(1), Endpoint.b(2), y, ctx)
        w_ind = casoratian(f12, f13, x, ctx)
        scale = abs(f12(x) * f13(q * x)) + abs(f12(q * x) * f13(x))
        assert abs(w_ind) / scale > 1e-6
        w_dep = casoratian(f12, t12, x, ctx)
        scale = abs(f12(x) * t12(q * x)) + abs(f12(q * x) * t12(x))
        assert abs(w_dep) / scale < 1e-10

    def test_same_index_ratio_is_constant(self, ctx):
        """The matching tau/sigma pairs are proportional in the rational
        special case, so their Casoratian vanishes."""
        q = complex(ctx.q)
        B = 0.9 + 0.2j
        a = (1.1 + 0.3j, 0.8 - 0.4j, 1.3 + 0.1j)
        p = Params3(*a, *a, q**2 * B, B)
        ratios = [
            phi3(p, TAUS[1], TAUS[2], x, ctx)
            / phi3_tilde(p, Endpoint.b(1), Endpoint.b(2), x, ctx)
            for x in (0.3, 0.5, 0.8)
        ]
        assert max(abs(r - ratios[0]) for r in ratios) < 1e-10 * abs(ratios[0])


class TestGridKernel:
    """The Jackson grid kernel against brute-force sums of its integrand."""

    @staticmethod
    def tilde2_grid(p, x, ctx):
        q = complex(ctx.q)
        return (q / (p.B * x), q / p.b1, q / p.b2), (q / (p.A * x), q / p.a1, q / p.a2)

    @staticmethod
    def direct_sum(tau, nums, dens, ns, ctx):
        q = complex(ctx.q)
        ts = [tau * q**n for n in ns]
        return (1 - q) * sum(
            qpoch_ratio([c * t for c in nums], [c * t for c in dens], ctx) * t for t in ts
        )

    def test_bilateral_matches_direct_sum(self, ctx, rng):
        for _ in range(3):
            p = draw_params2(rng, ctx)
            sigma = default_sigma(p)
            h = solution_handle("thmint2.tilde[1,4]", p, ctx, sigma=sigma)
            for x in sample_points(h, 2, ctx):
                nums, dens = self.tilde2_grid(p, x, ctx)
                kernel = _grid_sum(sigma, nums, dens, ctx, bilateral=True)
                direct = self.direct_sum(sigma, nums, dens, range(-100, 101), ctx)
                assert abs(kernel - direct) <= 1e-12 * abs(direct)

    def test_bilateral_reduces_to_onesided_at_vanishing_endpoint(self, ctx, rng):
        # at sigma = b_i the factor (q t / b_i)_inf vanishes on the whole n < 0 grid
        p = draw_params2(rng, ctx)
        x = integral_scale(p, ctx) * 0.3
        nums, dens = self.tilde2_grid(p, x, ctx)
        for b in (p.b1, p.b2):
            two_sided = _grid_sum(b, nums, dens, ctx, bilateral=True)
            one_sided = _grid_sum(b, nums, dens, ctx)
            assert abs(two_sided - one_sided) <= 1e-12 * max(1.0, abs(one_sided))

    def test_exact_zero_on_ascending_grid_raises(self):
        """With a1/a2 = q^-3 the integrand from q/a2 is 0 at n = 0, 1, 2 and
        nonzero beyond; the recurrence cannot leave the zero run, so the kernel
        refuses instead of returning 0.  Only the real a2 gives exact zeros;
        for the others rounding leaves the zeros tiny but nonzero."""
        ctx = QContext(0.5)
        q = 0.5
        a3 = 1.1 + 0.2j
        b1, b2, A, B = 0.4 + 0.9j, -0.7 + 0.5j, 0.8 - 0.3j, 1.2 + 0.35j
        x = 0.3
        for a2 in (0.9 + 0j, 0.7 + 0.3j, 0.5 - 0.6j, 1.1 + 0.1j):
            a1 = a2 * q**-3
            b3 = a1 * a2 * a3 * A / (q**2 * b1 * b2 * B)
            p = Params3(a1, a2, a3, b1, b2, b3, A, B)
            p.validate(ctx)
            nums, dens = (p.A * x, p.a1, p.a2, p.a3), (p.B * x, p.b1, p.b2, p.b3)
            tau = TAUS[2].resolve(p, x, ctx)
            grid = [qpoch_ratio([c * tau * q**n for c in nums],
                                [c * tau * q**n for c in dens], ctx) for n in range(4)]
            assert max(abs(g) for g in grid[:3]) < 1e-15 and abs(grid[3]) > 1e-3
            assert abs(self.direct_sum(tau, nums, dens, range(200), ctx)) > 5e-3
            with pytest.raises(UnsupportedCaseError):
                phi3(p, TAUS[1], TAUS[2], x, ctx)


class TestLocalBasis:
    def test_frobenius_spans_integral_solution(self, ctx, rng):
        """The two-dimensional local basis at the origin reproduces the
        integral solution after fitting the two free constants."""
        p = draw_params3(rng, ctx)
        op = build_e3(p, ctx)
        c0 = op.frobenius_series(1.0, 24, ctx)
        c1 = op.frobenius_series(complex(ctx.q), 24, ctx)
        f0 = lambda x: sum(ci * x**n for n, ci in enumerate(c0))
        fq = lambda x: x * sum(ci * x**n for n, ci in enumerate(c1))
        g = lambda x: phi3(p, TAUS[1], TAUS[2], x, ctx)
        sc = integral_scale(p, ctx)
        x1, x2 = 0.02 * sc, 0.03 * sc
        mat = np.array([[f0(x1), fq(x1)], [f0(x2), fq(x2)]])
        coef = np.linalg.solve(mat, np.array([g(x1), g(x2)]))
        for x in np.geomspace(0.008 * sc, 0.08 * sc, 5):
            pred = coef[0] * f0(x) + coef[1] * fq(x)
            assert abs(g(x) - pred) <= 1e-8 * abs(g(x))


class TestHandles:
    def test_zero_function_residual(self, ctx, rng):
        p = draw_params3(rng, ctx)
        op = build_e3(p, ctx)
        assert residual(op, lambda x: 0.0, [0.3, 0.5], ctx) == 0.0

    def test_unknown_label(self, ctx, rng):
        with pytest.raises(ValueError):
            solution_handle("nosuch.1", None, ctx)

    def test_domain_enforced_by_residual(self, ctx, rng):
        p = draw_params2(rng, ctx, series_room=True)
        h = solution_handle("thmser2.1", p, ctx)
        with pytest.raises(DomainError):
            residual(h.equation, h, [h.interval[1] * 0.999], ctx)
