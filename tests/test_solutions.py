"""Solution families: integral and series evaluators, operator residuals,
single-endpoint identities, cocycle structure and Casoratians."""

import cmath
import itertools
import math
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhyp import solutions
from qhyp.equations import Params3, build_e2, build_e3, build_h2, build_heine, qpow
from qhyp.errors import (
    DomainError,
    NonDecayingSumError,
    PoleError,
    QhypError,
    UnsupportedCaseError,
)
from qhyp.qcore import (
    _CONSECUTIVE_SMALL,
    _RATIO_FACTORS,
    QContext,
    _one,
    _quotient,
    _Tail,
    _termination_order,
    qpoch_ratio,
)
from qhyp.solutions import (
    _grid_sum,
    Endpoint,
    JacksonTable,
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


def exact_zero_params(a2, ctx):
    """A balanced degree-three tuple with a1/a2 = q^-3: at x = 0.3 the
    integrand from q/a2 vanishes at n = 0, 1, 2 and not beyond."""
    q = ctx.q
    a1 = a2 * q**-3
    a3 = 1.1 + 0.2j
    b1, b2, A, B = 0.4 + 0.9j, -0.7 + 0.5j, 0.8 - 0.3j, 1.2 + 0.35j
    b3 = a1 * a2 * a3 * A / (q**2 * b1 * b2 * B)
    p = Params3(a1, a2, a3, b1, b2, b3, A, B)
    p.validate(ctx)
    return p


def grid_one(tau, nums, dens, ctx, **kwargs):
    """The Jackson grid kernel on one grid start: its value, or its error raised."""
    return _one(_grid_sum([tau], [nums], [dens], ctx, **kwargs))


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
                kernel = grid_one(sigma, nums, dens, ctx, bilateral=True)
                direct = self.direct_sum(sigma, nums, dens, range(-100, 101), ctx)
                assert abs(kernel - direct) <= 1e-12 * abs(direct)

    def test_bilateral_reduces_to_onesided_at_vanishing_endpoint(self, ctx, rng):
        # at sigma = b_i the factor (q t / b_i)_inf vanishes on the whole n < 0 grid
        p = draw_params2(rng, ctx)
        x = integral_scale(p, ctx) * 0.3
        nums, dens = self.tilde2_grid(p, x, ctx)
        for b in (p.b1, p.b2):
            two_sided = grid_one(b, nums, dens, ctx, bilateral=True)
            one_sided = grid_one(b, nums, dens, ctx)
            assert abs(two_sided - one_sided) <= 1e-12 * max(1.0, abs(one_sided))

    def test_exact_zero_on_ascending_grid_raises(self):
        """With a1/a2 = q^-3 the integrand from q/a2 is 0 at n = 0, 1, 2 and
        nonzero beyond; the recurrence cannot leave the zero run, so the kernel
        refuses instead of returning 0.  Only the real a2 gives exact zeros;
        for the others rounding leaves the zeros tiny but nonzero."""
        ctx = QContext(0.5)
        q = 0.5
        x = 0.3
        for a2 in (0.9 + 0j, 0.7 + 0.3j, 0.5 - 0.6j, 1.1 + 0.1j):
            p = exact_zero_params(a2, ctx)
            nums, dens = (p.A * x, p.a1, p.a2, p.a3), (p.B * x, p.b1, p.b2, p.b3)
            tau = TAUS[2].resolve(p, x, ctx)
            grid = [qpoch_ratio([c * tau * q**n for c in nums],
                                [c * tau * q**n for c in dens], ctx) for n in range(4)]
            assert max(abs(g) for g in grid[:3]) < 1e-15 and abs(grid[3]) > 1e-3
            assert abs(self.direct_sum(tau, nums, dens, range(200), ctx)) > 5e-3
            with pytest.raises(UnsupportedCaseError):
                phi3(p, TAUS[1], TAUS[2], x, ctx)

    def test_descending_pole_and_exhausted_budgets(self):
        """A pole anywhere on the descending grid within the budget raises
        PoleError; a side whose terms do not decay within max_terms raises
        NonDecayingSumError, ascending (t^alpha with alpha near 0 unweighted)
        and descending (|prod n_i / prod d_j| > |q|) alike."""
        ctx = QContext(0.5)
        q, tau = 0.5, 1.3 + 0.2j
        nums = (0.7 + 0.1j, 1.1, 0.4 - 0.3j)
        for k in (3, 40):   # q / t - d_1 vanishes at t = tau q^(1 - k)
            with pytest.raises(PoleError):
                grid_one(tau, nums, (q**k / tau, 0.9, 1.2), ctx, bilateral=True)
        with pytest.raises(NonDecayingSumError):
            grid_one(tau, nums, (0.6, 0.9, 1.2), ctx, alpha=0.05, weighted=False)
        with pytest.raises(NonDecayingSumError):
            grid_one(tau, nums, (0.6, 0.9, 1.2), ctx, bilateral=True)


class TestJacksonTable:
    """One table of single-endpoint integrals serves every pair label."""

    @staticmethod
    def residual_points(h, ctx):
        """The points x q^j at which residual() evaluates the handle."""
        seen = []

        def record(y):
            seen.append(y)
            return 0.0

        residual(h.equation, record, sample_points(h, 4, ctx), ctx)
        return seen

    @staticmethod
    def count_grid_sums(monkeypatch):
        """Record the grid start of every row of every Jackson grid sum from here on."""
        starts = []
        grid_sum = solutions._grid_sum

        def counted(taus, *args, **kwargs):
            starts.extend(taus)
            return grid_sum(taus, *args, **kwargs)

        monkeypatch.setattr(solutions, "_grid_sum", counted)
        return starts

    def test_shared_table_matches_standalone(self, ctx, rng, monkeypatch):
        starts = self.count_grid_sums(monkeypatch)
        p3 = draw_params3(rng, ctx)
        p2 = draw_params2(rng, ctx)
        # (family, params, sigma, distinct single-endpoint integrals per point):
        # thmint3 has 4 tau and 4 sigma endpoints; thmint2 has 3 tau endpoints
        # besides 0, which costs nothing, and 4 sigma endpoints
        for family, p, sigma, singles in (("thmint3", p3, 1.3, 8),
                                          ("thmint2", p2, default_sigma(p2), 7)):
            table = JacksonTable(p, ctx)
            labels = all_labels(family)
            shared = [solution_handle(lab, p, ctx, sigma=sigma, table=table) for lab in labels]
            points = self.residual_points(shared[0], ctx)
            assert all(self.residual_points(h, ctx) == points for h in shared)
            starts.clear()
            values = [[h(y) for y in points] for h in shared]
            assert len(starts) == singles * len(points), family
            for label, row in zip(labels, values):
                alone = solution_handle(label, p, ctx, sigma=sigma)
                assert row == [alone(y) for y in points], label

    def test_errors_are_not_cached(self, monkeypatch):
        ctx = QContext(0.5)
        p = exact_zero_params(0.9 + 0j, ctx)
        x = 0.3
        zero_start = TAUS[2].resolve(p, x, ctx)
        starts = self.count_grid_sums(monkeypatch)
        table = JacksonTable(p, ctx)
        messages = []
        for i, j in ((1, 2), (1, 2), (2, 3), (2, 4)):
            h = solution_handle(f"thmint3.phi3[{i},{j}]", p, ctx, table=table)
            starts.clear()
            with pytest.raises(UnsupportedCaseError) as err:
                h(x)
            # the failing integral is computed anew on every lookup
            assert starts.count(zero_start) == 1
            messages.append(str(err.value))
        assert len(set(messages)) == 1

    def test_table_of_another_tuple_is_refused(self, ctx, rng):
        p = draw_params3(rng, ctx)
        other = JacksonTable(draw_params3(rng, ctx), ctx)
        with pytest.raises(ValueError):
            phi3(p, TAUS[1], TAUS[2], 0.3, ctx, other)


# -- the batched grid kernel against the scalar kernel it replaced ----------------
#
# _grid_sum sums many grid starts in one batch, each row in order, one product
# and one addition at a time.  The scalar kernel it replaced summed one start a
# call, chunk by chunk; it is kept below, with the scalar series kernel it
# called, as the reference.  The two differ by rounding only.


# the scalar kernel's chunk bounds
_MIN_CHUNK, _MAX_CHUNK = 32, 2048


def ref_ratio_sum(
    t0: complex,
    step: Callable[[np.ndarray], np.ndarray],
    ctx: QContext,
    rate: complex,
    reach: float,
    what: str,
    last: int | None = None,
    pole: int | None = None,
    weigh: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> complex:
    """The scalar series kernel that the batched one replaced."""
    if pole is not None and (last is None or pole < last):
        raise PoleError(f"{what}: a denominator factor vanishes at n = {pole}")
    rho = abs(rate)
    n = 0.0 if rho == 0.0 else math.inf  # |rate| >= 1 or NaN: no decay to read off
    closure = math.inf
    if 0.0 < rho < 1.0:
        lq, lr = -math.log(abs(ctx.q)), math.log1p(reach)
        growth = lr * lr / (2.0 * lq) + lr / (1.0 - abs(ctx.q))
        n = (growth - math.log(ctx.tail_tol)) / -math.log(rho)
        spread = _RATIO_FACTORS * reach / ((1.0 - abs(ctx.q)) * ctx.tail_tol)
        if last is None and spread < math.inf:  # not for an infinite or NaN reach
            closure = math.ceil(math.log(max(spread, 1.0)) / lq)
    size = _MAX_CHUNK
    if n < _MAX_CHUNK:
        size = min(max(int(n) + 1 + _CONSECUTIVE_SMALL, _MIN_CHUNK), _MAX_CHUNK)
    size = min(size, max(closure, _MIN_CHUNK))
    count = ctx.max_terms if last is None else min(ctx.max_terms, last + 1)
    # the tail rule cannot end a terminating sum this short before its last term
    untailed = last is not None and count == last + 1 <= _CONSECUTIVE_SMALL
    total = 0.0 + 0.0j
    tail = _Tail(ctx)
    t = complex(t0)  # the term before the chunk, or t_0 with a first ratio 1
    n0 = 0
    while n0 < count:
        ns = np.arange(n0, min(n0 + size, count))
        ratios = step(ns - 1) if n0 else np.concatenate(([1.0], step(ns[:-1])))
        seq = t * np.multiply.accumulate(ratios)
        terms = seq if weigh is None else weigh(ns, seq)
        end = None if untailed else tail.first_stop(np.abs(terms))
        if end is not None:
            return complex(total + np.add.reduce(terms[: end + 1]))
        total += np.add.reduce(terms)
        t = seq[-1]
        n0 = int(ns[-1]) + 1
        mag = abs(terms[-1])
        if n0 >= closure and math.isfinite(mag):
            # the tail rule's run goes on from tail.run; with none, it starts
            # at the first k with mag rho^k < tol scale
            first = 1
            if not tail.run:
                first += math.floor(math.log(tail.tol * tail.scale / mag) / math.log(rho))
            if n0 + first + 1 - tail.run >= ctx.max_terms:
                break
            return complex(total + terms[-1] * rate / (1.0 - rate))
        size = min(2 * size, _MAX_CHUNK)
    if last is not None and count == last + 1:
        return complex(total)
    raise NonDecayingSumError(f"{what} did not meet the tail criterion in {ctx.max_terms} terms")


def ref_grid_sum(
    tau: complex,
    nums: Sequence[complex],
    dens: Sequence[complex],
    ctx: QContext,
    alpha: complex = 0.0,
    weighted: bool = True,
    bilateral: bool = False,
) -> complex:
    """The scalar grid kernel that the batched one replaced: one grid start a call."""
    q = complex(ctx.q)
    tau = complex(tau)
    if tau == 0:
        return 0.0 + 0.0j
    nums = np.array([complex(v) for v in nums])
    dens = np.array([complex(v) for v in dens])
    alpha = complex(alpha)
    log_tau = cmath.log(tau)
    log_q = cmath.log(q)
    seed = qpoch_ratio(nums * tau, dens * tau, ctx)
    if seed == 0 or _termination_order(nums * tau, ctx) is not None:
        raise UnsupportedCaseError(f"integrand vanishes at the grid start {tau}")

    def weigh(ns: np.ndarray, F: np.ndarray) -> np.ndarray:
        if alpha != 0:
            F = F * np.exp(alpha * (log_tau + ns * log_q))
        return F * (tau * q**ns) if weighted else F

    dn, nd = np.concatenate((dens, nums))[:, None], np.concatenate((nums, dens))[:, None]

    def up(ns: np.ndarray) -> np.ndarray:
        """F(t q) / F(t) at t = tau q^n."""
        return _quotient(1.0 - dn * (tau * q**ns), len(dens))

    def down(ns: np.ndarray) -> np.ndarray:
        """F(t / q) / F(t) at t = tau q^n.  1 - c t/q = (t/q) (q/t - c): the
        powers of t/q cancel between numerator and denominator, and q/t
        underflows harmlessly."""
        return _quotient(q / (tau * q**ns) - nd, len(nums))

    # upwards the step ratio tends to q^(alpha + 1) (weighted) or q^alpha
    rate = cmath.exp((alpha + (1 if weighted else 0)) * log_q)
    value = ref_ratio_sum(seed, up, ctx, rate, np.abs(nd * tau).max(), "Jackson sum", weigh=weigh)
    if bilateral:
        # q/t - d_j at t = tau q^-n vanishes where 1 - (q / (tau d_j)) q^n does
        if _termination_order(q / (tau * dens), ctx) is not None:
            raise PoleError("integrand pole on the descending grid")
        value += ref_ratio_sum(
            seed * down(np.array([0]))[0], lambda ks: down(-1 - ks), ctx,
            np.prod(nums) / np.prod(dens) / rate,
            np.abs(q * q / (tau * nd)).max(), "Jackson sum",
            weigh=lambda ks, F: weigh(-1 - ks, F))
    return (1.0 - q) * value


def polar(lo, hi):
    return st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(lo, hi),
                     st.floats(-math.pi, math.pi))


def outcome_of(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except QhypError as exc:
        return exc


class TestBatchedGridKernel:
    # options of the kernel: weighted and alpha = 0, unweighted and weighted
    # with alpha != 0 (drawn), and bilateral
    KINDS = {"weighted": {}, "unweighted": {"weighted": False}, "alpha": {},
             "bilateral": {"bilateral": True}}
    row = st.tuples(polar(0.3, 2.5), st.lists(polar(0.1, 0.9), min_size=3, max_size=3),
                    st.lists(polar(1.0, 2.0), min_size=3, max_size=3))

    @settings(max_examples=80, deadline=None)
    @given(q=st.floats(0.3, 0.6), kind=st.sampled_from(sorted(KINDS)),
           alpha=st.builds(complex, st.floats(0.05, 1.2), st.floats(-1.0, 1.0)),
           rows=st.lists(row, min_size=1, max_size=6))
    def test_rows_match_reference_and_stand_alone(self, q, kind, alpha, rows):
        """Every row of a batch is bit-identical to the same row summed alone
        (and in the reversed batch), and matches the scalar reference within
        rounding, or raises its error with its message."""
        ctx = QContext(q)
        kw = dict(self.KINDS[kind], **({"alpha": alpha} if kind in ("unweighted", "alpha") else {}))
        taus, nums, dens = zip(*rows)
        batch = _grid_sum(taus, nums, dens, ctx, **kw)
        backwards = _grid_sum(taus[::-1], nums[::-1], dens[::-1], ctx, **kw)[::-1]
        for r, got in enumerate(batch):
            alone = _grid_sum([taus[r]], [nums[r]], [dens[r]], ctx, **kw)[0]
            want = outcome_of(ref_grid_sum, taus[r], nums[r], dens[r], ctx, **kw)
            if isinstance(want, Exception):
                for other in (got, alone, backwards[r]):
                    assert type(other) is type(want) and str(other) == str(want)
                continue
            assert not isinstance(got, Exception), got
            assert got == alone and got == backwards[r]
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_per_row_errors_in_one_batch(self, monkeypatch):
        """One batch mixes an exact zero (exact_zero_params), a descending
        pole and an exhausted budget with good rows.  The good rows are
        stored and equal their standalone values; each bad row raises on its
        own lookup with the scalar kernel's type and message, computed anew
        on every lookup."""
        ctx = QContext(0.5)
        q = 0.5
        p = exact_zero_params(0.9 + 0j, ctx)

        def phi3_row(endpoint, y):
            return (endpoint.resolve(p, y, ctx), (p.A * y, p.a1, p.a2, p.a3),
                    (p.B * y, p.b1, p.b2, p.b3))

        tau, nums = 1.3 + 0.2j, (0.7 + 0.1j, 1.1, 0.4 - 0.3j, 0.5)
        rows = {
            0.1: phi3_row(TAUS[1], 0.3),
            0.2: phi3_row(TAUS[2], 0.3),                  # zero at the grid start
            0.3: phi3_row(TAUS[3], 0.3),
            0.4: (tau, nums, (q**3 / tau, 0.9, 1.2, 0.5)),  # pole descending
            0.5: (tau, nums, (0.6, 0.9, 1.2, 0.5)),         # descending side grows
            0.6: phi3_row(TAUS[4], 0.5),
        }

        def single(params, e, xs, ctx):
            return solutions._grid_sum(*zip(*(rows[x] for x in xs)), ctx, bilateral=True)

        starts = TestJacksonTable.count_grid_sums(monkeypatch)
        table = JacksonTable(p, ctx)
        e = Endpoint.sigma_inf()
        table.fill(single, e, list(rows))
        assert len(starts) == len(rows)   # one batch
        errors = set()
        for x, (t, n, d) in rows.items():
            want = outcome_of(ref_grid_sum, t, n, d, ctx, bilateral=True)
            starts.clear()
            if isinstance(want, Exception):
                for _ in range(2):
                    with pytest.raises(type(want)) as err:
                        table.value(single, e, x)
                    assert str(err.value) == str(want)
                assert starts == [t, t]
                errors.add(type(want))
                continue
            got = table.value(single, e, x)
            assert not starts   # stored by the batch
            assert got == grid_one(t, n, d, ctx, bilateral=True)
            assert abs(got - want) <= 1e-12 * abs(want)
        assert errors == {UnsupportedCaseError, PoleError, NonDecayingSumError}


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
