"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime.  Tolerances are pinned here and nowhere else.

The order-32 orbit clause of the group criterion is asserted as catalogued
and fails: the parameter maps satisfy (s1 s4)^2 = s1 s2 identically, so the
transformation group they generate has order 16 (see the test body for the
identity check); everything else in that criterion passes.
"""

import itertools
import time

import numpy as np

from qhyp.equations import (
    BUILDERS,
    H2Params,
    Params3,
    build_e2,
    build_e3,
    build_heine,
    expected_configuration,
    qpow,
    verify_degeneration,
)
from qhyp.groups import (
    apply_word,
    check_relations,
    orbit,
    params_to_state,
    solution_transport,
)
from qhyp.qcore import QContext, qpoch_fin, qpoch_inf, qpoch_ratio
from qhyp.qseries import (
    PhiSpec,
    bailey_w87_transform,
    heine_transformation_constant,
    phi,
    phi21,
    psi33,
)
from qhyp.sampling import (
    default_sigma,
    draw_equation_params,
    draw_h3,
    draw_heine,
    draw_heine_for,
    draw_params2,
    draw_params2_terminating,
    draw_params3,
)
from qhyp.solutions import (
    Endpoint,
    all_labels,
    casoratian,
    check_intcalcu,
    cocycle_check,
    e2_series_scale,
    e3_series,
    e3_to_e2_series_deviation,
    incidence_rank,
    integral_scale,
    phi2,
    phi3,
    phi3_tilde,
    residual,
    sample_points,
    solution_handle,
)

RESIDUAL_TOL = 1e-8
CLOSED_FORM_TOL = 1e-10
COCYCLE_TOL = 1e-12
RELATION_TOL = 1e-12
DEGENERATION_TOL = 1e-7

TAUS = {1: Endpoint.q_over_a(1), 2: Endpoint.q_over_a(2),
        3: Endpoint.q_over_a(3), 4: Endpoint.q_over_Ax()}


def report(name: str, started: float, ok: bool = True, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"acceptance {name}: {status} ({time.time() - started:.1f} s){extra}")


def test_criterion_1_configurations():
    """50 seeded draws per equation match the catalogued configurations."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    for kind in ("heine", "qheun", "qheun3", "h2", "h3", "e2", "e3"):
        for _ in range(50):
            ctx = QContext(rng.uniform(0.35, 0.55))
            p = draw_equation_params(kind, rng, ctx)
            op = BUILDERS[kind](p, ctx)
            cfg = op.configuration(ctx)
            expected = expected_configuration(kind, p, ctx)
            assert cfg.matches(expected, 1e-8), kind
            if expected.double_x0 is not None:
                assert op.is_nonlog(expected.double_x0, "x0", ctx)
            if expected.double_xinf is not None:
                assert op.is_nonlog(expected.double_xinf * complex(ctx.q), "xinf", ctx)
    elapsed = time.time() - t0
    report("criterion-1 configurations", t0, elapsed < 10, f"{elapsed:.1f}s < 10s")
    assert elapsed < 10


def test_criterion_2_integral_solutions_degree3():
    """12 endpoint pairs solve the degree-three equation; single-endpoint
    operator images match the catalogued right-hand sides."""
    t0 = time.time()
    rng = np.random.default_rng(102)
    for _ in range(20):
        ctx = QContext(rng.uniform(0.35, 0.55))
        p = draw_params3(rng, ctx)
        op = build_e3(p, ctx)
        for label in all_labels("thmint3"):
            h = solution_handle(label, p, ctx)
            xs = sample_points(h, 10, ctx)
            assert residual(op, h, xs, ctx) < RESIDUAL_TOL, label
        sc = integral_scale(p, ctx)
        xs = np.geomspace(0.05 * sc, 0.5 * sc, 2)
        for ep in (TAUS[1], TAUS[2], TAUS[3], TAUS[4],
                   Endpoint.b(1), Endpoint.b(2), Endpoint.b(3), Endpoint.Bx()):
            assert max(check_intcalcu(p, ep, x, ctx) for x in xs) < RESIDUAL_TOL
    elapsed = time.time() - t0
    report("criterion-2 integral solutions (degree 3)", t0, elapsed < 60,
           f"{elapsed:.1f}s < 60s")
    assert elapsed < 60


def test_criterion_3_integral_solutions_degree2():
    """All degree-two endpoint pairs (including 0 and the bilateral endpoint)
    solve the degree-two equation; the q-Appell correspondence holds."""
    import cmath

    from qhyp.qseries import appell_phi1

    t0 = time.time()
    rng = np.random.default_rng(103)
    for _ in range(10):
        ctx = QContext(rng.uniform(0.35, 0.55))
        p = draw_params2(rng, ctx)
        op = build_e2(p, ctx)
        sigma = default_sigma(p)
        for label in all_labels("thmint2"):
            h = solution_handle(label, p, ctx, sigma=sigma)
            xs = sample_points(h, 6, ctx)
            assert residual(op, h, xs, ctx) < RESIDUAL_TOL, label
        # double-series correspondence for the pair (0, moving endpoint)
        q = complex(ctx.q)
        qa = qpow(q, p.alpha)
        x = 1.4 * max(abs(q * p.b1 / p.A), abs(q * p.b2 / p.A)) / abs(q)
        lhs = appell_phi1(
            qa,
            qpow(q, p.alpha + 1) * p.b2 * p.B / (p.a2 * p.A),
            qpow(q, p.alpha + 1) * p.b1 * p.B / (p.a1 * p.A),
            qpow(q, p.alpha + 1) * p.B / p.A,
            q * p.b1 / (p.A * x), q * p.b2 / (p.A * x), ctx)
        const = (qpoch_ratio([qa, q * p.B / p.A],
                             [q, qpow(q, p.alpha + 1) * p.B / p.A], ctx)
                 / (1 - q) * cmath.exp(p.alpha * cmath.log(p.A / q)))
        rhs = const * cmath.exp(p.alpha * cmath.log(complex(x))) * phi2(
            p, Endpoint.zero(), Endpoint.q_over_Ax(), x, ctx)
        assert abs(lhs - rhs) <= RESIDUAL_TOL * abs(lhs)
    report("criterion-3 integral solutions (degree 2)", t0)


def test_criterion_4_series_solutions():
    """Six degree-three series, six degree-two series and the 32-entry
    catalogue all residual-vanish in their validity regimes."""
    t0 = time.time()
    rng = np.random.default_rng(104)
    for _ in range(5):
        ctx = QContext(rng.uniform(0.35, 0.55))
        p3 = draw_params3(rng, ctx, series_room=True)
        op3 = build_e3(p3, ctx)
        for which in range(1, 7):
            h = solution_handle(f"thmser3.{which}", p3, ctx)
            xs = sample_points(h, 10, ctx)
            assert residual(op3, h, xs, ctx) < RESIDUAL_TOL, ("ser3", which)
        p2 = draw_params2(rng, ctx, series_room=True)
        op2 = build_e2(p2, ctx)
        for which in range(1, 7):
            h = solution_handle(f"thmser2.{which}", p2, ctx)
            xs = sample_points(h, 10, ctx)
            assert residual(op2, h, xs, ctx) < RESIDUAL_TOL, ("ser2", which)
    for trial in range(3):
        ctx = QContext(rng.uniform(0.35, 0.55))
        for which in range(1, 33):
            ph = draw_heine_for(rng, ctx, f"heine.{which}", n=2 + trial % 2)
            oph = build_heine(ph, ctx)
            h = solution_handle(f"heine.{which}", ph, ctx)
            xs = sample_points(h, 10, ctx)
            assert residual(oph, h, xs, ctx) < RESIDUAL_TOL, ("heine", which)
    report("criterion-4 series solutions", t0)


def test_criterion_5_rational_special_case():
    """Coinciding parameter lists collapse the integrals to rational closed
    forms; Casoratians reproduce the independence pattern."""
    t0 = time.time()
    rng = np.random.default_rng(105)
    for _ in range(5):
        ctx = QContext(rng.uniform(0.35, 0.55))
        q = complex(ctx.q)
        B = complex(rng.uniform(0.8, 1.2), rng.uniform(-0.4, 0.4))
        avals = tuple(
            complex(rng.uniform(0.7, 1.4), rng.uniform(-0.5, 0.5)) for _ in range(3)
        )
        p = Params3(*avals, *avals, q**2 * B, B)
        x = rng.uniform(0.3, 0.9)
        for i, j in itertools.combinations(range(1, 4), 2):
            got = phi3(p, TAUS[i], TAUS[j], x, ctx)
            ti, tj = TAUS[i].resolve(p, x, ctx), TAUS[j].resolve(p, x, ctx)
            closed = (tj - ti) / ((1 - B * x * ti) * (1 - B * x * tj))
            assert abs(got - closed) <= CLOSED_FORM_TOL * abs(closed)
            gott = phi3_tilde(p, Endpoint.b(i), Endpoint.b(j), x, ctx)
            si, sj = avals[i - 1], avals[j - 1]
            closedt = (q * B) ** 2 * (sj - si) / ((q * B * x - si) * (q * B * x - sj))
            assert abs(gott - closedt) <= CLOSED_FORM_TOL * abs(closedt)
        f12 = lambda y: phi3(p, TAUS[1], TAUS[2], y, ctx)
        f13 = lambda y: phi3(p, TAUS[1], TAUS[3], y, ctx)
        t12 = lambda y: phi3_tilde(p, Endpoint.b(1), Endpoint.b(2), y, ctx)
        assert casoratian(f12, f13, x, ctx) > 1e-6
        assert casoratian(f12, t12, x, ctx) < CLOSED_FORM_TOL
    report("criterion-5 rational special case", t0)


def test_criterion_6_transform_identities():
    """q-binomial, q-Vandermonde, the bilateral limit, the integral/series
    correspondence and the two-term transformation, over 20 draws each."""
    t0 = time.time()
    rng = np.random.default_rng(106)

    def rc(lo=0.4, hi=1.6, phase=0.85):
        return rng.uniform(lo, hi) * np.exp(1j * rng.uniform(-phase * np.pi, phase * np.pi))

    for _ in range(20):
        ctx = QContext(rng.uniform(0.35, 0.55))
        q = complex(ctx.q)
        # q-binomial theorem
        a, z = rc(), rc(0.1, 0.8)
        lhs = phi(PhiSpec([a], [], z), ctx)
        rhs = qpoch_ratio([a * z], [z], ctx)
        assert abs(lhs - rhs) <= RESIDUAL_TOL * abs(rhs)
        # q-Vandermonde, n <= 5
        n = int(rng.integers(1, 6))
        a, c = rc(), rc()
        lhs = phi21(a, q**-n, c, q, ctx)
        rhs = qpoch_fin(c / a, n, ctx) / qpoch_fin(c, n, ctx) * a**n
        assert abs(lhs - rhs) <= RESIDUAL_TOL * max(1.0, abs(rhs))
        # Heine transformation constant
        a, b, c = rc(0.2, 0.8), rc(), rc()
        cst = heine_transformation_constant(a, b, c, 0.3, ctx)
        target = qpoch_inf(a, ctx) / qpoch_inf(c, ctx)
        assert abs(cst - target) <= RESIDUAL_TOL * abs(target)
        # integral <-> very-well-poised series (through the catalogued map)
        p = draw_params3(rng, ctx, series_room=True)
        h = solution_handle("thmser3.1", p, ctx)
        x = sample_points(h, 3, ctx)[1]
        iv = phi3(p, TAUS[1], TAUS[2], x, ctx)
        sv = e3_series(p, 1, x, ctx)
        assert abs(sv - iv) <= RESIDUAL_TOL * abs(iv)
        # two-term very-well-poised transformation
        while True:
            vals = [rc(0.7, 1.4) for _ in range(6)]
            av, bv, cv, dv, ev, fv = vals
            mu = q * av * av / (bv * cv * dv)
            if (abs(av**2 * q**2 / np.prod(vals[1:])) < 0.9
                    and abs(av * q / (ev * fv)) < 0.9
                    and abs(mu * q / (ev * fv)) < 0.9):
                break
        lhs, rhs = bailey_w87_transform(*vals, ctx)
        assert abs(lhs - rhs) <= RESIDUAL_TOL * abs(rhs)
    # bilateral limit: raw error decreasing, extrapolation to 1e-8
    big = QContext(0.45).with_budget(600_000)
    for _ in range(20):
        av = [rc(1.2, 1.9, 0.4) for _ in range(3)]
        bv = [rc(0.1, 0.35, 0.4) for _ in range(3)]
        target = np.prod([qpoch_inf(v, big) for v in av]) / np.prod(
            [qpoch_inf(v, big) for v in bv])
        coarse = [1e-2, 1e-3, 1e-4]
        errs = [abs(e * psi33(av, bv, 1 - e, big) - target) for e in coarse]
        assert errs[0] > errs[1] > errs[2]
        xs = np.array([1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4])
        ys = np.array([e * psi33(av, bv, 1 - e, big) for e in xs])
        tab = ys.copy()
        for j in range(1, len(xs)):
            tab = np.array([
                (xs[i] * tab[i + 1] - xs[i + j] * tab[i]) / (xs[i] - xs[i + j])
                for i in range(len(tab) - 1)
            ])
        assert abs(tab[0] - target) <= RESIDUAL_TOL * abs(target)
    report("criterion-6 transform identities", t0)


def test_criterion_7_degenerations():
    """Coefficientwise operator limits decrease monotonically below 1e-7;
    the series degeneration shows the same monotone pattern."""
    t0 = time.time()
    rng = np.random.default_rng(107)
    for _ in range(5):
        ctx = QContext(rng.uniform(0.35, 0.55))
        rep = verify_degeneration("e3_to_e2", draw_params2(rng, ctx),
                                  [1e5, 1e7, 1e9], ctx)
        assert rep.monotone and rep.deviations[-1] < DEGENERATION_TOL
        rep = verify_degeneration("h3_to_h2", draw_h3(rng, ctx),
                                  [1e5, 1e7, 1e9], ctx)
        assert rep.monotone and rep.deviations[-1] < DEGENERATION_TOL
        base = draw_h3(rng, ctx)
        p2h = H2Params(0.5, base.alpha + base.alpha - base.h3 + base.l3
                       + base.l1 - 1.5 + base.l2,
                       base.l1, base.l2, 1.0, 1.0, base.alpha,
                       base.alpha - base.h3 + base.l3)
        rep = verify_degeneration("h2_to_heine", p2h, [1e-5, 1e-7, 1e-9], ctx)
        assert rep.monotone and rep.deviations[-1] < DEGENERATION_TOL
        # series degeneration (terminating regime, q-lattice scales)
        p2 = draw_params2_terminating(rng, ctx)
        sc = e2_series_scale(p2, ctx)
        q = abs(complex(ctx.q))
        devs = [e3_to_e2_series_deviation(p2, 0.2 * sc, 0.4 * sc, 1.1 * q**-k, ctx)
                for k in (12, 16, 20)]
        assert devs[0] > devs[1] > devs[2]
    report("criterion-7 degenerations", t0)


def test_criterion_8_group_relations_and_transport():
    """All displayed relations hold as parameter maps to 1e-12 and every
    generator transports solutions with preserved residual."""
    t0 = time.time()
    rng = np.random.default_rng(108)
    for _ in range(20):
        ctx = QContext(rng.uniform(0.35, 0.55))
        x0 = complex(rng.uniform(0.3, 1.2))
        for group, p in (("G1", draw_heine(rng, ctx)),
                         ("G2", draw_params2(rng, ctx)),
                         ("G3", draw_params3(rng, ctx))):
            devs = check_relations(group, params_to_state(p, x0, ctx), ctx)
            assert max(devs.values()) < RELATION_TOL, group
    ctx = QContext(0.45)
    for group, label, p, n_gen in (
        ("G1", "heine.1", draw_heine(rng, ctx), 4),
        ("G2", "thmser2.1", draw_params2(rng, ctx, series_room=True), 4),
        ("G3", "thmser3.1", draw_params3(rng, ctx, series_room=True), 6),
    ):
        for i in range(1, n_gen + 1):
            h = solution_transport(group, [i], label, p, ctx)
            xs = sample_points(h, 5, ctx)
            assert residual(h.equation, h, xs, ctx) < RESIDUAL_TOL, (group, i)
    report("criterion-8 group relations and transport", t0)


def test_criterion_8_g1_orbit_size():
    """Catalogued claim: the generic orbit has exactly 32 elements.

    Not realized by the parameter maps: (s1 s4)^2 = s1 s2 identically (the
    second assertion), so the transformation group has order 16 and generic
    orbits have 16 points.  Kept as stated; see the decisions ledger.
    """
    t0 = time.time()
    rng = np.random.default_rng(109)
    ctx = QContext(0.45)
    state = params_to_state(draw_heine(rng, ctx), 0.7 + 0.2j, ctx)
    collapsed = apply_word("G1", [4, 1, 4, 1], state, ctx)
    direct = apply_word("G1", [2, 1], state, ctx)
    assert max(abs(complex(u) - complex(v))
               for u, v in zip(collapsed, direct)) < 1e-12
    orb = orbit("G1", state, ctx)
    ok = len(orb) == 32
    report("criterion-8 orbit size (expected 32)", t0, ok, f"computed {len(orb)}")
    assert ok, f"generic orbit has {len(orb)} elements, catalogued claim is 32"


def test_criterion_9_relation_structure():
    """Cocycle identity below 1e-12 and the 4x6 incidence matrix has rank 3."""
    t0 = time.time()
    rng = np.random.default_rng(110)
    for _ in range(5):
        ctx = QContext(rng.uniform(0.35, 0.55))
        p = draw_params3(rng, ctx)
        x = 0.3 * integral_scale(p, ctx)
        for t1, t2, t3 in itertools.combinations(TAUS.values(), 3):
            assert cocycle_check(p, t1, t2, t3, x, ctx) < COCYCLE_TOL
    assert incidence_rank() == 3
    report("criterion-9 relation structure", t0)
