"""Named-operator builders: configuration certification, balance handling,
gauge dictionaries, rigidity and degeneration limits."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhyp.errors import BalanceError
from qhyp.equations import (
    BUILDERS,
    H2Params,
    Params3,
    build_e2,
    build_e3,
    build_h2,
    build_h3,
    build_qheun,
    expected_configuration,
    params2_to_h2,
    params3_to_h3,
    rigidity_reconstruct,
    verify_degeneration,
)
from qhyp.opalgebra import Configuration
from qhyp.qcore import QContext
from qhyp.sampling import (
    draw_equation_params,
    draw_h2,
    draw_h3,
    draw_heun,
    draw_params2,
    draw_params3,
)

ALL_KINDS = ["heine", "qheun", "qheun3", "h2", "h3", "e2", "e3"]


class TestConfigurations:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_catalogue(self, kind, rng):
        for _ in range(8):
            ctx = QContext(rng.uniform(0.35, 0.55))
            p = draw_equation_params(kind, rng, ctx)
            cfg = BUILDERS[kind](p, ctx).configuration(ctx)
            expected = expected_configuration(kind, p, ctx)
            assert cfg.matches(expected, 1e-8), (kind, cfg, expected)
            assert cfg.product_relation_deviation() < 1e-9

    def test_accessory_parameter_isolated(self, ctx, rng):
        """Two accessory values differ in exactly the constant coefficient."""
        p = draw_heun(rng, ctx)
        p2 = type(p)(**{**p.__dict__, "E": p.E + 0.7})
        d1, d2 = build_qheun(p, ctx).coeffs, build_qheun(p2, ctx).coeffs
        diff = {k for k in set(d1) | set(d2)
                if abs(d1.get(k, 0) - d2.get(k, 0)) > 1e-12}
        assert diff == {(0, 0)}


class TestBalance:
    def test_violation_rejected(self, ctx, rng):
        p = draw_params3(rng, ctx)
        bad = Params3(p.a1 * 1.01, p.a2, p.a3, p.b1, p.b2, p.b3, p.A, p.B)
        with pytest.raises(BalanceError):
            build_e3(bad, ctx)

    def test_elementary_symmetric(self):
        from qhyp.equations import e_sym

        assert e_sym([1, 2, 3], 2) == 11
        assert e_sym([1, 2, 3], 0) == 1
        assert e_sym([1, 2], 3) == 0


def convolved_e_sym(vals, k):
    """The convolution loop e_sym ran before numpy.poly, kept as reference."""
    vals = [complex(v) for v in vals]
    if k == 0:
        return 1.0 + 0.0j
    if k > len(vals):
        return 0.0 + 0.0j
    coeffs = np.array([1.0 + 0.0j])
    for v in vals:
        coeffs = np.convolve(coeffs, np.array([1.0 + 0.0j, v]))
    return complex(coeffs[k])


def convolved_monic_product(roots):
    """The convolution loop _monic_product ran before numpy.poly."""
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([1.0 + 0.0j, -complex(r)]))
    deg = len(coeffs) - 1
    return {deg - k: complex(coeffs[k]) for k in range(len(coeffs))}


_VALUE = st.builds(cmath.rect, st.floats(0.0, 3.0), st.floats(-math.pi, math.pi))
# generic lists, real lists and conjugate-closed lists (where numpy.poly
# returns a real array)
_VALUES = st.one_of(
    st.lists(_VALUE, max_size=4),
    st.lists(st.floats(-3.0, 3.0), max_size=4),
    st.lists(_VALUE, max_size=2).map(lambda vs: vs + [v.conjugate() for v in vs]),
)


def conjugate_closed(vals):
    """numpy.poly's test for returning the real part of its product."""
    a = np.array(vals, dtype=complex)
    return bool(np.all(np.sort(a) == np.sort(a.conj())))


class TestPolynomialProducts:
    @settings(max_examples=300, deadline=None)
    @given(vals=_VALUES)
    def test_bit_identical_to_the_convolution_loops(self, vals):
        """numpy.poly runs the same convolutions: every coefficient agrees to
        the bit, the sign of a zero imaginary part included.  For a
        conjugate-closed list, whose exact product is real, it keeps the
        real parts (bit-identical) and drops imaginary rounding noise."""
        from qhyp.equations import _monic_product, e_sym

        def expected(z):
            return complex(z.real, 0.0) if conjugate_closed(vals) else z

        ref = convolved_monic_product(vals)
        assert repr(sorted(_monic_product(vals).items())) == repr(
            sorted((k, expected(c)) for k, c in ref.items()))
        for k in range(len(vals) + 2):
            assert repr(e_sym(vals, k)) == repr(expected(convolved_e_sym(vals, k)))


class TestOperatorConvention:
    def test_degree2_sign_variant_selected_by_solutions(self, ctx, rng):
        """Two sign/exponent conventions circulate for the degree-two
        operator's middle row and constant term; only the adopted one is
        annihilated by the integral solutions (and only it matches the
        catalogued configuration)."""
        from qhyp.equations import e_sym, qpow
        from qhyp.opalgebra import QDiffOperator
        from qhyp.solutions import Endpoint, integral_scale, phi2

        p = draw_params2(rng, ctx)
        q = complex(ctx.q)
        qa = qpow(q, p.alpha)
        e1a, e1b = e_sym(p.a_list(), 1), e_sym(p.b_list(), 1)
        e2a = e_sym(p.a_list(), 2)
        X = QDiffOperator.x_power(q)
        T = QDiffOperator.t_power(q)
        one = QDiffOperator.constant(q, 1.0)
        rejected = (
            X * X * ((one - qa * T) * (p.B * one - p.A * T))
            - X * ((e1a * one - q * e1b * T) * (one - T))
            - (e2a / p.B) * ((one - (1.0 / q) * T) * (one - T))
        ) * QDiffOperator.t_power(q, -1)
        adopted = build_e2(p, ctx)
        f = lambda y: phi2(p, Endpoint.q_over_a(1), Endpoint.q_over_a(2), y, ctx)
        x = 0.3 * integral_scale(p, ctx)
        good = adopted.apply_terms(f, x)
        bad = rejected.apply_terms(f, x)
        assert abs(sum(good)) / sum(abs(t) for t in good) < 1e-10
        assert abs(sum(bad)) / sum(abs(t) for t in bad) > 1e-3
        cfg = rejected.configuration(ctx)
        assert not cfg.matches(expected_configuration("e2", p, ctx), 1e-8)


class TestGaugeDictionaries:
    def test_degree3_to_h3(self, ctx, rng):
        p = draw_params3(rng, ctx)
        hp, mu = params3_to_h3(p, 0.37 + 0.05j, ctx)
        lhs = build_e3(p, ctx).gauge_power(mu)
        ratio = lhs.ratio_to(build_h3(hp, ctx))
        assert ratio is not None

    def test_degree2_to_h2(self, ctx, rng):
        p = draw_params2(rng, ctx)
        hp, mu = params2_to_h2(p, 0.21 - 0.1j, ctx)
        lhs = build_e2(p, ctx).gauge_power(mu)
        assert lhs.ratio_to(build_h2(hp, ctx)) is not None


class TestRigidity:
    @pytest.mark.parametrize("kind,draw,build", [
        ("h2", draw_h2, build_h2),
        ("h3", draw_h3, build_h3),
    ])
    def test_configuration_determines_operator(self, kind, draw, build, ctx, rng):
        p = draw(rng, ctx)
        op = build(p, ctx)
        rec = rigidity_reconstruct(op.coeffs, expected_configuration(kind, p, ctx), ctx)
        assert rec.ratio_to(op, rel_tol=1e-6) is not None

    @staticmethod
    def _draws(kind):
        """(operator, params, ctx) of seeds 0-19, q in [0.35, 0.55]."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ctx = QContext(rng.uniform(0.35, 0.55))
            p = draw_equation_params(kind, rng, ctx)
            yield BUILDERS[kind](p, ctx), p, ctx

    @pytest.mark.parametrize("source", ["catalogued", "computed"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_equation(self, kind, source):
        """The five rigid equations are their configuration's one operator;
        the q-Heun pair keeps its accessory parameter free."""
        for op, p, ctx in self._draws(kind):
            cfg = (expected_configuration(kind, p, ctx) if source == "catalogued"
                   else op.configuration(ctx))
            if kind in ("qheun", "qheun3"):
                with pytest.raises(ArithmeticError, match="dimension 2"):
                    rigidity_reconstruct(op.coeffs, cfg, ctx)
            else:
                rec = rigidity_reconstruct(op.coeffs, cfg, ctx)
                assert rec.ratio_to(op, rel_tol=1e-6) is not None, (kind, ctx.q)

    @pytest.mark.parametrize("kind", ["heine", "h2", "h3", "e2", "e3"])
    def test_moved_root_misses_the_operator(self, kind):
        """Negative control: one T = 0 root moved by 1e-3 (relative) no longer
        gives the builder's operator."""
        for op, p, ctx in self._draws(kind):
            cfg = expected_configuration(kind, p, ctx)
            moved = replace(cfg, roots_T0=(cfg.roots_T0[0] * (1 + 1e-3), *cfg.roots_T0[1:]))
            try:
                rec = rigidity_reconstruct(op.coeffs, moved, ctx)
            except ArithmeticError:
                continue
            assert rec.ratio_to(op, rel_tol=1e-6) is None, (kind, ctx.q)

    @pytest.mark.parametrize("kind", ["qheun", "qheun3"])
    def test_broken_heun_configuration_is_refused(self, kind):
        """A q-Heun configuration whose product relation fails (one T = 0
        root moved by 1e-3) leaves one null vector, zero on the boundary of
        the support: refused, not returned as a one-term operator."""
        ctx = QContext(0.45)
        p = draw_equation_params(kind, np.random.default_rng(0), ctx)
        op = BUILDERS[kind](p, ctx)
        cfg = expected_configuration(kind, p, ctx)
        moved = replace(cfg, roots_T0=(cfg.roots_T0[0] * (1 + 1e-3), *cfg.roots_T0[1:]))
        with pytest.raises(ArithmeticError, match="bounding box"):
            rigidity_reconstruct(op.coeffs, moved, ctx)

    def test_short_line_is_refused(self, ctx):
        """A boundary line with fewer entries than its roots + 1 is an input
        error, not an IndexError."""
        cfg = Configuration((1.0, 2.0, 3.0), (1.0,), (1.0,), (1.0,))
        with pytest.raises(ValueError, match="cannot carry 3 roots"):
            rigidity_reconstruct({(0, 0), (0, 1), (1, 0), (1, 1)}, cfg, ctx)


class TestDegenerations:
    def test_degree3_to_degree2(self, ctx, rng):
        p2 = draw_params2(rng, ctx)
        rep = verify_degeneration("e3_to_e2", p2, [1e5, 1e7, 1e9], ctx)
        assert rep.monotone and rep.passed
        assert rep.deviations[-1] < 1e-7

    def test_h3_to_h2(self, ctx, rng):
        p = draw_h3(rng, ctx)
        rep = verify_degeneration("h3_to_h2", p, [1e5, 1e7, 1e9], ctx)
        assert rep.monotone and rep.passed

    def test_h2_to_heine(self, ctx, rng):
        base = draw_h2(rng, ctx)
        p = H2Params(0.5, base.alpha1 + base.alpha2 + base.l1 - 1.5 + base.l2,
                     base.l1, base.l2, 1.0, 1.0, base.alpha1, base.alpha2)
        rep = verify_degeneration("h2_to_heine", p, [1e-5, 1e-7, 1e-9], ctx)
        assert rep.monotone and rep.passed

    @pytest.mark.parametrize("seed", range(5))
    def test_h2_to_heine_pins_its_base(self, seed):
        """A raw draw gives the report of the tuple pinned to the slice
        t1 = 1, h1 = 1/2, h2 = alpha1 + alpha2 + l1 - 3/2 + l2, bit for bit;
        the check used to take the raw tuple as it was."""
        ctx = QContext(0.45)
        raw = draw_h2(np.random.default_rng(seed), ctx)
        pinned = H2Params(0.5, raw.alpha1 + raw.alpha2 + raw.l1 - 1.5 + raw.l2,
                          raw.l1, raw.l2, 1.0, raw.t2, raw.alpha1, raw.alpha2)
        scales = [1e-5, 1e-7, 1e-9]
        rep = verify_degeneration("h2_to_heine", raw, scales, ctx)
        ref = verify_degeneration("h2_to_heine", pinned, scales, ctx)
        assert rep == ref and repr(rep) == repr(ref)
        assert rep.passed

    def test_single_scale_reports_no_monotonicity(self, ctx, rng):
        p2 = draw_params2(rng, ctx)
        rep = verify_degeneration("e3_to_e2", p2, [1e6], ctx)
        assert rep.monotone is None
        assert len(rep.deviations) == 1
