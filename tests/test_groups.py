"""Symmetry groups: displayed relations as parameter maps, orbit structure,
and residual-preserving transport of solutions."""

import numpy as np
import pytest

from qhyp.errors import QhypError
from qhyp.groups import (
    apply_word,
    check_relations,
    group_action,
    orbit,
    params_to_state,
    solution_transport,
    state_to_params,
)
from qhyp.qcore import QContext
from qhyp.solutions import residual, sample_points, solution_handle
from qhyp.sampling import draw_heine, draw_params2, draw_params3


def transported_at(group, word, label, params, x, ctx):
    """One point of a transported solution, written out: the gauge factors
    of the word along the moved point, times the one-point value of the
    catalogued solution at the transformed parameters and the moved point;
    or the error either raises."""
    try:
        m, state, y = 1.0 + 0.0j, params_to_state(params, x, ctx), complex(x)
        for idx in word:
            state, gauge = group_action(group, idx, state, ctx)
            m *= gauge.factor(y, ctx)
            y = complex(state[-1])
        return m * solution_handle(label, state_to_params(group, state, ctx), ctx)(y)
    except (QhypError, ArithmeticError, ValueError) as exc:
        return exc


@pytest.fixture
def states(rng, ctx):
    return {
        "G1": params_to_state(draw_heine(rng, ctx), 0.7 + 0.2j, ctx),
        "G2": params_to_state(draw_params2(rng, ctx), 0.7 + 0.2j, ctx),
        "G3": params_to_state(draw_params3(rng, ctx), 0.7 + 0.2j, ctx),
    }


class TestRelations:
    @pytest.mark.parametrize("group", ["G1", "G2", "G3"])
    def test_displayed_relations(self, group, rng):
        for _ in range(20):
            ctx = QContext(rng.uniform(0.35, 0.55))
            if group == "G1":
                p = draw_heine(rng, ctx)
            elif group == "G2":
                p = draw_params2(rng, ctx)
            else:
                p = draw_params3(rng, ctx)
            state = params_to_state(p, complex(rng.uniform(0.3, 1.2)), ctx)
            devs = check_relations(group, state, ctx)
            assert max(devs.values()) < 1e-12

    def test_generators_preserve_balance(self, ctx, states):
        for i in range(1, 7):
            new, _ = group_action("G3", i, states["G3"], ctx)
            assert state_to_params("G3", new, ctx).balance_deviation(ctx) < 1e-12
        for i in range(1, 5):
            new, _ = group_action("G2", i, states["G2"], ctx)
            assert state_to_params("G2", new, ctx).balance_deviation(ctx) < 1e-12

    def test_invalid_index(self, ctx, states):
        with pytest.raises(ValueError):
            group_action("G1", 5, states["G1"], ctx)


class TestOrbit:
    def test_g1_orbit_size(self, ctx, states):
        """The parameter action collapses: (s1 s4)^2 acts as s1 s2, so the
        transformation group has order 16 and a generic orbit 16 points (the
        catalogued order-32 count is not realized by the parameter maps)."""
        orb = orbit("G1", states["G1"], ctx)
        assert len(orb) == 16
        collapsed = apply_word("G1", [4, 1, 4, 1], states["G1"], ctx)
        direct = apply_word("G1", [2, 1], states["G1"], ctx)
        assert max(abs(complex(u) - complex(v)) for u, v in zip(collapsed, direct)) < 1e-12


class TestTransport:
    def test_empty_word_is_identity(self, ctx, rng):
        p = draw_heine(rng, ctx)
        h = solution_transport("G1", [], "heine.1", p, ctx)
        from qhyp.solutions import solution_handle

        base = solution_handle("heine.1", p, ctx)
        z = 0.3
        assert h(z) == base(z)

    @pytest.mark.parametrize("group,label,n_gen", [
        ("G1", "heine.1", 4),
        ("G2", "thmser2.1", 4),
        ("G3", "thmser3.1", 6),
    ])
    def test_each_generator_preserves_residual(self, group, label, n_gen, ctx, rng):
        if group == "G1":
            p = draw_heine(rng, ctx)
        elif group == "G2":
            p = draw_params2(rng, ctx, series_room=True)
        else:
            p = draw_params3(rng, ctx, series_room=True)
        for i in range(1, n_gen + 1):
            h = solution_transport(group, [i], label, p, ctx)
            xs = sample_points(h, 4, ctx)
            assert residual(h.equation, h, xs, ctx) < 1e-8, (group, i)

    def test_two_letter_words(self, ctx, rng):
        p = draw_params3(rng, ctx, series_room=True)
        for word in ([2, 3], [1, 5], [3, 4]):
            h = solution_transport("G3", word, "thmser3.1", p, ctx)
            xs = sample_points(h, 3, ctx)
            assert residual(h.equation, h, xs, ctx) < 1e-8, word

    def test_relation_word_acts_as_pseudo_constant(self, ctx, rng):
        """Relation words multiply solutions by pseudo-constants (invariant
        under the q-shift), the scalars of the solution module."""
        from qhyp.solutions import solution_handle

        p = draw_heine(rng, ctx)
        base = solution_handle("heine.1", p, ctx)
        h = solution_transport("G1", [3, 4, 3, 4, 3, 4, 3, 4], "heine.1", p, ctx)
        q = complex(ctx.q)
        for z in (0.2, 0.3):
            r1 = h(z) / base(z)
            r2 = h(q * z) / base(q * z)
            assert abs(r2 / r1 - 1) < 1e-10

    @staticmethod
    def composed_point_map(group, word, params, ctx):
        """Reference: the final state and the point map z -> u z^eps of a
        word, composed from a table of each generator's map."""
        q = complex(ctx.q)

        def step(index, state):
            a, b, c = state[:3]
            if group == "G1" and index == 3:
                return a * b / c, 1
            if group == "G1" and index == 4:
                return c * q / (a * b), -1
            if group == "G3" and index == 2:
                return 1.0 + 0.0j, -1
            return 1.0 + 0.0j, 1

        state, u, eps = params_to_state(params, 1.0, ctx), 1.0 + 0.0j, 1
        for idx in word:
            step_u, step_eps = step(idx, state)
            # compose (u', eps') after (u, eps): z -> u' (u z^eps)^eps'
            u, eps = step_u * u**step_eps, eps * step_eps
            state, _ = group_action(group, idx, state, ctx)
        return state, u, eps

    @pytest.mark.parametrize("group,word,label", [
        ("G1", [4], "heine.1"),
        ("G1", [3, 4], "heine.1"),
        ("G3", [2], "thmser3.1"),
    ])
    def test_interval_and_scale_follow_the_composed_point_map(self, group, word, label, ctx,
                                                              rng):
        """The transported interval and scale are the preimages of the inner
        handle's under |z| -> |u| |z|^eps, with u and eps composed generator
        by generator, to rounding: for s3 s4 of G1, |u| = q, which here the
        transport reads to the last bit and the composition one unit off."""
        p = draw_heine(rng, ctx) if group == "G1" else draw_params3(rng, ctx, series_room=True)
        state, u, eps = self.composed_point_map(group, word, p, ctx)
        assert eps == -1
        inner = solution_handle(label, state_to_params(group, state, ctx), ctx)
        lo, hi = inner.interval
        interval = (abs(u) / hi if np.isfinite(hi) and hi > 0 else 0.0,
                    abs(u) / lo if lo > 0 else np.inf)
        h = solution_transport(group, word, label, p, ctx)
        assert h.interval == pytest.approx(interval, rel=1e-14)
        assert h.scale == pytest.approx(abs(u) / inner.scale, rel=1e-14)

    @pytest.mark.parametrize("group,word,label", [
        ("G1", [1, 3], "heine.1"),
        ("G2", [4], "thmser2.1"),
        ("G3", [2], "thmser3.1"),
    ])
    def test_read_equals_the_point_by_point_value(self, group, word, label, ctx, rng):
        """read(xs) of a transported handle is, bit for bit, the gauge chain
        times the inner solution's one-point value at each point.  A point
        where the transport raises (a pole of a gauge Pochhammer ratio at
        z = 1 or x = a1 / (q B), 1 / x at 0) keeps that error in its slot,
        and so does one where the inner value raises (past the inner
        series' domain)."""
        if group == "G1":
            p = draw_heine(rng, ctx)
        elif group == "G2":
            p = draw_params2(rng, ctx, series_room=True)
        else:
            p = draw_params3(rng, ctx, series_room=True)
        h = solution_transport(group, word, label, p, ctx)
        xs = sample_points(h, 6, ctx)
        if group == "G1":
            xs += [1.0, 40 * xs[-1]]
        elif group == "G2":
            xs += [p.a1 / (ctx.q * p.B), 40 * xs[-1]]
        else:
            xs += [0.0, xs[0] / 40]
        got = h.read(xs)
        assert [isinstance(entry, Exception) for entry in got] == [False] * 6 + [True] * 2
        for x, entry in zip(xs, got):
            want = transported_at(group, word, label, p, x, ctx)
            if isinstance(want, Exception):
                assert type(entry) is type(want) and str(entry) == str(want), x
            else:
                assert repr(entry) == repr(want), x
