"""The admissible-parameter samplers of ``qhyp.sampling`` against the code
they replaced.

The reference functions below are the q-power scans of the samplers
(``_q_window_clear`` and ``_pairwise_clear``), the public drawers and
``draw_equation_params`` as they were before the samplers shared one
proximity test, one field sampler and one kind table, copied unchanged apart
from a ``ref_`` prefix on their names.  The shared test
must decide every edge value as the scans did, and every draw must be the
same tuple of the same floats (``==`` and ``repr``) for the same seed.
"""

import cmath
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from qhyp import sampling
from qhyp.equations import (
    H2Params,
    H3Params,
    HeineParams,
    Heun3Params,
    HeunParams,
    Params2,
    Params3,
    qpow,
)
from qhyp.qcore import QContext
from qhyp.sampling import _near_q_power
from qhyp.solutions import CATALOGUE

KINDS = ("heine", "qheun", "qheun3", "h2", "h3", "e2", "e3")


# -- references: the scans and drawers before the shared helpers -------------------------


REF_MAX_REDRAWS = 2000


def ref_unit(rng: np.random.Generator, phase: float = 0.85) -> complex:
    return complex(np.exp(1j * rng.uniform(-phase * np.pi, phase * np.pi)))


def ref_mod(rng: np.random.Generator, lo: float, hi: float, phase: float = 0.85) -> complex:
    return rng.uniform(lo, hi) * ref_unit(rng, phase)


def ref_q_window_clear(value: complex, q: complex, lo: int, hi: int, margin: float) -> bool:
    for k in range(lo, hi + 1):
        t = complex(q) ** k
        if abs(value - t) <= margin * max(abs(t), 1e-12):
            return False
    return True


def ref_pairwise_clear(vals_num, vals_den, q, margin=0.05, window=40) -> bool:
    """Every ratio n/d stays ``margin`` away from integer powers of q."""
    for n in vals_num:
        for d in vals_den:
            if not ref_q_window_clear(n / d, q, -window, window, margin):
                return False
    return True


def ref_draw_params3(
    rng: np.random.Generator,
    ctx: QContext,
    series_room: bool = False,
) -> Params3:
    """Admissible degree-three tuple: balance holds by construction, B/A off
    the q-power grid, pairwise b/a ratios clear of pole grids.

    With ``series_room`` the draw also keeps the x-free series arguments
    inside the unit disc (|q b3/a1| and |q B/A| below 0.85).
    """
    q = complex(ctx.q)
    for _ in range(REF_MAX_REDRAWS):
        a = [ref_mod(rng, 0.8, 1.5) for _ in range(3)]
        b = [ref_mod(rng, 0.8, 1.5) for _ in range(3)]
        B = ref_mod(rng, 0.9, 1.3)
        A = q**2 * b[0] * b[1] * b[2] * B / (a[0] * a[1] * a[2])
        p = Params3(a[0], a[1], a[2], b[0], b[1], b[2], A, B)
        if not ref_q_window_clear(B / A, q, -64, 64, 1e-3):
            continue
        if not ref_pairwise_clear(b, a, q):
            continue
        if series_room and (abs(q * b[2] / a[0]) > 0.85 or abs(q * B / A) > 0.85):
            continue
        return p
    raise RuntimeError("could not draw admissible degree-three parameters")


def ref_draw_params2(
    rng: np.random.Generator,
    ctx: QContext,
    series_room: bool = False,
) -> Params2:
    """Admissible degree-two tuple; alpha has positive real part so the
    endpoint at 0 and the bilateral endpoint both converge."""
    q = complex(ctx.q)
    for _ in range(REF_MAX_REDRAWS):
        alpha = complex(rng.uniform(0.35, 1.3), rng.uniform(-0.3, 0.3))
        a = [ref_mod(rng, 0.8, 1.5) for _ in range(2)]
        b = [ref_mod(rng, 0.8, 1.5) for _ in range(2)]
        B = ref_mod(rng, 0.9, 1.3)
        A = qpow(q, alpha + 1) * b[0] * b[1] * B / (a[0] * a[1])
        p = Params2(alpha, a[0], a[1], b[0], b[1], A, B)
        if not ref_q_window_clear(B / A, q, -64, 64, 1e-3):
            continue
        if not ref_q_window_clear(qpow(q, alpha), q, -8, 8, 0.02):
            continue
        if not ref_pairwise_clear(b, a, q):
            continue
        if series_room and abs(A / B) > 0.85:
            continue
        return p
    raise RuntimeError("could not draw admissible degree-two parameters")


def ref_draw_heine(rng: np.random.Generator, ctx: QContext) -> HeineParams:
    """Generic Heine-family triple with all 32 catalogue domains usable."""
    q = complex(ctx.q)
    for _ in range(REF_MAX_REDRAWS):
        a = ref_mod(rng, 0.5, 1.6, phase=0.7)
        b = ref_mod(rng, 0.5, 1.6, phase=0.7)
        c = ref_mod(rng, 0.5, 1.6, phase=0.7)
        p = HeineParams(a, b, c)
        vals = [a, b, c, a * b / c, a / b, c / a, c / b, a * q / c, b * q / c]
        if not ref_pairwise_clear(vals, [1.0], q, margin=0.04, window=12):
            continue
        if abs(a * b / c) > 6 or abs(a * b / c) < 0.15:
            continue
        return p
    raise RuntimeError("could not draw admissible Heine parameters")


def ref_draw_params2_terminating(
    rng: np.random.Generator, ctx: QContext, n: int = 4
) -> Params2:
    """Degree-two tuple with A/B = q^-n, the regime in which the term-by-term
    series degeneration from degree three is exact (the series terminate);
    alpha is then pinned by the balance constraint."""
    q = complex(ctx.q)
    for _ in range(REF_MAX_REDRAWS):
        a = [ref_mod(rng, 0.8, 1.5) for _ in range(2)]
        b = [ref_mod(rng, 0.8, 1.5) for _ in range(2)]
        B = ref_mod(rng, 0.9, 1.3)
        A = q ** (-n) * B
        alpha = cmath.log(a[0] * a[1] * A / (b[0] * b[1] * B)) / cmath.log(q) - 1
        p = Params2(alpha, a[0], a[1], b[0], b[1], A, B)
        if not ref_pairwise_clear(b, a, q):
            continue
        return p
    raise RuntimeError("could not draw terminating degree-two parameters")


def ref_draw_heine_extra(rng: np.random.Generator, ctx: QContext, which: int) -> HeineParams:
    """Parameters for the two extra catalogue entries: the terminating factor
    for the formal series, the unit-disc constraint for the integral-analog."""
    p = ref_draw_heine(rng, ctx)
    q = complex(ctx.q)
    if which == 1:
        return HeineParams(q ** (-3), p.b, p.c)
    return HeineParams(p.a * 0.55 / abs(p.a), p.b, p.c)


def ref_draw_heine_for(
    rng: np.random.Generator, ctx: QContext, which: int, n: int = 2
) -> HeineParams:
    """Heine parameters admissible for catalogue row ``which``: generic for
    the everywhere-valid rows, with the row's terminating relation imposed
    for the zero-slot rows."""
    p = ref_draw_heine(rng, ctx)
    terminating = CATALOGUE[f"heine.{which}"].condition
    return p if terminating is None else terminating(p, complex(ctx.q), n)


def ref_draw_heun(rng: np.random.Generator, ctx: QContext) -> HeunParams:
    return HeunParams(
        h1=ref_expn(rng), h2=ref_expn(rng), l1=ref_expn(rng), l2=ref_expn(rng),
        t1=ref_mod(rng, 0.6, 1.5), t2=ref_mod(rng, 0.6, 1.5),
        alpha1=ref_expn(rng), alpha2=ref_expn(rng), beta=ref_expn(rng),
        E=ref_mod(rng, 0.3, 1.2),
    )


def ref_draw_heun3(rng: np.random.Generator, ctx: QContext) -> Heun3Params:
    return Heun3Params(
        h1=ref_expn(rng), h2=ref_expn(rng), h3=ref_expn(rng),
        l1=ref_expn(rng), l2=ref_expn(rng), l3=ref_expn(rng),
        t1=ref_mod(rng, 0.6, 1.5), t2=ref_mod(rng, 0.6, 1.5), t3=ref_mod(rng, 0.6, 1.5),
        beta=ref_expn(rng), E=ref_mod(rng, 0.3, 1.2),
    )


def ref_draw_h2(rng: np.random.Generator, ctx: QContext) -> H2Params:
    return H2Params(
        h1=ref_expn(rng), h2=ref_expn(rng), l1=ref_expn(rng), l2=ref_expn(rng),
        t1=ref_mod(rng, 0.6, 1.5), t2=ref_mod(rng, 0.6, 1.5),
        alpha1=ref_expn(rng), alpha2=ref_expn(rng),
    )


def ref_draw_h3(rng: np.random.Generator, ctx: QContext) -> H3Params:
    return H3Params(
        h1=ref_expn(rng), h2=ref_expn(rng), h3=ref_expn(rng),
        l1=ref_expn(rng), l2=ref_expn(rng), l3=ref_expn(rng),
        t1=ref_mod(rng, 0.6, 1.5), t2=ref_mod(rng, 0.6, 1.5), t3=ref_mod(rng, 0.6, 1.5),
        alpha=ref_expn(rng),
    )


def ref_expn(rng: np.random.Generator) -> complex:
    return complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.25, 0.25))


def ref_draw_equation_params(kind: str, rng: np.random.Generator, ctx: QContext):
    if kind == "heine":
        return ref_draw_heine(rng, ctx)
    if kind == "qheun":
        return ref_draw_heun(rng, ctx)
    if kind == "qheun3":
        return ref_draw_heun3(rng, ctx)
    if kind == "h2":
        return ref_draw_h2(rng, ctx)
    if kind == "h3":
        return ref_draw_h3(rng, ctx)
    if kind == "e2":
        return ref_draw_params2(rng, ctx, series_room=True)
    if kind == "e3":
        return ref_draw_params3(rng, ctx, series_room=True)
    raise ValueError(f"unknown equation kind {kind!r}")


# -- the shared proximity test --------------------------------------------------------------


@st.composite
def edge_cases(draw):
    """A value on or at the margin of some q^k, |k| <= 64, and a window that
    may or may not hold k.  The margins are relative to |q^k|, to 1 and to
    1e-12, so that |q^k| falls on either side of the samplers' floor 1e-12."""
    modulus = draw(st.floats(0.35, 0.55))
    angle = draw(st.one_of(st.just(0.0), st.just(math.pi), st.floats(-math.pi, math.pi)))
    q = modulus if angle == 0.0 and draw(st.booleans()) else cmath.rect(modulus, angle)
    # k near the power where |q^k| crosses 1e-12, or anywhere in the window
    crossing = round(math.log(1e-12) / math.log(modulus))
    k = draw(st.one_of(st.integers(crossing - 2, crossing + 2), st.integers(-64, 64)))
    k = max(-64, min(64, k))
    tol = draw(st.sampled_from((1e-6, 1e-3, 0.02, 0.04, 0.05)))
    target = complex(q) ** k
    scale = draw(st.sampled_from((abs(target), 1.0, 1e-12)))
    stretch = draw(st.sampled_from((0.0, 1.0, 1.0 - 2**-52, 1.0 + 2**-52, 0.5, 2.0)))
    if draw(st.booleans()):
        value = target * (1 + draw(st.sampled_from((1.0, -1.0))) * tol * stretch)
    else:
        value = target + tol * scale * stretch * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    lo = draw(st.integers(-64, k))
    hi = draw(st.integers(k, 64))
    if draw(st.booleans()):
        lo, hi = draw(st.sampled_from(((-64, 64), (-40, 40), (-12, 12), (-8, 8), (-1, 64), (-64, 0))))
    return value, q, lo, hi, tol


class TestNearQPower:
    @settings(max_examples=400, deadline=None)
    @given(case=edge_cases())
    def test_equals_both_old_scans(self, case):
        value, q, lo, hi, tol = case
        assert _near_q_power(value, q, lo, hi, tol) == (
            not ref_q_window_clear(value, q, lo, hi, tol))

    @settings(max_examples=100, deadline=None)
    @given(case=edge_cases(), others=st.lists(st.builds(cmath.rect, st.floats(0.3, 2.0),
                                                        st.floats(-math.pi, math.pi)),
                                              max_size=3))
    def test_clear_equals_pairwise_scan(self, case, others):
        value, q, _, hi, tol = case
        values = [value, *others]
        assert sampling._clear(values, q, hi, tol) == ref_pairwise_clear(
            values, [1.0], q, margin=tol, window=hi)
        assert sampling._clear((n / d for n in values for d in others), q) == ref_pairwise_clear(
            values, others, q)

    def test_floors(self):
        # 2e-13 is not within 1e-6 * max(|q^40|, 1e-12) of q^40 ~ 1.4e-14,
        # and no small power is near a smaller one
        q = 0.45
        assert not _near_q_power(2e-13, q, 40, 40, 1e-6)
        assert _near_q_power(q**40 * (1 + 1e-7), q, 40, 40, 1e-6)
        assert not _near_q_power(q**40, q, 41, 64, 1e-6)


# -- every draw --------------------------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except RuntimeError as exc:  # a drawer that ran out of redraws
        return f"RuntimeError: {exc}"


def assert_same_draw(draw_new, draw_ref, seed, ctx, *args, **kwargs):
    """The same tuple of the same floats (``==`` and ``repr``), or the same
    error, from the same seed."""
    new = outcome(draw_new, np.random.default_rng(seed), ctx, *args, **kwargs)
    old = outcome(draw_ref, np.random.default_rng(seed), ctx, *args, **kwargs)
    assert new == old and repr(new) == repr(old), (draw_new, args, kwargs, new, old)


# A failing seed is reported as found: its message names the drawer and both
# draws, and shrinking would redraw up to 2,000 tuples per step.
checked = settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
seeds = st.integers(0, 2**32 - 1)
contexts = st.builds(QContext, st.floats(0.35, 0.55))


class TestDrawsEqualTheReferences:
    @settings(checked, max_examples=60)
    @given(seed=seeds, ctx=contexts, which=st.integers(1, 32), n=st.integers(0, 5))
    def test_drawers(self, seed, ctx, which, n):
        for new, ref, args in (
            (sampling.draw_params3, ref_draw_params3, ()),
            (sampling.draw_params2, ref_draw_params2, ()),
            (sampling.draw_params2, ref_draw_params2, (True,)),
            (sampling.draw_heine, ref_draw_heine, ()),
            (sampling.draw_params2_terminating, ref_draw_params2_terminating, ()),
            (sampling.draw_params2_terminating, ref_draw_params2_terminating, (n,)),
            (partial(sampling.draw_heine_for, label="heine_extra.1"),
             partial(ref_draw_heine_extra, which=1), ()),
            (partial(sampling.draw_heine_for, label="heine_extra.2"),
             partial(ref_draw_heine_extra, which=2), ()),
            (partial(sampling.draw_heine_for, label=f"heine.{which}", n=n),
             partial(ref_draw_heine_for, which=which, n=n), ()),
            (sampling.draw_heun, ref_draw_heun, ()),
            (sampling.draw_heun3, ref_draw_heun3, ()),
            (sampling.draw_h2, ref_draw_h2, ()),
            (sampling.draw_h3, ref_draw_h3, ()),
        ):
            assert_same_draw(new, ref, seed, ctx, *args)
        for kind in KINDS[:-1]:
            assert_same_draw(partial(sampling.draw_equation_params, kind),
                             partial(ref_draw_equation_params, kind), seed, ctx)

    # the series-room degree-three draw takes up to ~0.4 s at q = 0.35
    @settings(checked, max_examples=8)
    @given(seed=seeds, ctx=contexts)
    def test_e3(self, seed, ctx):
        assert_same_draw(sampling.draw_params3, ref_draw_params3, seed, ctx, series_room=True)
        assert_same_draw(partial(sampling.draw_equation_params, "e3"),
                         partial(ref_draw_equation_params, "e3"), seed, ctx)

    def test_unknown_kind(self, ctx):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="unknown equation kind 'e4'"):
            sampling.draw_equation_params("e4", rng, ctx)
        with pytest.raises(ValueError, match="unknown equation kind 'e4'"):
            ref_draw_equation_params("e4", rng, ctx)
