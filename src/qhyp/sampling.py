"""Seeded random parameter draws with the admissibility margins the
verification sweeps need (balance constraints, genericity windows, pole-free
sampling windows, convergence room)."""

from __future__ import annotations

import cmath
from dataclasses import fields

import numpy as np

from .equations import (
    H2Params,
    H3Params,
    HeineParams,
    Heun3Params,
    HeunParams,
    Params2,
    Params3,
    _near_q_power,
    qpow,
)
from .qcore import QContext
from .solutions import CATALOGUE

_MAX_REDRAWS = 2000


def _unit(rng: np.random.Generator, phase: float = 0.85) -> complex:
    return complex(np.exp(1j * rng.uniform(-phase * np.pi, phase * np.pi)))


def _mod(rng: np.random.Generator, lo: float, hi: float, phase: float = 0.85) -> complex:
    return rng.uniform(lo, hi) * _unit(rng, phase)


def _clear(values, q: complex, window: int = 40, margin: float = 0.05) -> bool:
    """Every value stays ``margin`` (relative) away from q^k, |k| <= window."""
    return not any(_near_q_power(v, q, -window, window, margin, 1e-12) for v in values)


def draw_params3(
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
    for _ in range(_MAX_REDRAWS):
        a = [_mod(rng, 0.8, 1.5) for _ in range(3)]
        b = [_mod(rng, 0.8, 1.5) for _ in range(3)]
        B = _mod(rng, 0.9, 1.3)
        A = q**2 * b[0] * b[1] * b[2] * B / (a[0] * a[1] * a[2])
        p = Params3(a[0], a[1], a[2], b[0], b[1], b[2], A, B)
        if not _clear([B / A], q, 64, 1e-3):
            continue
        if not _clear((n / d for n in b for d in a), q):
            continue
        if series_room and (abs(q * b[2] / a[0]) > 0.85 or abs(q * B / A) > 0.85):
            continue
        return p
    raise RuntimeError("could not draw admissible degree-three parameters")


def draw_params2(
    rng: np.random.Generator,
    ctx: QContext,
    series_room: bool = False,
) -> Params2:
    """Admissible degree-two tuple; alpha has positive real part so the
    endpoint at 0 and the bilateral endpoint both converge."""
    q = complex(ctx.q)
    for _ in range(_MAX_REDRAWS):
        alpha = complex(rng.uniform(0.35, 1.3), rng.uniform(-0.3, 0.3))
        a = [_mod(rng, 0.8, 1.5) for _ in range(2)]
        b = [_mod(rng, 0.8, 1.5) for _ in range(2)]
        B = _mod(rng, 0.9, 1.3)
        A = qpow(q, alpha + 1) * b[0] * b[1] * B / (a[0] * a[1])
        p = Params2(alpha, a[0], a[1], b[0], b[1], A, B)
        if not _clear([B / A], q, 64, 1e-3):
            continue
        if not _clear([qpow(q, alpha)], q, 8, 0.02):
            continue
        if not _clear((n / d for n in b for d in a), q):
            continue
        if series_room and abs(A / B) > 0.85:
            continue
        return p
    raise RuntimeError("could not draw admissible degree-two parameters")


def draw_heine(rng: np.random.Generator, ctx: QContext) -> HeineParams:
    """Generic Heine-family triple with all 32 catalogue domains usable."""
    q = complex(ctx.q)
    for _ in range(_MAX_REDRAWS):
        a = _mod(rng, 0.5, 1.6, phase=0.7)
        b = _mod(rng, 0.5, 1.6, phase=0.7)
        c = _mod(rng, 0.5, 1.6, phase=0.7)
        p = HeineParams(a, b, c)
        vals = [a, b, c, a * b / c, a / b, c / a, c / b, a * q / c, b * q / c]
        if not _clear(vals, q, 12, 0.04):
            continue
        if abs(a * b / c) > 6 or abs(a * b / c) < 0.15:
            continue
        return p
    raise RuntimeError("could not draw admissible Heine parameters")


def draw_params2_terminating(
    rng: np.random.Generator, ctx: QContext, n: int = 4
) -> Params2:
    """Degree-two tuple with A/B = q^-n, the regime in which the term-by-term
    series degeneration from degree three is exact (the series terminate);
    alpha is then pinned by the balance constraint."""
    q = complex(ctx.q)
    for _ in range(_MAX_REDRAWS):
        a = [_mod(rng, 0.8, 1.5) for _ in range(2)]
        b = [_mod(rng, 0.8, 1.5) for _ in range(2)]
        B = _mod(rng, 0.9, 1.3)
        A = q ** (-n) * B
        alpha = cmath.log(a[0] * a[1] * A / (b[0] * b[1] * B)) / cmath.log(q) - 1
        p = Params2(alpha, a[0], a[1], b[0], b[1], A, B)
        if not _clear((n / d for n in b for d in a), q):
            continue
        return p
    raise RuntimeError("could not draw terminating degree-two parameters")


def draw_heine_extra(rng: np.random.Generator, ctx: QContext, which: int) -> HeineParams:
    """Parameters for the two extra catalogue entries: the terminating factor
    for the formal series, the unit-disc constraint for the integral-analog."""
    p = draw_heine(rng, ctx)
    q = complex(ctx.q)
    if which == 1:
        return HeineParams(q ** (-3), p.b, p.c)
    return HeineParams(p.a * 0.55 / abs(p.a), p.b, p.c)


def draw_heine_for(
    rng: np.random.Generator, ctx: QContext, which: int, n: int = 2
) -> HeineParams:
    """Heine parameters admissible for catalogue row ``which``: generic for
    the everywhere-valid rows, with the row's terminating relation imposed
    for the zero-slot rows."""
    p = draw_heine(rng, ctx)
    terminating = CATALOGUE[f"heine.{which}"].terminating
    return p if terminating is None else terminating(p, complex(ctx.q), n)


def _expn(rng: np.random.Generator) -> complex:
    return complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.25, 0.25))


def _draw_fields(cls, rng: np.random.Generator):
    """One draw per dataclass field, in field order: a modulus for every t*
    and for the accessory parameter E, a small exponent for the rest."""
    drawn = {}
    for f in fields(cls):
        if f.name.startswith("t"):
            drawn[f.name] = _mod(rng, 0.6, 1.5)
        elif f.name == "E":
            drawn[f.name] = _mod(rng, 0.3, 1.2)
        else:
            drawn[f.name] = _expn(rng)
    return cls(**drawn)


def draw_heun(rng: np.random.Generator, ctx: QContext) -> HeunParams:
    return _draw_fields(HeunParams, rng)


def draw_heun3(rng: np.random.Generator, ctx: QContext) -> Heun3Params:
    return _draw_fields(Heun3Params, rng)


def draw_h2(rng: np.random.Generator, ctx: QContext) -> H2Params:
    return _draw_fields(H2Params, rng)


def draw_h3(rng: np.random.Generator, ctx: QContext) -> H3Params:
    return _draw_fields(H3Params, rng)


# the e2/e3 entries look their drawer up when called, so a wrapper installed on
# the module attribute sees those draws too
_DRAWERS = {
    "heine": draw_heine,
    "qheun": draw_heun,
    "qheun3": draw_heun3,
    "h2": draw_h2,
    "h3": draw_h3,
    "e2": lambda rng, ctx: draw_params2(rng, ctx, series_room=True),
    "e3": lambda rng, ctx: draw_params3(rng, ctx, series_room=True),
}


def draw_equation_params(kind: str, rng: np.random.Generator, ctx: QContext):
    drawer = _DRAWERS.get(kind) if isinstance(kind, str) else None
    if drawer is None:
        raise ValueError(f"unknown equation kind {kind!r}")
    return drawer(rng, ctx)


def default_sigma(p: Params2) -> complex:
    """Generic bilateral-endpoint constant off every pole grid."""
    scale = float(np.sqrt(abs(p.a1) * abs(p.a2)))
    return 1.17 * scale * cmath.exp(0.41j)
