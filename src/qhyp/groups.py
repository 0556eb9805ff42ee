"""Parameter-space symmetry groups of the three equation families and
transport of solutions along group words.

States are plain complex tuples with the evaluation point last:

    G1 (Heine family):       (a, b, c, z)
    G2 (degree-two family):  (a, a1, a2, b1, b2, A, B, x)   with a = q^alpha
    G3 (degree-three family):(a1, a2, a3, b1, b2, b3, A, B, x)

Each generator returns the transformed state together with a gauge
descriptor; multiplying a solution of the original equation by the gauge
factor and substituting the transformed parameters yields another solution of
the *same* equation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .equations import HeineParams, Params2, Params3
from .qcore import QContext, qpoch_ratio
from .solutions import SolutionHandle, solution_handle


@dataclass(frozen=True)
class GaugeDescriptor:
    """Multiplier attached to a generator: x^power times a ratio of infinite
    q-Pochhammers, all with arguments linear in x."""

    x_power: complex = 0.0
    poch_num: tuple[complex, ...] = ()  # arguments c with factor (c x)_inf
    poch_den: tuple[complex, ...] = ()

    def factor(self, x: complex, ctx: QContext) -> complex:
        out = 1.0 + 0.0j
        if self.x_power != 0:
            out = cmath.exp(complex(self.x_power) * cmath.log(complex(x)))
        if self.poch_num or self.poch_den:
            out *= qpoch_ratio(
                [c * x for c in self.poch_num], [c * x for c in self.poch_den], ctx
            )
        return out


_IDENTITY_GAUGE = GaugeDescriptor()


def _swap(state: tuple, i: int, j: int) -> tuple:
    s = list(state)
    s[i], s[j] = s[j], s[i]
    return tuple(s)


def group_action(group: str, index: int, state: tuple, ctx: QContext) -> tuple[tuple, GaugeDescriptor]:
    """Apply one generator; returns (new_state, gauge descriptor).

    The gauge arguments refer to the *original* state, and the evaluation
    point inside the state is moved whenever the generator acts on it.
    """
    q = complex(ctx.q)
    if group == "G1":
        a, b, c, z = state
        if index == 1:
            return (b, a, c, z), _IDENTITY_GAUGE
        if index == 2:
            gamma = cmath.log(c) / cmath.log(q)
            return (a * q / c, b * q / c, q**2 / c, z), GaugeDescriptor(x_power=1 - gamma)
        if index == 3:
            return (c / a, c / b, c, a * b * z / c), GaugeDescriptor(
                poch_num=(a * b / c,), poch_den=(1.0,))
        if index == 4:
            alpha = cmath.log(a) / cmath.log(q)
            return (a, a * q / c, a * q / b, c * q / (a * b * z)), GaugeDescriptor(
                x_power=-alpha)
        raise ValueError("G1 generator index must be 1..4")

    if group == "G2":
        a, a1, a2, b1, b2, A, B, x = state
        if index == 1:
            return (A / B, a1 * A / (a * B), a2 * A / (a * B),
                    b1, b2, A, A / a, x), _IDENTITY_GAUGE
        if index == 2:
            return _swap(state, 1, 2), _IDENTITY_GAUGE
        if index == 3:
            return _swap(state, 3, 4), _IDENTITY_GAUGE
        if index == 4:
            k = a1 * A / (q * b1 * B)
            new = (a * q * b1 * B / (a1 * A), a1, a2 * k,
                   a1 * A / (q * B), b2, A, a1 * A / (q * b1), x)
            return new, GaugeDescriptor(poch_num=(A / b1,), poch_den=(q * B / a1,))
        raise ValueError("G2 generator index must be 1..4")

    if group == "G3":
        a1, a2, a3, b1, b2, b3, A, B, x = state
        if index == 1:
            k = a1 * A / (q * b1 * B)
            new = (a1, a2 * k, a3 * k, a1 * A / (q * B), b2, b3,
                   A, a1 * A / (q * b1), x)
            return new, GaugeDescriptor(poch_num=(A / b1,), poch_den=(q * B / a1,))
        if index == 2:
            lam = cmath.log(B / A) / cmath.log(q)
            new = (A * B / b1, A * B / b2, A * B / b3,
                   A * B / a1, A * B / a2, A * B / a3, A, B, 1.0 / x)
            return new, GaugeDescriptor(x_power=lam)
        if index == 3:
            return _swap(state, 0, 1), _IDENTITY_GAUGE
        if index == 4:
            return _swap(state, 1, 2), _IDENTITY_GAUGE
        if index == 5:
            return _swap(state, 3, 4), _IDENTITY_GAUGE
        if index == 6:
            return _swap(state, 4, 5), _IDENTITY_GAUGE
        raise ValueError("G3 generator index must be 1..6")

    raise ValueError(f"unknown group {group!r}")


def _point_map(group: str, index: int, state: tuple, q: complex) -> tuple[complex, int]:
    """The generator's action on the evaluation point, as z -> u z^eps."""
    if group == "G1" and index == 3:
        a, b, c = state[0], state[1], state[2]
        return a * b / c, 1
    if group == "G1" and index == 4:
        a, b, c = state[0], state[1], state[2]
        return c * q / (a * b), -1
    if group == "G3" and index == 2:
        return 1.0 + 0.0j, -1
    return 1.0 + 0.0j, 1


def apply_word(group: str, word: Sequence[int], state: tuple, ctx: QContext) -> tuple:
    for idx in word:
        state, _ = group_action(group, idx, state, ctx)
    return state


def state_deviation(s1: tuple, s2: tuple) -> float:
    return max(abs(complex(u) - complex(v)) / (1.0 + abs(complex(v)))
               for u, v in zip(s1, s2))


def relation_words(group: str) -> list[tuple[str, list[int]]]:
    """All displayed defining relations, as words that must act as the
    identity on states."""
    rels: list[tuple[str, list[int]]] = []
    if group == "G1":
        for i in range(1, 5):
            rels.append((f"s{i}^2", [i, i]))
        for i in range(1, 4):
            for j in range(i + 1, 4):
                rels.append((f"(s{i}s{j})^2", [i, j, i, j]))
        for i in range(1, 4):
            rels.append((f"(s{i}s4)^4", [i, 4] * 4))
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    rels.append((f"(s{i}s{j}s4)^2", [i, j, 4, i, j, 4]))
        return rels
    if group == "G2":
        for i in range(1, 5):
            rels.append((f"s{i}^2", [i, i]))
        for i in (2, 3, 4):
            rels.append((f"(s1s{i})^2", [1, i, 1, i]))
        rels.append(("(s2s3)^2", [2, 3, 2, 3]))
        rels.append(("(s2s4)^3", [2, 4] * 3))
        rels.append(("(s3s4)^3", [3, 4] * 3))
        return rels
    if group == "G3":
        for i in range(1, 7):
            rels.append((f"s{i}^2", [i, i]))
        rels.append(("(s1s2)^2", [1, 2, 1, 2]))
        rels.append(("(s1s4)^2", [1, 4, 1, 4]))
        rels.append(("(s1s6)^2", [1, 6, 1, 6]))
        rels.append(("(s1s3)^3", [1, 3] * 3))
        rels.append(("(s1s5)^3", [1, 5] * 3))
        for i, j in ((3, 5), (3, 6), (4, 5), (4, 6)):
            rels.append((f"(s{i}s{j})^2", [i, j, i, j]))
        rels.append(("(s3s4)^3", [3, 4] * 3))
        rels.append(("(s5s6)^3", [5, 6] * 3))
        for i in (3, 4, 5, 6):
            rels.append((f"(s2s{i})^4", [2, i] * 4))
        rels.append(("s2s3s2s5", [2, 3, 2, 5]))
        rels.append(("s2s4s2s6", [2, 4, 2, 6]))
        return rels
    raise ValueError(f"unknown group {group!r}")


def check_relations(group: str, state: tuple, ctx: QContext) -> dict[str, float]:
    """Deviation of every displayed relation from the identity on ``state``."""
    return {
        name: state_deviation(apply_word(group, word, state, ctx), state)
        for name, word in relation_words(group)
    }


_ORBIT_MAX_SIZE = 4096


def orbit(group: str, state: tuple, ctx: QContext) -> list[tuple]:
    """Closure of a state under the group generators (states deduplicated to
    nine digits; the search stops once it holds more than ``_ORBIT_MAX_SIZE``
    states)."""
    n_gen = {"G1": 4, "G2": 4, "G3": 6}[group]

    def key(s: tuple) -> tuple:
        out = []
        for v in s:
            v = complex(v)
            out.append((round(v.real, 9), round(v.imag, 9)))
        return tuple(out)

    seen = {key(state): state}
    frontier = [state]
    while frontier and len(seen) <= _ORBIT_MAX_SIZE:
        nxt = []
        for s in frontier:
            for i in range(1, n_gen + 1):
                t, _ = group_action(group, i, s, ctx)
                k = key(t)
                if k not in seen:
                    seen[k] = t
                    nxt.append(t)
        frontier = nxt
    return list(seen.values())


# -- solution transport -------------------------------------------------------------


def params_to_state(params, x: complex, ctx: QContext) -> tuple:
    if isinstance(params, Params3):
        return (params.a1, params.a2, params.a3, params.b1, params.b2,
                params.b3, params.A, params.B, complex(x))
    if isinstance(params, Params2):
        a = cmath.exp(complex(params.alpha) * cmath.log(complex(ctx.q)))
        return (a, params.a1, params.a2, params.b1, params.b2,
                params.A, params.B, complex(x))
    if isinstance(params, HeineParams):
        return (params.a, params.b, params.c, complex(x))
    raise TypeError(f"unsupported parameter type {type(params)!r}")


def state_to_params(group: str, state: tuple, ctx: QContext):
    if group == "G3":
        return Params3(*state[:8])
    if group == "G2":
        a = complex(state[0])
        alpha = cmath.log(a) / cmath.log(complex(ctx.q))
        return Params2(alpha, *state[1:7])
    if group == "G1":
        return HeineParams(*state[:3])
    raise ValueError(f"unknown group {group!r}")


def solution_transport(
    group: str,
    word: Sequence[int],
    label: str,
    params,
    ctx: QContext,
) -> SolutionHandle:
    """Transport a catalogued solution along a group word.

    The returned handle claims the *original* equation: its evaluator chains
    the gauge multipliers and point moves of the word and evaluates the
    catalogued family at the fully transformed parameters.
    """
    base = solution_handle(label, params, ctx)
    if not word:
        return base

    # dry-run the parameter chain to get final params and the composed
    # point map z -> u z^eps
    probe = params_to_state(params, 1.0, ctx)
    u, eps = 1.0 + 0.0j, 1
    for idx in word:
        step_u, step_eps = _point_map(group, idx, probe, complex(ctx.q))
        # compose (u', eps') after (u, eps): z -> u' (u z^eps)^eps'
        u, eps = step_u * u**step_eps, eps * step_eps
        probe, _ = group_action(group, idx, probe, ctx)
    final_params = state_to_params(group, probe, ctx)
    inner = solution_handle(label, final_params, ctx)

    def evaluator(x: complex) -> complex:
        m = 1.0 + 0.0j
        state = params_to_state(params, x, ctx)
        y = complex(x)
        for idx in word:
            new_state, gauge = group_action(group, idx, state, ctx)
            m *= gauge.factor(y, ctx)
            state = new_state
            y = complex(state[-1])
        return m * inner.evaluator(y)

    # preimage of the inner interval under |z| -> |u| |z|^eps
    lo, hi = inner.interval
    au = abs(u)
    if eps == 1:
        interval = (lo / au, hi / au)
        scale = inner.scale / au
    else:
        interval = ((au / hi) if np.isfinite(hi) and hi > 0 else 0.0,
                    (au / lo) if lo > 0 else np.inf)
        scale = au / inner.scale
    if interval[0] >= interval[1]:
        raise DomainError("transported solution has empty domain")

    word_str = "".join(f"s{i}" for i in word)
    return SolutionHandle(
        label=f"{label}~{group}:{word_str}",
        evaluator=evaluator,
        interval=interval,
        equation=base.equation,
        params=params,
        scale=scale,
    )
