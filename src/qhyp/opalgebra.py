"""Finite noncommutative operator algebra in x and the q-shift T.

Operators are finite sums  sum a_{ij} x^i T^j  stored in normal order
(x-powers left of T-powers) as a sparse map {(i, j): coefficient}; the
commutation rule is  T x = q x T,  so  T^j x^i = q^{ij} x^i T^j.

From an operator we extract boundary Laurent polynomials in two ways:

    L = x^{M'} (x^M L_M(T) + ... + x^0 L_0(T))     rows, in powers of x
    L = (P_N(x) T^N + ... + P_0(x) T^0) T^{N'}     columns, in powers of T

The roots of L_0 / L_M are the characteristic roots at x = 0 / x = infinity;
the roots of P_0 / P_N those at T = 0 / T = infinity.  The four root
multisets form the operator's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    NonRootError,
    PreconditionError,
    ResonanceError,
    UnsupportedCaseError,
    ZeroPolynomialError,
)
from .qcore import QContext

_ROOT_RESIDUAL = 1e-13


def poly_roots(coeffs: list[complex]) -> list[complex]:
    """All complex roots of sum_k coeffs[k] y^k (ascending order, degree >= 1)
    from ``numpy.roots`` on the monic coefficients, each held to the residual
    target 1e-13."""
    c = [complex(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        raise ZeroPolynomialError("root extraction needs degree >= 1")
    monic = [v / c[-1] for v in reversed(c)]  # highest power first
    roots = np.roots(monic).tolist()
    n = len(monic) - 1
    scale = max(1.0, max(abs(v) for v in monic))
    worst = 0.0
    for r in roots:  # Horner in Python: numpy.polyval costs ~10 us on 1-4 roots
        value = 0j
        for v in monic:
            value = value * r + v
        worst = max(worst, abs(value) / max(scale * max(1.0, abs(r)) ** n, 1.0))
    if worst > _ROOT_RESIDUAL * 10:
        raise ArithmeticError(f"root finder residual {worst:.2e} above target")
    return roots


def root_sort_key(z: complex) -> tuple[float, float]:
    return (abs(z), float(np.angle(z)))


def sorted_roots(roots: Iterable[complex]) -> tuple[complex, ...]:
    return tuple(sorted((complex(r) for r in roots), key=root_sort_key))


def multiset_close(
    got: Iterable[complex], expected: Iterable[complex], tol: float
) -> bool:
    """Compare root multisets as canonically sorted sequences, elementwise to
    relative tolerance ``tol``."""
    a = sorted_roots(got)
    b = sorted_roots(expected)
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol * max(1.0, abs(y)) for x, y in zip(a, b))


@dataclass(frozen=True)
class Configuration:
    """The four characteristic-root multisets of an operator, with
    non-logarithmic double-point flags at the x-boundaries.

    ``double_x0`` is the value a such that {a, aq} are both roots at x = 0 and
    the local solutions carry no logarithm; ``double_xinf`` the same at
    x = infinity.
    """

    roots_x0: tuple[complex, ...]
    roots_xinf: tuple[complex, ...]
    roots_T0: tuple[complex, ...]
    roots_Tinf: tuple[complex, ...]
    double_x0: complex | None = None
    double_xinf: complex | None = None

    def product_relation_deviation(self) -> float:
        """Relative deviation in  prod(x0) prod(Tinf) = prod(xinf) prod(T0)."""
        lhs = np.prod([*self.roots_x0, *self.roots_Tinf])
        rhs = np.prod([*self.roots_xinf, *self.roots_T0])
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)

    def matches(self, other: "Configuration", tol: float) -> bool:
        def flag_ok(a, b):
            if (a is None) != (b is None):
                return False
            if a is None:
                return True
            return abs(a - b) <= tol * max(1.0, abs(b))

        return (
            multiset_close(self.roots_x0, other.roots_x0, tol)
            and multiset_close(self.roots_xinf, other.roots_xinf, tol)
            and multiset_close(self.roots_T0, other.roots_T0, tol)
            and multiset_close(self.roots_Tinf, other.roots_Tinf, tol)
            and flag_ok(self.double_x0, other.double_x0)
            and flag_ok(self.double_xinf, other.double_xinf)
        )


class QDiffOperator:
    """Normally ordered finite sum  sum a_{ij} x^i T^j  over complex
    coefficients, with T the q-shift (T f)(x) = f(qx)."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: complex, coeffs: Mapping[tuple[int, int], complex]):
        self.q = complex(q)
        self.coeffs = {
            (int(i), int(j)): complex(c) for (i, j), c in coeffs.items() if c != 0
        }

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_records(cls, q: complex, records: Iterable[Mapping]) -> "QDiffOperator":
        coeffs: dict[tuple[int, int], complex] = {}
        for rec in records:
            key = (int(rec["i"]), int(rec["j"]))
            coeffs[key] = coeffs.get(key, 0.0) + complex(rec["re"], rec.get("im", 0.0))
        return cls(q, coeffs)

    def to_records(self) -> list[dict]:
        return [
            {"i": i, "j": j, "re": c.real, "im": c.imag}
            for (i, j), c in sorted(self.coeffs.items())
        ]

    @classmethod
    def x_power(cls, q: complex, n: int = 1, coeff: complex = 1.0) -> "QDiffOperator":
        return cls(q, {(n, 0): coeff})

    @classmethod
    def t_power(cls, q: complex, n: int = 1, coeff: complex = 1.0) -> "QDiffOperator":
        return cls(q, {(0, n): coeff})

    @classmethod
    def constant(cls, q: complex, c: complex) -> "QDiffOperator":
        return cls(q, {(0, 0): c})

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: "QDiffOperator") -> "QDiffOperator":
        self._check_same_q(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return QDiffOperator(self.q, out)

    def __sub__(self, other: "QDiffOperator") -> "QDiffOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "QDiffOperator":
        return (-1.0) * self

    def __mul__(self, other) -> "QDiffOperator":
        if isinstance(other, QDiffOperator):
            self._check_same_q(other)
            out: dict[tuple[int, int], complex] = {}
            q = self.q
            for (i1, j1), c1 in self.coeffs.items():
                for (i2, j2), c2 in other.coeffs.items():
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0.0) + c1 * c2 * q ** (j1 * i2)
            return QDiffOperator(self.q, out)
        return QDiffOperator(self.q, {k: complex(other) * c for k, c in self.coeffs.items()})

    def __rmul__(self, other) -> "QDiffOperator":
        return QDiffOperator(self.q, {k: complex(other) * c for k, c in self.coeffs.items()})

    def __pow__(self, n: int) -> "QDiffOperator":
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        out = QDiffOperator.constant(self.q, 1.0)
        for _ in range(n):
            out = out * self
        return out

    def _check_same_q(self, other: "QDiffOperator"):
        if abs(self.q - other.q) > 1e-15 * max(1.0, abs(self.q)):
            raise ValueError("operators live over different q")

    # -- evaluation -------------------------------------------------------------

    def apply(self, f: Callable[[complex], complex], x: complex) -> complex:
        """(L f)(x) = sum a_{ij} x^i f(q^j x)."""
        if complex(x) == 0 and self.x_min < 0:
            raise ValueError("operator has negative x-powers; x must be nonzero")
        return sum(self.apply_terms(f, x), 0j)

    def apply_terms(self, f: Callable[[complex], complex], x: complex) -> list[complex]:
        """The individual terms a_{ij} x^i f(q^j x); their sum is apply()."""
        x = complex(x)
        fvals: dict[int, complex] = {}
        out = []
        for (i, j), c in self.coeffs.items():
            if j not in fvals:
                fvals[j] = complex(f(self.q**j * x))
            out.append(c * x**i * fvals[j])
        return out

    # -- boundary polynomials ----------------------------------------------------

    @property
    def x_min(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero operator")
        return min(i for i, _ in self.coeffs)

    @property
    def x_max(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero operator")
        return max(i for i, _ in self.coeffs)

    @property
    def t_min(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero operator")
        return min(j for _, j in self.coeffs)

    @property
    def t_max(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero operator")
        return max(j for _, j in self.coeffs)

    def l_poly(self, m: int) -> dict[int, complex]:
        """Laurent polynomial L_m(y): coefficients of the x-row m + x_min.

        Rows outside [0, x_max - x_min] give the zero polynomial.
        """
        row = m + self.x_min
        return {j: c for (i, j), c in self.coeffs.items() if i == row}

    def l_poly_eval(self, m: int, y: complex) -> complex:
        return sum(c * complex(y) ** j for j, c in self.l_poly(m).items())

    def l_poly_scale(self, m: int, y: complex) -> float:
        return sum(abs(c) * abs(complex(y)) ** j for j, c in self.l_poly(m).items())

    def p_poly(self, k: int) -> dict[int, complex]:
        """Polynomial P_k(x): coefficients of the T-column k + t_min."""
        col = k + self.t_min
        return {i: c for (i, j), c in self.coeffs.items() if j == col}

    def char_roots(self, where: str, ctx: QContext) -> tuple[complex, ...]:
        """Characteristic roots at one of the four boundaries, with
        multiplicity, from :func:`poly_roots`."""
        if where == "x0":
            lau = self.l_poly(0)
        elif where == "xinf":
            lau = self.l_poly(self.x_max - self.x_min)
        elif where == "T0":
            lau = self.p_poly(0)
        elif where == "Tinf":
            lau = self.p_poly(self.t_max - self.t_min)
        else:
            raise ValueError(f"unknown boundary {where!r}")
        if not lau:
            raise ZeroPolynomialError(f"boundary polynomial at {where} is zero")
        lo = min(lau)
        hi = max(lau)
        coeffs = [lau.get(k, 0.0) for k in range(lo, hi + 1)]
        top = max(abs(c) for c in coeffs)
        coeffs = [c if abs(c) > 1e-13 * top else 0.0 for c in coeffs]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            return ()
        return sorted_roots(poly_roots(coeffs))

    def is_nonlog(self, a: complex, side: str, ctx: QContext) -> bool:
        """Non-logarithmic test for a double point at an x-boundary.

        At x = 0 requires a and aq among the roots of L_0 and decides by
        L_1(a) = 0; at x = infinity requires a and a/q among the roots of
        L_M and decides by L_{M-1}(a) = 0.
        """
        if side not in ("x0", "xinf"):
            raise ValueError("side must be 'x0' or 'xinf'")
        return self._nonlog(complex(a), side, self.char_roots(side, ctx), ctx)

    def _nonlog(self, a: complex, side: str, roots: tuple[complex, ...], ctx: QContext) -> bool:
        """``is_nonlog`` given the characteristic roots at ``side``."""
        if side == "x0":
            pair = (a, a * self.q)
            m_test = 1
        else:
            pair = (a, a / self.q)
            m_test = self.x_max - self.x_min - 1

        def present(value: complex) -> bool:
            return any(abs(r - value) <= 1e-6 * max(1.0, abs(value)) for r in roots)

        for want in pair:
            if not present(want):
                # gap n > 1 (roots a, a q^n) falls outside the implemented test
                step = self.q if side == "x0" else 1.0 / self.q
                if present(a) and any(present(a * step**n) for n in range(2, 9)):
                    raise UnsupportedCaseError(
                        "characteristic-root gap exceeds one q-step; "
                        "only the single-step double-point test is implemented"
                    )
                raise PreconditionError(
                    f"{want} is not a characteristic root at {side}; "
                    f"no double point {pair}"
                )
        val = self.l_poly_eval(m_test, a)
        scale = self.l_poly_scale(m_test, a)
        if scale == 0.0:
            return True
        return abs(val) <= ctx.eq_tol * scale

    def configuration(self, ctx: QContext) -> Configuration:
        """Assemble the configuration; x-boundary pairs {a, aq} are flagged as
        double points only when the non-logarithmic test passes."""
        rx0 = self.char_roots("x0", ctx)
        rxi = self.char_roots("xinf", ctx)
        rt0 = self.char_roots("T0", ctx)
        rti = self.char_roots("Tinf", ctx)

        def find_double(roots, side: str) -> complex | None:
            for i, r in enumerate(roots):
                for j, s in enumerate(roots):
                    if i == j or abs(r) == 0:
                        continue
                    # s = r q: store the lower member r of the pair {r, rq}
                    if abs(s / r - self.q) <= 1e-8 * max(1.0, abs(self.q)):
                        probe = r if side == "x0" else s
                        try:
                            if self._nonlog(probe, side, roots, ctx):
                                return r
                        except PreconditionError:
                            continue
            return None

        return Configuration(
            roots_x0=rx0,
            roots_xinf=rxi,
            roots_T0=rt0,
            roots_Tinf=rti,
            double_x0=find_double(rx0, "x0"),
            double_xinf=find_double(rxi, "xinf"),
        )

    # -- local series -----------------------------------------------------------

    def frobenius_series(
        self, lam_root: complex, n_terms: int, ctx: QContext
    ) -> np.ndarray:
        """Coefficients (c_0 = 1, ..., c_{n_terms}) of the local solution
        x^lambda sum c_n x^n with q^lambda = lam_root.

        The recursion is sum_m c_{n-m} L_m(lam_root q^{n-m}) = 0.  A vanishing
        leading factor L_0(lam_root q^n) is tolerated only when the right-hand
        side vanishes too (the non-logarithmic case, where c_n is a free
        choice, taken as 0); otherwise a resonance error reports n.
        """
        lam_root = complex(lam_root)
        rtol = 1e-10
        scale0 = self.l_poly_scale(0, lam_root)
        if abs(self.l_poly_eval(0, lam_root)) > rtol * max(scale0, 1e-300):
            raise NonRootError(f"{lam_root} is not a root of the x0 boundary polynomial")
        m_max = self.x_max - self.x_min
        c = [1.0 + 0.0j]
        for n in range(1, n_terms + 1):
            yn = lam_root * self.q**n
            den = self.l_poly_eval(0, yn)
            rhs = 0.0 + 0.0j
            rhs_scale = 0.0
            for m in range(1, min(n, m_max) + 1):
                val = self.l_poly_eval(m, lam_root * self.q ** (n - m))
                rhs -= c[n - m] * val
                rhs_scale += abs(c[n - m]) * self.l_poly_scale(m, lam_root * self.q ** (n - m))
            if abs(den) <= rtol * max(self.l_poly_scale(0, yn), 1e-300):
                if abs(rhs) <= rtol * max(rhs_scale, 1e-300):
                    c.append(0.0 + 0.0j)  # free coefficient of the second local solution
                    continue
                raise ResonanceError(n)
            c.append(rhs / den)
        return np.array(c, dtype=complex)

    # -- transformations ---------------------------------------------------------

    def gauge_power(self, mu: complex) -> "QDiffOperator":
        """Conjugation x^{-mu} L x^{mu}: a_{ij} -> a_{ij} q^{j mu}.

        If (L f) = 0 then the returned operator annihilates x^{-mu} f.
        """
        mu = complex(mu)
        if mu == 0:
            return QDiffOperator(self.q, self.coeffs)
        qmu = {j: self.q ** (j * mu) for j in {j for _, j in self.coeffs}}
        return QDiffOperator(
            self.q, {(i, j): c * qmu[j] for (i, j), c in self.coeffs.items()}
        )

    def invert_variable(self) -> "QDiffOperator":
        """Variable inversion x -> 1/x, T -> T^{-1}: if (L f) = 0 then the
        returned operator annihilates g(z) = f(1/z)."""
        return QDiffOperator(self.q, {(-i, -j): c for (i, j), c in self.coeffs.items()})

    # -- comparison ----------------------------------------------------------------

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def trimmed(self, rel_tol: float) -> "QDiffOperator":
        top = self.max_abs_coeff()
        return QDiffOperator(
            self.q, {k: c for k, c in self.coeffs.items() if abs(c) > rel_tol * top}
        )

    def ratio_to(self, other: "QDiffOperator", rel_tol: float = 1e-9) -> complex | None:
        """Constant r with self = r * other (support and ratios match to
        rel_tol), or None."""
        a = self.trimmed(rel_tol)
        b = other.trimmed(rel_tol)
        if set(a.coeffs) != set(b.coeffs) or not a.coeffs:
            return None
        key = max(b.coeffs, key=lambda k: abs(b.coeffs[k]))
        r = a.coeffs[key] / b.coeffs[key]
        for k, c in b.coeffs.items():
            if abs(a.coeffs[k] - r * c) > rel_tol * abs(r) * b.max_abs_coeff():
                return None
        return r

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({i},{j}): {c:.6g}" for (i, j), c in sorted(self.coeffs.items())
        )
        return f"QDiffOperator(q={self.q:.6g}, {{{inner}}})"
