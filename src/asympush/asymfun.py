"""Functions on (0, inf) with declared log-polynomial expansions at both ends.

An :class:`AsymFunction` couples a pointwise evaluator with finite expansions

    f(x) = sum_j x^a_j p_j(ln x) + O(x^(p-1))        as x -> 0
         = sum_j x^b_j q_j(ln x) + O(x^(-q-1))       as x -> infinity

where p and q are the orders of the two sides (the convention of
:mod:`asympush.expansions`).  Everything in this module works off that data:
the limit-in-the-mean at either end, the primitive with its two integration
constants, the regularized integral, the meromorphically continued Mellin
transform with its finite part at a pole of any order, and the scaling rule
that picks up log corrections from exponent -1 terms.

One routine computes the Mellin continuation: the constant Laurent
coefficients at z of the integrals over (0, 1] and [1, inf), each a
subtracted integral plus closed-form moments.  The regularized integral is
their sum at z = 1, the primitive's constants are the two halves there, and
the finite part at a pole is their sum at the pole.

Declared expansions are trusted inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from . import expressions as ex
from .expansions import Expansion, Term, make_side
from .logpoly import (
    EXPONENT_TOL,
    LogPolynomial,
    moment_tail,
    moment_unit_interval,
)
from .quadrature import DEFAULT_TOL, quad_01, quad_1inf, quad_interval

__all__ = [
    "AsymFunction",
    "MissingExpansionData",
    "finite_difference",
    "MellinPole",
    "MellinResult",
    "from_expression",
    "pure_power",
    "schwartz",
    "from_json",
    "lim_zero",
    "lim_inf",
    "primitive",
    "reg_integral",
    "mellin",
    "mellin_finite_part",
    "rescale",
    "scale_reg_integral",
    "scaling_rule",
    "power_log_multiply",
]

# bookkeeping epsilon for remainder orders of the primitive
ORDER_EPS = 0.01


class MissingExpansionData(ValueError):
    """The integrand lacks declared data needed to regularize an integral."""


def finite_difference(fun: Callable[..., complex], j: int, support: tuple[float, float]):
    """deriv(x, *rest): d^j fun / dx^j in its first argument, by finite differences.

    For j <= 2 only; beyond, MissingExpansionData, as the error is no longer
    small.  The stencil nodes sit at x + (m + shift) * step, m = 0..j: centred
    where that stays inside ``support``, else one-sided, so that none is outside.
    """
    if j > 2:
        raise MissingExpansionData(
            f"x-derivative of order {j} needs a step-free expression; "
            "finite differences support at most 2"
        )
    lo, hi = support
    h = 1e-2 / (1 << j)

    def deriv(x: float, *rest) -> complex:
        shift = -j / 2.0
        if x - j * h / 2.0 < lo:
            shift = 0.0
        elif x + j * h / 2.0 > hi:
            shift = -float(j)

        def stencil(step: float) -> complex:
            return sum(
                (-1) ** (j - m) * comb(j, m) * fun(x + (m + shift) * step, *rest)
                for m in range(j + 1)
            ) / step**j

        coarse, fine = stencil(h), stencil(h / 2.0)
        if shift == -j / 2.0:  # centred: the error is even in the step
            return (4.0 * fine - coarse) / 3.0
        # one-sided: Richardson-eliminate the step, then its square
        finer = stencil(h / 4.0)
        return (4.0 * (2.0 * finer - fine) - (2.0 * fine - coarse)) / 3.0

    return deriv


@dataclass(frozen=True)
class AsymFunction:
    fn: Callable[[float], complex]
    exp0: Expansion
    exp_inf: Expansion
    support: tuple[float, float] | None = None
    ast: ex.Expr | None = None

    def __call__(self, x: float) -> complex:
        if self.support is not None:
            a, b = self.support
            if x < a or x > b:
                return 0.0
        return self.fn(x)

    def nth_deriv_at_zero(self, n: int) -> complex:
        """n-th derivative of the evaluator at x = 0.

        From the Taylor jet of the AST when there is one, else from one-sided
        finite differences on x >= 0 (:func:`finite_difference`, n <= 2).
        """
        if self.ast is not None:
            return ex.taylor(self.ast, "x", 0.0, n)[n] * math.factorial(n)
        if n == 0:
            return self.fn(0.0)
        return finite_difference(self, n, (0.0, math.inf))(0.0)

    def quad_points(self) -> list[float]:
        return list(self.support) if self.support else []


# ---------------------------------------------------------------------------
# constructors


def from_expression(
    expr: str | ex.Expr,
    zero_terms: Sequence[tuple[complex, Sequence[complex]]] = (),
    order_zero: float = 1.0,
    inf_terms: Sequence[tuple[complex, Sequence[complex]]] = (),
    order_inf: float = 1.0,
    support: tuple[float, float] | None = None,
) -> AsymFunction:
    ast = ex.parse(expr) if isinstance(expr, str) else expr
    extra = ex.free_vars(ast) - {"x"}
    if extra:
        raise ValueError(f"expression has free variables besides x: {sorted(extra)}")

    return AsymFunction(
        fn=ex.compile_expr(ast, ("x",)),
        exp0=make_side([(a, LogPolynomial(c)) for a, c in zero_terms], order_zero, "zero"),
        exp_inf=make_side([(a, LogPolynomial(c)) for a, c in inf_terms], order_inf, "infinity"),
        support=support,
        ast=ast,
    )


def pure_power(alpha: complex, k: int = 0) -> AsymFunction:
    """x^alpha ln^k x with the single term declared on both sides."""
    alpha = complex(alpha)
    poly = LogPolynomial((0,) * k + (1,))

    def fn(x: float) -> complex:
        L = math.log(x)
        v = cmath.exp(alpha * L) * L**k
        return v.real if alpha.imag == 0 else v

    return AsymFunction(
        fn=fn,
        exp0=make_side([(alpha, poly)], max(alpha.real + 1.0, 1.0), "zero"),
        exp_inf=make_side([(alpha, poly)], max(-alpha.real - 1.0, 1.0), "infinity"),
    )


def schwartz(expr: str | ex.Expr, n_taylor: int = 8, order_inf: float = 40.0) -> AsymFunction:
    """Rapidly decaying smooth function: Taylor terms at 0, nothing at infinity."""
    ast = ex.parse(expr) if isinstance(expr, str) else expr
    terms = [(m, (c,)) for m, c in enumerate(ex.taylor(ast, "x", 0.0, n_taylor))]

    return AsymFunction(
        fn=ex.compile_expr(ast, ("x",)),
        exp0=make_side(terms, n_taylor + 1.0, "zero"),
        exp_inf=make_side([], order_inf, "infinity"),
        ast=ast,
    )


def _terms_from_json(items) -> list[tuple[complex, Sequence[complex]]]:
    out = []
    for item in items:
        re, im = item["exponent"]
        coeffs = [complex(c[0], c[1]) for c in item["logCoeffs"]]
        out.append((complex(re, im), coeffs))
    return out


def from_json(d: dict) -> AsymFunction:
    support = tuple(d["support"]) if d.get("support") else None
    zero = d.get("zero", {})
    inf = d.get("infinity", {})
    return from_expression(
        d["expr"],
        zero_terms=_terms_from_json(zero.get("terms", ())),
        order_zero=float(zero.get("order", 1.0)),
        inf_terms=_terms_from_json(inf.get("terms", ())),
        order_inf=float(inf.get("order", 1.0)),
        support=support,
    )


# ---------------------------------------------------------------------------
# limits, primitive, regularized integral


def lim_zero(f: AsymFunction) -> complex:
    """Constant coefficient of the exponent-0 term of the expansion at 0."""
    return f.exp0.poly_at(0).coefficient(0)


def lim_inf(f: AsymFunction) -> complex:
    return f.exp_inf.poly_at(0).coefficient(0)


def _antiderivative_term(t: Term) -> Term:
    """Closed-form antiderivative of x^alpha p(ln x)."""
    alpha, p = t.exponent, t.poly
    if abs(alpha + 1) <= EXPONENT_TOL:
        # x^-1 ln^k x integrates to ln^{k+1} x/(k+1): exponent-0 log polynomial
        return Term(0j, p.antiderivative())
    d = p.degree
    r = [0j] * (d + 1)
    coeffs = list(p.coeffs)
    for j in range(d, -1, -1):
        higher = (j + 1) * r[j + 1] if j < d else 0j
        r[j] = (coeffs[j] - higher) / (alpha + 1)
    return Term(alpha + 1, LogPolynomial(tuple(r)))


def _cutoff(decay: float, growth: float, tol: float) -> float:
    """Transformed range of a subtracted integral decaying like e^{-decay u}.

    Cancellation noise of f - terms, amplified by steep powers in the terms
    and by the weight, grows like e^{growth u}; when it grows, the range
    balances truncation error against that noise.
    """
    if growth > 0.0:
        return 16.0 * math.log(10.0) / (decay + growth)
    return min(max(1.6 * math.log(1.0 / tol) / decay + 10.0, 25.0), 200.0)


def _halves(f: AsymFunction, z: complex, tol: float) -> tuple[complex, complex]:
    """Constant Laurent coefficients at z of int_0^1 x^{z-1} f and int_1^inf x^{z-1} f.

    Each is the integral of f minus its declared terms, analytic on the
    strip, plus the closed-form moment of every term.  A moment whose
    exponent sits on -1 is a pure pole c (-1)^k k!/(z - z0)^(k+1), with no
    constant part, so it is skipped.
    """
    p, q = f.exp0.order, f.exp_inf.order
    if not 1.0 - p < z.real < 1.0 + q:
        raise ValueError(f"z = {z} outside the continuation strip ({1.0 - p}, {1.0 + q})")
    zm1 = z - 1.0
    at0, at_inf = f.exp0.at_log, f.exp_inf.at_log

    # one log per node, shared by the subtracted side and the weight x^{z-1}
    def low_fn(x: float) -> complex:
        L = math.log(x)
        return (f(x) - at0(L)) * cmath.exp(zm1 * L)

    def high_fn(x: float) -> complex:
        L = math.log(x)
        return (f(x) - at_inf(L)) * cmath.exp(zm1 * L)

    # noise grows only on a side with terms: x^-s0 at zero, x^s1 at infinity
    g0 = g1 = 0.0
    if f.exp0.terms:
        g0 = max(0.0, -min(t.exponent.real for t in f.exp0.terms)) - z.real
    if f.exp_inf.terms:
        g1 = max(0.0, max(t.exponent.real for t in f.exp_inf.terms)) + z.real - 2.0
    u0 = _cutoff(p - 1.0 + z.real, g0, tol)
    u1 = _cutoff(q + 1.0 - z.real, g1, tol)
    low, _ = quad_01(low_fn, tol, points=f.quad_points(), u_max=u0)
    high, _ = quad_1inf(high_fn, tol, points=f.quad_points(), u_max=u1)
    for t in f.exp0.terms:
        a = t.exponent + zm1
        if abs(a + 1.0) > EXPONENT_TOL:
            for k, c in enumerate(t.poly.coeffs):
                if c != 0:
                    low += c * moment_unit_interval(a, k)
    for t in f.exp_inf.terms:
        a = t.exponent + zm1
        if abs(a + 1.0) > EXPONENT_TOL:
            for k, c in enumerate(t.poly.coeffs):
                if c != 0:
                    high += c * moment_tail(a, k)
    return low, high


def primitive(f: AsymFunction, tol: float = DEFAULT_TOL) -> AsymFunction:
    """F(x) = int_1^x f, with expansion data at both ends."""
    low, high = _halves(f, 1.0 + 0j, tol)
    # F's LIM at zero is -int_0^1 f and at infinity int_1^inf f (finite parts)
    c_zero, c_inf = -low, high

    zero_terms = [(a.exponent, a.poly) for a in map(_antiderivative_term, f.exp0.terms)]
    zero_terms.append((0j, LogPolynomial((c_zero,))))
    inf_terms = [(a.exponent, a.poly) for a in map(_antiderivative_term, f.exp_inf.terms)]
    inf_terms.append((0j, LogPolynomial((c_inf,))))

    p_new = max(f.exp0.order + 1.0 - ORDER_EPS, max((a.real for a, _ in zero_terms), default=0.0) + 1.0)
    # int_x^inf of an O(t^(-q-1)) remainder is O(x^-q)
    q_new = f.exp_inf.order - 1.0

    def F(x: float) -> complex:
        val, _ = quad_interval(f, 1.0, x, tol) if x >= 1.0 else quad_interval(f, x, 1.0, tol)
        return val if x >= 1.0 else -val

    return AsymFunction(
        fn=F,
        exp0=make_side(zero_terms, p_new, "zero"),
        exp_inf=make_side(inf_terms, q_new, "infinity"),
    )


def reg_integral(f: AsymFunction, tol: float = DEFAULT_TOL) -> complex:
    """Regularized integral: LIM at infinity minus LIM at zero of the primitive.

    That is the finite part of the Mellin transform at z = 1.
    """
    low, high = _halves(f, 1.0 + 0j, tol)
    return low + high


# ---------------------------------------------------------------------------
# Mellin transform


@dataclass(frozen=True)
class MellinPole:
    location: complex
    order: int


@dataclass(frozen=True)
class MellinResult:
    value: complex | None  # None when z sits on a pole
    poles: tuple[MellinPole, ...]


def _poles_in_strip(f: AsymFunction) -> tuple[MellinPole, ...]:
    """Poles of the continuation in its strip; where both sides put a pole, the larger order."""
    lo, hi = 1.0 - f.exp0.order, 1.0 + f.exp_inf.order
    poles: list[MellinPole] = []
    for t in (*f.exp0.terms, *f.exp_inf.terms):
        z0, order = -t.exponent, t.poly.degree + 1
        if not lo < z0.real < hi:
            continue
        for i, p in enumerate(poles):
            if abs(p.location - z0) <= EXPONENT_TOL:
                poles[i] = MellinPole(p.location, max(p.order, order))
                break
        else:
            poles.append(MellinPole(z0, order))
    return tuple(sorted(poles, key=lambda p: (p.location.real, p.location.imag)))


def mellin(f: AsymFunction, z: complex, tol: float = DEFAULT_TOL) -> MellinResult:
    """Meromorphic continuation of int_0^inf x^{z-1} f(x) dx on the strip."""
    z = complex(z)
    poles = _poles_in_strip(f)
    if any(abs(z - pole.location) <= EXPONENT_TOL for pole in poles):
        return MellinResult(None, poles)
    low, high = _halves(f, z, tol)
    return MellinResult(low + high, poles)


def mellin_finite_part(f: AsymFunction, z0: complex = 1.0, tol: float = DEFAULT_TOL) -> complex:
    """Zeroth Laurent coefficient of the Mellin transform at z0, at a pole of any order.

    The principal part at a pole is exactly the moments of the terms whose
    exponent is -z0, so the finite part is the rest of the transform at z0.
    A pole within EXPONENT_TOL of z0 counts as sitting at z0.
    """
    z0 = complex(z0)
    for pole in _poles_in_strip(f):
        if abs(z0 - pole.location) <= EXPONENT_TOL:
            z0 = pole.location
    low, high = _halves(f, z0, tol)
    return low + high


# ---------------------------------------------------------------------------
# scaling / substitution


def rescale(f: AsymFunction, t: float) -> AsymFunction:
    """The function x -> f(t x), with mechanically rescaled expansions."""
    if t <= 0:
        raise ValueError("scale factor must be positive")
    lt = math.log(t)

    def remap(side: Expansion) -> list[tuple[complex, LogPolynomial]]:
        return [
            (trm.exponent, trm.poly.shift(lt).scale(cmath.exp(trm.exponent * lt)))
            for trm in side.terms
        ]

    support = None
    if f.support is not None:
        support = (f.support[0] / t, f.support[1] / t)
    return AsymFunction(
        fn=lambda x: f(t * x),
        exp0=make_side(remap(f.exp0), f.exp0.order, "zero"),
        exp_inf=make_side(remap(f.exp_inf), f.exp_inf.order, "infinity"),
        support=support,
    )


def scaling_rule(f: AsymFunction, t: float, base: complex) -> complex:
    """Regularized integral of x -> f(t x) from ``base``, the one of f itself.

    Callers that scale one function by many t compute ``reg_integral(f)``
    once and pass it here for each t.
    """
    if t <= 0:
        raise ValueError("scale factor must be positive")
    lt = math.log(t)
    q_anti = f.exp_inf.poly_at(-1).antiderivative()
    p_anti = f.exp0.poly_at(-1).antiderivative()
    return (base + q_anti(lt) - p_anti(lt)) / t


def scale_reg_integral(f: AsymFunction, t: float, tol: float = DEFAULT_TOL) -> complex:
    """Regularized integral of x -> f(t x) via the closed-form scaling rule."""
    if t <= 0:
        raise ValueError("scale factor must be positive")
    return scaling_rule(f, t, reg_integral(f, tol))


def power_log_multiply(f: AsymFunction, alpha: complex, j: int = 0) -> AsymFunction:
    """The function x -> x^alpha ln^j x * f(x), expansions transformed exactly."""
    alpha = complex(alpha)

    def shift(side: Expansion) -> list[tuple[complex, LogPolynomial]]:
        return [(t.exponent + alpha, t.poly.times_log_power(j)) for t in side.terms]

    def fn(x: float) -> complex:
        L = math.log(x)
        return f(x) * cmath.exp(alpha * L) * L**j

    return AsymFunction(
        fn=fn,
        exp0=make_side(shift(f.exp0), f.exp0.order + alpha.real, "zero"),
        exp_inf=make_side(shift(f.exp_inf), f.exp_inf.order - alpha.real, "infinity"),
        support=f.support,
    )
