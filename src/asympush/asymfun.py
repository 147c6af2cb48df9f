"""Functions on (0, inf) with declared log-polynomial expansions at both ends.

An :class:`AsymFunction` couples a pointwise evaluator with finite expansions

    f(x) = sum_j x^a_j p_j(ln x) + O(x^(p-1))        as x -> 0
         = sum_j x^b_j q_j(ln x) + O(x^(-q-1))       as x -> infinity

where p and q are the orders of the two sides (the convention of
:mod:`asympush.expansions`).  Everything in this module works off that data:
the limit-in-the-mean at either end, the primitive with its two integration
constants, the regularized integral, the meromorphically continued Mellin
transform, and the scaling rule that picks up log corrections from exponent
-1 terms.

Declared expansions are trusted inputs; :func:`check_expansion_consistency`
offers a sampled sanity check, not a proof.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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
    "MellinPole",
    "MellinResult",
    "HigherOrderPoleError",
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
    "check_expansion_consistency",
]

# bookkeeping epsilon for remainder orders of the primitive
ORDER_EPS = 0.01


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

        From the Taylor jet of the AST when there is one, Richardson central
        differences otherwise (the evaluator must then extend smoothly through 0).
        """
        if self.ast is not None:
            return ex.taylor(self.ast, "x", 0.0, n)[n] * math.factorial(n)
        if n == 0:
            return self.fn(0.0)
        h = 1e-3

        def d(fun, step):
            return lambda x: (fun(x + step) - fun(x - step)) / (2.0 * step)

        fun = self.fn
        for _ in range(n):
            fun = d(fun, h)
        coarse = fun(0.0)
        fun2 = self.fn
        for _ in range(n):
            fun2 = d(fun2, h / 2.0)
        fine = fun2(0.0)
        return (4.0 * fine - coarse) / 3.0

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


def _integration_constants(f: AsymFunction, tol: float) -> tuple[complex, complex]:
    """Constants of F(x) = int_1^x f at 0 and infinity (its LIMs)."""
    p, q = f.exp0.order, f.exp_inf.order
    if p <= 0 or q <= 0:
        raise ValueError(f"primitive needs positive orders, got p={p}, q={q}")

    t0_at_1 = sum(
        _antiderivative_term(t).poly(0.0)
        for t in f.exp0.terms
        if abs(t.exponent + 1) > EXPONENT_TOL
    )
    # cap the range so cancellation noise of f - terms (amplified by steep
    # negative powers x^-s) cannot swamp the x^p remainder tail; the cutoff
    # balances truncation error e^{-p u} against noise growth e^{(s-1) u}
    s0 = max(0.0, -min((t.exponent.real for t in f.exp0.terms), default=0.0))
    if s0 > 1.0:
        u0 = 16.0 * math.log(10.0) / max(p + s0 - 1.0, p)
    else:
        u0 = min(max(1.6 * math.log(1.0 / tol) / p + 10.0, 25.0), 200.0)
    rem0, _ = quad_01(lambda x: f(x) - f.exp0(x), tol, points=f.quad_points(), u_max=u0)
    c_zero = -t0_at_1 - rem0

    tinf_at_1 = sum(
        _antiderivative_term(t).poly(0.0)
        for t in f.exp_inf.terms
        if abs(t.exponent + 1) > EXPONENT_TOL
    )
    s1 = max(0.0, max((t.exponent.real for t in f.exp_inf.terms), default=0.0))
    if s1 > 1.0:
        u1 = 16.0 * math.log(10.0) / max(q + s1 - 1.0, q)
    else:
        u1 = min(max(1.6 * math.log(1.0 / tol) / q + 10.0, 25.0), 200.0)
    rem_inf, _ = quad_1inf(
        lambda x: f(x) - f.exp_inf(x), tol, points=f.quad_points(), u_max=u1
    )
    c_inf = -tinf_at_1 + rem_inf
    return c_zero, c_inf


def primitive(f: AsymFunction, tol: float = DEFAULT_TOL) -> AsymFunction:
    """F(x) = int_1^x f, with expansion data at both ends."""
    c_zero, c_inf = _integration_constants(f, tol)

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
    """Regularized integral: LIM at infinity minus LIM at zero of the primitive."""
    c_zero, c_inf = _integration_constants(f, tol)
    return c_inf - c_zero


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


class HigherOrderPoleError(ValueError):
    """A finite part asked for at a Mellin pole of order 2 or more."""


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
    p, q = f.exp0.order, f.exp_inf.order
    if not (1.0 - p < z.real < 1.0 + q):
        raise ValueError(
            f"z = {z} outside the continuation strip ({1.0 - p}, {1.0 + q})"
        )
    poles = _poles_in_strip(f)
    if any(abs(z - pole.location) <= EXPONENT_TOL for pole in poles):
        return MellinResult(None, poles)

    # decay rates of the subtracted integrands in the transformed variable;
    # cap the range so the x^{z-1} weight cannot amplify cancellation noise
    lam0 = p + min(z.real, 1.0)
    lam_inf = q + 1.0 - max(z.real - 1.0, 0.0)
    u0 = min(max(1.5 * math.log(1.0 / tol) / lam0 + 10.0, 25.0), 200.0)
    u1 = min(max(1.5 * math.log(1.0 / tol) / lam_inf + 10.0, 25.0), 200.0)
    zm1 = z - 1.0
    at0, at_inf = f.exp0.at_log, f.exp_inf.at_log

    # one log per node, shared by the subtracted side and the weight x^{z-1}
    def low_fn(x: float) -> complex:
        L = math.log(x)
        return (f(x) - at0(L)) * cmath.exp(zm1 * L)

    def high_fn(x: float) -> complex:
        L = math.log(x)
        return (f(x) - at_inf(L)) * cmath.exp(zm1 * L)

    low, _ = quad_01(low_fn, tol, points=f.quad_points(), u_max=u0)
    high, _ = quad_1inf(high_fn, tol, points=f.quad_points(), u_max=u1)
    val = low + high
    for t in f.exp0.terms:
        for k, c in enumerate(t.poly.coeffs):
            if c != 0:
                val += c * moment_unit_interval(t.exponent + z - 1.0, k)
    for t in f.exp_inf.terms:
        for k, c in enumerate(t.poly.coeffs):
            if c != 0:
                val += c * moment_tail(t.exponent + z - 1.0, k)
    return MellinResult(val, poles)


def mellin_finite_part(
    f: AsymFunction,
    z0: complex = 1.0,
    eps: tuple[float, float] = (1e-2, 1e-3),
    tol: float = DEFAULT_TOL,
) -> complex:
    """Zeroth Laurent coefficient at z0 by symmetric sampling plus Richardson.

    The symmetric average cancels odd-order pole parts; the Richardson step
    removes the leading quadratic error of the analytic remainder.  Within
    EXPONENT_TOL of a pole of order 2 or more the even-order part would
    swamp the result, so HigherOrderPoleError is raised there instead.
    """
    for pole in _poles_in_strip(f):
        if pole.order >= 2 and abs(z0 - pole.location) <= EXPONENT_TOL:
            raise HigherOrderPoleError(
                f"finite part at z0 = {z0}: pole of order {pole.order} at {pole.location}; "
                "symmetric sampling cancels simple poles only"
            )
    e1, e2 = eps

    def sym(e: float) -> complex:
        a = mellin(f, z0 + e, tol).value
        b = mellin(f, z0 - e, tol).value
        return (a + b) / 2.0

    s1, s2 = sym(e1), sym(e2)
    return (s2 * e1**2 - s1 * e2**2) / (e1**2 - e2**2)


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


# ---------------------------------------------------------------------------
# diagnostics


def check_expansion_consistency(
    f: AsymFunction,
    delta: float = 0.25,
    n_points: int = 24,
    x_min: float = 1e-4,
    x_max: float = 1e4,
) -> dict:
    """Sampled remainder-bound check on geometric grids toward 0 and infinity.

    Returns the fitted constants C such that |f - declared terms| is at most
    C x^(p-1-delta) toward 0 and C x^(-q-1+delta) toward infinity over the
    sampled grid, p and q being the declared orders.
    """
    out = {}
    ratios0 = []
    for i in range(n_points):
        x = 1.0 * (x_min / 1.0) ** ((i + 1) / n_points)
        rem = abs(f(x) - f.exp0(x))
        ratios0.append(rem / x ** (f.exp0.order - 1.0 - delta))
    out["C_zero"] = max(ratios0)
    ratios_inf = []
    for i in range(n_points):
        x = 1.0 * (x_max / 1.0) ** ((i + 1) / n_points)
        rem = abs(f(x) - f.exp_inf(x))
        ratios_inf.append(rem * x ** (f.exp_inf.order + 1.0 - delta))
    out["C_inf"] = max(ratios_inf)
    return out
