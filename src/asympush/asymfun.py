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
from typing import Callable, NamedTuple, Sequence

from . import expressions as ex
from ._record import Record
from .expansions import Expansion, Term, _typed, make_side
from .logpoly import (
    EXPONENT_TOL,
    LogPolynomial,
    moment_tail,
    moment_unit_interval,
    shifted,
)
from .quadrature import DEFAULT_TOL, quad_01, quad_1inf, quad_interval

__all__ = [
    "AsymFunction",
    "MissingExpansionData",
    "MellinPole",
    "MellinResult",
    "from_expression",
    "pure_power",
    "schwartz",
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

# bookkeeping epsilon for remainder orders of the primitive and of boundary functions
ORDER_EPS = 0.01
# the order at infinity of a function that decays faster than any power: nothing is declared there
RAPID_DECAY_ORDER = 40.0


class MissingExpansionData(ValueError):
    """The function lacks declared data, or an expression to take derivatives of, that a result needs."""


class AsymFunction(Record):
    __slots__ = ("fn", "exp0", "exp_inf", "support", "ast")

    def __init__(self, fn: Callable[[float], complex], exp0: Expansion, exp_inf: Expansion,
                 support: tuple[float, float] | None = None, ast: ex.Expr | None = None):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "exp0", exp0)
        object.__setattr__(self, "exp_inf", exp_inf)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "ast", ast)

    def __call__(self, x: float) -> complex:
        if self.support is not None:
            a, b = self.support
            if x < a or x > b:
                return 0.0
        return self.fn(x)

    def nth_deriv_at_zero(self, n: int) -> complex:
        """n-th derivative of the evaluator at x = 0.

        From the Taylor jet of the AST; without one only the value, n = 0, is known.
        """
        if self.ast is not None:
            return ex.taylor(self.ast, "x", 0.0, n)[n] * math.factorial(n)
        if n == 0:
            return self.fn(0.0)
        raise MissingExpansionData(f"derivative of order {n} at 0 needs an expression")

    def quad_points(self) -> list[float]:
        return list(self.support) if self.support else []


def _check_support(support: tuple[float, float] | None, what: str) -> None:
    """ValueError unless support is None or an interval [a, b] with 0 <= a < b."""
    if support is not None and not 0.0 <= support[0] < support[1]:
        raise ValueError(f"{what} must satisfy 0 <= a < b, not {tuple(support)}")


def _evaluator(f: AsymFunction) -> Callable[[float], complex]:
    """f itself where a support cuts it off, else its compiled ``fn``, one call frame less."""
    return f if f.support is not None else f.fn


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
    ast = ex.parse_in(expr, ("x",))
    _check_support(support, "support")
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
    a, exp = _typed(alpha)

    def fn(x: float) -> complex:
        L = math.log(x)
        return exp(a * L) * L**k

    return AsymFunction(
        fn=fn,
        exp0=make_side([(alpha, poly)], max(alpha.real + 1.0, 1.0), "zero"),
        exp_inf=make_side([(alpha, poly)], max(-alpha.real - 1.0, 1.0), "infinity"),
    )


def schwartz(expr: str | ex.Expr, n_taylor: int = 8) -> AsymFunction:
    """Rapidly decaying smooth function: Taylor terms at 0, nothing at infinity, to RAPID_DECAY_ORDER."""
    f = from_expression(expr, order_inf=RAPID_DECAY_ORDER)  # checks the variables before taylor evaluates
    terms = [(m, (c,)) for m, c in enumerate(ex.taylor(f.ast, "x", 0.0, n_taylor))]
    return AsymFunction(f.fn, make_side(terms, n_taylor + 1.0, "zero"), f.exp_inf, ast=f.ast)


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
    zm1, exp = _typed(z - 1.0)
    fx = _evaluator(f)

    def remainder(side: Expansion) -> Callable[[float], complex]:
        """x -> (f(x) - side(x)) x^{z-1}, one log per node, shared by the side and the weight.

        An empty side subtracts 0.0, and at z = 1 the weight is 1.0: both
        are left out.  That leaves every float value as it was, and a
        complex one too, but for the sign of a zero part and the NaN of the
        other part of an infinite one: before Python 3.14 the product with
        1.0 was a complex one, with 1.0 + 0j, which turns -0.0 into 0.0 and
        inf * 0.0 into NaN.
        """
        if not side.terms:
            if zm1 == 0:
                return fx
            return lambda x: fx(x) * exp(zm1 * math.log(x))
        at = side._at  # at_log without the method's frame
        if zm1 == 0:
            return lambda x: fx(x) - at(math.log(x))

        def fn(x: float) -> complex:
            L = math.log(x)
            return (fx(x) - at(L)) * exp(zm1 * L)

        return fn

    # noise grows only on a side with terms: x^-s0 at zero, x^s1 at infinity
    g0 = g1 = 0.0
    if f.exp0.terms:
        g0 = max(0.0, -min(t.exponent.real for t in f.exp0.terms)) - z.real
    if f.exp_inf.terms:
        g1 = max(0.0, max(t.exponent.real for t in f.exp_inf.terms)) + z.real - 2.0
    u0 = _cutoff(p - 1.0 + z.real, g0, tol)
    u1 = _cutoff(q + 1.0 - z.real, g1, tol)
    low, _ = quad_01(remainder(f.exp0), tol, points=f.quad_points(), u_max=u0)
    high, _ = quad_1inf(remainder(f.exp_inf), tol, points=f.quad_points(), u_max=u1)
    return _plus_moments(low, f.exp0, zm1, moment_unit_interval), _plus_moments(high, f.exp_inf, zm1, moment_tail)


def _plus_moments(total: complex, side: Expansion, zm1: complex, moment: Callable) -> complex:
    """``total`` plus the moment of x^{z-1} times each term of the side, term by term.

    A term's log powers are summed before the term is added, so the two
    terms of a conjugate pair add exact conjugates, and a real total stays
    exactly real when they are next to each other, as make_side's (Re, Im)
    order puts them unless two pairs share a real part.
    """
    for t in side.terms:
        a = t.exponent + zm1
        if abs(a + 1.0) > EXPONENT_TOL:
            term = 0
            for k, c in enumerate(t.poly.coeffs):
                if c != 0:
                    term += c * moment(a, k)
            total += term
    return total


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


class MellinPole(NamedTuple):
    location: complex
    order: int


class MellinResult(NamedTuple):
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
    if not 0 < t < math.inf:
        raise ValueError(f"scale factor must be a finite positive number, got {t}")
    lt = math.log(t)

    def remap(side: Expansion) -> list[tuple[complex, list[complex]]]:
        # the coefficients of poly.shift(lt).scale(t^a), with no LogPolynomial in between
        out = []
        for trm in side.terms:
            s = cmath.exp(trm.exponent * lt)
            out.append((trm.exponent, [s * c for c in (shifted(trm.poly.coeffs, lt) if lt else trm.poly.coeffs)]))
        return out

    support = None
    if f.support is not None:
        support = (f.support[0] / t, f.support[1] / t)
    fx = _evaluator(f)
    return AsymFunction(
        fn=lambda x: fx(t * x),
        exp0=make_side(remap(f.exp0), f.exp0.order, "zero"),
        exp_inf=make_side(remap(f.exp_inf), f.exp_inf.order, "infinity"),
        support=support,
    )


def scaling_rule(f: AsymFunction, t: float, base: complex) -> complex:
    """Regularized integral of x -> f(t x) from ``base``, the one of f itself.

    Callers that scale one function by many t compute ``reg_integral(f)``
    once and pass it here for each t.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"scale factor must be a finite positive number, got {t}")
    lt = math.log(t)
    q_anti = f.exp_inf.poly_at(-1).antiderivative()
    p_anti = f.exp0.poly_at(-1).antiderivative()
    return (base + q_anti(lt) - p_anti(lt)) / t


def scale_reg_integral(f: AsymFunction, t: float, tol: float = DEFAULT_TOL) -> complex:
    """Regularized integral of x -> f(t x) via the closed-form scaling rule."""
    if not 0 < t < math.inf:
        raise ValueError(f"scale factor must be a finite positive number, got {t}")
    return scaling_rule(f, t, reg_integral(f, tol))


def power_log_multiply(f: AsymFunction, alpha: complex, j: int = 0) -> AsymFunction:
    """The function x -> x^alpha ln^j x * f(x), expansions transformed exactly."""
    alpha = complex(alpha)

    def shift(side: Expansion) -> list[tuple[complex, LogPolynomial]]:
        return [(t.exponent + alpha, t.poly.times_log_power(j)) for t in side.terms]

    fx = _evaluator(f)
    a, exp = _typed(alpha)

    def fn(x: float) -> complex:
        L = math.log(x)
        return fx(x) * exp(a * L) * L**j

    return AsymFunction(
        fn=fn,
        exp0=make_side(shift(f.exp0), f.exp0.order + alpha.real, "zero"),
        exp_inf=make_side(shift(f.exp_inf), f.exp_inf.order - alpha.real, "infinity"),
        support=f.support,
    )
