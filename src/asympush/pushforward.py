"""Pushing densities forward under (x, y) -> x y, and its blow-up model.

The fibers of the product map degenerate at the corner of the quadrant, so
even a smooth compactly supported density picks up logarithms when pushed
forward.  This module computes the push-forward numerically, predicts its
small-t expansion from boundary Taylor data, fits sampled values against
log-power bases, and exercises the blown-up picture where the density lives
on a quadrant with three boundary faces (the two axes G1, G3 and the front
face G2 produced by blowing up the corner).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Sequence

import numpy as np

from . import expressions as ex
from .asymfun import AsymFunction, from_expression, power_log_multiply, reg_integral
from .expansions import Expansion, make_side
from .indexsets import (
    ExponentMatrix,
    IndexFamily,
    IntegrabilityReport,
    check_integrability,
)
from .quadrature import DEFAULT_TOL, dyadic_shells, quad_interval
from .singular_expansion import SigmaFunction, SigmaTerm

__all__ = [
    "Density2D",
    "BlowupDensity",
    "FitResult",
    "ConditionCReport",
    "DivergentIntegral",
    "density_from_expression",
    "push_xy",
    "sal_prediction_smooth",
    "fit_asymptotics",
    "blowup_density_from_expression",
    "blowup_matrix",
    "sigma_from_density",
    "F_pushforward",
    "condition_C_check",
]


class DivergentIntegral(RuntimeError):
    """A monitored singular integral failed to converge near a boundary face."""


@dataclass(frozen=True)
class Density2D:
    """Density u(x, y) dx dy on the box [0, X] x [0, Y].

    The stored expression is the smooth part; the box cut-off is applied at
    evaluation time and excluded from differentiation (it stays away from the
    origin, where all boundary Taylor data is taken).
    """

    ast: ex.Expr
    box: tuple[float, float] = (1.0, 1.0)
    smooth: bool = True
    _fn: Callable[[float, float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X, Y = self.box
        if not (X > 0 and Y > 0):
            raise ValueError("support box must have positive side lengths")
        extra = ex.free_vars(self.ast) - {"x", "y"}
        if extra:
            raise ValueError(f"density has free variables besides x, y: {sorted(extra)}")
        object.__setattr__(self, "_fn", ex.compile_expr(self.ast, ("x", "y")))

    def __call__(self, x: float, y: float) -> float:
        X, Y = self.box
        if x < 0 or x > X or y < 0 or y > Y:
            return 0.0
        return self._fn(x, y)

    def swapped(self) -> "Density2D":
        """The density u(y, x) on the transposed box."""
        tmp = ex.Var("__swap__")
        node = ex.substitute(self.ast, "x", tmp)
        node = ex.substitute(node, "y", ex.Var("x"))
        node = ex.substitute(node, "__swap__", ex.Var("y"))
        return Density2D(node, (self.box[1], self.box[0]), self.smooth)


def density_from_expression(
    text: str | ex.Expr, box: tuple[float, float] = (1.0, 1.0), smooth: bool = True
) -> Density2D:
    ast = ex.parse(text) if isinstance(text, str) else text
    return Density2D(ast, box, smooth)


def push_xy(u: Density2D, t: float, tol: float = DEFAULT_TOL) -> float:
    """int u(x, t/x) dx/x: the push-forward of u under (x, y) -> x y at t.

    Integrated in the log variable x = e^s so that both singular regimes
    (x near t and x near the support edge) are resolved; break points at
    x = t, 1, sqrt(t).
    """
    X, Y = u.box
    if not 0 < t < X * Y:
        if t <= 0:
            raise ValueError("push-forward is defined for t > 0")
        warnings.warn(f"t={t} is above the support bound {X * Y}; value is exactly 0")
        return 0.0
    lo, hi = math.log(t / Y), math.log(X)
    pts = [s for s in (math.log(t), 0.0, 0.5 * math.log(t)) if lo < s < hi]
    fn, exp = u._fn, math.exp

    def g(s: float) -> float:  # u(e^s, t e^-s); x, y >= 0, so only the upper box edges cut
        x, y = exp(s), t * exp(-s)
        if x > X or y > Y:
            return 0.0
        return fn(x, y)

    val, _ = quad_interval(g, lo, hi, tol, points=pts)
    return val


# ---------------------------------------------------------------------------
# boundary-Taylor prediction of the small-t expansion


def _axis_restriction(u: Density2D, along: str, j: int) -> ex.Expr:
    """d^j u / d(other)^j restricted to other = 0, as an expression in x."""
    other = "y" if along == "x" else "x"
    node = u.ast
    for _ in range(j):
        node = ex.diff(node, other)
    node = ex.substitute(node, other, ex.Num(0.0))
    if along == "y":
        node = ex.substitute(node, "y", ex.Var("x"))
    return node


def _boundary_asymfun(node: ex.Expr, upper: float, depth: int) -> AsymFunction:
    terms = [(k, [c]) for k, c in enumerate(ex.taylor(node, "x", 0.0, depth))]
    return from_expression(
        node, zero_terms=terms, order_zero=depth + 1.0, inf_terms=[],
        order_inf=40.0, support=(0.0, upper),
    )


def sal_prediction_smooth(u: Density2D, J: int, tol: float = DEFAULT_TOL) -> Expansion:
    """Predicted expansion of push_xy(u, t) as t -> 0, through order t^J.

    Each order j contributes two regularized boundary moments (one per axis)
    and a log term proportional to the corner derivative d_x^j d_y^j u(0,0),
    which is j! times the t^j Taylor coefficient of the y-axis restriction.
    """
    if not u.smooth:
        raise ValueError("the boundary-Taylor prediction needs a smooth density")
    if J > 6:
        raise ValueError("prediction depth J must be at most 6")
    X, Y = u.box
    terms = []
    for j in range(J + 1):
        scale = 1.0 / factorial(j)
        wx = _boundary_asymfun(_axis_restriction(u, "x", j), X, j + 9)
        wy = _boundary_asymfun(_axis_restriction(u, "y", j), Y, j + 9)
        coeff = scale * (
            reg_integral(power_log_multiply(wx, -1.0 - j), tol)
            + reg_integral(power_log_multiply(wy, -1.0 - j), tol)
        )
        terms.append((complex(j), (coeff,)))
        terms.append((complex(j), (0, -wy.exp0.coefficient(j) * scale)))
    return make_side(terms, J + 2.0, "zero", 1)


# ---------------------------------------------------------------------------
# empirical fitting


@dataclass(frozen=True)
class FitResult:
    basis: tuple[tuple[float, int], ...]
    coefficients: tuple[float, ...]
    residual: float  # rms over the sample grid
    condition: float
    grid: tuple[float, ...]


def fit_asymptotics(
    samples: Sequence[tuple[float, float]],
    basis: Sequence[tuple[float, int]],
    condition_warn: float = 1e8,
) -> FitResult:
    """Least squares of sampled values against the basis {t^a ln^b t}."""
    basis = tuple((float(a), int(b)) for a, b in basis)
    if len(samples) < 2 * len(basis):
        raise ValueError("need at least twice as many samples as basis elements")
    ts = np.array([t for t, _ in samples], dtype=float)
    vals = np.array([v for _, v in samples], dtype=float)
    if np.any(ts <= 0):
        raise ValueError("sample points must be positive")
    L = np.log(ts)
    A = np.column_stack([ts**a * L**b for a, b in basis])
    # one SVD gives the rank (lstsq's default cutoff), the 2-norm condition
    # number and the least-squares coefficients
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if np.count_nonzero(s > s[0] * np.finfo(float).eps * max(A.shape)) < len(basis):
        raise ValueError("design matrix is rank deficient for this grid")
    coef = Vt.T @ ((U.T @ vals) / s)
    cond = float(s[0] / s[-1])
    if cond > condition_warn:
        warnings.warn(f"ill-conditioned design matrix (condition {cond:.2e})")
    rms = float(np.sqrt(np.mean((A @ coef - vals) ** 2)))
    return FitResult(basis, tuple(float(c) for c in coef), rms, cond, tuple(ts))


# ---------------------------------------------------------------------------
# the blow-up model


@dataclass(frozen=True)
class BlowupDensity:
    """Coefficient u_A of a logarithmic density on the blown-up quadrant.

    u_A lives in the chart (x, y) near the corner A; the other chart uses
    (zeta, t) = (x/t, x y) with coefficient u_B(zeta, t) = u_A(zeta t, 1/zeta).
    The index family declares the allowed expansion exponents at the three
    boundary faces G1, G2, G3.
    """

    ast: ex.Expr
    family: IndexFamily
    box: tuple[float, float] = (1.0, math.inf)
    _fn: Callable[[float, float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        extra = ex.free_vars(self.ast) - {"x", "y"}
        if extra:
            raise ValueError(f"u_A has free variables besides x, y: {sorted(extra)}")
        missing = [G for G in ("G1", "G2", "G3") if G not in self.family]
        if missing:
            raise ValueError(f"index family must cover faces G1, G2, G3; missing {missing}")
        object.__setattr__(self, "_fn", ex.compile_expr(self.ast, ("x", "y")))

    def __call__(self, x: float, y: float) -> float:
        X, Y = self.box
        if x < 0 or x > X or y < 0 or y > Y:
            return 0.0
        return self._fn(x, y)

    def u_B(self, zeta: float, t: float) -> float:
        """The same coefficient in the (zeta, t) chart."""
        return self(zeta * t, 1.0 / zeta)


def blowup_density_from_expression(
    text: str | ex.Expr,
    family: IndexFamily,
    box: tuple[float, float] = (1.0, math.inf),
) -> BlowupDensity:
    ast = ex.parse(text) if isinstance(text, str) else text
    return BlowupDensity(ast, family, box)


def blowup_matrix() -> ExponentMatrix:
    """Exponent matrix of projecting the blown-up quadrant to the t axis.

    The axes G1, G3 hit the target boundary with order one; the front face G2
    projects to interior points, so its row vanishes and it is the nullface.
    """
    return ExponentMatrix(("G1", "G2", "G3"), ("t0",), ((1,), (0,), (1,)))


def sigma_from_density(d: BlowupDensity, order: int = 3) -> SigmaFunction:
    """The fiber integrand sigma(x, zeta) = u_A(x, 1/zeta) / x.

    Large-zeta terms come from the Taylor expansion of u_A in its second
    argument at 0; their x-coefficients carry boundary Taylor data deep
    enough that every regularized integral of the expansion engine is
    defined.
    """
    X, Y = d.box
    depth = order + 9
    sig_ast = ex.BinOp(
        "/", ex.substitute(d.ast, "y", ex.BinOp("/", ex.Num(1.0), ex.Var("zeta"))),
        ex.Var("x"),
    )

    def fn(x: float, zeta: float) -> float:
        return d(x, 1.0 / zeta) / x

    terms = []
    node = d.ast
    for m in range(order + 1):
        cm = ex.substitute(node, "y", ex.Num(0.0))  # d_y^m u_A(x, 0)
        cs = [c / factorial(m) for c in ex.taylor(cm, "x", 0.0, depth)]
        if any(cs):
            coeff_ast = ex.BinOp(
                "/", cm, ex.BinOp("*", ex.Num(float(factorial(m))), ex.Var("x"))
            )
            cf = from_expression(
                coeff_ast, zero_terms=[(k - 1, [c]) for k, c in enumerate(cs)],
                order_zero=float(depth), inf_terms=[], order_inf=40.0, support=(0.0, X),
            )
            terms.append(SigmaTerm(complex(-m), (cf,)))
        node = ex.diff(node, "y")
    return SigmaFunction(
        fn=fn,
        order=order,
        terms=tuple(terms),
        ast=sig_ast,
        x_support=(0.0, X),
        zeta_vanishes_below=(1.0 / Y) if math.isfinite(Y) and Y > 0 else None,
    )


def F_pushforward(d: BlowupDensity, t: float, tol: float = DEFAULT_TOL) -> float:
    """Coefficient of dt/t in the pushed-forward density: int sigma(x, x/t) dx.

    For u_A = x y u this equals t * push_xy(u, t).  When the support reaches
    the front face (unbounded second argument), the integral is monitored on
    dyadic shells toward x = 0 and a structured error is raised when it
    diverges; the boundedness criterion on the front-face index set predicts
    exactly this.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    X, Y = d.box
    if not math.isfinite(Y):  # support up to the front face: dyadic shells x in (0, X]
        total, diverges = dyadic_shells(lambda x: d(x, t / x) / x, X, 60, max(tol, 1e-12), (t, 1.0))
        if diverges:
            raise DivergentIntegral(
                f"fiber integral at t={t} diverges toward the front face; "
                "the front-face boundedness condition fails for this density"
            )
        return total

    fn, exp = d._fn, math.exp

    def g(s: float) -> float:  # x = e^s, dx/x = ds; integrand sigma(x, x/t) x ds / x
        x = exp(s)
        y = t / x
        if x > X or y > Y:  # d(x, y) with x, y >= 0: only the upper box edges cut
            return 0.0
        return fn(x, y)

    lo, hi = math.log(t / Y), math.log(X)
    if lo >= hi:
        return 0.0
    pts = [s for s in (math.log(t), 0.0) if lo < s < hi]
    val, _ = quad_interval(g, lo, hi, tol, points=pts)
    return val


@dataclass(frozen=True)
class ConditionCReport:
    """Sampled front-face boundedness check next to the index-set verdict."""

    values: dict  # (p, t) -> integral value, math.inf when divergent
    bounded: bool
    integrability: IntegrabilityReport
    agree: bool


def condition_C_check(
    d: BlowupDensity,
    p_max: int = 2,
    t_grid: Sequence[float] = (1.0, 0.5, 0.1),
    levels: int = 26,
) -> ConditionCReport:
    """Evaluate int_0^1 zeta^p |d_x^p sigma(zeta t, zeta)| dzeta on a t grid.

    Divergence at zeta = 0 is decided by the dyadic-shell monitor
    (:func:`quadrature.dyadic_shells`) over [2^-levels, 1].  The verdict is
    reported next to the combinatorial one (positive real parts on the
    nullface index set).
    """
    if p_max > 4:
        raise ValueError("p_max must be at most 4")
    sigma = sigma_from_density(d, order=p_max)
    values: dict = {}
    for p in range(p_max + 1):
        dp = sigma.x_deriv(p)
        for t in t_grid:
            values[(p, t)], _ = dyadic_shells(lambda z: z**p * abs(dp(z * t, z)), 1.0, levels, 1e-9)
    bounded = not any(map(math.isinf, values.values()))
    integ = check_integrability(d.family, blowup_matrix())
    return ConditionCReport(values, bounded, integ, bounded == integ.ok)
