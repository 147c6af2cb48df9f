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
from math import factorial
from typing import NamedTuple, Sequence

from . import expressions as ex
from ._record import Record
from .asymfun import RAPID_DECAY_ORDER, from_expression
from .expansions import Expansion, in_t
from .indexsets import (
    ExponentMatrix,
    IndexFamily,
    IntegrabilityReport,
    check_integrability,
)
from .quadrature import DEFAULT_TOL, SHELL_LEVELS, dyadic_shells, quad_interval
from .singular_expansion import SigmaFunction, SigmaTerm, _least_squares, asymptotic_expansion

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


class Density2D(Record):
    """Density u(x, y) dx dy on the box [0, X] x [0, Y].

    The stored expression is the smooth part; the box cut-off is applied at
    evaluation time and excluded from differentiation (it stays away from the
    origin, where all boundary Taylor data is taken).
    """

    __slots__ = ("ast", "box", "_fn")

    def __init__(self, ast: str | ex.Expr, box: tuple[float, float] = (1.0, 1.0)):
        ast = ex.parse_in(ast, ("x", "y"), "density")
        X, Y = box
        if not (X > 0 and Y > 0):
            raise ValueError("support box must have positive side lengths")
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "_fn", ex.compile_expr(ast, ("x", "y")))

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
        return Density2D(node, (self.box[1], self.box[0]))


def density_from_expression(text: str | ex.Expr, box: tuple[float, float] = (1.0, 1.0)) -> Density2D:
    return Density2D(text, box)


def push_xy(u: Density2D, t: float, tol: float = DEFAULT_TOL) -> float:
    """int u(x, t/x) dx/x: the push-forward of u under (x, y) -> x y at t.

    Integrated in the log variable x = e^s so that both singular regimes
    (x near t and x near the support edge) are resolved; break points at
    x = t, 1, sqrt(t).
    """
    X, Y = u.box
    if not (math.isfinite(X) and math.isfinite(Y)):
        raise ValueError(f"push_xy needs a finite support box, got {u.box}")
    if not 0 < t < X * Y:
        if not t > 0:  # NaN included
            raise ValueError(f"push-forward is defined for t > 0, got {t}")
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
# the small-t expansion, by the singular asymptotics lemma


def sal_prediction_smooth(u: Density2D, J: int, tol: float = DEFAULT_TOL) -> Expansion:
    """Predicted expansion of push_xy(u, t) as t -> 0, through order t^J.

    push_xy(u, t) is the fiber integral of sigma(x, zeta) = u(x, 1/zeta)/x at
    z = 1/t, so this is :func:`asymptotic_expansion` of
    :func:`sigma_from_density` read in t, with ln z = -ln t.  Each order j
    takes one regularized moment on each axis of u, and the corner derivative
    d_x^j d_y^j u(0, 0) gives its t^j ln t term.  A density without that
    Taylor data at an axis raises EvalError, or DiffError for a step there.
    """
    in_z = asymptotic_expansion(sigma_from_density(u, J), tol).expansion
    return in_t([(t.exponent, t.poly.coeffs) for t in in_z.terms], J + 2.0, log_power=in_z.log_power)


# ---------------------------------------------------------------------------
# empirical fitting


CONDITION_WARN = 1e8  # condition number above which fit_asymptotics warns


class FitResult(NamedTuple):
    basis: tuple[tuple[float, int], ...]
    coefficients: tuple[float, ...]
    residual: float  # rms over the sample grid
    condition: float
    grid: tuple[float, ...]


def fit_asymptotics(
    samples: Sequence[tuple[float, float]],
    basis: Sequence[tuple[float, int]],
) -> FitResult:
    """Least squares of sampled values against the basis {t^a ln^b t}; warns above CONDITION_WARN."""
    basis = tuple((float(a), int(b)) for a, b in basis)
    if not basis:
        raise ValueError("the fit basis is empty")
    if len(samples) < 2 * len(basis):
        raise ValueError("need at least twice as many samples as basis elements")
    samples = [(float(t), float(v)) for t, v in samples]
    for t, v in samples:
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ValueError(f"sample (t, value) = ({t}, {v}) is not finite")
    ts = tuple(t for t, _ in samples)
    if any(t <= 0 for t in ts):
        raise ValueError("sample points must be positive")
    L = [math.log(t) for t in ts]
    try:
        columns = [[t**a * l**b for t, l in zip(ts, L)] for a, b in basis]
        if not all(math.isfinite(x) for col in columns for x in col):  # the product overflowed
            raise OverflowError
    except OverflowError:
        raise ValueError("a basis function overflows the float range on this grid") from None
    coef, rank, s, rms = _least_squares(columns, [v for _, v in samples])
    if rank < len(basis):
        raise ValueError("design matrix is rank deficient for this grid")
    cond = s[0] / s[-1]
    if cond > CONDITION_WARN:
        warnings.warn(f"ill-conditioned design matrix (condition {cond:.2e})")
    return FitResult(basis, tuple(coef), rms, cond, ts)


# ---------------------------------------------------------------------------
# the blow-up model


class BlowupDensity(Density2D):
    """Coefficient u_A of a logarithmic density on the blown-up quadrant.

    u_A lives in the chart (x, y) near the corner A; the other chart uses
    (zeta, t) = (x/t, x y) with coefficient u_B(zeta, t) = u_A(zeta t, 1/zeta).
    The index family declares the allowed expansion exponents at the three
    boundary faces G1, G2, G3.  Evaluation is that of :class:`Density2D`.
    """

    __slots__ = ("family",)

    def __init__(self, ast: str | ex.Expr, box: tuple[float, float] = (1.0, math.inf), *, family: IndexFamily):
        super().__init__(ast, box)
        missing = [G for G in ("G1", "G2", "G3") if G not in family]
        if missing:
            raise ValueError(f"index family must cover faces G1, G2, G3; missing {missing}")
        object.__setattr__(self, "family", family)

    def u_B(self, zeta: float, t: float) -> float:
        """The same coefficient in the (zeta, t) chart."""
        return self(zeta * t, 1.0 / zeta)


def blowup_density_from_expression(
    text: str | ex.Expr,
    family: IndexFamily,
    box: tuple[float, float] = (1.0, math.inf),
) -> BlowupDensity:
    return BlowupDensity(text, box, family=family)


def blowup_matrix() -> ExponentMatrix:
    """Exponent matrix of projecting the blown-up quadrant to the t axis.

    The axes G1, G3 hit the target boundary with order one; the front face G2
    projects to interior points, so its row vanishes and it is the nullface.
    """
    return ExponentMatrix(("G1", "G2", "G3"), ("t0",), ((1,), (0,), (1,)))


def _axis_terms(u: Density2D, other: str, order: int) -> tuple[SigmaTerm, ...]:
    """The terms of sigma at the face other = 0, from d_other^m u / m! there, m <= order.

    For other = "y" they are zeta^-m d_y^m u(x, 0) / (m! x), for other = "x"
    x^(m-1) d_x^m u(0, y) / m!: AsymFunctions of the remaining variable, renamed
    x, with Taylor data at 0 deep enough for the expansion engine, zero past
    their box edge.  Only a restriction that is 0 by its structure
    is left out: x^12 has no Taylor data to depth 9, yet its moment is 1/12.
    """
    lead, upper = (-1, u.box[0]) if other == "y" else (0, u.box[1])
    out, depth = [], order + 9
    for m in range(order + 1):
        c = ex.substitute(ex.substitute(ex.diff(u.ast, other, m), other, ex.Num(0.0)), "y", ex.Var("x"))
        if ex.vanishes(c):
            continue
        cs = [v / factorial(m) for v in ex.taylor(c, "x", 0.0, depth)]
        c = ex.BinOp("/", c, ex.Num(float(factorial(m))))
        c = ex.BinOp("/", c, ex.Var("x")) if lead else c
        terms = [(k + lead, [v]) for k, v in enumerate(cs)]
        f = from_expression(c, terms, depth + 1.0 + lead, order_inf=RAPID_DECAY_ORDER, support=(0.0, upper))
        out.append(SigmaTerm(complex(-m if lead else m - 1), (f,)))
    return tuple(out)


def _fiber_integrand(d: Density2D, order: int, **declared) -> SigmaFunction:
    """sigma(x, zeta) = u_A(x, 1/zeta) / x with its support hints, declaring only the terms given."""
    X, Y = d.box
    sig_ast = ex.BinOp("/", ex.substitute(d.ast, "y", ex.BinOp("/", ex.Num(1.0), ex.Var("zeta"))), ex.Var("x"))
    below = (1.0 / Y) if math.isfinite(Y) and Y > 0 else None
    return SigmaFunction(
        lambda x, zeta: d(x, 1.0 / zeta) / x, order, ast=sig_ast,
        x_support=(0.0, X), zeta_vanishes_below=below, **declared,
    )


def sigma_from_density(d: Density2D, order: int = 3) -> SigmaFunction:
    """The fiber integrand sigma(x, zeta) = u_A(x, 1/zeta) / x, declared at both faces.

    From the Taylor data of u_A at its two axes: at zeta = inf the terms
    zeta^-m d_y^m u_A(x, 0) / (m! x), at x = 0 the terms x^(j-1) d_x^j u_A(0, y) / j!
    with y = 1/zeta, for m, j <= order.
    """
    return _fiber_integrand(d, order, terms=_axis_terms(d, "y", order), x_terms=_axis_terms(d, "x", order))


def F_pushforward(d: BlowupDensity, t: float, tol: float = DEFAULT_TOL) -> float:
    """Coefficient of dt/t in the pushed-forward density: int sigma(x, x/t) dx.

    That is int u_A(x, t/x) dx/x: on a finite box ``push_xy(d, t, tol)``, and
    0, without a warning, for t >= X Y.  For u_A = x y u it equals
    t * push_xy(u, t).  When the support reaches the front face (unbounded
    second argument), the integral is monitored on dyadic shells toward
    x = 0 and a structured error is raised when it diverges; the boundedness
    criterion on the front-face index set predicts exactly this.  An
    infinite X raises ValueError.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    X, Y = d.box
    if not math.isfinite(X):  # the shells would start at x = inf and sum to 0
        raise ValueError(f"F_pushforward needs a finite x side, got box {d.box}")
    if not math.isfinite(Y):  # support up to the front face: dyadic shells x in (0, X]
        total, diverges = dyadic_shells(lambda x: d(x, t / x) / x, X, 60, max(tol, 1e-12), (t, 1.0))
        if diverges:
            raise DivergentIntegral(
                f"fiber integral at t={t} diverges toward the front face; "
                "the front-face boundedness condition fails for this density"
            )
        return total
    if t >= X * Y:  # the fiber misses the support
        return 0.0
    return push_xy(d, t, tol)


class ConditionCReport(NamedTuple):
    """Sampled front-face boundedness check next to the index-set verdict."""

    values: dict  # (p, t) -> integral value, math.inf when divergent
    bounded: bool
    integrability: IntegrabilityReport
    agree: bool


def condition_C_check(
    d: BlowupDensity,
    p_max: int = 2,
    t_grid: Sequence[float] = (1.0, 0.5, 0.1),
) -> ConditionCReport:
    """Evaluate int_0^1 zeta^p |d_x^p sigma(zeta t, zeta)| dzeta on a t grid.

    Divergence at zeta = 0 is decided by the dyadic-shell monitor
    (:func:`quadrature.dyadic_shells`) over [2^-SHELL_LEVELS, 1].  The verdict is
    reported next to the combinatorial one (positive real parts on the
    nullface index set).
    """
    sigma = _fiber_integrand(d, p_max)  # only its x-derivatives are read
    values: dict = {}
    for p in range(p_max + 1):
        dp = sigma.x_deriv(p)
        for t in t_grid:
            values[(p, t)], _ = dyadic_shells(lambda z: z**p * abs(dp(z * t, z)), 1.0, SHELL_LEVELS, 1e-9)
    bounded = not any(map(math.isinf, values.values()))
    integ = check_integrability(d.family, blowup_matrix())
    return ConditionCReport(values, bounded, integ, bounded == integ.ok)
