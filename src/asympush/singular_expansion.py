"""Asymptotic expansion of int_0^inf sigma(x, x z) dx for large z.

The integrand is a two-variable function whose large-second-argument behavior
is declared as a finite list of terms zeta^alpha * p_alpha(x, ln zeta), with
log-polynomial data whose coefficients are functions of x.  The expansion of
the integral has three sources:

  (i)   boundary terms: regularized integrals of zeta^j d_x^j sigma(0, zeta),
        contributing z^{-j-1};
  (ii)  the declared terms themselves, re-expanded in ln z, contributing
        z^alpha with log-polynomial coefficients built from regularized
        integrals in x;
  (iii) extra log terms at integer exponents alpha in [-p, -1], built from
        the log-antiderivative of p_alpha evaluated on the x-boundary.

Separable integrands phi(t x) f(x) and phi(x) f(x/t) have their own, more
explicit expansions (:func:`separable_expansion`, :func:`corollary_expansion`).

Hypothesis checks are sampled diagnostics, not proofs; they estimate the
remainder constants and probe the integrability conditions numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable, Sequence

import numpy as np

from . import expressions as ex
from .asymfun import (
    AsymFunction,
    make_side,
    power_log_multiply,
    reg_integral,
    schwartz,
)
from .expansions import Expansion, ExpansionBuilder
from .logpoly import EXPONENT_TOL, LogPolynomial
from .quadrature import DEFAULT_TOL, QuadratureError, quad_interval

__all__ = [
    "SigmaTerm",
    "SigmaFunction",
    "sigma_from_expression",
    "ExpansionReport",
    "HypothesisDiagnostics",
    "ResidualReport",
    "MissingExpansionData",
    "HypothesisFailure",
    "asymptotic_expansion",
    "separable_expansion",
    "corollary_expansion",
    "check_hypotheses",
    "verify_expansion",
]


class MissingExpansionData(ValueError):
    """The integrand lacks declared data needed to regularize an integral."""


class HypothesisFailure(RuntimeError):
    """Sampled hypothesis diagnostics failed; carries the report."""

    def __init__(self, diagnostics: "HypothesisDiagnostics"):
        super().__init__("sampled hypothesis diagnostics failed")
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SigmaTerm:
    """One declared large-zeta term: zeta^exponent * sum_i coeffs[i](x) ln^i zeta."""

    exponent: complex
    coeffs: tuple[AsymFunction, ...]


@dataclass
class SigmaFunction:
    fn: Callable[[float, float], float]
    order: int  # p: expansion depth
    terms: tuple[SigmaTerm, ...] = ()
    log_bound: int = 0  # r: log power allowed in the remainder
    ast: ex.Expr | None = None  # in variables x, zeta
    x_support: tuple[float, float] | None = None
    # sigma vanishes for zeta below this cutoff (support hint); when absent
    # and the AST is step-free, small-zeta data is derived by Taylor expansion
    zeta_vanishes_below: float | None = None
    _xderiv_cache: dict = field(default_factory=dict, repr=False)

    def __call__(self, x: float, zeta: float) -> float:
        if self.x_support is not None:
            a, b = self.x_support
            if x < a or x > b:
                return 0.0
        if self.zeta_vanishes_below is not None and zeta < self.zeta_vanishes_below:
            return 0.0
        return self.fn(x, zeta)

    def _x_deriv_ast(self, j: int) -> ex.Expr | None:
        """d^j sigma / dx^j as an expression; None without an AST free of step(x)."""
        if j not in self._xderiv_cache:
            node = self.ast
            try:
                for _ in range(j if node is not None else 0):
                    node = ex.diff(node, "x")
            except ex.DiffError:
                node = None
            self._xderiv_cache[j] = node
        return self._xderiv_cache[j]

    def x_deriv(self, j: int) -> Callable[[float, float], float]:
        """d^j sigma / dx^j as a function of (x, zeta)."""
        if j == 0:
            return self.__call__
        node = self._x_deriv_ast(j)
        if node is not None:

            def deriv(x: float, zeta: float) -> float:
                if self.x_support is not None and not (
                    self.x_support[0] <= x <= self.x_support[1]
                ):
                    return 0.0
                if (
                    self.zeta_vanishes_below is not None
                    and zeta < self.zeta_vanishes_below
                ):
                    return 0.0
                return ex.evaluate(node, {"x": x, "zeta": zeta})

        else:
            if j > 6:
                raise ValueError("finite-difference fallback supports at most 6 derivatives")

            def deriv(x: float, zeta: float, j=j) -> float:
                h = 1e-2 / (1 << j)

                def stencil(step: float) -> float:
                    return sum(
                        (-1) ** (j - m) * comb(j, m) * self(x + (m - j / 2.0) * step, zeta)
                        for m in range(j + 1)
                    ) / step**j

                coarse, fine = stencil(h), stencil(h / 2.0)
                return (4.0 * fine - coarse) / 3.0

        return deriv

    def boundary_function(self, j: int) -> AsymFunction:
        """zeta^j/j! * d_x^j sigma(0, zeta) as an AsymFunction of zeta."""
        dj = self.x_deriv(j)
        scale = 1.0 / factorial(j)

        def fn(zeta: float) -> float:
            d = dj(0.0, zeta)
            if d == 0.0:
                return 0.0
            try:
                return zeta**j * scale * d
            except OverflowError:
                # zeta^j overflows alone but the product is representable
                return math.copysign(
                    scale * math.exp(j * math.log(zeta) + math.log(abs(d))), d
                )

        # sigma remainder is O(zeta^{-p-1}), so this one decays like zeta^{j-p-1}
        order_inf = self.order - j - 0.01
        inf_terms = []
        for term in self.terms:
            if (term.exponent + j).real < -max(order_inf, 0.5) - 1:
                continue  # absorbed by the remainder bound
            poly = [c.nth_deriv_at_zero(j) * scale for c in term.coeffs]
            if any(v != 0 for v in poly):
                inf_terms.append((term.exponent + j, LogPolynomial(poly)))

        if self.zeta_vanishes_below is not None and self.zeta_vanishes_below > 0:
            zero_side = make_side([], 2.0, "zero")
            support = (self.zeta_vanishes_below, math.inf)
        elif (node := self._x_deriv_ast(j)) is not None:
            try:
                cs = ex.taylor(node, "zeta", 0.0, 2, {"x": 0.0})
            except (ex.EvalError, ex.DiffError) as e:
                raise MissingExpansionData(
                    f"small-argument Taylor data for boundary function j={j} "
                    f"is not defined at zero: {e}"
                ) from e
            zero_side = make_side([(j + m, (c * scale,)) for m, c in enumerate(cs)], j + 3.0, "zero")
            support = None
        else:
            raise MissingExpansionData(
                f"no small-argument data for boundary function j={j}: "
                "declare a vanishing cutoff or use a step-free expression"
            )
        return AsymFunction(
            fn=fn,
            exp0=zero_side,
            exp_inf=make_side(inf_terms, max(order_inf, 0.5), "infinity"),
            support=support,
        )


def sigma_from_expression(
    text: str | ex.Expr,
    order: int,
    terms: Sequence[SigmaTerm] = (),
    log_bound: int = 0,
    x_support: tuple[float, float] | None = None,
    zeta_vanishes_below: float | None = None,
) -> SigmaFunction:
    ast = ex.parse(text) if isinstance(text, str) else text
    extra = ex.free_vars(ast) - {"x", "zeta"}
    if extra:
        raise ValueError(f"expression has free variables besides x, zeta: {sorted(extra)}")

    def fn(x: float, zeta: float) -> float:
        return ex.evaluate(ast, {"x": x, "zeta": zeta})

    return SigmaFunction(
        fn=fn,
        order=order,
        terms=tuple(terms),
        log_bound=log_bound,
        ast=ast,
        x_support=x_support,
        zeta_vanishes_below=zeta_vanishes_below,
    )


# ---------------------------------------------------------------------------
# the central expansion


@dataclass(frozen=True)
class ExpansionReport:
    expansion: Expansion
    diagnostics: "HypothesisDiagnostics | None" = None
    notes: tuple[str, ...] = ()


def asymptotic_expansion(
    sigma: SigmaFunction,
    tol: float = DEFAULT_TOL,
    run_diagnostics: bool = False,
) -> ExpansionReport:
    """Expansion of int_0^inf sigma(x, x z) dx in the large variable z."""
    p = sigma.order
    builder = ExpansionBuilder("z")
    notes: list[str] = []

    # (i) boundary terms z^{-j-1}
    for j in range(p):
        g = sigma.boundary_function(j)
        builder.add(complex(-j - 1), 0, reg_integral(g, tol))

    # (ii) declared terms, re-expanded in ln z
    for term in sigma.terms:
        if term.exponent.real <= -p - 1 + EXPONENT_TOL:
            notes.append(f"declared term at {term.exponent} below cutoff; skipped")
            continue
        top = len(term.coeffs) - 1
        for m in range(top + 1):
            val = 0j
            for i in range(m, top + 1):
                inner = power_log_multiply(term.coeffs[i], term.exponent, i - m)
                val += comb(i, m) * reg_integral(inner, tol)
            builder.add(term.exponent, m, val)

    # (iii) integer-exponent log terms
    for term in sigma.terms:
        a = term.exponent
        if abs(a.imag) > EXPONENT_TOL:
            continue
        n = -a.real
        if abs(n - round(n)) > EXPONENT_TOL:
            continue
        n = int(round(n))
        if not (1 <= n <= p):
            continue
        m_dx = n - 1
        for i, cf in enumerate(term.coeffs):
            c = cf.nth_deriv_at_zero(m_dx) / ((i + 1) * factorial(m_dx))
            builder.add(a, i + 1, c)

    expansion = builder.build(-p - 1.0, sigma.log_bound + 1)
    diagnostics = check_hypotheses(sigma) if run_diagnostics else None
    if diagnostics is not None and not diagnostics.ok:
        raise HypothesisFailure(diagnostics)
    return ExpansionReport(expansion, diagnostics, tuple(notes))


# ---------------------------------------------------------------------------
# separable integrands


def separable_expansion(
    phi: str | ex.Expr, f: AsymFunction, q: float, tol: float = DEFAULT_TOL
) -> Expansion:
    """Expansion in t of the regularized integral of phi(t x) f(x)."""
    phi_ast = ex.parse(phi) if isinstance(phi, str) else phi
    if q > f.exp_inf.order + EXPONENT_TOL:
        raise MissingExpansionData(
            f"requested order q={q} exceeds declared infinity order {f.exp_inf.order}"
        )
    n_top = math.ceil(q) + 1
    phi_fun = schwartz(phi_ast, n_taylor=n_top + 4)
    phi_taylor = [phi_fun.exp0.poly_at(m).coefficient(0) for m in range(n_top + 3)]
    builder = ExpansionBuilder("t")

    # Taylor-moment terms t^j
    for j in range(n_top):
        if j >= q:
            break
        mj = reg_integral(power_log_multiply(f, j), tol)
        builder.add(complex(j), 0, phi_taylor[j] * mj)

    for term in f.exp_inf.terms:
        beta, poly = term.exponent, term.poly
        if beta.real < -q - 1 - EXPONENT_TOL:
            continue
        top = poly.degree
        # phi-weighted moments of x^beta q_beta(ln x - ln t)
        for m in range(top + 1):
            val = 0j
            for i in range(m, top + 1):
                val += (
                    comb(i, m)
                    * poly.coefficient(i)
                    * reg_integral(power_log_multiply(phi_fun, beta, i - m), tol)
                )
            builder.add(-beta - 1.0, m, (-1) ** m * val)
        # integer beta: log-antiderivative correction
        if abs(beta.imag) <= EXPONENT_TOL:
            n = -beta.real
            if abs(n - round(n)) <= EXPONENT_TOL and 1 <= round(n) <= q + 1:
                n = int(round(n))
                anti = poly.antiderivative()
                pref = phi_taylor[n - 1]
                for m, c in enumerate(anti.coeffs):
                    builder.add(-beta - 1.0, m, pref * (-1) ** m * c)
    return builder.build(q)


def corollary_expansion(
    phi: str | ex.Expr, f: AsymFunction, q: float, tol: float = DEFAULT_TOL
) -> Expansion:
    """Expansion in t of the regularized integral of phi(x) f(x/t).

    The scaling rule shifts every power of the separable expansion up by one
    and adds log corrections from integer exponents in the expansion of f at
    zero.
    """
    phi_ast = ex.parse(phi) if isinstance(phi, str) else phi
    base = separable_expansion(phi_ast, f, q, tol)
    builder = ExpansionBuilder("t")
    for a, poly in base.terms:
        for m, c in enumerate(poly.coeffs):
            builder.add(a + 1.0, m, c)
    phi_taylor = ex.taylor(phi_ast, "x", 0.0, math.ceil(q) + 2)
    for term in f.exp0.terms:
        alpha, poly = term.exponent, term.poly
        if abs(alpha.imag) > EXPONENT_TOL:
            continue
        n = -alpha.real
        if abs(n - round(n)) > EXPONENT_TOL or not (1 <= round(n) <= q + 1):
            continue
        n = int(round(n))
        anti = poly.antiderivative()
        pref = -phi_taylor[n - 1]
        for m, c in enumerate(anti.coeffs):
            builder.add(-alpha, m, pref * (-1) ** m * c)
    return builder.build(q + 1.0)


# ---------------------------------------------------------------------------
# diagnostics and oracle verification


@dataclass(frozen=True)
class HypothesisDiagnostics:
    remainder_constants: dict  # (J, K) -> sampled constant
    boundary_integrals: dict  # j -> value or math.inf
    growth_model: str  # "constant" | "log" | "power" | "n/a"
    growth_exponent: float | None
    ok: bool
    notes: tuple[str, ...] = ()


def _dyadic_integral(g: Callable[[float], float], levels: int = 26, tol: float = 1e-8):
    """Integral of |g| over (0,1] by dyadic pieces; detects divergence at 0.

    Returns (value, diverges): value is math.inf when the piecewise sums do
    not decay.
    """
    total = 0.0
    pieces = []
    for k in range(levels):
        a, b = 2.0 ** (-k - 1), 2.0 ** (-k)
        val, _ = quad_interval(lambda s: abs(g(s)), a, b, tol)
        pieces.append(val)
        total += val
    head = sum(pieces[:6])
    tail = sum(pieces[-6:])
    if tail > 0.1 * max(head, 1e-300) and tail > 1e-12:
        return math.inf, True
    return total, False


def check_hypotheses(
    sigma: SigmaFunction,
    zeta_max: float = 100.0,
    n_grid: int = 10,
    max_jk: int = 2,
) -> HypothesisDiagnostics:
    """Sampled estimates for the remainder bound and integrability conditions."""
    p, r = sigma.order, sigma.log_bound
    notes: list[str] = []
    ok = True

    def remainder(x: float, zeta: float, K: int) -> float:
        val = sigma.x_deriv(K)(x, zeta)
        for term in sigma.terms:
            if term.exponent.real <= -p - 1:
                continue
            L = math.log(zeta)
            w = zeta**term.exponent.real  # real exponents dominate sampling
            coeff = sum(
                (c.nth_deriv_at_zero(K) if x == 0.0 else _nth_deriv(c, K, x)) * L**i
                for i, c in enumerate(term.coeffs)
            )
            val -= (w * coeff).real
        return val

    def _nth_deriv(c: AsymFunction, K: int, x: float) -> complex:
        if K == 0:
            return c(x)
        if c.ast is not None:
            return ex.taylor(c.ast, "x", x, K)[K] * factorial(K)
        if K > 1:
            raise ex.DiffError(f"no expression for derivative {K} of a term coefficient")
        h = 1e-3
        return (c(x + h) - c(x - h)) / (2.0 * h)

    constants: dict = {}
    zetas = np.geomspace(1.0, zeta_max, n_grid)
    for J in range(min(max_jk, max(p, 1)) + 1):
        for K in range(min(max_jk, p if p > 0 else 0) + 1):
            worst = 0.0
            for zeta in zetas:
                for x in np.geomspace(1e-3, zeta, 6):
                    bound = zeta ** (-p - 1) * max(abs(math.log(zeta)) ** r, 1.0)
                    try:
                        worst = max(worst, abs(x**J * remainder(x, zeta, K)) / bound)
                    except (ex.EvalError, ex.DiffError):
                        notes.append(f"remainder sample failed at J={J} K={K}")
            constants[(J, K)] = worst

    boundary: dict = {}
    for j in range(p):
        dj = sigma.x_deriv(j)
        val, diverges = _dyadic_integral(lambda z: z**j * dj(0.0, z))
        boundary[j] = val
        if diverges:
            ok = False
            notes.append(f"boundary integral j={j} diverges")

    growth_model, growth_T = "n/a", None
    if p == 0:
        thetas = [2.0 ** (-k) for k in range(0, 11)]
        vals = []
        diverged = False
        for th in thetas:
            v, dv = _dyadic_integral(lambda s: sigma(th * s, s))
            if dv:
                diverged = True
                break
            vals.append(v)
        if diverged:
            growth_model = "power"
            growth_T = math.inf
            ok = False
            notes.append("theta-scan integral diverges")
        else:
            arr = np.array(vals)
            lth = np.log(np.array(thetas))
            if arr.max() - arr.min() <= 0.05 * (abs(arr).max() + 1e-300):
                growth_model = "constant"
            else:
                # compare affine-in-log-theta against power-law fits
                A = np.vstack([np.ones_like(lth), lth]).T
                c_log, res_log = np.linalg.lstsq(A, arr, rcond=None)[:2]
                pos = arr > 0
                if pos.sum() >= 3:
                    c_pow, res_pow = np.linalg.lstsq(
                        A[pos], np.log(arr[pos]), rcond=None
                    )[:2]
                else:
                    c_pow, res_pow = None, [math.inf]
                r_log = float(res_log[0]) if len(res_log) else 0.0
                r_pow = float(res_pow[0]) if len(res_pow) else 0.0
                if c_pow is not None and r_pow < r_log and c_pow[1] < -0.1:
                    growth_model = "power"
                    growth_T = float(-c_pow[1])
                else:
                    growth_model = "log"

    return HypothesisDiagnostics(
        remainder_constants=constants,
        boundary_integrals=boundary,
        growth_model=growth_model,
        growth_exponent=growth_T,
        ok=ok,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class ResidualReport:
    rows: tuple[tuple[float, float, float, float], ...]  # z, direct, predicted, |residual|
    decay_exponent: float | None
    log_power: float | None
    max_residual: float


def direct_integral(sigma: SigmaFunction, z: float, tol: float = DEFAULT_TOL) -> float:
    """int_0^inf sigma(x, x z) dx by quadrature, split at x = 1/z."""
    split = 1.0 / z
    upper = sigma.x_support[1] if sigma.x_support else math.inf

    def g(x: float) -> float:
        return sigma(x, x * z)

    v1, _ = quad_interval(g, 0.0, split, tol)
    if upper <= split:
        return v1
    v2, _ = quad_interval(g, split, upper, tol, points=[1.0, split * 2.0])
    return v1 + v2


def verify_expansion(
    expansion: Expansion,
    sigma: SigmaFunction,
    z_grid: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Compare the truncated expansion against direct quadrature on a z grid."""
    if list(z_grid) != sorted(z_grid) or (z_grid and z_grid[0] < 2.0):
        raise ValueError("z grid must be increasing with entries >= 2")
    rows = []
    for z in z_grid:
        try:
            direct = direct_integral(sigma, z, tol)
        except QuadratureError as e:
            rows.append((z, math.nan, float(expansion(z).real), math.nan))
            continue
        pred = float(expansion(z).real)
        rows.append((z, direct, pred, abs(direct - pred)))

    usable = [(z, r) for z, _, _, r in rows if math.isfinite(r) and r > 1e-13]
    exponent = log_power = None
    if len(usable) >= 3:
        lz = np.log([z for z, _ in usable])
        lr = np.log([r for _, r in usable])
        A = np.vstack([np.ones_like(lz), lz, np.log(lz)]).T
        coef, *_ = np.linalg.lstsq(A, lr, rcond=None)
        exponent, log_power = float(coef[1]), float(coef[2])
    max_res = max((r for *_, r in rows if math.isfinite(r)), default=0.0)
    return ResidualReport(tuple(rows), exponent, log_power, max_res)
