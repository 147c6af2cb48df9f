"""Asymptotic expansion of int_0^inf sigma(x, x z) dx for large z.

The integrand is declared at both faces: at zeta = inf by terms
zeta^alpha p_alpha(x, ln zeta), at x = 0 by terms x^beta q_beta(1/zeta, ln x),
with log-polynomial coefficients that are functions of x, resp. y = 1/zeta.
The expansion of the integral has four sources:

  (i)   each x-side term gives z^(-beta-1) times the regularized integral of
        zeta^beta q_beta, taken in y (inversion leaves it unchanged).  For a
        sigma smooth in x they are x^j d_x^j sigma(0, zeta)/j!, j < p;
  (ii)  each zeta-side term gives z^alpha, re-expanded in ln z, with
        coefficients from regularized integrals in x;
  (iii) a monomial x^(-1-alpha) ln^k x zeta^alpha ln^i zeta at the corner
        (x = 0, zeta = inf), whose x^-1 moment (i) and (ii) both skip, gives
        z^alpha times its integral over ln x from -ln z to 0 on the fiber;
        it is read once, and where both sides declare it the two must agree;
  (iv)  at the corner (x = 0, zeta = 0), read from the zero side (y = inf)
        of the x-side coefficients, the negative of that integral.

Terms reach down to the remainder's exponent z^(-p-1), where an x-side term
gives only its logs: its moment would need sigma at zeta = inf past order p.

Separable integrands are the engine on sigma(x, zeta) = phi(x) f(zeta): the
fiber integral int phi(x) f(x/t) dx at z = 1/t (:func:`corollary_expansion`),
and 1/t times it less the logs of (iv), int phi(t x) f(x) dx by the scaling
rule (:func:`separable_expansion`).

Hypothesis checks are sampled diagnostics, not proofs; they estimate the
remainder constants and probe the integrability conditions numerically.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations
from math import comb, factorial
from operator import add
from typing import Callable, NamedTuple, Sequence

from . import expressions as ex
from ._record import Record
from .asymfun import (
    ORDER_EPS,
    RAPID_DECAY_ORDER,
    AsymFunction,
    MissingExpansionData,
    _check_support,
    _evaluator,
    power_log_multiply,
    reg_integral,
    schwartz,
)
from .expansions import Expansion, in_t, make_side
from .logpoly import EXPONENT_TOL, LogPolynomial
from .quadrature import DEFAULT_TOL, SHELL_LEVELS, QuadratureError, dyadic_shells, geometric_grid, grows, quad_interval

__all__ = [
    "SigmaTerm",
    "SigmaFunction",
    "sigma_from_expression",
    "ExpansionReport",
    "HypothesisDiagnostics",
    "ResidualReport",
    "MissingExpansionData",
    "asymptotic_expansion",
    "separable_expansion",
    "corollary_expansion",
    "check_hypotheses",
    "verify_expansion",
    "fit_decay",
]


class SigmaTerm(NamedTuple):
    """One declared term: zeta^exponent * sum_i coeffs[i](x) ln^i zeta at zeta = inf,
    or, on the x side, x^exponent * sum_i coeffs[i](1/zeta) ln^i x at x = 0."""

    exponent: complex
    coeffs: tuple[AsymFunction, ...]


class SigmaFunction(Record):
    __slots__ = (
        "fn", "order", "terms", "log_bound", "ast", "x_support", "zeta_vanishes_below", "x_terms",
        "_xderiv_cache",  # j -> [expression, SigmaFunction of it]
    )

    def __init__(
        self,
        fn: Callable[[float, float], float],
        order: int,  # p: expansion depth (a separable sigma's is the order q of its t-expansion)
        terms: tuple[SigmaTerm, ...] = (),
        log_bound: int = 0,  # r: log power allowed in the remainder
        ast: ex.Expr | None = None,  # in variables x, zeta
        x_support: tuple[float, float] | None = None,
        # sigma vanishes for zeta below this cutoff (support hint); when absent
        # and the AST is step-free, small-zeta data is derived by Taylor expansion
        zeta_vanishes_below: float | None = None,
        # declared x = 0 terms, coefficients in y = 1/zeta; None: sigma is smooth
        # in x, and boundary_function builds them from its Taylor data
        x_terms: tuple[SigmaTerm, ...] | None = None,
    ):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "log_bound", log_bound)
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "x_support", x_support)
        object.__setattr__(self, "zeta_vanishes_below", zeta_vanishes_below)
        object.__setattr__(self, "x_terms", x_terms)
        object.__setattr__(self, "_xderiv_cache", {})

    def __call__(self, x: float, zeta: float) -> float:
        if self.x_support is not None:
            a, b = self.x_support
            if x < a or x > b:
                return 0.0
        if self.zeta_vanishes_below is not None and zeta < self.zeta_vanishes_below:
            return 0.0
        return self.fn(x, zeta)

    def _x_deriv_ast(self, j: int) -> ex.Expr:
        """d^j sigma / dx^j as an expression; MissingExpansionData without an AST free of step(x)."""
        cache = self._xderiv_cache
        if self.ast is None:
            raise MissingExpansionData(f"x-derivative of order {j}: sigma has no expression")
        if j not in cache:
            try:
                cache[j] = [ex.diff(self.ast, "x", j), None]
            except ex.DiffError as e:
                raise MissingExpansionData(f"x-derivative of order {j}: {e}") from e
        return cache[j][0]

    def x_deriv(self, j: int) -> Callable[[float, float], float]:
        """d^j sigma / dx^j as a function of (x, zeta), from the expression (:meth:`_x_deriv_ast`)."""
        if j == 0:
            return self.__call__
        node = self._x_deriv_ast(j)
        entry = self._xderiv_cache[j]  # compiled once, beside its expression, with sigma's support hints
        if entry[1] is None:
            fn = ex.compile_expr(node, ("x", "zeta"))
            entry[1] = SigmaFunction(
                fn, self.order, x_support=self.x_support, zeta_vanishes_below=self.zeta_vanishes_below
            )
        return entry[1].__call__

    def boundary_function(self, j: int) -> SigmaTerm:
        """The x-side term x^j q_j of a sigma smooth in x: q_j(y) = d_x^j sigma(0, 1/y)/j!.

        Its data at y = 0 comes from the declared zeta-side terms, its data at
        y = inf from the Taylor expansion of sigma in zeta, or from the cutoff.
        """
        dj = self.x_deriv(j)
        scale = 1.0 / factorial(j)

        def fn(y: float) -> float:
            return scale * dj(0.0, 1.0 / y)

        # sigma's remainder is O(zeta^{-p-1}) = O(y^{p+1})
        order_zero = self.order + 2 - ORDER_EPS
        zero_terms = []
        for term in self.terms:
            if -term.exponent.real > order_zero - 1:
                continue  # absorbed by the remainder bound
            # ln zeta = -ln y
            poly = [(-1) ** i * c.nth_deriv_at_zero(j) * scale for i, c in enumerate(term.coeffs)]
            if any(v != 0 for v in poly):
                zero_terms.append((-term.exponent, LogPolynomial(poly)))

        if self.zeta_vanishes_below is not None and self.zeta_vanishes_below > 0:
            inf_side = make_side([], RAPID_DECAY_ORDER, "infinity")
            support = (0.0, 1.0 / self.zeta_vanishes_below)
        else:
            try:
                cs = ex.taylor(self._x_deriv_ast(j), "zeta", 0.0, 2, {"x": 0.0})
            except (ex.EvalError, ex.DiffError) as e:
                raise MissingExpansionData(
                    f"small-argument Taylor data for boundary function j={j} "
                    f"is not defined at zero: {e}"
                ) from e
            inf_side = make_side([(-m, (c * scale,)) for m, c in enumerate(cs)], 1.0, "infinity")
            support = None
        q = AsymFunction(fn=fn, exp0=make_side(zero_terms, order_zero, "zero"), exp_inf=inf_side, support=support)
        return SigmaTerm(complex(j), (q,))


def sigma_from_expression(
    text: str | ex.Expr,
    order: int,
    terms: Sequence[SigmaTerm] = (),
    log_bound: int = 0,
    x_support: tuple[float, float] | None = None,
    zeta_vanishes_below: float | None = None,
) -> SigmaFunction:
    ast = ex.parse_in(text, ("x", "zeta"))
    _check_support(x_support, "x_support")
    return SigmaFunction(
        fn=ex.compile_expr(ast, ("x", "zeta")),
        order=order,
        terms=tuple(terms),
        log_bound=log_bound,
        ast=ast,
        x_support=x_support,
        zeta_vanishes_below=zeta_vanishes_below,
    )


# ---------------------------------------------------------------------------
# the central expansion


class ExpansionReport(NamedTuple):
    expansion: Expansion
    notes: tuple[str, ...] = ()


def _corner_log(terms: list, at: complex, poly: LogPolynomial, power: int, sign: int = 1) -> None:
    """Append at z^at the log terms of the corner monomials ln^power v poly(ln w).

    v, w are the logs of zeta and x on the zeta side (sign 1), of x and y on
    the x side (sign -1).  On the fiber, z^at x^-1 ln^n x ln^i zeta integrated
    over ln x from -ln z to 0 is the antiderivative of (-1)^n ln^(n+i) z / C(n+i, n).
    """
    for n, c in enumerate(poly.coeffs):
        if c != 0:  # one append per monomial, so no merge touches the signed zeros of the other terms
            k = n + power
            base = LogPolynomial((0,) * k + (sign * (-sign) ** n / comb(k, n),))
            terms.append((at, [c * sign**m * a for m, a in enumerate(base.antiderivative().coeffs)]))


class _Multiple(AsymFunction):
    """scale * source(v^power), power 1 or -1, with the source's expansions; :func:`_moment` takes
    its moments on the source, where the data lives: source(1/y) and the swapped terms do not
    cancel to the last bit, and the cut-off of a subtracted integral amplifies the rest."""

    __slots__ = ("source", "scale", "power")

    def __init__(self, fn, exp0, exp_inf, support=None, ast=None, source: AsymFunction | None = None,
                 scale: complex = 1.0, power: int = 1):
        super().__init__(fn, exp0, exp_inf, support, ast)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "power", power)


def _multiple(source: AsymFunction, scale: complex, power: int = 1) -> _Multiple:
    def side(e: Expansion, at: str, shift: float) -> Expansion:  # v^a p(ln v) at v = 1/y is y^-a p(-ln y)
        return make_side(
            [(power * t.exponent, [scale * power**m * c for m, c in enumerate(t.poly.coeffs)]) for t in e.terms],
            e.order + shift, at,
        )

    near, far = (source.exp0, source.exp_inf)[::power]  # strip (1 - r0, 1 + r1) -> (-1 - r1, r0 - 1)
    fx = _evaluator(source)
    return _Multiple(
        lambda v: scale * fx(v**power), side(near, "zero", 1 - power), side(far, "infinity", power - 1),
        source=source, scale=scale, power=power,
    )


def _moment(c: AsymFunction, gamma: complex, k: int, tol: float) -> complex:
    """reg int v^gamma ln^k v c(v) dv; a :class:`_Multiple`'s is its source's, in u = v^power."""
    if isinstance(c, _Multiple):
        return c.scale * c.power**k * _moment(c.source, c.power * gamma + (c.power - 1), k, tol)
    return reg_integral(power_log_multiply(c, gamma, k), tol)


def _moments(cs: Sequence[AsymFunction], gamma: complex, sign: int, tol: float) -> list[complex]:
    """Coefficients of ln^m z in the regularized integral of v^gamma sum_i sign^i cs[i](v) (ln v + ln z)^i."""
    n = len(cs)
    moment = [[_moment(c, gamma, k, tol) for k in range(i + 1)] for i, c in enumerate(cs)]
    return [reduce(add, (comb(i, m) * sign**i * moment[i][i - m] for i in range(m, n)), 0) for m in range(n)]


CORNER_RTOL = 1e-9  # relative gap at which the two sides' corner coefficients disagree


def asymptotic_expansion(sigma: SigmaFunction, tol: float = DEFAULT_TOL) -> ExpansionReport:
    """Expansion of int_0^inf sigma(x, x z) dx in the large variable z.

    The expansion only: :func:`check_hypotheses` samples the hypotheses it rests on.
    """
    p = sigma.order
    terms = []
    notes: list[str] = []

    def kept(alpha: complex, term: SigmaTerm, side: str = "") -> bool:
        if alpha.real >= -p - 1 - EXPONENT_TOL:
            return True
        notes.append(f"declared {side}term at {term.exponent} below cutoff; skipped")
        return False

    # (i) an x-side term x^beta q(1/y, ln x) gives z^alpha, alpha = -1 - beta,
    # from y^(alpha-1) q(y) (-ln y - ln z)^i, integrated in y = 1/zeta
    x_side = sigma.x_terms if sigma.x_terms is not None else map(sigma.boundary_function, range(p))
    x_terms = [(-1.0 - t.exponent, t.coeffs) for t in x_side if kept(-1.0 - t.exponent, t, "x-side ")]
    for alpha, cs in x_terms:
        if alpha.real > -p - 1 + EXPONENT_TOL:  # none at the remainder's exponent
            terms.append((alpha, _moments(cs, alpha - 1.0, -1, tol)))

    # (ii) zeta-side terms, re-expanded in ln z, and (iii) their corner monomials
    zeta_terms = [t for t in sigma.terms if kept(t.exponent, t)]
    for term in zeta_terms:
        alpha, cs = term.exponent, term.coeffs
        terms.append((alpha, _moments(cs, alpha, 1, tol)))
        for i, cf in enumerate(cs):
            _corner_log(terms, alpha, cf.exp0.poly_at(-1.0 - alpha), i)

    def zeta_side(alpha: complex, n: int, i: int) -> complex:  # of x^(-1-alpha) ln^n x zeta^alpha ln^i zeta
        near = [t.coeffs for t in zeta_terms if abs(t.exponent - alpha) <= EXPONENT_TOL]
        return reduce(add, (cs[i].exp0.poly_at(-1.0 - alpha).coefficient(n) for cs in near if i < len(cs)), 0)

    # the x side's coefficients at y = 0 give (iii) the monomials the zeta side leaves out, with
    # ln y = -ln zeta, and at y = inf (iv), where the sign turns: (i) regularizes at y = 1, not x = 1
    for alpha, cs in x_terms:
        for k, q in enumerate(cs):
            own = []
            for m, s in enumerate(q.exp0.poly_at(-alpha).coeffs):
                a, b = zeta_side(alpha, k, m), -s if m % 2 else s
                if a != 0 and b != 0 and abs(a - b) > CORNER_RTOL * max(abs(a), abs(b)):
                    mono = "ln z" if k == m == 0 else f"ln^{k} x ln^{m} zeta"
                    notes.append(f"corner coefficient of z^{alpha} {mono}: zeta side {a}, x side {b}")
                own.append(s if a == 0 else 0)
            _corner_log(terms, alpha, LogPolynomial(own), k, -1)
            _corner_log(terms, alpha, q.exp_inf.poly_at(-alpha).scale(-1), k, -1)

    return ExpansionReport(make_side(terms, float(p), "infinity", sigma.log_bound + 1), tuple(notes))


# ---------------------------------------------------------------------------
# separable integrands


def _separable_sigma(phi: str | ex.Expr, f: AsymFunction, q: float) -> SigmaFunction:
    """sigma(x, zeta) = phi(x) f(zeta) of order q: f's terms at zeta = inf, each coefficient a
    multiple of phi, and x^j phi_j f, j <= q, at x = 0, kept in zeta."""
    if q > f.exp_inf.order + EXPONENT_TOL:
        raise MissingExpansionData(f"requested order q={q} exceeds declared infinity order {f.exp_inf.order}")
    phi_fun = schwartz(phi, n_taylor=math.ceil(q) + 5)  # Taylor data through the log terms of both corners
    terms = [SigmaTerm(t.exponent, tuple(_multiple(phi_fun, c) for c in t.poly.coeffs)) for t in f.exp_inf.terms]
    x_terms = [
        SigmaTerm(complex(j), (_multiple(f, phi_fun.exp0.coefficient(j), power=-1),))
        for j in range(math.floor(q + EXPONENT_TOL) + 1)
    ]
    return SigmaFunction(lambda x, zeta: phi_fun(x) * f(zeta), q, tuple(terms), x_terms=tuple(x_terms))


def separable_expansion(phi: str | ex.Expr, f: AsymFunction, q: float, tol: float = DEFAULT_TOL) -> Expansion:
    """Expansion in t of the regularized integral of phi(t x) f(x): by the scaling rule x -> x/t,
    1/t times :func:`corollary_expansion` less the log terms of the corner (x = 0, zeta = 0)."""
    sigma = _separable_sigma(phi, f, q)
    terms = [(t.exponent, t.poly.coeffs) for t in asymptotic_expansion(sigma, tol).expansion.terms]
    for t in sigma.x_terms:
        _corner_log(terms, -1.0 - t.exponent, t.coeffs[0].exp_inf.poly_at(1.0 + t.exponent), 0, -1)
    return in_t(terms, q + 1.0, -1.0)


def corollary_expansion(phi: str | ex.Expr, f: AsymFunction, q: float, tol: float = DEFAULT_TOL) -> Expansion:
    """Expansion in t of reg int phi(x) f(x/t) dx: the fiber integral of phi(x) f(zeta) at z = 1/t."""
    expansion = asymptotic_expansion(_separable_sigma(phi, f, q), tol).expansion
    return in_t([(t.exponent, t.poly.coeffs) for t in expansion.terms], q + 2.0)


# ---------------------------------------------------------------------------
# diagnostics and oracle verification

MAX_JK = 2  # highest power x^J and x-derivative d_x^K of the sampled remainder


class HypothesisDiagnostics(NamedTuple):
    remainder_constants: dict  # (J, K) -> sampled constant
    boundary_integrals: dict  # j -> value or math.inf
    growth_model: str  # "constant" | "log" | "power" | "n/a"
    growth_exponent: float | None
    ok: bool
    notes: tuple[str, ...] = ()


def check_hypotheses(sigma: SigmaFunction) -> HypothesisDiagnostics:
    """Sampled estimates for the remainder bound and integrability conditions.

    Remainder constants are sampled for x^J d_x^K of the remainder, with J up
    to min(MAX_JK, max(p, 1)) and K up to min(MAX_JK, p), at ten zeta from 1
    to 100 and six x from 1e-3 to zeta at each, both geometrically spaced.
    """
    p, r = sigma.order, sigma.log_bound
    notes: list[str] = []
    ok = True

    def coeff_deriv(c: AsymFunction, K: int, x: float) -> complex:
        if K == 0:
            return c(x)
        if c.ast is None:
            raise ex.DiffError(f"no expression for derivative {K} of a term coefficient")
        return ex.taylor(c.ast, "x", x, K)[K] * factorial(K)

    terms = [term for term in sigma.terms if term.exponent.real > -p - 1]
    samples = [(zeta, x) for zeta in geometric_grid(1.0, 100.0, 10) for x in geometric_grid(1e-3, zeta, 6)]
    rems = []  # per K, d_x^K of the remainder at each sample; None where it cannot be evaluated
    for K in range(min(MAX_JK, max(p, 0)) + 1):
        dK, row = sigma.x_deriv(K), []
        for zeta, x in samples:
            try:
                rem = dK(x, zeta)
                for term in terms:
                    L = math.log(zeta)
                    coeff = reduce(add, (coeff_deriv(c, K, x) * L**i for i, c in enumerate(term.coeffs)), 0)
                    rem -= (zeta**term.exponent * coeff).real
            except (ex.EvalError, ex.DiffError):
                rem = None
            row.append(rem)
        rems.append(row)

    constants: dict = {}
    for J in range(min(MAX_JK, max(p, 1)) + 1):
        for K, row in enumerate(rems):
            failed = row.count(None)
            if failed:
                notes.append(f"remainder sample failed at J={J} K={K}")
            if failed == len(samples):  # no sample bounds the remainder
                constants[(J, K)], ok = math.nan, False
                continue
            octaves: dict = {}  # octave of zeta -> largest sampled constant in it
            for (zeta, x), rem in zip(samples, row):
                if rem is not None:
                    bound = zeta ** (-p - 1) * max(abs(math.log(zeta)) ** r, 1.0)
                    o = math.floor(math.log2(zeta))
                    octaves[o] = max(octaves.get(o, 0.0), abs(x**J * rem) / bound)
            peaks = list(octaves.values())
            constants[(J, K)] = max(peaks)
            if grows(peaks):
                ok = False
                notes.append(f"remainder constant J={J} K={K} grows with zeta")

    # the integrands of the x-side moments toward zeta = 0: zeta^beta q_beta(1/zeta) of the
    # declared terms, else of q_j(1/zeta) = d_x^j sigma(0, zeta)/j!, as boundary_function has them
    if sigma.x_terms is None:
        probes = [lambda z, j=j, dj=sigma.x_deriv(j): abs(z**j * dj(0.0, z)) / factorial(j) for j in range(p)]
    else:
        xs = [t for t in sigma.x_terms if t.exponent.real < p - EXPONENT_TOL]
        probes = [lambda z, t=t: abs(z**t.exponent) * reduce(add, (abs(c(1.0 / z)) for c in t.coeffs), 0) for t in xs]
    boundary: dict = {}
    for j, probe in enumerate(probes):
        boundary[j], diverges = dyadic_shells(probe, 1.0, SHELL_LEVELS, 1e-8)
        if diverges:
            ok = False
            notes.append(f"boundary integral j={j} diverges")

    growth_model, growth_T = "n/a", None
    if p == 0:
        vals = []
        for k in range(11):
            v, diverges = dyadic_shells(lambda s: abs(sigma(2.0**-k * s, s)), 1.0, SHELL_LEVELS, 1e-8)
            if diverges:
                growth_model, growth_T, ok = "power", math.inf, False
                notes.append("theta-scan integral diverges")
                break
            vals.append(v)
        else:
            growth_model = "log" if grows(vals) else "constant"

    return HypothesisDiagnostics(
        remainder_constants=constants,
        boundary_integrals=boundary,
        growth_model=growth_model,
        growth_exponent=growth_T,
        ok=ok,
        notes=tuple(notes),
    )


class ResidualReport(NamedTuple):
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
    v2, _ = quad_interval(g, split, upper, tol, points=[1.0, split * 2.0] if upper < math.inf else None)
    return v1 + v2


def verify_expansion(
    expansion: Expansion,
    sigma: SigmaFunction,
    z_grid: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Compare the truncated expansion against direct quadrature on a z grid."""
    for z in z_grid:
        if not math.isfinite(z):
            raise ValueError(f"z grid entries must be finite, got {z}")
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
        exponent, log_power = fit_decay(*zip(*usable))
    max_res = max((r for *_, r in rows if math.isfinite(r)), default=0.0)
    return ResidualReport(tuple(rows), exponent, log_power, max_res)


def fit_decay(points: Sequence[float], residuals: Sequence[float]) -> tuple[float, float]:
    """(e, k) of the least-squares fit ln r = c + e L + k ln|L|, L = ln of each point."""
    L = [math.log(z) for z in points]
    coef = _least_squares([[1.0] * len(L), L, [math.log(abs(v)) for v in L]], [math.log(r) for r in residuals])[0]
    return coef[1], coef[2]


def _dot(u, v):
    """The dot product of u and v, added left to right from 0 as sum() was before Python 3.12 compensated floats."""
    s = 0
    for a, b in zip(u, v):
        s += a * b
    return s


def _least_squares(columns: list, values: list) -> tuple[list[float], int, list[float], float]:
    """(c, rank, singular values, rms residual) of the least-norm c minimizing |sum_j c_j columns[j] - values|.

    One-sided Jacobi SVD (Hestenes 1958; Demmel & Veselic 1992): the columns, scaled by a power of 2 so that
    no square overflows, and those of V = I are rotated in pairs until orthogonal to within eps.  The singular
    values are the column norms; the rank counts those above eps * max(M, N) times the largest, as lstsq does.
    """
    n, eps, e = len(columns), 2.0**-52, math.frexp(max(abs(x) for col in columns for x in col))[1]
    U, V = [[math.ldexp(x, -e) for x in col] for col in columns], [[float(i == j) for i in range(n)] for j in range(n)]
    for _ in range(30):  # LAPACK's dgesvj stops after 30 sweeps; a fit here takes under 10
        rotated = False
        for j, k in combinations(range(n), 2):
            a, b, g = _dot(U[j], U[j]), _dot(U[k], U[k]), _dot(U[j], U[k])
            if abs(g) > eps * math.sqrt(a * b):  # norms recomputed: updating them can turn one negative
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c, rotated = 1.0 / math.sqrt(1.0 + t * t), True
                for W in (U, V):
                    x, y = W[j], W[k]
                    W[j], W[k] = [c * (p - t * q) for p, q in zip(x, y)], [c * (t * p + q) for p, q in zip(x, y)]
        if not rotated:
            break
    s = [math.sqrt(_dot(u, u)) for u in U]
    cut, coef = eps * max(len(values), n) * max(s), [0.0] * n
    for u, v, sj in zip(U, V, s):
        if sj > cut:
            w = math.ldexp(_dot(u, values) / sj**2, -e)
            coef = [ci + w * vi for ci, vi in zip(coef, v)]
    rms = math.hypot(*(_dot(coef, row) - y for row, y in zip(zip(*columns), values))) / math.sqrt(len(values))
    return coef, sum(sj > cut for sj in s), sorted((math.ldexp(sj, e) for sj in s), reverse=True), rms
