"""Independent references for the benchmark's correctness checks.

Nothing here imports asympush.  Analytic quantities are computed with mpmath
at ``DPS`` digits from functions the workload generators build directly as
mpmath callables; index sets are enumerated by brute-force closure over exact
fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

DPS = 30


def push_xy(um, X: float, Y: float, t: float) -> float:
    """int u(x, t/x) dx/x over the box, in the log variable x = e^s.

    The integrand is analytic on each piece, where Gauss-Legendre reaches
    DPS digits with about half the evaluations of tanh-sinh.
    """
    with mp.workdps(DPS):
        X, Y, t = mp.mpf(X), mp.mpf(Y), mp.mpf(t)
        lo, hi = mp.log(t / Y), mp.log(X)
        inner = sorted(s for s in (mp.log(t), mp.mpf(0), mp.log(t) / 2) if lo < s < hi)
        val = mp.quad(lambda s: um(mp.exp(s), t * mp.exp(-s)), [lo, *inner, hi], method="gauss-legendre")
        return float(val)


def lstsq_fit(ts, values, basis) -> list[float]:
    """Least-squares coefficients of values against {t^a ln^b t}, at DPS digits."""
    with mp.workdps(DPS):
        A = mp.matrix(len(ts), len(basis))
        for i, t in enumerate(ts):
            L = mp.log(mp.mpf(t))
            for j, (a, b) in enumerate(basis):
                A[i, j] = mp.mpf(t) ** a * L**b
        coef, _ = mp.qr_solve(A, mp.matrix([mp.mpf(v) for v in values]))
        return [float(c) for c in coef]


def fit_tolerance(ts, sample_tols, basis, coef) -> float:
    """Bound on a fitted coefficient's error from sample errors and rounding.

    A sample perturbation dv moves the least-squares solution by at most
    |dv| / sigma_min(A); rounding in double precision adds cond(A) * eps.
    """
    L = np.log(np.asarray(ts, dtype=float))
    T = np.asarray(ts, dtype=float)
    A = np.column_stack([T**a * L**b for a, b in basis])
    s = np.linalg.svd(A, compute_uv=False)
    return float(
        np.linalg.norm(sample_tols) / s[-1]
        + (s[0] / s[-1]) * 1e-15 * max(1.0, max(abs(c) for c in coef))
    )


# Near x = 0 a Taylor-subtracted integrand is a difference of nearly equal
# numbers that a negative power then amplifies, and tanh-sinh nodes come
# arbitrarily close to 0.  Below SPLIT the remainder is integrated term by
# term from TAIL more Taylor coefficients instead (truncation ~ SPLIT^TAIL).
SPLIT = mp.mpf("1e-4")
TAIL = 6


def _reg_low(rem, cs, j: int, upper) -> mp.mpf:
    """Regularized int_0^upper x^(-1-j) f(x) dx for f with Taylor coefficients cs.

    ``rem(x)`` is the integrand with cs[:j+1] subtracted; cs[j+1:] carries the
    tail used below SPLIT.  Subtracted powers x^(k-1-j) integrate to
    upper^(k-j)/(k-j), or ln(upper) when k = j.
    """
    val = mp.quad(rem, [SPLIT, upper])
    for k, c in enumerate(cs):
        if k > j:
            val += c * SPLIT ** (k - j) / (k - j)
        else:
            val += c * (mp.log(upper) if k == j else upper ** (k - j) / (k - j))
    return val


def reg_moment(g, g_taylor, X: float, j: int):
    """Regularized int_0^X x^(-1-j) g(x) dx from g's Taylor coefficients to order j + TAIL.

    Subtracting the Taylor part through x^j leaves an integrable function;
    the subtracted powers integrate in closed form (x^-1 to ln X).
    """
    head = g_taylor[: j + 1]

    def rem(x):
        return (g(x) - sum(c * x**k for k, c in enumerate(head))) / x ** (1 + j)

    return _reg_low(rem, g_taylor, j, mp.mpf(X))


def sal_prediction(um, X: float, Y: float, J: int) -> dict:
    """Coefficients {(j, log power): value} of the small-t expansion of push_xy.

    The t^j ln t coefficient is -d_x^j d_y^j u(0,0) / j!^2; the t^j
    coefficient is the sum over both axes of regularized boundary moments of
    the j-th normal derivative, divided by j!.
    """
    out = {}
    with mp.workdps(DPS):
        for j in range(J + 1):
            fj = mp.factorial(j)
            corner = mp.diff(um, (0, 0), (j, j))
            out[(j, 1)] = float(-corner / fj**2)
            gx = (lambda x: mp.diff(lambda y: um(x, y), 0, j)) if j else (lambda x: um(x, 0))
            gy = (lambda y: mp.diff(lambda x: um(x, y), 0, j)) if j else (lambda y: um(0, y))
            n = j + TAIL + 1
            tx = [mp.diff(um, (0, 0), (k, j)) / mp.factorial(k) for k in range(n)]
            ty = [mp.diff(um, (0, 0), (j, k)) / mp.factorial(k) for k in range(n)]
            out[(j, 0)] = float((reg_moment(gx, tx, X, j) + reg_moment(gy, ty, Y, j)) / fj)
    return out


def taylor(fm, n: int) -> list[float]:
    with mp.workdps(DPS):
        return [float(c) for c in mp.taylor(fm, 0, n)]


def reg_integral_halfline(fm, beta: float, n: int) -> float:
    """Regularized int_0^inf x^beta f(x) dx for f smooth at 0 and decaying.

    The Taylor polynomial of degree n is subtracted on [SPLIT, 1] and its
    moments over (0, 1] added back in closed form; below SPLIT the remainder
    is integrated term by term from TAIL more coefficients.
    """
    with mp.workdps(DPS):
        beta = mp.mpf(beta)
        cs = mp.taylor(fm, 0, n + TAIL)
        val = mp.quad(lambda x: x**beta * (fm(x) - mp.polyval(cs[n::-1], x)), [SPLIT, 1])
        for k, c in enumerate(cs):
            val += c * (SPLIT if k > n else 1) ** (k + beta + 1) / (k + beta + 1)
        val += mp.quad(lambda x: x**beta * fm(x), [1, mp.inf])
        return float(val)


def gamma_moment(a: float, b: float, k: int) -> complex:
    """Regularized integral of x^a ln^k x e^(-b x): d^k/ds^k Gamma(s) b^-s at s = a + 1."""
    with mp.workdps(DPS):
        s, b = mp.mpf(a) + 1, mp.mpf(b)
        if k == 0:
            return complex(mp.gamma(s) * b ** (-s))
        return complex(mp.diff(lambda v: mp.gamma(v) * b ** (-v), s, k))


def mellin_gamma(a: float, b: float, z: complex, k: int) -> complex:
    """Mellin transform of x^a ln^k x e^(-b x) at z: d^k/ds^k Gamma(s) b^-s, s = a + z."""
    with mp.workdps(DPS):
        s, b = mp.mpf(a) + mp.mpc(z), mp.mpf(b)
        if k == 0:
            return complex(mp.gamma(s) * b ** (-s))
        return complex(mp.diff(lambda v: mp.gamma(v) * b ** (-v), s, k))


def mellin_finite_part(a: float, b: float, z0: float, k: int) -> complex:
    """Zeroth Laurent coefficient at z0 of the Mellin transform above.

    The symmetric average at z0 +- e cancels every odd Laurent term, so at
    e = 1e-20 and 60 digits it equals the constant term to ~1e-40.
    """
    with mp.workdps(60):
        e = mp.mpf("1e-20")
        s0, b = mp.mpf(a) + mp.mpf(z0), mp.mpf(b)

        def M(s):
            if k == 0:
                return mp.gamma(s) * b ** (-s)
            return mp.diff(lambda v: mp.gamma(v) * b ** (-v), s, k)

        return complex((M(s0 + e) + M(s0 - e)) / 2)


def dyadic_abs_integral(h, levels: int = 26) -> float:
    """int over [2^-levels, 1] of |h|, piece by dyadic piece."""
    with mp.workdps(DPS):
        total = mp.mpf(0)
        for k in range(levels):
            total += mp.quad(lambda z: abs(h(z)), [mp.mpf(2) ** (-k - 1), mp.mpf(2) ** (-k)])
        return float(total)


# ---------------------------------------------------------------------------
# index sets by brute-force closure over exact fractions


def closure(entries, N) -> set:
    """Smallest set holding the entries, closed under +1 shifts and lower log powers.

    Entries are (re, im, k) with Fraction parts; only Re < N is kept.
    """
    todo = [e for e in entries if e[0] < N]
    out = set()
    while todo:
        e = todo.pop()
        if e in out:
            continue
        out.add(e)
        re, im, k = e
        if re + 1 < N:
            todo.append((re + 1, im, k))
        if k > 0:
            todo.append((re, im, k - 1))
    return out


def extended_union(K: set, I: set, N) -> set:
    merged = set(K) | set(I)
    for a in K:
        for b in I:
            if a[0] == b[0] and a[1] == b[1]:
                merged.add((a[0], a[1], a[2] + b[2] + 1))
    return closure(merged, N)


def push_family(faces_x, faces_y, e, generators: dict, N) -> dict:
    out = {}
    for j, H in enumerate(faces_y):
        acc = None
        for i, G in enumerate(faces_x):
            m = e[i][j]
            if m == 0:
                continue
            src = closure(generators[G], N * m)
            part = {(re / m, im / m, k) for re, im, k in src if re / m < N}
            acc = part if acc is None else extended_union(acc, part, N)
        out[H] = acc if acc is not None else set()
    return out


def as_sorted_floats(entries) -> list[tuple[float, float, int]]:
    return sorted((float(re), float(im), int(k)) for re, im, k in entries)


def compare_triples(got, want, tol: float = 1e-9) -> str | None:
    """None when the sorted triples agree entry by entry, else the first difference."""
    got = sorted((float(a), float(b), int(k)) for a, b, k in got)
    if len(got) != len(want):
        return f"{len(got)} entries, brute force has {len(want)}"
    for g, w in zip(got, want):
        if abs(g[0] - w[0]) > tol or abs(g[1] - w[1]) > tol or g[2] != w[2]:
            return f"entry {g} differs from brute-force {w}"
    return None


def frac(x: float) -> Fraction:
    return Fraction(x).limit_denominator(1000)


def ratio(err: float, tol: float) -> float:
    return err / tol if tol > 0 else (0.0 if err == 0 else math.inf)
