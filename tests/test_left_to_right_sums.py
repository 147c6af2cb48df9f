"""taylor and _least_squares against plain-loop references, bit for bit.

Since Python 3.12 the built-in sum() compensates floats, so a sum() in
either would give other bits there than on 3.10 and 3.11.  The references
below add every sum in a loop, left to right from 0, as sum() did before
3.12.  This module needs neither pytest nor numpy, so its comparisons also
run as a plain script on an interpreter without packages.
"""

import math
import random
import struct
import sys
from itertools import combinations

from asympush import expressions as ex
from asympush.singular_expansion import _least_squares


def _same(x, y):
    """Same type and same bits, NaN equal to NaN."""
    if type(x) is not type(y):
        return False
    if type(x) in (list, tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    if type(x) is int:
        return x == y
    return struct.pack("<d", x) == struct.pack("<d", y) or (x != x and y != y)


def _taylor_reference(node, var, at, n):
    """ex.taylor's recurrences on +, -, *, /, ^, exp, log, sin, cos and sqrt, with plain-loop sums."""

    def conv(u, v, k, first=0):
        s = 0.0
        for j in range(first, k + 1):
            if u[j] and v[k - j]:
                s = s + u[j] * v[k - j]
        return s

    def dot(u, v, k):
        s = 0.0
        for j in range(1, k + 1):
            if u[j] and v[k - j]:
                s = s + j * u[j] * v[k - j]
        return s / k

    def power(u, c):  # u[0] != 0 in the generated trees
        v = [u[0] ** c] + [0.0] * n
        for k in range(1, n + 1):
            v[k] = ((c + 1.0) * dot(u, v, k) - conv(u, v, k, 1)) / u[0]
        return v

    def series(nd):
        if var not in ex.free_vars(nd):
            return [ex.evaluate(nd, {var: at})] + [0.0] * n
        if isinstance(nd, ex.Var):
            return [at, 1.0, *[0.0] * n][: n + 1]
        if isinstance(nd, ex.Neg):
            return [-c for c in series(nd.arg)]
        if isinstance(nd, ex.Call):
            u, v = series(nd.arg), [0.0] * (n + 1)
            if nd.func == "sqrt":
                return power(u, 0.5)
            if nd.func == "exp":
                v[0] = math.exp(u[0])
                for k in range(1, n + 1):
                    v[k] = dot(u, v, k)
                return v
            if nd.func == "log":
                v[0] = math.log(u[0])
                for k in range(1, n + 1):
                    v[k] = (u[k] - dot(v, u, k)) / u[0]
                return v
            s, c = [math.sin(u[0])] + v[1:], [math.cos(u[0])] + v[1:]
            for k in range(1, n + 1):
                s[k], c[k] = dot(u, c, k), -dot(u, s, k)
            return s if nd.func == "sin" else c
        u, v = series(nd.left), series(nd.right)
        if nd.op == "+":
            return [a + b for a, b in zip(u, v)]
        if nd.op == "-":
            return [a - b for a, b in zip(u, v)]
        if nd.op == "*":
            return [conv(u, v, k) for k in range(n + 1)]
        if nd.op == "/":
            w = [0.0] * (n + 1)
            for k in range(n + 1):
                w[k] = (u[k] - conv(v, w, k, 1)) / v[0]
            return w
        return power(u, v[0])

    return series(node)


def _random_expr(rng, depth):
    """A seeded expression in x whose logs, roots, powers and quotients take positive arguments."""
    if depth == 0:
        return rng.choice(["x", "x", repr(rng.uniform(-3.0, 3.0))])
    a, b = _random_expr(rng, depth - 1), _random_expr(rng, depth - 1)
    pos = f"({rng.uniform(0.5, 2.0)!r}+({b})*({b}))"
    return rng.choice([
        f"({a})+({b})", f"({a})-({b})", f"({a})*({b})", f"({a})*({b})", f"({a})/{pos}",
        f"exp(sin({a}))", f"sin({a})", f"cos({a})", f"log({pos})", f"sqrt({pos})",
        f"{pos}^{rng.uniform(-1.5, 1.5)!r}",
    ])


def _taylor_cases(count, seed):
    """count seeded (tree, point, order) with orders 1 to 14."""
    rng = random.Random(seed)
    for _ in range(count):
        yield ex.parse(_random_expr(rng, rng.randint(2, 4))), rng.uniform(-2.0, 2.0), rng.randint(1, 14)


def taylor_mismatches(cases):
    """How many cases ex.taylor answers other than _taylor_reference, bit for bit."""
    return sum(not _same(ex.taylor(nd, "x", at, n), _taylor_reference(nd, "x", at, n)) for nd, at, n in cases)


def _least_squares_reference(columns, values):
    """_least_squares's one-sided Jacobi SVD with plain-loop dot products."""

    def dot(u, v):
        s = 0
        for a, b in zip(u, v):
            s = s + a * b
        return s

    n, eps, e = len(columns), 2.0**-52, math.frexp(max(abs(x) for col in columns for x in col))[1]
    U = [[math.ldexp(x, -e) for x in col] for col in columns]
    V = [[float(i == j) for i in range(n)] for j in range(n)]
    for _ in range(30):
        rotated = False
        for j, k in combinations(range(n), 2):
            a, b, g = dot(U[j], U[j]), dot(U[k], U[k]), dot(U[j], U[k])
            if abs(g) > eps * math.sqrt(a * b):
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c, rotated = 1.0 / math.sqrt(1.0 + t * t), True
                for W in (U, V):
                    x, y = W[j], W[k]
                    W[j], W[k] = [c * (p - t * q) for p, q in zip(x, y)], [c * (t * p + q) for p, q in zip(x, y)]
        if not rotated:
            break
    s = [math.sqrt(dot(u, u)) for u in U]
    cut, coef = eps * max(len(values), n) * max(s), [0.0] * n
    for u, v, sj in zip(U, V, s):
        if sj > cut:
            w = math.ldexp(dot(u, values) / sj**2, -e)
            coef = [ci + w * vi for ci, vi in zip(coef, v)]
    rows = zip(zip(*columns), values)
    rms = math.hypot(*(dot(coef, row) - y for row, y in rows)) / math.sqrt(len(values))
    rank = 0
    for sj in s:
        rank += sj > cut
    return coef, rank, sorted((math.ldexp(sj, e) for sj in s), reverse=True), rms


def _fit_cases(count, seed):
    """count seeded fits of t^a ln^k t bases, 1 to 6 columns, on 6 to 40 points of (1e-4, 0.5)."""
    rng = random.Random(seed)
    for _ in range(count):
        ts = sorted(10.0 ** rng.uniform(-4.0, math.log10(0.5)) for _ in range(rng.randint(6, 40)))
        basis = [(rng.choice((0.0, 0.5, 1.0, 1.5, 2.0)), rng.randint(0, 2)) for _ in range(rng.randint(1, 6))]
        columns = [[t**a * math.log(t) ** k for t in ts] for a, k in basis]
        values = [rng.uniform(-1.0, 1.0) * math.log(t) + rng.gauss(0.0, 1e-3) + t for t in ts]
        yield columns, values


def least_squares_mismatches(cases):
    """How many cases _least_squares answers other than _least_squares_reference, bit for bit."""
    return sum(
        not _same(list(_least_squares(cols, vals)), list(_least_squares_reference(cols, vals)))
        for cols, vals in cases
    )


def test_taylor_sums_run_left_to_right():
    assert taylor_mismatches(_taylor_cases(300, 30)) == 0


def test_least_squares_sums_run_left_to_right():
    assert least_squares_mismatches(_fit_cases(300, 31)) == 0


if __name__ == "__main__":  # exits 1 when either comparison finds a case that differs
    counts = taylor_mismatches(_taylor_cases(300, 30)), least_squares_mismatches(_fit_cases(300, 31))
    print("taylor {} and least squares {} of 300 cases differ".format(*counts))
    sys.exit(1 if any(counts) else 0)
