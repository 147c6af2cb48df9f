"""Adaptive Gauss-Kronrod quadrature: QUADPACK's QAGS in pure Python.

One routine integrates every integrand.  It is the ``dqagse`` loop of
QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*,
Springer 1983): the 21-point Gauss-Kronrod rule ``dqk21`` on each
subinterval, bisection of the subinterval with the largest error estimate,
the error list kept in order as ``dqpsrt`` keeps it, and Wynn's epsilon
algorithm ``dqelg`` on the sequence of sums, which extrapolates through
endpoint singularities.  Break points seed the list of subintervals; an
infinite upper limit is mapped onto (0, 1] by x = a + (1 - s)/s.  On a
finite interval without break points the routine makes QUADPACK's
decisions and so calls the integrand at QUADPACK's nodes, 21 per
subinterval.

Values are summed as they come, so a complex integrand is integrated in one
pass, at one evaluation per node.  A rule whose Kronrod sum is neither a
Python float nor a Python complex (numpy scalars, 0-d arrays) is summed
again over the values converted to Python complex, so sums are taken in
double precision.  A result with a zero imaginary part is returned as a
float.

Endpoint behavior on (0, 1] and [1, inf) is tamed by the exponential
substitutions x = e^{-u} and x = e^{u}.  Whether an integral toward 0
converges at all is decided by one monitor, :func:`dyadic_shells`.
"""

from __future__ import annotations

import math
import sys
from itertools import dropwhile, repeat
from operator import add, mul, not_, sub

__all__ = [
    "QuadratureError", "quad_interval", "quad_01", "quad_1inf",
    "dyadic_shells", "grows", "DEFAULT_TOL", "SHELL_LEVELS",
]

DEFAULT_TOL = 1e-10
LIMIT = 300  # subintervals

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# QUADPACK's ier codes 1-5 (0 is convergence)
STOP_REASONS = {
    0: "converged",
    1: "subdivision limit reached",
    2: "round-off error detected",
    3: "bad integrand behaviour at a point of the range",
    4: "extrapolation failed to converge",
    5: "integral probably divergent or slowly convergent",
}


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    ``reason`` is QUADPACK's stop reason (``STOP_REASONS[ier]``) and
    ``neval`` the number of integrand evaluations the call made.
    """

    def __init__(self, message: str, estimate: float | complex, error: float, ier: int, neval: int):
        self.reason = STOP_REASONS[ier]
        super().__init__(
            f"{message}: {self.reason} after {neval} integrand evaluations "
            f"(estimate {estimate}, error estimate {error:.2e})"
        )
        self.estimate = estimate
        self.error = error
        self.ier = ier
        self.neval = neval


# dqk21: Kronrod abscissae xgk(1..10) and weights wgk(1..10); xgk(2), xgk(4),
# ..., xgk(10) are the 10-point Gauss nodes, with Gauss weights _WG
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208465888201,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK0 = 0.149445554002916905664936468389821  # the centre
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# node offsets: the centre, then c - h*xgk(j) for the Gauss nodes and for the
# Kronrod nodes, then c + h*xgk(j) in the same order; _W21 are their weights
_XG, _XK = _XGK[1::2], _XGK[0::2]
_X = (0.0, *(-x for x in _XG), *(-x for x in _XK), *_XG, *_XK)
_WPAIR = _WGK[1::2] + _WGK[0::2]
_W21 = (_WGK0, *_WPAIR, *_WPAIR)


def _qk21(f, a, b):
    """dqk21 on [a, b]: (integral, error estimate, int |f|, int |f - mean|).

    The Kronrod and Gauss sums add node pairs in QUADPACK's order, so a real
    integrand gets QUADPACK's value to the last bit.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = list(map(f, map(add, repeat(c, 21), map(mul, repeat(h, 21), _X))))
    pairs = list(map(add, fv[1:11], fv[11:]))
    resk = sum(map(mul, _WPAIR, pairs), _WGK0 * fv[0])
    if type(resk) is not float and type(resk) is not complex:
        fv = list(map(complex, fv))  # numpy scalars: sum in double precision
        pairs = list(map(add, fv[1:11], fv[11:]))
        resk = sum(map(mul, _WPAIR, pairs), _WGK0 * fv[0])
    resg = sum(map(mul, _WG, pairs))
    dh = abs(h)
    resabs = sum(map(mul, _W21, map(abs, fv))) * dh
    resasc = sum(map(mul, _W21, map(abs, map(sub, fv, repeat(resk * 0.5, 21))))) * dh
    abserr = abs((resk - resg) * h)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return resk * h, abserr, resabs, resasc


def _qpsrt(last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord[1..] in descending order of error; (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last if last <= LIMIT // 2 + 2 else LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):  # insert errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: Wynn's epsilon algorithm on epstab[1..n]; (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:  # irregular table: drop its tail
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            epstab[1 : n + 1] = epstab[num - n + 1 : num + 1]
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1:4] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qags(f, a, b, tol, points=None):
    """dqagse on [a, b], seeded with the break points: (value, error, ier, neval).

    Arrays are 1-based, as in QUADPACK.  An interval of bisection level
    ``level`` is "small" once level >= levmax; for a single starting interval
    this is QUADPACK's length test against ``small``.
    """
    if math.isinf(a) or b == -math.inf:
        raise ValueError("only the upper limit may be infinite, and only +inf")
    if b == math.inf:
        return _qags(lambda s: f(a + (1.0 - s) / s) / (s * s), 0.0, 1.0, tol)
    cuts = [a, *sorted({p for p in points if a < p < b}), b] if points else [a, b]
    alist, blist, rlist, elist, level = [0.0], [0.0], [0.0], [0.0], [0]
    area = abserr = defabs = resasc = 0.0
    unsure = []  # pieces whose error estimate is their whole int |f - mean|
    for a1, b1 in zip(cuts, cuts[1:]):
        area1, error1, resabs1, resasc1 = _qk21(f, a1, b1)
        alist.append(a1)
        blist.append(b1)
        rlist.append(area1)
        elist.append(error1)
        level.append(0)
        area += area1
        abserr += error1
        defabs += resabs1
        resasc += resasc1
        if error1 == resasc1 and error1 != 0.0:
            unsure.append(len(elist) - 1)
    last = len(rlist) - 1
    neval = 21 * last
    ier = 0
    errbnd = max(tol, tol * abs(area))
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if last >= LIMIT:
        ier = 1
    # one piece: dqagse's test, which distrusts an error estimate equal to
    # int |f - mean|; several: dqagpe's, unless every piece's estimate is that
    if ier or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return _real(area), abserr, ier, neval
    for i in unsure:  # as dqagpe does: bisect those first
        elist[i] = abserr

    iord = [0, *sorted(range(1, last + 1), key=elist.__getitem__, reverse=True)]
    maxerr = iord[1]
    errmax = elist[maxerr]
    rlist2 = [0.0] * 53  # the epsilon table
    rlist2[1] = result = area
    res3la = [0.0] * 4
    errsum = sum(elist)
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if abs(area) >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    first = last + 1
    levmax = 2
    erlarg = ertest = correc = 0.0
    summed = False
    for last in range(first, LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b2 = blist[maxerr]
        a2 = b1 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        neval += 42
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(tol, tol * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # the child with the larger error keeps the index maxerr
        lev = level[maxerr] + 1
        level[maxerr] = lev
        level.append(lev)
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist.append(area1)
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            rlist[maxerr] = area1
            rlist.append(area2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier:
            break
        if last == first:
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if lev < levmax:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is small
            if level[maxerr] < levmax:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # lower the sum of errors over the larger intervals (erlarg)
            jupbnd = last if last <= 2 + LIMIT // 2 else LIMIT + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if level[maxerr] < levmax:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(tol, tol * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        # prepare bisection of the smallest interval
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        levmax += 1
        erlarg = errsum

    # keep the extrapolated result unless the plain sum is better; a call
    # that never extrapolated (abserr still _OFLOW) returns the sum
    if abserr == _OFLOW:
        summed = True
    if not summed:
        test = True
        if ier + ierro:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
                test = area != 0.0
        if test and not summed and (ksgn == 1 or max(abs(result), abs(area)) > 0.01 * defabs):
            # divergence test; a complex ratio is tested by its modulus and sign
            if area == 0.0:
                diverges = result != 0.0 or errsum > 0.0
            else:
                q = result / area
                diverges = q.real < 0.0 or abs(q) < 0.01 or abs(q) > 100.0 or errsum > abs(area)
            if diverges:
                ier = 6
    if summed:
        result = sum(rlist)
        abserr = errsum
    if ier > 2:
        ier -= 1
    return _real(result), abserr, ier, neval


def _real(v):
    return v.real if type(v) is complex and v.imag == 0.0 else v


def _check(val, err, ier, neval, tol, what):
    # a NaN error estimate fails the comparison; ier 5 ("probably divergent")
    # can come with a small error estimate for the finite part of a divergent
    # integral
    if ier == 5 or not err <= max(50 * tol, 1e-7 * (1.0 + abs(val))):
        raise QuadratureError(f"quadrature over {what} did not converge", val, err, ier, neval)
    return val, err


def quad_interval(f, a: float, b: float, tol: float = DEFAULT_TOL, points=None):
    """Integrate f over [a, b]; returns (value, error estimate).

    ``b`` may be +inf; ``points`` (break points) apply to finite intervals.
    """
    if a == b:
        return 0.0, 0.0
    return _check(*_qags(f, float(a), float(b), tol, points), tol, f"[{a}, {b}]")


# Transformed integration range [0, U_MAX] covers x in [e^-200, 1] resp.
# [1, e^200]; integrable remainders contribute nothing measurable beyond it.
U_MAX = 200.0
_U_SPLITS = [0.7, 2.0, 5.0, 12.0, 30.0, 80.0]


def quad_01(f, tol: float = DEFAULT_TOL, points=None, u_max: float = U_MAX):
    """Integrate f over (0, 1] via the substitution x = e^{-u}.

    ``u_max`` caps the transformed range (lower x cutoff e^-u_max); callers
    whose integrand decays at a known rate can shrink it to keep round-off
    from the subtracted-expansion cancellation out of the result.
    """
    return _half_line(f, -1.0, tol, points, u_max)


def quad_1inf(f, tol: float = DEFAULT_TOL, points=None, u_max: float = U_MAX):
    """Integrate f over [1, inf) via the substitution x = e^{u}."""
    return _half_line(f, 1.0, tol, points, u_max)


def _half_line(f, sign: float, tol: float, points, u_max: float):
    """Integrate f over (0, 1] (sign -1) or [1, inf) (sign +1) via x = e^{sign u}, u in [0, u_max]."""
    pts = [u for u in _U_SPLITS if u < u_max]
    if points:
        lo, hi = (math.exp(-u_max), 1.0) if sign < 0 else (1.0, math.exp(u_max))
        pts += [sign * math.log(p) for p in points if lo < p < hi]

    def g(u):
        x = math.exp(sign * u)
        return f(x) * x

    return _check(*_qags(g, 0.0, u_max, tol, pts), tol, "(0, 1]" if sign < 0 else "[1, inf)")


# The divergence monitor: the last SHELL_WINDOW shells carry more than
# SHELL_RATIO of what the first SHELL_WINDOW carried, and more than
# SHELL_FLOOR; the sum stops once a shell adds under SHELL_STOP of it.
SHELL_RATIO = 0.1
SHELL_WINDOW = 6
SHELL_FLOOR = 1e-12
SHELL_STOP = 1e-14
SHELL_LEVELS = 26  # shells toward a face of the sampled hypothesis checks, down to 2^-26


def _outgrows(values, combine, ratio: float) -> bool:
    """The rule, on the first and last SHELL_WINDOW values from the first nonzero one on.

    Values before it lie where f has no support yet; a window holds half of
    the rest when they are fewer than 2 * SHELL_WINDOW.
    """
    values = list(dropwhile(not_, values))
    w = min(SHELL_WINDOW, len(values) // 2)
    if w == 0:
        return False
    later = combine(values[len(values) - w :])
    return later > ratio * combine(values[:w]) and later > SHELL_FLOOR


def dyadic_shells(f, b: float, levels: int, tol: float, points=()):
    """Integral of f over (0, b] as a sum of dyadic shells; (value, diverges).

    Shell k is [b 2^-(k+1), b 2^-k], integrated by :func:`quad_interval`
    with the break points that fall inside it, for k = 0 .. levels - 1.  The
    sum stops once a shell adds under SHELL_STOP of it, but not before
    2 * SHELL_WINDOW shells.  The integral diverges, with value math.inf,
    when the moduli of the last SHELL_WINDOW shells sum to more than
    SHELL_RATIO times the first SHELL_WINDOW's and more than SHELL_FLOOR;
    the first window starts at the first shell that is not zero.

    The rule's known limit: x^a with a just above -1 shrinks by 2^-(a+1)
    per shell, 2^-0.1 for a = -0.9, so SHELL_LEVELS shells cannot tell it from a
    divergent integrand and it reads as divergent.
    """
    if levels < 2 * SHELL_WINDOW:
        raise ValueError(f"the monitor compares two windows of {SHELL_WINDOW} shells; levels={levels}")
    total = 0.0
    shells = []
    for k in range(levels):
        lo, hi = b * 2.0 ** (-k - 1), b * 2.0 ** (-k)
        val, _ = quad_interval(f, lo, hi, tol, points)
        shells.append(abs(val))
        total += val
        if k >= 2 * SHELL_WINDOW - 1 and abs(val) < SHELL_STOP * abs(total):
            break
    if _outgrows(shells, sum, SHELL_RATIO):
        return math.inf, True
    return total, False


def grows(peaks) -> bool:
    """The monitor's rule read as growth, on peaks sampled octave by octave.

    True when the peak of the last SHELL_WINDOW octaves exceeds 1/SHELL_RATIO
    times the peak of the first SHELL_WINDOW and SHELL_FLOOR.
    """
    return _outgrows(peaks, max, 1.0 / SHELL_RATIO)


def geometric_grid(a: float, b: float, n: int) -> list[float]:
    """n >= 2 points from a to b > a > 0, spaced evenly in log10 by numpy's formula, both ends exact."""
    start = math.log10(a)
    step = (math.log10(b) - start) / (n - 1)
    return [a, *[10.0 ** (i * step + start) for i in range(1, n - 1)], b]
