"""Adaptive quadrature wrappers around scipy's Gauss-Kronrod integrator.

Endpoint behavior on (0, 1] and [1, inf) is tamed by the exponential
substitutions x = e^{-u} and x = e^{u}.  Integrands may be complex valued.
A call takes the complex path only when an integrand value has a nonzero
imaginary part, at one of three probe points or during the real pass; a
complex value with a zero imaginary part counts as real.  When the three
probes all return a float, the real pass gives the integrand to QUADPACK
with no wrapper; a complex value at a later node stops that pass, and the
call starts over with a wrapper that takes real parts and watches for
imaginary ones.  The complex path integrates the real and imaginary parts
in two passes that share one integrand value per node, held for the length
of the call.
"""

from __future__ import annotations

import math
import warnings

import scipy.integrate as _si

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25
    from numpy import ComplexWarning

__all__ = ["QuadratureError", "quad_interval", "quad_01", "quad_1inf", "DEFAULT_TOL"]

DEFAULT_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, estimate: float | complex, error: float):
        super().__init__(f"{message} (estimate {estimate}, error estimate {error:.2e})")
        self.estimate = estimate
        self.error = error


def _quad_real(f, a, b, tol, points=None, strict=False):
    """QUADPACK on f; strict: a complex value of f raises instead of losing its imaginary part."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        if strict:  # a Python complex raises TypeError by itself
            warnings.simplefilter("error", ComplexWarning)
        kwargs = dict(epsabs=tol, epsrel=tol, limit=300)
        if points is not None and math.isfinite(a) and math.isfinite(b):
            pts = sorted(p for p in points if a < p < b)
            if pts:
                kwargs["points"] = pts
        val, err = _si.quad(f, a, b, **kwargs)
    return val, err


def _quad(f, a, b, tol, points=None):
    probe_at = [a + (b - a) * s for s in (0.21, 0.5, 0.83)] if math.isfinite(b) else [a + s for s in (0.3, 1.1, 4.7)]
    floats = 0
    for x in probe_at:
        try:
            v = f(x)
        except Exception:
            continue
        if not isinstance(v, float) and v.imag != 0:  # numpy complex types too
            values = {x: v}
            break
        floats += isinstance(v, float)
    else:
        if floats == len(probe_at):
            # all probes real: QUADPACK takes f itself, and a complex value at
            # a later node makes the call start over on the wrapped path
            try:
                return _quad_real(f, a, b, tol, points, strict=True)
            except (TypeError, ComplexWarning):
                pass
        imag_seen = False

        def fr(x):
            nonlocal imag_seen
            v = f(x)
            if isinstance(v, float):
                return v
            imag_seen = imag_seen or v.imag != 0
            return v.real

        val, err = _quad_real(fr, a, b, tol, points)
        if not imag_seen:
            return val, err
        # the probes missed an imaginary part: integrate both parts after all
        values = {}

    def fc(x):  # one evaluation per node, shared by both passes
        v = values.get(x)
        if v is None:
            v = values[x] = f(x)
        return v

    re, er = _quad_real(lambda x: fc(x).real, a, b, tol, points)
    im, ei = _quad_real(lambda x: fc(x).imag, a, b, tol, points)
    return complex(re, im), math.hypot(er, ei)


def _check(val, err, tol, what):
    if err > max(50 * tol, 1e-7 * (1.0 + abs(val))):
        raise QuadratureError(f"quadrature over {what} did not converge", val, err)
    return val, err


def quad_interval(f, a: float, b: float, tol: float = DEFAULT_TOL, points=None):
    """Integrate f over [a, b]; returns (value, error estimate)."""
    if a == b:
        return 0.0, 0.0
    val, err = _quad(f, a, b, tol, points)
    return _check(val, err, tol, f"[{a}, {b}]")


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
    pts = [u for u in _U_SPLITS if u < u_max]
    if points:
        pts += [-math.log(p) for p in points if math.exp(-u_max) < p < 1.0]

    def g(u):
        x = math.exp(-u)
        return f(x) * x

    val, err = _quad(g, 0.0, u_max, tol, points=pts)
    return _check(val, err, tol, "(0, 1]")


def quad_1inf(f, tol: float = DEFAULT_TOL, points=None, u_max: float = U_MAX):
    """Integrate f over [1, inf) via the substitution x = e^{u}."""
    pts = [u for u in _U_SPLITS if u < u_max]
    if points:
        pts += [math.log(p) for p in points if 1.0 < p < math.exp(u_max)]

    def g(u):
        x = math.exp(u)
        return f(x) * x

    val, err = _quad(g, 0.0, u_max, tol, points=pts)
    return _check(val, err, tol, "[1, inf)")
