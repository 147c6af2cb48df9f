"""The library against an independent high-precision oracle: mpmath at 30 digits."""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from asympush import expressions as ex
from asympush.pushforward import density_from_expression, push_xy

from test_pushforward import _density

mp = pytest.importorskip("mpmath")

DPS = 30

_MP_CALLS = {"exp": mp.exp, "sin": mp.sin, "cos": mp.cos, "log": mp.log, "sqrt": mp.sqrt}
_MP_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": mp.power}


def _mp_eval(node, env):
    """The expression at mpmath values, from its tree, without the library's evaluators."""
    if isinstance(node, ex.Num):
        return mp.mpf(node.value)
    if isinstance(node, ex.Var):
        return env[node.name]
    if isinstance(node, ex.Neg):
        return -_mp_eval(node.arg, env)
    if isinstance(node, ex.Call):
        return _MP_CALLS[node.func](_mp_eval(node.arg, env))
    return _MP_OPS[node.op](_mp_eval(node.left, env), _mp_eval(node.right, env))


def _mp_push_xy(node, X: float, Y: float, t: float) -> float:
    """int u(e^s, t e^-s) ds over log(t/Y) < s < log(X), split where push_xy splits."""
    with mp.workdps(DPS):
        X, Y, t = mp.mpf(X), mp.mpf(Y), mp.mpf(t)
        lo, hi = mp.log(t / Y), mp.log(X)
        inner = sorted(s for s in (mp.log(t), mp.mpf(0), mp.log(t) / 2) if lo < s < hi)
        return float(mp.quad(
            lambda s: _mp_eval(node, {"x": mp.exp(s), "y": t * mp.exp(-s)}),
            [lo, *inner, hi],
            method="gauss-legendre",
        ))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_density, st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(1e-8, 0.999))
def test_push_xy_matches_mpmath(text, X, Y, frac):
    u = density_from_expression(text, box=(X, Y))
    t = frac * X * Y
    ref = _mp_push_xy(ex.parse(text), X, Y, t)
    assert abs(push_xy(u, t) - ref) <= 1e-10 * max(1.0, abs(ref)), text
