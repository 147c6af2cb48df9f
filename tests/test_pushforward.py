import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asympush import expressions as ex
from asympush.asymfun import from_expression
from asympush.indexsets import complete, nullfaces
from asympush.pushforward import (
    DivergentIntegral,
    F_pushforward,
    blowup_density_from_expression,
    blowup_matrix,
    condition_C_check,
    density_from_expression,
    fit_asymptotics,
    push_xy,
    sal_prediction_smooth,
    sigma_from_density,
)
from asympush.quadrature import quad_interval
from asympush.singular_expansion import sigma_from_expression


def smooth_family(g2_generator):
    return {
        "G1": complete([(0, 0)]),
        "G2": complete([g2_generator]),
        "G3": complete([(0, 0)]),
    }


def test_unit_square_gives_log():
    u0 = density_from_expression("1")
    for t in np.geomspace(1e-4, 0.5, 10):
        assert push_xy(u0, t) == pytest.approx(-math.log(t), abs=1e-8)


def test_linear_density_closed_form():
    u = density_from_expression("x")
    for t in (0.9, 0.25, 1e-3):
        assert push_xy(u, t) == pytest.approx(1.0 - t, abs=1e-9)


def test_out_of_range_t():
    u = density_from_expression("1", box=(2.0, 2.0))
    with pytest.warns(UserWarning):
        assert push_xy(u, 5.0) == 0.0
    with pytest.raises(ValueError):
        push_xy(u, 0.0)


def test_support_away_from_level_line():
    # support sits in [1,2]^2: the hyperbola xy = 0.5 misses it entirely
    u = density_from_expression("step(x-1)*step(y-1)", box=(2.0, 2.0), smooth=False)
    assert push_xy(u, 0.5) == 0.0


def test_swap_symmetry():
    u = density_from_expression("exp(-x)*(1+y)*(2+sin(x))")
    for t in (0.4, 0.03, 0.002):
        assert push_xy(u, t) == pytest.approx(push_xy(u.swapped(), t), abs=1e-9)


def test_prediction_constant_density():
    pred = sal_prediction_smooth(density_from_expression("1"), 0)
    assert pred.coefficient(0.0, 1) == pytest.approx(-1.0, abs=1e-12)
    assert abs(pred.coefficient(0.0, 0)) <= 1e-10


def test_prediction_linear_density():
    pred = sal_prediction_smooth(density_from_expression("x"), 1)
    assert pred.coefficient(0.0, 0).real == pytest.approx(1.0, abs=1e-10)
    assert pred.coefficient(1.0, 0).real == pytest.approx(-1.0, abs=1e-10)
    assert abs(pred.coefficient(0.0, 1)) + abs(pred.coefficient(1.0, 1)) == 0.0


def test_prediction_zero_density_empty():
    pred = sal_prediction_smooth(density_from_expression("0"), 2)
    assert pred.terms == ()


def test_prediction_rejects_nonsmooth():
    u = density_from_expression("1", smooth=False)
    with pytest.raises(ValueError):
        sal_prediction_smooth(u, 1)


def residual_decay(text, J, n_points):
    """Fitted power of t in |push_xy - prediction through t^J|, one log factor allowed."""
    u = density_from_expression(text)
    pred = sal_prediction_smooth(u, J)
    ts = np.geomspace(1e-3, 1e-1, n_points)
    res = np.array([abs(push_xy(u, t, 1e-12) - pred(t).real) for t in ts])
    L = np.log(ts)
    A = np.column_stack([np.ones_like(L), L, np.log(np.abs(L))])
    return np.linalg.lstsq(A, np.log(res), rcond=None)[0][1]


def test_prediction_matches_quadrature_to_declared_order():
    assert residual_decay("exp(-x-y)", 2, 10) >= 2.7


def test_prediction_rational_density_meets_decay_gate():
    # iterated diff of a rational density grows geometrically; at the
    # criterion-6 gate this prediction must finish and decay like t^4
    assert residual_decay("1/(1+x+y)", 3, 12) >= 3.7


def test_fit_recovers_exact_log_basis():
    samples = [(t, -math.log(t)) for t in np.geomspace(1e-3, 0.5, 10)]
    fit = fit_asymptotics(samples, [(0.0, 0), (0.0, 1)])
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-12)
    assert fit.coefficients[1] == pytest.approx(-1.0, abs=1e-12)
    assert fit.residual <= 1e-12


def test_fit_recovers_linear_basis():
    samples = [(t, 1.0 - t) for t in np.geomspace(1e-3, 0.5, 10)]
    fit = fit_asymptotics(samples, [(0.0, 0), (1.0, 0)])
    assert fit.coefficients == pytest.approx((1.0, -1.0), abs=1e-12)


def test_fit_validation():
    samples = [(0.1, 1.0), (0.2, 2.0)]
    with pytest.raises(ValueError):
        fit_asymptotics(samples, [(0.0, 0), (0.0, 1)])
    dup = [(t, 1.0) for t in (0.1,) * 8]
    with pytest.raises(ValueError):
        fit_asymptotics(dup, [(0.0, 0), (1.0, 0)])


def test_fit_basis_within_pushed_index_set():
    # smooth-density samples need only exponents (n,0) and (n,1)
    u = density_from_expression("exp(-x-y)")
    samples = [(t, push_xy(u, t, 1e-12)) for t in np.geomspace(1e-3, 0.2, 14)]
    basis = [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1), (2.0, 0), (2.0, 1)]
    fit = fit_asymptotics(samples, basis)
    assert fit.residual <= 1e-5


def test_chart_coherence():
    d = blowup_density_from_expression("x*exp(-x*y)", smooth_family((1, 0)))
    for zeta, t in [(2.0, 0.3), (0.7, 0.1), (5.0, 0.01)]:
        assert d.u_B(zeta, t) == d(zeta * t, 1.0 / zeta)


def test_sigma_from_constant_slice_density():
    d = blowup_density_from_expression("x", smooth_family((1, 0)))
    sig = sigma_from_density(d, order=1)
    for x, z in [(0.2, 3.0), (0.9, 0.5)]:
        assert sig(x, z) == pytest.approx(1.0, abs=1e-12)
    assert sigma_from_density(
        blowup_density_from_expression("0", smooth_family((1, 0)))
    )(0.5, 2.0) == 0.0


def test_sigma_matches_product_form():
    fam = smooth_family((1, 0))
    d = blowup_density_from_expression("x*y", fam, box=(1.0, 1.0))
    sig = sigma_from_density(d, order=2)
    for x, z in [(0.3, 5.0), (0.9, 1.7)]:
        assert sig(x, z) == pytest.approx(1.0 / z, abs=1e-12)
    assert sig(0.5, 0.5) == 0.0  # second argument above the support bound


def test_F_pushforward_equals_scaled_push():
    fam = smooth_family((1, 0))
    d = blowup_density_from_expression("x*y", fam, box=(1.0, 1.0))
    u0 = density_from_expression("1")
    for t in (0.1, 0.01):
        assert F_pushforward(d, t) == pytest.approx(t * push_xy(u0, t), abs=1e-10)


def test_F_pushforward_constant_slice():
    d = blowup_density_from_expression("x", smooth_family((1, 0)))
    for t in (0.5, 0.05):
        assert F_pushforward(d, t) == pytest.approx(1.0, abs=1e-9)


def test_F_pushforward_divergence_detected():
    d = blowup_density_from_expression("x*y", smooth_family((0, 0)))
    with pytest.raises(DivergentIntegral):
        F_pushforward(d, 0.5)


def test_F_pushforward_smooth_interior_support():
    # support away from all faces: plain finite integral
    d = blowup_density_from_expression(
        "step(x-0.5)*step(y-0.5)*x", smooth_family((1, 0)), box=(2.0, 2.0)
    )
    t = 1.0
    val = F_pushforward(d, t)
    # direct: int_{x in [0.5,2], y=t/x in [0.5,2]} x dx/x
    lo, hi = max(0.5, t / 2.0), min(2.0, t / 0.5)
    assert val == pytest.approx(hi - lo, abs=1e-9)


def test_condition_check_agreement_both_ways():
    good = condition_C_check(
        blowup_density_from_expression("x", smooth_family((1, 0))), 1, (1.0, 0.5)
    )
    assert good.bounded and good.integrability.ok and good.agree
    bad = condition_C_check(
        blowup_density_from_expression("x*y", smooth_family((0, 0))), 1, (1.0, 0.5)
    )
    assert not bad.bounded and not bad.integrability.ok and bad.agree
    assert math.isinf(bad.values[(0, 1.0)])


@pytest.mark.parametrize("amplitude", ["", "0.1*"])
def test_condition_check_log_divergence_whatever_the_amplitude(amplitude):
    # sigma = c exp(-x)/zeta: every dyadic shell of the p = 0 integral carries
    # c ln 2, so the integral diverges for c = 0.1 as it does for c = 1
    d = blowup_density_from_expression(amplitude + "x*y*exp(-x)", smooth_family((0, 0)))
    rep = condition_C_check(d, p_max=0)
    assert not rep.bounded and rep.agree
    assert all(math.isinf(v) for v in rep.values.values())


def test_condition_check_vacuous_below_support_cutoff():
    # finite second box edge makes sigma vanish for small zeta, so every
    # dyadic shell toward the front face contributes zero
    d = blowup_density_from_expression("x*y", smooth_family((1, 0)), box=(1.0, 1.0))
    rep = condition_C_check(d, 1, (1.0, 0.3))
    assert rep.bounded and rep.agree


def test_blowup_nullface():
    assert nullfaces(blowup_matrix()) == {"G2"}


# densities from the grammar: sums, differences and products of exp, sin and
# cos of such terms, in x, y and constants
_atom = st.one_of(st.sampled_from(["x", "y"]), st.floats(0.1, 2.0).map(lambda v: repr(round(v, 3))))
_density = st.recursive(
    _atom,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), inner).map(lambda t: f"{t[0]}(-{t[1]})"),
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    _density,
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.one_of(st.floats(1e-8, 0.999), st.sampled_from([1.0 - 1e-9, 1.0 - 2.0**-52])),
)
def test_push_xy_is_the_quadrature_of_the_density(text, X, Y, frac):
    u = density_from_expression(text, box=(X, Y))
    d = blowup_density_from_expression(text, smooth_family((1, 0)), box=(X, Y))
    t = frac * X * Y  # up to the last float below X * Y
    if not 0 < t < X * Y:
        return
    lo, hi = math.log(t / Y), math.log(X)
    pts = [s for s in (math.log(t), 0.0, 0.5 * math.log(t)) if lo < s < hi]
    want, _ = quad_interval(lambda s: u(math.exp(s), t * math.exp(-s)), lo, hi, points=pts)
    assert push_xy(u, t) == want  # the same nodes, the same values, bit for bit
    if lo < hi:
        pts = [s for s in (math.log(t), 0.0) if lo < s < hi]
        want, _ = quad_interval(lambda s: d(math.exp(s), t / math.exp(s)), lo, hi, points=pts)
        assert F_pushforward(d, t) == want


def test_push_xy_of_a_2000_term_density():
    text = "+".join(["x*y"] * 2000)
    u = density_from_expression(text)
    t = 0.25
    value = 2000 * t * math.log(1 / t)  # u(x, t/x) = 2000 t on [t, 1]
    assert push_xy(u, t) == pytest.approx(value, rel=1e-12)
    # u_A = x y u with u = 2000: t push_xy(2000, t), which is the same value
    d = blowup_density_from_expression(text, smooth_family((1, 0)), box=(1.0, 1.0))
    assert F_pushforward(d, t) == pytest.approx(value, rel=1e-12)
    f = from_expression(text.replace("y", "x"))
    assert f(0.5) == pytest.approx(500.0, rel=1e-12)
    sigma = sigma_from_expression(text.replace("y", "zeta"), order=0)
    assert sigma(0.5, 2.0) == pytest.approx(2000.0, rel=1e-12)


def test_prediction_of_a_2000_term_density():
    # diff and taylor walk the 1999 '+' nodes of the sum in a loop; the
    # partial sums carry about 2000 ulps of noise, more than the subtracted
    # boundary integrals resolve at the default absolute tolerance of 1e-10
    long = sal_prediction_smooth(density_from_expression("+".join(["x*y"] * 2000)), 1, tol=1e-8)
    one = sal_prediction_smooth(density_from_expression("2000*x*y"), 1)
    for t in (0.5, 0.1, 0.01):
        assert long(t).real == pytest.approx(one(t).real, rel=1e-9)


def test_unparse_evaluate_and_swap_of_a_2000_term_density():
    # each walks the 1999 '+' nodes of the left spine in a loop, not by recursion
    text = "+".join(["x*y"] * 2000)
    u = density_from_expression(text)
    assert ex.unparse(u.ast) == text
    assert ex.evaluate(u.ast, {"x": 0.5, "y": 0.25}) == 250.0
    v = u.swapped()
    assert v.box == (1.0, 1.0)
    assert ex.unparse(v.ast) == "+".join(["y*x"] * 2000)
    assert v(0.25, 0.5) == u(0.5, 0.25) == 250.0
