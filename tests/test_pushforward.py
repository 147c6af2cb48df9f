import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asympush import expressions as ex
from asympush.asymfun import from_expression, power_log_multiply, reg_integral
from asympush.expansions import make_side
from asympush.indexsets import complete, nullfaces
from asympush.pushforward import (
    CONDITION_WARN,
    Density2D,
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
from asympush.singular_expansion import SigmaFunction, SigmaTerm, asymptotic_expansion, sigma_from_expression


def replaced(obj, **changes):
    """obj rebuilt through its constructor with the given fields changed and every other one kept."""
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in inspect.signature(type(obj)).parameters})


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
    u = density_from_expression("step(x-1)*step(y-1)", box=(2.0, 2.0))
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
    # the engine finds the Taylor data missing at an axis and raises a typed error
    cases = [
        ("sqrt(x)+1", ex.EvalError),
        ("x^1.5*exp(-y)", ex.EvalError),
        ("1/(x+y)", ex.EvalError),
        ("step(x-1)*step(y-1)", ex.DiffError),
    ]
    for text, error in cases:
        with pytest.raises(error):
            sal_prediction_smooth(density_from_expression(text, box=(2.0, 2.0)), 1)
    # a density with Taylor data at both axes needs no flag: u = 1 reads -ln t
    pred = sal_prediction_smooth(density_from_expression("1"), 1)
    assert pred.coefficient(0.0, 1) == pytest.approx(-1.0, abs=1e-12)


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


DEEP_DENSITIES = ["1/(1+x+y)", "1/(2+x+y)", "sqrt(1+x+y)", "exp(-x^2-y)*cos(x*y)"]


@pytest.mark.parametrize("text", DEEP_DENSITIES)
def test_deep_predictions_match_quadrature(text):
    # past order 6 the squared denominators of iterated quotient rules read
    # 1.1e-5 off push_xy for 1/(1+x+y) at J = 8, and raised at J = 10
    u = density_from_expression(text)
    want = {t: push_xy(u, t, 1e-13) for t in (0.005, 0.01, 0.02)}
    for J in (10, 14):
        pred = sal_prediction_smooth(u, J)
        for t, v in want.items():
            assert abs(pred(t).real - v) <= 1e-12, (J, t)
    if text == "1/(1+x+y)":  # d_x^j d_y^j u(0, 0)/j!^2 = C(2j, j), exactly
        for j in range(15):
            assert pred.coefficient(float(j), 1) == pytest.approx(-math.comb(2 * j, j), rel=1e-12), j


def axis_moment_formula(u, J):
    """The small-t expansion of push_xy written out by hand: the oracle of the SAL route.

    Order j takes, on each axis, the regularized moment of t^(-1-j) times the
    j-th normal derivative of u restricted to that axis, over j!; its t^j ln t
    coefficient is -d_x^j d_y^j u(0, 0)/j!^2.
    """
    X, Y = u.box
    terms = []
    for j in range(J + 1):
        moment = 0.0
        for other, upper in (("y", X), ("x", Y)):
            node = u.ast
            for _ in range(j):
                node = ex.diff(node, other)
            node = ex.substitute(ex.substitute(node, other, ex.Num(0.0)), "y", ex.Var("x"))
            cs = ex.taylor(node, "x", 0.0, j + 9)
            w = from_expression(
                node, zero_terms=[(k, [c]) for k, c in enumerate(cs)], order_zero=j + 10.0,
                order_inf=40.0, support=(0.0, upper),
            )
            moment += reg_integral(power_log_multiply(w, -1.0 - j))
        terms.append((j, [moment / math.factorial(j), -cs[j] / math.factorial(j)]))
    return make_side(terms, J + 2.0, "zero", 1)


AXIS_FORMULA_CASES = [
    ("1", (1.0, 1.0)), ("x", (1.0, 1.0)), ("0", (1.0, 1.0)), ("x*y", (1.0, 1.0)),
    ("exp(-x-y)", (1.0, 1.0)), ("1/(1+x+y)", (1.0, 1.0)), ("2000*x*y", (1.0, 1.0)),
    ("exp(-x)*(1+y)*(2+sin(x))", (1.0, 1.0)), ("x*exp(-x*y)", (1.0, 1.0)), ("x*y*exp(-x)", (1.0, 2.0)),
    ("1", (1.0, 2.5)), ("1/(1+x+y)", (2.0, 0.5)),
    # no Taylor data to depth 9 at the y axis, yet push_xy = (1 - t^12)/12
    ("x^12", (1.0, 1.0)),
    # the hard-depth templates
    ("exp(-0.7*x^2-1.2*y)", (1.1, 0.9)), ("exp(-1.3*x-0.6*y^2)", (0.9, 1.4)),
    ("cos(0.8*x+1.1*y)*exp(-x-y)", (1.2, 1.3)),
]


@pytest.mark.parametrize("text, box", AXIS_FORMULA_CASES)
def test_prediction_matches_the_axis_moment_formula(text, box):
    u = density_from_expression(text, box)
    for J in range(4):
        pred, want = sal_prediction_smooth(u, J), axis_moment_formula(u, J)
        assert pred.order == want.order and pred.log_power == want.log_power
        assert {t.exponent for t in pred.terms} <= {complex(j) for j in range(J + 1)}
        for j in range(J + 1):
            for k in (0, 1):
                w = want.coefficient(float(j), k)
                assert pred.coefficient(float(j), k) == pytest.approx(w, rel=1e-12, abs=1e-12), (J, j, k)


@pytest.mark.parametrize("text", ["exp(-x-y)", "1/(1+x+y)", "(1+x)*exp(-x-2*y)", "1"])
@pytest.mark.parametrize("box", [(1.0, 1.0), (1.0, 2.5)])
def test_sal_engine_on_the_two_sided_fiber_integrand(text, box):
    # sigma = u_A(x, 1/zeta)/x declares x^(j-1) d_x^j u_A(0, y)/j! at x = 0 and
    # zeta^-m d_y^m u_A(x, 0)/(m! x) at zeta = inf; the engine's expansion of
    # int sigma(x, x z) dx must leave a residual O(z^(-p-1) ln z)
    d = blowup_density_from_expression(text, smooth_family((1, 0)), box=box)
    zs = np.geomspace(6.0, 60.0, 8)
    for p in range(1, 5):
        expn = asymptotic_expansion(sigma_from_density(d, p)).expansion
        res = np.array([abs(expn(z).real - F_pushforward(d, 1.0 / z, 1e-12)) for z in zs])
        if text == "1":  # ln z + ln Y exactly
            assert res.max() <= 1e-12
            continue
        L = np.log(zs)
        A = np.column_stack([np.ones_like(L), L, np.log(L)])
        slope = np.linalg.lstsq(A, np.log(res), rcond=None)[0][1]
        assert slope <= -(p + 1) + 0.3, (p, slope)


def test_fiber_expansion_of_a_constant_density_reads_ln_Y():
    # the x-side term j = 0 of u_A = 1 on (1, 2.5) is reg int_0^2.5 dy/y = ln 2.5
    d = blowup_density_from_expression("1", smooth_family((1, 0)), box=(1.0, 2.5))
    expn = asymptotic_expansion(sigma_from_density(d, order=0)).expansion
    assert expn.coefficient(0.0, 1) == pytest.approx(1.0, abs=1e-12)
    assert expn.coefficient(0.0, 0) == pytest.approx(0.91629073187415, abs=1e-12)
    for z in (10.0, 1000.0):
        assert expn(z).real == pytest.approx(math.log(z) + 0.91629073187415, abs=1e-12)


def test_corner_is_read_once_and_checked_across_sides():
    d = blowup_density_from_expression("exp(-x-y)", smooth_family((1, 0)), box=(1.0, 1.0))
    sigma = sigma_from_density(d, order=1)
    both = asymptotic_expansion(sigma)
    assert both.notes == ()
    assert both.expansion.coefficient(-1.0, 1) == pytest.approx(1.0, abs=1e-12)  # d_x d_y u_A(0, 0)
    # without the zeta side, the x side's declaration of the corner gives the same log terms
    x_only = asymptotic_expansion(replaced(sigma, terms=())).expansion
    for k in (0, 1):
        assert x_only.coefficient(0.0, k + 1) == pytest.approx(both.expansion.coefficient(0.0, k + 1), abs=1e-12)
        assert x_only.coefficient(-1.0, k + 1) == pytest.approx(both.expansion.coefficient(-1.0, k + 1), abs=1e-12)
    # an x side that declares another corner coefficient is noted, and the zeta side's is used
    q = from_expression(
        "x-exp(-x)", zero_terms=[(0, [-1.0]), (1, [2.0])] + [(k, [(-1.0) ** (k + 1) / math.factorial(k)]) for k in range(2, 6)],
        order_zero=6.0, order_inf=40.0, support=(0.0, 1.0),
    )
    x_terms = tuple(t if t.exponent != 0 else SigmaTerm(0j, (q,)) for t in sigma.x_terms)
    rep = asymptotic_expansion(replaced(sigma, x_terms=x_terms))
    assert rep.notes == ("corner coefficient of z^(-1+0j) ln z: zeta side (1+0j), x side (2+0j)",)
    assert rep.expansion.coefficient(-1.0, 1) == pytest.approx(1.0, abs=1e-12)


def test_log_powers_of_x_at_the_corner():
    # sigma = ln x e^-x/(1+zeta): x^0 ln x zeta^-1 sits at the corner; the zeta
    # side reads no ln x power there, so its z^-1 ln^2 z term, -1/2 from
    # int_{1/z}^1 ln x dx/x, is the x side's
    mp = pytest.importorskip("mpmath")
    zero = from_expression("0", order_zero=6.0, order_inf=40.0)
    q = from_expression(
        "x/(1+x)", zero_terms=[(k + 1, [(-1.0) ** k]) for k in range(4)], order_zero=5.0,
        inf_terms=[(-k, [(-1.0) ** k]) for k in range(3)], order_inf=2.0,
    )
    c = from_expression("log(x)*exp(-x)", zero_terms=[(k, [0, (-1.0) ** k / math.factorial(k)]) for k in range(8)], order_zero=8.0)
    sigma = SigmaFunction(
        fn=lambda x, zeta: math.log(x) * math.exp(-x) / (1 + zeta), order=1,
        terms=(SigmaTerm(-1 + 0j, (c,)),), x_terms=(SigmaTerm(0j, (zero, q)),),
    )
    expn = asymptotic_expansion(sigma).expansion
    assert expn.coefficient(-1.0, 2) == pytest.approx(-0.5, abs=1e-12)
    for z in (50, 200, 800):
        want = mp.quad(lambda x: mp.log(x) * mp.exp(-x) / (1 + x * z), [0, 1.0 / z, 1, mp.inf])
        assert abs(expn(z).real - float(want)) <= z**-2 * math.log(z) ** 2


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
    with pytest.raises(ValueError, match="design matrix is rank deficient for this grid"):
        fit_asymptotics(dup, [(0.0, 0), (1.0, 0)])
    with pytest.raises(ValueError, match="sample points must be positive"):
        fit_asymptotics([(t, 1.0) for t in (0.1, 0.2, 0.0, 0.3)], [(0.0, 0), (1.0, 0)])
    with pytest.raises(ValueError, match="a basis function overflows the float range on this grid"):
        fit_asymptotics([(t, 1.0) for t in (0.01, 0.02, 0.05, 0.1)], [(-1000.0, 0), (0.0, 0)])


def test_fit_warns_on_an_ill_conditioned_basis():
    # t^1e-8 = 1 + 1e-8 ln t + ...: two nearly parallel columns
    samples = [(t, 1.0) for t in np.geomspace(0.1, 0.9, 10)]
    with pytest.warns(UserWarning, match="ill-conditioned design matrix"):
        fit = fit_asymptotics(samples, [(0.0, 0), (1e-8, 0)])
    assert fit.condition > CONDITION_WARN


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["point", "value"])
def test_fit_rejects_a_non_finite_sample(where, bad):
    # a non-finite value gave NaN coefficients without an error, and a NaN or +inf
    # point passed the positivity check and failed inside the SVD
    samples = [(t, 1.0 + t) for t in np.geomspace(0.01, 0.5, 12).tolist()]
    t, v = samples[5]
    samples[5] = (bad, v) if where == "point" else (t, bad)
    message = f"sample (t, value) = ({samples[5][0]}, {samples[5][1]}) is not finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_asymptotics(samples, [(0.0, 0), (1.0, 0)])


def test_fit_rejects_an_empty_basis_and_a_column_that_overflows():
    with pytest.raises(ValueError, match="the fit basis is empty"):
        fit_asymptotics([(0.1, 1.0), (0.2, 2.0)], [])
    # t^-102 is finite at t = 1e-3, but not its product with ln^3 t
    with pytest.raises(ValueError, match="a basis function overflows the float range on this grid"):
        fit_asymptotics([(t, 1.0) for t in (1e-3, 2e-3, 5e-3, 1e-2)], [(-102.0, 3), (0.0, 0)])


def test_fit_matches_numpy_lstsq_on_the_push_sweep_fits(monkeypatch):
    # the benchmark's 48 fits of seeds 777 and 901, 8 points by 4 basis functions
    # each, with numpy.linalg.lstsq on the same design as the reference
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import push_sweep

    fits = 0
    for seed in (777, 901):
        values = {}
        for op in push_sweep(seed):
            a = op.args
            if op.kind == "push":
                values[a["density"], a["index"]] = push_xy(density_from_expression(a["expr"], tuple(a["box"])), a["t"])
                continue
            basis = [tuple(b) for b in a["basis"]]
            samples = [(t, values[a["density"], i]) for i, t in enumerate(a["grid"])]
            fit = fit_asymptotics(samples, basis)  # raises below full rank
            A = np.array([[t**p * math.log(t) ** k for p, k in basis] for t, _ in samples])
            b = np.array([v for _, v in samples])
            want, _, rank, s = np.linalg.lstsq(A, b, rcond=None)
            assert rank == len(basis)
            assert fit.coefficients == pytest.approx(want.tolist(), rel=1e-11, abs=0.0)
            assert fit.condition == pytest.approx(s[0] / s[-1], rel=1e-12, abs=0.0)
            assert abs(fit.residual - math.sqrt(np.mean((A @ want - b) ** 2))) <= 1e-14
            fits += 1
    assert fits == 48


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


def test_fiber_expansion_of_a_density_nonzero_at_the_corner():
    # u_A = 1 on the unit box: the zeta^0 coefficient u_A(x, 0)/x = 1/x declares
    # x^-1, whose moment the regularized integral skips, so ln z carries its
    # coefficient; int_{1/z}^1 dx/x = ln z.  Order 0, because sigma has no
    # Taylor data in x at 0 for the boundary terms.
    d = blowup_density_from_expression("1", smooth_family((1, 0)), box=(1.0, 1.0))
    expn = asymptotic_expansion(sigma_from_density(d, order=0)).expansion
    assert expn.coefficient(0.0, 1) == pytest.approx(1.0, abs=1e-12)
    assert abs(expn.coefficient(0.0, 0)) <= 1e-12
    for z in (10.0, 1000.0):
        assert expn(z).real == pytest.approx(math.log(z), abs=1e-12)
        assert F_pushforward(d, 1.0 / z) == pytest.approx(math.log(z), abs=1e-9)


def test_blowup_density_adds_only_its_family():
    d = blowup_density_from_expression("x*y", smooth_family((1, 0)), box=(1.0, 2.0))
    assert d.box == (1.0, 2.0)
    params = inspect.signature(type(d)).parameters
    assert set(params) - set(inspect.signature(Density2D).parameters) == {"family"}
    assert params["family"].kind is inspect.Parameter.KEYWORD_ONLY
    assert repr(d).startswith("BlowupDensity(ast=") and ", box=(1.0, 2.0), family={" in repr(d)
    with pytest.raises(TypeError):
        type(d)(d.ast, (1.0, 2.0), d.family)


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


@pytest.mark.parametrize("p_max", [6, 8])
def test_deep_condition_check_matches_quadrature(p_max):
    # sigma = e^(-a x) e^(-b/zeta), so each value is
    # a^p int zeta^p e^(-a zeta t - b/zeta) over [2^-SHELL_LEVELS, 1]
    import mpmath as mp

    from asympush.quadrature import SHELL_LEVELS

    a, b = 0.9, 1.1
    d = blowup_density_from_expression(f"x*exp(-{a}*x)*exp(-{b}*y)", smooth_family((1, 0)))
    rep = condition_C_check(d, p_max, (1.0, 0.5))  # the benchmark's t grid
    assert rep.bounded and rep.agree
    for (p, t), got in rep.values.items():
        want = a**p * mp.quad(lambda z: z**p * mp.exp(-a * z * t - b / z), [2.0**-SHELL_LEVELS, 0.1, 1])
        assert got == pytest.approx(float(want), rel=1e-8), (p, t)


def test_criterion_8_densities_at_depth_8():
    for text, gen, bounded in (("x", (1, 0), True), ("x*y", (0, 0), False)):
        rep = condition_C_check(blowup_density_from_expression(text, smooth_family(gen)), 8)
        assert rep.bounded is bounded and rep.integrability.ok is bounded and rep.agree
        assert len(rep.values) == 27


@pytest.mark.parametrize("amplitude", ["", "0.1*"])
def test_condition_check_log_divergence_whatever_the_amplitude(amplitude):
    # sigma = c exp(-x)/zeta: every dyadic shell of the p = 0 integral carries
    # c ln 2, so the integral diverges for c = 0.1 as it does for c = 1
    d = blowup_density_from_expression(amplitude + "x*y*exp(-x)", smooth_family((0, 0)))
    rep = condition_C_check(d, p_max=0)
    assert not rep.bounded and rep.agree
    assert all(math.isinf(v) for v in rep.values.values())


def test_condition_check_with_a_fractional_power_of_y():
    # sigma = u_A(x, 1/zeta)/x has no Taylor data in y at the x = 0 face; the
    # check reads only d_x^p sigma, so it needs none
    root = condition_C_check(blowup_density_from_expression("x*sqrt(y)", smooth_family((1, 0))), 2)
    assert root.bounded and root.agree
    for t in (1.0, 0.5, 0.1):  # int of zeta^-1/2 over [2^-26, 1]
        assert root.values[(0, t)] == pytest.approx(2.0 - 2.0**-12, rel=1e-9)
        assert root.values[(1, t)] == root.values[(2, t)] == 0.0
    rep = condition_C_check(blowup_density_from_expression("x*y^1.5", smooth_family((0, 0))), 0)
    assert not rep.bounded and rep.agree


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
    assert F_pushforward(d, t) == push_xy(u, t)  # on a finite box, the same fiber integral


@pytest.mark.parametrize("box", [(1.0, math.inf), (math.inf, 1.0)], ids=["Y infinite", "X infinite"])
def test_push_xy_on_a_box_with_an_infinite_side_raises(box):
    # the log-variable limits were log(t / inf), a math domain error, and log(inf),
    # which overflowed exp inside the integrand
    u = density_from_expression("exp(-x-y)", box)
    with pytest.raises(ValueError, match=re.escape(f"push_xy needs a finite support box, got {box}")):
        push_xy(u, 0.1)


@pytest.mark.parametrize("box", [(math.inf, 1.0), (math.inf, math.inf)], ids=["front face off", "front face on"])
def test_F_pushforward_with_an_infinite_x_side_raises(box):
    # with Y finite it reached push_xy's math domain error; with Y infinite the
    # dyadic shells started at x = inf and returned 0.0 without an error, where
    # the integral of (t/x) exp(-x - t/x) over x > 0 is 2 t K_0(2 sqrt t)
    d = blowup_density_from_expression("x*y*exp(-x-y)", smooth_family((1, 0)), box=box)
    with pytest.raises(ValueError, match=re.escape(f"F_pushforward needs a finite x side, got box {box}")):
        F_pushforward(d, 0.5)


def test_push_xy_and_F_pushforward_reject_a_t_of_nan():
    # NaN passed the t <= 0 test, and push_xy took the branch for t above the
    # box: the value 0.0, with a warning
    u = density_from_expression("exp(-x-y)")
    with pytest.raises(ValueError, match="push-forward is defined for t > 0, got nan"):
        push_xy(u, math.nan)
    d = blowup_density_from_expression("x*y*exp(-x-y)", smooth_family((1, 0)), box=(1.0, 1.0))
    with pytest.raises(ValueError, match="t must be positive, got nan"):
        F_pushforward(d, math.nan)


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
