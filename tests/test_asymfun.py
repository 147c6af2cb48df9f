import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from asympush.asymfun import (
    AsymFunction,
    MissingExpansionData,
    from_expression,
    from_json,
    lim_inf,
    lim_zero,
    mellin,
    mellin_finite_part,
    power_log_multiply,
    primitive,
    pure_power,
    reg_integral,
    rescale,
    scale_reg_integral,
    schwartz,
)
from asympush.expansions import Expansion, Term, make_side
from asympush.logpoly import LogPolynomial
from asympush.quadrature import quad_interval

EULER_GAMMA = 0.5772156649015329


def one_over_one_plus_x(depth: int = 10) -> AsymFunction:
    zero = [(float(m), [(-1.0) ** m]) for m in range(depth)]
    inf = [(-float(m), [(-1.0) ** (m + 1)]) for m in range(1, depth)]
    return from_expression(
        "1/(1+x)", zero_terms=zero, order_zero=float(depth),
        inf_terms=inf, order_inf=depth - 1.0,
    )


def test_side_validation():
    with pytest.raises(ValueError):
        make_side([(5.0, LogPolynomial((1.0,)))], 2.0, "zero")
    with pytest.raises(ValueError):
        make_side([(-5.0, LogPolynomial((1.0,)))], 2.0, "infinity")


def test_side_admits_a_conjugate_pair_and_rejects_a_wrong_order():
    pair = [(complex(-1.5, s), LogPolynomial((0.5,))) for s in (2.0, -2.0)]
    for side, order in (("zero", 1.0), ("infinity", 0.5)):
        expansion = make_side(pair, order, side)
        assert len(expansion.terms) == 2
        x = 3.0
        assert expansion(x) == pytest.approx(x**-1.5 * math.cos(2.0 * math.log(x)), rel=1e-14)
    one = LogPolynomial((1.0,))
    with pytest.raises(ValueError):
        Expansion((Term(1j, one), Term(-0.5, one)), 2.0, "zero")
    with pytest.raises(ValueError):
        Expansion((Term(1j, one), Term(1j, one)), 2.0, "zero")
    with pytest.raises(ValueError):
        Expansion((Term(-2.0, one), Term(-1.0, one)), 4.0, "infinity")


def test_pure_power_reg_is_zero():
    for alpha in (-2.5, -1.3, -1.0, -0.4, 0.7, -1.0 + 2.0j):
        for k in (0, 1, 2):
            assert abs(reg_integral(pure_power(alpha, k))) <= 1e-12


def test_reg_integral_exponential():
    assert reg_integral(schwartz("exp(-x)")) == pytest.approx(1.0, abs=1e-10)


def test_reg_integral_one_over_one_plus_x():
    f = one_over_one_plus_x()
    assert abs(reg_integral(f)) <= 1e-10
    F = primitive(f)
    assert lim_zero(F) == pytest.approx(-math.log(2.0), abs=1e-10)
    assert lim_inf(F) == pytest.approx(-math.log(2.0), abs=1e-10)


def test_primitive_declares_the_infinity_order_of_its_remainder():
    # f = 1/(1+x)^2 = x^-2 - 2 x^-3 + O(x^-4); its primitive from 1 is
    # F = 1/2 - 1/(1+x), and F minus its terms is -1/(x^2 (1+x)) = O(x^-3)
    f = from_expression(
        "1/(1+x)^2", zero_terms=[(0.0, [1.0]), (1.0, [-2.0])], order_zero=3.0,
        inf_terms=[(-2.0, [1.0]), (-3.0, [-2.0])], order_inf=3.0,
    )
    F = primitive(f)
    assert F.exp_inf.order == 2.0
    for x in (10.0, 100.0, 1000.0):
        assert (F(x) - F.exp_inf(x)).real == pytest.approx(-1.0 / (x * x * (1.0 + x)), rel=1e-2)


def test_reg_integral_linearity():
    f = schwartz("exp(-x)")
    g = schwartz("exp(-2*x)")
    s = AsymFunction(
        fn=lambda x: 2.0 * f(x) + g(x),
        exp0=make_side(
            [(t.exponent, t.poly.scale(2.0)) for t in f.exp0.terms]
            + [(t.exponent, t.poly) for t in g.exp0.terms],
            min(f.exp0.order, g.exp0.order),
            "zero",
        ),
        exp_inf=make_side([], 40.0, "infinity"),
    )
    assert reg_integral(s) == pytest.approx(
        2.0 * reg_integral(f) + reg_integral(g), abs=1e-9
    )


def test_euler_constant_from_exponential():
    g = power_log_multiply(schwartz("exp(-x)", n_taylor=12), -1.0)
    assert reg_integral(g) == pytest.approx(-EULER_GAMMA, abs=1e-10)


def test_primitive_matches_quadrature():
    f = schwartz("exp(-x)")
    F = primitive(f)
    for x in (0.5, 2.0, 7.0):
        direct, _ = quad_interval(lambda s: f(s).real, 1.0, x) if x > 1 else quad_interval(lambda s: f(s).real, x, 1.0)
        want = direct if x > 1 else -direct
        assert F(x).real == pytest.approx(want, abs=1e-9)


def test_scale_reg_integral_closed_form():
    f = one_over_one_plus_x()
    for t in (0.1, 0.5, 2.0, 10.0):
        assert scale_reg_integral(f, t) == pytest.approx(math.log(t) / t, abs=1e-8)


def test_rescale_evaluator_and_consistency():
    f = one_over_one_plus_x(depth=8)
    for t in (0.3, 4.0):
        g = rescale(f, t)
        assert g(0.7) == pytest.approx(f(0.7 * t), abs=1e-12)
        assert reg_integral(g) == pytest.approx(scale_reg_integral(f, t), abs=1e-8)


def test_mellin_reflection_formula():
    f = one_over_one_plus_x(depth=12)
    for z in (0.5, 0.3, 1.5):
        want = math.pi / math.sin(math.pi * z)
        got = mellin(f, z).value
        assert got == pytest.approx(want, abs=1e-8)


def test_mellin_gamma_values():
    f = schwartz("exp(-x)", n_taylor=10)
    assert mellin(f, 2.0).value == pytest.approx(1.0, abs=1e-9)  # Gamma(2)
    assert mellin(f, 3.5).value == pytest.approx(math.gamma(3.5), abs=1e-7)


def test_mellin_pole_reported():
    f = schwartz("exp(-x)", n_taylor=10)
    r = mellin(f, 0.0)
    assert r.value is None
    assert any(abs(p.location) < 1e-9 and p.order == 1 for p in r.poles)


def test_mellin_finite_part_matches_reg():
    for f in (schwartz("exp(-x)", n_taylor=10), one_over_one_plus_x(depth=12)):
        assert mellin_finite_part(f, 1.0) == pytest.approx(reg_integral(f), abs=1e-6)


def test_finite_part_at_regular_point_is_value():
    f = power_log_multiply(schwartz("exp(-x)", n_taylor=12), -0.5)
    # no pole at 1: the transform there is just the convergent integral
    assert mellin_finite_part(f, 1.0) == pytest.approx(math.gamma(0.5), abs=1e-7)


def _power_log_exp_json(a: float, b: float, k: int) -> dict:
    """x^a ln^k x e^(-b x) with 8 Taylor terms at 0.

    Its Mellin transform is d^k/ds^k Gamma(s) b^-s at s = a + z.
    """
    return {
        "expr": f"x^({a})*exp(-{b}*x)" + "*log(x)" * k,
        "zero": {
            "order": a + 8.5,
            "terms": [
                {"exponent": [a + m, 0.0], "logCoeffs": [[0.0, 0.0]] * k + [[(-b) ** m / math.factorial(m), 0.0]]}
                for m in range(8)
            ],
        },
        "infinity": {"order": 40.0, "terms": []},
    }


# x^0 ln x e^(-x): its Mellin transform Gamma'(z) has a double pole at 0
LOG_EXP_JSON = _power_log_exp_json(0.0, 1.0, 1)


def test_finite_parts_at_poles_of_order_one_to_three():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        # Gamma(w) = sum g_n w^(n-1) at 0 and Gamma(-1 + w) = sum h_n w^(n-1),
        # so the constant Laurent coefficient of Gamma^(k) is k! times the
        # Taylor coefficient of index k + 1
        g = mp.taylor(mp.gamma, 1, 4)
        h = mp.taylor(lambda w: mp.gamma(1 + w) / (w - 1), 0, 4)
        for k in (0, 1, 2):
            f = from_json(_power_log_exp_json(0.0, 1.0, k))
            assert any(abs(p.location) < 1e-12 and p.order == k + 1 for p in mellin(f, 0.0).poles)
            for z0, taylor in ((0.0, g), (1e-12, g), (-1.0, h)):  # 1e-12: within EXPONENT_TOL
                want = complex(taylor[k + 1] * math.factorial(k))
                assert mellin_finite_part(f, z0) == pytest.approx(want, abs=1e-12)


def test_finite_part_at_simple_pole_and_regular_point_unchanged():
    # Gamma(z) = 1/z - gamma + O(z) at its simple pole 0
    assert mellin_finite_part(schwartz("exp(-x)", n_taylor=10), 0.0) == pytest.approx(-EULER_GAMMA, abs=1e-6)
    # Gamma'(1/2) = Gamma(1/2) psi(1/2), a regular point of the double-pole function
    f = from_json(LOG_EXP_JSON)
    want = math.gamma(0.5) * (-EULER_GAMMA - 2.0 * math.log(2.0))
    assert mellin_finite_part(f, 0.5) == pytest.approx(want, abs=1e-6)


def test_pole_order_is_the_larger_of_the_two_sides():
    # zero side x^0, infinity side x^0 (1 + ln x): both put a pole at 0,
    # simple from the zero side and double from the infinity side
    f = from_expression(
        "1+log(1+x)",
        zero_terms=[(0.0, [1.0]), (1.0, [1.0])], order_zero=2.0,
        inf_terms=[(0.0, [1.0, 1.0])], order_inf=1.0,
    )
    assert [(p.location, p.order) for p in mellin(f, 0.0).poles] == [(0j, 2)]
    # the transform is pi/(z sin(pi z)) = 1/z^2 + pi^2/6 + O(z^2)
    assert mellin_finite_part(f, 0.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-11)


@pytest.mark.parametrize("a, b, k", [(-0.4, 0.7, 0), (0.3, 1.6, 1), (-1.7, 1.1, 1), (0.6, 0.9, 2)])
def test_mellin_deep_in_the_strip_matches_mpmath(a, b, k):
    # far left of the region where the integral converges
    mp = pytest.importorskip("mpmath")
    f = from_json(_power_log_exp_json(a, b, k))
    with mp.workdps(30):
        for s in (-0.5, -1.0, -2.0, -3.0):
            for im in (0.5, 2.0):
                z = complex(s - a, im)
                want = complex(mp.diff(lambda v: mp.gamma(v) * mp.mpf(b) ** (-v), mp.mpc(s, im), k))
                assert mellin(f, z).value == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_power_log_multiply_shifts_data():
    f = schwartz("exp(-x)")
    g = power_log_multiply(f, -0.5, 1)
    assert g(2.0) == pytest.approx(2.0**-0.5 * math.log(2.0) * math.exp(-2.0), abs=1e-12)
    assert any(abs(t.exponent + 0.5) < 1e-9 for t in g.exp0.terms)


def test_nth_deriv_at_zero_symbolic_and_numeric():
    f = schwartz("exp(-3*x)")
    assert f.nth_deriv_at_zero(2) == pytest.approx(9.0, abs=1e-12)
    g = AsymFunction(
        fn=lambda x: math.exp(-3.0 * x),
        exp0=make_side([], 1.0, "zero"),
        exp_inf=make_side([], 1.0, "infinity"),
    )
    assert g.nth_deriv_at_zero(2) == pytest.approx(9.0, rel=1e-4)


def test_nth_deriv_at_zero_without_an_expression_stays_on_the_half_line():
    seen = []

    def fn(x):
        seen.append(x)
        return x**1.5

    # x^1.5 has no real values below 0; its derivative at 0 is 0, its
    # second is unbounded there, and neither may come back complex
    g = AsymFunction(fn=fn, exp0=make_side([], 1.0, "zero"), exp_inf=make_side([], 1.0, "infinity"))
    d1, d2 = g.nth_deriv_at_zero(1), g.nth_deriv_at_zero(2)
    assert type(d1) is float and abs(d1) < 0.05
    assert type(d2) is float and d2 > 0.0
    assert seen and min(seen) >= 0.0
    with pytest.raises(MissingExpansionData, match="order 3"):
        g.nth_deriv_at_zero(3)


def test_support_clips_evaluator():
    f = from_expression("1", zero_terms=[(0.0, [1.0])], order_zero=5.0,
                        order_inf=40.0, support=(0.0, 1.0))
    assert f(0.5) == 1.0
    assert f(2.0) == 0.0
    assert reg_integral(f) == pytest.approx(1.0, abs=1e-10)


def test_from_json_roundtrip():
    d = {
        "expr": "exp(-x)",
        "zero": {
            "order": 3.0,
            "terms": [
                {"exponent": [0.0, 0.0], "logCoeffs": [[1.0, 0.0]]},
                {"exponent": [1.0, 0.0], "logCoeffs": [[-1.0, 0.0]]},
                {"exponent": [2.0, 0.0], "logCoeffs": [[0.5, 0.0]]},
            ],
        },
        "infinity": {"order": 40.0, "terms": []},
    }
    f = from_json(d)
    assert f(1.0) == pytest.approx(math.exp(-1.0))
    assert reg_integral(f) == pytest.approx(1.0, abs=1e-9)


def test_complex_exponent_reg():
    alpha = -1.0 + 3.0j
    f = pure_power(alpha, 1)
    assert abs(reg_integral(f)) <= 1e-12
    assert isinstance(f(2.0), complex)


_term = st.tuples(
    st.floats(0.05, 1.5),  # step of Re(exponent) from the previous term
    st.sampled_from([0.0, 0.0, 0.75, -2.0]),  # Im(exponent)
    st.lists(  # coefficients of ln^0 .. ln^3
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(lambda c: complex(*c)),
        min_size=1, max_size=4,
    ).filter(lambda cs: cs[-1] != 0),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_term, min_size=1, max_size=5), st.floats(1e-6, 1e6))
def test_side_evaluation_is_bit_identical_to_the_term_sum(raw, x):
    re, terms = -4.0, []
    for step, im, coeffs in raw:
        re += step
        terms.append((complex(re, im), LogPolynomial(coeffs)))
    side = make_side(terms, re + 1.0, "zero")
    L = math.log(x)
    want = sum(cmath.exp(t.exponent * L) * t.poly(L) for t in side.terms)
    for got in (side(x), side.at_log(L)):
        assert got.real == want.real and got.imag == want.imag


def test_empty_side_evaluates_to_complex_zero():
    side = make_side([], 1.0, "infinity")
    assert side(2.0) == 0j and isinstance(side(2.0), complex)
    assert side.at_log(0.5) == 0j and isinstance(side.at_log(0.5), complex)
