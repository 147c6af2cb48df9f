import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from asympush.asymfun import AsymFunction, from_expression, pure_power, schwartz
from asympush.cli import from_json
from asympush.expansions import make_side
from asympush.pushforward import density_from_expression, sigma_from_density
from asympush.singular_expansion import (
    MissingExpansionData,
    SigmaFunction,
    SigmaTerm,
    _least_squares,
    asymptotic_expansion,
    check_hypotheses,
    corollary_expansion,
    direct_integral,
    separable_expansion,
    sigma_from_expression,
    verify_expansion,
)

EULER_GAMMA = 0.5772156649015329


def make_log_singularity() -> SigmaFunction:
    """sigma = 1/zeta on [0,1] x [1,inf): the integral is ln(z)/z exactly."""
    one = from_expression(
        "1", zero_terms=[(0.0, [1.0])], order_zero=6.0, order_inf=6.0,
        support=(0.0, 1.0),
    )
    return SigmaFunction(
        fn=lambda x, z: (1.0 / z) if z >= 1.0 and 0.0 <= x <= 1.0 else 0.0,
        order=1,
        terms=(SigmaTerm(-1.0 + 0j, (one,)),),
        x_support=(0.0, 1.0),
        zeta_vanishes_below=1.0,
    )


def exp_rate(x: float) -> float:
    return math.exp(-x)


def make_exp_f():
    # exp(-x)/x with its expansion at zero; rapidly decaying at infinity
    zt = [(m - 1.0, [(-1.0) ** m / math.factorial(m)]) for m in range(8)]
    return from_expression(
        "exp(-x)/x", zero_terms=zt, order_zero=7.0, inf_terms=[], order_inf=40.0
    )


def test_log_singularity_expands_exactly():
    sig = make_log_singularity()
    rep = asymptotic_expansion(sig)
    assert rep.expansion.coefficient(-1.0, 1) == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.expansion.coefficient(-1.0, 0)) <= 1e-12
    for z in (5.0, 500.0):
        assert rep.expansion(z).real == pytest.approx(math.log(z) / z, abs=1e-12)


def test_log_singularity_matches_direct_quadrature():
    sig = make_log_singularity()
    for z in (4.0, 40.0):
        assert direct_integral(sig, z) == pytest.approx(math.log(z) / z, abs=1e-10)


def test_geometric_series_coefficients():
    # integral of e^{-x} e^{-x z} dx = 1/(1+z): coefficients alternate
    sig = sigma_from_expression("exp(-x)*exp(-zeta)", order=7)
    rep = asymptotic_expansion(sig)
    for j in range(7):
        assert rep.expansion.coefficient(-j - 1.0, 0).real == pytest.approx(
            (-1.0) ** j, abs=1e-10
        )


def test_verify_expansion_residual_decay():
    sig = sigma_from_expression("exp(-x)*exp(-zeta)", order=3)
    rep = asymptotic_expansion(sig)
    vr = verify_expansion(rep.expansion, sig, [4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    assert vr.decay_exponent == pytest.approx(-4.0, abs=0.3)


def test_expansion_through_an_overflowing_power():
    # the 5th x-derivative holds (1+x+zeta)^-6, whose power passes the float
    # range near y = 1/zeta = 0, where exp(-zeta) has made the term 0
    text = "exp(-x-zeta)/(1+x+zeta)"
    sig = sigma_from_expression(text, order=5)
    rep = asymptotic_expansion(sig)
    assert check_hypotheses(sig).ok
    vr = verify_expansion(rep.expansion, sigma_from_expression(text, order=5), [16.0, 32.0, 64.0, 128.0, 256.0])
    assert vr.decay_exponent <= -5.7


def test_verify_expansion_grid_validation():
    sig = sigma_from_expression("exp(-x)*exp(-zeta)", order=1)
    rep = asymptotic_expansion(sig)
    with pytest.raises(ValueError):
        verify_expansion(rep.expansion, sig, [1.0, 4.0])
    with pytest.raises(ValueError):
        verify_expansion(rep.expansion, sig, [8.0, 4.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_verify_expansion_rejects_a_z_that_is_not_finite(bad):
    # a NaN passed the order check and gave a row of NaN
    sig = sigma_from_expression("exp(-x)*exp(-zeta)", order=1)
    rep = asymptotic_expansion(sig)
    with pytest.raises(ValueError, match=f"z grid entries must be finite, got {bad}"):
        verify_expansion(rep.expansion, sig, [4.0, 8.0, bad])


def test_least_squares_matches_numpy_lstsq_on_random_designs():
    # t^a ln^k t columns on log-uniform grids in [1e-8, 1], as the fits build them;
    # the minimum-norm solution of an SVD moves by about eps * condition
    rng = random.Random(28)
    exponents = [(a, k) for a in (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0) for k in range(3)]
    for _ in range(200):
        n = rng.randint(2, 8)
        ts = [10 ** rng.uniform(-8, 0) for _ in range(rng.randint(2 * n, 30))]
        columns = [[t**a * math.log(t) ** k for t in ts] for a, k in rng.sample(exponents, n)]
        values = [rng.gauss(0.0, 1.0) for _ in ts]
        coef, rank, s, _ = _least_squares(columns, values)
        want, _, want_rank, want_s = np.linalg.lstsq(np.array(columns).T, np.array(values), rcond=None)
        kappa = want_s[0] / want_s[-1]
        assert rank == want_rank
        assert max(abs(c - w) for c, w in zip(coef, want)) <= 1e-12 * kappa * max(abs(want))
        assert abs(s[0] / s[-1] - kappa) <= 1e-12 * kappa**2


def test_log_term_of_a_declared_term_below_minus_one():
    # sigma = x e^-x/(1+zeta)^2 = zeta^-2 x e^-x + O(zeta^-3): the coefficient
    # x e^-x declares x^(-1-alpha) = x^1, so the regularized integral of
    # x^-2 c skips the moment x^-1 and z^-2 ln z carries its coefficient 1
    mp = pytest.importorskip("mpmath")
    c = from_expression(
        "x*exp(-x)",
        zero_terms=[(m + 1.0, [(-1.0) ** m / math.factorial(m)]) for m in range(9)],
        order_zero=10.0,
    )
    sig = sigma_from_expression("x*exp(-x)/(1+zeta)^2", order=2, terms=[SigmaTerm(-2.0 + 0j, (c,))])
    expn = asymptotic_expansion(sig).expansion
    assert expn.coefficient(-2.0, 0) == pytest.approx(-1.0 - EULER_GAMMA, abs=1e-9)
    assert expn.coefficient(-2.0, 1) == pytest.approx(1.0, abs=1e-9)
    for z in (50, 100, 200, 400, 800):
        want = mp.quad(lambda x: x * mp.exp(-x) / (1 + x * z) ** 2, [0, 1.0 / z, 1, mp.inf])
        assert abs(expn(z).real - float(want)) <= 2.5 * z**-3 * math.log(z)


def test_hypothesis_diagnostics_pass():
    sig = sigma_from_expression("exp(-x)*exp(-zeta)", order=2)
    diag = check_hypotheses(sig)
    assert diag.ok
    assert all(math.isfinite(v) for v in diag.boundary_integrals.values())


def test_remainder_sampler_notes_coefficient_without_second_derivative():
    # a term coefficient without an expression has no K=1 or K=2 derivative; the
    # sampler must note the failed samples rather than read the derivative as 0,
    # once per (J, K) pair, and a pair with no sample left has no constant
    with_ast = schwartz("exp(-2*x)")
    bare = AsymFunction(fn=with_ast.fn, exp0=with_ast.exp0, exp_inf=with_ast.exp_inf)
    diags = []
    for cf in (with_ast, bare):
        sig = sigma_from_expression(
            "exp(-2*x)*(1+zeta)^(-2.5)", order=2, terms=[SigmaTerm(-2.5 + 0j, (cf,))]
        )
        diags.append(check_hypotheses(sig))
    assert not any("remainder sample failed" in n for n in diags[0].notes)
    assert diags[0].ok and not any(math.isnan(c) for c in diags[0].remainder_constants.values())
    failed = [n for n in diags[1].notes if "remainder sample failed" in n]
    assert failed == [f"remainder sample failed at J={J} K={K}" for J in range(3) for K in (1, 2)]
    assert not diags[1].ok
    for (J, K), c in diags[1].remainder_constants.items():
        assert math.isnan(c) == (K >= 1), (J, K)


def test_remainder_constant_that_grows_with_zeta_fails():
    # nothing is declared, so the remainder exp(-x)/zeta must be O(zeta^-2):
    # the sampled constant grows like zeta (99.9 at zeta = 100)
    sig = sigma_from_expression("exp(-x)/zeta", order=1, zeta_vanishes_below=1.0)
    diag = check_hypotheses(sig)
    assert diag.remainder_constants[(0, 0)] == pytest.approx(99.9, abs=0.01)
    assert not diag.ok
    assert "remainder constant J=0 K=0 grows with zeta" in diag.notes
    # zero below zeta = 8, then decaying: the octaves before the support are
    # skipped, so the first nonzero peak is not read as growth
    late = sigma_from_expression("exp(-x)*exp(-zeta)", order=2, zeta_vanishes_below=8.0)
    assert check_hypotheses(late).ok


def test_remainder_sampler_keeps_the_imaginary_part_of_exponents():
    # zeta^-1.5 cos(2 ln zeta) is the sum of the conjugate terms zeta^(-1.5 +- 2i)/2,
    # so sigma equals its declared terms and every sampled remainder is 0
    cf = schwartz("0.5*exp(-x)")
    sig = sigma_from_expression(
        "exp(-x)*zeta^(-1.5)*cos(2*log(zeta))", order=1,
        terms=[SigmaTerm(complex(-1.5, s), (cf,)) for s in (2.0, -2.0)],
        zeta_vanishes_below=1.0,
    )
    diag = check_hypotheses(sig)
    assert diag.ok and diag.remainder_constants
    assert all(abs(c) < 1e-9 for c in diag.remainder_constants.values())


def test_step_in_x_has_no_x_derivative():
    # step(5-x) blocks symbolic differentiation, and derivatives read from
    # samples would miss the default tol without saying so
    def sig(order):
        return sigma_from_expression(
            "exp(-x)*exp(-zeta)*step(5-x)*step(zeta-0.001)", order=order,
            x_support=(0.0, 5.0), zeta_vanishes_below=0.001,
        )

    assert sig(1).x_deriv(0)(2.0, 1.0) == pytest.approx(math.exp(-3.0), rel=1e-15)
    with pytest.raises(MissingExpansionData, match="x-derivative of order 1: cannot differentiate step"):
        sig(1).x_deriv(1)
    # order 1 needs no derivative for its z^-1 term, but its remainder sampler does
    assert asymptotic_expansion(sig(1)).expansion.coefficient(-1.0, 0).real == pytest.approx(math.exp(-0.001), abs=1e-9)
    for run in (lambda: check_hypotheses(sig(1)), lambda: asymptotic_expansion(sig(2))):
        with pytest.raises(MissingExpansionData, match="x-derivative of order 1"):
            run()


def test_sigma_without_an_expression_has_no_x_derivative():
    sig = SigmaFunction(fn=lambda x, z: math.exp(-x - z), order=2, zeta_vanishes_below=0.001)
    assert sig.x_deriv(0)(1.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    for j in (1, 2):
        with pytest.raises(MissingExpansionData, match=f"x-derivative of order {j}: sigma has no expression"):
            sig.x_deriv(j)


def test_x_derivatives_take_one_diff_call_per_order(monkeypatch):
    import mpmath as mp

    from asympush import expressions as ex

    text = "exp(-x)*exp(-zeta)/(1+x*zeta)"
    calls = []
    diff = ex.diff
    monkeypatch.setattr(ex, "diff", lambda node, var, n=1: calls.append((var, n)) or diff(node, var, n))
    sig = sigma_from_expression(text, order=4)
    got = [sig.x_deriv(j)(0.3, 1.7) for j in range(1, 5)]
    assert calls == [("x", j) for j in range(1, 5)]  # one diff per order asked for
    assert sig.x_deriv(3)(0.3, 1.7) == got[2] and len(calls) == 4  # each order is kept
    node = ex.parse(text)
    with mp.workdps(30):
        for j in range(1, 5):
            want = diff(node, "x", j)
            assert sig._x_deriv_ast(j) == want
            assert got[j - 1] == ex.evaluate(want, {"x": 0.3, "zeta": 1.7})
            oracle = mp.diff(lambda x: mp.exp(-x) * mp.exp(-mp.mpf("1.7")) / (1 + x * mp.mpf("1.7")), mp.mpf("0.3"), j)
            assert got[j - 1] == pytest.approx(float(oracle), rel=1e-12)
    # step(x) blocks differentiation at every order from the first
    blocked = sigma_from_expression("exp(-zeta)*step(x-0.5)", order=2)
    assert blocked._x_deriv_ast(0) is blocked.ast
    with pytest.raises(MissingExpansionData, match="x-derivative of order 2"):
        blocked._x_deriv_ast(2)


def test_hypothesis_diagnostics_detect_scaling_divergence():
    # 1/(x + zeta) is bounded by 1/zeta but its scaled integrals blow up
    sig = sigma_from_expression("1/(x+zeta)", order=0)
    diag = check_hypotheses(sig)
    assert not diag.ok


@pytest.mark.parametrize("x_support", [(5.0, 0.0), (1.0, 1.0), (-1.0, 1.0)])
def test_x_support_outside_0_le_a_lt_b_is_rejected(x_support):
    # (5, 0) clipped every x: the expansion predicted 3.5e-12 at z = 4, where the integral is 0.2
    with pytest.raises(ValueError, match=r"x_support must satisfy 0 <= a < b"):
        sigma_from_expression("exp(-x)*exp(-zeta)", order=2, x_support=x_support)


def test_missing_small_argument_data_raises():
    sig = SigmaFunction(fn=lambda x, z: math.exp(-x) / z, order=1, terms=())
    with pytest.raises(MissingExpansionData):
        asymptotic_expansion(sig)


def test_separable_expansion_exponential():
    # regularized integral of e^{-tx} e^{-x}/x equals -gamma - ln(1+t)
    f = make_exp_f()
    expn = separable_expansion("exp(-x)", f, q=2.5)
    assert expn.coefficient(0.0, 0).real == pytest.approx(-EULER_GAMMA, abs=1e-9)
    assert expn.coefficient(1.0, 0).real == pytest.approx(-1.0, abs=1e-9)
    assert expn.coefficient(2.0, 0).real == pytest.approx(0.5, abs=1e-9)
    for t in (0.05, 0.01):
        want = -EULER_GAMMA - math.log1p(t)
        assert expn(t).real == pytest.approx(want, abs=2.0 * t**2.5)


def test_separable_order_exceeding_declared_data():
    with pytest.raises(MissingExpansionData):
        separable_expansion("exp(-x)", from_expression("exp(-x)", order_inf=1.5), q=5.0)


def test_corollary_expansion_exponential():
    # integral of e^{-x} e^{-x/t}/(x/t) = t(-gamma - ln(1+t) + ln t)
    f = make_exp_f()
    expn = corollary_expansion("exp(-x)", f, q=1.5)
    assert expn.coefficient(1.0, 0).real == pytest.approx(-EULER_GAMMA, abs=1e-9)
    assert expn.coefficient(1.0, 1).real == pytest.approx(1.0, abs=1e-9)
    assert expn.coefficient(2.0, 0).real == pytest.approx(-1.0, abs=1e-9)
    for t in (0.05, 0.02):
        want = t * (-EULER_GAMMA - math.log1p(t) + math.log(t))
        assert expn(t).real == pytest.approx(want, abs=2.0 * t**2.5)


# regularized integrals of e^{-x} x^beta ln^k x: finite parts at s = beta + 1
# of d^k/ds^k Gamma(s), from Gamma(s) = 1/s - gamma + G2 s + O(s^2)
G2 = EULER_GAMMA**2 / 2 + math.pi**2 / 12
PURE_POWERS = [  # (beta, k, q, reg int e^{-tx} x^beta ln^k x dx as t^(-beta-1) times a polynomial in ln t)
    (-1, 0, 1.0, [-EULER_GAMMA, -1.0]),
    (-1, 1, 1.0, [G2, EULER_GAMMA, 0.5]),
    (-2, 0, 1.0, [EULER_GAMMA - 1.0, 1.0]),
    (-2, 1, 1.0, [EULER_GAMMA - 1.0 - G2, 1.0 - EULER_GAMMA, -0.5]),
    (-3, 0, 2.0, [(1.5 - EULER_GAMMA) / 2, -0.5]),
]


def assert_only_terms_at(expn, exponent):
    # the Taylor moments of a pure power vanish, up to quadrature noise
    for term in expn.terms:
        if term.exponent != exponent:
            assert all(abs(c) <= 1e-9 for c in term.poly.coeffs), term


@pytest.mark.parametrize("beta, k, q, want", PURE_POWERS)
def test_separable_log_terms_of_integer_infinity_exponents(beta, k, q, want):
    # f = x^beta ln^k x declares its one term at infinity, so every coefficient
    # of t^(-beta-1) ln^m t with m > k is the log term of phi's Taylor
    # coefficient at x^(-1-beta)
    expn = separable_expansion("exp(-x)", pure_power(beta, k), q)
    assert_only_terms_at(expn, -beta - 1.0)
    for m, w in enumerate(want):
        assert expn.coefficient(-beta - 1.0, m) == pytest.approx(w, abs=1e-9)


@pytest.mark.parametrize("beta, k, q, want", PURE_POWERS)
def test_corollary_log_terms_cancel_for_a_pure_power(beta, k, q, want):
    # (x/t)^beta ln^k(x/t) = t^-beta x^beta (ln x - ln t)^k: the log terms of f
    # at zero cancel those of the separable expansion, leaving t^-beta times
    # sum_j C(k, j) (-ln t)^(k-j) reg int e^{-x} x^beta ln^j x
    moments = [w[0] for b, j, _, w in PURE_POWERS if b == beta and j <= k]
    expn = corollary_expansion("exp(-x)", pure_power(beta, k), q)
    assert_only_terms_at(expn, -float(beta))
    for m in range(k + 2):
        w = sum(math.comb(k, j) * (-1) ** m * moments[j] for j in range(k + 1) if k - j == m)
        assert expn.coefficient(-float(beta), m) == pytest.approx(w, abs=1e-9)


def test_declared_term_below_cutoff_is_noted():
    one = from_expression(
        "1", zero_terms=[(0.0, [1.0])], order_zero=6.0, order_inf=6.0,
        support=(0.0, 1.0),
    )
    sig = SigmaFunction(
        fn=lambda x, z: (1.0 / z**3) if z >= 1.0 and x <= 1.0 else 0.0,
        order=1,
        terms=(SigmaTerm(-3.0 + 0j, (one,)),),
        x_support=(0.0, 1.0),
        zeta_vanishes_below=1.0,
    )
    rep = asymptotic_expansion(sig)
    assert any("below cutoff" in n for n in rep.notes)


def test_boundary_integrals_read_the_declared_x_side_terms():
    # sigma = u(x, 1/zeta)/x declares its x-side terms x^-1 u(0, y) and x^0 d_x u(0, y);
    # the probe of d_x^j sigma(0, zeta) divided by x = 0
    mp = pytest.importorskip("mpmath")
    sigma = sigma_from_density(density_from_expression("exp(-x-y)", (1.0, 2.0)), 1)
    diag = check_hypotheses(sigma)
    assert diag.ok
    for j, want in enumerate([mp.quad(lambda y: mp.exp(-y) / y ** (1 + j), [1, 2]) for j in (0, 1)]):
        assert diag.boundary_integrals[j] == pytest.approx(float(want), rel=1e-7)


def test_boundary_integrals_are_the_same_for_smooth_and_declared_x_sides():
    # the x-side moment integrand is zeta^j |q_j(1/zeta)|, q_j = d_x^j sigma(0, .)/j!,
    # whether q_j comes from sigma's Taylor data or from its declared x-side terms
    smooth = sigma_from_expression("(1+0.3*x+0.2*x^2)*exp(-0.7*x)*exp(-1.1*zeta)", order=3)
    declared = SigmaFunction(
        smooth.fn, smooth.order, ast=smooth.ast, x_terms=tuple(map(smooth.boundary_function, range(3)))
    )
    got, want = check_hypotheses(smooth).boundary_integrals, check_hypotheses(declared).boundary_integrals
    assert sorted(got) == sorted(want) == [0, 1, 2]
    for j in got:
        assert got[j] == pytest.approx(want[j], rel=1e-12)
    assert got[2] == pytest.approx(0.03516, abs=1e-5)


def test_a_diverging_boundary_integral_fails_the_diagnostics():
    # sigma(0, zeta) = exp(-zeta)/zeta: int_0^1 |q_0(1/zeta)| dzeta diverges at zeta = 0
    diag = check_hypotheses(sigma_from_expression("exp(-x)*exp(-zeta)/zeta", order=1))
    assert not diag.ok
    assert diag.boundary_integrals[0] == math.inf
    assert "boundary integral j=0 diverges" in diag.notes


def test_theta_scan_of_a_bounded_integrand_is_constant():
    # int_0^1 e^(-theta s) e^-s ds tends to 1 - 1/e as theta -> 0
    diag = check_hypotheses(sigma_from_expression("exp(-x)*exp(-zeta)", order=0))
    assert (diag.growth_model, diag.growth_exponent, diag.ok) == ("constant", None, True)


def test_corner_with_log_powers_on_both_sides():
    # sigma = ln x e^-x ln(1+zeta)/(1+zeta) has the corner monomial x^0 ln x zeta^-1 ln zeta;
    # on the fiber its integral over ln x from -ln z to 0 is -ln^3 z / 6
    mp = pytest.importorskip("mpmath")
    harmonic = [sum(1.0 / k for k in range(1, n + 1)) for n in range(10)]
    zero = from_expression("0", order_zero=6.0, order_inf=40.0)
    c = from_expression("log(x)*exp(-x)", zero_terms=[(k, [0, (-1.0) ** k / math.factorial(k)]) for k in range(8)], order_zero=8.0)
    q = AsymFunction(  # ln(1+zeta)/(1+zeta) at zeta = 1/y
        fn=lambda y: y * math.log1p(1.0 / y) / (1.0 + y),
        exp0=make_side([(n, [(-1.0) ** n * harmonic[n - 1], (-1.0) ** n]) for n in range(1, 9)], 9.0, "zero"),
        exp_inf=make_side([(-n, [(-1.0) ** (n - 1) * harmonic[n]]) for n in range(1, 9)], 8.0, "infinity"),
    )
    sigma = SigmaFunction(
        fn=lambda x, zeta: math.log(x) * math.exp(-x) * math.log1p(zeta) / (1 + zeta), order=1, log_bound=1,
        terms=(SigmaTerm(-1 + 0j, (zero, c)),), x_terms=(SigmaTerm(0j, (zero, q)),),
    )
    rep = asymptotic_expansion(sigma)
    assert rep.notes == ()
    assert rep.expansion.coefficient(-1.0, 3) == pytest.approx(-1.0 / 6.0, abs=1e-12)
    for z in (50, 200, 800):
        want = mp.quad(lambda x: mp.log(x) * mp.exp(-x) * mp.log(1 + x * z) / (1 + x * z), [0, 1.0 / z, 1, mp.inf])
        assert abs(rep.expansion(z).real - float(want)) <= z**-2 * math.log(z) ** 3


def exp_over_x(b):
    return from_expression(
        f"exp(-{b}*x)/x", [(m - 1.0, [(-b) ** m / math.factorial(m)]) for m in range(8)], 7.0, order_inf=40.0
    )


def test_separable_and_corollary_expansions_against_mpmath():
    # reg int e^(-c t x) f(x) dx and reg int e^(-c x) f(x/t) dx by mpmath.quad, with the
    # x^-1 part of the integrand taken out on (0, 1], where its finite part is 0
    mp = pytest.importorskip("mpmath")
    rng = random.Random(17)
    b = rng.uniform(0.5, 2.0)
    cases = [  # f, f in mpmath, its x^-1 part, q
        (exp_over_x(b), lambda x: mp.exp(-b * x) / x, lambda x: 1 / x, 1.5),
        (
            from_expression("log(x)*exp(-x)/x", [(m - 1.0, [0, (-1.0) ** m / math.factorial(m)]) for m in range(8)], 7.0, order_inf=40.0),
            lambda x: mp.log(x) * mp.exp(-x) / x, lambda x: mp.log(x) / x, 1.5,
        ),
        (
            from_expression("1/(1+x)^2", [(m, [(-1.0) ** m * (m + 1)]) for m in range(8)], 8.0, [(-2.0, [1.0]), (-3.0, [-2.0])], 3.0),
            lambda x: 1 / (1 + x) ** 2, lambda x: 0, 1.5,
        ),
    ]

    def reg(g, singular, t):
        return mp.quad(lambda x: g(x) - singular(x), [0, t, 1]) + mp.quad(g, [1, mp.inf])

    with mp.workdps(30):
        for f, fm, singular, q in cases:
            c = rng.uniform(0.5, 2.0)
            sep = separable_expansion(f"exp(-{c}*x)", f, q)
            cor = corollary_expansion(f"exp(-{c}*x)", f, q)
            for expn, order, integrand, part in [
                (sep, q, lambda x, t: mp.exp(-c * t * x) * fm(x), lambda x, t: singular(x)),
                (cor, q + 1, lambda x, t: mp.exp(-c * x) * fm(x / t), lambda x, t: singular(x / t)),
            ]:
                ts = (0.02, 0.005)
                res = [abs(expn(t).real - float(reg(lambda x: integrand(x, t), lambda x: part(x, t), t))) for t in ts]
                assert all(r <= t**order for r, t in zip(res, ts)), (f, order, res)
                assert math.log(res[0] / res[1]) / math.log(ts[0] / ts[1]) >= order, (f, order, res)


def test_corollary_coefficient_of_the_negative_result():
    # int e^-0.7x e^(-1.3x/t) t/x dx = t (-gamma - ln(0.7 + 1.3/t)) = t (-gamma - ln 1.3 + ln t) + O(t^2)
    expn = corollary_expansion("exp(-0.7*x)", exp_over_x(1.3), 1.5)
    assert expn.coefficient(1.0, 0).real == pytest.approx(-EULER_GAMMA - math.log(1.3), abs=1e-12)
    assert expn.coefficient(1.0, 1).real == pytest.approx(1.0, abs=1e-12)


LOG_TERM_SPECS = Path(__file__).resolve().parents[1] / "tools" / "log_term_specs"
SEPARABLE_SPEC_TERMS = {  # (exponent of t, coefficients of ln^m t), as the separable engine gave them before it ran on the SAL engine
    "corollary_log_at_zero": [(1.0, [0.9890559953279627, 0.0, -0.5]), (2.0, [0.6926587978818397])],
    "corollary_log_power_minus_two": [(1.0, [1.0]), (2.0, [0.5662716602296198, 1.5772156649015416, 0.5])],
    "separable_log_power_minus_two": [(0.0, [1.0]), (1.0, [0.5662716602296198, 1.5772156649015416, 0.5])],
    "separable_log_power_minus_two_flat_phi": [(0.0, [1.0]), (1.0, [-0.42278433509844027, 1.0000000000000067])],
    "separable_power_minus_one": [(0.0, [-0.35407211358732316, -1.0])],
}


@pytest.mark.parametrize("name", sorted(SEPARABLE_SPEC_TERMS))
def test_separable_log_term_specs_keep_their_coefficients(name):
    spec = json.loads((LOG_TERM_SPECS / f"{name}.json").read_text())
    run = {"scale": separable_expansion, "inverse": corollary_expansion}[spec["mode"]]
    expn = run(spec["phi"], from_json(spec["f"]), spec["q"])
    got = [(t.exponent, t.poly.coeffs) for t in expn.terms]
    want = SEPARABLE_SPEC_TERMS[name]
    assert [(a, len(cs)) for a, cs in got] == [(a, len(cs)) for a, cs in want]
    for (_, cs), (_, ws) in zip(got, want):
        assert cs == pytest.approx(ws, rel=1e-12, abs=1e-15)
