import math

import pytest

from asympush.asymfun import AsymFunction, from_expression, schwartz
from asympush.singular_expansion import (
    HypothesisFailure,
    MissingExpansionData,
    SigmaFunction,
    SigmaTerm,
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


def test_verify_expansion_grid_validation():
    sig = sigma_from_expression("exp(-x)*exp(-zeta)", order=1)
    rep = asymptotic_expansion(sig)
    with pytest.raises(ValueError):
        verify_expansion(rep.expansion, sig, [1.0, 4.0])
    with pytest.raises(ValueError):
        verify_expansion(rep.expansion, sig, [8.0, 4.0])


def test_hypothesis_diagnostics_pass():
    sig = sigma_from_expression("exp(-x)*exp(-zeta)", order=2)
    diag = check_hypotheses(sig)
    assert diag.ok
    assert all(math.isfinite(v) for v in diag.boundary_integrals.values())


def test_remainder_sampler_notes_coefficient_without_second_derivative():
    # a term coefficient without an expression has no K=2 derivative; the
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
    assert failed == [f"remainder sample failed at J={J} K=2" for J in range(3)]
    assert not diags[1].ok
    for (J, K), c in diags[1].remainder_constants.items():
        assert math.isnan(c) == (K == 2), (J, K)


def test_remainder_constant_that_grows_with_zeta_fails():
    # nothing is declared, so the remainder exp(-x)/zeta must be O(zeta^-2):
    # the sampled constant grows like zeta (99.9 at zeta_max 100)
    sig = sigma_from_expression("exp(-x)/zeta", order=1, zeta_vanishes_below=1.0)
    diag = check_hypotheses(sig)
    assert diag.remainder_constants[(0, 0)] == pytest.approx(99.9, abs=0.01)
    assert not diag.ok
    assert "remainder constant J=0 K=0 grows with zeta" in diag.notes
    with pytest.raises(HypothesisFailure):
        asymptotic_expansion(sig, run_diagnostics=True)
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


def test_finite_difference_derivative_stays_inside_the_support():
    # step(5-x) blocks symbolic differentiation; at the edge x=0 of x_support
    # the stencil must not read the zeros that the support puts at x < 0
    sig = sigma_from_expression(
        "exp(-x)*exp(-zeta)*step(5-x)*step(zeta-0.001)", order=2,
        x_support=(0.0, 5.0), zeta_vanishes_below=0.001,
    )
    for x in (0.0, 0.002, 2.0, 5.0):
        want = -math.exp(-x - 1.0)
        assert sig.x_deriv(1)(x, 1.0) == pytest.approx(want, rel=1e-4), x
    # the z^-2 coefficient is the regularized integral of zeta * d_x sigma(0, zeta)
    assert asymptotic_expansion(sig).expansion.coefficient(-2.0, 0).real == pytest.approx(-1.0, abs=1e-4)


def test_finite_difference_derivative_stops_at_the_second():
    # past j = 2 the stencil's error is no longer small: at (2, 1) it read
    # 0.0679 for j = 4 against exp(-3) = 0.0498
    sig = sigma_from_expression(
        "exp(-x)*exp(-zeta)*step(5-x)*step(zeta-0.001)", order=4,
        x_support=(0.0, 5.0), zeta_vanishes_below=0.001,
    )
    assert sig.x_deriv(2)(2.0, 1.0) == pytest.approx(math.exp(-3.0), rel=1e-8)
    with pytest.raises(MissingExpansionData, match="order 3"):
        sig.x_deriv(3)


def test_hypothesis_diagnostics_detect_scaling_divergence():
    # 1/(x + zeta) is bounded by 1/zeta but its scaled integrals blow up
    sig = sigma_from_expression("1/(x+zeta)", order=0)
    diag = check_hypotheses(sig)
    assert not diag.ok
    with pytest.raises(HypothesisFailure):
        asymptotic_expansion(sig, run_diagnostics=True)


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
        separable_expansion("exp(-x)", schwartz("exp(-x)", order_inf=1.5), q=5.0)


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
