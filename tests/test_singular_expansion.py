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
    # sampler must note the failed samples rather than read the derivative as 0
    with_ast = schwartz("exp(-2*x)")
    bare = AsymFunction(fn=with_ast.fn, exp0=with_ast.exp0, exp_inf=with_ast.exp_inf)
    notes = []
    for cf in (with_ast, bare):
        sig = sigma_from_expression(
            "exp(-2*x)*(1+zeta)^(-2.5)", order=2, terms=[SigmaTerm(-2.5 + 0j, (cf,))]
        )
        notes.append(check_hypotheses(sig).notes)
    assert not any("remainder sample failed" in n for n in notes[0])
    assert {f"remainder sample failed at J={J} K=2" for J in range(3)} <= set(notes[1])
    assert not any("K=1" in n or "K=0" in n for n in notes[1])


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
