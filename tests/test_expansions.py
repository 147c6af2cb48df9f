"""Building and evaluating Expansion sides: the one-pass make_side and the shape-chosen evaluator.

make_side takes terms that are already leading-first, apart and nonzero as
they come, and merges and sorts the others; at_log runs a loop chosen once by
the side's shape.  Both must give exactly what the general code gives: the
references below are copies of the merging make_side and of the general
evaluation loops, compared by repr, so that signed zeros count.
"""

import cmath
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from asympush.asymfun import from_expression, power_log_multiply, rescale, schwartz
from asympush.cli import from_json
from asympush.expansions import Expansion, Term, make_side
from asympush.logpoly import EXPONENT_TOL, LogPolynomial
from asympush.singular_expansion import _multiple

LOG_TERM_SPECS = Path(__file__).resolve().parents[1] / "tools" / "log_term_specs"


def _merging_make_side(terms, order, side, log_power=0):
    """make_side by merging and sorting every list, through the checking constructor."""
    merged = []
    for alpha, poly in terms:
        if not isinstance(poly, LogPolynomial):
            poly = LogPolynomial(poly)
        for i, (a, p) in enumerate(merged):
            if abs(a - alpha) <= EXPONENT_TOL:
                merged[i] = (a, p + poly)
                break
        else:
            merged.append((complex(alpha), poly))
    merged = [(a, p) for a, p in merged if not p.is_zero]
    merged.sort(key=lambda t: (t[0].real, t[0].imag), reverse=(side == "infinity"))
    return Expansion(tuple(Term(a, p) for a, p in merged), order, side, log_power)


def _loops_at_log(e: Expansion, L: float) -> complex:
    """at_log by the general loops, whatever the side's shape."""
    if e._runs is None or L * e._sign > 0.0:
        if not e._table:
            return 0.0
        total = 0
        for alpha, exp, coeffs in e._table:
            acc = 0
            for c in coeffs:
                acc = acc * L + c
            total += exp(alpha * L) * acc
        return total
    y = math.exp(L * e._sign)
    total = 0
    for alpha, exp, columns in e._runs:
        acc = None
        for p, rest in columns:
            for c in rest:
                p = p * y + c
            acc = p if acc is None else acc * L + p
        total += exp(alpha * L) * acc
    return total


def _outcome(fn, L: float) -> str:
    """The value's type and repr, or the exception raised, as when math.exp overflows."""
    try:
        value = fn(L)
    except OverflowError as e:
        return f"{type(e).__name__}: {e}"
    return f"{type(value).__name__} {value!r}"


def _same(got: Expansion, want: Expansion) -> None:
    assert got == want
    assert repr(got.terms) == repr(want.terms)
    assert (got.order, got.side, got.log_power, got._sign) == (want.order, want.side, want.log_power, want._sign)
    assert repr(got._table) == repr(want._table) and repr(got._runs) == repr(want._runs)


_coeff = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5j, complex(1.5, -0.0), complex(-0.0, 2.0), 1e-300])
_poly = st.lists(_coeff, min_size=1, max_size=3)  # all zeros: a zero polynomial
_exponent = st.tuples(
    st.integers(-6, 6),
    st.sampled_from([0.0, 0.0, 0.75, -0.75, 0.75 + 4e-10, 0.75 + 3e-9]),
    st.sampled_from([0.0, 0.0, 0.0, 4e-10, -4e-10, 1e-9, 3e-9]),  # collisions within EXPONENT_TOL, and not
).map(lambda t: complex(t[0] / 2 + t[2], t[1]))
_step = st.sampled_from([1e-9, 2e-9, 0.25, 0.5, 1.0, 1.0, 2.0])


@st.composite
def _term_lists(draw):
    """(terms, side): drawn in any order, sorted, or leading-first with steps (some within EXPONENT_TOL)."""
    side = draw(st.sampled_from(["zero", "infinity"]))
    sign = 1.0 if side == "zero" else -1.0
    how = draw(st.sampled_from(["as drawn", "sorted", "swapped", "steps", "steps"]))
    if how == "steps":
        re, terms = draw(st.integers(-4, 2)) / 2, []
        for step, im, poly in draw(st.lists(st.tuples(_step, st.sampled_from([0.0, 0.75]), _poly), max_size=9)):
            terms.append((complex(re, im), poly))
            re += sign * step
        if draw(st.booleans()):  # conjugates next to each other: equal real parts
            terms = [u for a, p in terms for u in ([(a, p)] + ([(a.conjugate(), p)] if a.imag else []))]
    else:
        terms = draw(st.lists(st.tuples(_exponent, _poly), max_size=8))
        if how != "as drawn":  # leading-first: by Re, then by Im, both reversed at infinity
            terms.sort(key=lambda t: (sign * t[0].real, sign * t[0].imag))
        if how == "swapped" and len(terms) > 1:  # one pair out of order
            i = draw(st.integers(0, len(terms) - 2))
            terms[i : i + 2] = terms[i : i + 2][::-1]
    if draw(st.booleans()):
        terms = [(a, LogPolynomial(p)) for a, p in terms]
    return terms, side


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_term_lists(), st.floats(-40.0, 40.0))
def test_make_side_gives_what_merging_gives(drawn, L):
    terms, side = drawn
    order = 12.0  # past every drawn exponent, so no term lies beyond the remainder
    got, want = make_side(terms, order, side, 2), _merging_make_side(terms, order, side, 2)
    _same(got, want)
    assert _outcome(got.at_log, L) == _outcome(lambda L: _loops_at_log(want, L), L)


def test_make_side_takes_ordered_terms_as_they_come():
    # leading-first, apart and nonzero: the terms keep their order and their signed zeros
    terms = [(0.0, [1.0, -0.0, 2.0]), (0.5 + 1j, [complex(-0.0, 1.0)]), (1.5 - 1j, [complex(-0.0, -1.0)])]
    side = make_side(terms, 3.0, "zero")
    assert repr([t.poly.coeffs for t in side.terms]) == repr([tuple(map(complex, cs)) for _, cs in terms])
    # terms of equal Re, such as a conjugate pair, go through the merge, which
    # sorts them by ascending Im at zero, descending at infinity
    pair = make_side([(-1.0 + 2j, [1.0]), (-1.0 - 2j, [1.0]), (-2.0, [0.5])], 2.0, "infinity")
    assert [t.exponent for t in pair.terms] == [-1.0 + 2j, -1.0 - 2j, -2.0]
    for side, sign in (("zero", 1), ("infinity", -1)):
        swapped = make_side([(sign * 1.0 + 2j * sign, [1.0]), (sign * 1.0 - 2j * sign, [2.0])], 3.0, side)
        assert [t.exponent for t in swapped.terms] == [sign * 1.0 - 2j * sign, sign * 1.0 + 2j * sign]
        near = make_side([(sign * 1.0 + 0.75j, [1.0]), (sign * 1.0 + (0.75 + sign * 4e-10) * 1j, [2.0])], 3.0, side)
        assert [(t.exponent, t.poly.coeffs) for t in near.terms] == [(sign * 1.0 + 0.75j, (3.0,))]
    # colliding, unsorted or zero terms go through the merge, exponents EXPONENT_TOL apart too
    at_tol = make_side([(0.0, [1.0]), (EXPONENT_TOL, [2.0])], 3.0, "zero")
    assert [(t.exponent, t.poly.coeffs) for t in at_tol.terms] == [(0.0, (3.0,))]
    merged = make_side([(1.0, [1.0]), (1.0 + 5e-10, [2.0]), (0.0, [0.0]), (-1.0, [-0.5])], 3.0, "zero")
    assert [(t.exponent, t.poly.coeffs) for t in merged.terms] == [(-1.0, (-0.5,)), (1.0, (3.0,))]
    with pytest.raises(ValueError, match="beyond the remainder"):
        make_side([(0.0, [1.0]), (5.0, [1.0])], 3.0, "zero")
    with pytest.raises(ValueError, match="side must be"):
        make_side([(0.0, [1.0])], 3.0, "left")


def _substitution_function():
    spec = json.loads((LOG_TERM_SPECS / "substitution_complex_log_runs.json").read_text())
    return from_json(spec["function"])


_FUNCTIONS = [
    pytest.param(_substitution_function, id="complex log runs"),
    pytest.param(lambda: schwartz("exp(-1.3*x)*cos(x)", 6), id="taylor"),
    pytest.param(lambda: power_log_multiply(schwartz("1/(1+x)^6", 4), 0.4 + 0.2j, 2), id="log runs"),
    pytest.param(
        lambda: from_expression(
            "exp(-x)",
            [(0.5, [complex(-0.0, 1.0), complex(2.0, -0.0)]), (1.5 - 1j, [-1.0, -0.0, complex(-0.0, -3.0)])], 3.0,
            [(-2.0, [complex(-0.0, -0.0), 1.0])], 2.0,
        ),
        id="signed zeros",
    ),
]


@pytest.mark.parametrize("build", _FUNCTIONS)
def test_transformed_sides_are_what_make_side_builds_from_their_terms(build):
    f = build()
    sides = [rescale(f, t).exp0 for t in (0.5, 1.0, 2.5, 8.0)] + [rescale(f, 8.0).exp_inf]
    sides += [power_log_multiply(f, -0.37, 1).exp0, power_log_multiply(f, 1.5 - 0.5j).exp_inf]
    sides += [_multiple(f, 0.5 - 2j, power).exp0 for power in (1, -1)]
    sides += [_multiple(f, 3.0, power).exp_inf for power in (1, -1)]
    for side in sides:
        rebuilt = _merging_make_side([(t.exponent, t.poly) for t in side.terms], side.order, side.side, side.log_power)
        _same(side, rebuilt)


@pytest.mark.parametrize("build", _FUNCTIONS)
@pytest.mark.parametrize("t", [0.5, 1.0, 2.5, 8.0])
def test_rescale_maps_coefficients_as_shift_and_scale_do(build, t):
    f, lt = build(), math.log(t)
    g = rescale(f, t)
    for side, new in ((f.exp0, g.exp0), (f.exp_inf, g.exp_inf)):
        terms = [(a.exponent, a.poly.shift(lt).scale(cmath.exp(a.exponent * lt))) for a in side.terms]
        _same(new, _merging_make_side(terms, side.order, side.side))


_coefficients = st.one_of(
    st.lists(st.integers(-3000, 3000).filter(bool).map(lambda n: n / 1000), min_size=2, max_size=9),
    st.lists(
        st.tuples(st.integers(-3000, 3000), st.integers(-3000, 3000)).filter(any).map(
            lambda c: complex(c[0] / 1000, c[1] / 1000)
        ),
        min_size=2, max_size=9,
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _coefficients,
    st.integers(-12, 40).map(lambda n: n / 8),  # Re a, so that a + n - a is n; e^(aL) may underflow
    st.sampled_from([0.0, 0.0, 0.75, -2.0]),
    st.lists(st.integers(1, 4), min_size=8, max_size=8),  # offsets between terms: gaps of up to 3
    st.sampled_from(["zero", "infinity"]),
    st.floats(-200.0, 200.0),
)
def test_single_run_evaluator_is_the_general_loops_to_the_bit(coeffs, re, im, steps, side, L):
    # one run of one log power, real or complex, with L on both sides of 0:
    # one Horner loop in y, or the terms one by one
    sign = 1.0 if side == "zero" else -1.0
    offsets = [sum(steps[:i]) for i in range(len(coeffs))]
    terms = [(complex(re + sign * n, im), [c]) for n, c in zip(offsets, coeffs)]
    e = make_side(terms, sign * terms[-1][0].real + 1.0, side)
    assert len(e._runs) == 1 and len(e._runs[0][2]) == 1
    assert _outcome(e.at_log, L) == _outcome(lambda L: _loops_at_log(e, L), L)
    x = math.exp(L)
    assert _outcome(lambda x: e(x), x) == _outcome(lambda x: _loops_at_log(e, math.log(x)), x)


@pytest.mark.parametrize("L", [-200.0, -3.0, -1e-300, -0.0, 0.0, 0.7, 200.0])
def test_every_shape_evaluates_as_the_general_loops(L):
    sides = [
        make_side([], 1.0, "zero"),  # no terms
        make_side([(0.5, [1.0, 2.0]), (1.25 + 1j, [3.0])], 4.0, "zero"),  # no runs
        schwartz("exp(-x)", 8).exp0,  # one run, one log power
        _substitution_function().exp0,  # conjugate runs of log terms
        _substitution_function().exp_inf,
        make_side([(-1.0, [1.0]), (-3.0, [2.0, 1.0]), (-3.5, [1.0])], 4.0, "infinity"),  # runs of one term too
        make_side([(4.0, [-1.0]), (5.0, [-2.0])], 6.0, "zero"),  # e^(aL) underflows: 0 + -0.0 is 0.0
        make_side([(-4.0 + 1j, [-1.0]), (-5.0 + 1j, [-2.0j])], 6.0, "infinity"),
    ]
    for e in sides:
        assert _outcome(e.at_log, L) == _outcome(lambda L: _loops_at_log(e, L), L)
