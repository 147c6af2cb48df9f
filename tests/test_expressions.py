import gc
import importlib
import math
import sys
import time
import weakref

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from asympush import expressions as ex
from asympush.asymfun import from_expression
from asympush.pushforward import density_from_expression
from asympush.singular_expansion import sigma_from_expression


def test_parse_precedence_and_unparse():
    node = ex.parse("1+2*x^2-3/x")
    assert ex.unparse(node) == "1.0+2.0*x^2.0-3.0/x"
    assert ex.evaluate(node, {"x": 2.0}) == 1.0 + 8.0 - 1.5


def test_power_binds_tighter_than_unary_minus():
    assert ex.evaluate(ex.parse("-x^2"), {"x": 3.0}) == -9.0


def test_power_right_associative():
    assert ex.evaluate(ex.parse("x^(2^2)"), {"x": 2.0}) == 16.0


def test_nonconstant_exponent_rejected():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("x^y")
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("2^(x+1)")


def test_syntax_error_carries_offset():
    with pytest.raises(ex.ExprSyntaxError) as exc:
        ex.parse("x + * 2")
    assert exc.value.offset == 4


def test_unknown_function_rejected():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("tan(x)")


def test_free_vars_and_substitute():
    node = ex.parse("x*exp(-y)+z")
    assert ex.free_vars(node) == frozenset({"x", "y", "z"})
    swapped = ex.substitute(node, "z", ex.Num(0.0))
    assert ex.free_vars(swapped) == frozenset({"x", "y"})
    assert ex.evaluate(swapped, {"x": 2.0, "y": 0.0}) == 2.0


def test_vanishes_is_structural():
    zero = ["0", "0*x^1.5", "x*0", "0^12", "-(0*y)", "0*x+0*y^2", "0/x", "(0*x)^2", "0*exp(-x)*exp(-y)-0"]
    assert all(ex.vanishes(ex.parse(t)) for t in zero)
    # x-x and sin(0) are 0, but not by structure; 0^0 and 0^-1 are not 0
    nonzero = ["x", "1", "x-x", "sin(0)", "0^0", "0^(-1)", "0+x", "x^12"]
    assert not any(ex.vanishes(ex.parse(t)) for t in nonzero)
    long = ex.parse("+".join(["0*x"] * 5000))
    assert ex.vanishes(long) and not ex.vanishes(ex.BinOp("+", long, ex.Var("y")))


def test_evaluate_domain_errors():
    for text, point in [("log(x)", {"x": 0.0}), ("sqrt(x)", {"x": -1.0}), ("1/x", {"x": 0.0}), ("x^(-1)", {"x": 0.0})]:
        with pytest.raises(ex.EvalError):
            ex.evaluate(ex.parse(text), point)


def test_power_past_the_float_range_is_infinite():
    # as a product there is: the sign is negative only for a negative base and an odd power
    cases = [
        ("x^400", 10.0, math.inf),
        ("x^401", -10.0, -math.inf),
        ("x^400", -10.0, math.inf),
        ("x^(-3)", -1e-200, -math.inf),
        ("x^(-2)", -1e-200, math.inf),
        ("x^(-2.5)", 1e-200, math.inf),
    ]
    for text, x, want in cases:
        node = ex.parse(text)
        assert ex.evaluate(node, {"x": x}) == want, text
        assert ex.compile_expr(node, ("x",))(x) == want, text
        assert ex.taylor(node, "x", x, 0) == [want], text
    assert ex.evaluate(ex.parse("x*x*x"), {"x": -1e200}) == -math.inf  # the product it follows
    # a quotient by an overflowed power is 0, not an OverflowError
    assert ex.evaluate(ex.parse("exp(-x)/(1+x)^6"), {"x": 1e60}) == 0.0


def test_exp_past_the_float_range_is_infinite():
    cases = [
        ("exp(x)", 1000.0, math.inf),
        ("1/(1+exp(x))", 1000.0, 0.0),
        ("exp(x)", 709.782712893384, 1.7976931348622732e308),  # the largest finite value
        ("exp(x)", -1000.0, 0.0),
    ]
    for text, x, want in cases:
        node = ex.parse(text)
        assert ex.evaluate(node, {"x": x}) == want, text
        assert ex.compile_expr(node, ("x",))(x) == want, text
        assert ex.taylor(node, "x", x, 0) == [want], text
    node = ex.parse("exp(x)")
    assert math.isnan(ex.evaluate(node, {"x": math.nan}))
    assert math.isnan(ex.compile_expr(node, ("x",))(math.nan))


@pytest.mark.parametrize("text, func", [("sin(exp(x))", "sin"), ("cos(exp(x))", "cos"), ("sin(-exp(x))", "sin"),
                                        ("cos(x*exp(x))", "cos")])
def test_sin_and_cos_of_an_overflow_raise_eval_error(text, func):
    # sin(inf) has no value: a typed EvalError in every path, not math's ValueError
    node = ex.parse(text)
    calls = (
        lambda: ex.evaluate(node, {"x": 1000.0}),
        lambda: ex.compile_expr(node, ("x",))(1000.0),
        lambda: ex.taylor(node, "x", 1000.0, 0),
        lambda: ex.taylor(node, "x", 1000.0, 2),
    )
    for call in calls:
        with pytest.raises(ex.EvalError, match=f"^{func} of -?inf, an overflow"):
            call()
    # below the overflow, and at a NaN, the three paths still agree with math
    for x in (700.0, math.nan):
        want = ex.evaluate(node, {"x": x})
        got = ex.compile_expr(node, ("x",))(x)
        assert got == want or math.isnan(got) and math.isnan(want)


def test_taylor_past_the_float_range_has_no_nan():
    # e^1000/k! and e^1000 (1000/k! + 1/(k-1)!) are all +inf; 0 * inf would be NaN
    for text in ("exp(x)", "x*exp(x)"):
        assert ex.taylor(ex.parse(text), "x", 1000.0, 3) == [math.inf] * 4, text
    # e^-1000 underflows in every coefficient
    assert ex.taylor(ex.parse("1/(1+exp(x))"), "x", 1000.0, 3) == [0.0] * 4
    # (1e200)^3 overflows, but its coefficient 3e200 of (x - 1e200)^2 does not
    node = ex.parse("x^3")
    assert ex.taylor(node, "x", 1e200, 0) == [math.inf]
    with pytest.raises(ex.EvalError, match="overflows"):
        ex.taylor(node, "x", 1e200, 3)
    # log(e^1000) is 1000 with slope 1, but its argument read inf: inf/inf
    with pytest.raises(ex.EvalError, match="overflow"):
        ex.taylor(ex.parse("log(exp(x))"), "x", 1000.0, 1)


def test_step_is_right_continuous():
    node = ex.parse("step(x)")
    assert ex.evaluate(node, {"x": 0.0}) == 1.0
    assert ex.evaluate(node, {"x": -1e-12}) == 0.0


def test_step_diff_rejected_only_when_active():
    assert ex.evaluate(ex.diff(ex.parse("step(1-y)*x"), "x"), {"y": 0.5}) == 1.0
    with pytest.raises(ex.DiffError):
        ex.diff(ex.parse("step(1-x)"), "x")


def test_diff_matches_finite_differences():
    corpus = ["exp(-x^2)", "x*log(x)", "sin(x)*cos(x)/(1+x)", "sqrt(1+x^2)", "x^(-1.5)+x"]
    for text in corpus:
        node = ex.parse(text)
        d = ex.diff(node, "x")
        for i in range(10):
            x = 0.3 + 0.17 * i
            sym = ex.evaluate(d, {"x": x})
            num = ex.central_fd(node, "x", {"x": x})
            assert abs(sym - num) <= 1e-6 * max(1.0, abs(sym)), text


def _assert_taylor_matches_diff(node, point, n=4):
    jet = ex.taylor(node, "x", point["x"], n, point)
    for k in range(n + 1):
        ref = ex.evaluate(node, point)
        err = abs(jet[k] * math.factorial(k) - ref)
        assert err <= 1e-12 * max(1.0, abs(ref)), (k, ex.unparse(node))
        node = ex.diff(node, "x")


def test_taylor_cases_outside_the_strategy():
    cases = [
        ("sin(x)/(1+x^2)", 0.3),
        ("(1+x)^(-2.5)*log(2+x)", 0.7),
        ("x^2", 0.0),  # integer power of a series that vanishes at the point
        ("(x-1)^3/sqrt(1+x)", 1.0),
        ("x^2.5+x^(-1)", 1.5),
    ]
    for text, x in cases:
        _assert_taylor_matches_diff(ex.parse(text), {"x": x})
    for text, x in [("log(x)", 0.0), ("sqrt(x)", 0.0), ("x^1.5", -1.0), ("(x-2)^0.5", 2.0)]:
        with pytest.raises(ex.EvalError):
            ex.taylor(ex.parse(text), "x", x, 4)
    with pytest.raises(ex.DiffError):
        ex.taylor(ex.parse("x*step(1-x)"), "x", 0.5, 1)
    assert ex.taylor(ex.parse("x*step(1-y)"), "x", 0.5, 2, {"y": 0.0}) == [0.5, 1.0, 0.0]


def _grammar_text(rng, depth: int) -> str:
    """A random text of the grammar in x and y: every operator and function but step."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["x", "y", "x", "y", repr(round(rng.uniform(0.25, 3.0), 3))])
    kind, a = rng.randrange(7), _grammar_text(rng, depth - 1)
    if kind < 3:
        return f"({a}){rng.choice('+-*/')}({_grammar_text(rng, depth - 1)})"
    if kind == 3:
        return f"-({a})"
    if kind == 4:
        return f"({a})^{rng.choice(['2', '3', '0.5', '(-1)', '(-1.5)'])}"
    return f"{rng.choice(['exp', 'log', 'sin', 'cos', 'sqrt'])}({a})"


def _first_derivatives_digest(monkeypatch, count: int = 3000) -> str:
    """sha256 of the text and the compiled source of diff(node, v), v = x, y, for count seeded grammar texts."""
    import hashlib
    import random

    rng, h = random.Random(2026), hashlib.sha256()
    stub = compile("def compiled(*a): pass", "<stub>", "exec")
    sources = []
    monkeypatch.setattr(ex, "_code", lambda src: sources.append(src) or stub)
    for _ in range(count):
        node = ex.parse(_grammar_text(rng, 5))
        for var in "xy":
            d = ex.diff(node, var)
            ex.compile_expr(d, ("x", "y"))
            h.update(f"{ex.unparse(d)}\n{sources.pop()}\n".encode())
    monkeypatch.undo()
    return h.hexdigest()


FIRST_DERIVATIVES_DIGEST = "093de709b13e05dfd218ade9c6060aaa5dbfec0383970aca246c790fb5aef441"


def test_first_derivatives_are_unchanged(monkeypatch):
    # diff(node, v) node for node, sharing included, as diff built it before
    # it took an order n: the digest was recorded from that version
    assert _first_derivatives_digest(monkeypatch) == FIRST_DERIVATIVES_DIGEST


def test_iterated_diff_stays_small():
    node = ex.parse("exp(-x-y)")
    for _ in range(12):
        node = ex.diff(node, "x")
    assert ex.evaluate(node, {"x": 0.0, "y": 0.0}) == 1.0


@pytest.mark.parametrize(
    "text, bound, mp_fn",
    [
        ("1/(1+x+y)", 300, lambda x, y: 1 / (1 + x + y)),
        ("sqrt(1+x+y)", 800, lambda x, y: mp.sqrt(1 + x + y)),
        ("exp(-x^2-y)*cos(x*y)", 300, lambda x, y: mp.exp(-x * x - y) * mp.cos(x * y)),
    ],
)
def test_deep_derivatives_stay_small(text, bound, mp_fn):
    # each order shares the subtrees of the orders below, and no quotient
    # squares its denominator past the first order, so the tree grows with the
    # order; iterated first derivatives had 9528 nodes at order 10 for 1/(1+x+y)
    node = ex.parse(text)
    d = ex.diff(node, "y", 14)
    size = _distinct_nodes(d)  # not in the assert, whose message would print d
    assert size <= bound
    x, y = mp.mpf("0.3"), mp.mpf("0.2")
    with mp.workdps(40):
        want = mp.diff(lambda v: mp_fn(x, v), y, 14)
    assert ex.compile_expr(d, ("x", "y"))(0.3, 0.2) == pytest.approx(float(want), rel=1e-12)
    assert ex.diff(node, "y", 0) is node
    assert ex.unparse(ex.diff(node, "y", 1)) == ex.unparse(ex.diff(node, "y"))
    # equal subtrees are merged into one node, and numbers by their bits, so
    # that 0.0 and -0.0, equal as floats, stay apart
    square = ex._merge(ex.parse("(x+1)*(x+1)"), {})
    assert square.left is square.right and square == ex.parse("(x+1)*(x+1)")
    zeros = ex._merge(ex.BinOp("+", ex.Num(-0.0), ex.Num(0.0)), {})
    assert zeros.left is not zeros.right and math.copysign(1.0, zeros.left.value) == -1.0


_leaf = st.one_of(
    st.floats(min_value=0.25, max_value=3.0).map(lambda v: ex.Num(round(v, 3))),
    st.sampled_from(["x", "y"]).map(ex.Var),
)


def _combine(children):
    binop = st.tuples(st.sampled_from("+-*"), children, children).map(
        lambda t: ex.BinOp(t[0], t[1], t[2])
    )
    call = st.tuples(st.sampled_from(["exp", "sin", "cos"]), children).map(
        lambda t: ex.Call(t[0], t[1])
    )
    return st.one_of(binop, children.map(ex.Neg), call)


_expr = st.recursive(_leaf, _combine, max_leaves=10)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_expr)
def test_unparse_parse_fixpoint(node):
    text = ex.unparse(node)
    again = ex.parse(text)
    assert ex.unparse(again) == text
    point = {"x": 0.7, "y": 1.3}
    assert ex.evaluate(again, point) == pytest.approx(ex.evaluate(node, point), abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_expr)
def test_diff_property(node):
    d = ex.diff(node, "x")
    point = {"x": 0.8, "y": 0.6}
    sym = ex.evaluate(d, point)
    num = ex.central_fd(node, "x", point)
    assert abs(sym - num) <= 1e-5 * max(1.0, abs(sym))
    _assert_taylor_matches_diff(node, point)


def _assert_compiled_matches_evaluate(node, point):
    """The compiled function returns evaluate's value, or raises its exception type."""
    params = sorted(point)
    compiled = ex.compile_expr(node, params)
    try:
        want = ex.evaluate(node, point)
    except Exception as exc:
        with pytest.raises(type(exc)):
            compiled(*(point[p] for p in params))
        return
    got = compiled(*(point[p] for p in params))
    assert got == want or (math.isnan(got) and math.isnan(want)), (ex.unparse(node), point)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_expr, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_compiled_matches_evaluate(node, x, y):
    _assert_compiled_matches_evaluate(node, {"x": x, "y": y})
    _assert_compiled_matches_evaluate(ex.diff(ex.diff(node, "x"), "y"), {"x": x, "y": y})


def test_compiled_domain_edges():
    cases = {
        "x/y": [(1.0, 0.0), (1.0, -0.0), (0.0, 2.0)],
        "x^2.5": [(0.0, 0.0), (-1.0, 0.0), (2.0, 0.0)],
        "x^(-1)": [(0.0, 0.0), (-0.0, 0.0), (-2.0, 0.0)],
        "x^2+y^(-0.5)": [(-1.0, 4.0), (-1.0, 0.0)],
        "log(x)": [(0.0, 0.0), (-0.0, 0.0), (-1.0, 0.0), (1e-300, 0.0)],
        "sqrt(x)": [(0.0, 0.0), (-0.0, 0.0), (-1e-300, 0.0), (4.0, 0.0)],
        "step(x)-step(-y)": [(0.0, 0.0), (-0.0, -0.0), (-1e-300, 1e-300)],
        "exp(x)*y": [(1000.0, 1.0), (700.0, 0.0)],
        "sin(x/y)": [(1.0, 0.0)],
    }
    for text, points in cases.items():
        for x, y in points:
            _assert_compiled_matches_evaluate(ex.parse(text), {"x": x, "y": y})


def test_compiled_long_sum_and_constants():
    # 300 terms nest 300 deep, as deep as evaluate recurses
    node = ex.parse("+".join(f"{k}*x^{k % 3}" for k in range(300)))
    _assert_compiled_matches_evaluate(node, {"x": 0.7})
    inf = ex.BinOp("+", ex.Var("x"), ex.Num(math.inf))  # inf has no literal in the source
    assert ex.compile_expr(inf, ("x",))(1.0) == math.inf
    assert math.isnan(ex.compile_expr(ex.BinOp("*", ex.Num(math.inf), ex.Var("x")), ["x"])(0.0))
    assert ex.compile_expr(ex.Num(2.5), ())() == 2.5


def test_compiled_shares_subtrees():
    node = ex.parse("exp(-x)*exp(-zeta)/(1+x*zeta)")
    for _ in range(4):
        node = ex.diff(node, "x")
    _assert_compiled_matches_evaluate(node, {"x": 0.3, "zeta": 1.7})
    # 40 doublings of one node: 2^40 leaves to a tree walk, 40 additions compiled
    dag = ex.Var("x")
    for _ in range(40):
        dag = ex.BinOp("+", dag, dag)
    assert ex.compile_expr(dag, ("x",))(1.0) == 2.0**40


def _distinct_nodes(node) -> int:
    seen, stack = set(), [node]
    while stack:
        nd = stack.pop()
        if id(nd) not in seen:
            seen.add(id(nd))
            stack.extend(getattr(nd, a) for a in ("arg", "left", "right") if hasattr(nd, a))
    return len(seen)


def test_substitute_keeps_shared_subtrees():
    node = ex.parse("exp(-x-y)/(1+x+2*y)")
    for _ in range(3):
        node = ex.diff(node, "y")
    at_zero = ex.substitute(node, "y", ex.Num(0.0))
    assert _distinct_nodes(at_zero) <= _distinct_nodes(node)
    for x in (0.0, 0.7, 3.0):
        _assert_compiled_matches_evaluate(at_zero, {"x": x})
        assert ex.evaluate(at_zero, {"x": x}) == ex.evaluate(node, {"x": x, "y": 0.0})


def test_compiled_unbound_name_raises_when_called():
    compiled = ex.compile_expr(ex.parse("x+z"), ("x",))  # compiling does not raise
    with pytest.raises(ex.EvalError, match="unbound variable 'z'"):
        compiled(1.0)
    with pytest.raises(ex.EvalError, match="log of non-positive"):  # the earlier node raises first
        ex.compile_expr(ex.parse("log(x)+z"), ("x",))(0.0)


def test_compiled_shape_is_compiled_once(monkeypatch):
    sources = []

    def counting_compile(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(ex, "compile", counting_compile, raising=False)
    ex._code.cache_clear()
    f = ex.compile_expr(ex.parse("2.5*x+1"), ("x",))
    g = ex.compile_expr(ex.parse("0.5*x+7"), ("x",))  # same shape, other constants
    assert f(2.0) == 6.0 and g(2.0) == 8.0 and f(2.0) == 6.0
    assert len(sources) == 1
    assert ex._code.cache_info().hits == 1


def test_compiled_shape_unbound_name_raises_when_called():
    ex._code.cache_clear()
    fs = [ex.compile_expr(ex.parse(text), ("x",)) for text in ("2*x+z", "3*x+z")]  # no raise
    assert ex._code.cache_info().currsize == 1
    for f in fs:
        with pytest.raises(ex.EvalError, match="unbound variable 'z'"):
            f(1.0)


def test_compiled_shape_cache_is_bounded():
    ex._code.cache_clear()
    node = ex.Var("x")
    for k in range(ex._CODE_CACHE_SIZE + 20):  # each sum one term longer: a new shape
        node = ex.BinOp("+", node, ex.Num(float(k)))
        assert ex.compile_expr(node, ("x",))(0.5) == 0.5 + k * (k + 1) / 2
        assert ex._code.cache_info().currsize <= ex._CODE_CACHE_SIZE
    assert ex._code.cache_info().currsize == ex._CODE_CACHE_SIZE


def test_reimported_module_is_freed():
    # a re-imported copy of the module must not be kept alive by a
    # process-wide cache (as typing's Union cache did with the node classes)
    saved = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "asympush"}
    try:
        for k in saved:
            del sys.modules[k]
        fresh = importlib.import_module("asympush.expressions")
        assert fresh.Num is not ex.Num
        fresh.compile_expr(fresh.parse("x*exp(-x)"), ("x",))(1.0)
        ref = weakref.ref(fresh.Num)
        del fresh
    finally:
        for k in [k for k in sys.modules if k.split(".")[0] == "asympush"]:
            del sys.modules[k]
        sys.modules.update(saved)
    gc.collect()
    assert ref() is None


def test_none_is_not_a_tree_before_the_first_walk():
    # the cache of the last walk started as (None, []), so until the first
    # whole walk None read as a tree with no variables
    saved = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "asympush"}
    try:
        for k in saved:
            del sys.modules[k]
        fresh = importlib.import_module("asympush.expressions")
        for run in (lambda: fresh.parse_in(None, ["x"]), lambda: fresh.compile_expr(None, ("x",))):
            with pytest.raises(TypeError, match="not an expression node: None"):
                run()
    finally:
        for k in [k for k in sys.modules if k.split(".")[0] == "asympush"]:
            del sys.modules[k]
        sys.modules.update(saved)


# (text, message, offset) of every kind of ExprSyntaxError, as the tokenizer
# and parser have always reported them
SYNTAX_ERRORS = [
    ("1.2.3", "malformed number '1.2.3'", 0),
    ("x + 1.2.3e5", "malformed number '1.2.3e5'", 4),
    ("1..5", "malformed number '1..5'", 0),
    ("1e²", "malformed number '1e²'", 0),  # a superscript is a digit, not a decimal
    ("²", "malformed number '²'", 0),
    ("1²", "malformed number '1²'", 0),
    ("①", "malformed number '①'", 0),
    ("2*x $ 1", "unexpected character '$'", 4),
    ("x # y", "unexpected character '#'", 2),
    ("½", "unexpected character '½'", 0),  # a numeral that is not a digit
    ("x y 1.2.3", "malformed number '1.2.3'", 4),  # the whole text is tokenized first
    ("tan(x)", "unknown function 'tan'", 0),
    ("(x+1", "expected ')', found 'end of input'", 4),
    ("exp(x", "expected ')', found 'end of input'", 5),
    ("(x+1))", "trailing input ')'", 5),
    ("x y", "trailing input 'y'", 2),
    ("2e+", "trailing input 'e'", 1),
    ("2ex", "trailing input 'ex'", 1),
    ("", "empty expression", 0),
    ("   ", "empty expression", 0),
    ("x^y", "exponent of '^' must be a constant expression", 1),
    ("2^(x+1)", "exponent of '^' must be a constant expression", 1),
    ("x^(1-y)^2", "exponent of '^' must be a constant expression", 1),
    ("x + * 2", "expected number, name or '(', found '*'", 4),
    ("()", "expected number, name or '(', found ')'", 1),
    ("exp()", "expected number, name or '(', found ')'", 4),
    ("x+", "expected number, name or '(', found 'end of input'", 2),
    # a number token where a parenthesis or the end is expected, and an error
    # inside a call or an exponent, as the parser has always reported them
    ("(1 2)", "expected ')', found '2'", 3),
    ("1 2", "trailing input '2'", 2),
    ("x^1 2", "trailing input '2'", 4),
    ("2^(1+x)", "exponent of '^' must be a constant expression", 1),
    ("exp(1", "expected ')', found 'end of input'", 5),
]


@pytest.mark.parametrize("text, message, offset", SYNTAX_ERRORS)
def test_syntax_error_message_and_offset(text, message, offset):
    with pytest.raises(ex.ExprSyntaxError) as exc:
        ex.parse(text)
    assert str(exc.value) == f"{message} (at offset {offset})"
    assert exc.value.offset == offset


def test_lexical_classes():
    N, V, B = ex.Num, ex.Var, ex.BinOp
    cases = {
        ".5+5.": B("+", N(0.5), N(5.0)),
        "1e-3*2E+2": B("*", N(0.001), N(200.0)),
        "x_1+_y": B("+", V("x_1"), V("_y")),
        "x²": V("x²"),  # a name goes on with any letter, digit or numeral
        "x½": V("x½"),
        "é+1": B("+", V("é"), N(1.0)),
        "٣+x": B("+", N(3.0), V("x")),  # Arabic-Indic three is a decimal digit
        "\x1cx ": V("x"),  # both are whitespace to str.isspace
    }
    for text, node in cases.items():
        assert ex.parse(text) == node, text


DEEP = {
    "parentheses": ("(" * 1000 + "x" + ")" * 1000, lambda k: k),
    "calls": ("sin(" * 1000 + "x" + ")" * 1000, lambda k: 4 * k + 3),
    "unary minus": ("-" * 1000 + "x", lambda k: k),
    "powers": ("1^" * 1000 + "1", lambda k: 2 * k + 1),
}


@pytest.mark.parametrize("construct", DEEP)
def test_deep_nesting_is_a_syntax_error(construct):
    text, opener = DEEP[construct]
    with pytest.raises(ex.ExprSyntaxError, match="nested more than 100 deep") as exc:
        ex.parse(text)
    # the offset is that of the opener after MAX_NESTING others
    assert exc.value.offset == opener(ex.MAX_NESTING)


@pytest.mark.parametrize("construct", DEEP)
def test_expression_at_the_nesting_bound(construct):
    text = {
        "parentheses": "(" * ex.MAX_NESTING + "x" + ")" * ex.MAX_NESTING,
        "calls": "sin(" * ex.MAX_NESTING + "x" + ")" * ex.MAX_NESTING,
        "unary minus": "-" * ex.MAX_NESTING + "x",
        "powers": "x^" + "1^" * (ex.MAX_NESTING - 1) + "1",
    }[construct]
    node = ex.parse(text)  # everything that walks the tree still works
    assert ex.parse(ex.unparse(node)) == node
    want = ex.evaluate(node, {"x": 0.5})
    assert ex.compile_expr(node, ("x",))(0.5) == want
    assert ex.taylor(node, "x", 0.5, 2)[0] == want
    assert ex.evaluate(ex.diff(node, "x"), {"x": 0.5}) == pytest.approx(ex.central_fd(node, "x", {"x": 0.5}))


def test_free_vars_of_long_sums():
    # the left spine of a sum is as long as the sum; parse and compile_expr
    # already walk it without recursion
    node = ex.parse("+".join(f"x*y{k % 7}" for k in range(5000)))
    assert ex.free_vars(node) == {"x"} | {f"y{k}" for k in range(7)}
    dag = ex.Var("x")
    for _ in range(60):  # 2^60 paths to the leaf, 61 distinct nodes
        dag = ex.BinOp("*", dag, ex.Neg(dag))
    assert ex.free_vars(dag) == {"x"}
    with pytest.raises(TypeError):
        ex.free_vars(ex.BinOp("+", ex.Var("x"), 2.0))


def test_repr_writes_a_shared_subtree_once_and_walks_in_a_loop():
    # repr was the recursive one of the records: exponential in the depth of
    # the sharing diff builds (29 MB at order 8), and a RecursionError on a
    # long sum; pytest prints it on a failing assert
    start = time.perf_counter()
    text = repr(ex.diff(ex.parse("1/(1+x+y)"), "y", 14))
    assert time.perf_counter() - start < 1.0 and len(text) < 100_000
    assert "#1=BinOp(" in text and "#1#" in text
    dag = ex.Var("x")
    for _ in range(2):
        dag = ex.BinOp("*", dag, ex.Neg(dag))
    assert repr(dag) == (
        "BinOp(op='*', left=#1=BinOp(op='*', left=Var(name='x'), right=Neg(arg=Var(name='x'))), right=Neg(arg=#1#))"
    )
    long_sum = "+".join(["x"] * 5000)
    text = repr(ex.parse(long_sum))
    assert text.count("BinOp(op='+', left=") == 4999 and text.count("Var(name='x')") == 5000
    assert text in repr(from_expression(long_sum))
    # a value that is not a node, in a malformed tree, is written by its own repr
    assert repr(ex.BinOp("+", ex.Var("x"), 2.0)) == "BinOp(op='+', left=Var(name='x'), right=2.0)"


def test_long_product_walks_in_a_loop():
    # a product of 3000 factors is a left spine of 2999 '*' nodes, which
    # evaluate, unparse, diff and taylor walk in a loop, as they walk sums
    node = ex.parse("*".join(["x"] * 3000))
    assert ex.evaluate(node, {"x": 1.0}) == 1.0
    text = ex.unparse(node)
    assert ex.parse(text) == node
    assert ex.compile_expr(ex.diff(node, "x"), ("x",))(1.0) == 3000.0
    assert ex.taylor(node, "x", 1.0, 1) == [1.0, 3000.0]
    assert ex.evaluate(ex.substitute(node, "x", ex.Num(1.0))) == 1.0
    quotient = ex.parse("2" + "/x*x" * 1500)
    assert ex.evaluate(quotient, {"x": 3.0}) == pytest.approx(2.0)
    assert ex.taylor(quotient, "x", 3.0, 1) == pytest.approx([2.0, 0.0], abs=1e-12)


def test_derivative_of_a_long_product_walks_in_a_loop():
    # the product rule nests each '+' inside the next '*': a left spine that
    # alternates the two levels, 2 * 2999 nodes deep, with the prefix products
    # of the input shared as right operands
    d = ex.diff(ex.parse("*".join(["x"] * 3000)), "x")
    assert ex.evaluate(d, {"x": 1.0}) == 3000.0
    assert ex.taylor(d, "x", 1.0, 1) == [3000.0, 3000.0 * 2999.0]
    # d(x^k) = (d(x^(k-1)))*x + x^(k-1), each power written as a product
    want = "(" * 2998 + "x+x" + "".join(")*x+" + "*".join(["x"] * (k - 1)) for k in range(3, 3001))
    assert ex.unparse(d) == want
    # the text of the derivative of n factors nests n - 2 parentheses, so
    # MAX_NESTING + 2 factors is the longest product whose derivative parses back
    n = ex.MAX_NESTING + 2
    d = ex.diff(ex.parse("*".join(["x"] * n)), "x")
    back = ex.parse(ex.unparse(d))
    assert back == d
    assert ex.evaluate(back, {"x": 1.0}) == ex.evaluate(d, {"x": 1.0}) == float(n)
    with pytest.raises(ex.ExprSyntaxError, match="nested more than"):
        ex.parse(ex.unparse(ex.diff(ex.parse("*".join(["x"] * (n + 1))), "x")))


def test_structural_equality_and_hash_of_long_trees():
    # == and hash walk the 1999 '+' nodes with a stack, not by recursion
    text = "+".join(["x*y"] * 2000)
    a, b = ex.parse(text), ex.parse(text)
    assert a == b and hash(a) == hash(b)
    assert a != ex.parse(text + "+x") and a != ex.parse(text.replace("y", "z"))
    assert density_from_expression(text) == density_from_expression(text)
    assert {a: 1}[b] == 1
    # the same answers as the dataclass-generated methods on small trees
    assert ex.Num(0.0) == ex.Num(-0.0) and hash(ex.Num(0.0)) == hash(ex.Num(-0.0))
    assert ex.Num(1.0) != ex.Var("x") and ex.parse("exp(x)") != ex.parse("log(x)")
    assert ex.parse("-x") != ex.parse("x") and ex.parse("x-1") != ex.parse("x+1")


def _emitted_source(monkeypatch, node, params):
    sources = []
    code = ex._code
    monkeypatch.setattr(ex, "_code", lambda src: sources.append(src) or code(src))
    ex.compile_expr(node, params)
    monkeypatch.undo()
    return sources[0]


def test_compiled_source_is_unchanged(monkeypatch):
    density = ex.parse("exp(-0.5*x-1.2*y)*(1+0.3*x+0.7*x*y+1.1*y^2)")
    assert _emitted_source(monkeypatch, density, ("x", "y")) == (
        "def compiled(a0, a1):\n    t0 = -k10\n    t1 = float(a0)\n    t2 = t0 * t1\n"
        "    t3 = float(a1)\n    t4 = k11 * t3\n    t5 = t2 - t4\n"
        "    t6 = 1e999 if t5 > 709.782712893384 else _exp(t5)\n"
        "    t7 = k13 * t1\n    t8 = k12 + t7\n    t9 = k14 * t1\n    t10 = t9 * t3\n"
        "    t11 = t8 + t10\n    t12 = _power(t3, k16)\n    t13 = k15 * t12\n"
        "    t14 = t11 + t13\n    t15 = t6 * t14\n    return t15\n"
    )
    shared = ex.diff(ex.parse("x*log(x)/sqrt(1+y)-step(y)*z"), "x")
    assert _emitted_source(monkeypatch, shared, ("x", "y")) == (
        "def compiled(a0, a1):\n    t0 = float(a0)\n    t1 = _log(t0)\n"
        "    t2 = _divide(k10, t0)\n    t3 = t0 * t2\n    t4 = t1 + t3\n    t5 = float(a1)\n"
        "    t6 = k11 + t5\n    t7 = _sqrt(t6)\n    t8 = t4 * t7\n    t9 = _power(t7, k12)\n"
        "    t10 = _divide(t8, t9)\n    return t10\n"
    )
    unbound = ex.parse("step(x)*z+sin(x)-cos(y)/x+x")
    assert _emitted_source(monkeypatch, unbound, ("x", "y")) == (
        "def compiled(a0, a1):\n    t0 = float(a0)\n    t1 = _step(t0)\n"
        "    t2 = _unbound('z')\n    t3 = t1 * t2\n"
        "    t4 = _sin(t0) if -1e999 != t0 != 1e999 else _overflow('sin', t0)\n    t5 = t3 + t4\n"
        "    t6 = float(a1)\n    t7 = _cos(t6) if -1e999 != t6 != 1e999 else _overflow('cos', t6)\n"
        "    t8 = _divide(t7, t0)\n    t9 = t5 - t8\n    t10 = t9 + t0\n    return t10\n"
    )


def test_second_derivative_of_a_long_product():
    # diff walks the alternating '+'/'*' spine of the first derivative in a
    # loop, and differentiates each shared prefix product once
    d2 = ex.diff(ex.diff(ex.parse("*".join(["x"] * 3000)), "x"), "x")
    assert ex.evaluate(d2, {"x": 1.0}) == 3000.0 * 2999.0 == 8_997_000.0


def _doubling_dag(levels: int):
    dag = ex.Var("x")
    for _ in range(levels):  # 2^levels paths to the leaf, 2 * levels + 1 distinct nodes
        dag = ex.BinOp("*", dag, ex.Neg(dag))
    return dag


def test_shared_trees_are_walked_once():
    a, b = _doubling_dag(60), _doubling_dag(60)  # built separately: equal, but nothing shared between them
    assert a == b and hash(a) == hash(b)
    assert a != ex.BinOp("*", _doubling_dag(59), ex.Neg(_doubling_dag(58)))
    d = ex.diff(a, "x")
    assert _distinct_nodes(d) <= 10 * _distinct_nodes(a)
    # each level is -(the one below)^2, so a = -x^(2^60) and a' = -2^60 x^(2^60 - 1)
    assert ex.evaluate(a, {"x": 1.0}) == -1.0
    assert ex.evaluate(d, {"x": 1.0}) == ex.compile_expr(d, ("x",))(1.0) == -(2.0**60)
    assert ex.taylor(a, "x", 1.0, 1) == [-1.0, -(2.0**60)]
    assert ex.free_vars(d) == {"x"} and not ex.vanishes(d)
    assert ex.evaluate(ex.substitute(a, "x", ex.Num(1.0))) == -1.0
    assert len(ex.unparse(_doubling_dag(8))) > 2**8  # a shared subtree is written at each of its places


# A recursive reference for every pass, on small trees and DAGs: it walks
# every path, with no memo and no stack of its own.

_REF_CALLS = {"exp": math.exp, "sin": math.sin, "cos": math.cos}
_REF_BINOPS = {"+": lambda u, v: u + v, "-": lambda u, v: u - v, "*": lambda u, v: u * v}


def _ref_evaluate(nd, b):
    if isinstance(nd, ex.Num):
        return nd.value
    if isinstance(nd, ex.Var):
        return float(b[nd.name])
    if isinstance(nd, ex.Neg):
        return -_ref_evaluate(nd.arg, b)
    if isinstance(nd, ex.Call):
        return _REF_CALLS[nd.func](_ref_evaluate(nd.arg, b))
    return _REF_BINOPS[nd.op](_ref_evaluate(nd.left, b), _ref_evaluate(nd.right, b))


def _ref_diff(nd, var):
    """The derivative, with no simplification."""
    N, B = ex.Num, ex.BinOp
    if isinstance(nd, ex.Num):
        return N(0.0)
    if isinstance(nd, ex.Var):
        return N(1.0 if nd.name == var else 0.0)
    if isinstance(nd, ex.Neg):
        return ex.Neg(_ref_diff(nd.arg, var))
    if isinstance(nd, ex.Call):
        outer = {"exp": nd, "sin": ex.Call("cos", nd.arg), "cos": ex.Neg(ex.Call("sin", nd.arg))}[nd.func]
        return B("*", outer, _ref_diff(nd.arg, var))
    du, dv = _ref_diff(nd.left, var), _ref_diff(nd.right, var)
    if nd.op == "*":
        return B("+", B("*", du, nd.right), B("*", nd.left, dv))
    return B(nd.op, du, dv)


def _ref_free_vars(nd):
    if isinstance(nd, ex.Var):
        return {nd.name}
    return set().union(*(_ref_free_vars(getattr(nd, a)) for a in ("arg", "left", "right") if hasattr(nd, a)))


def _ref_vanishes(nd):
    if isinstance(nd, ex.Num):
        return nd.value == 0.0
    if isinstance(nd, ex.Neg):
        return _ref_vanishes(nd.arg)
    if isinstance(nd, ex.BinOp):
        left, right = _ref_vanishes(nd.left), _ref_vanishes(nd.right)
        return left or right if nd.op == "*" else left and right
    return False


def _ref_unparse(nd):
    prec = {"+": 1, "-": 1, "*": 2}

    def level(c):
        return prec[c.op] if isinstance(c, ex.BinOp) else 3 if isinstance(c, ex.Neg) else 5

    if isinstance(nd, ex.Num):
        return repr(nd.value)
    if isinstance(nd, ex.Var):
        return nd.name
    if isinstance(nd, ex.Neg):
        arg = _ref_unparse(nd.arg)
        return f"-({arg})" if level(nd.arg) < 3 else f"-{arg}"
    if isinstance(nd, ex.Call):
        return f"{nd.func}({_ref_unparse(nd.arg)})"
    left, right = _ref_unparse(nd.left), _ref_unparse(nd.right)
    left = f"({left})" if level(nd.left) < prec[nd.op] else left
    right = f"({right})" if level(nd.right) <= prec[nd.op] else right
    return f"{left}{nd.op}{right}"


def _ref_substitute(nd, var, replacement):
    """A copy with var replaced, sharing nothing with nd."""
    if isinstance(nd, ex.Num):
        return ex.Num(nd.value)
    if isinstance(nd, ex.Var):
        return replacement if nd.name == var else ex.Var(nd.name)
    if isinstance(nd, ex.Neg):
        return ex.Neg(_ref_substitute(nd.arg, var, replacement))
    if isinstance(nd, ex.Call):
        return ex.Call(nd.func, _ref_substitute(nd.arg, var, replacement))
    return ex.BinOp(nd.op, _ref_substitute(nd.left, var, replacement), _ref_substitute(nd.right, var, replacement))


def _ref_equal(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, ex.Num):
        return a.value == b.value
    if isinstance(a, ex.Var):
        return a.name == b.name
    if isinstance(a, ex.Neg):
        return _ref_equal(a.arg, b.arg)
    if isinstance(a, ex.Call):
        return a.func == b.func and _ref_equal(a.arg, b.arg)
    return a.op == b.op and _ref_equal(a.left, b.left) and _ref_equal(a.right, b.right)


def _subtrees(nd):
    return [nd] + [s for a in ("arg", "left", "right") if hasattr(nd, a) for s in _subtrees(getattr(nd, a))]


@st.composite
def _dags(draw):
    """A tree of the strategy, then a few nodes over it that reuse its subtrees by identity."""
    node = draw(_expr)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from("+-*"))
        node = ex.BinOp(op, draw(st.sampled_from(_subtrees(node))), node)
        if draw(st.booleans()):
            node = ex.Call(draw(st.sampled_from(["exp", "sin", "cos"])), ex.Neg(node))
    return node


def _outcome(f, *args):
    try:
        return f(*args)
    except OverflowError:
        return OverflowError


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dags())
def test_passes_match_the_recursive_reference(node):
    point = {"x": 0.7, "y": -0.4}
    want = _outcome(_ref_evaluate, node, point)
    assert _outcome(ex.evaluate, node, point) == want
    assert _outcome(ex.compile_expr(node, ("x", "y")), 0.7, -0.4) == want
    assert ex.free_vars(node) == _ref_free_vars(node)
    assert ex.vanishes(node) == _ref_vanishes(node)
    text = ex.unparse(node)
    assert text == _ref_unparse(node)
    assert ex.parse(text) == node and _ref_equal(ex.parse(text), node)
    copy = _ref_substitute(node, "x", ex.Var("x"))  # the same tree, with nothing shared
    assert node == copy and hash(node) == hash(copy)
    other = ex.BinOp("+", node, ex.Num(1.0))
    assert node != other and not _ref_equal(node, other)
    swapped = ex.substitute(node, "x", ex.Var("y"))
    assert _ref_equal(swapped, _ref_substitute(node, "x", ex.Var("y")))
    ref_d = _ref_diff(node, "x")
    slope = _outcome(_ref_evaluate, ref_d, point)
    if want is OverflowError or slope is OverflowError:
        return
    sym = ex.evaluate(ex.diff(node, "x"), point)
    assert sym == pytest.approx(slope, rel=1e-12, abs=1e-12)
    assert sym == pytest.approx(ex.central_fd(node, "x", point), rel=1e-5, abs=1e-5)
    curvature = _outcome(_ref_evaluate, _ref_diff(ref_d, "x"), point)
    if curvature is not OverflowError:
        jet = ex.taylor(node, "x", 0.7, 2, point)
        assert jet == pytest.approx([want, slope, curvature / 2], rel=1e-9, abs=1e-9)


DEPTH = 5000


def _right_nested_sum():
    node = ex.Var("x")
    for k in range(DEPTH):
        node = ex.BinOp("+", ex.BinOp("*", ex.Num(float(k % 3)), ex.Var("x")), node)
    return node


def _neg_chain():
    node = ex.Var("x")
    for _ in range(DEPTH):
        node = ex.Neg(node)
    return node


def _call_chain():
    node = ex.Var("x")
    for _ in range(DEPTH):
        node = ex.Call("sin", node)
    return node


@pytest.mark.parametrize("build", [_right_nested_sum, _neg_chain, _call_chain])
def test_passes_on_deep_chains(build):
    # chains as deep as these exceed the interpreter's recursion limit, so the
    # reference is a loop down the chain; parse refuses their text
    node, x = build(), 0.3
    if build is _right_nested_sum:
        c = 1.0 + sum(float(k % 3) for k in range(DEPTH))
        value, slope, text_end = c * x, c, "x" + ")" * (DEPTH - 1)
    elif build is _neg_chain:
        value, slope, text_end = x, 1.0, "-" * DEPTH + "x"  # an even number of signs
    else:
        value, slope = x, 1.0
        for _ in range(DEPTH):
            value, slope = math.sin(value), slope * math.cos(value)
        text_end = "sin(x" + ")" * DEPTH
    assert ex.evaluate(node, {"x": x}) == pytest.approx(value, rel=1e-12)
    assert ex.compile_expr(node, ("x",))(x) == ex.evaluate(node, {"x": x})
    assert ex.taylor(node, "x", x, 1) == pytest.approx([value, slope], rel=1e-9)
    d = ex.diff(node, "x")
    assert ex.evaluate(d, {"x": x}) == pytest.approx(slope, rel=1e-9)
    assert ex.evaluate(d, {"x": x}) == pytest.approx(ex.central_fd(node, "x", {"x": x}), rel=1e-6)
    assert ex.evaluate(ex.substitute(node, "x", ex.Num(x))) == ex.evaluate(node, {"x": x})
    text = ex.unparse(node)
    assert text.endswith(text_end)
    with pytest.raises(ex.ExprSyntaxError, match="nested more than"):
        ex.parse(text)
    assert ex.free_vars(node) == {"x"} and not ex.vanishes(node)
    assert ex.vanishes(ex.substitute(node, "x", ex.Num(0.0))) is (build is not _call_chain)
    again = build()
    assert node == again and hash(node) == hash(again)
    assert node != ex.substitute(again, "x", ex.Var("y"))


@pytest.mark.parametrize(
    "names, what, text, build, message",
    [
        (("x",), "expression", "exp(-x)*y", from_expression,
         "expression has free variables besides x: ['y']"),
        (("x", "zeta"), "expression", "x*zeta*w", lambda t: sigma_from_expression(t, order=1),
         "expression has free variables besides x, zeta: ['w']"),
        (("x", "y"), "density", "x*y*z", density_from_expression,
         "density has free variables besides x, y: ['z']"),
    ],
)
def test_parse_in_names_the_variables_outside_the_list(names, what, text, build, message):
    # one reader for every constructor of expression text, word for word the same message
    tree = ex.parse("x*2")
    assert ex.parse_in("x*2", names, what) == tree
    assert ex.parse_in(tree, names, what) is tree  # a tree is checked, not parsed again
    for run in (lambda: ex.parse_in(text, names, what), lambda: build(text)):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == message



# Texts of the grammar with long sums and products, chains of unary minus,
# '^' chains with constant exponents, calls and parentheses.
_text_leaf = st.one_of(
    st.sampled_from(["x", "y", "z", "1", ".5", "2e-1", "3.", "0"]),
    st.floats(min_value=0.25, max_value=3.0).map(lambda v: repr(round(v, 3))),
)
_exponent = st.sampled_from(["2", "3", "0.5", "-1", "(-1.5)", "(1+2)", "-(2*0.5)", "2^2"])


def _text_combine(children):
    chain = st.lists(st.tuples(st.sampled_from("+-*/"), children), min_size=2, max_size=30).map(
        lambda ts: ts[0][1] + "".join(op + t for op, t in ts[1:])
    )
    minus = st.tuples(st.integers(1, 5), children).map(lambda t: "-" * t[0] + t[1])
    power = st.tuples(children, st.lists(_exponent, min_size=1, max_size=4)).map(
        lambda t: f"({t[0]})^" + "^".join(t[1])
    )
    call = st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(lambda t: f"{t[0]}({t[1]})")
    return st.one_of(chain, minus, power, call, children.map(lambda t: f"({t})"))


_text = st.recursive(_text_leaf, _text_combine, max_leaves=40)


def _outcomes(f, points):
    """repr of each value of f, or the type and message of what it raised."""
    out = []
    for p in points:
        try:
            out.append(repr(f(*p)))
        except (ArithmeticError, ValueError) as e:
            out.append((type(e), str(e)))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_text)
def test_parse_installs_the_walk_of_its_tree(text):
    node = ex.parse(text)
    root, installed = ex._last_walk
    assert root is node
    cold = ex._walk(node, None)  # the explicit-stack walk, outside the cache
    assert len(installed) == len(cold) and all(a is b for a, b in zip(installed, cold))

    # every pass that follows a parse reads the installed list; after another
    # tree's walk evicts it, the same passes walk node cold and agree
    points = [(0.7, -0.4, 1.3), (0.0, 2.0, -1.0), (3.5, 0.25, 0.0)]
    names, text_of, f = ex.free_vars(node), ex.unparse(node), ex.compile_expr(node, ("x", "y", "z"))
    ex.free_vars(ex.Var("w"))
    assert ex._last_walk[0] is not node
    assert ex.free_vars(node) == names and ex.unparse(node) == text_of
    g = ex.compile_expr(node, ("x", "y", "z"))
    assert g.__code__ is f.__code__  # one emitted source, so one code object
    assert _outcomes(f, points) == _outcomes(g, points)

    # a syntax error installs nothing: the last walk stays that of node
    before = ex._last_walk
    for bad in (text + ")", text + " 2", "(" + text, text + "^x", text + "+"):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse(bad)
        assert ex._last_walk is before


def test_density_from_text_walks_no_tree(monkeypatch):
    # parse installs its node list, which parse_in's free_vars check and
    # compile_expr read: building a density from text runs no stack walk
    def walk(node, follow):
        raise AssertionError("a tree was walked")

    monkeypatch.setattr(ex, "_walk", walk)
    text = "exp(-0.5*x-1.2*y)*(1+0.3*x+0.7*x*y+1.1*y^2)+sqrt(1+0.4*x+0.9*y)"
    u = density_from_expression(text, (1.5, 2.0))
    want = math.exp(-0.5 * 0.3 - 1.2 * 0.6) * (1 + 0.3 * 0.3 + 0.7 * 0.3 * 0.6 + 1.1 * 0.6**2)
    assert u(0.3, 0.6) == want + math.sqrt(1 + 0.4 * 0.3 + 0.9 * 0.6)
    with pytest.raises(ValueError, match=r"besides x, y: \['z'\]"):
        density_from_expression("x*z")
