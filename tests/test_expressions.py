import gc
import importlib
import math
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from asympush import expressions as ex


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


def test_evaluate_domain_errors():
    for text, point in [("log(x)", {"x": 0.0}), ("sqrt(x)", {"x": -1.0}), ("1/x", {"x": 0.0}), ("x^(-1)", {"x": 0.0})]:
        with pytest.raises(ex.EvalError):
            ex.evaluate(ex.parse(text), point)


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


def test_iterated_diff_stays_small():
    node = ex.parse("exp(-x-y)")
    for _ in range(12):
        node = ex.diff(node, "x")
    assert ex.evaluate(node, {"x": 0.0, "y": 0.0}) == 1.0


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
