"""The package's value types behave as the frozen dataclasses they replace.

Slotted classes (expression nodes, LogPolynomial, Term, Expansion,
AsymFunction, the densities, SigmaFunction, IndexEntry) and NamedTuple result
records alike: fields cannot be assigned, and repr and hash are those a
frozen dataclass with the same fields gives.
"""

import copy
import inspect
import math
import pickle
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings, strategies as st

import asympush
from asympush import acceptance, asymfun, expansions, indexsets, logpoly, pushforward, singular_expansion
from asympush import expressions as ex
from asympush._record import Record
from asympush.singular_expansion import _multiple

MODULES = (ex, logpoly, expansions, asymfun, indexsets, pushforward, singular_expansion, acceptance)


def _instances() -> list:
    f = asymfun.from_expression("exp(-x)", zero_terms=[(0, [1.0]), (1, [-1.0])], order_zero=3.0, order_inf=40.0)
    family = {G: indexsets.complete([(0, 0)]) for G in ("G1", "G2", "G3")}
    matrix = pushforward.blowup_matrix()
    sigma = singular_expansion.sigma_from_expression("exp(-x-zeta)", 1)
    integrability = indexsets.check_integrability(family, matrix)
    return [
        ex.Num(1.5),
        ex.Var("x"),
        ex.Neg(ex.Var("x")),
        ex.BinOp("+", ex.Var("x"), ex.Num(1.0)),
        ex.Call("exp", ex.Var("x")),
        logpoly.LogPolynomial((1, 2j)),
        f.exp0.terms[0],
        f.exp0,
        f,
        _multiple(f, 2.0, -1),
        pushforward.density_from_expression("x*y"),
        pushforward.blowup_density_from_expression("x*y", family, box=(1.0, 2.0)),
        sigma,
        indexsets.IndexEntry(0.5, -1.0, 2),
        asymfun.MellinPole(-1 + 0j, 2),
        asymfun.mellin(f, 0.5),
        indexsets.complete([(0.5, 1)], 2.0),
        matrix,
        indexsets.push_index_family(matrix, family),
        integrability,
        pushforward.FitResult(((0.0, 1),), (1.0,), 0.0, 1.0, (0.1, 0.2)),
        pushforward.ConditionCReport({(0, 1.0): 0.5}, True, integrability, True),
        singular_expansion.SigmaTerm(1j, (f,)),
        singular_expansion.ExpansionReport(f.exp0),
        singular_expansion.HypothesisDiagnostics({}, {0: math.inf}, "n/a", None, True),
        singular_expansion.ResidualReport(((2.0, 1.0, 1.0, 0.0),), None, None, 0.0),
        acceptance.CriterionResult(1, "name", True, "details", 0.5),
    ]


INSTANCES = _instances()


def test_every_public_type_is_covered():
    public = {
        obj
        for mod in MODULES
        for obj in (getattr(mod, name) for name in mod.__all__)
        if inspect.isclass(obj) and not issubclass(obj, BaseException)
    }
    assert public <= {type(obj) for obj in INSTANCES}


def test_no_dataclass_is_left():
    for mod in (*MODULES, asympush):
        for obj in vars(mod).values():
            assert not hasattr(obj, "__dataclass_fields__"), obj


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__qualname__)
def test_fields_cannot_be_assigned_or_deleted(obj):
    for name in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1  # no instance dict either


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__qualname__)
def test_repr_and_hash_are_those_of_a_frozen_dataclass(obj):
    reference = make_dataclass(type(obj).__qualname__, obj._fields, frozen=True)
    ref = reference(*(getattr(obj, name) for name in obj._fields))
    assert repr(obj) == repr(ref)
    if isinstance(obj, ex._Node):  # structural hash, the one the nodes have always had
        return
    try:
        want = hash(ref)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == want


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__qualname__)
def test_equality_is_by_fields_and_survives_copy(obj):
    twin = copy.copy(obj)
    assert twin == obj and not twin != obj
    assert copy.deepcopy(obj) == obj
    if isinstance(obj, Record):
        assert twin is not obj
        assert obj != tuple(getattr(obj, name) for name in obj._fields)  # a record is not a tuple
    else:  # a NamedTuple is one
        assert obj == tuple(obj)


def test_records_of_different_types_or_fields_differ():
    a, b = indexsets.IndexEntry(0.5, 0.0, 1), indexsets.IndexEntry(0.5, 0.0, 2)
    assert a != b and a == indexsets.IndexEntry(0.5, 0.0, 1)
    assert logpoly.LogPolynomial((1, 0)) == logpoly.LogPolynomial((1,))
    d = pushforward.density_from_expression("x*y", (1.0, 2.0))
    family = {G: indexsets.complete([(0, 0)]) for G in ("G1", "G2", "G3")}
    blowup = pushforward.BlowupDensity(d.ast, d.box, family=family)
    assert blowup != d and d != blowup  # equal fields, different classes, as with dataclasses
    assert pushforward.Density2D(d.ast, d.box) == d


def test_records_pickle():
    for obj in (indexsets.IndexEntry(0.5, -1.0, 2), logpoly.LogPolynomial((1, 2j)), ex.parse("x*exp(-x)")):
        assert pickle.loads(pickle.dumps(obj)) == obj
    side = expansions.make_side([(0, [1.0]), (1, [2.0, 1.0])], 3.0, "zero")
    back = pickle.loads(pickle.dumps(side))
    assert back == side and back.at_log(-0.7) == side.at_log(-0.7)
    # a side holds its evaluator, a closure, which is rebuilt rather than pickled
    far = expansions.make_side([(-1, [1.0]), (-2, [0.5]), (-3, [0.25])], 3.0, "infinity")
    f = asymfun.AsymFunction(math.exp, side, far)
    assert f.exp0.at_log(-0.7) == side.at_log(-0.7) and far(2.0) == 0.65625
    for obj in (side, far, f):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert twin == obj
    for obj in (side, far):
        twin = copy.deepcopy(obj)
        assert (repr(twin._table), repr(twin._runs)) == (repr(obj._table), repr(obj._runs))
    back = pickle.loads(pickle.dumps(f))
    assert (back.exp0.at_log(-0.7), back.exp_inf(2.0), back(0.5)) == (side.at_log(-0.7), 0.65625, math.exp(0.5))


def test_constructors_keep_their_signatures():
    assert list(inspect.signature(ex.BinOp).parameters) == ["op", "left", "right"]
    assert list(inspect.signature(expansions.Expansion).parameters) == ["terms", "order", "side", "log_power"]
    assert list(inspect.signature(asymfun.AsymFunction).parameters) == ["fn", "exp0", "exp_inf", "support", "ast"]
    assert list(inspect.signature(singular_expansion.SigmaFunction).parameters) == [
        "fn", "order", "terms", "log_bound", "ast", "x_support", "zeta_vanishes_below", "x_terms",
    ]
    params = inspect.signature(pushforward.BlowupDensity).parameters  # family keyword-only: test_pushforward
    assert list(params) == ["ast", "box", "family"] and params["box"].default == (1.0, math.inf)
    assert ex.BinOp(op="*", left=ex.Var("x"), right=ex.Num(2.0)) == ex.parse("x*2")


def test_exponent_matrix_still_checks_its_shape():
    with pytest.raises(ValueError, match="one row per source face"):
        indexsets.ExponentMatrix(("G",), ("H",), ())
    m = indexsets.ExponentMatrix(faces_x=("G",), faces_y=("H",), e=((2,),))
    assert m.entry("G", "H") == 2 and pickle.loads(pickle.dumps(m)) == m


_component = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_component, _component, st.integers(0, 3)), max_size=12))
def test_index_entries_order_as_their_tuples(triples):
    entries = [indexsets.IndexEntry(*t) for t in triples]
    assert [(e.re, e.im, e.k) for e in sorted(entries)] == sorted(triples)
    for a, b in zip(entries, entries[1:]):
        ta, tb = (a.re, a.im, a.k), (b.re, b.im, b.k)
        assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    with pytest.raises(TypeError):
        indexsets.IndexEntry(0.0, 0.0, 0) < (0.0, 0.0, 0)
