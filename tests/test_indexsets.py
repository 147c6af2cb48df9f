import math

import pytest
from hypothesis import given, settings, strategies as st

from asympush.indexsets import (
    DEFAULT_TRUNCATION,
    ExponentMatrix,
    IndexEntry,
    IndexSet,
    check_integrability,
    complete,
    extended_union,
    nullfaces,
    push_index_family,
)


def test_complete_small_truncation():
    got = complete([(0, 1)], truncation=2.0)
    assert got.as_triples() == [(0.0, 0.0, 0), (0.0, 0.0, 1), (1.0, 0.0, 0), (1.0, 0.0, 1)]


def test_complete_is_closed():
    got = complete([(0.5, 2), (-1, 0)], truncation=4.0)
    assert got.check_closure() == []


def test_complete_requires_generators():
    with pytest.raises(ValueError):
        complete([])


@pytest.mark.parametrize("truncation", [math.inf, -math.inf, math.nan])
def test_complete_rejects_a_truncation_that_is_not_finite(truncation):
    # inf never ended the loop over integer shifts; nan dropped every entry.
    # The check comes before the one on the generators
    for gens in ([(0, 0)], []):
        with pytest.raises(ValueError, match=f"truncation must be finite, got {truncation}"):
            complete(gens, truncation)


def test_negative_log_power_rejected():
    with pytest.raises(ValueError):
        IndexEntry(0.0, 0.0, -1)


def test_extended_union_adds_log_terms():
    K = complete([(0, 0)], truncation=3.0)
    got = extended_union(K, K)
    assert got.contains(0.0, 1)
    assert got.contains(1.0, 1)
    assert not got.contains(0.0, 2)
    assert got.check_closure() == []


def test_extended_union_disjoint_exponents_is_union():
    A = complete([(0.25, 0)], truncation=2.0)
    B = complete([(0.5, 0)], truncation=2.0)
    got = extended_union(A, B)
    assert got.as_triples() == sorted(set(A.as_triples()) | set(B.as_triples()))


def test_extended_union_truncation_mismatch():
    with pytest.raises(ValueError):
        extended_union(complete([(0, 0)], 2.0), complete([(0, 0)], 3.0))


_entry = st.tuples(
    st.sampled_from([0.0, 0.5, 1.0, -1.0, 0.25]),
    st.integers(min_value=0, max_value=2),
).map(lambda t: IndexEntry(t[0], 0.0, t[1]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_entry, min_size=1, max_size=3), st.lists(_entry, min_size=1, max_size=3))
def test_extended_union_commutes(a, b):
    A = complete(a, truncation=3.0)
    B = complete(b, truncation=3.0)
    assert extended_union(A, B).as_triples() == extended_union(B, A).as_triples()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_entry, min_size=1, max_size=3), st.lists(_entry, min_size=1, max_size=3))
def test_extended_union_contains_both(a, b):
    A = complete(a, truncation=3.0)
    B = complete(b, truncation=3.0)
    U = extended_union(A, B)
    for e in A.entries + B.entries:
        assert U.contains(e.alpha, e.k)


def test_exponent_matrix_validation():
    with pytest.raises(ValueError):
        ExponentMatrix(("G",), ("H",), ((1, 2),))
    with pytest.raises(ValueError):
        ExponentMatrix(("G",), ("H",), ((-1,),))


def test_nullfaces():
    m = ExponentMatrix(("G1", "G2", "G3"), ("H",), ((1,), (0,), (1,)))
    assert nullfaces(m) == {"G2"}
    assert m.is_b_normal()


def test_b_normality_check():
    m = ExponentMatrix(("G",), ("H1", "H2"), ((1, 1),))
    assert not m.is_b_normal()
    with pytest.raises(ValueError):
        push_index_family(m, {"G": complete([(0, 0)])})


def test_push_divides_exponents():
    m = ExponentMatrix(("G",), ("H",), ((2,),))
    res = push_index_family(m, {"G": complete([(1, 0)], truncation=3.0)}, truncation=3.0)
    got = res.family["H"]
    assert got.contains(0.5, 0)
    assert got.contains(1.0, 0)
    assert got.check_closure() == []


def test_push_product_model_creates_logs():
    m = ExponentMatrix(("X0", "Y0"), ("T0",), ((1,), (1,)))
    fam = {"X0": complete([(0, 0)]), "Y0": complete([(0, 0)])}
    got = push_index_family(m, fam).family["T0"]
    want = complete([(0, 1)])
    assert got.as_triples() == want.as_triples()


def test_push_empty_target_column_flagged():
    m = ExponentMatrix(("G",), ("H1", "H2"), ((1, 0),))
    res = push_index_family(m, {"G": complete([(0, 0)])})
    assert res.family["H2"].is_empty
    assert any("H2" in note for note in res.notes)


def test_integrability_verdicts():
    m = ExponentMatrix(("G1", "G2", "G3"), ("H",), ((1,), (0,), (1,)))
    good = {"G1": complete([(0, 0)]), "G2": complete([(1, 0)]), "G3": complete([(0, 0)])}
    bad = {"G1": complete([(0, 0)]), "G2": complete([(0, 0)]), "G3": complete([(0, 0)])}
    assert check_integrability(good, m).ok
    rep = check_integrability(bad, m)
    assert not rep.ok
    assert rep.violations[0][0] == "G2"


def test_integrability_missing_face():
    m = ExponentMatrix(("G1", "G2"), ("H",), ((1,), (0,)))
    with pytest.raises(ValueError):
        check_integrability({"G1": complete([(0, 0)])}, m)


def test_default_truncation():
    got = complete([(0, 0)])
    assert got.truncation == DEFAULT_TRUNCATION
    assert max(e.re for e in got.entries) < DEFAULT_TRUNCATION
