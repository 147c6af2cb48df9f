import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asympush
from asympush import asymfun, cli
from asympush.asymfun import scale_reg_integral
from asympush.cli import from_json, main
from asympush.quadrature import geometric_grid
from asympush.singular_expansion import corollary_expansion


def write_spec(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(out_dir, stem):
    return json.loads((out_dir / f"{stem}.report.json").read_text())


EXP_FUNCTION = {
    "expr": "exp(-x)",
    "zero": {
        "order": 7.0,
        "terms": [
            {"exponent": [float(m), 0.0], "logCoeffs": [[(-1.0) ** m / math.factorial(m), 0.0]]}
            for m in range(7)
        ],
    },
    "infinity": {"order": 40.0, "terms": []},
}


def test_reginteg_spec(tmp_path):
    spec = write_spec(tmp_path / "reg.json", {"kind": "reginteg", "function": EXP_FUNCTION})
    assert main(["run", spec, "--out", str(tmp_path / "out")]) == 0
    rep = read_report(tmp_path / "out", "reg")
    assert rep["value"][0] == pytest.approx(1.0, abs=1e-9)
    assert rep["value"][1] == pytest.approx(0.0, abs=1e-12)


def test_pushforward_spec_csv(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "push.json",
        {"kind": "pushforward", "density": {"expr": "1", "box": [1, 1]}, "tGrid": geometric_grid(0.001, 0.5, 6)},
    )
    assert main(["run", spec]) == 0
    rows = list(csv.DictReader((tmp_path / "push.samples.csv").open()))
    assert len(rows) == 6
    for row in rows:
        t, v = float(row["t"]), float(row["value"])
        assert v == pytest.approx(-math.log(t), abs=1e-8)


def test_indexset_push_spec(tmp_path):
    spec = write_spec(
        tmp_path / "idx.json",
        {
            "kind": "indexset",
            "operation": "push",
            "truncation": 5,
            "sets": {"X0": [[0, 0, 0]], "Y0": [[0, 0, 0]]},
            "matrix": {"facesX": ["X0", "Y0"], "facesY": ["T0"], "e": [[1], [1]]},
        },
    )
    assert main(["run", spec, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path, "idx")
    got = [tuple(e) for e in rep["result"]["T0"]]
    assert got == [(float(n), 0.0, k) for n in range(5) for k in (0, 1)]


ONE_OVER_ONE_PLUS_X = {
    "expr": "1/(1+x)",
    "zero": {
        "order": 8.0,
        "terms": [
            {"exponent": [float(m), 0.0], "logCoeffs": [[(-1.0) ** m, 0.0]]}
            for m in range(8)
        ],
    },
    "infinity": {
        "order": 7.0,
        "terms": [
            {"exponent": [-float(m), 0.0], "logCoeffs": [[(-1.0) ** (m + 1), 0.0]]}
            for m in range(1, 8)
        ],
    },
}


def test_substitution_spec(tmp_path):
    spec = write_spec(
        tmp_path / "sub.json",
        {"kind": "substitution", "function": ONE_OVER_ONE_PLUS_X, "t": [0.5, 2.0]},
    )
    assert main(["run", spec, "--json-only"]) == 0
    rep = read_report(tmp_path, "sub")
    for row in rep["values"]:
        t = row["t"]
        assert row["value"][0] == pytest.approx(math.log(t) / t, abs=1e-8)
        assert row["agreement"] <= 1e-8


def test_substitution_rows_match_the_scaling_rule_and_share_one_reg_integral(tmp_path, monkeypatch):
    ts = [0.25, 0.5, 2.0, 7.0]
    spec = write_spec(
        tmp_path / "sub.json",
        {"kind": "substitution", "function": ONE_OVER_ONE_PLUS_X, "t": ts},
    )
    calls = []
    real_reg = asymfun.reg_integral

    def counting_reg(f, *a, **kw):
        calls.append(f)
        return real_reg(f, *a, **kw)

    monkeypatch.setattr(asymfun, "reg_integral", counting_reg)
    monkeypatch.setattr(cli, "reg_integral", counting_reg)
    assert main(["run", spec, "--json-only"]) == 0
    # one call on the spec's function (it carries its AST), one per rescaled copy
    assert sum(f.ast is not None for f in calls) == 1
    assert len(calls) == 1 + len(ts)
    monkeypatch.undo()
    f = from_json(ONE_OVER_ONE_PLUS_X)
    rows = read_report(tmp_path, "sub")["values"]
    assert [row["t"] for row in rows] == ts
    for row in rows:
        want = scale_reg_integral(f, row["t"])
        assert row["value"] == [want.real, want.imag]


def test_substitution_rejects_nonpositive_t(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "sub.json",
        {"kind": "substitution", "function": ONE_OVER_ONE_PLUS_X, "t": [1.0, 0.0]},
    )
    assert main(["run", spec, "--json-only"]) == 2
    assert "invalid spec" in capsys.readouterr().err


def test_sal_spec_with_verification(tmp_path):
    spec = write_spec(
        tmp_path / "sal.json",
        {
            "kind": "sal",
            "sigma": {"expr": "exp(-x)*exp(-zeta)", "order": 3},
            "verifyGrid": [4, 8, 16, 32, 64],
        },
    )
    assert main(["run", spec, "--json-only"]) == 0
    rep = read_report(tmp_path, "sal")
    exps = [tuple(t["exponent"]) for t in rep["expansion"]["terms"]]
    assert (-1.0, 0.0) in exps and exps == sorted(exps)
    assert rep["expansion"]["variable"] == "z"
    assert rep["expansion"]["remainderOrder"] == -4.0
    assert rep["verification"]["decayExponent"] == pytest.approx(-4.0, abs=0.4)


EXP_OVER_X = {
    "expr": "exp(-x)/x",
    "zero": {
        "order": 7.0,
        "terms": [
            {"exponent": [m - 1.0, 0.0], "logCoeffs": [[(-1.0) ** m / math.factorial(m), 0.0]]}
            for m in range(8)
        ],
    },
    "infinity": {"order": 40.0, "terms": []},
}


def test_separable_spec(tmp_path):
    spec = write_spec(
        tmp_path / "sep.json",
        {"kind": "separable", "phi": "exp(-x)", "f": EXP_OVER_X, "q": 1.5},
    )
    assert main(["run", spec, "--json-only"]) == 0
    rep = read_report(tmp_path, "sep")
    assert rep["expansion"]["variable"] == "t"
    assert rep["expansion"]["remainderOrder"] == 1.5
    const = [t for t in rep["expansion"]["terms"] if t["exponent"] == [0.0, 0.0]]
    assert const[0]["logCoeffs"][0][0] == pytest.approx(-0.5772156649015329, abs=1e-8)


def test_separable_inverse_mode_is_the_corollary_expansion(tmp_path):
    spec = write_spec(
        tmp_path / "inv.json",
        {"kind": "separable", "phi": "exp(-x)", "f": EXP_OVER_X, "q": 1.5, "mode": "inverse"},
    )
    assert main(["run", spec, "--json-only"]) == 0
    rep = read_report(tmp_path, "inv")
    want = cli._expansion_json(corollary_expansion("exp(-x)", from_json(EXP_OVER_X), 1.5))
    assert rep == {"kind": "separable", "mode": "inverse", "expansion": json.loads(json.dumps(want))}


def test_finite_part_at_double_pole_is_reported(tmp_path):
    # x^0 ln x e^(-x): its Mellin transform Gamma'(z) has a double pole at 0
    log_exp = {
        "expr": "exp(-x)*log(x)",
        "zero": {
            "order": 6.5,
            "terms": [
                {"exponent": [float(m), 0.0], "logCoeffs": [[0.0, 0.0], [(-1.0) ** m / math.factorial(m), 0.0]]}
                for m in range(6)
            ],
        },
        "infinity": {"order": 40.0, "terms": []},
    }
    spec = write_spec(
        tmp_path / "mel.json",
        {"kind": "mellin", "function": log_exp, "points": [[0.5, 1.0]], "finitePartAt": 0.0},
    )
    assert main(["run", spec, "--json-only"]) == 0
    rep = read_report(tmp_path, "mel")
    assert {"location": [0.0, 0.0], "order": 2} in rep["points"][0]["poles"]
    # the finite part of Gamma' at 0
    gamma = 0.5772156649015329
    assert rep["finitePart"]["value"][0] == pytest.approx(gamma**2 / 2.0 + math.pi**2 / 12.0, abs=1e-12)
    assert rep["finitePart"]["value"][1] == 0.0


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "separable", "phi": "exp(-y)", "f": {"expr": "exp(-x)", "infinity": {"order": 40}}, "q": 1.5},
        {"kind": "reginteg", "function": {"expr": "exp(-y)", "infinity": {"order": 40}}},
    ],
    ids=["separable phi", "reginteg function"],
)
def test_stray_variable_exits_2(tmp_path, capsys, payload):
    spec = write_spec(tmp_path / "stray.json", payload)
    assert main(["run", spec]) == 2
    assert "invalid spec: expression has free variables besides x: ['y']" in capsys.readouterr().err


def test_indexset_integrability_spec(tmp_path):
    # the blow-up matrix: G2 is the null face, so its index set must lie in Re > 0
    spec = write_spec(
        tmp_path / "integ.json",
        {
            "kind": "indexset",
            "operation": "integrability",
            "sets": {"G1": [[0, 0, 0]], "G2": [[0, 0, 0]], "G3": [[0, 0, 0]]},
            "matrix": {"facesX": ["G1", "G2", "G3"], "facesY": ["H"], "e": [[1], [0], [1]]},
        },
    )
    assert main(["run", spec, "--json-only"]) == 0
    assert read_report(tmp_path, "integ")["result"] == {"ok": False, "violations": [["G2", [0.0, 0.0, 0]]]}


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"kind": "separable", "phi": "exp(-x)", "f": EXP_OVER_X, "q": 1.5, "mode": "cubic"},
            "separable mode must be 'scale' or 'inverse', not 'cubic'",
        ),
        (
            {"kind": "indexset", "operation": "intersect", "sets": {"A": [[0, 0, 0]]}},
            "unknown indexset operation 'intersect'",
        ),
        ({"kind": "reginteg"}, "reginteg spec needs the key 'function'"),
        ({"kind": "sal", "sigma": {"order": 1}}, "sigma spec needs an 'expr' in variables x, zeta"),
    ],
    ids=["separable mode", "indexset operation", "missing key", "sigma without expr"],
)
def test_unknown_choice_or_missing_key_exits_2(tmp_path, capsys, payload, message):
    spec = write_spec(tmp_path / "spec.json", payload)
    assert main(["run", spec, "--json-only"]) == 2
    assert f"invalid spec: {message}" in capsys.readouterr().err
    assert not (tmp_path / "spec.report.json").exists()


def test_invalid_kind_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path / "bad.json", {"kind": "nonsense"})
    assert main(["run", spec]) == 2
    assert "invalid spec" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    # quadrature hits the log domain error near zero
    bad = {
        "expr": "log(x-2)",
        "zero": {"order": 2.0, "terms": [{"exponent": [0.0, 0.0], "logCoeffs": [[1.0, 0.0]]}]},
        "infinity": {"order": 40.0, "terms": []},
    }
    spec = write_spec(tmp_path / "num.json", {"kind": "reginteg", "function": bad})
    assert main(["run", spec]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_sal_with_a_step_in_x_exits_3(tmp_path, capsys):
    # step(5-x) blocks diff, so the z^-2 boundary term has no x-derivative
    sigma = {
        "expr": "exp(-x)*exp(-zeta)*step(5-x)*step(zeta-0.001)", "order": 4,
        "xSupport": [0.0, 5.0], "zetaVanishesBelow": 0.001,
    }
    spec = write_spec(tmp_path / "fd.json", {"kind": "sal", "sigma": sigma})
    assert main(["run", spec]) == 3
    assert "x-derivative of order 1: cannot differentiate step()" in capsys.readouterr().err


def test_sal_without_taylor_data_at_the_axis_exits_3(tmp_path, capsys):
    # exp(-zeta)/zeta has no Taylor data at zeta = 0, so boundary_function(0)
    # raises MissingExpansionData
    payload = {"kind": "sal", "sigma": {"expr": "exp(-x)*exp(-zeta)/zeta", "order": 1}}
    spec = write_spec(tmp_path / "axis.json", payload)
    assert main(["run", spec, "--json-only"]) == 3
    assert "numerical failure: small-argument Taylor data for boundary function j=0" in capsys.readouterr().err
    assert not (tmp_path / "axis.report.json").exists()


def test_pushforward_prediction_without_taylor_data_exits_3(tmp_path, capsys):
    # sqrt(x) has no x-derivative at the axis x = 0
    payload = {"kind": "pushforward", "density": {"expr": "sqrt(x)*exp(-y)"}, "tGrid": [0.1], "predictionOrder": 1}
    spec = write_spec(tmp_path / "pf.json", payload)
    assert main(["run", spec]) == 3
    assert "0 raised to 0.5 has no derivative" in capsys.readouterr().err


def test_failed_diagnostics_exit_4_with_report(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "diag.json",
        {
            "kind": "sal",
            "sigma": {"expr": "1/(x+zeta)", "order": 0},
            "diagnostics": True,
        },
    )
    assert main(["run", spec, "--json-only"]) == 4
    rep = read_report(tmp_path, "diag")
    assert rep["diagnostics"]["ok"] is False


def test_selftest_filter(capsys):
    assert main(["selftest", "--filter", "7,9"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selftest_unknown_filter(capsys):
    assert main(["selftest", "--filter", "42"]) == 2
    assert main(["selftest", "--filter", "1,x"]) == 2
    assert "--filter takes a comma-separated list of criterion numbers" in capsys.readouterr().err


def _schwartz_json(expr: str, scale: float, n: int = 8) -> dict:
    """scale * exp(-x) with its Taylor terms at 0 and nothing at infinity."""
    return {
        "expr": expr,
        "zero": {
            "order": n + 1.0,
            "terms": [
                {"exponent": [float(m), 0.0], "logCoeffs": [[scale * (-1.0) ** m / math.factorial(m), 0.0]]}
                for m in range(n + 1)
            ],
        },
        "infinity": {"order": 40.0, "terms": []},
    }


def test_sal_report_carries_all_diagnostics(tmp_path):
    # zeta^-1.5 cos(2 ln zeta) is the sum of the conjugate terms zeta^(-1.5 +- 2i)/2,
    # so sigma equals its declared terms and every sampled remainder is 0
    cf = _schwartz_json("0.5*exp(-x)", 0.5)
    spec = write_spec(
        tmp_path / "sal.json",
        {
            "kind": "sal",
            "sigma": {
                "expr": "exp(-x)*zeta^(-1.5)*cos(2*log(zeta))",
                "order": 1,
                "terms": [{"exponent": [-1.5, s], "coeffs": [cf]} for s in (2.0, -2.0)],
                "zetaVanishesBelow": 1.0,
            },
            "diagnostics": True,
        },
    )
    assert main(["run", spec, "--json-only"]) == 0
    diag = read_report(tmp_path, "sal")["diagnostics"]
    assert diag["ok"] is True
    assert set(diag) == {
        "ok", "growthModel", "growthExponent", "notes", "boundaryIntegrals", "remainderConstants",
    }
    consts = diag["remainderConstants"]
    assert consts and all(k.count(",") == 1 for k in consts)
    assert all(abs(c) < 1e-9 for c in consts.values())


def _reject_constant(name):
    raise AssertionError(f"report holds the non-JSON token {name}")


def test_failed_diagnostics_report_is_strict_json(tmp_path):
    # the theta-scan integral of 1/(x + zeta) diverges: growth exponent inf
    spec = write_spec(
        tmp_path / "diag.json",
        {"kind": "sal", "sigma": {"expr": "1/(x+zeta)", "order": 0}, "diagnostics": True},
    )
    assert main(["run", spec, "--json-only"]) == 4
    text = (tmp_path / "diag.report.json").read_text()
    diag = json.loads(text, parse_constant=_reject_constant)["diagnostics"]
    assert diag["ok"] is False
    assert diag["growthExponent"] == "inf"
    assert diag["boundaryIntegrals"] == {}
    assert set(diag["remainderConstants"]) == {"0,0", "1,0"}


def test_strict_json_spells_out_non_finite_numbers():
    report = {"a": [math.inf, -math.inf, (math.nan, 1.5)], "b": {"c": 2, "d": None}}
    assert cli._strict_json(report) == {
        "a": ["inf", "-inf", ["nan", 1.5]], "b": {"c": 2, "d": None},
    }


def test_spec_that_is_not_an_object_exits_2(tmp_path, capsys):
    for i, payload in enumerate(([1, 2], "x", 3)):
        spec = write_spec(tmp_path / f"notobj{i}.json", payload)
        assert main(["run", spec]) == 2
        assert "invalid spec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "reginteg", "function": [1]},
        {"kind": "reginteg", "function": {"expr": "exp(-x)", "zero": [1]}},
        {"kind": "pushforward", "density": "expr", "tGrid": [0.1]},
        {"kind": "indexset", "operation": "complete", "args": ["A"], "sets": [1]},
        {"kind": "sal", "sigma": [1]},
    ],
)
def test_nested_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, payload):
    # an array or a string where an object belongs is an invalid spec, not a traceback
    spec = write_spec(tmp_path / "nested.json", payload)
    assert main(["run", spec]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"kind": "mellin", "function": EXP_FUNCTION, "points": [[0.5]]}, "mellin point must be a pair, not [0.5]"),
        (
            {"kind": "sal", "sigma": {"expr": "exp(-x)*exp(-zeta)", "order": 1,
                                      "terms": [{"exponent": [0.0], "coeffs": []}]}},
            "term exponent must be a pair, not [0.0]",
        ),
        (
            {"kind": "pushforward", "density": {"expr": "exp(-x-y)"}, "tGrid": [0.1, 0.2], "fitBasis": [[0.0]]},
            "fitBasis entry must be a pair, not [0.0]",
        ),
        (
            {"kind": "reginteg", "function": {"expr": "exp(-x)", "infinity": {"order": 40},
                                              "zero": {"terms": [{"exponent": [0, 0], "logCoeffs": [[1.0]]}]}}},
            "logCoeffs entry must be a pair, not [1.0]",
        ),
        (
            {"kind": "reginteg", "function": {"expr": "exp(-x)", "infinity": {"order": 40}, "support": [2, 1]}},
            "support must satisfy 0 <= a < b, not (2, 1)",
        ),
        (
            {"kind": "sal", "sigma": {"expr": "exp(-x)*exp(-zeta)", "order": 2, "xSupport": [5, 0]}},
            "x_support must satisfy 0 <= a < b, not (5, 0)",
        ),
    ],
    ids=["mellin point", "sal exponent", "fitBasis", "logCoeffs", "reversed support", "reversed xSupport"],
)
def test_malformed_pair_or_reversed_support_exits_2(tmp_path, capsys, payload, message):
    # a short pair was read by index and crashed with an IndexError (exit 1); a reversed
    # support clipped every x and exited 0 with a wrong value
    spec = write_spec(tmp_path / "pair.json", payload)
    assert main(["run", spec, "--json-only"]) == 2
    assert f"invalid spec: {message}" in capsys.readouterr().err
    assert not (tmp_path / "pair.report.json").exists()


@pytest.mark.parametrize(
    "op, args",
    [("complete", ["B"]), ("extendedUnion", ["A", "B"])],
)
def test_indexset_args_naming_a_missing_set_exit_2(tmp_path, capsys, op, args):
    # the bare KeyError was printed as "invalid spec: 'B'"
    payload = {"kind": "indexset", "operation": op, "sets": {"A": [[0, 0, 0]]}, "args": args}
    spec = write_spec(tmp_path / "missing.json", payload)
    assert main(["run", spec, "--json-only"]) == 2
    assert "invalid spec: indexset args name the set 'B', but sets defines only ['A']" in capsys.readouterr().err


@pytest.mark.parametrize("box", [[1.0, math.inf], [math.inf, 1.0]], ids=["Y infinite", "X infinite"])
def test_pushforward_on_a_box_with_an_infinite_side_exits_2(tmp_path, capsys, box):
    # json reads Infinity; push_xy failed inside math ("math domain error", exit 2,
    # or "math range error", exit 3) instead of naming the box
    payload = {"kind": "pushforward", "density": {"expr": "exp(-x-y)", "box": box}, "tGrid": [0.1]}
    spec = write_spec(tmp_path / "box.json", payload)
    assert main(["run", spec, "--json-only"]) == 2
    assert f"invalid spec: push_xy needs a finite support box, got {tuple(box)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "t_grid, want",
    [
        (None, "invalid spec: pushforward spec needs the key 'tGrid'"),
        ([0.1, 0.0], "invalid spec: grid entries must be positive and finite, got 0.0"),
        # a NaN or infinite t was valued 0.0 with exit 0, and an infinite t of a fit
        # failed inside LAPACK
        ([0.1, math.nan], "invalid spec: grid entries must be positive and finite, got nan"),
        ([0.1, 0.2, 0.3, math.inf], "invalid spec: grid entries must be positive and finite, got inf"),
    ],
    ids=["no grid", "t = 0", "t = nan", "t = inf"],
)
def test_pushforward_grid_from_the_spec_or_the_flag(tmp_path, capsys, t_grid, want):
    payload = {"kind": "pushforward", "density": {"expr": "exp(-x-y)"}, "fitBasis": [[0.0, 0]]}
    if t_grid is not None:
        payload["tGrid"] = t_grid
    spec = write_spec(tmp_path / "push.json", payload)
    assert main(["run", spec, "--json-only"]) == 2
    assert want in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"kind": "sal", "sigma": {"expr": "exp(-x)*exp(-zeta)", "order": 1}, "verifyGrid": [4, 8, math.nan]},
            "z grid entries must be finite, got nan",
        ),
        (
            {"kind": "substitution", "function": ONE_OVER_ONE_PLUS_X, "t": [0.5, math.nan]},
            "scale factor must be a finite positive number, got nan",
        ),
    ],
    ids=["sal verifyGrid", "substitution t"],
)
def test_a_z_or_t_that_is_not_finite_exits_2(tmp_path, capsys, payload, message):
    # the verification wrote a row of NaN with exit 0; the substitution ran the
    # rescaled quadrature into its subdivision limit, exit 3
    spec = write_spec(tmp_path / "spec.json", payload)
    assert main(["run", spec, "--json-only"]) == 2
    assert f"invalid spec: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("truncation", [math.inf, math.nan], ids=["Infinity", "NaN"])
def test_indexset_truncation_that_is_not_finite_exits_2(tmp_path, capsys, truncation):
    # an infinite truncation made complete loop forever; NaN dropped every entry
    # and then reported "generator list must be non-empty"
    payload = {"kind": "indexset", "operation": "complete", "sets": {"A": [[0, 0, 0]]}, "args": ["A"],
               "truncation": truncation}
    spec = write_spec(tmp_path / "trunc.json", payload)
    assert main(["run", spec, "--json-only"]) == 2
    assert f"invalid spec: indexset truncation must be finite, got {truncation}" in capsys.readouterr().err


def test_sal_spec_without_an_expression_exits_2(tmp_path):
    # in a fresh process, where no tree has been walked yet, a null expr was
    # printed as the id of None
    spec = write_spec(tmp_path / "null.json", {"kind": "sal", "sigma": {"expr": None, "order": 1}})
    src = os.path.dirname(os.path.dirname(os.path.abspath(asympush.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "asympush.cli", "run", spec, "--json-only"], env=env, capture_output=True, text=True
    )
    assert run.returncode == 2
    assert "invalid spec: not an expression node: None" in run.stderr


def test_diagnostics_run_before_the_verification(tmp_path):
    # a verify grid that verification rejects (z < 2) does not hide a failed diagnostics
    spec = write_spec(
        tmp_path / "diag.json",
        {"kind": "sal", "sigma": {"expr": "1/(x+zeta)", "order": 0}, "diagnostics": True, "verifyGrid": [1.0]},
    )
    assert main(["run", spec, "--json-only"]) == 4
    assert read_report(tmp_path, "diag")["diagnostics"]["ok"] is False


@pytest.mark.parametrize(
    "payload, code",
    [
        ({"kind": "reginteg", "function": EXP_FUNCTION}, 0),
        ({"kind": "sal", "sigma": {"expr": "1/(x+zeta)", "order": 0}, "diagnostics": True}, 4),
    ],
)
def test_unwritable_report_exits_2(tmp_path, capsys, payload, code):
    spec = write_spec(tmp_path / "spec.json", payload)
    assert main(["run", spec, "--out", str(tmp_path / "out"), "--json-only"]) == code
    capsys.readouterr()
    taken = tmp_path / "taken"
    taken.write_text("")  # --out names a file, so the report directory cannot be made
    assert main(["run", spec, "--out", str(taken), "--json-only"]) == 2
    assert "cannot write report" in capsys.readouterr().err


def _python(code: str) -> str:
    """Stdout of a fresh interpreter that imports this checkout's asympush."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(asympush.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


@pytest.mark.parametrize("flag", [["--grid", "0.1:0.5:3"], ["--truncate", "5"], ["--precision", "5"]],
                         ids=["--grid", "--truncate", "--precision"])
def test_run_takes_no_flag_that_overrides_the_spec(tmp_path, capsys, flag):
    # a report depends on its spec alone: tGrid, truncation and the CSV digits
    # have no command-line override
    spec = write_spec(tmp_path / "reg.json", {"kind": "reginteg", "function": EXP_FUNCTION})
    with pytest.raises(SystemExit) as err:
        main(["run", spec, *flag])
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "reg.report.json").exists()


def test_run_help_lists_only_spec_out_and_json_only(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--help"])
    assert err.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == "usage: asympush run [-h] [--out OUT] [--json-only] spec"


def test_main_shares_one_parser_across_calls(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "push.json",
        {"kind": "pushforward", "density": {"expr": "exp(-x-y)", "box": [1, 1]}, "tGrid": [0.1, 0.3]},
    )

    def check_value_column():
        values = read_report(tmp_path, "push")["values"]
        rows = list(csv.DictReader((tmp_path / "push.samples.csv").open()))
        assert [row["value"] for row in rows] == [f"{v:.12g}" for v in values]

    assert main(["run", spec, "--json-only"]) == 0
    assert not (tmp_path / "push.samples.csv").exists()
    assert main(["run", spec]) == 0  # the default is back: nothing carries over
    check_value_column()
    with pytest.raises(SystemExit) as err:
        main(["run", spec, "--no-such-flag"])
    assert err.value.code == 2
    assert main(["run", spec, "--json-only"]) == 0
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    _python(f"from asympush.cli import main; main(['run', {spec!r}, '--out', {str(fresh)!r}])")
    assert (fresh / "push.report.json").read_bytes() == (tmp_path / "push.report.json").read_bytes()


def test_half_line_and_indexset_specs_load_no_numpy(tmp_path):
    specs = {
        "reg": {"kind": "reginteg", "function": EXP_FUNCTION},
        "mel": {"kind": "mellin", "function": EXP_FUNCTION, "points": [[0.5, 1.0]], "finitePartAt": 0.0},
        "sub": {"kind": "substitution", "function": ONE_OVER_ONE_PLUS_X, "t": [0.5, 2.0]},
        "idx": {
            "kind": "indexset",
            "operation": "push",
            "truncation": 5,
            "sets": {"X0": [[0, 0, 0]], "Y0": [[0, 0, 0]]},
            "matrix": {"facesX": ["X0", "Y0"], "facesY": ["T0"], "e": [[1], [1]]},
        },
    }
    paths = [write_spec(tmp_path / f"{stem}.json", payload) for stem, payload in specs.items()]
    code = (
        "import contextlib, io, sys\n"
        "from asympush.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['run', p, '--out', {str(tmp_path / 'out')!r}]) for p in {paths!r}]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    assert _python(code).strip() == "[0, 0, 0, 0] False"


def test_selftest_and_every_spec_kind_run_without_numpy(tmp_path):
    # numpy is no runtime dependency: with its import blocked, the selftest and a
    # spec of each kind run, the least-squares fits of a pushforward fitBasis and
    # of a sal verifyGrid included
    specs = {
        "reg": {"kind": "reginteg", "function": EXP_FUNCTION},
        "mel": {"kind": "mellin", "function": EXP_FUNCTION, "points": [[0.5, 1.0]], "finitePartAt": 0.0},
        "sub": {"kind": "substitution", "function": ONE_OVER_ONE_PLUS_X, "t": [0.5, 2.0]},
        "sep": {"kind": "separable", "phi": "exp(-x)", "f": EXP_OVER_X, "q": 1.5},
        "idx": {
            "kind": "indexset",
            "operation": "push",
            "truncation": 5,
            "sets": {"X0": [[0, 0, 0]], "Y0": [[0, 0, 0]]},
            "matrix": {"facesX": ["X0", "Y0"], "facesY": ["T0"], "e": [[1], [1]]},
        },
        "sal": {
            "kind": "sal",
            "sigma": {"expr": "exp(-x)*exp(-zeta)", "order": 3},
            "diagnostics": True,
            "verifyGrid": [4, 8, 16, 32, 64],
        },
        "fit": {
            "kind": "pushforward",
            "density": {"expr": "exp(-x-y)"},
            "tGrid": [1e-4 * 10 ** (k / 3.5) for k in range(8)],
            "predictionOrder": 1,
            "fitBasis": [[0.0, 1], [0.0, 0], [1.0, 1], [1.0, 0]],
        },
    }
    paths = [write_spec(tmp_path / f"{stem}.json", payload) for stem, payload in specs.items()]
    out = tmp_path / "out"
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "from asympush.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['selftest'])]\n"
        f"    codes += [main(['run', p, '--out', {str(out)!r}]) for p in {paths!r}]\n"
        "print(codes)\n"
    )
    assert _python(code).strip() == str([0] * 8)
    sal = read_report(out, "sal")
    assert "diagnostics" in sal
    assert sal["verification"]["decayExponent"] == pytest.approx(-4.0, abs=0.4)
    # the fit recovers the predicted t^0 ln t and t^0 coefficients
    rep = read_report(out, "fit")
    (const, _), (log, _) = rep["prediction"]["terms"][0]["logCoeffs"]
    assert rep["fit"]["coefficients"][:2] == pytest.approx([log, const], abs=1e-4)


def test_mellin_spec_with_gapped_log_runs_matches_mpmath(tmp_path):
    # x^-0.4 ln x / (1 + x^2), declared in runs spaced by 2 at both ends; its
    # Mellin transform is d/dz of (pi/2) / sin(pi (z - 0.4) / 2)
    mp = pytest.importorskip("mpmath")
    spec = Path(__file__).resolve().parents[1] / "tools" / "log_term_specs" / "mellin_gapped_log_runs.json"
    assert main(["run", str(spec), "--out", str(tmp_path), "--json-only"]) == 0
    rep = read_report(tmp_path, "mellin_gapped_log_runs")
    with mp.workdps(40):

        def transform(w):  # at z = 0.4 + w
            u = mp.pi * w / 2
            return -(mp.pi / 2) ** 2 * mp.cos(u) / mp.sin(u) ** 2

        # the closed form is the integral where it converges, 0.4 < Re z < 2.4
        z = mp.mpf(1)
        direct = mp.quad(lambda x: x ** (z - mp.mpf("1.4")) * mp.log(x) / (1 + x * x), [0, 1, mp.inf])
        assert abs(direct - transform(z - mp.mpf("0.4"))) <= 1e-20
        assert len(rep["points"]) == 6
        for p in rep["points"]:
            want = complex(transform(mp.mpc(*p["z"]) - mp.mpf("0.4")))
            assert abs(complex(*p["value"]) - want) <= 1e-9 * max(1.0, abs(want)), p
        # the double pole at z = 0.4: the constant Laurent coefficient
        w = mp.mpf("1e-15")
        want = float(transform(w) + 1 / w**2)
    assert rep["finitePart"]["z"] == 0.4
    assert rep["finitePart"]["value"][0] == pytest.approx(want, abs=1e-9)
    assert rep["finitePart"]["value"][1] == 0.0


LOG_TERM_SPECS = Path(__file__).resolve().parents[1] / "tools" / "log_term_specs"


def test_substitution_spec_with_complex_log_runs_matches_mpmath(tmp_path):
    # x^-0.4 cos(0.7 ln x) ln x / (1 + x^2) = Re x^(-0.4+0.7i) ln x / (1 + x^2),
    # declared as conjugate runs spaced by 2 at both ends; its integral
    # converges, and is d/da of (pi/2) / cos(pi a/2) at a = -0.4 + 0.7i
    mp = pytest.importorskip("mpmath")
    assert main(["run", str(LOG_TERM_SPECS / "substitution_complex_log_runs.json"), "--out", str(tmp_path),
                 "--json-only"]) == 0
    rows = read_report(tmp_path, "substitution_complex_log_runs")["values"]
    with mp.workdps(30):
        base = float(mp.re(mp.diff(lambda a: mp.pi / (2 * mp.cos(mp.pi * a / 2)), mp.mpc(-0.4, 0.7))))
    assert [row["t"] for row in rows] == [0.5, 1.0, 2.5, 8.0]
    for row in rows:
        # no term at exponent -1, so the scaling rule is base / t
        assert row["value"][0] == pytest.approx(base / row["t"], rel=1e-12, abs=0.0)
        assert row["value"][1] == 0.0
        assert abs(complex(*row["rescaledValue"]) - base / row["t"]) <= 1e-8
        assert row["agreement"] <= 1e-8


def test_reginteg_spec_with_support_matches_mpmath(tmp_path):
    # x^-1.5 ln x e^-x cut off at x = 2: its regularized integral is d/ds of
    # the lower incomplete gamma function, continued to s = -0.5
    mp = pytest.importorskip("mpmath")
    assert main(["run", str(LOG_TERM_SPECS / "reginteg_supported_log_run.json"), "--out", str(tmp_path),
                 "--json-only"]) == 0
    value = read_report(tmp_path, "reginteg_supported_log_run")["value"]
    with mp.workdps(30):
        want = float(mp.diff(lambda s: mp.gammainc(s, 0, 2), -0.5))
    assert value[0] == pytest.approx(want, rel=1e-12, abs=0.0) and value[1] == 0.0


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the value types are slotted classes and NamedTuples: importing the
    # package generates no dataclass code
    code = "import sys\nimport asympush.cli\nprint(sorted(m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules))\n"
    assert _python(code).strip() == "[]"


def test_selftest_loads_no_numpy_random():
    code = (
        "import contextlib, io, sys\n"
        "from asympush.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['selftest'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    assert _python(code).strip() == "0 []"
