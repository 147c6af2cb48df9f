import csv
import json
import math
import os
import subprocess
import sys

import pytest

import asympush
from asympush import asymfun, cli
from asympush.asymfun import from_json, scale_reg_integral
from asympush.cli import main


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
        {"kind": "pushforward", "density": {"expr": "1", "box": [1, 1]}},
    )
    assert main(["run", spec, "--grid", "0.001:0.5:6"]) == 0
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


def test_separable_spec(tmp_path):
    f = {
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
    spec = write_spec(
        tmp_path / "sep.json",
        {"kind": "separable", "phi": "exp(-x)", "f": f, "q": 1.5},
    )
    assert main(["run", spec, "--json-only"]) == 0
    rep = read_report(tmp_path, "sep")
    assert rep["expansion"]["variable"] == "t"
    assert rep["expansion"]["remainderOrder"] == 1.5
    const = [t for t in rep["expansion"]["terms"] if t["exponent"] == [0.0, 0.0]]
    assert const[0]["logCoeffs"][0][0] == pytest.approx(-0.5772156649015329, abs=1e-8)


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


def test_sal_past_the_finite_difference_limit_exits_3(tmp_path, capsys):
    # step(5-x) blocks diff, so the z^-4 boundary term needs a 3rd finite difference
    sigma = {
        "expr": "exp(-x)*exp(-zeta)*step(5-x)*step(zeta-0.001)", "order": 4,
        "xSupport": [0.0, 5.0], "zetaVanishesBelow": 0.001,
    }
    spec = write_spec(tmp_path / "fd.json", {"kind": "sal", "sigma": sigma})
    assert main(["run", spec]) == 3
    assert "finite differences support at most 2" in capsys.readouterr().err


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


def test_main_shares_one_parser_across_calls(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "push.json",
        {"kind": "pushforward", "density": {"expr": "exp(-x-y)", "box": [1, 1]}, "tGrid": [0.1, 0.3]},
    )

    def check_value_column(digits):
        values = read_report(tmp_path, "push")["values"]
        rows = list(csv.DictReader((tmp_path / "push.samples.csv").open()))
        assert [row["value"] for row in rows] == [f"{v:.{digits}g}" for v in values]

    assert main(["run", spec, "--precision", "5"]) == 0
    check_value_column(5)
    assert main(["run", spec]) == 0  # the default is back: nothing carries over
    check_value_column(12)
    with pytest.raises(SystemExit) as err:
        main(["run", spec, "--no-such-flag"])
    assert err.value.code == 2
    assert main(["run", spec, "--json-only"]) == 0
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    _python(f"from asympush.cli import main; main(['run', {spec!r}, '--out', {str(fresh)!r}])")
    assert (fresh / "push.report.json").read_bytes() == (tmp_path / "push.report.json").read_bytes()


def test_selftest_loads_no_numpy_random():
    code = (
        "import contextlib, io, sys\n"
        "from asympush.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['selftest'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    assert _python(code).strip() == "0 []"
