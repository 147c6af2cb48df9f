"""Batch command line front-end.

``asympush run spec.json`` loads a JSON problem description, dispatches to
the engines and writes a ``*.report.json`` (plus a ``*.samples.csv`` for
sampled push-forward grids) next to the spec or into ``--out``.  ``asympush
selftest`` runs the acceptance suite and prints a pass/fail matrix.

Exit codes: 0 success, 2 invalid spec or unwritable report, 3 numerical
failure, 4 failed hypothesis diagnostics (the report is still written).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from . import expressions as ex
from .acceptance import CRITERIA, run_all
from .asymfun import (
    AsymFunction,
    from_expression,
    mellin,
    mellin_finite_part,
    reg_integral,
    rescale,
    scaling_rule,
)
from .indexsets import (
    DEFAULT_TRUNCATION,
    ExponentMatrix,
    IndexEntry,
    IndexSet,
    check_integrability,
    complete,
    extended_union,
    push_index_family,
)
from .logpoly import PoleError
from .pushforward import (
    DivergentIntegral,
    density_from_expression,
    fit_asymptotics,
    push_xy,
    sal_prediction_smooth,
)
from .quadrature import QuadratureError, geometric_grid
from .singular_expansion import (
    MissingExpansionData,
    SigmaFunction,
    SigmaTerm,
    asymptotic_expansion,
    check_hypotheses,
    corollary_expansion,
    separable_expansion,
    sigma_from_expression,
    verify_expansion,
)

__all__ = ["main", "from_json"]

class SpecError(ValueError):
    """The problem spec does not validate."""


class HypothesisFailure(RuntimeError):
    """Sampled hypothesis diagnostics failed; carries the report."""

    def __init__(self, diagnostics):
        super().__init__("sampled hypothesis diagnostics failed")
        self.diagnostics = diagnostics


def _cnum(v) -> list[float]:
    return [v.real, v.imag]


def _expansion_json(e) -> dict:
    """A result expansion: in t at zero, in z at infinity; rows by ascending exponent."""
    zero = e.side == "zero"
    rows = [
        {"exponent": _cnum(t.exponent), "logCoeffs": [_cnum(c) for c in t.poly.coeffs]}
        for t in (e.terms if zero else e.terms[::-1])
    ]
    return {
        "variable": "t" if zero else "z",
        "terms": rows,
        "remainderOrder": e.order - 1 if zero else -e.order - 1,
        "remainderLogPower": e.log_power,
    }


def _require(payload: dict, key: str, kind: str):
    if key not in payload:
        raise SpecError(f"{kind} spec needs the key {key!r}")
    return payload[key]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _pair(value, what: str) -> tuple:
    """A JSON pair such as [re, im] as a tuple; SpecError for anything else."""
    if not (isinstance(value, list) and len(value) == 2):
        raise SpecError(f"{what} must be a pair, not {value!r}")
    return tuple(value)


def from_json(value, what: str = "function") -> AsymFunction:
    """A function spec: 'expr' in x, sides 'zero' and 'infinity' of 'terms' and 'order', an optional 'support'."""
    _object(value, what)
    sides = []
    for side in ("zero", "infinity"):
        d = _object(value.get(side, {}), f"{what} {side!r}")
        sides.append([
            (complex(*_pair(t["exponent"], "term exponent")),
             [complex(*_pair(c, "logCoeffs entry")) for c in t["logCoeffs"]])
            for t in d.get("terms", ())
        ])
        sides.append(float(d.get("order", 1.0)))
    support = _pair(value["support"], "support") if value.get("support") else None
    return from_expression(value["expr"], *sides, support=support)


def _parse_grid(spec, flag: str | None):
    """Grid from the spec or the --grid flag 'a:b:n:geometric|linear'."""
    if flag:
        parts = flag.split(":")
        if len(parts) not in (3, 4):
            raise SpecError("--grid must look like a:b:points[:geometric|linear]")
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        mode = parts[3] if len(parts) == 4 else "geometric"
        if n < 2 or not 0 < a < b < math.inf:
            raise SpecError(f"--grid needs finite 0 < a < b and at least two points, got {flag!r}")
        if mode == "geometric":
            return geometric_grid(a, b, n)
        if mode == "linear":
            return [a + (b - a) * i / (n - 1) for i in range(n)]
        raise SpecError(f"unknown grid mode {mode!r}")
    if spec is None:
        raise SpecError("a t grid is required (spec key 'tGrid' or --grid)")
    grid = [float(t) for t in spec]
    for t in grid:
        if not 0 < t < math.inf:
            raise SpecError(f"grid entries must be positive and finite, got {t}")
    return grid


# ---------------------------------------------------------------------------
# kind handlers: payload dict -> (report dict, csv rows or None)


def _run_reginteg(payload, args):
    f = from_json(_require(payload, "function", "reginteg"))
    value = reg_integral(f)
    return {"kind": "reginteg", "value": _cnum(value)}, None


def _run_mellin(payload, args):
    f = from_json(_require(payload, "function", "mellin"))
    report = {"kind": "mellin", "points": []}
    for pt in payload.get("points", []):
        z = complex(*_pair(pt, "mellin point")) if isinstance(pt, list) else complex(pt)
        r = mellin(f, z)
        report["points"].append(
            {
                "z": _cnum(z),
                "value": None if r.value is None else _cnum(r.value),
                "poles": [{"location": _cnum(p.location), "order": p.order} for p in r.poles],
            }
        )
    if "finitePartAt" in payload:
        z0 = float(payload["finitePartAt"])
        report["finitePart"] = {"z": z0, "value": _cnum(mellin_finite_part(f, z0))}
    return report, None


def _run_substitution(payload, args):
    f = from_json(_require(payload, "function", "substitution"))
    ts = [float(t) for t in _require(payload, "t", "substitution")]
    base = reg_integral(f) if ts else None
    rows = []
    for t in ts:
        scaled = scaling_rule(f, t, base)
        direct = reg_integral(rescale(f, t))
        rows.append(
            {
                "t": t,
                "value": _cnum(scaled),
                "rescaledValue": _cnum(direct),
                "agreement": abs(scaled - direct),
            }
        )
    return {"kind": "substitution", "values": rows}, None


def _sigma_from_json(d: dict) -> SigmaFunction:
    if "expr" not in _object(d, "sigma"):
        raise SpecError("sigma spec needs an 'expr' in variables x, zeta")
    terms = []
    for item in d.get("terms", []):
        expo = complex(*_pair(item["exponent"], "term exponent"))
        coeffs = tuple(from_json(c, "term coefficient") for c in item["coeffs"])
        terms.append(SigmaTerm(expo, coeffs))
    return sigma_from_expression(
        d["expr"],
        order=int(_require(d, "order", "sigma")),
        terms=terms,
        log_bound=int(d.get("logBound", 0)),
        x_support=_pair(d["xSupport"], "xSupport") if "xSupport" in d else None,
        zeta_vanishes_below=d.get("zetaVanishesBelow"),
    )


def _diagnostics_json(diag) -> dict:
    return {
        "ok": diag.ok,
        "growthModel": diag.growth_model,
        "growthExponent": diag.growth_exponent,
        "notes": list(diag.notes),
        "boundaryIntegrals": {str(j): v for j, v in diag.boundary_integrals.items()},
        "remainderConstants": {
            f"{J},{K}": c for (J, K), c in diag.remainder_constants.items()
        },
    }


def _run_sal(payload, args):
    sigma = _sigma_from_json(_require(payload, "sigma", "sal"))
    rep = asymptotic_expansion(sigma)
    report = {"kind": "sal", "expansion": _expansion_json(rep.expansion), "notes": list(rep.notes)}
    if payload.get("diagnostics", False):  # after the expansion, before the verification
        diagnostics = check_hypotheses(sigma)
        if not diagnostics.ok:
            raise HypothesisFailure(diagnostics)
        report["diagnostics"] = _diagnostics_json(diagnostics)
    if payload.get("verifyGrid"):
        vr = verify_expansion(rep.expansion, sigma, [float(z) for z in payload["verifyGrid"]])
        report["verification"] = {
            "rows": [list(r) for r in vr.rows],
            "decayExponent": vr.decay_exponent,
            "logPower": vr.log_power,
            "maxResidual": vr.max_residual,
        }
    return report, None


def _run_separable(payload, args):
    phi = _require(payload, "phi", "separable")
    f = from_json(_require(payload, "f", "separable"), "f")
    q = float(_require(payload, "q", "separable"))
    mode = payload.get("mode", "scale")
    if mode == "scale":
        expn = separable_expansion(phi, f, q)
    elif mode == "inverse":
        expn = corollary_expansion(phi, f, q)
    else:
        raise SpecError(f"separable mode must be 'scale' or 'inverse', not {mode!r}")
    return {"kind": "separable", "mode": mode, "expansion": _expansion_json(expn)}, None


def _run_pushforward(payload, args):
    dspec = _object(_require(payload, "density", "pushforward"), "density")
    box = tuple(float(v) for v in dspec.get("box", (1.0, 1.0)))
    u = density_from_expression(_require(dspec, "expr", "density"), box)
    grid = _parse_grid(payload.get("tGrid"), args.grid)
    pred = None
    if "predictionOrder" in payload:
        pred = sal_prediction_smooth(u, int(payload["predictionOrder"]))
    rows = []
    for t in grid:
        value = push_xy(u, t)
        p = pred(t).real if pred is not None else None
        rows.append((t, value, p, None if p is None else abs(value - p)))
    report = {
        "kind": "pushforward",
        "box": list(box),
        "grid": grid,
        "values": [r[1] for r in rows],
    }
    if pred is not None:
        report["prediction"] = _expansion_json(pred)
        report["maxResidual"] = max(r[3] for r in rows)
    if "fitBasis" in payload:
        fit = fit_asymptotics(
            [(t, v) for t, v, _, _ in rows],
            [(a, int(k)) for a, k in (_pair(b, "fitBasis entry") for b in payload["fitBasis"])],
        )
        report["fit"] = {
            "basis": [list(b) for b in fit.basis],
            "coefficients": list(fit.coefficients),
            "residual": fit.residual,
            "condition": fit.condition,
        }
    return report, rows


def _run_indexset(payload, args):
    N = float(args.truncate if args.truncate is not None else payload.get("truncation", DEFAULT_TRUNCATION))
    if not math.isfinite(N):
        raise SpecError(f"indexset truncation must be finite, got {N}")
    op = _require(payload, "operation", "indexset")
    sets = {
        name: IndexSet.from_entries([IndexEntry(float(a), float(b), int(k)) for a, b, k in triples], N)
        for name, triples in _object(payload.get("sets", {}), "sets").items()
    }
    report = {"kind": "indexset", "operation": op, "truncation": N}

    def named(name):
        if name not in sets:
            raise SpecError(f"indexset args name the set {name!r}, but sets defines only {sorted(sets)}")
        return sets[name]

    if op == "complete":
        (name,) = _require(payload, "args", "indexset")
        report["result"] = complete(named(name).entries, N).as_triples()
    elif op == "extendedUnion":
        a, b = _require(payload, "args", "indexset")
        report["result"] = extended_union(named(a), named(b)).as_triples()
    elif op in ("push", "integrability"):
        mspec = _require(payload, "matrix", "indexset")
        matrix = ExponentMatrix(
            tuple(mspec["facesX"]),
            tuple(mspec["facesY"]),
            tuple(tuple(int(v) for v in row) for row in mspec["e"]),
        )
        if op == "push":
            res = push_index_family(matrix, sets, N)
            report["result"] = {H: s.as_triples() for H, s in res.family.items()}
            report["notes"] = list(res.notes)
        else:
            rep = check_integrability(sets, matrix)
            report["result"] = {
                "ok": rep.ok,
                "violations": [[G, (e.re, e.im, e.k)] for G, e in rep.violations],
            }
    else:
        raise SpecError(f"unknown indexset operation {op!r}")
    return report, None


_HANDLERS = {
    "reginteg": _run_reginteg,
    "mellin": _run_mellin,
    "substitution": _run_substitution,
    "sal": _run_sal,
    "separable": _run_separable,
    "pushforward": _run_pushforward,
    "indexset": _run_indexset,
}
KINDS = tuple(_HANDLERS)


def _strict_json(v):
    """``v`` with each non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(v, float):
        return v if math.isfinite(v) else str(float(v))
    if isinstance(v, dict):
        return {k: _strict_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict_json(x) for x in v]
    return v


def _write_report(report: dict, out_dir: Path, stem: str, rows, args) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.report.json"
    # one encode and one write: json.dump would stream the indented text
    # through thousands of small writes
    path.write_text(json.dumps(_strict_json(report), indent=2, sort_keys=True, allow_nan=False) + "\n")
    if rows is not None and not args.json_only:
        digits = args.precision
        csv_path = out_dir / f"{stem}.samples.csv"
        with csv_path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "value", "prediction", "residual"])
            for t, v, p, r in rows:
                w.writerow(
                    [
                        f"{t:.{digits}g}",
                        f"{v:.{digits}g}",
                        "" if p is None else f"{p:.{digits}g}",
                        "" if r is None else f"{r:.{digits}g}",
                    ]
                )
    if not args.json_only:
        print(f"report written to {path}")


def _cmd_run(args) -> int:
    spec_path = Path(args.spec)
    try:
        spec = json.loads(spec_path.read_text())
    except OSError as e:
        print(f"cannot read spec: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"spec is not valid JSON: {e}", file=sys.stderr)
        return 2

    out_dir = Path(args.out) if args.out else spec_path.parent
    stem = spec_path.stem
    code, failure = 0, None
    try:
        if not isinstance(spec, dict):
            raise SpecError(f"a spec is a JSON object, not {type(spec).__name__}")
        kind = spec.get("kind")
        if kind not in KINDS:
            raise SpecError(f"spec kind must be one of {KINDS}, got {kind!r}")
        report, rows = _HANDLERS[kind](spec, args)
    except HypothesisFailure as e:
        report = {
            "kind": spec.get("kind"),
            "error": str(e),
            "diagnostics": _diagnostics_json(e.diagnostics),
        }
        rows, code, failure = None, 4, f"hypothesis diagnostics failed: {e}"
    except (
        QuadratureError,
        DivergentIntegral,
        MissingExpansionData,
        PoleError,
        ex.EvalError,
        ex.DiffError,
        OverflowError,
        ZeroDivisionError,
    ) as e:
        # numerical failures first: some of them subclass ValueError
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (SpecError, KeyError, TypeError, ValueError, ex.ExprSyntaxError) as e:
        print(f"invalid spec: {e}", file=sys.stderr)
        return 2
    try:
        _write_report(report, out_dir, stem, rows, args)
    except OSError as e:
        print(f"cannot write report: {e}", file=sys.stderr)
        return 2
    if failure is not None:
        print(failure, file=sys.stderr)
    return code


def _cmd_selftest(args) -> int:
    numbers = None
    if args.filter:
        try:
            numbers = [int(s) for s in args.filter.split(",")]
        except ValueError:
            print("--filter takes a comma-separated list of criterion numbers", file=sys.stderr)
            return 2
        known = {n for n, _, _ in CRITERIA}
        bad = [n for n in numbers if n not in known]
        if bad:
            print(f"unknown criterion numbers: {bad}", file=sys.stderr)
            return 2
    results = run_all(numbers)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"{r.number:3d}  {r.name:<{width}}  {mark}  {r.seconds:6.2f}s  {r.details}")
    print("result:", "all criteria passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main call and shared by the later ones."""
    parser = argparse.ArgumentParser(
        prog="asympush",
        description="regularized integrals, singular expansions and push-forwards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON problem spec")
    p_run.add_argument("spec", help="path to the problem spec (JSON)")
    p_run.add_argument("--out", help="output directory (default: next to the spec)")
    p_run.add_argument("--precision", type=int, default=12, help="CSV significant digits")
    p_run.add_argument("--truncate", type=float, default=None, help="index-set truncation override")
    p_run.add_argument("--grid", help="t grid a:b:points[:geometric|linear]")
    p_run.add_argument("--json-only", action="store_true", help="write only the JSON report")
    p_run.set_defaults(fn=_cmd_run)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--filter", help="comma-separated criterion numbers")
    p_self.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
