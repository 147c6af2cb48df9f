"""Seeded inputs, operations and correctness checks of the three workloads.

A workload is a list of :class:`Op`.  ``args`` holds exactly what the
program receives (expression text, boxes, t grids, spec paths); ``model``
holds the matching mpmath callables the references are computed from, and
never reaches the program.  Every cost-relevant choice is stratified (each
template and size appears a fixed number of times per pass), so that the seed
moves parameters, not the mix.

Each operation kind has four functions:

- ``run(asp, op, state)``: the timed call into asympush; ``asp`` holds the
  freshly imported modules and ``state`` carries values between operations
  of one pass (a fit reads the push-forward samples of its density);
- ``after(op, raw)``: untimed extraction of comparable numbers;
- ``reference(op, memo)``: the independent reference, computed once per seed;
- ``check(op, result, ref)``: ``(error ratio, reason or None)``.  An
  operation fails when the ratio exceeds 1 or a reason is given.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import mpmath as mp

from . import oracle

WORKLOADS = ("push-sweep", "spec-mix", "hard-depth")

# Tolerances.  push_xy and the fit take the library default quadrature
# tolerance; regularized integrals, Mellin values and expansion coefficients
# are held to the 1e-8 of acceptance criteria 1-3; finite parts to the 1e-6
# of criterion 4; Taylor coefficients to 1e-10 as in criterion 5.
PUSH_TOL = 1e-10
REG_TOL = 1e-8
FINITE_PART_TOL = 1e-6
TAYLOR_TOL = 1e-10
FIT_BASIS = ((0.0, 1), (0.0, 0), (1.0, 1), (1.0, 0))


@dataclass
class Op:
    kind: str
    args: dict
    model: Any = field(default=None, compare=False, repr=False)
    once: bool = False  # issued in the first pass of a loop only


def _as_is(op, raw):
    return raw


@dataclass(frozen=True)
class Kind:
    run: Callable
    reference: Callable
    check: Callable
    after: Callable = _as_is


def _num(rng: random.Random, lo: float, hi: float) -> float:
    """A parameter rounded to three decimals, so its text and float agree."""
    return round(rng.uniform(lo, hi), 3)


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n draws, one from each of n equal slices of [lo, hi], in random order."""
    w = (hi - lo) / n
    vals = [round(lo + w * (i + rng.random()), 3) for i in range(n)]
    rng.shuffle(vals)
    return vals


def _rel(err: float, ref: float, tol: float) -> float:
    return oracle.ratio(err, tol * max(1.0, abs(ref)))


def _worst(pairs, tol: float) -> float:
    """Worst error ratio over (value, reference) pairs."""
    return max((_rel(abs(complex(v) - complex(r)), abs(complex(r)), tol) for v, r in pairs), default=0.0)


# ---------------------------------------------------------------------------
# smooth densities on a box: atoms of the push-sweep grammar


def _atom_exp(r):
    a, b = _num(r, 0.3, 2.0), _num(r, 0.3, 2.0)
    return f"exp(-{a}*x-{b}*y)", lambda x, y: mp.exp(-a * x - b * y)


def _atom_poly(r):
    a, b, c = _num(r, 0.1, 1.5), _num(r, 0.1, 1.5), _num(r, 0.1, 1.5)
    return f"(1+{a}*x+{b}*x*y+{c}*y^2)", lambda x, y: 1 + a * x + b * x * y + c * y**2


def _atom_cos(r):
    a, b = _num(r, 0.2, 1.5), _num(r, 0.2, 1.5)
    return f"cos({a}*x-{b}*y)", lambda x, y: mp.cos(a * x - b * y)


def _atom_sqrt(r):
    a, b = _num(r, 0.2, 1.5), _num(r, 0.2, 1.5)
    return f"sqrt(1+{a}*x+{b}*y)", lambda x, y: mp.sqrt(1 + a * x + b * y)


def _atom_log(r):
    # b * Y < 2 on every box (Y <= 2), so the argument stays positive
    a, b = _num(r, 0.2, 1.5), _num(r, 0.1, 0.9)
    return f"log(2+{a}*x-{b}*y)", lambda x, y: mp.log(2 + a * x - b * y)


def _atom_rational(r):
    a, b, c = _num(r, 0.1, 1.5), _num(r, 0.1, 1.5), _num(r, 0.1, 1.5)
    return (
        f"(1+{a}*x)/(1+{b}*y+{c}*x^2)",
        lambda x, y: (1 + a * x) / (1 + b * y + c * x**2),
    )


ATOMS = {
    "exp": _atom_exp,
    "poly": _atom_poly,
    "cos": _atom_cos,
    "sqrt": _atom_sqrt,
    "log": _atom_log,
    "rational": _atom_rational,
}


def _densities(rng: random.Random, rounds: int) -> list[tuple[str, Callable]]:
    """6 * rounds densities, each a product or sum of two atoms of distinct kinds.

    Each round pairs every atom kind with a random derangement of the kinds
    and uses four products and two sums, so every kind appears equally often.
    """
    kinds = list(ATOMS)
    out = []
    for _ in range(rounds):
        partner = kinds[:]
        while any(a == b for a, b in zip(kinds, partner)):
            rng.shuffle(partner)
        ops = ["*", "*", "*", "*", "+", "+"]
        rng.shuffle(ops)
        for k1, k2, op in zip(kinds, partner, ops):
            (t1, f1), (t2, f2) = ATOMS[k1](rng), ATOMS[k2](rng)
            if op == "*":
                out.append((f"{t1}*{t2}", lambda x, y, f1=f1, f2=f2: f1(x, y) * f2(x, y)))
            else:
                out.append((f"{t1}+{t2}", lambda x, y, f1=f1, f2=f2: f1(x, y) + f2(x, y)))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# push-sweep


PUSH_DENSITIES = 24
PUSH_T_POINTS = 8


def push_sweep(seed: int, workdir: Path | None = None) -> list[Op]:
    rng = random.Random(f"push-sweep:{seed}")
    ops = []
    for d, (text, um) in enumerate(_densities(rng, PUSH_DENSITIES // 6)):
        X, Y = _num(rng, 0.5, 2.0), _num(rng, 0.5, 2.0)
        top = 0.95 * X * Y
        grid = [1e-8 * (top / 1e-8) ** (i / (PUSH_T_POINTS - 1)) for i in range(PUSH_T_POINTS)]
        for i, t in enumerate(grid):
            ops.append(Op("push", {"density": d, "index": i, "expr": text, "box": [X, Y], "t": t}, um))
        fit_args = {"density": d, "grid": grid, "basis": [list(b) for b in FIT_BASIS]}
        ops.append(Op("fit", fit_args, (um, text, X, Y)))
    return ops


def _run_push(asp, op, state):
    a = op.args
    u = asp.pushforward.density_from_expression(a["expr"], tuple(a["box"]))
    v = asp.pushforward.push_xy(u, a["t"])
    state[(a["density"], a["index"])] = v
    return v


def _memo_push(memo, um, expr, X, Y, t):
    key = (expr, X, Y, t)
    if key not in memo:
        memo[key] = oracle.push_xy(um, X, Y, t)
    return memo[key]


def _ref_push(op, memo):
    a = op.args
    return _memo_push(memo, op.model, a["expr"], a["box"][0], a["box"][1], a["t"])


def _check_push(op, v, ref):
    return _rel(abs(v - ref), ref, PUSH_TOL), None


def _run_fit(asp, op, state):
    a = op.args
    samples = [(t, state[(a["density"], i)]) for i, t in enumerate(a["grid"])]
    fit = asp.pushforward.fit_asymptotics(samples, [tuple(b) for b in a["basis"]])
    return list(fit.coefficients)


def _ref_fit(op, memo):
    um, expr, X, Y = op.model
    grid, basis = op.args["grid"], [tuple(b) for b in op.args["basis"]]
    vals = [_memo_push(memo, um, expr, X, Y, t) for t in grid]
    coef = oracle.lstsq_fit(grid, vals, basis)
    tols = [PUSH_TOL * (1 + abs(v)) for v in vals]
    return coef, oracle.fit_tolerance(grid, tols, basis, coef)


def _check_fit(op, coef, ref):
    want, tol = ref
    err = max(abs(c - w) for c, w in zip(coef, want))
    return oracle.ratio(err, tol), None


# ---------------------------------------------------------------------------
# spec-mix: JSON specs through the command line


def _power_exp_function(a: float, b: float, k: int, terms: int) -> dict:
    """x^a ln^k x e^(-b x) with its Taylor data at 0 (nothing at infinity)."""
    zero = []
    for m in range(terms):
        c = (-b) ** m / math.factorial(m)
        coeffs = [[0.0, 0.0]] * k + [[c, 0.0]]
        zero.append({"exponent": [a + m, 0.0], "logCoeffs": coeffs})
    expr = f"x^({a})*exp(-{b}*x)" + ("*log(x)" * k)
    return {
        "expr": expr,
        # half a unit above the last term, so no pole sits on the strip edge
        "zero": {"order": a + terms + 0.5, "terms": zero},
        "infinity": {"order": 40.0, "terms": []},
    }


def _exponents(rng: random.Random, n: int) -> list[float]:
    """Non-integer exponents in (-2.6, 0.9), each at least 0.15 from an integer."""
    out = []
    for v in _strata(rng, -2.6, 0.9, n):
        if abs(v - round(v)) < 0.15:
            v = round(round(v) + math.copysign(0.15, v - round(v) or 1.0), 3)
        out.append(v)
    return out


def _spec_reginteg(rng, n):
    specs = []
    for i, a in enumerate(_exponents(rng, n)):
        b, k = _num(rng, 0.5, 2.0), i % 2
        specs.append(({"kind": "reginteg", "function": _power_exp_function(a, b, k, 8)}, (a, b, k)))
    return specs


def _spec_mellin(rng, n):
    """Points with -0.25 < a + Re z < 1.5 and a finite part where a + z0 = 0 or 0.5.

    The left end keeps out the region where the subtracted quadrature raises
    QuadratureError today (a + Re z below about -0.25 for k = 1 and -0.75 for
    k = 0, at Im z in [0.5, 2]); the finite part sits on the simple
    pole for k = 0 and on a regular point for the double poles of k = 1,
    since the symmetric-average method cancels odd-order parts only.
    """
    specs = []
    for i, a in enumerate(_exponents(rng, n)):
        b, k = _num(rng, 0.5, 2.0), i % 2
        points = [[round(-a + rng.uniform(-0.25, 1.5), 3), _num(rng, 0.5, 2.0)] for _ in range(3)]
        spec = {
            "kind": "mellin",
            "function": _power_exp_function(a, b, k, 8),
            "points": points,
            "finitePartAt": -a + 0.5 * k,
        }
        specs.append((spec, (a, b, k)))
    return specs


def _spec_substitution(rng, n):
    """1/(c+x) with c in [1, 2] and t in [0.1, 10], so t/c <= 10.

    Acceptance criterion 3 holds the library to 1e-8 up to t/c = 10; beyond
    it the rescaled integral misses 1e-8 (2.6e-8 at c = 0.53, t = 9.5).
    """
    specs = []
    for c in _strata(rng, 1.0, 2.0, n):
        depth = 8
        zero = [
            {"exponent": [float(m), 0.0], "logCoeffs": [[(-1.0) ** m * c ** (-m - 1), 0.0]]}
            for m in range(depth)
        ]
        inf = [
            {"exponent": [-float(m), 0.0], "logCoeffs": [[(-1.0) ** (m + 1) * c ** (m - 1), 0.0]]}
            for m in range(1, depth)
        ]
        fn = {
            "expr": f"1/({c}+x)",
            "zero": {"order": float(depth), "terms": zero},
            "infinity": {"order": depth - 1.0, "terms": inf},
        }
        ts = sorted(round(10 ** rng.uniform(-1, 1), 4) for _ in range(3))
        specs.append(({"kind": "substitution", "function": fn, "t": ts}, c))
    return specs


def _spec_sal(rng, n):
    specs = []
    for i in range(n):
        a, b, c = _num(rng, 0.5, 1.5), _num(rng, 0.5, 1.5), _num(rng, 0.0, 1.0)
        p = 1 + i % 3
        spec = {
            "kind": "sal",
            "sigma": {"expr": f"(1+{c}*x)*exp(-{a}*x)*exp(-{b}*zeta)", "order": p},
            "verifyGrid": [4, 8, 16, 32, 64],
            "diagnostics": True,
        }
        specs.append((spec, (a, b, c, p)))
    return specs


def _spec_separable(rng, n):
    specs = []
    for i in range(n):
        b, c = _num(rng, 0.5, 2.0), _num(rng, 0.5, 2.0)
        zero = [
            {"exponent": [m - 1.0, 0.0], "logCoeffs": [[(-b) ** m / math.factorial(m), 0.0]]}
            for m in range(8)
        ]
        f = {
            "expr": f"exp(-{b}*x)/x",
            "zero": {"order": 7.0, "terms": zero},
            "infinity": {"order": 40.0, "terms": []},
        }
        mode = ("scale", "inverse")[i % 2]
        spec = {"kind": "separable", "phi": f"exp(-{c}*x)", "f": f, "q": 1.5, "mode": mode}
        specs.append((spec, (b, c, mode)))
    return specs


def _spec_pushforward(rng, n):
    specs = []
    for i in range(n):
        a, b = _num(rng, 0.5, 1.5), _num(rng, 0.5, 1.5)
        c, d = _num(rng, 0.1, 1.0), _num(rng, 0.1, 1.0)
        X, Y = _num(rng, 0.7, 1.5), _num(rng, 0.7, 1.5)
        grid = [1e-6 * (0.5 * X * Y / 1e-6) ** (j / 7) for j in range(8)]
        expr = f"exp(-{a}*x-{b}*y)*(1+{c}*x+{d}*y)"
        spec = {
            "kind": "pushforward",
            "density": {"expr": expr, "box": [X, Y]},
            "tGrid": grid,
            "predictionOrder": i % 3,
            "fitBasis": [list(bb) for bb in FIT_BASIS],
        }

        def um(x, y, a=a, b=b, c=c, d=d):
            return mp.exp(-a * x - b * y) * (1 + c * x + d * y)

        specs.append((spec, um))
    return specs


_FRACTIONS = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(-1, 2))


def _generators(rng, count: int, max_k: int) -> list[list]:
    """count generators with distinct exponents and log powers cycling 0..max_k."""
    return [[float(f), 0.0, i % (max_k + 1)] for i, f in enumerate(rng.sample(_FRACTIONS, count))]


def _spec_indexset(rng, n):
    """Truncations from equal slices of [4, 10]; push, the costliest, takes the lowest.

    So the push stays among the cheap specs, and the median spec of a pass
    does not move with its truncation.
    """
    specs = []
    truncs = sorted(round(v) for v in _strata(rng, 4.0, 10.0, n))
    for i, N in enumerate(truncs):
        op = ("push", "complete", "extendedUnion", "integrability")[i % 4]
        spec = {"kind": "indexset", "operation": op, "truncation": N}
        if op == "complete":
            spec["sets"] = {"A": _generators(rng, 3, 2)}
            spec["args"] = ["A"]
        elif op == "extendedUnion":
            spec["sets"] = {"A": _generators(rng, 3, 1), "B": _generators(rng, 3, 1)}
            spec["args"] = ["A", "B"]
        else:
            spec["sets"] = {G: _generators(rng, 2, 1) for G in ("A", "B", "C")}
            e = [[1], [2], [3]] if op == "push" else [[1], [0], [1]]
            spec["matrix"] = {"facesX": ["A", "B", "C"], "facesY": ["T"], "e": e}
        specs.append((spec, None))
    return specs


SPEC_KINDS = {
    "reginteg": _spec_reginteg,
    "mellin": _spec_mellin,
    "substitution": _spec_substitution,
    "sal": _spec_sal,
    "separable": _spec_separable,
    "pushforward": _spec_pushforward,
    "indexset": _spec_indexset,
}
SPECS_PER_KIND = 4


def spec_mix(seed: int, workdir: Path | None = None) -> list[Op]:
    """One selftest plus SPECS_PER_KIND specs of every kind; writes the spec files."""
    rng = random.Random(f"spec-mix:{seed}")
    ops = [Op("selftest", {}, once=True)]
    for kind, make in SPEC_KINDS.items():
        for i, (spec, model) in enumerate(make(rng, SPECS_PER_KIND)):
            ops.append(Op("spec", {"name": f"{kind}{i}", "spec": spec}, model))
    head, tail = ops[:1], ops[1:]
    rng.shuffle(tail)
    if workdir is not None:
        (workdir / "specs").mkdir(parents=True, exist_ok=True)
        for op in tail:
            path = workdir / "specs" / f"{op.args['name']}.json"
            path.write_text(json.dumps(op.args["spec"]))
            op.args["path"] = str(path)
            op.args["out"] = str(workdir / "reports")
    return head + tail


def _run_spec(asp, op, state):
    a = op.args
    return asp.cli.main(["run", a["path"], "--out", a["out"], "--json-only"])


def _after_spec(op, code):
    path = Path(op.args["out"]) / f"{op.args['name']}.report.json"
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return code, None, 0
    path.unlink()
    return code, json.loads(data), len(data)


def _cnum(v) -> complex:
    return complex(v[0], v[1])


def _terms(expansion: dict) -> dict:
    """{(Re exponent, log power): coefficient} of an expansion in a report."""
    return {
        (t["exponent"][0], i): _cnum(c)
        for t in expansion["terms"]
        for i, c in enumerate(t["logCoeffs"])
    }


def _term_pairs(got: dict, want: dict) -> list:
    """(value, reference) pairs; a term the reference lacks must be zero."""
    return [(got.get(key, 0.0), w) for key, w in want.items()] + [
        (v, 0.0) for key, v in got.items() if key not in want
    ]


def _ref_spec(op, memo):
    spec, model = op.args["spec"], op.model
    kind = spec["kind"]
    if kind == "reginteg":
        a, b, k = model
        return oracle.gamma_moment(a, b, k)
    if kind == "mellin":
        a, b, k = model
        vals = [oracle.mellin_gamma(a, b, complex(*z), k) for z in spec["points"]]
        fp = oracle.mellin_finite_part(a, b, spec["finitePartAt"], k)
        poles = sorted(-(a + m) for m in range(8))
        return vals, fp, poles, k + 1
    if kind == "substitution":
        c = model
        return [(math.log(t) - math.log(c)) / t for t in spec["t"]]
    if kind == "sal":
        a, b, c, p = model
        coef = {n: (-a) ** (n - 1) / b**n + (c * (n - 1) * (-a) ** (n - 2) / b**n if n >= 2 else 0.0)
                for n in range(1, p + 1)}
        direct = [1 / (a + b * z) + c / (a + b * z) ** 2 for z in spec["verifyGrid"]]
        return coef, direct
    if kind == "separable":
        b, c, mode = model
        g = -float(mp.euler) - math.log(b)
        if mode == "scale":
            return {(0.0, 0): g, (1.0, 0): -c / b}
        return {(1.0, 0): g, (1.0, 1): 1.0, (2.0, 0): -c / b}
    if kind == "pushforward":
        X, Y = spec["density"]["box"]
        vals = [oracle.push_xy(model, X, Y, t) for t in spec["tGrid"]]
        pred = oracle.sal_prediction(model, X, Y, spec["predictionOrder"])
        basis = [tuple(bb) for bb in spec["fitBasis"]]
        coef = oracle.lstsq_fit(spec["tGrid"], vals, basis)
        tols = [PUSH_TOL * (1 + abs(v)) for v in vals]
        return vals, pred, coef, oracle.fit_tolerance(spec["tGrid"], tols, basis, coef)
    if kind == "indexset":
        return _ref_indexset(spec)
    raise ValueError(f"no reference for spec kind {kind!r}")


def _fr_set(triples, N):
    return {(oracle.frac(a), oracle.frac(b), int(k)) for a, b, k in triples if a < N}


def _ref_indexset(spec):
    N = spec["truncation"]
    sets = {name: _fr_set(t, N) for name, t in spec.get("sets", {}).items()}
    op = spec["operation"]
    if op == "complete":
        return oracle.as_sorted_floats(oracle.closure(sets[spec["args"][0]], N))
    if op == "extendedUnion":
        A, B = spec["args"]
        return oracle.as_sorted_floats(oracle.extended_union(sets[A], sets[B], N))
    m = spec["matrix"]
    if op == "push":
        fam = oracle.push_family(m["facesX"], m["facesY"], m["e"], sets, N)
        return {H: oracle.as_sorted_floats(s) for H, s in fam.items()}
    null = [G for G, row in zip(m["facesX"], m["e"]) if all(v == 0 for v in row)]
    return all(e[0] > 0 for G in null for e in sets[G])


def _check_spec(op, result, ref):
    code, rep, _ = result
    if code != 0 or rep is None:
        return 0.0, f"exit code {code}"
    kind = op.args["spec"]["kind"]
    if kind == "reginteg":
        return _worst([(_cnum(rep["value"]), ref)], REG_TOL), None
    if kind == "mellin":
        vals, fp, poles, order = ref
        got = [_cnum(p["value"]) for p in rep["points"]]
        r = _worst(zip(got, vals), REG_TOL)
        r = max(r, _worst([(_cnum(rep["finitePart"]["value"]), fp)], FINITE_PART_TOL))
        locs = sorted(p["location"][0] for p in rep["points"][0]["poles"])
        if len(locs) != len(poles) or any(abs(x - y) > 1e-9 for x, y in zip(locs, poles)):
            return r, f"poles {locs} differ from {poles}"
        if any(p["order"] != order for p in rep["points"][0]["poles"]):
            return r, f"pole orders differ from {order}"
        return r, None
    if kind == "substitution":
        pairs = [(row["value"][0], w) for row, w in zip(rep["values"], ref)]
        pairs += [(row["rescaledValue"][0], w) for row, w in zip(rep["values"], ref)]
        return _worst(pairs, REG_TOL), None
    if kind == "sal":
        coef, direct = ref
        pairs = _term_pairs(_terms(rep["expansion"]), {(-float(n), 0): v for n, v in coef.items()})
        pairs += [(row[1], w) for row, w in zip(rep["verification"]["rows"], direct)]
        return _worst(pairs, REG_TOL), None if rep["diagnostics"]["ok"] else "hypothesis diagnostics failed"
    if kind == "separable":
        return _worst(_term_pairs(_terms(rep["expansion"]), ref), REG_TOL), None
    if kind == "pushforward":
        vals, pred, coef, fit_tol = ref
        r = max(_rel(abs(v - w), w, PUSH_TOL) for v, w in zip(rep["values"], vals))
        want = {(float(j), m): v for (j, m), v in pred.items()}
        r = max(r, _worst(_term_pairs(_terms(rep["prediction"]), want), REG_TOL))
        err = max(abs(c - w) for c, w in zip(rep["fit"]["coefficients"], coef))
        return max(r, oracle.ratio(err, fit_tol)), None
    if kind == "indexset":
        res = rep["result"]
        if op.args["spec"]["operation"] == "integrability":
            return 0.0, None if res["ok"] == ref else f"integrability {res['ok']}, brute force {ref}"
        if op.args["spec"]["operation"] == "push":
            for H, want in ref.items():
                why = oracle.compare_triples(res[H], want)
                if why:
                    return 0.0, f"face {H}: {why}"
            return 0.0, None
        return 0.0, oracle.compare_triples(res, ref)
    return 0.0, f"unchecked spec kind {kind!r}"


def _run_selftest(asp, op, state):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = asp.cli.main(["selftest"])
    return code, buf.getvalue()


def _check_selftest(op, result, ref):
    code, text = result
    bad = [line for line in text.splitlines() if " FAIL " in line]
    if code != 0 or bad:
        return 0.0, f"selftest exit {code}: {'; '.join(bad)[:300]}"
    return 0.0, None


# ---------------------------------------------------------------------------
# hard-depth: deep Taylor data and deep index sets


def _hd_density(template: str, r):
    a, b = _num(r, 0.5, 1.5), _num(r, 0.5, 1.5)
    if template == "gauss-x":
        return f"exp(-{a}*x^2-{b}*y)", lambda x, y: mp.exp(-a * x**2 - b * y)
    if template == "gauss-y":
        return f"exp(-{a}*x-{b}*y^2)", lambda x, y: mp.exp(-a * x - b * y**2)
    return f"cos({a}*x+{b}*y)*exp(-x-y)", lambda x, y: mp.cos(a * x + b * y) * mp.exp(-x - y)


def _hd_function(template: str, r):
    a, c = _num(r, 0.5, 1.5), _num(r, 0.5, 1.5)
    if template == "gauss":
        return f"exp(-{a}*x^2)", lambda x: mp.exp(-a * x**2)
    if template == "rational":
        c = _num(r, 1.5, 3.0)
        return f"exp(-{a}*x)/({c}+x)", lambda x: mp.exp(-a * x) / (c + x)
    return f"x/(1+{c}*x)^2*exp(-{a}*x)", lambda x: x / (1 + c * x) ** 2 * mp.exp(-a * x)


# (template, J) of the sal_prediction_smooth operations in one pass
HD_SAL = (("gauss-x", 0), ("gauss-y", 0), ("cos", 0), ("cos", 1))
# (template, n_taylor) of the schwartz operations in one pass
HD_SCHWARTZ = (
    ("gauss", 8), ("gauss", 8), ("gauss", 9),
    ("rational", 6), ("rational", 6), ("rational", 7), ("rational-sq", 6),
)
# Distinct exponent classes mod 1.  The index-set operations fix how many
# classes their generators share (one), since that sets the result's size.
_CLASSES = tuple(Fraction(n, d) for n, d in ((0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)))
HD_UNIONS = (12.0, 30.0, 12)  # truncation range and count of extended_union operations
HD_PUSHES = (12.0, 18.0, 6)  # the same for push_index_family
# (template, p_max) of the condition_C_check operations in one pass
HD_CONDC = (("decaying", 1), ("decaying", 1), ("decaying", 2), ("growing", 1), ("growing", 1), ("growing", 2))


def _condc_model(template: str, r):
    """u_A, its front-face generator, and d^p/dx^p of sigma(x, zeta) = u_A(x, 1/zeta)/x."""
    a, b = _num(r, 0.5, 1.5), _num(r, 0.5, 1.5)
    if template == "decaying":
        # sigma = e^(-a x) e^(-b / zeta): bounded at the front face
        def dsig(p, x, z):
            return (-a) ** p * mp.exp(-a * x) * mp.exp(-b / z)

        return f"x*exp(-{a}*x)*exp(-{b}*y)", [1.0, 0.0, 0], dsig, False
    # sigma = e^(-a x) / zeta: the p = 0 integral grows like log at zeta = 0

    def dsig(p, x, z):
        return (-a) ** p * mp.exp(-a * x) / z

    return f"x*y*exp(-{a}*x)", [0.0, 0.0, 0], dsig, True


def hard_depth(seed: int, workdir: Path | None = None) -> list[Op]:
    rng = random.Random(f"hard-depth:{seed}")
    ops = []
    for template, J in HD_SAL:
        text, um = _hd_density(template, rng)
        box = [_num(rng, 0.8, 1.5), _num(rng, 0.8, 1.5)]
        ops.append(Op("sal", {"expr": text, "box": box, "J": J}, um))
    betas = [(-1.5, -2.5)[i % 2] for i in range(len(HD_SCHWARTZ))]
    rng.shuffle(betas)
    for (template, n), beta in zip(HD_SCHWARTZ, betas):
        text, fm = _hd_function(template, rng)
        ops.append(Op("schwartz", {"expr": text, "n_taylor": n, "beta": beta}, fm))
    for template, p_max in HD_CONDC:
        text, gen, dsig, diverges = _condc_model(template, rng)
        t_grid = [1.0, 0.5]
        ops.append(Op("condc", {"expr": text, "g2": gen, "p_max": p_max, "t_grid": t_grid}, (dsig, diverges)))
    for N in _strata(rng, *HD_UNIONS):
        c = rng.sample(_CLASSES, 5)
        A = [[float(c[0]), 0.0, 1], [float(c[1]), 0.0, 0], [float(c[2]), 0.0, 0]]
        B = [[float(c[0]), 0.0, 1], [float(c[3]), 0.0, 0], [float(c[4]), 0.0, 0]]
        ops.append(Op("union", {"A": A, "B": B, "N": round(N)}))
    for N in _strata(rng, *HD_PUSHES):
        a, b = rng.sample(_CLASSES[1:], 2)
        fam = {"A": [[0.0, 0.0, 1], [float(a), 0.0, 0]], "B": [[0.0, 0.0, 1], [float(b), 0.0, 0]]}
        ops.append(Op("pushix", {"family": fam, "e": [[2], [3]], "N": round(N)}))
    rng.shuffle(ops)
    return ops


def _run_sal(asp, op, state):
    a = op.args
    u = asp.pushforward.density_from_expression(a["expr"], tuple(a["box"]))
    return asp.pushforward.sal_prediction_smooth(u, a["J"])


def _after_sal(op, pred):
    return {(j, m): complex(pred.coefficient(float(j), m)) for j in range(op.args["J"] + 1) for m in (0, 1)}


def _ref_sal(op, memo):
    X, Y = op.args["box"]
    return oracle.sal_prediction(op.model, X, Y, op.args["J"])


def _check_sal(op, got, ref):
    return _worst([(got[key], ref[key]) for key in ref], REG_TOL), None


def _run_schwartz(asp, op, state):
    a = op.args
    f = asp.asymfun.schwartz(a["expr"], n_taylor=a["n_taylor"])
    return f, asp.asymfun.reg_integral(asp.asymfun.power_log_multiply(f, a["beta"]))


def _after_schwartz(op, raw):
    f, value = raw
    coeffs = [0.0] * (op.args["n_taylor"] + 1)
    for t in f.exp0.terms:
        coeffs[round(t.exponent.real)] = t.poly.coefficient(0).real
    return coeffs, complex(value)


def _ref_schwartz(op, memo):
    n, beta = op.args["n_taylor"], op.args["beta"]
    return oracle.taylor(op.model, n), oracle.reg_integral_halfline(op.model, beta, n)


def _check_schwartz(op, got, ref):
    (coeffs, value), (want, want_value) = got, ref
    r = _worst(zip(coeffs, want), TAYLOR_TOL)
    return max(r, _worst([(value, want_value)], REG_TOL)), None


def _run_condc(asp, op, state):
    a = op.args
    ix = asp.indexsets
    family = {
        "G1": ix.complete([(0, 0)]),
        "G2": ix.complete([(complex(a["g2"][0], a["g2"][1]), a["g2"][2])]),
        "G3": ix.complete([(0, 0)]),
    }
    d = asp.pushforward.blowup_density_from_expression(a["expr"], family)
    return asp.pushforward.condition_C_check(d, p_max=a["p_max"], t_grid=tuple(a["t_grid"]))


def _after_condc(op, rep):
    return dict(rep.values), rep.bounded, rep.agree


def _ref_condc(op, memo):
    dsig, diverges = op.model
    out = {}
    for p in range(op.args["p_max"] + 1):
        for t in op.args["t_grid"]:
            if diverges and p == 0:
                out[(p, t)] = math.inf
            else:
                out[(p, t)] = oracle.dyadic_abs_integral(lambda z, p=p, t=t: z**p * dsig(p, z * t, z))
    return out, not diverges


def _check_condc(op, got, ref):
    (values, bounded, agree), (want, want_bounded) = got, ref
    if bounded != want_bounded or not agree:
        return 0.0, f"bounded {bounded} (expected {want_bounded}), agree {agree}"
    worst = 0.0
    for key, w in want.items():
        v = values[key]
        if math.isinf(w) or math.isinf(v):
            if v != w:
                return worst, f"value at (p, t) = {key} is {v}, expected {w}"
            continue
        worst = max(worst, _rel(abs(v - w), w, REG_TOL))
    return worst, None


def _entries(ix, triples, N):
    return ix.complete([(complex(a, b), k) for a, b, k in triples], N)


def _run_union(asp, op, state):
    a, ix = op.args, asp.indexsets
    return ix.extended_union(_entries(ix, a["A"], a["N"]), _entries(ix, a["B"], a["N"])).as_triples()


def _ref_union(op, memo):
    a = op.args
    A = oracle.closure(_fr_set(a["A"], a["N"]), a["N"])
    B = oracle.closure(_fr_set(a["B"], a["N"]), a["N"])
    return oracle.as_sorted_floats(oracle.extended_union(A, B, a["N"]))


def _check_triples(op, got, ref):
    return 0.0, oracle.compare_triples(got, ref)


def _run_pushix(asp, op, state):
    a, ix = op.args, asp.indexsets
    faces = list(a["family"])
    matrix = ix.ExponentMatrix(tuple(faces), ("T",), tuple(tuple(r) for r in a["e"]))
    family = {G: _entries(ix, a["family"][G], a["N"]) for G in faces}
    res = ix.push_index_family(matrix, family, a["N"])
    return res.family["T"].as_triples()


def _ref_pushix(op, memo):
    a = op.args
    faces = list(a["family"])
    gens = {G: _fr_set(a["family"][G], a["N"]) for G in faces}
    fam = oracle.push_family(faces, ["T"], a["e"], gens, a["N"])
    return oracle.as_sorted_floats(fam["T"])


KINDS = {
    "push": Kind(_run_push, _ref_push, _check_push),
    "fit": Kind(_run_fit, _ref_fit, _check_fit),
    "spec": Kind(_run_spec, _ref_spec, _check_spec, _after_spec),
    "selftest": Kind(_run_selftest, lambda op, memo: None, _check_selftest),
    "sal": Kind(_run_sal, _ref_sal, _check_sal, _after_sal),
    "schwartz": Kind(_run_schwartz, _ref_schwartz, _check_schwartz, _after_schwartz),
    "condc": Kind(_run_condc, _ref_condc, _check_condc, _after_condc),
    "union": Kind(_run_union, _ref_union, _check_triples),
    "pushix": Kind(_run_pushix, _ref_pushix, _check_triples),
}

BUILDERS = {"push-sweep": push_sweep, "spec-mix": spec_mix, "hard-depth": hard_depth}
