"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as W  # noqa: E402
from perfbench.run import check, import_asympush, run_loop  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def asp():
    return import_asympush()


def _inputs(workload, seed, tmp_path=None):
    return [(op.kind, op.args, op.once) for op in W.BUILDERS[workload](seed, tmp_path)]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _inputs(workload, 3) == _inputs(workload, 3)
    assert _inputs(workload, 3) != _inputs(workload, 4)


def test_spec_files_hold_the_generated_specs(tmp_path):
    import json

    for op in W.spec_mix(5, tmp_path)[1:]:
        assert json.loads(Path(op.args["path"]).read_text()) == op.args["spec"]


def _cheap(ops, kinds, n):
    """The first n operations of the given kinds; for specs, one per spec kind."""
    picked, seen = [], set()
    for op in ops:
        label = op.args["spec"]["kind"] if op.kind == "spec" else None
        if op.kind in kinds and (label is None or label not in seen):
            picked.append(op)
            seen.add(label)
    return picked[:n]


def _case(workload, kinds, n, tmp_path):
    ops = _cheap(W.BUILDERS[workload](7, tmp_path), kinds, n)
    memo: dict = {}
    return ops, [W.KINDS[op.kind].reference(op, memo) for op in ops]


CASES = [
    ("push-sweep", {"push", "fit"}, 9),
    ("spec-mix", {"spec"}, 7),
    ("hard-depth", {"union", "condc", "pushix"}, 4),
]


def _perturb(result):
    """The same result with its first number moved by one part in 1e6 (plus 1e-6)."""
    if isinstance(result, float):
        return result * (1 + 1e-6) + 1e-6
    if isinstance(result, list) and result and isinstance(result[0], float):
        return [_perturb(result[0])] + result[1:]
    if isinstance(result, list):  # index-set triples
        (re, im, k), *rest = result
        return [(re + 0.5, im, k)] + rest
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[1], dict):  # spec report
        code, rep, size = result
        rep = json_copy(rep)
        parent, key = {
            "reginteg": (rep, "value"),
            "mellin": (rep.get("points", [{}])[0], "value"),
            "substitution": (rep.get("values", [{}])[0], "value"),
            "sal": (rep.get("expansion"), "terms"),
            "separable": (rep.get("expansion"), "terms"),
            "pushforward": (rep, "values"),
            "indexset": (rep, "result"),
        }[rep["kind"]]
        parent[key] = _perturb_json(parent[key])
        return code, rep, size
    if isinstance(result, tuple) and isinstance(result[0], dict):  # condition C values
        values, bounded, agree = result
        key = next(k for k, v in values.items() if math.isfinite(v))
        return {**values, key: values[key] * (1 + 1e-6) + 1e-6}, bounded, agree
    raise TypeError(f"no perturbation for {type(result)}")


def json_copy(obj):
    import json

    return json.loads(json.dumps(obj))


def _perturb_json(node):
    """Move the first float, or flip the first boolean, found in a JSON value."""
    if isinstance(node, bool):
        return not node
    if isinstance(node, float):
        return node * (1 + 1e-6) + 1e-6 if node else 0.5
    if isinstance(node, list):
        for i, item in enumerate(node):
            new = _perturb_json(item)
            if new != item:
                return node[:i] + [new] + node[i + 1:]
    if isinstance(node, dict):
        for key, item in node.items():
            new = _perturb_json(item)
            if new != item:
                return {**node, key: new}
    return node


@pytest.mark.parametrize("workload,kinds,n", CASES)
def test_outputs_pass_and_a_perturbed_output_fails(asp, tmp_path, workload, kinds, n):
    ops, refs = _case(workload, kinds, n, tmp_path)
    records = run_loop(asp, ops, 0.0, 1, max_ops=len(ops))
    failures, worst = check(ops, refs, records)
    assert failures == [] and worst <= 1.0
    for i, (idx, lat, result, err, cal) in enumerate(records):
        bad = records[:i] + [(idx, lat, _perturb(result), err, cal)] + records[i + 1:]
        failures, _ = check(ops, refs, bad)
        assert [f[0] for f in failures] == [i], (ops[idx].kind, ops[idx].args)


def test_a_raising_operation_is_a_failure(asp):
    op = W.Op("push", {"density": 0, "index": 0, "expr": "log(x-5)", "box": [1.0, 1.0], "t": 0.5})
    records = run_loop(asp, [op], 0.0, 1, max_ops=1)
    failures, _ = check([op], [1.0], records)
    assert len(failures) == 1 and "EvalError" in failures[0][2]


@pytest.mark.parametrize("workload,kinds,n", CASES)
def test_traced_run_repeats_the_untraced_run(asp, tmp_path, workload, kinds, n):
    ops, _ = _case(workload, kinds, n, tmp_path)
    plain = run_loop(asp, ops, 0.0, 1, max_ops=2 * len(ops))
    tracer = Tracer(asp)
    originals = (asp.expressions.evaluate, asp.asymfun.quad_01, asp.pushforward.push_xy, asp.cli.main)
    tracer.install()
    try:
        traced = run_loop(asp, ops, 0.0, 1, max_ops=2 * len(ops), tracer=tracer)
    finally:
        tracer.uninstall()
    assert (asp.expressions.evaluate, asp.asymfun.quad_01, asp.pushforward.push_xy, asp.cli.main) == originals
    assert [r[0] for r in plain] == [r[0] for r in traced]
    assert [r[2] for r in plain] == [r[2] for r in traced]
    assert [r[3] for r in plain] == [r[3] for r in traced] == [None] * len(plain)
    metrics = tracer.layer_metrics()
    assert metrics["expressions.evaluate.calls"]["value"] > 0
    assert all(s[4] is None or s[4] < s[0] for s in tracer.spans)  # parents open first


def test_tracer_counts_outermost_calls_and_consumer_namespaces(asp):
    tracer = Tracer(asp)
    tracer.install()
    try:
        node = asp.expressions.parse("exp(-x^2)*(1+x)")
        d = asp.expressions.diff(asp.expressions.diff(node, "x"), "x")
        asp.expressions.evaluate(d, {"x": 0.3})
        f = asp.asymfun.schwartz("exp(-x)", n_taylor=3)
        asp.asymfun.reg_integral(f)  # calls quad_01 and quad_1inf through asymfun's own names
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["expressions.diff.calls"]["value"] == 2 + 4  # two here, four inside schwartz
    assert m["expressions.evaluate.calls"]["value"] >= 1 + 4
    assert m["quadrature.calls"]["value"] == 2
    assert m["quadrature.integrand_evals"]["value"] > 0
    assert m["asymfun.schwartz.self_s"]["value"] > 0
    names = {s[1] for s in tracer.spans}
    assert {"asymfun.reg_integral", "quadrature", "asymfun.schwartz"} <= names


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "push-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
