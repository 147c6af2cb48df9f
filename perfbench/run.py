#!/usr/bin/env python3
"""Benchmark of asympush: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload push-sweep --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  The run

1. sets up ``SETUP_REPS`` times (a fresh import of asympush plus building the
   seeded inputs) and reports the median as ``setup_s``;
2. computes the independent references (not timed, not in ``setup_s``);
3. issues operations back to back, in whole passes over the seeded inputs,
   until ``--seconds`` have elapsed and at least ``MIN_OPS`` were issued;
4. checks every operation against its reference, outside all timed regions.

Times are reported in calibrated seconds (see calibrate.py), with the wall
times next to them in the summary and the result file.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` an
untraced loop of ``--seconds / 2`` seconds is followed by a traced loop that
repeats the same operations, and the per-layer metrics of the traced loop are
reported with the tracing overhead.  A summary goes to standard output, its
last line a JSON object; details and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 9
MIN_OPS = 100
CAL_EVERY = 0.1  # seconds between runs of the calibration kernel
CAL_WINDOW = 5  # kernel runs on each side whose median calibrates an operation
MODULES = (
    "expressions", "quadrature", "logpoly", "asymfun", "expansions", "indexsets",
    "singular_expansion", "pushforward", "acceptance", "cli",
)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("fail_frac", "ratio"),
    ("err_ratio_max", "ratio"),
    ("peak_rss_mb", "MB"),
)
# The metrics of the JSON line, each with a bound in BENCHMARK.json.  fail_frac
# is 0 on a correct run and is carried by attempted/failed; err_ratio_max
# spans decades between seeds.  Both are printed in the summary only.
BOUNDED = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")


def import_asympush() -> SimpleNamespace:
    """Import asympush afresh, so set-up pays the package's own import each time."""
    for name in [n for n in sys.modules if n == "asympush" or n.startswith("asympush.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"asympush.{m}") for m in MODULES})


def setup(workload: str, seed: int, workdir: Path):
    """(median wall seconds, median calibrated seconds, modules, operations) of SETUP_REPS set-ups."""
    from perfbench.calibrate import KERNEL_REF_S, kernel_seconds
    from perfbench.workloads import BUILDERS

    wall, kernels = [], [kernel_seconds()]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        asp = import_asympush()
        ops = BUILDERS[workload](seed, workdir)
        wall.append(time.perf_counter() - start)
        kernels.append(kernel_seconds())
    median = statistics.median(wall)
    return median, median * KERNEL_REF_S / statistics.median(kernels), asp, ops


def run_loop(asp, ops, seconds: float, min_ops: int, max_ops: int | None = None, tracer=None):
    """Issue operations in passes over ``ops``; returns records
    (index, wall seconds, result, error, calibrated seconds).

    Stops at the end of the first pass by which ``seconds`` have elapsed and
    ``min_ops`` were issued, so every run holds whole passes and the same
    mix; or after ``max_ops`` operations.  ``once`` operations are issued in
    the first pass only.  The calibration kernel runs between operations once
    CAL_EVERY seconds have passed since its last run; an operation's
    calibrated time scales its wall time by the median of the CAL_WINDOW
    kernel times on either side of it.
    """
    from perfbench.calibrate import KERNEL_REF_S, kernel_seconds
    from perfbench.workloads import KINDS

    records, kernels = [], [kernel_seconds()]
    last_cal = start = time.perf_counter()
    first, done = True, False
    while not done:
        state: dict = {}
        for idx, op in enumerate(ops):
            if op.once and not first:
                continue
            kind = KINDS[op.kind]
            if tracer is not None:
                tracer.begin_op(len(records))
            t0 = time.perf_counter()
            try:
                raw, err = kind.run(asp, op, state), None
            except Exception as e:  # a failed operation is recorded with its reason
                raw, err = None, f"{type(e).__name__}: {e}"
            lat = time.perf_counter() - t0
            result = None
            if err is None:
                try:
                    result = kind.after(op, raw)
                except Exception as e:
                    err = f"unreadable result: {type(e).__name__}: {e}"
            if tracer is not None and op.kind == "spec" and result is not None:
                tracer.add("cli.report_bytes", result[2])
            records.append((idx, lat, result, err, len(kernels)))
            if time.perf_counter() - last_cal >= CAL_EVERY:
                kernels.append(kernel_seconds())
                last_cal = time.perf_counter()
            if max_ops is not None and len(records) >= max_ops:
                done = True
                break
        else:
            first = False
            done = max_ops is None and len(records) >= min_ops and time.perf_counter() - start >= seconds
    kernels.append(kernel_seconds())
    scale = [
        KERNEL_REF_S / statistics.median(kernels[max(0, j - CAL_WINDOW): j + CAL_WINDOW + 1])
        for j in range(len(kernels))
    ]
    return [(idx, lat, result, err, lat * scale[j]) for idx, lat, result, err, j in records]


def check(ops, refs, records):
    """(failures, worst error ratio); failures list (record number, op index, reason)."""
    from perfbench.workloads import KINDS

    failures, worst = [], 0.0
    for n, (idx, _, result, err, _) in enumerate(records):
        op = ops[idx]
        if err is None:
            try:
                ratio, err = KINDS[op.kind].check(op, result, refs[idx])
            except Exception as e:
                ratio, err = math.inf, f"check raised {type(e).__name__}: {e}"
            worst = max(worst, ratio) if not math.isnan(ratio) else math.inf
            if err is None and not ratio <= 1.0:
                err = f"error ratio {ratio:.3g} exceeds 1"
        if err is not None:
            failures.append((n, idx, err))
    return failures, worst


def latency_metrics(records, field: int = 4) -> dict:
    """Throughput and latency quantiles in calibrated seconds (field 4) or wall seconds (field 1)."""
    lat = [r[field] for r in records]
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return {"ops_per_s": len(lat) / sum(lat), "op_p50_ms": q[4] * 1e3, "op_p90_ms": q[8] * 1e3}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def describe_failures(ops, failures, limit: int = 20) -> list[str]:
    lines = [f"failed operations: {len(failures)}" if failures else "failed operations: none"]
    for n, idx, why in failures[:limit]:
        lines.append(f"  op #{n} ({ops[idx].kind} input {idx}): {why}")
    if len(failures) > limit:
        lines.append(f"  ... {len(failures) - limit} more in the result file")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("push-sweep", "spec-mix", "hard-depth"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "asympush" / "__init__.py").is_file():
        print(f"perfbench: no asympush package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads
    from perfbench.tracer import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_wall, setup_s, asp, ops = setup(args.workload, args.seed, workdir)
        memo: dict = {}
        start = time.perf_counter()
        refs = [workloads.KINDS[op.kind].reference(op, memo) for op in ops]
        ref_s = time.perf_counter() - start

        if args.trace == 0:
            records = run_loop(asp, ops, args.seconds, MIN_OPS)
            runs = [records]
        else:
            plain = run_loop(asp, ops, args.seconds / 2, 1)
            tracer = Tracer(asp)
            tracer.install()
            try:
                traced = run_loop(asp, ops, 0.0, 1, max_ops=len(plain), tracer=tracer)
            finally:
                tracer.uninstall()
            runs = [plain, traced]
        failures, worst = [], 0.0
        for records in runs:
            f, w = check(ops, refs, records)
            failures += f
            worst = max(worst, w)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r) for r in runs)
    e2e = {
        "setup_s": setup_s,
        **latency_metrics(runs[0]),
        "fail_frac": len(failures) / attempted,
        "err_ratio_max": worst,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {"setup_s": setup_wall, **latency_metrics(runs[0], field=1)}
    units = dict(END_TO_END)
    lines = [f"asympush benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
             f"{attempted} operations over {len(ops)} inputs, one closed-loop client; "
             f"references took {ref_s:.1f} s"]
    if args.trace == 0:
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in BOUNDED}
        lines.append(f"  {'metric':<14} {'calibrated':>12} {'wall':>12} unit")
        lines += [f"  {k:<14} {e2e[k]:>12.6g} {wall.get(k, e2e[k]):>12.6g} {u}" for k, u in END_TO_END]
    else:
        metrics = tracer.layer_metrics()
        untraced = latency_metrics(plain)["ops_per_s"]
        traced_rate = latency_metrics(traced)["ops_per_s"]
        metrics["trace.overhead_ops_per_s"] = {"value": untraced - traced_rate, "unit": "1/s"}
        metrics["trace.overhead_frac"] = {"value": 1.0 - traced_rate / untraced, "unit": "ratio"}
        lines.append(f"  ops_per_s untraced {untraced:.6g}, traced {traced_rate:.6g} 1/s "
                     f"({len(plain)} operations each)")
        lines += [f"  {k:<48} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        lines.append(f"  spans kept {len(tracer.spans)}, dropped past the cap {tracer.dropped}")
        tracer.write_spans(OUT / f"{tag}-spans.jsonl")
    lines += describe_failures(ops, failures)
    env = environment()
    lines.append("  environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "end_to_end": e2e, "wall": wall, "metrics": metrics, "environment": env,
        "failures": [{"op": n, "input": idx, "kind": ops[idx].kind, "reason": why} for n, idx, why in failures],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
