"""Time the expression front end of two checkouts in one process, alternating rounds.

    python tools/frontend_ab.py OLD_CHECKOUT NEW_CHECKOUT [ROUNDS] [SEED ...]

Loads the ``src/asympush`` of each checkout as its own package, as
``tools/spec_times.py`` does, takes the distinct push-sweep density texts of
each seed (default 777 and 901) with ``perfbench.workloads.push_sweep``, and
times, per text, ``_tokenize``, ``parse`` and ``density_from_expression`` in
each checkout.  Each round runs
both checkouts, the old one first in even rounds, after one warm-up round that
compiles every distinct emitted source.  Prints one JSON object: the median
over the rounds of the microseconds per density spent to tokenize, in the
parser's rules (parse less tokenize), in the free-variable check and the
compilation (density_from_expression less parse), and in all, per checkout,
with every round's totals.
"""

import importlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import push_sweep  # noqa: E402
from spec_times import load_cli  # noqa: E402  (tools/ is the script's directory)

REPS = 20  # passes over the texts per stage and round


def stage_us(fn, args: list) -> float:
    t0 = time.perf_counter()
    for _ in range(REPS):
        for a in args:
            fn(*a)
    return (time.perf_counter() - t0) / (REPS * len(args)) * 1e6


def round_us(name: str, texts: list) -> dict:
    ex = importlib.import_module(f"{name}.expressions")
    density = importlib.import_module(f"{name}.pushforward").density_from_expression
    tokenize = stage_us(ex._tokenize, [(t,) for t, _ in texts])
    parse = stage_us(ex.parse, [(t,) for t, _ in texts])
    total = stage_us(density, texts)
    return {"tokenize": tokenize, "rules": parse - tokenize, "check_compile": total - parse, "total": total}


def main(argv: list[str]) -> int:
    old, new, rest = argv[0], argv[1], argv[2:]
    rounds = int(rest.pop(0)) if rest else 15
    seeds = [int(s) for s in rest] or [777, 901]
    texts = sorted({(op.args["expr"], tuple(op.args["box"])) for s in seeds for op in push_sweep(s) if op.kind == "push"})
    sides = {"old": "asympush_old", "new": "asympush_new"}
    for checkout, name in zip((old, new), sides.values()):
        load_cli(checkout, name)
        round_us(name, texts)  # the warm-up round
    got: dict = {side: [] for side in sides}
    for r in range(rounds):
        for side in ("old", "new") if r % 2 == 0 else ("new", "old"):
            got[side].append(round_us(sides[side], texts))
    out = {"texts": len(texts), "rounds": rounds, "reps": REPS, "seeds": seeds}
    for side, runs in got.items():
        out[side] = {k: round(statistics.median(run[k] for run in runs), 2) for k in runs[0]}
        out[side]["total_per_round"] = [round(run["total"], 2) for run in runs]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
