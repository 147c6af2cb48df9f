"""Compare the CLI reports of two checkouts on the spec-mix specs of the benchmark.

    python tools/report_diff.py OLD_CHECKOUT NEW_CHECKOUT [SEED ...] [SPEC.json ...]

Writes the spec-mix specs of each seed (default 777 and 901) with
``perfbench.workloads.spec_mix``, runs each spec, and each SPEC.json given
(for instance ``tools/log_term_specs/*.json``, which reach the log-term paths
spec-mix does not, and ``tools/deep_taylor_specs/*.json``, which take Taylor
data and x-derivatives to orders 5, 6 and 12), through every checkout's
``asympush.cli.main`` in one subprocess per checkout (that checkout's ``src``
first on ``sys.path``), prints each spec whose report bytes or exit code
differ, with the largest relative difference |a - b| / max(|a|, |b|) over the
numbers of the two reports matched by JSON path, and exits 1 if any spec
differs.  A value that is not a number, or whose path only one report has,
counts as an infinite difference when it differs.
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import spec_mix  # noqa: E402

CHILD = """import json, sys
src, out, specs = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
from asympush.cli import main
codes = {}
for path in specs:
    try:
        codes[path] = main(["run", path, "--out", out, "--json-only"])
    except SystemExit as e:
        codes[path] = e.code
    except Exception:
        codes[path] = 1
print(json.dumps(codes))
"""


def leaves(node, path=()):
    """(JSON path, value) of every scalar in a loaded report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path, node


def rel_diff(a, b) -> float:
    if a == b or (a != a and b != b):  # equal, or both NaN
        return 0.0
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers or math.isinf(a) or math.isinf(b) or a != a or b != b:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def largest_rel_diff(old: Path, new: Path) -> float:
    """The largest relative difference of two reports' values, matched by JSON path."""
    if not (old.exists() and new.exists()):
        return math.inf
    a, b = (dict(leaves(json.loads(p.read_text()))) for p in (old, new))
    missing = a.keys() ^ b.keys()
    return math.inf if missing else max((rel_diff(a[k], b[k]) for k in a), default=0.0)


def run(checkout: str, out: Path, specs: list[str]) -> dict:
    argv = [sys.executable, "-c", CHILD, str(Path(checkout, "src").resolve()), str(out), *specs]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    old, new, *rest = argv
    files = [str(Path(a).resolve()) for a in rest if a.endswith(".json")]
    seeds = [int(a) for a in rest if not a.endswith(".json")] or [777, 901]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        groups = [
            (f"seed {seed}", [op.args["path"] for op in spec_mix(seed, Path(tmp, str(seed))) if op.kind == "spec"])
            for seed in seeds
        ]
        for label, specs in groups + ([("files", files)] if files else []):
            work = Path(tmp, label.replace(" ", "-"))
            sides = [run(c, work / side, specs) for c, side in ((old, "old"), (new, "new"))]
            for path in specs:
                report = f"{Path(path).stem}.report.json"
                a, b = (work / side / report for side in ("old", "new"))
                same = a.exists() == b.exists() and (not a.exists() or a.read_bytes() == b.read_bytes())
                if not same or sides[0][path] != sides[1][path]:
                    differ += 1
                    print(f"{label} {Path(path).stem}: exit {sides[0][path]} -> {sides[1][path]}, "
                          f"report {'same' if same else 'differs'}"
                          + ("" if same else f", largest relative difference {largest_rel_diff(a, b):.1e}"))
            print(f"{label}: {len(specs)} specs compared")
    print(f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
