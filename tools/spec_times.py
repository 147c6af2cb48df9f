"""Time every spec-mix spec through two checkouts' CLIs, interleaved in one process.

    python tools/spec_times.py OLD_CHECKOUT NEW_CHECKOUT [SEED ...] [--passes N]

Writes the spec-mix specs of each seed (default 777) with
``perfbench.workloads.spec_mix`` and loads each checkout's package from its
``src`` under its own name (``asympush_old`` and ``asympush_new``), so both
run in the same process.  Each pass runs every spec once through each
checkout's ``cli.main``, the two back to back, alternating which goes first
from pass to pass; the first pass warms both up and is not counted.  Runs
in separate processes drift with the host's load; interleaving them in one
process puts both checkouts under the same drift.

Prints, per seed, the median wall time of each spec on each side and their
ratio, the spec at the median of a pass (the p50 of the benchmark's
operation latencies, taken over the specs' medians) on each side, and per
spec kind the summed medians, their ratio and the quartiles of the per-pass
ratios (the kind's summed times in one pass, new over old).  A ratio whose
quartiles straddle 1 is not resolved; on a 2-core VM 10 passes spread a few
percent either way, hence the default of 30.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import spec_mix  # noqa: E402


def load_cli(checkout: str, name: str):
    """The ``cli`` module of the checkout's package, imported as the package ``name``."""
    init = Path(checkout, "src", "asympush", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def time_specs(clis: dict, specs: list, out: Path, passes: int) -> dict:
    """{side: {spec path: [wall seconds per counted pass]}}."""
    times = {side: {path: [] for path in specs} for side in clis}
    order = list(clis)
    for n in range(passes + 1):
        for path in specs:
            for side in order:
                argv = ["run", path, "--out", str(out / side), "--json-only"]
                t0 = time.perf_counter()
                clis[side].main(argv)
                if n:
                    times[side][path].append(time.perf_counter() - t0)
            order.reverse()
    return times


def median_specs(medians: dict) -> tuple[list[str], float]:
    """The one or two specs at the median of a pass, and the p50 the benchmark would read from these medians."""
    ranked = sorted(medians, key=medians.get)
    p50 = statistics.quantiles([medians[p] for p in ranked], n=10, method="inclusive")[4]
    middle = ranked[(len(ranked) - 1) // 2 : len(ranked) // 2 + 1]
    return [Path(p).stem for p in middle], p50


def report(label: str, times: dict) -> None:
    old = {path: statistics.median(v) for path, v in times["old"].items()}
    new = {path: statistics.median(v) for path, v in times["new"].items()}
    print(f"{label}: {len(old)} specs, {len(next(iter(times['old'].values())))} passes")
    print(f"  {'spec':<16} {'old ms':>9} {'new ms':>9} {'new/old':>8}")
    for path in sorted(old, key=old.get):
        print(f"  {Path(path).stem:<16} {old[path] * 1e3:>9.3f} {new[path] * 1e3:>9.3f} {new[path] / old[path]:>8.3f}")
    for side, medians in (("old", old), ("new", new)):
        names, p50 = median_specs(medians)
        print(f"  {side} p50 {p50 * 1e3:.3f} ms, at {' / '.join(names)}")
    kinds: dict = {}
    for path in old:
        kinds.setdefault(Path(path).stem.rstrip("0123456789"), []).append(path)
    print(f"  {'kind (summed)':<16} {'old ms':>9} {'new ms':>9} {'new/old':>8} {'per-pass IQR':>12}")
    for kind, paths in sorted(kinds.items()):
        a, b = sum(old[p] for p in paths), sum(new[p] for p in paths)
        per_pass = [
            sum(times["new"][p][n] for p in paths) / sum(times["old"][p][n] for p in paths)
            for n in range(len(times["old"][paths[0]]))
        ]
        q1, _, q3 = statistics.quantiles(per_pass, n=4, method="inclusive")
        print(f"  {kind:<16} {a * 1e3:>9.3f} {b * 1e3:>9.3f} {b / a:>8.3f} {q1:>6.3f}-{q3:.3f}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("seeds", nargs="*", type=int)
    parser.add_argument("--passes", type=int, default=30)
    args = parser.parse_args(argv)
    clis = {"old": load_cli(args.old, "asympush_old"), "new": load_cli(args.new, "asympush_new")}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds or [777]:
            ops = spec_mix(seed, Path(tmp, str(seed)))
            specs = [op.args["path"] for op in ops if op.kind == "spec"]
            report(f"seed {seed}", time_specs(clis, specs, Path(tmp, str(seed)), args.passes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
