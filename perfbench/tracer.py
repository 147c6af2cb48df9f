"""Spans and counters around the public functions of asympush, from outside.

The tracer patches functions in place and restores them on :meth:`Tracer.uninstall`.
``from .quadrature import quad_interval`` binds a name at import time, so a
function is replaced in its own module and in every asympush module (and the
package itself) that holds the same object.  Methods are replaced on their
class.  ``evaluate`` and ``diff`` recurse through their module global; their
wrapper puts the original back for the duration of the outermost call, so
only outermost calls are spans and inner recursion runs at full speed.

A span's self time is its duration minus the durations of its direct child
spans.  Spans are kept in memory (name, start, end, parent, operation) up to
``MAX_SPANS`` and written out at the end; the per-layer sums are exact
whatever the cap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); quadrature and logpoly spans share a name
FUNCTIONS = (
    ("expressions", "evaluate", "expressions.evaluate"),
    ("expressions", "diff", "expressions.diff"),
    ("quadrature", "quad_interval", "quadrature"),
    ("quadrature", "quad_01", "quadrature"),
    ("quadrature", "quad_1inf", "quadrature"),
    ("logpoly", "moment_unit_interval", "logpoly.moments"),
    ("logpoly", "moment_tail", "logpoly.moments"),
    ("asymfun", "reg_integral", "asymfun.reg_integral"),
    ("asymfun", "mellin", "asymfun.mellin"),
    ("asymfun", "schwartz", "asymfun.schwartz"),
    ("singular_expansion", "asymptotic_expansion", "singular_expansion.asymptotic_expansion"),
    ("singular_expansion", "check_hypotheses", "singular_expansion.check_hypotheses"),
    ("singular_expansion", "verify_expansion", "singular_expansion.verify_expansion"),
    ("singular_expansion", "separable_expansion", "singular_expansion.separable_expansion"),
    ("pushforward", "push_xy", "pushforward.push_xy"),
    ("pushforward", "sal_prediction_smooth", "pushforward.sal_prediction_smooth"),
    ("pushforward", "fit_asymptotics", "pushforward.fit_asymptotics"),
    ("pushforward", "condition_C_check", "pushforward.condition_C_check"),
    ("indexsets", "complete", "indexsets.complete"),
    ("indexsets", "extended_union", "indexsets.extended_union"),
    ("indexsets", "push_index_family", "indexsets.push_index_family"),
    ("cli", "main", "cli.main"),
    ("acceptance", "run_criterion", "acceptance.run_criterion"),
)
# (module, class, method, span name)
METHODS = (
    ("asymfun", "AsymFunction", "nth_deriv_at_zero", "asymfun.nth_deriv_at_zero"),
    ("singular_expansion", "SigmaFunction", "x_deriv", "singular_expansion.x_deriv"),
    ("singular_expansion", "SigmaFunction", "boundary_function", "singular_expansion.boundary_function"),
)
RECURSIVE = {"evaluate", "diff"}
QUADRATURE = {"quad_interval", "quad_01", "quad_1inf"}

# The per-layer metrics, in the order they are reported.
LAYER_METRICS = (
    ("expressions.evaluate.calls", "count"),
    ("expressions.evaluate.self_s", "s"),
    ("expressions.diff.calls", "count"),
    ("expressions.diff.self_s", "s"),
    ("expressions.diff.nodes_out", "count"),
    ("quadrature.calls", "count"),
    ("quadrature.self_s", "s"),
    ("quadrature.integrand_evals", "count"),
    ("quadrature.evals_per_call", "evals/call"),
    ("quadrature.complex_calls", "count"),
    ("quadrature.errors", "count"),
    ("logpoly.moments.calls", "count"),
    ("logpoly.moments.self_s", "s"),
    ("asymfun.reg_integral.calls", "count"),
    ("asymfun.reg_integral.self_s", "s"),
    ("asymfun.mellin.calls", "count"),
    ("asymfun.mellin.self_s", "s"),
    ("asymfun.schwartz.self_s", "s"),
    ("asymfun.nth_deriv_at_zero.self_s", "s"),
    ("singular_expansion.asymptotic_expansion.self_s", "s"),
    ("singular_expansion.boundary_function.self_s", "s"),
    ("singular_expansion.x_deriv.self_s", "s"),
    ("singular_expansion.check_hypotheses.self_s", "s"),
    ("singular_expansion.verify_expansion.self_s", "s"),
    ("singular_expansion.separable_expansion.self_s", "s"),
    ("pushforward.push_xy.calls", "count"),
    ("pushforward.push_xy.self_s", "s"),
    ("pushforward.sal_prediction_smooth.self_s", "s"),
    ("pushforward.fit_asymptotics.self_s", "s"),
    ("pushforward.condition_C_check.self_s", "s"),
    ("indexsets.complete.calls", "count"),
    ("indexsets.complete.self_s", "s"),
    ("indexsets.extended_union.calls", "count"),
    ("indexsets.extended_union.self_s", "s"),
    ("indexsets.push_index_family.self_s", "s"),
    ("indexsets.entries_out", "count"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("acceptance.run_criterion.self_s", "s"),
)


def tree_size(node, memo: dict) -> int:
    """Nodes of an expression tree counted with multiplicity, as evaluate walks it.

    Shared subtrees are sized once through ``memo`` (keyed by id, holding the
    node so the id stays valid), which keeps this linear in distinct nodes.
    """
    hit = memo.get(id(node))
    if hit is not None:
        return hit[1]
    children = [getattr(node, a) for a in ("arg", "left", "right") if hasattr(node, a)]
    n = 1 + sum(tree_size(c, memo) for c in children)
    memo[id(node)] = (node, n)
    return n


MAX_SPANS = 100_000  # span records kept per run; the per-layer sums count every span


class Tracer:
    def __init__(self, asp):
        self.asp = asp  # namespace of asympush modules
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._tree_memo: dict = {}

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._tree_memo = {}

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def _after(self, attr: str, name: str, result) -> None:
        if attr == "diff":
            start = time.perf_counter()
            self.counts["expressions.diff.nodes_out"] += tree_size(result, self._tree_memo)
            if self._stack:  # the walk is the tracer's, not the caller's, self time
                self._stack[-1][3] += time.perf_counter() - start
        elif attr in QUADRATURE and isinstance(result[0], complex):
            self.counts["quadrature.complex_calls"] += 1
        elif name.startswith("indexsets."):
            sets = result.family.values() if hasattr(result, "family") else [result]
            self.counts["indexsets.entries_out"] += sum(len(s.entries) for s in sets)

    # -- patching ----------------------------------------------------------

    def _wrap(self, module, attr: str, name: str, fn):
        tracer = self

        if attr in RECURSIVE:

            def wrapper(*args, **kwargs):
                setattr(module, attr, fn)
                tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                    setattr(module, attr, wrapper)
                if attr == "diff":
                    tracer._after(attr, name, result)
                return result

        elif attr in QUADRATURE:
            evals = self.counts

            def wrapper(f, *args, **kwargs):
                def counted(x):
                    evals["quadrature.integrand_evals"] += 1
                    return f(x)

                tracer._enter(name)
                try:
                    result = fn(counted, *args, **kwargs)
                except tracer.asp.quadrature.QuadratureError:
                    evals["quadrature.errors"] += 1
                    raise
                finally:
                    tracer._exit()
                tracer._after(attr, name, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                tracer._after(attr, name, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "asympush" or k.startswith("asympush.")]
        for mod_name, attr, name in FUNCTIONS:
            module = getattr(self.asp, mod_name)
            fn = getattr(module, attr)
            wrapper = self._wrap(module, attr, name, fn)
            for consumer in modules:
                if consumer.__dict__.get(attr) is fn:
                    self._patch(consumer, attr, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(getattr(self.asp, mod_name), cls_name)
            self._patch(cls, attr, self._wrap(cls, attr, name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] += n

    def layer_metrics(self) -> dict[str, dict]:
        out = {}
        for metric, unit in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                value = self.calls.get(span, 0)
            elif field == "self_s":
                value = self.self_s.get(span, 0.0)
            elif metric == "quadrature.evals_per_call":
                calls = self.calls.get("quadrature", 0)
                value = self.counts["quadrature.integrand_evals"] / calls if calls else 0.0
            else:
                value = self.counts.get(metric, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")
