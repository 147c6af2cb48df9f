"""Acceptance suite: ten end-to-end checks with fixed tolerances.

Each criterion returns a result record with the measured worst-case numbers,
so failures are diagnosable from the report alone.  The CLI selftest and the
test suite both run these; the thresholds here are the contract.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, NamedTuple

from . import expressions as ex
from .asymfun import (
    RAPID_DECAY_ORDER,
    AsymFunction,
    from_expression,
    mellin,
    mellin_finite_part,
    power_log_multiply,
    pure_power,
    reg_integral,
    rescale,
    scale_reg_integral,
    schwartz,
)
from .expansions import make_side
from .indexsets import (
    ExponentMatrix,
    IndexSet,
    check_integrability,
    complete,
    nullfaces,
    push_index_family,
)
from .logpoly import LogPolynomial
from .pushforward import (
    blowup_density_from_expression,
    blowup_matrix,
    condition_C_check,
    density_from_expression,
    push_xy,
    sal_prediction_smooth,
)
from .quadrature import geometric_grid
from .singular_expansion import (
    asymptotic_expansion,
    fit_decay,
    sigma_from_expression,
    verify_expansion,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    details: str
    seconds: float


def one_over_one_plus_x(depth: int = 12) -> AsymFunction:
    """1/(1+x) with its geometric-series data on both ends."""
    zero = [(float(m), [(-1.0) ** m]) for m in range(depth)]
    inf = [(-float(m), [(-1.0) ** (m + 1)]) for m in range(1, depth)]
    return from_expression(
        "1/(1+x)", zero_terms=zero, order_zero=float(depth),
        inf_terms=inf, order_inf=depth - 1.0,
    )


def _criterion_1() -> tuple[bool, str]:
    alphas = (-2.5, -1.3, -1.0, -0.4, 0.7)
    worst_closed = worst_quad = 0.0
    for a in alphas:
        for k in (0, 1, 2):
            f = pure_power(a, k)
            worst_closed = max(worst_closed, abs(reg_integral(f)))
            # quadrature path: declare terms only on divergent sides, leave the
            # integrable side to raw quadrature of the evaluator
            zero = f.exp0 if a <= -1.0 + 1e-9 else make_side([], a + 0.99, "zero")
            inf = f.exp_inf if a >= -1.0 - 1e-9 else make_side([], -a - 1.01, "infinity")
            g = AsymFunction(fn=f.fn, exp0=zero, exp_inf=inf)
            worst_quad = max(worst_quad, abs(reg_integral(g)))
    ok = worst_closed <= 1e-12 and worst_quad <= 1e-8
    return ok, f"closed-form worst {worst_closed:.2e} (<=1e-12), quadrature worst {worst_quad:.2e} (<=1e-8)"


def _criterion_2() -> tuple[bool, str]:
    u0 = density_from_expression("1")
    worst = max(abs(push_xy(u0, t) + math.log(t)) for t in geometric_grid(1e-4, 0.5, 20))
    return worst <= 1e-8, f"|push_xy(u0,t) + ln t| worst {worst:.2e} (<=1e-8)"


def _criterion_3() -> tuple[bool, str]:
    # modest depth: rescaling by t=10 scales the declared terms by t^m, and
    # the resulting cancellation noise grows with the depth
    f = one_over_one_plus_x(depth=8)
    worst_cf = worst_agree = 0.0
    for t in (0.1, 0.5, 2.0, 10.0):
        v = scale_reg_integral(f, t)
        worst_cf = max(worst_cf, abs(v - math.log(t) / t))
        worst_agree = max(worst_agree, abs(v - reg_integral(rescale(f, t))))
    ok = worst_cf <= 1e-8 and worst_agree <= 1e-8
    return ok, f"closed-form worst {worst_cf:.2e}, rescale agreement worst {worst_agree:.2e} (<=1e-8)"


EULER_GAMMA = 0.5772156649015329


def _mellin_suite() -> list[tuple[str, AsymFunction, complex, complex, int]]:
    """(label, function, finite part at 1, pole to probe, expected pole order)."""
    exp_f = schwartz("exp(-x)", n_taylor=10)

    def piecewise(x: float) -> float:
        return 1.0 / x if x <= 1.0 else math.exp(-x)

    pw = AsymFunction(
        fn=piecewise,
        exp0=make_side([(-1.0 + 0j, LogPolynomial((1.0,)))], 10.0, "zero"),
        exp_inf=make_side([], RAPID_DECAY_ORDER, "infinity"),
    )
    return [
        ("exp(-x)", exp_f, 1.0, 0j, 1),  # Gamma(1)
        ("1/(1+x)", one_over_one_plus_x(), 0.0, 0j, 1),  # pi/sin(pi z) + 1/(z - 1) -> 0
        ("1/x then exp(-x)", pw, math.exp(-1.0), 1.0 + 0j, 1),  # 0 on (0, 1] plus e^-1
        ("x^-1/2 exp(-x)", power_log_multiply(exp_f, -0.5), math.sqrt(math.pi), 0.5 + 0j, 1),
        ("ln x exp(-x)", power_log_multiply(exp_f, 0.0, 1), -EULER_GAMMA, 0j, 2),  # Gamma'(1)
    ]


def _criterion_4() -> tuple[bool, str]:
    worst_fp = 0.0
    worst_order = 0.0
    ok = True
    for label, f, want, pole, expected in _mellin_suite():
        worst_fp = max(worst_fp, abs(mellin_finite_part(f, 1.0) - want))
        vals = []
        for eps in (1e-2, 1e-3):
            r = mellin(f, pole + eps)
            vals.append(abs(r.value))
        slope = (math.log(vals[0]) - math.log(vals[1])) / (math.log(1e-2) - math.log(1e-3))
        order_est = -slope
        worst_order = max(worst_order, abs(order_est - expected))
        if round(order_est) != expected:
            ok = False
    ok = ok and worst_fp <= 1e-6
    return ok, (
        f"finite part at 1 vs closed form worst {worst_fp:.2e} (<=1e-6), "
        f"pole-order fit worst deviation {worst_order:.2f} (rounds to expected)"
    )


def _criterion_5() -> tuple[bool, str]:
    sig7 = sigma_from_expression("exp(-x)*exp(-zeta)", order=7)
    rep7 = asymptotic_expansion(sig7)
    worst = max(
        abs(rep7.expansion.coefficient(-j - 1.0, 0) - (-1.0) ** j) for j in range(7)
    )
    sig3 = sigma_from_expression("exp(-x)*exp(-zeta)", order=3)
    rep3 = asymptotic_expansion(sig3)
    vr = verify_expansion(rep3.expansion, sig3, [4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    decay = vr.decay_exponent
    ok = worst <= 1e-10 and decay is not None and -4.3 <= decay <= -3.7
    return ok, (
        f"j-coefficient worst error {worst:.2e} (<=1e-10), "
        f"residual decay exponent {decay} (target [-4.3,-3.7])"
    )


def _criterion_6() -> tuple[bool, str]:
    u = density_from_expression("exp(-x-y)")
    pred = sal_prediction_smooth(u, 3)
    ts = geometric_grid(1e-3, 1e-1, 12)
    slope, _ = fit_decay(ts, [abs(push_xy(u, t, 1e-12) - pred(t).real) for t in ts])
    return slope >= 3.7, f"residual decay exponent {slope:.3f} (>=3.7, one log factor allowed)"


def _criterion_7() -> tuple[bool, str]:
    smooth = complete([(0, 0)], truncation=5.0)
    matrix = ExponentMatrix(("X0", "Y0"), ("T0",), ((1,), (1,)))
    got = push_index_family(matrix, {"X0": smooth, "Y0": smooth}, truncation=5.0)
    want = IndexSet.from_entries(
        complete([(0, 1)], truncation=5.0).entries, truncation=5.0
    )
    ok = got.family["T0"].as_triples() == want.as_triples()
    return ok, f"pushed set {got.family['T0'].as_triples()} == {{(n,0),(n,1): n<5}}: {ok}"


def _criterion_8() -> tuple[bool, str]:
    m = blowup_matrix()
    nf = nullfaces(m)
    ok = nf == {"G2"}
    msgs = [f"nullfaces {sorted(nf)}"]
    for expr, gen, want_ok in (("x", (1, 0), True), ("x*y", (0, 0), False)):
        fam = {
            "G1": complete([(0, 0)]),
            "G2": complete([gen]),
            "G3": complete([(0, 0)]),
        }
        integ = check_integrability(fam, m)
        min_re_pos = fam["G2"].min_re() > 0
        d = blowup_density_from_expression(expr, fam)
        rep = condition_C_check(d, p_max=1, t_grid=(1.0, 0.5))
        ok = ok and integ.ok == want_ok == min_re_pos and rep.agree
        msgs.append(
            f"u_A={expr}: integrability {integ.ok}, minRe>0 {min_re_pos}, "
            f"sampled bounded {rep.bounded}, agree {rep.agree}"
        )
    return ok, "; ".join(msgs)


_PARSER_CORPUS = [
    "x", "-x", "x+1", "x*y-3", "x/(1+x)", "x^2", "x^(-1.5)", "2*x^3-x",
    "exp(-x)", "log(x)", "sin(x)*cos(x)", "sqrt(x+1)", "exp(-x-y)",
    "x*exp(-x^2)", "(x+y)/(x*y+1)", "log(1+x^2)", "-(x+2)*3",
    "sin(x)/x", "exp(x)*log(x+2)", "x^2*y^3-2*x*y",
]


def _criterion_9() -> tuple[bool, str]:
    worst = 0.0
    for text in _PARSER_CORPUS:
        node = ex.parse(text)
        if ex.parse(ex.unparse(node)) != node:
            return False, f"round-trip failed for {text!r}"
        names = sorted(ex.free_vars(node))  # a fixed order: the same samples in every process
        for var in names:
            rng = random.Random(7)
            for _ in range(10):
                point = {v: rng.uniform(0.2, 2.0) for v in names}
                sym = ex.evaluate(ex.diff(node, var), point)
                num = ex.central_fd(node, var, point)
                rel = abs(sym - num) / max(1.0, abs(sym))
                worst = max(worst, rel)
    return worst <= 1e-6, f"20 expressions round-trip; diff vs FD worst {worst:.2e} (<=1e-6)"


def _criterion_10() -> tuple[bool, str]:
    u = density_from_expression("x")
    worst = max(abs(push_xy(u, t) - (1.0 - t)) for t in geometric_grid(1e-4, 0.9, 15))
    pred = sal_prediction_smooth(u, 1)
    c0 = pred.coefficient(0.0, 0)
    c1 = pred.coefficient(1.0, 0)
    logs = abs(pred.coefficient(0.0, 1)) + abs(pred.coefficient(1.0, 1))
    ok = worst <= 1e-9 and abs(c0 - 1.0) <= 1e-10 and abs(c1 + 1.0) <= 1e-10 and logs == 0.0
    return ok, (
        f"|push - (1-t)| worst {worst:.2e} (<=1e-9); "
        f"prediction coefficients ({c0.real:.12g}, {c1.real:.12g}), log terms {logs:.1e}"
    )


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "pure-power cancellation", _criterion_1),
    (2, "u0 push-forward closed form", _criterion_2),
    (3, "substitution lemma", _criterion_3),
    (4, "Mellin consistency", _criterion_4),
    (5, "two-variable expansion, geometric series", _criterion_5),
    (6, "smooth-density expansion vs quadrature", _criterion_6),
    (7, "index-set push-forward", _criterion_7),
    (8, "blow-up model boundedness", _criterion_8),
    (9, "parser and symbolic derivative", _criterion_9),
    (10, "linear-density closed form", _criterion_10),
]


def run_criterion(number: int) -> CriterionResult:
    for n, name, fn in CRITERIA:
        if n == number:
            start = time.perf_counter()
            try:
                passed, details = fn()
            except Exception as e:  # a crash is a failure with its reason
                passed, details = False, f"raised {type(e).__name__}: {e}"
            return CriterionResult(n, name, passed, details, time.perf_counter() - start)
    raise ValueError(f"no criterion numbered {number}")


def run_all(numbers: list[int] | None = None) -> list[CriterionResult]:
    wanted = numbers if numbers is not None else [n for n, _, _ in CRITERIA]
    return [run_criterion(n) for n in wanted]
