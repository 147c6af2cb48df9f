import cmath
import math
import os
import random
import struct
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import asympush
from asympush.quadrature import (
    _WG,
    _WGK,
    _WGK0,
    _XGK,
    DEFAULT_TOL,
    STOP_REASONS,
    QuadratureError,
    _qk21,
    dyadic_shells,
    geometric_grid,
    quad_01,
    quad_1inf,
    quad_interval,
)


def test_imaginary_part_missed_by_the_probes_is_kept():
    # the three probe points see 0.0; the imaginary part lives on [0.9, 1]
    val, _ = quad_interval(lambda x: 0.0 if x < 0.9 else 1j, 0.0, 1.0)
    assert abs(val - 0.1j) < 1e-9
    val, _ = quad_interval(lambda x: x if x < 0.9 else complex(x, 0.0), 0.0, 1.0)
    assert val == 0.5 and isinstance(val, float)  # zero imaginary parts stay on the real path


@pytest.mark.parametrize("wrap", [np.complex64, np.array], ids=["complex64", "0-d array"])
def test_numpy_complex_values_keep_their_imaginary_part(wrap):
    # at the probes, and at nodes beyond them
    val, _ = quad_interval(lambda x: wrap(x + 1j), 0.0, 1.0)
    assert val == pytest.approx(0.5 + 1j, abs=1e-8)
    val, _ = quad_interval(lambda x: x if x < 0.9 else wrap(x + 1j), 0.0, 1.0)
    assert val == pytest.approx(0.5 + 0.1j, abs=1e-8)


def _counted(f):
    calls = Counter()

    def g(x):
        calls[x] += 1
        return f(x)

    return g, calls


def test_complex_integrand_is_evaluated_once_per_node():
    def f(x):
        return cmath.exp(complex(-1.0, 3.0) * x) / (1.0 + x * x)

    g, calls = _counted(f)
    val, _ = quad_interval(g, 0.0, 5.0)
    assert max(calls.values()) == 1
    re, _ = quad_interval(lambda x: f(x).real, 0.0, 5.0)
    im, _ = quad_interval(lambda x: f(x).imag, 0.0, 5.0)
    assert val == complex(re, im)
    # the same holds after the exponential substitution of quad_01
    g, calls = _counted(lambda x: x ** 0.5 * cmath.exp(2j * x))
    val, _ = quad_01(g)
    assert max(calls.values()) == 1 and abs(val.imag) > 0.1


def test_zero_imaginary_parts_take_one_real_pass():
    g, calls = _counted(lambda x: complex(math.sin(3 * x), 0.0))
    val, err = quad_interval(g, 0.0, 2.0)
    assert max(calls.values()) == 1
    ref, ref_err = quad_interval(lambda x: math.sin(3 * x), 0.0, 2.0)
    assert isinstance(val, float) and val == ref and err == ref_err


def test_raising_probe_still_finds_the_complex_integrand():
    probe = 0.0 + (1.0 - 0.0) * 0.21  # the first probe point on [0, 1]

    def f(x):
        if x == probe:
            raise ValueError("undefined at the first probe")
        return complex(x, x * x)

    g, calls = _counted(f)
    val, _ = quad_interval(g, 0.0, 1.0)
    assert abs(val - complex(0.5, 1.0 / 3.0)) < 1e-12
    assert max(calls.values()) == 1


@pytest.mark.parametrize("late", [lambda x: complex(x, 1.0), lambda x: np.complex128(complex(x, 1.0))])
def test_complex_value_after_real_probes_keeps_its_imaginary_part(late):
    # the three probes and every node below 0.9 see a float
    def f(x):
        return x if x < 0.9 else late(x)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning gets out either
        val, _ = quad_interval(f, 0.0, 1.0)
        assert abs(val - complex(0.5, 0.1)) < 1e-12
        val, _ = quad_01(lambda x: 2.0 * x if x > 0.05 else late(x))
        assert abs(val - complex(1.0 - 0.05**2 / 2, 0.05)) < 1e-9
        val, _ = quad_interval(lambda x: x if x < 0.9 else late(x).real + 0j, 0.0, 1.0)
        assert val == 0.5 and isinstance(val, float)


def test_real_integrand_calls_are_unchanged():
    # 21 Kronrod nodes per subinterval and no probe: QUADPACK's own count
    def f(x):
        return math.exp(-x) * math.sin(5 * x)

    for integrate, args, calls in [(quad_interval, (0.0, 3.0), 63), (quad_01, (), 147), (quad_1inf, (), None)]:
        g, counts = _counted(f)
        val, err = integrate(g, *args)
        n = sum(counts.values())
        assert n % 21 == 0 and max(counts.values()) == 1 and isinstance(val, float)
        assert n == calls if calls is not None else n <= 609


# QUADPACK's indices j - 1 of the node pairs in the rule's order: the Gauss
# nodes xgk(2), xgk(4), ..., xgk(10), then the Kronrod nodes xgk(1), ..., xgk(9)
_QK21_PAIRS = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)


def _qk21_nodes():
    """The rule's node offsets in call order: the centre, then -xgk(j) for
    each pair, then +xgk(j) in the same order."""
    half = [_XGK[j] for j in _QK21_PAIRS]
    return [0.0] + [-x for x in half] + half


def _qk21_reference(f, a, b):
    """dqk21 as loops: node pair k is nodes 1 + k and 11 + k, with QUADPACK's
    Kronrod weight wgk and, for the five Gauss pairs, Gauss weight wg; every
    sum is accumulated left to right.  int |f| and int |f - mean| add node
    by node in call order."""
    wpair = [_WGK[j] for j in _QK21_PAIRS]
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = [f(c + h * x) for x in _qk21_nodes()]

    def kronrod(fv):
        resk = _WGK0 * fv[0]
        for k in range(10):
            resk = resk + wpair[k] * (fv[1 + k] + fv[11 + k])
        return resk

    resk = kronrod(fv)
    if type(resk) is not float and type(resk) is not complex:
        fv = [complex(v) for v in fv]  # numpy values are summed as Python complex
        resk = kronrod(fv)
    resg = 0.0
    for k in range(5):
        resg = resg + _WG[k] * (fv[1 + k] + fv[11 + k])
    weights = [_WGK0] + wpair + wpair
    resabs = resasc = 0.0
    for w, v in zip(weights, fv):
        resabs = resabs + w * abs(v)
    for w, v in zip(weights, fv):
        resasc = resasc + w * abs(v - resk * 0.5)
    resabs *= abs(h)
    resasc *= abs(h)
    abserr = abs((resk - resg) * h)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    eps = sys.float_info.epsilon
    if resabs > sys.float_info.min / (50.0 * eps):
        abserr = max(eps * 50.0 * resabs, abserr)
    return resk * h, abserr, resabs, resasc


def _qk21_same(x, y):
    """Same type and same bits, NaN equal to NaN."""
    if type(x) is not type(y):
        return False
    if type(x) is complex:
        return _qk21_same(x.real, y.real) and _qk21_same(x.imag, y.imag)
    return struct.pack("<d", x) == struct.pack("<d", y) or (x != x and y != y)


def _qk21_cases(n, seed, wraps):
    """n seeded (f, a, b), a < b and a > b in turn, on intervals of length
    1e-6 to 30 in [-10, 10].  f mixes terms of magnitude 1e-3 to 1e3, is
    complex for a wrap flagged complex, and in one case in four is inf,
    -inf or nan past a point of the interval; wrap turns each value into
    the type f returns."""
    rng = random.Random(seed)
    for i in range(n):
        wrap, is_complex = wraps[i % len(wraps)]
        a = rng.uniform(-10.0, 10.0)
        b = a + (-1.0) ** i * 10.0 ** rng.uniform(-6.0, 1.5)
        p = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(5)]
        special = rng.choice((None, None, None, math.inf, -math.inf, math.nan) if i % 2 else (None,))
        cut = rng.uniform(min(a, b), max(a, b))

        def f(x, p=p, wrap=wrap, is_complex=is_complex, special=special, cut=cut):
            if special is not None and x > cut:
                v = special
            else:
                v = p[0] * math.sin(p[1] * x) + p[2] * x * x + p[3]
            return wrap(complex(v, p[4] * math.cos(x)) if is_complex else v)

        yield f, a, b


def _qk21_mismatches(rule, cases):
    """How many cases rule answers other than _qk21_reference, bit for bit."""
    return sum(
        not all(map(_qk21_same, rule(f, a, b), _qk21_reference(f, a, b)))
        for f, a, b in cases
    )


QK21_WRAPS = [
    (float, False),
    (complex, True),
    (np.float64, False),
    (np.complex64, True),
    (np.array, False),
    (np.array, True),
]


def test_rule_is_quadpacks_sums_node_for_node():
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in numpy values
        assert _qk21_mismatches(_qk21, _qk21_cases(3000, 1009, QK21_WRAPS)) == 0
        # a float integral for float values, a complex one for the rest
        for (f, a, b), (wrap, _) in zip(_qk21_cases(6, 1, QK21_WRAPS), QK21_WRAPS):
            value, *rest = _qk21(f, a, b)
            assert type(value) is (float if wrap is float else complex)
            assert [type(v) for v in rest] == [float, float, float]


def test_rule_calls_f_once_per_node_in_order():
    for f, a, b in _qk21_cases(50, 7, QK21_WRAPS[:2]):
        calls = []
        _qk21(lambda x: calls.append(x) or f(x), a, b)
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        assert len(calls) == 21
        assert all(map(_qk21_same, calls, [c + h * x for x in _qk21_nodes()]))


QUADPACK_CASES = {
    "x^-0.5": (lambda x: x**-0.5, 0.0, 1.0),
    "x^-0.9": (lambda x: x**-0.9, 0.0, 1.0),
    "log x": (math.log, 0.0, 1.0),
    "step at 0.9": (lambda x: 1.0 if x > 0.9 else 0.0, 0.0, 1.0),
    "exp(-x) sin 5x": (lambda x: math.exp(-x) * math.sin(5 * x), 0.0, 3.0),
}


@pytest.mark.parametrize("case", list(QUADPACK_CASES))
def test_finite_interval_matches_quadpack(case):
    # no break points: the same decisions as QUADPACK's dqagse, so the same
    # nodes and the same count
    si = pytest.importorskip("scipy.integrate")
    f, a, b = QUADPACK_CASES[case]
    g, calls = _counted(f)
    val, err = quad_interval(g, a, b)
    ref, ref_err, info = si.quad(f, a, b, epsabs=DEFAULT_TOL, epsrel=DEFAULT_TOL, limit=300, full_output=1)[:3]
    assert abs(val - ref) <= min(err, ref_err)
    assert sum(calls.values()) == info["neval"]


def test_break_points_and_infinite_range_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        # a jump and a kink at the break points 0.3 and 0.7
        ref = mp.quad(mp.exp, [0, 0.3]) + mp.quad(mp.cos, [0.3, 0.7]) + mp.quad(lambda x: abs(x - 0.7), [0.7, 1])
        inf_ref = mp.quad(lambda x: 1 / (1 + x * x), [0, mp.inf])

    def f(x):
        return math.exp(x) if x < 0.3 else math.cos(x) if x < 0.7 else abs(x - 0.7)

    val, err = quad_interval(f, 0.0, 1.0, points=[0.7, 0.3])
    assert abs(val - float(ref)) <= max(err, 1e-15) and err < 1e-12
    val, err = quad_interval(lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf)
    assert abs(val - float(inf_ref)) <= max(err, 1e-15) and err < 1e-10


def test_break_points_on_an_infinite_range_raise():
    # the map onto (0, 1] would drop them silently
    calls = []
    with pytest.raises(ValueError, match="break points apply to finite intervals only; b is inf"):
        quad_interval(lambda x: calls.append(x) or math.exp(-x), 0.0, math.inf, points=[1.0, 2.0])
    assert calls == []
    assert quad_interval(lambda x: math.exp(-x), 0.0, math.inf, points=[])[0] == pytest.approx(1.0, abs=1e-12)


def test_quadrature_error_names_why_the_call_stopped():
    # QUADPACK (and scipy's quad) stop 1/x on (0, 1] at the subdivision limit
    with pytest.raises(QuadratureError) as exc:
        quad_interval(lambda x: 1.0 / x, 0.0, 1.0)
    e = exc.value
    assert e.reason == STOP_REASONS[1] and e.neval == 21 + 42 * 299
    assert e.reason in str(e) and f"{e.neval} integrand evaluations" in str(e)
    # QUADPACK's divergence test flags x^-1.1 - 1/x
    with pytest.raises(QuadratureError) as exc:
        quad_interval(lambda x: x**-1.1 - 1.0 / x, 0.0, 1.0)
    assert exc.value.reason == STOP_REASONS[5] and "divergent" in str(exc.value)


@pytest.mark.parametrize("power", [1.5, 1.1])
def test_divergent_integral_raises_despite_a_small_error_estimate(power):
    # QUADPACK stops x^-p on (0, 1] with ier 5 and an error estimate near
    # 1e-13, its value being the finite part 1/(1 - p)
    with pytest.raises(QuadratureError) as exc:
        quad_interval(lambda x: x**-power, 0.0, 1.0)
    assert exc.value.ier == 5 and exc.value.error < 1e-10


def test_nan_result_raises():
    with pytest.raises(QuadratureError) as exc:
        quad_interval(lambda x: math.nan if x < 0.5 else 1.0, 0.0, 1.0)
    assert math.isnan(exc.value.error)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(asympush.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, asympush.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("a", [0, 1, 2])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dyadic_shells_sum_convergent_powers_of_log(a, k):
    # int_0^1 x^a ln^k x dx = (-1)^k k! / (a+1)^(k+1)
    val, diverges = dyadic_shells(lambda x: x**a * math.log(x) ** k, 1.0, 60, 1e-12)
    assert not diverges
    assert abs(val - (-1) ** k * math.factorial(k) / (a + 1) ** (k + 1)) < 1e-10


@pytest.mark.parametrize("a", [-1, -1.5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dyadic_shells_flag_divergent_powers_of_log(a, k):
    assert dyadic_shells(lambda x: x**a * math.log(x) ** k, 1.0, 60, 1e-12) == (math.inf, True)


def test_dyadic_shells_of_zero_and_of_supports_that_end_or_start_inside():
    assert dyadic_shells(lambda x: 0.0, 1.0, 26, 1e-8) == (0.0, False)
    with pytest.raises(ValueError, match="two windows"):
        dyadic_shells(lambda x: 0.0, 1.0, 11, 1e-8)
    # shells 0..5 carry equal mass and then nothing: convergent, and the
    # early stop waits until the two windows are disjoint
    val, diverges = dyadic_shells(lambda x: 1.0 / x if x >= 2.0**-6 else 0.0, 1.0, 26, 1e-10)
    assert not diverges and val == pytest.approx(6.0 * math.log(2.0), rel=1e-10)
    # shells 0..7 are empty: the windows start at the first shell that is not
    val, diverges = dyadic_shells(lambda x: 1.0 if x <= 2.0**-8 else 0.0, 1.0, 60, 1e-10)
    assert not diverges and val == pytest.approx(2.0**-8, rel=1e-12)


def test_geometric_grid_is_numpys_to_one_ulp():
    # every grid the package samples: acceptance criteria 2, 6 and 10, and the
    # zeta grid of check_hypotheses with the x grid at each of its points
    zetas = geometric_grid(1.0, 100.0, 10)
    grids = [(1e-4, 0.5, 20), (1e-3, 1e-1, 12), (1e-4, 0.9, 15), (1.0, 100.0, 10)]
    grids += [(1e-3, zeta, 6) for zeta in zetas]
    points = 0
    for a, b, n in grids:
        got, want = geometric_grid(a, b, n), np.geomspace(a, b, n).tolist()
        assert len(got) == n and (got[0], got[-1]) == (a, b)
        for g, w in zip(got, want):
            assert abs(g - w) <= math.ulp(w)
        points += n
    assert points == 117
