import cmath
import math
import os
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import asympush
from asympush.quadrature import (
    DEFAULT_TOL,
    STOP_REASONS,
    QuadratureError,
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
