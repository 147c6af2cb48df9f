import cmath
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from asympush import quadrature
from asympush.quadrature import quad_01, quad_1inf, quad_interval


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


def test_zero_imaginary_parts_take_one_real_pass(monkeypatch):
    passes = []
    real_pass = quadrature._quad_real

    def counted_pass(*args, **kwargs):
        passes.append(args[1:3])
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_quad_real", counted_pass)
    val, err = quad_interval(lambda x: complex(math.sin(3 * x), 0.0), 0.0, 2.0)
    assert passes == [(0.0, 2.0)]
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
    # probes included: QUADPACK calls f at the same nodes with or without a
    # wrapper around it
    def f(x):
        return math.exp(-x) * math.sin(5 * x)

    for integrate, args, calls in [(quad_interval, (0.0, 3.0), 66), (quad_01, (), 150), (quad_1inf, (), 612)]:
        g, counts = _counted(f)
        val, err = integrate(g, *args)
        assert sum(counts.values()) == calls and isinstance(val, float)
