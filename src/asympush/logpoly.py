"""Complex polynomials in a logarithm variable, plus closed-form singular moments.

A ``LogPolynomial`` stores the coefficients of powers of L, where L stands for
the logarithm of whatever variable the surrounding computation uses (ln x,
ln t, ln z...).  The moment functions are the analytic continuations of
``int_0^1 x^a ln^k x dx`` and ``int_1^inf x^a ln^k x dx``; they are the
building blocks of regularized integration and Mellin continuation.
"""

from __future__ import annotations

import math
from math import comb

from ._record import Record

__all__ = [
    "LogPolynomial",
    "PoleError",
    "moment_unit_interval",
    "moment_tail",
    "EXPONENT_TOL",
    "MAX_LOG_POWER",
]

# Tolerance for deciding two exponents are equal (shared with indexsets).
EXPONENT_TOL = 1e-9

MAX_LOG_POWER = 20
_FACTORIALS = tuple(math.factorial(k) for k in range(MAX_LOG_POWER + 1))


class PoleError(ZeroDivisionError):
    """Moment requested at (or too close to) the pole alpha = -1."""


class LogPolynomial(Record):
    """Polynomial sum(coeffs[i] * L**i); the zero polynomial has no coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, L: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * L + c
        return acc

    def coefficient(self, i: int) -> complex:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0j

    def __add__(self, other: "LogPolynomial") -> "LogPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return LogPolynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def scale(self, c: complex) -> "LogPolynomial":
        return LogPolynomial(tuple(c * a for a in self.coeffs))

    def antiderivative(self) -> "LogPolynomial":
        """P with P(0) = 0 and P' = self."""
        if self.is_zero:
            return self
        return LogPolynomial((0,) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def derivative(self) -> "LogPolynomial":
        return LogPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def shift(self, c: complex) -> "LogPolynomial":
        """The polynomial L -> self(L + c), expanded in powers of L."""
        if self.is_zero or c == 0:
            return self
        return LogPolynomial(shifted(self.coeffs, c))

    def times_log_power(self, j: int) -> "LogPolynomial":
        """Multiply by L**j."""
        if j < 0:
            raise ValueError("log power must be nonnegative")
        if self.is_zero or j == 0:
            return self
        return LogPolynomial((0,) * j + self.coeffs)


def shifted(coeffs: tuple[complex, ...], c: complex) -> list[complex]:
    """The coefficients of L -> p(L + c), p = sum(coeffs[i] * L**i), trailing zeros dropped."""
    out = [0j] * len(coeffs)
    for i, a in enumerate(coeffs):
        # a * (L + c)^i
        for m in range(i + 1):
            out[m] += a * comb(i, m) * c ** (i - m)
    while out and out[-1] == 0:
        out.pop()
    return out


def _check_moment_args(alpha: complex, k: int) -> None:
    if k < 0 or k > MAX_LOG_POWER:
        raise ValueError(f"log power k={k} outside [0, {MAX_LOG_POWER}]")
    if abs(alpha + 1) <= EXPONENT_TOL:
        raise PoleError(f"moment has a pole at alpha = -1 (got alpha = {alpha})")


def moment_unit_interval(alpha: complex, k: int) -> complex:
    """Analytic continuation of int_0^1 x^alpha ln^k x dx = (-1)^k k!/(alpha+1)^(k+1)."""
    _check_moment_args(alpha, k)
    return (-1) ** k * _FACTORIALS[k] / (complex(alpha) + 1) ** (k + 1)


def moment_tail(alpha: complex, k: int) -> complex:
    """Analytic continuation of int_1^inf x^alpha ln^k x dx = k!/(-(alpha+1))^(k+1)."""
    _check_moment_args(alpha, k)
    return _FACTORIALS[k] / (-(complex(alpha) + 1)) ** (k + 1)
