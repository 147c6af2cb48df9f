"""Finite asymptotic expansions: lists of (exponent, log-polynomial) terms.

One type holds both the declared data of functions on (0, inf) and the
results of the expansion engines, at either end.  An :class:`Expansion` of
``order`` r and ``log_power`` k claims

    f(v) = sum_j v^a_j p_j(ln v) + O(v^(r-1) ln^k v)     as v -> 0 (side "zero")
    f(v) = sum_j v^a_j p_j(ln v) + O(v^(-r-1) ln^k v)    as v -> inf (side "infinity")

This is the convention of the Mellin strip (1 - r_zero, 1 + r_infinity).
Under it the z-expansion of a sigma(x, zeta) of order p has order p, and a
t-expansion with remainder O(t^q) has order q + 1.  Terms run from the
leading one, by ascending Re exponent at zero and descending at infinity,
and none lies beyond the remainder.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

from .logpoly import EXPONENT_TOL, LogPolynomial

__all__ = ["Term", "Expansion", "make_side"]


@dataclass(frozen=True)
class Term:
    exponent: complex
    poly: LogPolynomial


@dataclass(frozen=True)
class Expansion:
    """Finite expansion at one end, under the order convention of the module docstring."""

    terms: tuple[Term, ...]
    order: float
    side: str  # "zero" | "infinity"
    log_power: int = 0
    # (exponent, coefficients from the top power down) per term, for evaluation
    _table: tuple[tuple[complex, tuple[complex, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.side not in ("zero", "infinity"):
            raise ValueError(f"side must be 'zero' or 'infinity', got {self.side!r}")
        # terms run from the leading one; terms of equal Re, such as a
        # conjugate pair, must differ in Im
        exps = [t.exponent for t in self.terms]
        sign = 1.0 if self.side == "zero" else -1.0
        for a, b in zip(exps, exps[1:]):
            if sign * (b.real - a.real) < 0 or b == a:
                raise ValueError(
                    f"{self.side}-side exponents must run from the leading term and differ, "
                    f"got {a} before {b}"
                )
        # the last term is the one nearest the remainder: it may not pass
        # v^(order-1) at zero or v^(-order-1) at infinity
        if exps and sign * exps[-1].real > self.order - sign + EXPONENT_TOL:
            raise ValueError(
                f"{self.side}-side exponent {exps[-1]} lies beyond the remainder of order {self.order}"
            )
        for t in self.terms:
            if t.poly.is_zero:
                raise ValueError(f"term at exponent {t.exponent} has zero polynomial")
        object.__setattr__(
            self, "_table", tuple((t.exponent, t.poly.coeffs[::-1]) for t in self.terms)
        )

    def poly_at(self, exponent: complex) -> LogPolynomial:
        for t in self.terms:
            if abs(t.exponent - exponent) <= EXPONENT_TOL:
                return t.poly
        return LogPolynomial()

    def coefficient(self, exponent: complex, log_power: int = 0) -> complex:
        """Coefficient of v^exponent ln^log_power v."""
        return self.poly_at(exponent).coefficient(log_power)

    def __call__(self, x: float) -> complex:
        return self.at_log(math.log(x)) if self._table else 0j

    def at_log(self, L: float) -> complex:
        """The expansion at x = e^L.

        The same operations in the same order as summing
        ``cmath.exp(t.exponent * L) * t.poly(L)`` over the terms with ``sum``,
        so the value is identical to the last bit; pure-power cancellation
        in the subtracted integrands depends on that.
        """
        if not self._table:
            return 0j
        exp = cmath.exp
        total = 0
        for alpha, coeffs in self._table:
            acc = 0j
            for c in coeffs:
                acc = acc * L + c
            total += exp(alpha * L) * acc
        return total


def make_side(
    terms: Sequence[tuple[complex, LogPolynomial | Sequence[complex]]],
    order: float,
    side: str,
    log_power: int = 0,
) -> Expansion:
    """Merge coincident exponents (within tolerance), drop zeros, sort leading-first."""
    merged: list[tuple[complex, LogPolynomial]] = []
    for alpha, poly in terms:
        if not isinstance(poly, LogPolynomial):
            poly = LogPolynomial(poly)
        for i, (a, p) in enumerate(merged):
            if abs(a - alpha) <= EXPONENT_TOL:
                merged[i] = (a, p + poly)
                break
        else:
            merged.append((complex(alpha), poly))
    merged = [(a, p) for a, p in merged if not p.is_zero]
    merged.sort(key=lambda t: (t[0].real, t[0].imag), reverse=(side == "infinity"))
    return Expansion(tuple(Term(a, p) for a, p in merged), order, side, log_power)
