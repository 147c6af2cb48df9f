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
from typing import Callable, Sequence

from ._record import Record
from .logpoly import EXPONENT_TOL, LogPolynomial

__all__ = ["Term", "Expansion", "make_side", "in_t"]


class Term(Record):
    __slots__ = ("exponent", "poly")

    def __init__(self, exponent: complex, poly: LogPolynomial):
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "poly", poly)


class Expansion(Record):
    """Finite expansion at one end, under the order convention of the module docstring."""

    # _table: (exponent and its exp as from _typed, coefficients from the top power down) per term;
    # _runs: the terms grouped into runs (see _runs), or None when no run has two terms;
    # _sign: +1 at zero, -1 at infinity
    __slots__ = ("terms", "order", "side", "log_power", "_table", "_runs", "_sign")

    def __init__(self, terms: tuple[Term, ...], order: float, side: str, log_power: int = 0):
        if side not in ("zero", "infinity"):
            raise ValueError(f"side must be 'zero' or 'infinity', got {side!r}")
        # terms run from the leading one; terms of equal Re, such as a
        # conjugate pair, must differ in Im
        exps = [t.exponent for t in terms]
        sign = 1.0 if side == "zero" else -1.0
        for a, b in zip(exps, exps[1:]):
            if sign * (b.real - a.real) < 0 or b == a:
                raise ValueError(
                    f"{side}-side exponents must run from the leading term and differ, "
                    f"got {a} before {b}"
                )
        # the last term is the one nearest the remainder: it may not pass
        # v^(order-1) at zero or v^(-order-1) at infinity
        if exps and sign * exps[-1].real > order - sign + EXPONENT_TOL:
            raise ValueError(
                f"{side}-side exponent {exps[-1]} lies beyond the remainder of order {order}"
            )
        for t in terms:
            if t.poly.is_zero:
                raise ValueError(f"term at exponent {t.exponent} has zero polynomial")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "log_power", log_power)
        table = tuple((*_typed(t.exponent), _real(t.poly.coeffs[::-1])) for t in terms)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_runs", _runs(terms, sign))
        object.__setattr__(self, "_sign", sign)

    def poly_at(self, exponent: complex) -> LogPolynomial:
        for t in self.terms:
            if abs(t.exponent - exponent) <= EXPONENT_TOL:
                return t.poly
        return LogPolynomial()

    def coefficient(self, exponent: complex, log_power: int = 0) -> complex:
        """Coefficient of v^exponent ln^log_power v."""
        return self.poly_at(exponent).coefficient(log_power)

    def __call__(self, x: float) -> complex:
        return self.at_log(math.log(x)) if self._table else 0.0

    def at_log(self, L: float) -> complex:
        """The expansion at x = e^L.

        A run of terms a, a+1, a+2, ... at zero (a, a-1, ... at infinity) is
        e^(aL) times a polynomial in y = e^L (e^-L at infinity) and L: one
        Horner pass in y per log power, then one in L.  One ``math.exp``
        gives y for every run, so a run costs one exponential, ``math.exp``
        for a real a, however many terms it holds; real data give a float,
        the real part of the all-complex evaluation to the last bit, and a
        side with no terms gives 0.0, so that the subtracted integrand of a
        real function stays real.  A run
        of one term is evaluated as ``exp(a * L) * p(L)``, and a side whose
        runs all hold one term gives the sum of those over the terms, with
        ``sum``, to the last bit; pure-power cancellation in the subtracted
        integrands depends on that.  A longer run may differ from that sum
        in the last bits, as e^((a+n)L) differs from e^(aL) y^n.  Where y
        would pass 1 (x > 1 at zero, x < 1 at infinity) and could overflow,
        the terms are summed one by one, as on a side without runs.
        """
        runs = self._runs
        if runs is None or L * self._sign > 0.0:
            if not self._table:
                return 0.0
            total = 0
            for alpha, exp, coeffs in self._table:
                acc = 0
                for c in coeffs:
                    acc = acc * L + c
                total += exp(alpha * L) * acc
            return total
        y = math.exp(L * self._sign)
        total = 0
        for alpha, exp, columns in runs:
            acc = None
            for p, rest in columns:  # Horner in y per log power, then in L
                for c in rest:
                    p = p * y + c
                acc = p if acc is None else acc * L + p
            total += exp(alpha * L) * acc
        return total


# A run takes at most this many missing terms between two of its terms:
# each costs one Horner step, and a new run one exponential.
_MAX_GAP = 3


def _typed(a: complex) -> tuple[complex | float, Callable]:
    """The exponent, a float when real, and the exp to take it with."""
    return (a.real, math.exp) if a.imag == 0 else (a, cmath.exp)


def _real(coeffs: tuple[complex, ...]) -> tuple[complex | float, ...]:
    """The coefficients, as floats when all are real."""
    return coeffs if any(c.imag for c in coeffs) else tuple(c.real for c in coeffs)


def _runs(terms: Sequence[Term], sign: float) -> tuple[tuple, ...] | None:
    """The terms, leading first, grouped into runs a, a + sign, a + 2 sign, ...

    The exponents of a run share their imaginary part, and each differs from
    the leading one a by exactly an integer in floating point, at most
    _MAX_GAP + 1 past the run's last term so far.  A run is (a, exp, columns)
    with a and exp as from _typed: one column per log power, from the top
    one down, each (first, rest) with the coefficients of that power from
    the run's last term to its leading one, 0 for a missing term, floats
    when all are real, and (0.0, ()) when all are 0.  A run of one term has
    columns (0, ()) and then (c, ()) per coefficient, as in _table, so that
    at_log makes the term sum's operations.  None when no run holds two terms.
    """
    groups: list[list] = []  # [a, offset of the last term, {offset: coefficients}]
    for t in terms:
        e = t.exponent
        for g in groups:
            d = sign * (e.real - g[0].real)
            if e.imag == g[0].imag and d.is_integer() and d - g[1] <= _MAX_GAP + 1:
                g[1] = n = int(d)
                g[2][n] = t.poly.coeffs
                break
        else:
            groups.append([e, 0, {0: t.poly.coeffs}])
    if len(groups) == len(terms):
        return None
    runs = []
    for a, last, members in groups:
        if not last:  # one term: acc = 0, then Horner in L, as in the term sum
            coeffs = _real(members[0][::-1])
            runs.append((*_typed(a), ((0, ()),) + tuple((c, ()) for c in coeffs)))
            continue
        rows = [members.get(n, ()) for n in range(last, -1, -1)]
        columns = []
        for k in range(max(map(len, rows)) - 1, -1, -1):
            col = _real(tuple(r[k] if k < len(r) else 0j for r in rows))
            columns.append((col[0], col[1:]) if any(col) else (0.0, ()))
        runs.append((*_typed(a), tuple(columns)))
    return tuple(runs)


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


def in_t(terms, order: float, shift: float = 0.0, log_power: int = 0) -> Expansion:
    """Terms (a, coefficients of P) of z^a P(ln z), times t^shift, read in t = 1/z: t^(shift-a) P(-ln t)."""
    # subtracting from 0 keeps zero imaginary parts positive
    terms = [(shift - a, [0 - c if m % 2 else c for m, c in enumerate(cs)]) for a, cs in terms]
    return make_side(terms, order, "zero", log_power)
