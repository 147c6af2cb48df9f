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
    """Finite expansion at one end, in the module docstring's convention; built as by make_side."""

    # _sign: +1 at zero, -1 at infinity;
    # _table: (exponent and its exp as from _typed, coefficients from the top power down) per term;
    # _runs: the terms grouped into runs (see _runs), or None when no run has two terms;
    # _at: the evaluator at_log calls, chosen by the shape of the side (see _evaluator)
    __slots__ = ("terms", "order", "side", "log_power", "_sign", "_table", "_runs", "_at")

    def __init__(self, terms: Sequence[Term], order: float, side: str, log_power: int = 0):
        _build(self, [(t.exponent, t.poly) for t in terms], order, side, log_power)

    def __reduce__(self):  # the evaluator, a closure, does not pickle: the copy builds its own
        return Expansion, (self.terms, self.order, self.side, self.log_power)

    def poly_at(self, exponent: complex) -> LogPolynomial:
        for t in self.terms:
            if abs(t.exponent - exponent) <= EXPONENT_TOL:
                return t.poly
        return LogPolynomial()

    def coefficient(self, exponent: complex, log_power: int = 0) -> complex:
        """Coefficient of v^exponent ln^log_power v."""
        return self.poly_at(exponent).coefficient(log_power)

    def __call__(self, x: float) -> complex:
        return self._at(math.log(x)) if self.terms else 0.0

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
        return self._at(L)


def _build(e: Expansion, terms: Sequence, order: float, side: str, log_power: int) -> Expansion:
    """Fill ``e`` with the (exponent, polynomial) pairs as :func:`make_side` describes them."""
    if side not in ("zero", "infinity"):
        raise ValueError(f"side must be 'zero' or 'infinity', got {side!r}")
    sign = 1.0 if side == "zero" else -1.0
    pairs = [(complex(a), p if isinstance(p, LogPolynomial) else LogPolynomial(p)) for a, p in terms]
    if not (
        all(not p.is_zero for _, p in pairs)
        and all(sign * (b.real - a.real) > EXPONENT_TOL for (a, _), (b, _) in zip(pairs, pairs[1:]))
    ):
        pairs = _merged(pairs, side)
    terms = tuple(Term(a, p) for a, p in pairs)
    # the last term is the one nearest the remainder: it may not pass
    # v^(order-1) at zero or v^(-order-1) at infinity
    if terms and sign * terms[-1].exponent.real > order - sign + EXPONENT_TOL:
        raise ValueError(
            f"{side}-side exponent {terms[-1].exponent} lies beyond the remainder of order {order}"
        )
    object.__setattr__(e, "terms", terms)
    object.__setattr__(e, "order", order)
    object.__setattr__(e, "side", side)
    object.__setattr__(e, "log_power", log_power)
    object.__setattr__(e, "_sign", sign)
    table = tuple([(*_typed(t.exponent), _real(t.poly.coeffs[::-1])) for t in terms])
    runs = _runs(terms, sign)
    object.__setattr__(e, "_table", table)
    object.__setattr__(e, "_runs", runs)
    object.__setattr__(e, "_at", _evaluator(table, runs, sign))
    return e


def _zero(L: float) -> float:
    return 0.0


def _evaluator(table: tuple, runs: tuple | None, sign: float) -> Callable[[float], complex]:
    """at_log of a side with these tables: a loop chosen once by the side's shape.

    Each loop makes the floating-point operations of the general one, in its
    order: 0.0 for no terms; the terms one by one for a side without runs;
    for one run of one log power, one Horner pass in y; for other runs, a
    Horner pass in y per log power, then one in L.
    """
    if not table:
        return _zero

    def by_terms(L: float) -> complex:
        total = 0
        for alpha, exp, coeffs in table:
            acc = 0
            for c in coeffs:
                acc = acc * L + c
            total += exp(alpha * L) * acc
        return total

    if runs is None:
        return by_terms
    if len(runs) == 1 and len(runs[0][2]) == 1:
        ((alpha, exp, ((first, rest),)),) = runs

        def one_run(L: float) -> complex:
            if L * sign > 0.0:
                return by_terms(L)
            y = math.exp(L * sign)
            p = first
            for c in rest:
                p = p * y + c
            return 0 + exp(alpha * L) * p  # the general loop's total starts at 0

        return one_run

    def by_runs(L: float) -> complex:
        if L * sign > 0.0:
            return by_terms(L)
        y = math.exp(L * sign)
        total = 0
        for alpha, exp, columns in runs:
            acc = None
            for p, rest in columns:  # Horner in y per log power, then in L
                for c in rest:
                    p = p * y + c
                acc = p if acc is None else acc * L + p
            total += exp(alpha * L) * acc
        return total

    return by_runs


# A run takes at most this many missing terms between two of its terms:
# each costs one Horner step, and a new run one exponential.
_MAX_GAP = 3


def _typed(a: complex) -> tuple[complex | float, Callable]:
    """The exponent, a float when real, and the exp to take it with."""
    return (a.real, math.exp) if a.imag == 0 else (a, cmath.exp)


def _real(coeffs: tuple[complex, ...]) -> tuple[complex | float, ...]:
    """The coefficients, as floats when all are real."""
    for c in coeffs:
        if c.imag:
            return coeffs
    return tuple([c.real for c in coeffs])


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
    """Merge coincident exponents (within tolerance), drop zeros, sort leading-first.

    Terms that already run from the leading one, each more than EXPONENT_TOL
    past the one before in Re, and none of them zero, as every transform of
    a side and every Taylor side gives them, are taken as they come, in one
    pass: no two of them are within EXPONENT_TOL, so merging and sorting
    them would change nothing.
    """
    return _build(object.__new__(Expansion), terms, order, side, log_power)


def _merged(pairs: list[tuple[complex, LogPolynomial]], side: str) -> list[tuple[complex, LogPolynomial]]:
    """The terms with coincident exponents merged, zeros dropped, leading first."""
    merged: list[tuple[complex, LogPolynomial]] = []
    for alpha, poly in pairs:
        for i, (a, p) in enumerate(merged):
            if abs(a - alpha) <= EXPONENT_TOL:
                merged[i] = (a, p + poly)
                break
        else:
            merged.append((alpha, poly))
    merged = [(a, p) for a, p in merged if not p.is_zero]
    merged.sort(key=lambda t: (t[0].real, t[0].imag), reverse=(side == "infinity"))
    return merged


def in_t(terms, order: float, shift: float = 0.0, log_power: int = 0) -> Expansion:
    """Terms (a, coefficients of P) of z^a P(ln z), times t^shift, read in t = 1/z: t^(shift-a) P(-ln t)."""
    # subtracting from 0 keeps zero imaginary parts positive
    terms = [(shift - a, [0 - c if m % 2 else c for m, c in enumerate(cs)]) for a, cs in terms]
    return make_side(terms, order, "zero", log_power)
