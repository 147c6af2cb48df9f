"""Index sets, index families and exponent matrices.

An index set is a discrete subset of C x N0, closed under integer shifts of
the exponent and downward steps of the log power.  The sets are infinite, so
we materialize them from finite generators up to a truncation bound N: only
entries with Re(exponent) < N are stored.  All set-valued results are
reported truncated at the same bound.

Faces are plain string labels; an exponent matrix records, face by face, the
orders with which target boundary faces pull back, and is all the geometry
this module needs.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

from ._record import Record
from .logpoly import EXPONENT_TOL

__all__ = [
    "IndexEntry",
    "IndexSet",
    "IndexFamily",
    "ExponentMatrix",
    "IntegrabilityReport",
    "PushForwardResult",
    "complete",
    "extended_union",
    "push_index_family",
    "nullfaces",
    "check_integrability",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = 5.0


class IndexEntry(Record):
    """One allowed term: exponent alpha (stored as re/im) and log power k, ordered as (re, im, k)."""

    __slots__ = ("re", "im", "k")

    def __init__(self, re: float, im: float, k: int):
        if k < 0:
            raise ValueError("log power must be nonnegative")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "k", k)

    # inline tuples, no helper: sorted calls __lt__ ~1M times per hard-depth pass; > and >= reflect these
    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.re, self.im, self.k) < (other.re, other.im, other.k)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.re, self.im, self.k) <= (other.re, other.im, other.k)
        return NotImplemented

    @property
    def alpha(self) -> complex:
        return complex(self.re, self.im)

    @staticmethod
    def of(alpha: complex, k: int) -> "IndexEntry":
        alpha = complex(alpha)
        return IndexEntry(alpha.real, alpha.imag, k)

    def matches(self, other: "IndexEntry") -> bool:
        return (
            abs(self.re - other.re) <= EXPONENT_TOL
            and abs(self.im - other.im) <= EXPONENT_TOL
            and self.k == other.k
        )


def _dedup(entries) -> tuple[IndexEntry, ...]:
    out: list[IndexEntry] = []
    for e in sorted(entries):
        if not any(e.matches(kept) for kept in out):
            out.append(e)
    return tuple(out)


class IndexSet(NamedTuple):
    """Materialized index set: entries with Re alpha < truncation, sorted."""

    entries: tuple[IndexEntry, ...]
    truncation: float

    @staticmethod
    def from_entries(entries, truncation: float) -> "IndexSet":
        return IndexSet(_dedup([e for e in entries if e.re < truncation]), truncation)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def contains(self, alpha: complex, k: int) -> bool:
        probe = IndexEntry.of(alpha, k)
        return any(e.matches(probe) for e in self.entries)

    def min_re(self) -> float:
        if self.is_empty:
            raise ValueError("empty index set has no minimal real part")
        return min(e.re for e in self.entries)

    def as_triples(self) -> list[tuple[float, float, int]]:
        return [(e.re, e.im, e.k) for e in self.entries]

    def check_closure(self) -> list[str]:
        """Return violations of the closure conditions on the materialized set."""
        problems = []
        for e in self.entries:
            if e.re + 1 < self.truncation and not self.contains(e.alpha + 1, e.k):
                problems.append(f"missing integer shift of ({e.alpha}, {e.k})")
            for p in range(e.k):
                if not self.contains(e.alpha, p):
                    problems.append(f"missing log-power {p} below ({e.alpha}, {e.k})")
        return problems


IndexFamily = dict[str, IndexSet]


def complete(generators, truncation: float = DEFAULT_TRUNCATION) -> IndexSet:
    """Smallest index set containing the generators, truncated at Re alpha < N."""
    if not math.isfinite(truncation):
        raise ValueError(f"truncation must be finite, got {truncation}")
    gens = [g if isinstance(g, IndexEntry) else IndexEntry.of(g[0], g[1]) for g in generators]
    if not gens:
        raise ValueError("generator list must be non-empty")
    out: list[IndexEntry] = []
    for g in gens:
        for k in range(g.k + 1):
            p = 0
            while g.re + p < truncation:
                out.append(IndexEntry(g.re + p, g.im, k))
                p += 1
    return IndexSet.from_entries(out, truncation)


def extended_union(K: IndexSet, I: IndexSet) -> IndexSet:
    """K union I union {(z, p'+p''+1) : (z,p') in K, (z,p'') in I}, re-completed."""
    if abs(K.truncation - I.truncation) > EXPONENT_TOL:
        raise ValueError(
            f"mismatched truncation bounds: {K.truncation} vs {I.truncation}"
        )
    N = K.truncation
    out = list(K.entries) + list(I.entries)
    for a in K.entries:
        for b in I.entries:
            if abs(a.re - b.re) <= EXPONENT_TOL and abs(a.im - b.im) <= EXPONENT_TOL:
                out.append(IndexEntry(a.re, a.im, a.k + b.k + 1))
    if not out:
        return IndexSet.from_entries([], N)
    # re-complete: new high-log entries need their shifts and lower log powers
    return complete(out, N)


class _Matrix(NamedTuple):
    faces_x: tuple[str, ...]
    faces_y: tuple[str, ...]
    e: tuple[tuple[int, ...], ...]


class ExponentMatrix(_Matrix):
    """e[i][j] = order with which target face faces_y[j] pulls back at faces_x[i]."""

    __slots__ = ()

    def __new__(cls, faces_x: tuple[str, ...], faces_y: tuple[str, ...], e: tuple[tuple[int, ...], ...]):
        if len(e) != len(faces_x):
            raise ValueError("exponent matrix must have one row per source face")
        for row in e:
            if len(row) != len(faces_y):
                raise ValueError("exponent matrix must have one column per target face")
            if any((not isinstance(v, int)) or v < 0 for v in row):
                raise ValueError("exponent matrix entries must be nonnegative integers")
        return super().__new__(cls, faces_x, faces_y, e)

    def entry(self, G: str, H: str) -> int:
        return self.e[self.faces_x.index(G)][self.faces_y.index(H)]

    def is_b_normal(self) -> bool:
        """Combinatorial surrogate: each source face hits at most one target face."""
        return all(sum(1 for v in row if v != 0) <= 1 for row in self.e)


def nullfaces(matrix: ExponentMatrix) -> set[str]:
    """Source faces whose row is identically zero."""
    return {
        G
        for G, row in zip(matrix.faces_x, matrix.e)
        if all(v == 0 for v in row)
    }


def _require_faces(family: IndexFamily, matrix: ExponentMatrix) -> None:
    missing = [G for G in matrix.faces_x if G not in family]
    if missing:
        raise ValueError(f"index family misses source faces {missing}")


class PushForwardResult(NamedTuple):
    family: IndexFamily
    notes: tuple[str, ...] = ()


def push_index_family(
    matrix: ExponentMatrix,
    family: IndexFamily,
    truncation: float = DEFAULT_TRUNCATION,
) -> PushForwardResult:
    """Push an index family through an exponent matrix.

    For each target face H the contributing source faces are folded with the
    extended union in declared source-face order, each contribution being the
    source index set with exponents divided by the matrix entry.
    """
    _require_faces(family, matrix)
    if not matrix.is_b_normal():
        raise ValueError("exponent matrix fails the b-normality check")

    notes = []
    out: IndexFamily = {}
    for j, H in enumerate(matrix.faces_y):
        parts = []
        for i, G in enumerate(matrix.faces_x):
            e = matrix.e[i][j]
            if e == 0:
                continue
            # materialize deep enough that division still fills up to N
            src = complete(family[G].entries, truncation * e)
            parts.append(
                IndexSet.from_entries(
                    [IndexEntry(a.re / e, a.im / e, a.k) for a in src.entries],
                    truncation,
                )
            )
        if not parts:
            notes.append(f"target face {H!r} receives no source face; empty index set")
            out[H] = IndexSet.from_entries([], truncation)
        else:
            out[H] = reduce(extended_union, parts)
    return PushForwardResult(out, tuple(notes))


class IntegrabilityReport(NamedTuple):
    ok: bool
    violations: tuple[tuple[str, IndexEntry], ...] = ()


def check_integrability(family: IndexFamily, matrix: ExponentMatrix) -> IntegrabilityReport:
    """True iff every entry on every nullface has Re alpha > 0."""
    _require_faces(family, matrix)
    bad = []
    for G in sorted(nullfaces(matrix)):
        for e in family[G].entries:
            if e.re <= 0:
                bad.append((G, e))
    return IntegrabilityReport(not bad, tuple(bad))
