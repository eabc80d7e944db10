"""Delta-vectors and conversions to and from lattice-point counting data.

A delta-vector (delta_0, ..., delta_d) determines the counting polynomial
of a d-dimensional lattice polytope through

    L(m) = sum_j delta_j * binom(d + m - j, d),

and conversely the values L(0), ..., L(d) determine the vector by binomial
inversion.  This module owns that dictionary plus the standard transforms
(dilation halving, products, cube vectors, series expansion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import RatPoly, eulerian

MAX_DIMENSION = 64


class InvalidDeltaError(ValueError):
    """Entries do not form a delta-vector (delta_0 != 1, negatives, ...)."""


class NotADeltaVectorError(ValueError):
    """Counting values do not come from any lattice polytope."""


@dataclass(frozen=True)
class DeltaVector:
    """The integer sequence (delta_0, ..., delta_d); build via validate_delta."""

    entries: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    @property
    def palindromic(self) -> bool:
        return self.entries == self.entries[::-1]

    @property
    def positive_interior(self) -> bool:
        return self.entries[-1] > 0

    @property
    def hibi_lbt_consistent(self) -> bool:
        """Lower bound property: delta_d > 0 implies delta_1 <= delta_i for
        2 <= i <= d-1.  Vacuously true when the interior is empty."""
        if not self.positive_interior:
            return True
        d1 = self.entries[1]
        return all(self.entries[i] >= d1 for i in range(2, self.d))

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.entries)

    def to_json(self) -> list[int]:
        return list(self.entries)


def validate_delta(entries) -> DeltaVector:
    """Check and wrap a candidate delta-vector.

    Requires delta_0 = 1, nonnegative integer entries, and dimension
    between 1 and 64.
    """
    vals = list(entries)
    if not vals:
        raise InvalidDeltaError("empty delta-vector")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in vals):
        raise InvalidDeltaError("delta entries must be integers")
    if vals[0] != 1:
        raise InvalidDeltaError("delta_0 must be 1")
    if any(v < 0 for v in vals):
        raise InvalidDeltaError("delta entries must be nonnegative")
    d = len(vals) - 1
    if d < 1:
        raise InvalidDeltaError("dimension must be at least 1")
    if d > MAX_DIMENSION:
        raise InvalidDeltaError(f"dimension capped at {MAX_DIMENSION}")
    return DeltaVector(tuple(vals))


def parse_delta(text: str) -> DeltaVector:
    """Parse the comma-separated serialization, e.g. '1,76,230,76,1'."""
    try:
        vals = [int(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidDeltaError(f"unparseable delta-vector {text!r}") from exc
    return validate_delta(vals)


@dataclass(frozen=True)
class EhrhartData:
    """Counting polynomial of a delta-vector and its standard statistics."""

    polynomial: RatPoly
    normalized_volume: int   # d! vol = sum of entries
    point_count: int         # L(1) = delta_1 + d + 1
    interior_count: int      # delta_d


@lru_cache(maxsize=None)
def _binomial_basis(d: int) -> tuple[tuple[int, ...], ...]:
    """Row j (0 <= j <= d): the integer coefficients of
    d! * binom(z + d - j, d) = (z + d - j)(z + d - j - 1)...(z + 1 - j)."""
    rows = []
    for j in range(d + 1):
        row = [1]
        for c in range(1 - j, d + 1 - j):
            # row <- row * (z + c)
            row = [c * x + y for x, y in zip(row + [0], [0] + row)]
        rows.append(tuple(row))
    return tuple(rows)


def ehrhart_from_delta(dv: DeltaVector) -> EhrhartData:
    """L(z) = sum_j delta_j * binom(z + d - j, d), accumulated in integers
    over the cached rows of d! * binom(z + d - j, d) and divided by d! once."""
    d = dv.d
    acc = [0] * (d + 1)
    for delta_j, row in zip(dv.entries, _binomial_basis(d)):
        if delta_j:
            for k, c in enumerate(row):
                acc[k] += delta_j * c
    fact = math.factorial(d)
    return EhrhartData(
        polynomial=RatPoly([Fraction(c, fact) for c in acc]),
        normalized_volume=dv.total,
        point_count=dv.entries[1] + d + 1,
        interior_count=dv.entries[-1],
    )


def ehrhart_polynomial(dv: DeltaVector) -> RatPoly:
    return ehrhart_from_delta(dv).polynomial


def delta_from_values(values, d: int) -> DeltaVector:
    """Invert counting values L(0), ..., L(d) into a delta-vector.

    delta_i = sum_{j<=i} (-1)^(i-j) binom(d+1, i-j) L(j).  Raises
    NotADeltaVectorError when the result is not a nonnegative integer
    vector starting at 1 (the values then count points of no polytope).
    """
    vals = list(values)
    if len(vals) != d + 1:
        raise NotADeltaVectorError(f"need exactly d+1 = {d + 1} values")
    if vals[0] != 1:
        raise NotADeltaVectorError("L(0) must be 1")
    out = []
    for i in range(d + 1):
        acc = 0
        for j in range(i + 1):
            acc += (-1) ** (i - j) * math.comb(d + 1, i - j) * vals[j]
        if isinstance(acc, Fraction):
            if acc.denominator != 1:
                raise NotADeltaVectorError(
                    f"values {vals} invert to non-integer delta_{i} = {acc}"
                )
            acc = int(acc)
        out.append(acc)
    if any(v < 0 for v in out):
        raise NotADeltaVectorError(f"values {vals} invert to non-delta {out}")
    try:
        return validate_delta(out)
    except InvalidDeltaError as exc:
        raise NotADeltaVectorError(str(exc)) from exc


def reciprocity_holds(dv: DeltaVector) -> bool:
    """Exact polynomial identity L(-m-1) == (-1)^d L(m); equivalent to the
    vector being palindromic."""
    poly = ehrhart_polynomial(dv)
    lhs = poly.compose_linear(-1, -1)
    rhs = poly * ((-1) ** dv.d)
    return lhs == rhs


def cube_delta(d: int) -> DeltaVector:
    """Delta-vector of the cube [-1, 1]^d, with counting polynomial
    (2m+1)^d: delta_i = sum_j binom(d+1, 2i-j) A(d, j)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    entries = []
    for i in range(d + 1):
        acc = 0
        for j in range(d):
            k = 2 * i - j
            if 0 <= k <= d + 1:
                acc += math.comb(d + 1, k) * eulerian(d, j)
        entries.append(acc)
    return validate_delta(entries)


def halve_dilation_delta(dvq: DeltaVector) -> DeltaVector:
    """Delta-vector of a polytope P with L_P(m) = L_Q(2m):
    delta^P_i = sum_j binom(d+1, 2i-j) delta^Q_j."""
    d = dvq.d
    entries = []
    for i in range(d + 1):
        acc = 0
        for j in range(d + 1):
            k = 2 * i - j
            if 0 <= k <= d + 1:
                acc += math.comb(d + 1, k) * dvq.entries[j]
        entries.append(acc)
    return validate_delta(entries)


def product_delta(a: DeltaVector, b: DeltaVector) -> DeltaVector:
    """Delta-vector of a direct product, from L(m) = L_a(m) * L_b(m)."""
    d = a.d + b.d
    values = zip(ehrhart_series(a, d + 1), ehrhart_series(b, d + 1))
    return delta_from_values([x * y for x, y in values], d)


def ehrhart_series(dv: DeltaVector, terms: int) -> list[int]:
    """First `terms` coefficients of the generating series
    delta(t) / (1-t)^(d+1); the m-th coefficient equals L(m)."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    d = dv.d
    out = []
    for m in range(terms):
        acc = 0
        for j, delta_j in enumerate(dv.entries):
            if delta_j and d + m - j >= d:
                acc += delta_j * math.comb(d + m - j, d)
        out.append(acc)
    return out
