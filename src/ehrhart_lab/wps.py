"""Weight systems of (fake) weighted projective spaces.

A weight system (lambda_0 <= ... <= lambda_d) with sum h carries all the
arithmetic this package needs: divisibility of h by each weight decides
the Gorenstein property, fractional-part sums over kappa in [0, h) decide
terminality and produce the delta-vector of the associated simplex, and
h^d / prod(lambda) is the anticanonical degree of the dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .delta import DeltaVector, validate_delta
from .exact import IntMatrix, smith_normal_form
from .lattice import LatticeSimplex


class NotWellFormedError(ValueError):
    """Some d-subset of the weights has a common factor."""


class NotGorensteinError(ValueError):
    """Some weight does not divide the weight sum."""


@dataclass(frozen=True)
class WeightSystem:
    """Sorted positive weights (lambda_0, ..., lambda_d)."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) < 2:
            raise ValueError("need at least two weights")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if list(self.weights) != sorted(self.weights):
            raise ValueError("weights must be sorted ascending")

    @classmethod
    def of(cls, weights) -> "WeightSystem":
        return cls(tuple(sorted(int(w) for w in weights)))

    @property
    def d(self) -> int:
        return len(self.weights) - 1

    @property
    def h(self) -> int:
        return sum(self.weights)

    def __str__(self) -> str:
        return ",".join(str(w) for w in self.weights)


def is_well_formed(w: WeightSystem) -> bool:
    """gcd of every d-element subset is 1, i.e. dropping any single weight
    leaves a coprime tuple."""
    n = len(w.weights)
    prefix = [0] * (n + 1)
    suffix = [0] * (n + 1)
    for i in range(n):
        prefix[i + 1] = math.gcd(prefix[i], w.weights[i])
    for i in range(n - 1, -1, -1):
        suffix[i] = math.gcd(suffix[i + 1], w.weights[i])
    return all(math.gcd(prefix[i], suffix[i + 1]) == 1 for i in range(n))


def is_gorenstein(w: WeightSystem) -> bool:
    """Every weight divides the weight sum (the associated simplex is then
    reflexive).  Plain divisibility; well-formedness is checked where a
    construction actually needs it."""
    return all(w.h % wi == 0 for wi in w.weights)


def satisfies_terminal_inequalities(w: WeightSystem) -> bool:
    """Necessary inequalities lambda_i / h < 1 / (d - i + 2) for
    i = 2, ..., d (sorted weights).  A fast filter, not sufficient."""
    h = w.h
    d = w.d
    return all(w.weights[i] * (d - i + 2) < h for i in range(2, d + 1))


def _height(weights: tuple[int, ...], h: int, kappa: int) -> int:
    """sum of fractional parts of lambda_i * kappa / h (always an integer)."""
    return sum(wi * kappa % h for wi in weights) // h


def is_terminal(w: WeightSystem) -> bool:
    """Exact terminality: the fractional-part sums must avoid {0, 1} and
    {d, d+1} for every kappa in {2, ..., h-2}; empty ranges pass."""
    if not is_gorenstein(w):
        raise NotGorensteinError(f"weights {w} are not Gorenstein")
    d, h = w.d, w.h
    return all(2 <= _height(w.weights, h, k) <= d - 1 for k in range(2, h - 1))


def wps_delta(w: WeightSystem) -> DeltaVector:
    """Delta-vector of the weight simplex: delta_j counts the kappa in
    [0, h) whose fractional-part sum equals j."""
    if not is_gorenstein(w):
        raise NotGorensteinError(f"weights {w} are not Gorenstein")
    hist = [0] * (w.d + 1)
    for k in range(w.h):
        hist[_height(w.weights, w.h, k)] += 1
    return validate_delta(hist)


def anticanonical_degree(w: WeightSystem) -> Fraction:
    """h^d / prod(lambda_i): the normalized volume of the dual simplex."""
    return Fraction(w.h ** w.d, math.prod(w.weights))


def divides_anticanonical_degree(w: WeightSystem, mult: int) -> bool:
    """Whether mult divides h^d / prod(lambda_i) exactly (required for the
    dual of a multiplicity-`mult` quotient to be a lattice polytope)."""
    q = anticanonical_degree(w) / mult
    return q.denominator == 1


def simplex_from_weights(w: WeightSystem) -> LatticeSimplex:
    """The simplex of the weighted projective space: the images of the
    standard basis vectors in Z^(d+1) / Z.(lambda_0, ..., lambda_d).

    The Smith normal form of the weight row gives the quotient basis, so
    the vertices always generate the full lattice (multiplicity one) and
    satisfy sum lambda_i v_i = 0.
    """
    if not is_well_formed(w):
        raise NotWellFormedError(f"weights {w} are not well-formed")
    n = len(w.weights)
    _, snf, v = smith_normal_form(IntMatrix([list(w.weights)]))
    assert snf.data[0][0] == 1  # gcd of well-formed weights
    # row i of V, minus the first column, is the image of e_i
    verts = [tuple(v.data[i][1:]) for i in range(n)]
    s = LatticeSimplex.of(verts)
    assert all(
        sum(w.weights[i] * verts[i][j] for i in range(n)) == 0 for j in range(n - 1)
    )
    return s


def enumerate_weights(d: int, h: int) -> list[WeightSystem]:
    """All well-formed Gorenstein terminal weight systems of length d+1
    summing to h, in lexicographic order.

    The recursion draws weights from the divisors of h (Gorenstein) and
    prunes with the terminal inequalities while the tuple is being built,
    so the search is fast even for the dimension-10 sweeps.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if h < d + 1:
        return []
    divisors = sorted(x for x in range(1, h + 1) if h % x == 0)
    out: list[WeightSystem] = []

    def recurse(prefix: list[int], remaining: int, position: int):
        slots = d + 1 - position
        if slots == 0:
            if remaining == 0:
                w = WeightSystem(tuple(prefix))
                if is_well_formed(w) and is_terminal(w):
                    out.append(w)
            return
        lo = prefix[-1] if prefix else 1
        for value in divisors:
            if value < lo:
                continue
            if value * slots > remaining:
                break
            if position >= 2 and value * (d - position + 2) >= h:
                break
            recurse(prefix + [value], remaining - value, position + 1)

    recurse([], h, 0)
    return out
