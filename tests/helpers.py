"""Shared test utilities: random generators for delta-vectors and
reflexive simplices, and small matrix helpers."""

import random
from fractions import Fraction

from ehrhart_lab.criteria import LowDimClassification, dim6_cubic, dim7_cubic
from ehrhart_lab.delta import DeltaVector, validate_delta
from ehrhart_lab.exact import (
    _derivative,
    _sylvester_det,
    descartes_positive_bound,
    halfplane_counts,
)
from ehrhart_lab.lattice import LatticeSimplex
from ehrhart_lab.roots import FAILS_EXACT, HOLDS_EXACT, HypothesisVerdict, _witness
from ehrhart_lab.wps import WeightSystem, enumerate_weights, simplex_from_weights


def random_palindromic(rng: random.Random, d: int, hi: int = 3000) -> DeltaVector:
    """Random palindromic vector with all entries >= 1."""
    half = [rng.randint(1, hi) for _ in range((d - 1) // 2)]
    mid = [rng.randint(1, hi)] if d % 2 == 0 else []
    body = half + mid + half[::-1]
    return validate_delta([1] + body + [1])


def random_unimodular(rng: random.Random, d: int, steps: int = 8):
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    if d < 2:
        return m
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for k in range(d):
            m[i][k] += c * m[j][k]
    return m


def transform_simplex(s: LatticeSimplex, u, rng: random.Random) -> LatticeSimplex:
    d = s.d
    verts = [
        [sum(v[k] * u[k][j] for k in range(d)) for j in range(d)]
        for v in s.vertices
    ]
    rng.shuffle(verts)
    return LatticeSimplex.of(verts)


def small_gorenstein_systems(d_max: int = 6, h_max: int = 30) -> list[WeightSystem]:
    """Well-formed Gorenstein terminal weight systems with small data."""
    out = []
    for d in range(2, d_max + 1):
        for h in range(d + 1, h_max + 1):
            out.extend(enumerate_weights(d, h))
    return out


def random_reflexive_simplex(rng: random.Random, d_max: int = 5) -> LatticeSimplex:
    """A reflexive simplex in disguise: a weight simplex of a random small
    Gorenstein system, hit with a random change of basis."""
    pool = [w for w in small_gorenstein_systems(d_max, 14) if 2 <= w.d <= d_max]
    w = rng.choice(pool)
    s = simplex_from_weights(w)
    return transform_simplex(s, random_unimodular(rng, s.d, steps=4), rng)


def fraction_remainder_chain(f0, f1):
    """Reference negated Euclidean remainder chain f0, f1, -rem(f0, f1), ...
    on `RatPoly` (`Fraction` division); the last element is gcd(f0, f1)
    up to a scalar.  The integer chain in `exact` must match its signs."""
    chain = [f0, f1]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _rational_nonneg_clause(cubic, disc):
    """The complete clause list read off `Fraction` coefficients."""
    d0, c1, b2 = (cubic.coefficient(k) for k in range(3))
    if disc < 0 or b2 > 0 or c1 < 0 or d0 > 0:
        return None
    if d0 != 0:
        return "3"
    if c1 != 0:
        return "2b"
    return "2" if b2 != 0 else "1"


def rational_cubic_classification(d: int, d1: int, d2: int, d3: int
                                  ) -> LowDimClassification:
    """Reference d = 6, 7 verdict decided on `RatPoly`: F from `dim6_cubic`
    or `dim7_cubic`, Disc(F) = -Res(P, P') / (lead(P) den^4) from the
    Sylvester determinant of P = den F, the clause list on F and -F(-u),
    and the Descartes counts of both.  The classifier decides on the
    integer cubic 64 F instead and must agree field for field."""
    cubic = (dim6_cubic if d == 6 else dim7_cubic)(d1, d2, d3)
    mirror = -cubic.reflect()
    den, P = cubic.integer_form()
    disc = Fraction(-_sylvester_det(P, _derivative(P)) // P[-1], den ** 4)
    cl = _rational_nonneg_clause(cubic, disc)
    real = _rational_nonneg_clause(mirror, disc)
    mixed = (disc >= 0 and descartes_positive_bound(cubic) > 0
             and descartes_positive_bound(mirror) > 0)
    parts = ([f"dim{d}-cl({cl})"] if cl else []) + (
        [f"dim{d}-real({real})"] if real else [])
    if not parts:
        parts = [f"dim{d}-" + ("mixed" if mixed else "quartet" if disc < 0 else "none")]
    return LowDimClassification(d, cl is not None, real is not None, mixed,
                                ";".join(parts), disc)


def two_count_strip_verdict(p, lower, upper, strict=False) -> HypothesisVerdict:
    """Reference strip decision, as `roots.strip_verdict` made it before
    the mirror shortcut: a real root on a bound of an open strip fails at
    once with the bound as witness; otherwise one half-plane count on
    p(z + upper) and one on p(lower - z), always both, and the root
    farthest outside the strip as witness."""
    lo, hi = Fraction(lower), Fraction(upper)
    if strict:
        for bound in (hi, lo):
            if p(bound) == 0:
                return HypothesisVerdict(FAILS_EXACT, (float(bound), 0.0))
    right, on_hi = halfplane_counts(p.shift(hi))
    left, on_lo = halfplane_counts(p.compose_linear(-1, lo))
    if right == left == 0 and not (strict and (on_hi or on_lo)):
        return HypothesisVerdict(HOLDS_EXACT)
    flo, fhi = float(lo), float(hi)
    return HypothesisVerdict(
        FAILS_EXACT, _witness(p, lambda r: max(r.re - fhi, flo - r.re)))
