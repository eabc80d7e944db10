"""Shared test utilities: random generators for delta-vectors and
reflexive simplices, and small matrix helpers."""

import random

from ehrhart_lab.delta import DeltaVector, validate_delta
from ehrhart_lab.lattice import LatticeSimplex
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
