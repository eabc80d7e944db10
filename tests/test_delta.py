import math
from fractions import Fraction

import pytest
from helpers import random_palindromic

from ehrhart_lab.delta import (
    InvalidDeltaError,
    NotADeltaVectorError,
    cube_delta,
    delta_from_values,
    ehrhart_from_delta,
    ehrhart_polynomial,
    ehrhart_series,
    halve_dilation_delta,
    parse_delta,
    product_delta,
    reciprocity_holds,
    validate_delta,
)
from ehrhart_lab.exact import RatPoly, eulerian

# 10! / 18 times the two counting polynomials of the dimension-10 study
# case, highest degree last (independently recomputed from the vectors)
DIM10_TARGET = (1, 1, 1, 1, 9, 28, 9, 1, 1, 1, 1)
DIM10_TARGET_SCALED = [
    201600, 591600, 815828, 465240, 274775, 51135, 17969, 810, 225, 15, 3,
]
DIM10_WEIGHT_SCALED = [
    201600, 590160, 815756, 467560, 274945, 50085, 17843, 990, 255, 5, 1,
]


def test_validate_delta():
    dv = validate_delta([1, 76, 230, 76, 1])
    assert dv.palindromic and dv.hibi_lbt_consistent and dv.d == 4
    assert not validate_delta([1, 3, 0]).palindromic
    assert validate_delta([1, 3, 0]).hibi_lbt_consistent  # no interior point
    assert not validate_delta([1, 5, 2, 5, 1]).hibi_lbt_consistent
    with pytest.raises(InvalidDeltaError):
        validate_delta([2, 1, 1])
    with pytest.raises(InvalidDeltaError):
        validate_delta([1, -1, 1])
    with pytest.raises(InvalidDeltaError):
        validate_delta([1])
    with pytest.raises(InvalidDeltaError):
        validate_delta([1] + [0] * 70)
    assert str(parse_delta("1,76,230,76,1")) == "1,76,230,76,1"
    with pytest.raises(InvalidDeltaError):
        parse_delta("1,x,1")


def test_ehrhart_from_delta_cube():
    data = ehrhart_from_delta(validate_delta([1, 76, 230, 76, 1]))
    assert data.polynomial == RatPoly([1, 2]) ** 4  # (2m+1)^4
    assert data.normalized_volume == 384
    assert data.point_count == 81
    assert data.interior_count == 1


def test_ehrhart_from_delta_quadratic():
    for d1 in (1, 4, 6, 11):
        poly = ehrhart_polynomial(validate_delta([1, d1, 1]))
        half = Fraction(d1 + 2, 2)
        assert poly == RatPoly([1, half, half])


def test_ehrhart_from_delta_unit_simplex():
    for d in range(1, 7):
        poly = ehrhart_polynomial(validate_delta([1] + [0] * d))
        for m in range(6):
            assert poly(Fraction(m)) == math.comb(m + d, d)


def test_ehrhart_polynomial_against_sympy(rng):
    # L(z) = sum_j delta_j binom(z + d - j, d), expanded by sympy: the
    # falling product binom(z + d, d) * d!, shifted by -j for each j
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def reference(dv):
        d = dv.d
        row0 = sympy.Poly(1, z, domain="ZZ")
        for c in range(1, d + 1):
            row0 = row0.mul(sympy.Poly([1, c], z, domain="ZZ"))
        total = sympy.Poly(0, z, domain="ZZ")
        for j, delta_j in enumerate(dv.entries):
            total = total.add(row0.shift(-j).mul_ground(delta_j))
        fact = math.factorial(d)
        return RatPoly(Fraction(int(c), fact) for c in reversed(total.all_coeffs()))

    for d in range(1, 65):
        first, second = (
            validate_delta([1] + [rng.randint(0, 3000) for _ in range(d)])
            for _ in range(2)
        )
        p_first = ehrhart_polynomial(first)
        p_second = ehrhart_polynomial(second)
        assert p_first == reference(first), d
        assert p_second == reference(second), d
        # the cached basis is shared between calls and must not change
        assert ehrhart_polynomial(first) == p_first
        assert p_first.degree == d


def test_dim10_counting_polynomial_exact():
    poly = ehrhart_polynomial(validate_delta(list(DIM10_TARGET)))
    scaled = [c * math.factorial(10) / 18 for c in poly.coeffs]
    assert scaled == DIM10_TARGET_SCALED


def test_basic_identities_random(rng):
    for _ in range(200):
        d = rng.randint(1, 8)
        entries = [1] + [rng.randint(0, 50) for _ in range(d)]
        dv = validate_delta(entries)
        data = ehrhart_from_delta(dv)
        poly = data.polynomial
        assert poly.degree == d
        assert poly(Fraction(0)) == 1
        assert poly(Fraction(1)) == entries[1] + d + 1
        assert poly.leading * math.factorial(d) == dv.total
        # round trip through values
        values = [int(poly(Fraction(m))) for m in range(d + 1)]
        assert delta_from_values(values, d) == dv


def test_delta_from_values_examples():
    assert delta_from_values([1, 81, 625, 2401, 6561], 4).entries == (1, 76, 230, 76, 1)
    # quartic counting polynomial prod(5m+k)/4! has these values
    poly = RatPoly([1])
    for k in range(1, 5):
        poly = poly * RatPoly([k, 5])
    poly = poly * Fraction(1, 24)
    values = [int(poly(Fraction(m))) for m in range(5)]
    assert delta_from_values(values, 4).entries == (1, 121, 381, 121, 1)
    assert delta_from_values([1, 10, 28], 2).entries == (1, 7, 1)
    with pytest.raises(NotADeltaVectorError):
        delta_from_values([1, 2, 100], 2)  # delta_2 would be negative
    with pytest.raises(NotADeltaVectorError):
        delta_from_values([2, 3, 4], 2)


def test_reciprocity_examples():
    assert reciprocity_holds(validate_delta([1, 23, 23, 1]))
    assert not reciprocity_holds(validate_delta([1, 3, 0]))
    assert reciprocity_holds(validate_delta([1, 1]))


def test_reciprocity_iff_palindromic(rng):
    hits = 0
    for _ in range(1000):
        d = rng.randint(1, 8)
        if rng.random() < 0.5:
            dv = random_palindromic(rng, d, hi=40)
        else:
            dv = validate_delta([1] + [rng.randint(0, 40) for _ in range(d)])
        hits += dv.palindromic
        assert reciprocity_holds(dv) == dv.palindromic
    assert 100 < hits < 900  # both branches exercised


def test_cube_delta_reference_values():
    assert cube_delta(4).entries == (1, 76, 230, 76, 1)
    assert cube_delta(5).entries == (1, 237, 1682, 1682, 237, 1)
    assert cube_delta(6).entries == (1, 722, 10543, 23548, 10543, 722, 1)
    assert cube_delta(7).entries == (1, 2179, 60657, 259723, 259723, 60657, 2179, 1)
    with pytest.raises(ValueError):
        cube_delta(0)


def test_cube_delta_against_interpolation_oracle():
    for d in range(1, 9):
        values = [(2 * m + 1) ** d for m in range(d + 1)]
        assert cube_delta(d) == delta_from_values(values, d)
        assert cube_delta(d).total == 2 ** d * math.factorial(d)
        assert cube_delta(d).palindromic


def test_halve_dilation_matches_cube():
    for d in range(1, 9):
        unit = validate_delta([eulerian(d, j) if j else 1 for j in range(d + 1)])
        assert halve_dilation_delta(unit) == cube_delta(d)


def test_halve_dilation_small_cases():
    assert halve_dilation_delta(validate_delta([1, 0, 0])).entries == (1, 3, 0)
    assert halve_dilation_delta(validate_delta([1, 1])).entries == (1, 3)


def test_product_delta_examples():
    q = validate_delta([1, 7, 1])
    assert product_delta(q, q).entries == (1, 95, 294, 95, 1)
    seg = validate_delta([1, 0])
    assert product_delta(seg, seg).entries == (1, 1, 0)
    assert product_delta(validate_delta([1, 1]), validate_delta([1, 1])).entries == (1, 6, 1)
    # unit simplex times anything keeps the counting data intact
    tri = validate_delta([1, 0, 0])
    assert product_delta(tri, q).d == 4


def test_product_delta_properties(rng):
    for _ in range(40):
        a = random_palindromic(rng, rng.randint(1, 3), hi=9)
        b = random_palindromic(rng, rng.randint(1, 3), hi=9)
        ab = product_delta(a, b)
        assert ab == product_delta(b, a)
        la = ehrhart_polynomial(a)
        lb = ehrhart_polynomial(b)
        lab = ehrhart_polynomial(ab)
        assert lab.leading == la.leading * lb.leading
        assert lab == la * lb


def test_ehrhart_series():
    assert ehrhart_series(validate_delta([1, 6, 1]), 3) == [1, 9, 25]
    assert ehrhart_series(validate_delta([1, 76, 230, 76, 1]), 2) == [1, 81]
    dv = validate_delta([1, 3, 0])
    assert ehrhart_series(dv, 1) == [1]
    poly = ehrhart_polynomial(dv)
    assert ehrhart_series(dv, 6) == [int(poly(Fraction(m))) for m in range(6)]
    with pytest.raises(ValueError):
        ehrhart_series(dv, 0)
