from collections import Counter
from fractions import Fraction

import pytest
from helpers import random_palindromic, rational_cubic_classification

from ehrhart_lab.criteria import (
    classify,
    classify_dim2,
    classify_dim3,
    classify_dim4,
    classify_dim5,
    classify_dim6,
    classify_dim7,
    cl_from_geometry,
    cubic_roots_nonneg,
    cubic_roots_nonneg_textbook,
    delta_for_pair,
    dim4_discriminant,
    dim6_cubic,
    dim7_cubic,
    parabola_point_dim4,
    real_from_geometry,
    region_rows,
    volume_bounds_check,
)
from ehrhart_lab.delta import cube_delta, ehrhart_polynomial, validate_delta
from ehrhart_lab.exact import NEG_INF, POS_INF, RatPoly, sturm_distinct_real_roots
from ehrhart_lab.roots import (
    critical_line_polynomial,
    is_cl_exact,
    is_real_exact,
    strip_verdict,
)

# The eleven integer points on the dimension-4 discriminant parabola with
# realizable vectors, indexed by N = 3..13; CL up to N = 9, real from N = 9.
PARABOLA_TABLE = {
    3: (4, 14), 4: (11, 30), 5: (20, 54), 6: (31, 86), 7: (44, 126),
    8: (59, 174), 9: (76, 230), 10: (95, 294), 11: (116, 366),
    12: (139, 446), 13: (164, 534),
}


def test_dim2_dichotomy():
    assert classify_dim2(5).is_cl and not classify_dim2(5).is_real
    both = classify_dim2(6)
    assert both.is_cl and both.is_real
    assert not classify_dim2(7).is_cl and classify_dim2(7).is_real
    roots7 = classify_dim2(7).roots
    assert {round(r.real, 9) for r in roots7} == {round(-1 / 3, 9), round(-2 / 3, 9)}
    with pytest.raises(ValueError):
        classify_dim2(0)


def test_dim3_dichotomy():
    assert classify_dim3(22).is_cl and not classify_dim3(22).is_real
    both = classify_dim3(23)
    assert both.is_cl and both.is_real
    assert not classify_dim3(24).is_cl and classify_dim3(24).is_real


def test_dim4_cube_point():
    c = classify_dim4(76, 230)
    assert c.is_cl and c.is_real
    assert c.discriminant_value == 0


def test_dim4_worked_examples():
    assert classify_dim4(2, 6).is_cl           # small weighted projective case
    dual = classify_dim4(84, 262)
    assert not dual.is_cl and not dual.is_real
    assert classify_dim4(121, 381).is_real     # degree-625 simplex


def test_dim5_vertex_point():
    c = classify_dim5(237, 1682)
    assert c.is_cl and c.is_real
    assert c.discriminant_value == 0
    assert classify_dim5(24, 24).is_cl
    # the boundary candidate with minimal volume in the real region
    assert classify_dim5(1, 190).is_real


def test_dim67_cube_points():
    c6 = classify_dim6(722, 10543, 23548)
    assert c6.is_cl and c6.is_real and c6.discriminant_value == 0
    c7 = classify_dim7(2179, 60657, 259723)
    assert c7.is_cl and c7.is_real and c7.discriminant_value == 0


def test_dim6_edge_case_lines():
    # on the lines where the two lower coefficient brackets vanish, the
    # verdict flips from CL to real exactly at the distinguished point
    for t in (-3, -1, 1, 4):
        d3 = 23548 + 497 * 994 * t
        d1 = (27 * d3 + 81872) // 994
        d2 = (218 * d3 + 106407) // 497
        assert 994 * d1 == 27 * d3 + 81872 and 497 * d2 == 218 * d3 + 106407
        if min(d1, d2, d3) < 1:
            continue
        c = classify_dim6(d1, d2, d3)
        dv = delta_for_pair(6, d1, d2, d3)
        assert c.is_cl == (d3 < 23548) == is_cl_exact(dv)
        assert c.is_real == (d3 > 23548) == is_real_exact(dv)


def test_cubic_predicate_gap_regression():
    # the three-clause form misses exactly the configurations with a zero
    # root next to positive ones; (11, 5, 14) lands there in dimension 6
    cubic = dim6_cubic(11, 5, 14)
    assert cubic(Fraction(0)) == 0
    assert cubic_roots_nonneg(cubic)
    assert not cubic_roots_nonneg_textbook(cubic)
    c = classify_dim6(11, 5, 14)
    assert c.is_cl
    assert is_cl_exact(delta_for_pair(6, 11, 5, 14))
    assert "2b" in c.case_label


def test_cubic_predicate_agrees_with_textbook_generically(rng):
    # away from the boundary configuration the two forms coincide
    for _ in range(300):
        coeffs = [rng.randint(-20, 20) for _ in range(3)] + [rng.randint(1, 20)]
        cubic = RatPoly(coeffs)
        if cubic.degree != 3 or cubic(Fraction(0)) == 0:
            continue
        assert cubic_roots_nonneg(cubic) == cubic_roots_nonneg_textbook(cubic)


def test_parabola_points():
    for n, pair in PARABOLA_TABLE.items():
        assert parabola_point_dim4(n, "lower") == pair
        assert dim4_discriminant(*pair) == 0
    assert parabola_point_dim4(3, "upper") == (4, 86)
    with pytest.raises(ValueError):
        parabola_point_dim4(2)
    with pytest.raises(ValueError):
        parabola_point_dim4(5, "middle")


def test_parabola_classification_split():
    for n, pair in PARABOLA_TABLE.items():
        c = classify_dim4(*pair)
        assert c.is_cl == (n <= 9)
        assert c.is_real == (n >= 9)


def test_tangency_point():
    # the line 10 d1 = 3 d2 + 70 touches the parabola exactly at (76, 230)
    touching = [
        (d1, d2)
        for d1 in range(1, 400)
        for d2 in ((10 * d1 - 70) // 3,)
        if 3 * d2 + 70 == 10 * d1 and dim4_discriminant(d1, d2) == 0
    ]
    assert touching == [(76, 230)]


def test_cl_region_bounded():
    # within the sweep, CL pairs never exceed the distinguished point
    for (d1, d2), c in region_rows(4, range(1, 401, 7), range(1, 601, 11)):
        if c.is_cl:
            assert d1 <= 76 and d2 <= 230


def test_geometry_criteria():
    assert cl_from_geometry(4, 384, 81) and real_from_geometry(4, 384, 81)
    assert cl_from_geometry(4, 12, 7)
    assert not cl_from_geometry(4, 432, 89) and not real_from_geometry(4, 432, 89)
    assert real_from_geometry(4, 625, 126) and not cl_from_geometry(4, 625, 126)
    assert cl_from_geometry(5, 2 * (1 + 237 + 1682), 243)
    with pytest.raises(ValueError):
        cl_from_geometry(4, 12, 5)  # delta_1 would vanish
    with pytest.raises(ValueError):
        cl_from_geometry(5, 13, 30)  # odd normalized volume
    with pytest.raises(ValueError):
        cl_from_geometry(6, 100, 10)


def test_geometry_agrees_with_delta_criteria(rng):
    for _ in range(200):
        d = rng.choice([4, 5])
        d1 = rng.randint(1, 300)
        d2 = rng.randint(1, 900)
        dv = delta_for_pair(d, d1, d2)
        data_points = d1 + d + 1
        nvol = dv.total
        cls = classify(dv)
        assert cl_from_geometry(d, nvol, data_points) == cls.is_cl
        assert real_from_geometry(d, nvol, data_points) == cls.is_real


def test_volume_bounds_examples():
    out = dict(volume_bounds_check(validate_delta([1, 95, 294, 95, 1])))
    assert out["real-volume-lower-3"]
    out = dict(volume_bounds_check(cube_delta(4)))
    assert out["cl-volume-upper-2^d"]
    out = dict(volume_bounds_check(validate_delta([1, 1, 68, 1, 1])))
    assert out["real-volume-lower-3"]  # boundary case: exactly 3


def test_volume_bounds_random(rng):
    for _ in range(60):
        d = rng.choice([4, 5])
        dv = random_palindromic(rng, d, hi=600)
        for name, ok in volume_bounds_check(dv):
            assert ok, (name, dv)


def test_mixed_flags():
    assert classify_dim4(76, 230).mixed  # boundary of the mixed region
    assert not classify_dim4(2, 6).mixed
    assert classify_dim4(100, 100).mixed
    assert not classify_dim4(11, 100).mixed
    for d1, d2 in [(28, 29), (100, 40), (10, 400)]:
        assert classify_dim5(d1, d2).mixed == (1689 - 71 * d1 + 9 * d2 <= 0)


def test_case_labels_structure(rng):
    for _ in range(100):
        d = rng.choice([2, 3, 4, 5, 6, 7])
        if d in (2, 3):
            dv = delta_for_pair(d, rng.randint(1, 60))
        elif d in (4, 5):
            dv = delta_for_pair(d, rng.randint(1, 300), rng.randint(1, 900))
        else:
            dv = delta_for_pair(
                d, rng.randint(1, 1000), rng.randint(1, 3000), rng.randint(1, 3000)
            )
        c = classify(dv)
        assert c.case_label.startswith(f"dim{d}-")
        if not c.is_cl and not c.is_real:
            assert any(tag in c.case_label for tag in ("mixed", "quartet", "none"))


def test_cross_validation_sample(rng):
    # closed-form verdicts against the exact transform decisions
    for _ in range(400):
        d = rng.choice([4, 5, 6, 7])
        if d in (4, 5):
            dv = delta_for_pair(d, rng.randint(1, 400), rng.randint(1, 1200))
        else:
            dv = delta_for_pair(
                d, rng.randint(1, 3000), rng.randint(1, 3000), rng.randint(1, 3000)
            )
        c = classify(dv)
        assert c.is_cl == is_cl_exact(dv)
        assert c.is_real == is_real_exact(dv)


def test_cross_validation_boundary_grid():
    # deterministic sweep along the known boundary lines in dimension 4
    pts = set()
    for d1 in range(1, 240, 3):
        d2a = (14 * d1 + 86) // 5
        d2b = (10 * d1 - 70) // 3
        for d2 in (d2a - 1, d2a, d2a + 1, d2b - 1, d2b, d2b + 1):
            if d2 >= 1:
                pts.add((d1, d2))
    for n in range(3, 14):
        pts.add(parabola_point_dim4(n, "lower"))
    for d1, d2 in sorted(pts):
        dv = delta_for_pair(4, d1, d2)
        c = classify_dim4(d1, d2)
        assert c.is_cl == is_cl_exact(dv), (d1, d2)
        assert c.is_real == is_real_exact(dv), (d1, d2)


def test_dim6_cubics_match_transform(rng):
    for _ in range(40):
        d1, d2, d3 = (rng.randint(1, 2000) for _ in range(3))
        f6 = dim6_cubic(d1, d2, d3)
        F = critical_line_polynomial(delta_for_pair(6, d1, d2, d3))
        assert f6 * F.leading == F * f6.leading
        f7 = dim7_cubic(d1, d2, d3)
        F7 = critical_line_polynomial(delta_for_pair(7, d1, d2, d3))
        assert f7 * F7.leading == F7 * f7.leading


def test_real_dim4_curated_satisfy_cs():
    # every realizable real vector exercised by these tests also satisfies
    # the open strip (-1, 0); checked on the curated list, not on random
    # vectors, where it can genuinely fail
    curated = [
        (76, 230), (95, 294), (116, 366), (139, 446), (164, 534), (121, 381),
    ]
    for d1, d2 in curated:
        dv = delta_for_pair(4, d1, d2)
        assert is_real_exact(dv)
        assert strip_verdict(ehrhart_polynomial(dv), -1, 0, strict=True).holds
    # a symmetric vector outside the realizable range shows the condition
    # is not a formal consequence of the real classification alone
    wild = delta_for_pair(4, 1, 10 ** 6)
    assert is_real_exact(wild)
    assert not strip_verdict(ehrhart_polynomial(wild), -1, 0, strict=True).holds


def test_only_four_root_configurations(rng):
    # every classified vector lands in exactly one of: critical-line, real,
    # mixed, or complex-quartet; the residual label never fires
    for _ in range(400):
        d = rng.choice([4, 5, 6, 7])
        if d in (4, 5):
            c = classify(delta_for_pair(d, rng.randint(1, 2000), rng.randint(1, 2000)))
        else:
            c = classify(delta_for_pair(d, rng.randint(1, 2000),
                                        rng.randint(1, 2000), rng.randint(1, 2000)))
        assert "none" not in c.case_label
        if not c.is_cl and not c.is_real:
            assert c.mixed or (c.discriminant_value is not None
                               and c.discriminant_value < 0)


def two_sturm_mixed(cubic):
    """Reference `mixed`: a strictly positive and a strictly negative root,
    counted by two Sturm sequences ((-oo, 0] holds a zero root)."""
    pos = sturm_distinct_real_roots(cubic, 0, POS_INF)
    neg = sturm_distinct_real_roots(cubic, NEG_INF, 0)
    if cubic.coefficient(0) == 0:
        neg -= 1
    return pos >= 1 and neg >= 1


def mixed_oracle_grid():
    """Cubic points (d, d1, d2, d3): small boxes around the cube points
    (disc = 0) and the constant-term-zero points (8, 1, 28) and
    (11, 5, 14), boxes across the mixed region, the constant-term-zero
    points of a small range in each dimension and of a dimension-6 range
    where the zero root sits between a negative and a positive one, and
    the dimension-6 points with a double root at zero (disc = 0)."""
    centres = [(6, 722, 10543, 23548), (7, 2179, 60657, 259723),
               (6, 8, 1, 28), (6, 11, 5, 14), (6, 9, 2, 26), (7, 30, 2, 20)]
    pts = {(d, a + i, b + j, c + k) for d, a, b, c in centres
           for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)}
    for d1, d2 in [(d1, d2) for d1 in range(1, 60) for d2 in range(1, 60)] + [
            (d1, d2) for d1 in range(100, 141, 20) for d2 in range(270, 500, 3)]:
        b0 = 462 - 42 * d1 + 14 * d2        # dimension 6, b0 = 5 d3
        if b0 > 0 and b0 % 5 == 0:
            pts.add((6, d1, d2, b0 // 5))
        c0 = 88069 - 3043 * d1 + 429 * d2   # dimension 7, c0 = 75 d3
        if c0 > 0 and c0 % 75 == 0:
            pts.add((7, d1, d2, c0 // 75))
    for t in range(-3, 5):                  # b1 = b0 = 0, see the edge lines
        d3 = 23548 + 497 * 994 * t
        pts.add((6, (27 * d3 + 81872) // 994, (218 * d3 + 106407) // 497, d3))
    return sorted(p for p in pts if min(p[1:]) >= 1)


def test_mixed_matches_two_sturm_counts():
    grid = mixed_oracle_grid()
    seen = {"mixed": 0, "mixed with a zero root": 0, "disc = 0": 0,
            "disc = 0 with a zero root": 0}
    for d, d1, d2, d3 in grid:
        cubic = (dim6_cubic if d == 6 else dim7_cubic)(d1, d2, d3)
        c = classify(delta_for_pair(d, d1, d2, d3))
        assert c.mixed == two_sturm_mixed(cubic), (d, d1, d2, d3)
        zero_root = cubic.coefficient(0) == 0
        seen["mixed"] += c.mixed
        seen["mixed with a zero root"] += c.mixed and zero_root
        seen["disc = 0"] += c.discriminant_value == 0
        seen["disc = 0 with a zero root"] += c.discriminant_value == 0 and zero_root
    # the grid reaches every configuration the rule has to get right
    assert min(seen.values()) > 0, seen


def test_mixed_matches_sympy_roots():
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    for d, d1, d2, d3 in mixed_oracle_grid()[::7]:
        cubic = (dim6_cubic if d == 6 else dim7_cubic)(d1, d2, d3)
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(cubic.coeffs)], u)
        signs = {sympy.sign(r) for r in sympy.real_roots(poly)}
        c = classify(delta_for_pair(d, d1, d2, d3))
        assert c.mixed == ({1, -1} <= signs), (d, d1, d2, d3)


# the entry ranges of the benchmark's cubic sweep boxes
SWEEP_RANGES = {
    6: ((1, 800), (1, 12000), (1, 25000)),
    7: ((1, 2500), (1, 65000), (1, 270000)),
}


def test_integer_cubic_matches_rational_reference(rng):
    # 4x4x4 boxes at 160 seeded origins per dimension (20,480 points) plus
    # the oracle grid: cube vectors, disc = 0, constant-term-zero cubics
    # (the "2b" class) and C = D = 0
    points = mixed_oracle_grid()
    for _ in range(160):
        for d, ranges in SWEEP_RANGES.items():
            a, b, c = (rng.randint(lo, hi - 3) for lo, hi in ranges)
            points += [(d, a + i, b + j, c + k) for i in range(4)
                       for j in range(4) for k in range(4)]
    seen = Counter()
    for d, d1, d2, d3 in points:
        got = classify(delta_for_pair(d, d1, d2, d3))
        assert got == rational_cubic_classification(d, d1, d2, d3), (d, d1, d2, d3)
        assert type(got.discriminant_value) is Fraction
        cubic = (dim6_cubic if d == 6 else dim7_cubic)(d1, d2, d3)
        seen["C = D = 0"] += cubic.coefficient(1) == cubic.coefficient(0) == 0
        seen["disc = 0"] += got.discriminant_value == 0
        for label in ("cl(1)", "cl(2b)", "cl(3)", "real(3)", "mixed", "quartet"):
            seen[label] += label in got.case_label
    assert len(points) >= 20000
    assert min(seen.values()) > 0 and len(seen) == 8, seen
