import io
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from helpers import random_palindromic

from ehrhart_lab.cli import main
from ehrhart_lab.delta import cube_delta, ehrhart_polynomial, validate_delta
from ehrhart_lab.exact import RatPoly
from ehrhart_lab.roots import (
    FAILS_EXACT,
    HOLDS_EXACT,
    HYPOTHESES,
    RequiresReflexiveError,
    _POLISH_BITS,
    _homogeneous_eval,
    _polish_root,
    braun_disc_check,
    critical_line_polynomial,
    find_roots,
    hypothesis_report,
    is_cl_exact,
    is_real_exact,
    real_axis_polynomial,
    real_root_window_check,
    root_sum_is_reflexive,
    strip_verdict,
)

DIM10 = validate_delta([1, 1, 1, 1, 9, 28, 9, 1, 1, 1, 1])


def proportional(p: RatPoly, q: RatPoly) -> bool:
    """p = c*q for some positive rational c."""
    if p.degree != q.degree:
        return False
    return p * q.leading == q * p.leading and (p.leading > 0) == (q.leading > 0)


# ----------------------------------------------------------------------
# numerical roots
# ----------------------------------------------------------------------

def test_find_roots_quadratic_rational():
    rs = find_roots(ehrhart_polynomial(validate_delta([1, 7, 1])))
    got = sorted((r.re, r.im) for r in rs.roots)
    assert math.isclose(got[0][0], -2 / 3, abs_tol=1e-12)
    assert math.isclose(got[1][0], -1 / 3, abs_tol=1e-12)
    assert all(abs(r.im) < 1e-14 for r in rs.roots)


def test_find_roots_double_root():
    rs = find_roots(ehrhart_polynomial(validate_delta([1, 6, 1])))
    assert len(rs.roots) == 1
    root = rs.roots[0]
    assert root.multiplicity == 2
    assert math.isclose(root.re, -0.5, abs_tol=1e-12) and root.im == 0.0


def test_find_roots_dim10_extremes():
    rs = find_roots(ehrhart_polynomial(DIM10))
    assert rs.degree == 10
    assert min(r.re for r in rs.roots) < -5
    assert max(r.re for r in rs.roots) > 4


def test_find_roots_residual_bound(rng):
    for _ in range(60):
        d = rng.randint(1, 8)
        dv = random_palindromic(rng, d, hi=500)
        poly = ehrhart_polynomial(dv)
        rs = find_roots(poly)
        maxc = max(abs(float(c)) for c in poly.coeffs)
        for r in rs.roots:
            z = complex(r.re, r.im)
            assert abs(poly(z)) <= 1e-9 * maxc * (1 + abs(z)) ** poly.degree


def test_find_roots_conjugate_closure(rng):
    for _ in range(40):
        dv = random_palindromic(rng, rng.randint(2, 8), hi=200)
        rs = find_roots(ehrhart_polynomial(dv))
        pts = {(round(r.re, 9), round(r.im, 9)) for r in rs.roots}
        assert {(re, -im) for re, im in pts} == pts


def test_reciprocity_root_symmetry(rng):
    # roots of a palindromic vector's polynomial are closed under
    # z -> -1 - z, up to the certified error radii
    for _ in range(120):
        dv = random_palindromic(rng, rng.randint(1, 8), hi=800)
        rs = find_roots(ehrhart_polynomial(dv))
        for r in rs.roots:
            tol = 2 * max(r.error_radius, 1e-9)
            partner = (-1 - r.re, r.im)
            assert any(
                math.hypot(s.re - partner[0], abs(s.im) - abs(partner[1])) <= tol
                + 2 * s.error_radius
                for s in rs.roots
            )


def test_root_sum_is_reflexive():
    assert root_sum_is_reflexive(ehrhart_polynomial(cube_delta(4)), 4)
    assert not root_sum_is_reflexive(
        ehrhart_polynomial(validate_delta([1, 3, 0])), 2
    )
    assert not root_sum_is_reflexive(RatPoly([1, 2, 1]), 2)  # (m+1)^2


def test_root_sum_matches_palindromic(rng):
    for _ in range(60):
        d = rng.randint(1, 8)
        entries = [1] + [rng.randint(1, 30) for _ in range(d)]
        dv = validate_delta(entries)
        assert root_sum_is_reflexive(ehrhart_polynomial(dv), d) == dv.palindromic


# ----------------------------------------------------------------------
# substitution polynomials and exact CL / real decisions
# ----------------------------------------------------------------------

def test_critical_line_polynomial_dim4():
    for d1, d2 in [(5, 9), (76, 230), (1, 1), (200, 600)]:
        dv = validate_delta([1, d1, d2, d1, 1])
        expected = RatPoly([
            Fraction(105 - 15 * d1, 16) + Fraction(9 * d2, 32),
            -(Fraction(43 + 7 * d1, 2) - Fraction(5 * d2, 4)),
            Fraction(1 + d1) + Fraction(d2, 2),
        ])
        assert proportional(critical_line_polynomial(dv), expected)


def test_transform_polynomials_dim5():
    for d1, d2 in [(3, 8), (237, 1682), (24, 24)]:
        dv = validate_delta([1, d1, d2, d2, d1, 1])
        cl = RatPoly([
            Fraction(1689 - 71 * d1 + 9 * d2, 8),
            -5 * (23 + 7 * d1 - d2),
            2 * (1 + d1 + d2),
        ])
        re = RatPoly([
            Fraction(1689 - 71 * d1 + 9 * d2, 8),
            5 * (23 + 7 * d1 - d2),
            2 * (1 + d1 + d2),
        ])
        assert proportional(critical_line_polynomial(dv), cl)
        assert proportional(real_axis_polynomial(dv), re)


def test_transform_polynomial_dim2():
    for d1 in (1, 6, 7, 100):
        dv = validate_delta([1, d1, 1])
        u_root_expected = Fraction(6 - d1, 4 * (d1 + 2))
        f = critical_line_polynomial(dv)
        assert f.degree == 1
        assert -f.coeffs[0] / f.coeffs[1] == u_root_expected


def test_transform_rejects_non_palindromic():
    with pytest.raises(RequiresReflexiveError):
        critical_line_polynomial(validate_delta([1, 3, 0]))
    with pytest.raises(RequiresReflexiveError):
        real_axis_polynomial(validate_delta([1, 2, 3, 1]))


def test_is_cl_exact_thresholds():
    assert is_cl_exact(validate_delta([1, 6, 1]))
    assert not is_cl_exact(validate_delta([1, 7, 1]))
    assert is_cl_exact(validate_delta([1, 23, 23, 1]))
    assert not is_cl_exact(validate_delta([1, 24, 24, 1]))
    assert is_cl_exact(cube_delta(6))
    assert is_cl_exact(cube_delta(7))


def test_is_real_exact_examples():
    assert is_real_exact(validate_delta([1, 95, 294, 95, 1]))
    assert not is_real_exact(validate_delta([1, 4, 1]))
    assert is_real_exact(validate_delta([1, 6, 1]))
    assert is_real_exact(validate_delta([1, 121, 381, 121, 1]))
    assert is_real_exact(cube_delta(5))


def test_roots_match_closed_formula(rng):
    # dimension 2: roots -1/2 +- sqrt((d1-6)/(d1+2))/2
    for d1 in (1, 5, 6, 7, 50):
        rs = find_roots(ehrhart_polynomial(validate_delta([1, d1, 1])))
        mag = math.sqrt(abs(d1 - 6) / (d1 + 2)) / 2
        for r in rs.roots:
            if d1 >= 6:
                assert abs(r.im) <= 1e-12
                assert min(abs(r.re + 0.5 - mag), abs(r.re + 0.5 + mag)) < 1e-9
            else:
                assert abs(r.re + 0.5) <= 1e-12
                assert abs(abs(r.im) - mag) < 1e-9


# ----------------------------------------------------------------------
# strips and the hierarchy
# ----------------------------------------------------------------------

def test_strip_verdict_examples():
    cube4 = ehrhart_polynomial(cube_delta(4))
    assert strip_verdict(cube4, -2, 1).verdict == HOLDS_EXACT
    dim10 = ehrhart_polynomial(DIM10)
    v = strip_verdict(dim10, -5, 4)
    assert v.verdict == FAILS_EXACT
    assert v.witness is not None and (v.witness[0] < -5 or v.witness[0] > 4)
    p17 = ehrhart_polynomial(validate_delta([1, 7, 1]))
    assert strip_verdict(p17, -1, 0, strict=True).verdict == HOLDS_EXACT


def test_strip_verdict_boundary_root():
    # (m+1)^2 has the double root -1 exactly on the closed boundary
    p = RatPoly([1, 2, 1])
    assert strip_verdict(p, -1, 0, strict=False).verdict == HOLDS_EXACT
    assert strip_verdict(p, -1, 0, strict=True).verdict == FAILS_EXACT
    assert strip_verdict(p, -2, 1, strict=True).verdict == HOLDS_EXACT


def test_hypothesis_report_cube():
    rep = hypothesis_report(cube_delta(4))
    assert all(rep.verdicts[name].verdict == HOLDS_EXACT for name in HYPOTHESES)


def test_hypothesis_report_dim10():
    rep = hypothesis_report(DIM10)
    assert rep.verdicts["HS"].verdict == FAILS_EXACT
    assert rep.verdicts["S"].holds
    w = rep.verdicts["HS"].witness
    assert w is not None and (w[0] < -5 or w[0] > 4)


def test_hypothesis_report_real_example():
    rep = hypothesis_report(validate_delta([1, 121, 381, 121, 1]))
    assert rep.verdicts["Real"].verdict == HOLDS_EXACT
    assert rep.verdicts["CS"].holds
    assert rep.verdicts["CL"].verdict == FAILS_EXACT


def test_hypothesis_report_json_spellings():
    rep = hypothesis_report(cube_delta(4)).to_json()
    assert set(rep) == set(HYPOTHESES)
    assert all(v["verdict"] in {"holds-exact", "fails-exact"} for v in rep.values())


RANK = {"CL": 0, "NCS": 1, "CS": 2, "HS": 3, "S": 4}


def test_hierarchy_monotone(rng):
    for _ in range(150):
        dv = random_palindromic(rng, rng.randint(1, 8), hi=1000)
        rep = hypothesis_report(dv)
        chain = ["CL", "NCS", "CS", "HS", "S"]
        holding = [rep.verdicts[name].holds for name in chain]
        for a, b in zip(holding, holding[1:]):
            assert (not a) or b  # holds propagates down the chain


def test_braun_disc(rng):
    assert braun_disc_check(ehrhart_polynomial(validate_delta([1, 6, 1])), 2)
    assert braun_disc_check(ehrhart_polynomial(DIM10), 10)
    for _ in range(80):
        d = rng.randint(1, 7)
        dv = random_palindromic(rng, d, hi=2000)
        assert braun_disc_check(ehrhart_polynomial(dv), d)


def test_real_root_window_examples():
    assert real_root_window_check(validate_delta([1, 95, 294, 95, 1]))
    assert real_root_window_check(DIM10)
    assert real_root_window_check(cube_delta(5))
    with pytest.raises(ValueError):
        real_root_window_check(validate_delta([1, 0, 1]))


def test_real_root_window_random(rng):
    for _ in range(250):
        d = rng.randint(2, 10)
        dv = random_palindromic(rng, d, hi=3000)
        assert real_root_window_check(dv)


def test_volume_bounds_from_roots(rng):
    # CL forces volume at most 2^d; real plus CS forces at least 2^d
    for _ in range(150):
        d = rng.randint(2, 7)
        dv = random_palindromic(rng, d, hi=400)
        vol = Fraction(dv.total, math.factorial(d))
        if is_cl_exact(dv):
            assert vol <= 2 ** d
        if is_real_exact(dv):
            if strip_verdict(ehrhart_polynomial(dv), -1, 0, strict=True).holds:
                assert vol >= 2 ** d


def test_exact_cl_agrees_with_tight_numerics(rng):
    # when every error radius is tiny, the numerical picture must match
    # the exact critical-line decision
    for _ in range(150):
        dv = random_palindromic(rng, rng.randint(2, 7), hi=500)
        rs = find_roots(ehrhart_polynomial(dv))
        if max(r.error_radius for r in rs.roots) >= 1e-6:
            continue
        numeric_cl = all(abs(r.re + 0.5) <= 1e-6 + r.error_radius for r in rs.roots)
        exact_cl = is_cl_exact(dv)
        if numeric_cl != exact_cl:
            # disagreement is only allowed within radius of the line
            assert any(0 < abs(r.re + 0.5) <= 1e-6 for r in rs.roots)


def test_all_roots_real_nonneg_vs_numeric(rng):
    # the exact sign decision against the numerical root finder
    from ehrhart_lab.exact import all_roots_real_nonneg

    agree = 0
    for _ in range(1000):
        p = RatPoly([1])
        for _ in range(rng.randint(1, 3)):
            choice = rng.random()
            if choice < 0.4:
                p = p * RatPoly([-rng.randint(0, 9), 1])
            elif choice < 0.7:
                p = p * RatPoly([rng.randint(1, 9), 1])
            else:
                a, b = rng.randint(-3, 3), rng.randint(1, 3)
                p = p * RatPoly([a * a + b * b, -2 * a, 1])
        rs = find_roots(p)
        numeric = all(
            abs(r.im) <= 1e-9 and r.re >= -1e-9 for r in rs.roots
        )
        exact = all_roots_real_nonneg(p)
        assert exact == numeric
        agree += 1
    assert agree == 1000


def test_strip_verdict_degenerate_falls_back_to_numerics():
    # an imaginary-axis pair sits exactly on the upper bound, which the
    # closed strip admits and the open strip does not
    p = RatPoly([1, 0, 1]) * RatPoly([2, 1]) * RatPoly([3, 1])
    assert strip_verdict(p, -5, 0, strict=False).verdict == HOLDS_EXACT
    v = strip_verdict(p, -5, 0, strict=True)
    assert v.verdict == FAILS_EXACT
    assert v.witness is not None and abs(v.witness[0]) < 1e-12
    assert strip_verdict(p, -5, 1, strict=False).holds


# Palindromic vectors on which a Routh array meets a zero pivot, with or
# without roots on the strip bound, found by scanning small entries in
# dimensions 4..9; mpmath at 60 digits confirms every verdict.
ROUTH_DEGENERATE = {
    "1,2,39,2,1": ("NCS", FAILS_EXACT),
    "1,4,22,4,1": ("CS", FAILS_EXACT),
    "1,4,50,4,1": ("NCS", FAILS_EXACT),
    "1,6,61,6,1": ("NCS", FAILS_EXACT),
    "1,8,36,8,1": ("CS", FAILS_EXACT),
    "1,8,72,8,1": ("NCS", FAILS_EXACT),
    "1,16,66,16,1": ("CS", FAILS_EXACT),
    "1,1,7,7,1,1": ("NCS", HOLDS_EXACT),
    "1,1,8,8,1,1": ("CS", FAILS_EXACT),
    "1,3,16,16,3,1": ("CS", FAILS_EXACT),
    "1,5,26,26,5,1": ("CS", FAILS_EXACT),
    "1,8,36,36,8,1": ("NCS", HOLDS_EXACT),
    "1,9,50,50,9,1": ("CS", FAILS_EXACT),
    "1,1,5,13,5,1,1": ("CS", FAILS_EXACT),
    "1,1,8,15,8,1,1": ("CS", FAILS_EXACT),
    "1,1,15,15,15,1,1": ("CS", FAILS_EXACT),
    "1,1,15,22,15,1,1": ("CS", FAILS_EXACT),
    "1,1,17,16,17,1,1": ("CS", FAILS_EXACT),
    "1,2,7,20,7,2,1": ("CS", FAILS_EXACT),
    "1,3,6,25,6,3,1": ("CS", FAILS_EXACT),
    "1,1,1,7,8,7,1,1,1": ("CS", FAILS_EXACT),
}


def test_strip_verdicts_where_routh_degenerates():
    for entries, (name, verdict) in ROUTH_DEGENERATE.items():
        rep = hypothesis_report(validate_delta([int(x) for x in entries.split(",")]))
        assert rep.verdicts[name].verdict == verdict, entries
        assert all(v.verdict in (HOLDS_EXACT, FAILS_EXACT)
                   for v in rep.verdicts.values())


def test_find_roots_up_to_dimension_cap(rng):
    # degrees up to the dimension cap stay within the residual contract
    for d in (16, 32, 64):
        dv = random_palindromic(rng, d, hi=50)
        poly = ehrhart_polynomial(dv)
        rs = find_roots(poly)
        assert rs.degree == d
        maxc = max(abs(float(c)) for c in poly.coeffs)
        for r in rs.roots:
            z = complex(r.re, r.im)
            assert abs(poly(z)) <= 1e-9 * maxc * (1 + abs(z)) ** d
    big_cube = cube_delta(20)
    rs = find_roots(ehrhart_polynomial(big_cube))
    assert len(rs.roots) == 1 and rs.roots[0].multiplicity == 20
    assert is_cl_exact(big_cube)


# ----------------------------------------------------------------------
# the integer Newton polish
# ----------------------------------------------------------------------

def _cx_eval(coeffs, re: Fraction, im: Fraction):
    """Reference: complex Horner on Fractions (coefficients constant first)."""
    ar, ai = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        ar, ai = ar * re - ai * im + c, ar * im + ai * re
    return ar, ai


def test_homogeneous_eval_matches_fraction_horner(rng):
    cap = 10 ** 50
    for _ in range(150):
        n = rng.randint(1, 24)
        p = RatPoly([Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
                     for _ in range(n)] + [Fraction(rng.randint(1, 999), rng.randint(1, 99))])
        dp = p.derivative()
        den, P = p.integer_form()
        dP = [k * c for k, c in enumerate(P)][1:]
        if rng.random() < 0.5:
            # dyadic: the iterate as it leaves the floating-point solver
            re = Fraction(rng.uniform(-40, 40))
            im = Fraction(0) if rng.random() < 0.3 else Fraction(rng.uniform(-40, 40))
        else:
            # denominators up to the polishing cap
            re, im = (Fraction(rng.randint(-10 ** 52, 10 ** 52), rng.randint(1, cap))
                      for _ in range(2))
        q = math.lcm(re.denominator, im.denominator)
        a, b = re.numerator * (q // re.denominator), im.numerator * (q // im.denominator)
        pr, pi = _homogeneous_eval(P, a, b, q)
        dr, di = _homogeneous_eval(dP, a, b, q)
        assert (Fraction(pr, den * q ** n), Fraction(pi, den * q ** n)) == _cx_eval(
            p.coeffs, re, im)
        assert (Fraction(dr, den * q ** (n - 1)), Fraction(di, den * q ** (n - 1))) == _cx_eval(
            dp.coeffs, re, im)


def test_homogeneous_eval_on_dyadic_grid(rng):
    # q = 2^K, the grid of the polish, K = _POLISH_BITS included
    for _ in range(150):
        n = rng.randint(1, 24)
        P = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(n)] + [rng.randint(1, 10 ** 6)]
        K = rng.choice([0, 1, 53, _POLISH_BITS, 2 * _POLISH_BITS])
        q = 1 << K
        a, b = (rng.randint(-(100 << K), 100 << K) for _ in range(2))
        if rng.random() < 0.3:
            b = 0
        pr, pi = _homogeneous_eval(P, a, b, q)
        assert (Fraction(pr, q ** n), Fraction(pi, q ** n)) == _cx_eval(
            P, Fraction(a, q), Fraction(b, q))


def test_polish_root_from_huge_iterate():
    # a finite start of magnitude 1e300 must neither overflow nor leave
    # the finite floats, whatever p(z) is on the way
    _, P = ehrhart_polynomial(validate_delta([1, 7, 1])).integer_form()
    for z, real_root in [(complex(1e300, 0.0), True), (complex(-1e300, 1e300), False),
                         (complex(1.7e308, -1.7e308), False)]:
        re, im, radius = _polish_root(P, z, real_root)
        assert all(math.isfinite(x) for x in (re, im, radius))
        assert abs(re) > 1e290 and radius > 0
        assert im == 0.0 if real_root else abs(im) > 1e290


def _nearest_double(x) -> float:
    """An mpmath real rounded to the nearest double (float(x) truncates)."""
    man, exp = x.man_exp  # of |x|
    return math.copysign(float(Fraction(man) * Fraction(2) ** exp), x)


def test_find_roots_are_correctly_rounded(rng):
    # every root from find_roots is the nearest double to a true root,
    # computed by mpmath Newton at 80 digits; the refined roots are
    # pairwise distinct, so they are all roots of the square-free input
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    for _ in range(100):
        dv = random_palindromic(rng, rng.randint(2, 24))
        poly = ehrhart_polynomial(dv)
        rs = find_roots(poly)
        if any(r.multiplicity > 1 for r in rs.roots):
            continue
        _, P = poly.integer_form()
        with mpmath.workdps(80):
            exact = []
            for r in rs.roots:
                z = mpmath.mpc(r.re, r.im)
                for _ in range(60):
                    val, slope = mpmath.polyval(P[::-1], z, derivative=True)
                    step = val / slope
                    z -= step
                    if abs(step) <= mpmath.mpf(10) ** -78 * (1 + abs(z)):
                        break
                else:
                    raise AssertionError(f"mpmath Newton did not converge on {dv.entries}")
                exact.append(z)
                assert (r.re, r.im) == (_nearest_double(z.real), _nearest_double(z.imag)), (
                    dv.entries, r)
            gap = min(abs(u - w) for k, u in enumerate(exact) for w in exact[:k])
            assert gap > mpmath.mpf(10) ** -40
        checked += 1
    assert checked >= 90


# `roots --format csv` pinned byte for byte, error radii included; the
# radii of the real roots of the d = 16 case were re-recorded when
# palindromic inputs moved to the half-degree solve (re, im and
# multiplicity unchanged)
ROOTS_CSV_GOLDEN = {
    "1,1,1,1,9,28,9,1,1,1,1": """\
# ehrhart-lab v1
re,im,multiplicity,error_radius
-5.217307718017448,-6.850485461165033,1,6.669013350672896e-58
-5.217307718017448,6.850485461165033,1,6.669013350672896e-58
-0.5,-3.39402662569667,1,2.1464232975424947e-58
-0.5,-1.651913755345573,1,7.805645049821542e-58
-0.5,-0.38658286903215794,1,9.350844743526378e-59
-0.5,0.38658286903215794,1,9.350844743526378e-59
-0.5,1.651913755345573,1,7.805645049821542e-58
-0.5,3.39402662569667,1,2.1464232975424947e-58
4.217307718017448,-6.850485461165033,1,6.669013350672896e-58
4.217307718017448,6.850485461165033,1,6.669013350672896e-58
""",
    "1,76,230,76,1": """\
# ehrhart-lab v1
re,im,multiplicity,error_radius
-0.5,0.0,4,1.5000000000000001e-15
""",
    # random_palindromic(random.Random(16), 16)
    "1,1481,1922,1969,1168,1708,929,1830,24,1830,929,1708,1168,1969,1922,1481,1": """\
# ehrhart-lab v1
re,im,multiplicity,error_radius
-0.9890340155103562,0.0,1,1.327423263593902e-57
-0.5,-43.05506445202225,1,2.939541553773925e-58
-0.5,-17.942610991848905,1,2.830925809395264e-58
-0.5,-10.403768388488665,1,2.515774277965113e-58
-0.5,-6.316163984385651,1,5.2924742800077155e-58
-0.5,-3.7472623658718955,1,4.791354204906128e-58
-0.5,-1.9307340165392097,1,6.346069209263547e-58
-0.5,-0.584668810269295,1,5.76601718182765e-58
-0.5,0.584668810269295,1,5.76601718182765e-58
-0.5,1.9307340165392097,1,6.346069209263547e-58
-0.5,3.7472623658718955,1,4.791354204906128e-58
-0.5,6.316163984385651,1,5.2924742800077155e-58
-0.5,10.403768388488665,1,2.515774277965113e-58
-0.5,17.942610991848905,1,2.830925809395264e-58
-0.5,43.05506445202225,1,2.939541553773925e-58
-0.010965984489643756,0.0,1,1.327423263593902e-57
""",
}


@pytest.mark.parametrize("delta", sorted(ROOTS_CSV_GOLDEN))
def test_roots_csv_golden(delta):
    find_roots.cache_clear()
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["roots", "--delta", delta, "--format", "csv"])
    assert code == 0
    assert out.getvalue() == ROOTS_CSV_GOLDEN[delta]
