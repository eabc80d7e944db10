import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from helpers import random_unimodular

from ehrhart_lab.exact import (
    NEG_INF,
    POS_INF,
    IntMatrix,
    RatPoly,
    SingularMatrixError,
    all_roots_real_nonneg,
    binomial_poly,
    descartes_positive_bound,
    discriminant,
    elementary_divisors,
    eulerian,
    fraction_matrix_inverse,
    halfplane_counts,
    integer_adjugate,
    resultant,
    routh_right_halfplane_count,
    row_hermite_basis,
    smith_normal_form,
    solve_linear_exact,
    sturm_distinct_real_roots,
)


def poly_from_roots(roots) -> RatPoly:
    p = RatPoly([1])
    for r in roots:
        p = p * RatPoly([-Fraction(r), 1])
    return p


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------

def test_ratpoly_arithmetic_roundtrip():
    p = RatPoly([1, 2, 3])
    q = RatPoly([Fraction(1, 2), 0, 0, 1])
    assert (p + q) - q == p
    assert (p * q) // q == p and (p * q) % q == RatPoly()
    assert p.derivative() == RatPoly([2, 6])
    assert (p ** 3) == p * p * p
    assert p.shift(2).shift(-2) == p
    assert p.reflect().reflect() == p


def test_ratpoly_zero_conventions():
    z = RatPoly()
    assert z.is_zero and z.degree == -1
    assert (z + RatPoly([1])) == RatPoly([1])
    with pytest.raises(ValueError):
        z.leading


def _random_ratpoly(rng, degree: int) -> RatPoly:
    return RatPoly([Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
                    for _ in range(degree)] + [Fraction(rng.randint(1, 99), rng.randint(1, 9))])


def test_compose_linear_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def rational(x):
        x = Fraction(x)
        return sympy.Rational(x.numerator, x.denominator)

    def from_sympy(poly):
        return RatPoly(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))

    for degree in range(41):
        p = _random_ratpoly(rng, degree)
        ref_p = sympy.Poly([rational(c) for c in reversed(p.coeffs)], z, domain="QQ")
        d = rng.randint(1, 64)
        shifts = [Fraction(-1, 2), Fraction(d, 2) - 1, Fraction(-d, d + 1),
                  Fraction(rng.randint(-999, 999), rng.randint(1, 999))]
        for a in (1, -1, Fraction(rng.randint(-50, 50) or 1, rng.randint(2, 30))):
            for b in shifts:
                got = p.compose_linear(a, b)
                lin = sympy.Poly(rational(a) * z + rational(b), z, domain="QQ")
                assert got == from_sympy(ref_p.compose(lin)), (degree, a, b)
                if a == 1:
                    assert p.shift(b) == got
        if degree % 8 == 0:
            # the same against a plain symbolic expansion of p(a*z + b)
            a, b = Fraction(-3, 7), shifts[degree % 4]
            expr = sympy.expand(ref_p.as_expr().subs(z, rational(a) * z + rational(b)))
            assert p.compose_linear(a, b) == from_sympy(sympy.Poly(expr, z))


def test_shift_round_trip_and_zero(rng):
    for degree in range(0, 41, 4):
        p = _random_ratpoly(rng, degree)
        for _ in range(3):
            c = Fraction(rng.randint(-10 ** 5, 10 ** 5), rng.randint(1, 10 ** 5))
            assert p.shift(c).shift(-c) == p
            # p(-(-z + c) + c) = p(z)
            assert p.compose_linear(-1, c).compose_linear(-1, c) == p
    zero = RatPoly()
    assert zero.shift(Fraction(-1, 2)).is_zero
    assert zero.compose_linear(Fraction(3, 7), Fraction(-5, 2)).is_zero
    # a = 0 leaves the constant p(b)
    p = RatPoly([1, 2, 3])
    assert p.compose_linear(0, Fraction(1, 2)) == RatPoly([p(Fraction(1, 2))])


def test_binomial_poly_matches_comb():
    for offset in range(-2, 6):
        for d in range(0, 7):
            p = binomial_poly(offset, d)
            assert p.degree == d
            for m in range(0, 9):
                if m + offset >= 0:
                    assert p(Fraction(m)) == math.comb(m + offset, d)
    assert binomial_poly(2, 2) == RatPoly([1, Fraction(3, 2), Fraction(1, 2)])
    assert binomial_poly(0, 3)(Fraction(5)) == 10
    for d in range(1, 6):
        assert binomial_poly(d, d)(Fraction(0)) == 1
    with pytest.raises(ValueError):
        binomial_poly(0, -1)


def brute_eulerian(d, j):
    count = 0
    for perm in permutations(range(1, d + 1)):
        descents = sum(1 for i in range(d - 1) if perm[i] > perm[i + 1])
        if descents == j:
            count += 1
    return count


def test_eulerian_against_descent_count():
    for d in range(1, 7):
        for j in range(-1, d + 1):
            expected = brute_eulerian(d, j) if 0 <= j <= d - 1 else 0
            assert eulerian(d, j) == expected
    assert eulerian(3, 1) == 4
    assert eulerian(4, 2) == 11
    assert all(eulerian(d, 0) == 1 for d in range(1, 9))


# ----------------------------------------------------------------------
# real root counting
# ----------------------------------------------------------------------

def test_sturm_examples():
    assert sturm_distinct_real_roots(RatPoly([-2, 0, 1])) == 2
    assert sturm_distinct_real_roots(RatPoly([1, 0, 1])) == 0
    zz = poly_from_roots([0, 1, 2])
    assert sturm_distinct_real_roots(zz, 0, POS_INF) == 2
    assert sturm_distinct_real_roots(zz, NEG_INF, 0) == 1  # (lo, hi] includes 0
    assert sturm_distinct_real_roots(zz, Fraction(1, 2), Fraction(3, 2)) == 1


def test_sturm_multiplicities_ignored():
    p = poly_from_roots([1, 1, 1, 4])
    assert sturm_distinct_real_roots(p) == 2


def test_sturm_extra_factor_property(rng):
    for _ in range(60):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        p = poly_from_roots(roots)
        r = Fraction(rng.randint(7, 20), 1)  # outside the existing roots
        expanded = p * RatPoly([-r, 1])
        assert (
            sturm_distinct_real_roots(expanded)
            == sturm_distinct_real_roots(p) + 1
        )


def test_all_roots_real_nonneg_examples():
    assert all_roots_real_nonneg(RatPoly([2, -3, 1]))       # roots 1, 2
    assert not all_roots_real_nonneg(RatPoly([1, 1, 1]))    # complex pair
    assert all_roots_real_nonneg(poly_from_roots([0, 1, 2]))
    assert all_roots_real_nonneg(RatPoly([5]))              # no roots at all
    assert not all_roots_real_nonneg(poly_from_roots([-1, 1]))
    assert all_roots_real_nonneg(poly_from_roots([0, 0, 3]))
    with pytest.raises(ValueError):
        all_roots_real_nonneg(RatPoly())


def test_all_roots_real_nonneg_random_agreement(rng):
    # compare against direct knowledge of the roots we planted
    for _ in range(300):
        kind = rng.random()
        roots = []
        n = rng.randint(1, 3)
        expected = True
        p = RatPoly([1])
        for _ in range(n):
            if kind < 0.4:
                r = Fraction(rng.randint(0, 8), rng.randint(1, 3))
                p = p * RatPoly([-r, 1])
            elif kind < 0.7:
                r = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                p = p * RatPoly([-r, 1])
                expected = expected and r >= 0
            else:
                a, b = rng.randint(-3, 3), rng.randint(1, 3)
                p = p * RatPoly([a * a + b * b, -2 * a, 1])  # conjugate pair
                expected = False
        assert all_roots_real_nonneg(p) == expected


def test_descartes_bound():
    assert descartes_positive_bound(poly_from_roots([1, 2, 3])) == 3
    assert descartes_positive_bound(poly_from_roots([-1, -2])) == 0


def test_routh_examples():
    assert routh_right_halfplane_count(poly_from_roots([-1, -2])) == 0
    assert routh_right_halfplane_count(poly_from_roots([1, -2])) == 1
    assert routh_right_halfplane_count(RatPoly([1, 0, 1])) is None
    assert routh_right_halfplane_count(RatPoly([3, 2, 2, 1, 1])) == 2
    assert routh_right_halfplane_count(RatPoly([7])) == 0
    assert routh_right_halfplane_count(RatPoly([0, 1])) is None  # root at 0


def test_routh_counts_random(rng):
    # plant roots with known half-plane counts; the array may degenerate
    # (e.g. for coefficient patterns with missing powers) but whenever it
    # returns a number that number must be the planted count
    decided = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rights = 0
        p = RatPoly([1])
        for _ in range(n):
            re = rng.choice([1, 2, 3, -1, -2, -3])
            if rng.random() < 0.5:
                p = p * RatPoly([-re, 1])
                rights += re > 0
            else:
                im = rng.randint(1, 3)
                p = p * RatPoly([re * re + im * im, -2 * re, 1])
                rights += 2 * (re > 0)
        count = routh_right_halfplane_count(p)
        if count is not None:
            decided += 1
            assert count == rights
    assert decided > 100  # degeneracy is the exception, not the rule


def test_halfplane_counts_planted(rng):
    # planted roots: real roots (some at 0), conjugate pairs, +-pairs and
    # imaginary-axis pairs, each with a random multiplicity
    for _ in range(400):
        p = RatPoly([rng.choice([1, 2, -3])])
        right = on_axis = 0
        for _ in range(rng.randint(0, 5)):
            mult = rng.choice([1, 1, 1, 2, 3])
            kind = rng.randrange(4)
            if kind == 0:
                r = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                factor = RatPoly([-r, 1])
                right += mult * (r > 0)
                on_axis += mult * (r == 0)
            elif kind == 1:
                a = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                b = rng.randint(1, 4)
                factor = RatPoly([a * a + b * b, -2 * a, 1])
                right += 2 * mult * (a > 0)
                on_axis += 2 * mult * (a == 0)
            elif kind == 2:
                a = rng.randint(1, 4)
                factor = RatPoly([-a * a, 0, 1])  # +-a
                right += mult
            else:
                b = rng.randint(1, 4)
                factor = RatPoly([b * b, 0, 1])  # +-bi
                on_axis += 2 * mult
            p = p * factor ** mult
        assert halfplane_counts(p) == (right, on_axis)
        assert halfplane_counts(p.reflect()) == (p.degree - right - on_axis, on_axis)


def test_halfplane_counts_against_mpmath(rng):
    mpmath = pytest.importorskip("mpmath")
    for _ in range(150):
        n = rng.randint(1, 9)
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 9)]
        if rng.random() < 0.3:
            coeffs[rng.randrange(n)] = 0
        with mpmath.workdps(60):
            roots = mpmath.polyroots(coeffs[::-1], maxsteps=300, extraprec=200)
        # at 60 digits a root on the axis shows |Re z| far below 1e-30, and
        # no root of these small integer polynomials lies that close to it
        right = sum(1 for z in roots if mpmath.re(z) > 1e-30)
        on_axis = sum(1 for z in roots if abs(mpmath.re(z)) <= 1e-30)
        assert halfplane_counts(RatPoly(coeffs)) == (right, on_axis)


def test_discriminant_examples():
    assert discriminant(RatPoly([1, 0, 1])) == -4
    # symbolic check on sampled rational quadratics: disc = b^2 - 4ac
    rng = random.Random(5)
    for _ in range(40):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert discriminant(RatPoly([c, b, a])) == b * b - 4 * a * c
    # cubic with a double root has discriminant zero
    assert discriminant(poly_from_roots([2, 2, 5])) == 0
    assert discriminant(poly_from_roots([1, 2, 3])) > 0
    assert discriminant(RatPoly([1, 1])) == 1
    with pytest.raises(ValueError):
        discriminant(RatPoly([3]))


def test_resultant_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for _ in range(80):
        p, q = (
            RatPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)])
            for _ in range(2)
        )
        if p.degree < q.degree:
            # sympy 1.14 drops the sign (-1)^(deg p * deg q) in this order
            p, q = q, p
        ref = sympy.resultant(
            *(sympy.Poly(list(reversed(f.coeffs)), x, domain="QQ") for f in (p, q))
        )
        assert resultant(p, q) == Fraction(int(ref.p), int(ref.q))
        assert resultant(q, p) == (-1) ** (p.degree * q.degree) * resultant(p, q)


def test_resultant_vanishes_iff_common_root():
    p = poly_from_roots([1, 3])
    q = poly_from_roots([3, 7])
    assert resultant(p, q) == 0
    assert resultant(p, poly_from_roots([2, 7])) != 0


# ----------------------------------------------------------------------
# integer matrices
# ----------------------------------------------------------------------

def test_smith_normal_form_examples():
    assert elementary_divisors(IntMatrix.identity(3)) == (1, 1, 1)
    assert elementary_divisors(IntMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert elementary_divisors(IntMatrix([[2, 4], [6, 8]])) == (2, 4)


def test_smith_normal_form_random(rng):
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        u, s, v = smith_normal_form(m)
        assert u * m * v == s
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [s.data[i][i] for i in range(min(r, c))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 or (a == 0 and b == 0)
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert s.data[i][j] == 0
        if r == c:
            assert math.prod(diag) == abs(m.det())


def test_row_hermite_basis():
    basis = row_hermite_basis([[2, 0], [1, 1], [0, 2]])
    assert IntMatrix(basis).det() in (-2, 2)
    assert basis == [[1, 1], [0, 2]]
    # the basis spans the same lattice: membership via integer solve
    assert row_hermite_basis([[0, 0], [0, 0]]) == []


def test_solve_linear_exact():
    assert solve_linear_exact(IntMatrix.identity(3), [5, -1, 2]) == [5, -1, 2]
    assert solve_linear_exact(IntMatrix([[2, 0], [0, 2]]), [1, 1]) == [
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    # barycentric coordinates of the origin in a symmetric triangle
    a = [[1, 0, 1], [0, 1, 1], [-1, -1, 1]]
    x = solve_linear_exact([[row[i] for row in a] for i in range(3)], [0, 0, 1])
    assert x == [Fraction(1, 3)] * 3
    with pytest.raises(SingularMatrixError):
        solve_linear_exact(IntMatrix([[1, 1], [2, 2]]), [1, 1])


def test_fraction_matrix_inverse(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if IntMatrix(rows).det() == 0:
            continue
        inv = fraction_matrix_inverse(rows)
        for i in range(n):
            for j in range(n):
                acc = sum(Fraction(rows[i][k]) * inv[k][j] for k in range(n))
                assert acc == (1 if i == j else 0)


def test_integer_adjugate_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    for n in range(1, 12):
        for kind in ("random", "singular", "unimodular"):
            if kind == "unimodular":
                rows = random_unimodular(rng, n, steps=3 * n)
            else:
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if kind == "singular":
                # the last row becomes a combination of the others
                coef = [rng.randint(-2, 2) for _ in range(n - 1)]
                rows[-1] = [sum(c * r[j] for c, r in zip(coef, rows)) for j in range(n)]
            det, adj = integer_adjugate(rows)
            ref = sympy.Matrix(rows)
            assert det == ref.det() == IntMatrix(rows).det()
            if kind == "singular":
                assert det == 0
            if kind == "unimodular":
                assert det in (1, -1)
            if det == 0:
                assert adj is None
                continue
            assert adj == ref.adjugate().tolist()
            product = IntMatrix(rows) * IntMatrix(adj)
            assert product.to_lists() == [[det * (i == j) for j in range(n)]
                                          for i in range(n)]


def test_routh_partitions_the_degree(rng):
    # right count of p plus right count of p(-z) must give the degree when
    # both arrays are regular (regularity certifies no imaginary-axis roots)
    decided = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 9)]
        p = RatPoly(coeffs)
        right = routh_right_halfplane_count(p)
        left = routh_right_halfplane_count(p.reflect())
        if right is None or left is None:
            continue
        decided += 1
        assert right + left == p.degree
    assert decided > 100
