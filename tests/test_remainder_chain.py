"""The integer remainder chain behind Sturm counts, gcds, square-free
parts, the half-plane counter and discriminants: checked against the
`Fraction` Euclidean chain it replaced and, test-only, against sympy."""

from fractions import Fraction

import pytest
from helpers import fraction_remainder_chain

from ehrhart_lab.exact import (
    NEG_INF,
    POS_INF,
    RatPoly,
    _derivative,
    _int_chain,
    _signs_at,
    _sylvester_det,
    discriminant,
    integer_discriminant,
    sturm_distinct_real_roots,
)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _random_poly(rng, degree: int) -> RatPoly:
    coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(degree)]
    return RatPoly(coeffs + [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                      rng.randint(1, 5))])


def _planted(rng) -> RatPoly:
    """A non-monic rational polynomial with repeated rational roots and
    an irreducible quadratic factor, so that gcds are nontrivial."""
    p = RatPoly([Fraction(rng.randint(1, 9), rng.randint(1, 7))
                 * rng.choice([-1, 1])])
    for _ in range(rng.randint(1, 4)):
        root = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        p = p * RatPoly([-root, 1]) ** rng.randint(1, 3)
    if rng.random() < 0.5:
        p = p * RatPoly([rng.randint(1, 9), rng.randint(-3, 3), 1]) ** rng.randint(1, 2)
    return p


def _points(rng, p: RatPoly):
    roots = [Fraction(-c.coeffs[0], c.coeffs[1])
             for c, _ in p.squarefree_decomposition() if c.degree == 1]
    return [NEG_INF, POS_INF, Fraction(0)] + roots + [
        Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(4)]


def test_integer_chain_signs_match_fraction_chain(rng):
    for trial in range(150):
        f0 = _planted(rng) if trial % 2 else _random_poly(rng, rng.randint(1, 9))
        if trial % 3 == 0:
            f1 = f0.derivative()
        else:
            f1 = _random_poly(rng, rng.randint(0, max(0, f0.degree - 1)))
            if trial % 5 == 0:
                f1 = f1 * RatPoly([rng.randint(-5, 5), 1])  # a shared factor, maybe
        ref = fraction_remainder_chain(f0, f1)
        chain = _int_chain(f0.integer_form()[1], f1.integer_form()[1])
        assert len(chain) == len(ref)
        assert RatPoly(chain[-1]).monic() == ref[-1].monic()
        for x in _points(rng, f0):
            want = [_sign(g.leading) * (-1) ** g.degree if x == NEG_INF
                    else _sign(g.leading) if x == POS_INF else _sign(g(x))
                    for g in ref]
            assert _signs_at(chain, x) == want


def _sympy_poly(p: RatPoly):
    sympy = pytest.importorskip("sympy")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ")


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def test_sturm_against_sympy_count_roots(rng):
    sympy = pytest.importorskip("sympy")
    for trial in range(80):
        p = _planted(rng) if trial % 4 else _random_poly(rng, rng.randint(1, 8))
        sp = _sympy_poly(p)
        points = sorted(_points(rng, p))
        for lo, hi in zip(points, points[1:]):
            if lo == hi:
                continue
            # count_roots counts distinct roots in the closed [lo, hi]
            ref = sp.count_roots(
                None if lo == NEG_INF else sympy.Rational(lo.numerator, lo.denominator),
                None if hi == POS_INF else sympy.Rational(hi.numerator, hi.denominator),
            )
            if lo != NEG_INF and p(lo) == 0:
                ref -= 1
            assert sturm_distinct_real_roots(p, lo, hi) == ref, (p, lo, hi)


def test_squarefree_decomposition_against_sympy(rng):
    pytest.importorskip("sympy")
    for trial in range(80):
        p = _planted(rng) if trial % 3 else _random_poly(rng, rng.randint(1, 8))
        _, factors = _sympy_poly(p).sqf_list()
        want = sorted(
            (tuple(_fraction(c) for c in reversed(f.monic().all_coeffs())), m)
            for f, m in factors
        )
        got = sorted((f.coeffs, m) for f, m in p.squarefree_decomposition())
        assert got == want, p
        assert p.squarefree_part().degree == sum(f.degree for f, _ in p.squarefree_decomposition())


def test_discriminant_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    for n in range(1, 13):
        polys = [_random_poly(rng, n) for _ in range(4)]
        polys += [p for p in (_planted(rng) for _ in range(6)) if p.degree == n]
        for p in polys:
            ref = sympy.discriminant(_sympy_poly(p))
            assert discriminant(p) == _fraction(ref), p


def _sylvester_discriminant(P: list[int]) -> int:
    """Reference Disc(P) = (-1)^{n(n-1)/2} Res(P, P') / lead(P), the
    resultant a Bareiss determinant of the Sylvester matrix."""
    n = len(P) - 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * _sylvester_det(P, _derivative(P)) // P[-1]


def _random_int_poly(rng, degree: int) -> list[int]:
    return [rng.randint(-60, 60) for _ in range(degree)] + [
        rng.choice([-1, 1]) * rng.randint(1, 40)]


def _times(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_integer_discriminant_closed_forms_match_sylvester(rng):
    for n in (1, 2, 3):
        for _ in range(400):
            P = _random_int_poly(rng, n)
            assert integer_discriminant(P) == _sylvester_discriminant(P), P
    for bad in ([], [3], [1, 2, 0]):
        with pytest.raises(ValueError):
            integer_discriminant(bad)


def test_integer_discriminant_vanishes_on_repeated_roots(rng):
    for _ in range(200):
        lead = rng.choice([-1, 1]) * rng.randint(1, 9)
        r, s = ([-rng.randint(-12, 12), rng.randint(1, 5)] for _ in range(2))
        square = _times([lead], _times(r, r))      # a double root
        cube = _times(square, r)                   # a triple root
        assert integer_discriminant(square) == 0, square
        assert integer_discriminant(cube) == 0, cube
        assert integer_discriminant(_times(square, s)) == 0
    # distinct real roots: Disc > 0; one real root and a complex pair: Disc < 0
    assert integer_discriminant(_times(_times([-1, 1], [-2, 1]), [-3, 1])) == 4
    assert integer_discriminant([1, 0, 0, 1]) == -27


def test_integer_discriminant_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 13):
        for _ in range(40 if n <= 3 else 4):
            P = _random_int_poly(rng, n)
            ref = sympy.discriminant(sympy.Poly(P[::-1], x, domain="ZZ"))
            assert integer_discriminant(P) == int(ref), P


def test_discriminant_against_sylvester_reference(rng):
    for n in range(1, 13):
        polys = [_random_poly(rng, n) for _ in range(6)]
        polys += [p for p in (_planted(rng) for _ in range(6)) if p.degree == n]
        for p in polys:
            den, P = p.integer_form()
            want = Fraction(_sylvester_discriminant(P), den ** (2 * n - 2))
            assert discriminant(p) == want, p
