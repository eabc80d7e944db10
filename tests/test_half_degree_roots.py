"""The half-degree root route and the nested strip search.

`find_roots` solves a polynomial symmetric about Re z = -1/2 through its
half polynomial E in u = (z + 1/2)^2, and `hypothesis_report` decides the
nested strips NCS, CS, HS, S with a search instead of four decisions.
The root checks refine every reported root at 80 digits with mpmath on
the square-free factor of L, found by the exact kernel, that carries the
reported multiplicity; the strip checks compare against the two-count
decision each strip used to get."""

import math
import random
from fractions import Fraction

import pytest
from helpers import random_palindromic, two_count_strip_verdict

from ehrhart_lab import roots
from ehrhart_lab.delta import (
    cube_delta,
    ehrhart_polynomial,
    product_delta,
    validate_delta,
)
from ehrhart_lab.exact import NEG_INF, POS_INF, RatPoly, sturm_distinct_real_roots
from ehrhart_lab.roots import (
    FAILS_EXACT,
    find_roots,
    hypothesis_report,
    is_cl_exact,
    strip_verdict,
)


def _nearest_double(x) -> float:
    """An mpmath real rounded to the nearest double."""
    man, exp = x.man_exp
    return math.copysign(float(Fraction(man) * Fraction(2) ** exp), x)


def assert_roots_exact(mpmath, poly: RatPoly):
    """Every root of find_roots(poly) is the nearest double to a root of
    the square-free factor of its multiplicity, and each factor's roots
    are all found, pairwise distinct at 80 digits."""
    rs = find_roots(poly)
    factors = dict((k, g) for g, k in poly.squarefree_decomposition())
    found = {k: [] for k in factors}
    for r in rs.roots:
        assert r.multiplicity in factors, (poly, r)
        coeffs = factors[r.multiplicity].integer_form()[1][::-1]
        with mpmath.workdps(80):
            z = mpmath.mpc(r.re, r.im)
            for _ in range(80):
                val, slope = mpmath.polyval(coeffs, z, derivative=True)
                step = val / slope
                z -= step
                if abs(step) <= mpmath.mpf(10) ** -78 * (1 + abs(z)):
                    break
            else:
                raise AssertionError(f"mpmath Newton did not converge on {poly}")
            assert (r.re, r.im) == (_nearest_double(z.real), _nearest_double(z.imag)), r
            found[r.multiplicity].append(z)
    for k, g in factors.items():
        assert len(found[k]) == g.degree
        with mpmath.workdps(80):
            zs = found[k]
            assert all(abs(u - w) > mpmath.mpf(10) ** -40
                       for i, u in enumerate(zs) for w in zs[:i])
    return rs


def test_cube_vectors_give_one_centre_root():
    for d in range(1, 65):
        rs = find_roots(ehrhart_polynomial(cube_delta(d)))
        assert [(r.re, r.im, r.multiplicity) for r in rs.roots] == [(-0.5, 0.0, d)]
        assert rs.roots[0].error_radius == 1e-15 * (1.0 + 0.5)


def test_repeated_roots_off_the_line():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(5)
    for _ in range(12):
        a = random_palindromic(rng, rng.randint(2, 9), hi=rng.choice([40, 3000]))
        poly = ehrhart_polynomial(product_delta(a, a))
        rs = assert_roots_exact(mpmath, poly)
        assert all(r.multiplicity % 2 == 0 for r in rs.roots)
        if not is_cl_exact(a):
            assert any(r.re != -0.5 for r in rs.roots)


def test_odd_dimensions_and_critical_line_roots():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(6)
    on_line = 0
    for _ in range(40):
        d = rng.choice(range(3, 28, 2)) if rng.random() < 0.6 else rng.randint(2, 28)
        dv = random_palindromic(rng, d, hi=rng.choice([3, 50, 3000]))
        poly = ehrhart_polynomial(dv)
        rs = assert_roots_exact(mpmath, poly)
        if d % 2:
            assert any(r.re == -0.5 and r.im == 0.0 for r in rs.roots)
        # the roots on Re z = -1/2 are exactly the real roots u <= 0 of E
        line = sum(r.multiplicity for r in rs.roots if r.re == -0.5)
        on_line += line
        if is_cl_exact(dv):
            assert line == d
    assert on_line > 100


def test_real_roots():
    mpmath = pytest.importorskip("mpmath")
    real_vectors = [[1, 7, 1], [1, 95, 294, 95, 1], [1, 121, 381, 121, 1],
                    [1, 2130, 1824, 1394, 332, 1394, 1824, 2130, 1]]
    seg = validate_delta([1, 7, 1])
    real_vectors.append(list(product_delta(seg, validate_delta([1, 121, 381, 121, 1])).entries))
    for entries in real_vectors:
        poly = ehrhart_polynomial(validate_delta(entries))
        rs = assert_roots_exact(mpmath, poly)
        real = [r for r in rs.roots if r.im == 0.0]
        assert len(real) == sturm_distinct_real_roots(poly, NEG_INF, POS_INF)


def test_non_palindromic_inputs_keep_the_generic_route():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 16)
        entries = [1] + [rng.randint(0, 60) for _ in range(d)]
        if entries == entries[::-1]:
            continue
        poly = ehrhart_polynomial(validate_delta(entries))
        assert roots._symmetric_half(poly) is None
        assert_roots_exact(mpmath, poly)


STRIPS = {
    "NCS": lambda d: (Fraction(-d, d + 1), Fraction(-1, d + 1), False),
    "CS": lambda d: (-1, 0, True),
    "HS": lambda d: (Fraction(-d, 2), Fraction(d, 2) - 1, False),
    "S": lambda d: (-d, d - 1, False),
}


def _random_palindromic(rng, d, lo, hi):
    half = [rng.randint(lo, hi) for _ in range((d - 1) // 2)]
    mid = [rng.randint(lo, hi)] if d % 2 == 0 else []
    return validate_delta([1] + half + mid + half[::-1] + [1])


def test_nested_strip_search_matches_four_two_count_decisions():
    rng = random.Random(8)
    vectors = [validate_delta([1, 1]), validate_delta([1, 0, 1]), validate_delta([1, 6, 1])]
    for k in range(520):
        d = 1 + k % 20
        vectors.append(_random_palindromic(rng, d, *((0, 3) if k % 2 else (1, 3000))))
    failing = set()
    for dv in vectors:
        rep = hypothesis_report(dv)
        poly = ehrhart_polynomial(dv)
        for name, bounds in STRIPS.items():
            ref = two_count_strip_verdict(poly, *bounds(dv.d))
            assert rep.verdicts[name] == ref, (dv, name)
            if not ref.holds:
                failing.add(name)
    assert failing == set(STRIPS) - {"S"}


def test_mirror_shortcut_needs_a_symmetric_polynomial(monkeypatch):
    counts = []
    real_counter = roots.halfplane_counts

    def counting(p):
        counts.append(p)
        return real_counter(p)

    monkeypatch.setattr(roots, "halfplane_counts", counting)
    # roots -1 and -1/2: symmetric about -3/4, so p(-1 - z) != +-p(z);
    # the root on the lower bound is seen by the second count only
    p = RatPoly([1, 3, 2])
    v = strip_verdict(p, -1, 0, strict=True)
    assert v.verdict == FAILS_EXACT and v.witness == (-1.0, 0.0)
    assert len(counts) == 2
    assert v == two_count_strip_verdict(p, -1, 0, strict=True)
    counts.clear()
    assert strip_verdict(p, -1, 0).holds and len(counts) == 2
    # (z + 1/4)(z + 3/4) and (z + 1/2)(z + 1/4)(z + 3/4) are symmetric
    # about -1/2, p(-1 - z) = p(z) and -p(z): one count decides each
    for sym in (RatPoly([3, 16, 16]), RatPoly([3, 16, 16]) * RatPoly([1, 2])):
        counts.clear()
        assert strip_verdict(sym, -1, 0, strict=True).holds
        assert len(counts) == 1
