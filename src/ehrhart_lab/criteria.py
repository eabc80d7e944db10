"""Closed-form classifiers for palindromic vectors in dimensions 2 to 7.

Each dimension reduces the critical-line / real question to sign
conditions on the coefficients of a quadratic or cubic in u together with
a discriminant inequality.  Everything here is integer arithmetic; the
`roots` module provides the independent transform-based decision the
classifiers are cross-validated against.

For the cubic case (dimensions 6 and 7) the textbook clause list misses
one boundary configuration (constant term zero with two positive roots,
e.g. u(u-1)(u-2)); the predicates below use the complete characterisation
"all roots real and nonnegative iff Disc >= 0, e1 >= 0, e2 >= 0, e3 >= 0"
so they agree with the exact decision everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .delta import DeltaVector, ehrhart_polynomial, validate_delta
from .exact import (
    NEG_INF,
    POS_INF,
    RatPoly,
    discriminant,
    sturm_distinct_real_roots,
)
from .roots import is_cl_exact, is_real_exact, strip_verdict


@dataclass(frozen=True)
class LowDimClassification:
    dimension: int
    is_cl: bool
    is_real: bool
    mixed: bool
    case_label: str
    discriminant_value: Fraction | None
    roots: tuple[complex, ...] = ()


def _label(dimension: int, cl_case: str | None, real_case: str | None,
           fallback: str) -> str:
    parts = []
    if cl_case:
        parts.append(f"dim{dimension}-cl({cl_case})")
    if real_case:
        parts.append(f"dim{dimension}-real({real_case})")
    if not parts:
        parts.append(f"dim{dimension}-{fallback}")
    return ";".join(parts)


# ----------------------------------------------------------------------
# Dimensions 2 and 3: a single threshold
# ----------------------------------------------------------------------

def classify_dim2(d1: int) -> LowDimClassification:
    """CL iff delta_1 <= 6, real iff delta_1 >= 6; the roots are
    -1/2 +- sqrt((delta_1 - 6) / (delta_1 + 2)) / 2 (imaginary below the
    threshold)."""
    if d1 < 1:
        raise ValueError("delta_1 must be >= 1")
    is_cl = d1 <= 6
    is_real = d1 >= 6
    disc = Fraction(d1 - 6, d1 + 2)
    half = math.sqrt(abs(disc)) / 2.0
    if is_real:
        roots = (complex(-0.5 - half, 0.0), complex(-0.5 + half, 0.0))
    else:
        roots = (complex(-0.5, -half), complex(-0.5, half))
    return LowDimClassification(
        2, is_cl, is_real, False,
        _label(2, "1" if is_cl else None, "1" if is_real else None, "none"),
        None, roots,
    )


def classify_dim3(d1: int) -> LowDimClassification:
    """CL iff delta_1 <= 23, real iff delta_1 >= 23; besides the forced
    root -1/2 the roots are -1/2 +- sqrt((delta_1 - 23)/(delta_1 + 1))/2."""
    if d1 < 1:
        raise ValueError("delta_1 must be >= 1")
    is_cl = d1 <= 23
    is_real = d1 >= 23
    disc = Fraction(d1 - 23, d1 + 1)
    half = math.sqrt(abs(disc)) / 2.0
    if is_real:
        roots = (complex(-0.5, 0.0), complex(-0.5 - half, 0.0), complex(-0.5 + half, 0.0))
    else:
        roots = (complex(-0.5, 0.0), complex(-0.5, -half), complex(-0.5, half))
    return LowDimClassification(
        3, is_cl, is_real, False,
        _label(3, "1" if is_cl else None, "1" if is_real else None, "none"),
        None, roots,
    )


# ----------------------------------------------------------------------
# Dimensions 4 and 5: quadratic in u
# ----------------------------------------------------------------------

def dim4_discriminant(d1: int, d2: int) -> Fraction:
    """Discriminant of the u-quadratic for dimension 4; nonnegative iff
    17(d1 + 4 d2 - 15)^2 <= (17 d1 + 49)^2 + (17 d2 - 94)^2."""
    return Fraction(
        (17 * d1 + 49) ** 2 + (17 * d2 - 94) ** 2 - 17 * (d1 + 4 * d2 - 15) ** 2,
        17,
    )


def classify_dim4(d1: int, d2: int) -> LowDimClassification:
    if d1 < 1 or d2 < 1:
        raise ValueError("delta entries must be >= 1")
    disc = dim4_discriminant(d1, d2)
    disc_ok = disc >= 0
    tangent_ok = 10 * d1 <= 3 * d2 + 70
    at_vertex = (d1, d2) == (76, 230)
    is_cl = at_vertex or (5 * d2 < 14 * d1 + 86 and tangent_ok and disc_ok)
    is_real = at_vertex or (5 * d2 > 14 * d1 + 86 and tangent_ok and disc_ok)
    mixed = 70 - 10 * d1 + 3 * d2 <= 0
    cl_case = ("1" if at_vertex else "2") if is_cl else None
    real_case = ("1" if at_vertex else "2") if is_real else None
    fallback = "mixed" if mixed else ("quartet" if disc < 0 else "none")
    return LowDimClassification(
        4, is_cl, is_real, mixed,
        _label(4, cl_case, real_case, fallback), disc,
    )


def dim5_discriminant(d1: int, d2: int) -> Fraction:
    """Discriminant of the u-quadratic for dimension 5; nonnegative iff
    41(d1 + 9 d2 - 9)^2 <= 2(41 d1 + 96)^2 + 2(41 d2 - 85)^2."""
    return Fraction(
        16 * (2 * (41 * d1 + 96) ** 2 + 2 * (41 * d2 - 85) ** 2
              - 41 * (d1 + 9 * d2 - 9) ** 2),
        41,
    )


def classify_dim5(d1: int, d2: int) -> LowDimClassification:
    if d1 < 1 or d2 < 1:
        raise ValueError("delta entries must be >= 1")
    disc = dim5_discriminant(d1, d2)
    disc_ok = disc >= 0
    tangent_ok = 71 * d1 <= 9 * d2 + 1689
    at_vertex = (d1, d2) == (237, 1682)
    is_cl = at_vertex or (d2 < 7 * d1 + 23 and tangent_ok and disc_ok)
    is_real = at_vertex or (d2 > 7 * d1 + 23 and tangent_ok and disc_ok)
    mixed = 1689 - 71 * d1 + 9 * d2 <= 0
    cl_case = ("1" if at_vertex else "2") if is_cl else None
    real_case = ("1" if at_vertex else "2") if is_real else None
    fallback = "mixed" if mixed else ("quartet" if disc < 0 else "none")
    return LowDimClassification(
        5, is_cl, is_real, mixed,
        _label(5, cl_case, real_case, fallback), disc,
    )


# ----------------------------------------------------------------------
# Dimensions 6 and 7: cubic in u
# ----------------------------------------------------------------------

def dim6_brackets(d1: int, d2: int, d3: int) -> tuple[int, int, int, int]:
    """(leading, quadratic, linear, constant) brackets of the dimension-6
    cubic; the cubic itself is
    A u^3 - (5/4) b2 u^2 + (1/16) b1 u - (45/64) b0."""
    a = 2 + 2 * d1 + 2 * d2 + d3
    b2 = 202 + 82 * d1 + 10 * d2 - 7 * d3
    b1 = 24278 + 1478 * d1 - 682 * d2 + 259 * d3
    b0 = 462 - 42 * d1 + 14 * d2 - 5 * d3
    return a, b2, b1, b0


def dim6_cubic(d1: int, d2: int, d3: int) -> RatPoly:
    a, b2, b1, b0 = dim6_brackets(d1, d2, d3)
    return RatPoly([
        Fraction(-45 * b0, 64), Fraction(b1, 16), Fraction(-5 * b2, 4), Fraction(a)
    ])


def dim7_brackets(d1: int, d2: int, d3: int) -> tuple[int, int, int, int]:
    """Brackets of the dimension-7 cubic
    A u^3 - (7/4) c2 u^2 + (7/16) c1 u - (3/64) c0."""
    a = 1 + d1 + d2 + d3
    c2 = 139 + 67 * d1 + 19 * d2 - 5 * d3
    c1 = 8197 + 1237 * d1 - 203 * d2 + 37 * d3
    c0 = 88069 - 3043 * d1 + 429 * d2 - 75 * d3
    return a, c2, c1, c0


def dim7_cubic(d1: int, d2: int, d3: int) -> RatPoly:
    a, c2, c1, c0 = dim7_brackets(d1, d2, d3)
    return RatPoly([
        Fraction(-3 * c0, 64), Fraction(7 * c1, 16), Fraction(-7 * c2, 4), Fraction(a)
    ])


def cubic_roots_nonneg(cubic: RatPoly) -> bool:
    """Complete predicate for a cubic A u^3 + B u^2 + C u + D with A > 0:
    all roots real and >= 0 iff Disc >= 0, B <= 0, C >= 0, D <= 0."""
    d0, c1, b2, a3 = (cubic.coefficient(k) for k in range(4))
    if a3 <= 0:
        raise ValueError("leading coefficient must be positive")
    return (
        b2 <= 0 and c1 >= 0 and d0 <= 0 and discriminant(cubic) >= 0
    )


def cubic_roots_nonneg_textbook(cubic: RatPoly) -> bool:
    """The three-clause form of the same predicate as usually stated:
    (B=C=D=0) or (B<0, C=D=0) or (Disc>=0, B<0, C>0, D<0).  Misses the
    boundary class D=0, C>0, B<0; kept for the documenting regression
    test, never used by the classifiers."""
    d0, c1, b2, _ = (cubic.coefficient(k) for k in range(4))
    if b2 == 0 and c1 == 0 and d0 == 0:
        return True
    if b2 < 0 and c1 == 0 and d0 == 0:
        return True
    return b2 < 0 and c1 > 0 and d0 < 0 and discriminant(cubic) >= 0


def _cubic_case_label(a: int, b2: int, b1: int, b0: int, disc: Fraction,
                      flip_for_real: bool) -> str | None:
    """Clause id for the fired case of the cubic criterion, or None."""
    s2, s0 = (-b2, -b0) if flip_for_real else (b2, b0)
    if disc < 0 or s2 < 0 or b1 < 0 or s0 < 0:
        return None
    if s2 == 0 and b1 == 0 and s0 == 0:
        return "1"
    if b1 == 0 and s0 == 0:
        return "2"
    if s0 == 0:
        return "2b"  # the boundary class the textbook clause list misses
    return "3"


def _classify_cubic(dim: int, d1: int, d2: int, d3: int,
                    cubic: RatPoly, brackets: tuple[int, int, int, int]
                    ) -> LowDimClassification:
    a, b2, b1, b0 = brackets
    disc = discriminant(cubic)
    cl_case = _cubic_case_label(a, b2, b1, b0, disc, flip_for_real=False)
    real_case = _cubic_case_label(a, b2, b1, b0, disc, flip_for_real=True)
    # mixed: the cubic has a strictly positive and a strictly negative root
    pos = sturm_distinct_real_roots(cubic, 0, POS_INF)
    neg = sturm_distinct_real_roots(cubic, NEG_INF, 0)
    if cubic.coefficient(0) == 0:
        neg -= 1
    mixed = pos >= 1 and neg >= 1
    fallback = "mixed" if mixed else ("quartet" if disc < 0 else "none")
    return LowDimClassification(
        dim, cl_case is not None, real_case is not None, mixed,
        _label(dim, cl_case, real_case, fallback), disc,
    )


def classify_dim6(d1: int, d2: int, d3: int) -> LowDimClassification:
    if min(d1, d2, d3) < 1:
        raise ValueError("delta entries must be >= 1")
    return _classify_cubic(6, d1, d2, d3, dim6_cubic(d1, d2, d3),
                           dim6_brackets(d1, d2, d3))


def classify_dim7(d1: int, d2: int, d3: int) -> LowDimClassification:
    if min(d1, d2, d3) < 1:
        raise ValueError("delta entries must be >= 1")
    return _classify_cubic(7, d1, d2, d3, dim7_cubic(d1, d2, d3),
                           dim7_brackets(d1, d2, d3))


def classify(dv: DeltaVector) -> LowDimClassification:
    """Dispatch on dimension 2..7; requires a palindromic vector."""
    if not dv.palindromic:
        raise ValueError("classification requires a palindromic delta-vector")
    e = dv.entries
    if dv.d == 2:
        return classify_dim2(e[1])
    if dv.d == 3:
        return classify_dim3(e[1])
    if dv.d == 4:
        return classify_dim4(e[1], e[2])
    if dv.d == 5:
        return classify_dim5(e[1], e[2])
    if dv.d == 6:
        return classify_dim6(e[1], e[2], e[3])
    if dv.d == 7:
        return classify_dim7(e[1], e[2], e[3])
    raise ValueError("closed-form classification covers dimensions 2..7 only")


# ----------------------------------------------------------------------
# Geometry-level criteria (volume and point count)
# ----------------------------------------------------------------------

def _delta_pair_from_geometry(d: int, normalized_volume: int, points: int
                              ) -> tuple[int, int]:
    if d == 4:
        d1 = points - 5
        d2 = normalized_volume - 2 - 2 * d1
    elif d == 5:
        if normalized_volume % 2:
            raise ValueError("normalized volume must be even in dimension 5")
        d1 = points - 6
        d2 = normalized_volume // 2 - 1 - d1
    else:
        raise ValueError("geometry criteria cover dimensions 4 and 5 only")
    if d1 < 1 or d2 < 1:
        raise ValueError(
            f"inconsistent geometry: volume {normalized_volume}, points {points}"
        )
    return d1, d2


def cl_from_geometry(d: int, normalized_volume: int, points: int) -> bool:
    """CL decision from d! * vol and the point count (dimensions 4, 5)."""
    d1, d2 = _delta_pair_from_geometry(d, normalized_volume, points)
    cls = classify_dim4(d1, d2) if d == 4 else classify_dim5(d1, d2)
    return cls.is_cl


def real_from_geometry(d: int, normalized_volume: int, points: int) -> bool:
    """Real decision from d! * vol and the point count (dimensions 4, 5)."""
    d1, d2 = _delta_pair_from_geometry(d, normalized_volume, points)
    cls = classify_dim4(d1, d2) if d == 4 else classify_dim5(d1, d2)
    return cls.is_real


# ----------------------------------------------------------------------
# The parabola of dimension 4
# ----------------------------------------------------------------------

def parabola_point_dim4(n: int, branch: str = "lower") -> tuple[int, int]:
    """Integer point (delta_1, delta_2) = (N^2 - 5, (2N -+ 3)^2 + 5) on the
    parabola 17(d1 + 4 d2 - 15)^2 = (17 d1 + 49)^2 + (17 d2 - 94)^2."""
    if n < 3:
        raise ValueError("N must be >= 3")
    if branch not in ("lower", "upper"):
        raise ValueError("branch must be 'lower' or 'upper'")
    m = 2 * n - 3 if branch == "lower" else 2 * n + 3
    point = (n * n - 5, m * m + 5)
    assert dim4_discriminant(*point) == 0
    return point


# ----------------------------------------------------------------------
# Volume bound propositions
# ----------------------------------------------------------------------

def volume_bounds_check(dv: DeltaVector) -> list[tuple[str, bool]]:
    """For each volume-bound proposition whose hypothesis the vector
    satisfies, report whether its conclusion holds.

    A False entry is evidence of a kernel bug, not of bad input data.
    """
    if not dv.palindromic:
        raise ValueError("volume bounds apply to palindromic vectors")
    d = dv.d
    vol = Fraction(dv.total, math.factorial(d))
    out: list[tuple[str, bool]] = []
    cl = is_cl_exact(dv)
    real = is_real_exact(dv)
    if cl:
        out.append(("cl-volume-upper-2^d", vol <= 2 ** d))
    if real:
        cs = strip_verdict(ehrhart_polynomial(dv), -1, 0, strict=True)
        if cs.holds:
            out.append(("real-cs-volume-lower-2^d", vol >= 2 ** d))
    if d in (4, 5):
        cls = classify(dv)
        if real:
            bound = Fraction(3) if d == 4 else Fraction(16, 5)
            out.append((f"real-volume-lower-{bound}", vol >= bound))
        if cls.mixed:
            bound = Fraction(4, 3) if d == 4 else Fraction(19, 20)
            out.append((f"mixed-volume-lower-{bound}", vol >= bound))
        if cls.discriminant_value is not None and cls.discriminant_value < 0:
            # complex quartet case: all real parts within 3/2 of -1/2
            verdict = strip_verdict(ehrhart_polynomial(dv), -2, 1, strict=True)
            out.append(("quartet-real-part-window", verdict.holds))
    return out


# ----------------------------------------------------------------------
# Region sweeps (data behind the CL / real / mixed picture)
# ----------------------------------------------------------------------

def region_rows(d: int, r1: range, r2: range | None = None,
                r3: range | None = None):
    """Yield classification rows over integer ranges of the free entries,
    row-major; used by the `regions` CLI command."""
    if d in (2, 3):
        for d1 in r1:
            yield (d1,), classify_dim2(d1) if d == 2 else classify_dim3(d1)
    elif d in (4, 5):
        if r2 is None:
            raise ValueError("dimension 4 or 5 needs a delta_2 range")
        for d1 in r1:
            for d2 in r2:
                yield (d1, d2), (classify_dim4(d1, d2) if d == 4
                                 else classify_dim5(d1, d2))
    elif d in (6, 7):
        if r2 is None or r3 is None:
            raise ValueError("dimension 6 or 7 needs delta_2 and delta_3 ranges")
        for d1 in r1:
            for d2 in r2:
                for d3 in r3:
                    yield (d1, d2, d3), (classify_dim6(d1, d2, d3) if d == 6
                                         else classify_dim7(d1, d2, d3))
    else:
        raise ValueError("regions cover dimensions 2..7 only")


def delta_for_pair(d: int, d1: int, d2: int | None = None,
                   d3: int | None = None) -> DeltaVector:
    """Assemble the palindromic vector with the given free entries."""
    if d == 2:
        return validate_delta([1, d1, 1])
    if d == 3:
        return validate_delta([1, d1, d1, 1])
    if d == 4:
        return validate_delta([1, d1, d2, d1, 1])
    if d == 5:
        return validate_delta([1, d1, d2, d2, d1, 1])
    if d == 6:
        return validate_delta([1, d1, d2, d3, d2, d1, 1])
    if d == 7:
        return validate_delta([1, d1, d2, d3, d3, d2, d1, 1])
    raise ValueError("dimensions 2..7 only")
