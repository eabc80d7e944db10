"""Closed-form classifiers for palindromic vectors in dimensions 2 to 7.

`CLOSED_FORMS` holds the constants of each dimension d, and one of three
shape routines reads them with the d // 2 free entries
delta_1..delta_{d//2}: a threshold on delta_1 (d = 2, 3), a discriminant
and two lines (d = 4, 5), or a cubic F(u) = A u^3 + B u^2 + C u + D with
A > 0 (d = 6, 7).  Everything is exact; the `roots` module provides the
independent transform-based decision they are cross-validated against.

For the cubic, CL holds iff every root of F is real and >= 0, and Real
iff every root of F(-u) is.  One complete clause list decides both:
Disc >= 0, B <= 0, C >= 0, D <= 0 (the textbook list misses D = 0 with
two positive roots, e.g. u(u-1)(u-2)), and F(u), F(-u) share Disc.
`mixed` (a strictly positive and a strictly negative root) is Disc >= 0
with a coefficient sign change in both F(u) and F(-u): with Disc < 0 one
root is real, and with Disc >= 0 all are, so Descartes' count is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .delta import DeltaVector, ehrhart_polynomial, validate_delta
from .exact import RatPoly, descartes_positive_bound, discriminant
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


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

class _Threshold(NamedTuple):
    """CL iff delta_1 <= at, real iff delta_1 >= at; besides the forced
    root -1/2 of odd d the roots are
    -1/2 +- sqrt((delta_1 - at) / (delta_1 + offset)) / 2."""
    at: int
    offset: int


class _Quadratic(NamedTuple):
    """disc = (s, w, k, x, y, m, c) gives the u-quadratic's discriminant
    s (w ((k d1 + x)^2 + (k d2 + y)^2) - k (d1 + m d2 + c)^2) / k.  CL and
    real need disc >= 0, tangent slack t0 - t1 d1 + t2 d2 >= 0 (<= 0 is
    the mixed region) and l2 d2 < l1 d1 + l0 (CL) or > (real); the vertex
    is both.  Real and mixed vectors have volume >= real_volume and
    mixed_volume."""
    disc: tuple[int, int, int, int, int, int, int]
    tangent: tuple[int, int, int]  # t0, t1, t2
    line: tuple[int, int, int]  # l0, l1, l2
    vertex: tuple[int, int]
    real_volume: Fraction
    mixed_volume: Fraction


class _Cubic(NamedTuple):
    """Coefficient k of F(u), constant first, is num/den times the
    bracket c0 + c1 d1 + c2 d2 + c3 d3, given as (num, den, (c0, c1, c2, c3))."""
    coefficients: tuple[tuple[int, int, tuple[int, int, int, int]], ...]


CLOSED_FORMS = {
    2: _Threshold(at=6, offset=2),
    3: _Threshold(at=23, offset=1),
    # 17 (d1 + 4 d2 - 15)^2 <= (17 d1 + 49)^2 + (17 d2 - 94)^2
    4: _Quadratic(disc=(1, 1, 17, 49, -94, 4, -15), tangent=(70, 10, 3),
                  line=(86, 14, 5), vertex=(76, 230),
                  real_volume=Fraction(3), mixed_volume=Fraction(4, 3)),
    # 41 (d1 + 9 d2 - 9)^2 <= 2 (41 d1 + 96)^2 + 2 (41 d2 - 85)^2
    5: _Quadratic(disc=(16, 2, 41, 96, -85, 9, -9), tangent=(1689, 71, 9),
                  line=(23, 7, 1), vertex=(237, 1682),
                  real_volume=Fraction(16, 5), mixed_volume=Fraction(19, 20)),
    # A u^3 - (5/4) b2 u^2 + (1/16) b1 u - (45/64) b0
    6: _Cubic(((-45, 64, (462, -42, 14, -5)),
               (1, 16, (24278, 1478, -682, 259)),
               (-5, 4, (202, 82, 10, -7)),
               (1, 1, (2, 2, 2, 1)))),
    # A u^3 - (7/4) c2 u^2 + (7/16) c1 u - (3/64) c0
    7: _Cubic(((-3, 64, (88069, -3043, 429, -75)),
               (7, 16, (8197, 1237, -203, 37)),
               (-7, 4, (139, 67, 19, -5)),
               (1, 1, (1, 1, 1, 1)))),
}


def _classifier(d: int):
    """`classify_dim<d>`, looked up by name at call time so that a wrapper
    rebound on the module attribute (as `bench/spans.py` does) sees every
    call."""
    return globals()[f"classify_dim{d}"]


def _result(d: int, cl_case: str | None, real_case: str | None, mixed: bool,
            disc: Fraction | None, roots: tuple[complex, ...] = ()
            ) -> LowDimClassification:
    parts = []
    if cl_case:
        parts.append(f"dim{d}-cl({cl_case})")
    if real_case:
        parts.append(f"dim{d}-real({real_case})")
    if not parts:
        quartet = disc is not None and disc < 0
        parts.append(f"dim{d}-" + ("mixed" if mixed else "quartet" if quartet else "none"))
    return LowDimClassification(d, cl_case is not None, real_case is not None,
                                mixed, ";".join(parts), disc, roots)


# ----------------------------------------------------------------------
# The three shapes
# ----------------------------------------------------------------------

def _classify_threshold(d: int, d1: int) -> LowDimClassification:
    if d1 < 1:
        raise ValueError("delta_1 must be >= 1")
    at, offset = CLOSED_FORMS[d]
    half = math.sqrt(abs(Fraction(d1 - at, d1 + offset))) / 2.0
    if d1 >= at:
        pair = (complex(-0.5 - half, 0.0), complex(-0.5 + half, 0.0))
    else:
        pair = (complex(-0.5, -half), complex(-0.5, half))
    forced = (complex(-0.5, 0.0),) * (d % 2)
    return _result(d, "1" if d1 <= at else None, "1" if d1 >= at else None,
                   False, None, forced + pair)


def _quadratic_discriminant(form: _Quadratic, d1: int, d2: int) -> Fraction:
    s, w, k, x, y, m, c = form.disc
    return Fraction(
        s * (w * ((k * d1 + x) ** 2 + (k * d2 + y) ** 2) - k * (d1 + m * d2 + c) ** 2),
        k,
    )


def _classify_quadratic(d: int, d1: int, d2: int) -> LowDimClassification:
    if d1 < 1 or d2 < 1:
        raise ValueError("delta entries must be >= 1")
    form = CLOSED_FORMS[d]
    disc = _quadratic_discriminant(form, d1, d2)
    t0, t1, t2 = form.tangent
    slack = t0 - t1 * d1 + t2 * d2
    l0, l1, l2 = form.line
    side = l2 * d2 - l1 * d1 - l0
    at_vertex = (d1, d2) == form.vertex
    inside = slack >= 0 and disc >= 0
    case = "1" if at_vertex else "2"
    return _result(
        d,
        case if at_vertex or (side < 0 and inside) else None,
        case if at_vertex or (side > 0 and inside) else None,
        slack <= 0,
        disc,
    )


def _cubic(d: int, d1: int, d2: int, d3: int) -> RatPoly:
    return RatPoly([
        Fraction(num * (c0 + c1 * d1 + c2 * d2 + c3 * d3), den)
        for num, den, (c0, c1, c2, c3) in CLOSED_FORMS[d].coefficients
    ])


def _nonneg_clause(cubic: RatPoly, disc: Fraction) -> str | None:
    """The clause under which every root of the cubic
    A u^3 + B u^2 + C u + D (A > 0, discriminant disc) is real and >= 0,
    or None: "1" for u^3, "2" for B < 0 = C = D, "2b" for D = 0 < C (the
    class the textbook clause list misses) and "3" for D < 0."""
    d0, c1, b2 = (cubic.coefficient(k) for k in range(3))
    if disc < 0 or b2 > 0 or c1 < 0 or d0 > 0:
        return None
    if d0 != 0:
        return "3"
    if c1 != 0:
        return "2b"
    return "2" if b2 != 0 else "1"


def _classify_cubic(d: int, d1: int, d2: int, d3: int) -> LowDimClassification:
    if min(d1, d2, d3) < 1:
        raise ValueError("delta entries must be >= 1")
    cubic = _cubic(d, d1, d2, d3)
    mirror = -cubic.reflect()  # -F(-u): the roots negated, A > 0 kept
    disc = discriminant(cubic)
    mixed = (disc >= 0 and descartes_positive_bound(cubic) > 0
             and descartes_positive_bound(mirror) > 0)
    return _result(d, _nonneg_clause(cubic, disc), _nonneg_clause(mirror, disc),
                   mixed, disc)


def classify_dim2(d1: int) -> LowDimClassification:
    return _classify_threshold(2, d1)


def classify_dim3(d1: int) -> LowDimClassification:
    return _classify_threshold(3, d1)


def classify_dim4(d1: int, d2: int) -> LowDimClassification:
    return _classify_quadratic(4, d1, d2)


def classify_dim5(d1: int, d2: int) -> LowDimClassification:
    return _classify_quadratic(5, d1, d2)


def classify_dim6(d1: int, d2: int, d3: int) -> LowDimClassification:
    return _classify_cubic(6, d1, d2, d3)


def classify_dim7(d1: int, d2: int, d3: int) -> LowDimClassification:
    return _classify_cubic(7, d1, d2, d3)


def dim4_discriminant(d1: int, d2: int) -> Fraction:
    """Discriminant of the u-quadratic for dimension 4."""
    return _quadratic_discriminant(CLOSED_FORMS[4], d1, d2)


def dim6_cubic(d1: int, d2: int, d3: int) -> RatPoly:
    return _cubic(6, d1, d2, d3)


def dim7_cubic(d1: int, d2: int, d3: int) -> RatPoly:
    return _cubic(7, d1, d2, d3)


def cubic_roots_nonneg(cubic: RatPoly) -> bool:
    """Complete predicate for a cubic A u^3 + B u^2 + C u + D with A > 0:
    all roots real and >= 0 iff Disc >= 0, B <= 0, C >= 0, D <= 0."""
    if cubic.coefficient(3) <= 0:
        raise ValueError("leading coefficient must be positive")
    return _nonneg_clause(cubic, discriminant(cubic)) is not None


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


def classify(dv: DeltaVector) -> LowDimClassification:
    """Dispatch on dimension 2..7; requires a palindromic vector."""
    if not dv.palindromic:
        raise ValueError("classification requires a palindromic delta-vector")
    if dv.d not in CLOSED_FORMS:
        raise ValueError("closed-form classification covers dimensions 2..7 only")
    return _classifier(dv.d)(*dv.entries[1:dv.d // 2 + 1])


# ----------------------------------------------------------------------
# Geometry-level criteria (volume and point count), the d = 4 parabola
# ----------------------------------------------------------------------

def _geometry_classification(d: int, normalized_volume: int, points: int
                             ) -> LowDimClassification:
    if not isinstance(CLOSED_FORMS.get(d), _Quadratic):
        raise ValueError("geometry criteria cover dimensions 4 and 5 only")
    d1 = points - d - 1
    # the normalized volume is sum(delta) = 2 + 2 d1 + (d - 3) d2
    d2, odd = divmod(normalized_volume - 2 - 2 * d1, d - 3)
    if odd:
        raise ValueError("normalized volume must be even in dimension 5")
    if d1 < 1 or d2 < 1:
        raise ValueError(
            f"inconsistent geometry: volume {normalized_volume}, points {points}"
        )
    return _classifier(d)(d1, d2)


def cl_from_geometry(d: int, normalized_volume: int, points: int) -> bool:
    """CL decision from d! * vol and the point count (dimensions 4, 5)."""
    return _geometry_classification(d, normalized_volume, points).is_cl


def real_from_geometry(d: int, normalized_volume: int, points: int) -> bool:
    """Real decision from d! * vol and the point count (dimensions 4, 5)."""
    return _geometry_classification(d, normalized_volume, points).is_real


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
    form = CLOSED_FORMS.get(d)
    if isinstance(form, _Quadratic):
        cls = classify(dv)
        if real:
            out.append((f"real-volume-lower-{form.real_volume}",
                        vol >= form.real_volume))
        if cls.mixed:
            out.append((f"mixed-volume-lower-{form.mixed_volume}",
                        vol >= form.mixed_volume))
        if cls.discriminant_value < 0:
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
    if d not in CLOSED_FORMS:
        raise ValueError("regions cover dimensions 2..7 only")
    ranges = (r1, r2, r3)[:d // 2]
    if d // 2 == 2 and r2 is None:
        raise ValueError("dimension 4 or 5 needs a delta_2 range")
    if d // 2 == 3 and None in (r2, r3):
        raise ValueError("dimension 6 or 7 needs delta_2 and delta_3 ranges")
    classify_point = _classifier(d)
    for point in product(*ranges):
        yield point, classify_point(*point)


def delta_for_pair(d: int, d1: int, d2: int | None = None,
                   d3: int | None = None) -> DeltaVector:
    """Assemble the palindromic vector with the given free entries."""
    if d not in CLOSED_FORMS:
        raise ValueError("dimensions 2..7 only")
    half = [1, d1, d2, d3][:d // 2 + 1]
    return validate_delta(half + half[::-1][1 - d % 2:])
