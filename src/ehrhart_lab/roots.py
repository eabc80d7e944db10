"""Root location for counting polynomials.

Two layers coexist on purpose:

* a numerical layer (`find_roots`) — simultaneous Aberth iteration at
  double precision, polished by exact rational Newton steps whose
  iterates are capped at denominator 10^50; each step evaluates the
  polynomial and its derivative by integer Horner on the homogenized
  integer polynomial, and the radii are residual-based; and
* an exact layer — the substitutions z = -1/2 + beta*i and z = -1/2 + alpha
  turn the critical-line and real-root questions for a palindromic vector
  into sign questions about a real polynomial in u = beta^2 (resp. alpha^2),
  which Sturm counts decide exactly in any dimension.

Strip verdicts are exact too: an exact half-plane count on the
polynomial shifted to each bound.  The numerical roots only supply the
witnesses reported next to failing verdicts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .delta import DeltaVector, ehrhart_polynomial
from .exact import (
    NEG_INF,
    POS_INF,
    RatPoly,
    all_roots_real_nonneg,
    halfplane_counts,
    sturm_distinct_real_roots,
)

HOLDS_EXACT = "holds-exact"
FAILS_EXACT = "fails-exact"

HYPOTHESES = ("CL", "Real", "NCS", "CS", "HS", "S")


class NumericalFailure(RuntimeError):
    """The iterative solver did not converge; retry at higher precision."""


class RequiresReflexiveError(ValueError):
    """Operation needs a palindromic (reflexive) delta-vector."""


@dataclass(frozen=True)
class ComplexRoot:
    re: float
    im: float
    multiplicity: int
    error_radius: float


@dataclass(frozen=True)
class RootSet:
    roots: tuple[ComplexRoot, ...]
    degree: int


@dataclass(frozen=True)
class HypothesisVerdict:
    verdict: str
    witness: tuple[float, float] | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS_EXACT

    def to_json(self):
        w = None if self.witness is None else {"re": self.witness[0], "im": self.witness[1]}
        return {"verdict": self.verdict, "witness": w}


@dataclass(frozen=True)
class HypothesisReport:
    dimension: int
    verdicts: dict[str, HypothesisVerdict]

    def to_json(self):
        return {name: self.verdicts[name].to_json() for name in HYPOTHESES}


# ----------------------------------------------------------------------
# Numerical root finding
# ----------------------------------------------------------------------

_ABERTH_OFFSETS = (0.7390851332151607, 1.4142135623730951, 2.2360679774997896)
_ABERTH_MAX_ITER = 400
_POLISH_STEPS = 3
_POLISH_DENOM_CAP = 10 ** 50
_RADIUS_SAFETY = 10.0


def _float_coeffs(p: RatPoly) -> list[float]:
    scale = max(abs(c) for c in p.coeffs)
    return [float(c / scale) for c in p.coeffs]


def _initial_radius(cs: list[float]) -> float:
    """Root magnitude bound in the style of Fujiwara: the k-th roots keep
    the estimate overflow-safe even when coefficient ratios are huge."""
    n = len(cs) - 1
    lead = abs(cs[-1])
    best = 0.0
    for k in range(1, n + 1):
        a = abs(cs[n - k])
        if a:
            best = max(best, (a / lead) ** (1.0 / k))
    return 2.0 * best + 1.0


def _aberth_roots(p: RatPoly) -> list[complex]:
    n = p.degree
    cs = _float_coeffs(p)
    if n == 1:
        return [-cs[0] / cs[1]]
    dcs = [k * c for k, c in enumerate(cs)][1:]

    def ev(coeffs, z):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    def finite(z: complex) -> bool:
        return math.isfinite(z.real) and math.isfinite(z.imag)

    radius = _initial_radius(cs)
    # the attainable step size floors out somewhere between machine epsilon
    # and ~1e-6 depending on conditioning; anything at that level is ample
    # input for the integer Newton polish, whose error radii are computed
    # exactly afterwards in any case
    tol = 2e-14 * n
    for offset in _ABERTH_OFFSETS:
        zs = [
            radius * cmath.exp(1j * (2.0 * math.pi * k / n + offset))
            for k in range(n)
        ]
        best: list[complex] | None = None
        best_moved = math.inf
        for _ in range(_ABERTH_MAX_ITER):
            moved = 0.0
            for k in range(n):
                z = zs[k]
                pv = ev(cs, z)
                if pv == 0:
                    continue
                dv = ev(dcs, z)
                if not (finite(pv) and finite(dv)) or dv == 0:
                    # overflow or a stationary point: pull inward and retry
                    zs[k] = z * 0.5 + 1e-8 * (1 + 1j)
                    moved = math.inf
                    continue
                newton = pv / dv
                s = sum(1.0 / (z - zs[j]) for j in range(n) if j != k)
                denom = 1.0 - newton * s
                step = newton if denom == 0 else newton / denom
                if not finite(step):
                    zs[k] = z * 0.5 + 1e-8 * (1 - 1j)
                    moved = math.inf
                    continue
                zs[k] = z - step
                moved = max(moved, abs(step) / max(1.0, abs(zs[k])))
            if moved < best_moved and all(finite(z) for z in zs):
                best_moved = moved
                best = zs[:]
            if moved < tol and all(finite(z) for z in zs):
                return zs
        if best is not None and best_moved < 1e-6:
            return best  # stagnated at the conditioning floor; good enough
        # retry from a rotated starting circle
    raise NumericalFailure(f"Aberth iteration did not converge at degree {n}")


def _homogeneous_eval(cs: list[int], a: int, b: int, q: int) -> tuple[int, int]:
    """Real and imaginary parts of sum_k cs[k] (a + ib)^k q^(m - k), with
    m = len(cs) - 1, by integer Horner: q^m times the polynomial at
    z = (a + ib)/q."""
    ar, ai = cs[-1], 0
    qk = 1
    for c in reversed(cs[:-1]):
        qk *= q
        ar, ai = ar * a - ai * b + c * qk, ar * b + ai * a
    return ar, ai


def _limit_denominator(n: int, d: int, cap: int) -> Fraction:
    """Fraction(n, d).limit_denominator(cap) for d > 0, without reducing
    n/d first: the continued-fraction quotients of n/d are those of its
    reduced form (every remainder carries the same common factor), and an
    expansion that ends within the cap gives n/d itself."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    den = d
    while d:
        a = n // d
        q2 = q0 + a * q1
        if q2 > cap:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    else:
        return Fraction(p1, q1)
    k = (cap - q0) // q1
    # the input lies between p1/q1 and the semiconvergent (p0 + k p1) /
    # (q0 + k q1), which are 1/(q1 (q0 + k q1)) apart; its distance from
    # p1/q1 is d/(q1 den), d the last remainder.  Ties go to p1/q1.
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def _polish_root(den: int, P: list[int], z: complex, real_root: bool):
    """Newton-polish z as a root of p = P/den (P integral, degree n).

    The iterate is z = (a + ib)/q over one denominator; with the
    homogenized values H = q^n den p(z) and D = q^(n-1) den p'(z) the step
    is p(z)/p'(z) = H conj(D) / (|D|^2 q), the exact rational Newton step,
    after which each part is capped at denominator _POLISH_DENOM_CAP."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NumericalFailure("non-finite iterate reached the polishing stage")
    n = len(P) - 1
    dP = [k * c for k, c in enumerate(P)][1:]
    re = Fraction(z.real)
    im = Fraction(0) if real_root else Fraction(z.imag)

    def at_iterate():
        q = math.lcm(re.denominator, im.denominator)
        a = re.numerator * (q // re.denominator)
        b = im.numerator * (q // im.denominator)
        return a, b, q, _homogeneous_eval(P, a, b, q), _homogeneous_eval(dP, a, b, q)

    for _ in range(_POLISH_STEPS):
        a, b, q, (pr, pi), (dr, di) = at_iterate()
        dn = dr * dr + di * di
        if dn == 0:
            break
        # z - p(z)/p'(z) = ((a + ib) dn - (pr + i pi)(dr - i di)) / (dn q)
        nr, ni = a * dn - (pr * dr + pi * di), b * dn - (pi * dr - pr * di)
        re = _limit_denominator(nr, dn * q, _POLISH_DENOM_CAP)
        if not real_root:
            im = _limit_denominator(ni, dn * q, _POLISH_DENOM_CAP)
    _, _, q, (pr, pi), (dr, di) = at_iterate()
    # int / int is correctly rounded, so these are float(p(z)), float(p'(z))
    pscale, dscale = den * q ** n, den * q ** (n - 1)
    resid = math.hypot(pr / pscale, pi / pscale)
    dmag = math.hypot(dr / dscale, di / dscale)
    radius = _RADIUS_SAFETY * resid / dmag if dmag > 0 else math.inf
    return float(re), float(im), radius


def _solve_squarefree(factor: RatPoly) -> list[tuple[float, float, float]]:
    """Roots of a square-free rational polynomial as (re, im, radius)."""
    n = factor.degree
    if n == 1:
        r = -factor.coeffs[0] / factor.coeffs[1]
        return [(float(r), 0.0, 1e-15 * (1.0 + abs(float(r))))]
    approx = _aberth_roots(factor)
    n_real = sturm_distinct_real_roots(factor, NEG_INF, POS_INF)
    order = sorted(range(n), key=lambda k: abs(approx[k].imag))
    real_idx = set(order[:n_real])
    den, ints = factor.integer_form()
    polished = [
        _polish_root(den, ints, approx[k], real_root=(k in real_idx))
        for k in range(n)
    ]
    # enforce conjugate symmetry on the nonreal part
    out = [polished[k] for k in range(n) if k in real_idx]
    nonreal = [polished[k] for k in range(n) if k not in real_idx]
    upper = sorted((r for r in nonreal if r[1] > 0), key=lambda r: (r[0], r[1]))
    lower = sorted((r for r in nonreal if r[1] <= 0), key=lambda r: (r[0], -r[1]))
    for up, lo in zip(upper, lower):
        re = 0.5 * (up[0] + lo[0])
        im = 0.5 * (up[1] - lo[1])
        rad = max(up[2], lo[2]) + abs(up[0] - lo[0]) + abs(up[1] + lo[1])
        out.append((re, im, rad))
        out.append((re, -im, rad))
    return out


@lru_cache(maxsize=512)
def find_roots(p: RatPoly) -> RootSet:
    """All complex roots of p with multiplicities and error radii.

    Multiplicities come from an exact square-free decomposition, so each
    numerical solve only ever sees simple roots; the number of real roots
    per factor is fixed by an exact Sturm count before any snapping to the
    real axis.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    roots: list[ComplexRoot] = []
    for factor, mult in p.squarefree_decomposition():
        for re, im, rad in _solve_squarefree(factor):
            roots.append(ComplexRoot(re, im, mult, rad))
    roots.sort(key=lambda r: (r.re, r.im))
    rs = RootSet(tuple(roots), p.degree)
    assert sum(r.multiplicity for r in rs.roots) == p.degree
    return rs


def root_sum_is_reflexive(p: RatPoly, d: int) -> bool:
    """Exact test that the roots sum to -d/2, i.e. coefficient ratio
    c_{d-1} / c_d equals d/2."""
    if p.degree != d:
        raise ValueError("degree mismatch")
    if d == 0:
        raise ValueError("need degree >= 1")
    return p.coefficient(d - 1) / p.coefficient(d) == Fraction(d, 2)


# ----------------------------------------------------------------------
# Exact transforms for palindromic vectors
# ----------------------------------------------------------------------

def _symmetric_half(poly: RatPoly, d: int) -> RatPoly:
    """Coefficients e_k with L(w - 1/2) = sum_k e_k w^(2k + parity), from
    the counting polynomial L of a palindromic vector of dimension d; the
    off-parity part must vanish."""
    shifted = poly.shift(Fraction(-1, 2))
    parity = d % 2
    for k, c in enumerate(shifted.coeffs):
        if k % 2 != parity and c != 0:
            raise AssertionError("symmetry failure on palindromic input")
    return RatPoly(shifted.coeffs[parity::2])


def _half_of(dv: DeltaVector) -> RatPoly:
    if not dv.palindromic:
        raise RequiresReflexiveError("requires a palindromic delta-vector")
    return _symmetric_half(ehrhart_polynomial(dv), dv.d)


def critical_line_polynomial(dv: DeltaVector) -> RatPoly:
    """Integer polynomial F with: roots of L on the line Re z = -1/2
    correspond exactly to real roots u >= 0 of F (u = beta^2 where
    z = -1/2 + beta*i).  For odd d the forced root at -1/2 is removed.
    Normalized primitive with positive leading coefficient."""
    return _half_of(dv).reflect().primitive()


def real_axis_polynomial(dv: DeltaVector) -> RatPoly:
    """Integer polynomial G with: real roots of L correspond exactly to
    real roots u >= 0 of G (u = alpha^2 where z = -1/2 + alpha); the forced
    odd-dimension root at -1/2 is removed.  Same normalization as the
    critical-line polynomial."""
    return _half_of(dv).primitive()


def is_cl_exact(dv: DeltaVector) -> bool:
    """Exact decision: all roots of the counting polynomial on Re z = -1/2."""
    return all_roots_real_nonneg(critical_line_polynomial(dv))


def is_real_exact(dv: DeltaVector) -> bool:
    """Exact decision: all roots of the counting polynomial real."""
    return all_roots_real_nonneg(real_axis_polynomial(dv))


# ----------------------------------------------------------------------
# Strip verdicts
# ----------------------------------------------------------------------

def strip_verdict(
    p: RatPoly, lower, upper, strict: bool = False
) -> HypothesisVerdict:
    """Decide whether every root z of p satisfies lower <= Re z <= upper
    (strict inequalities when strict=True).

    Exact for every input: one half-plane count on p(z + upper) and one on
    p(lower - z) give the roots beyond each bound and the roots on it.  A
    failing verdict carries the numerical root farthest outside the strip
    as its witness, or the bound itself when a real root sits on it and
    the strip is open.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    lo = Fraction(lower)
    hi = Fraction(upper)
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
        FAILS_EXACT, _witness(p, lambda r: max(r.re - fhi, flo - r.re))
    )


# ----------------------------------------------------------------------
# The hypothesis hierarchy
# ----------------------------------------------------------------------

def hypothesis_report(dv: DeltaVector) -> HypothesisReport:
    """Verdicts for CL, Real, NCS, CS, HS, S on a palindromic vector.

    CL and Real are decided exactly through the u-substitution; the strip
    hypotheses use exact rational bounds (CS strict, the others closed)."""
    if not dv.palindromic:
        raise RequiresReflexiveError("requires a palindromic delta-vector")
    d = dv.d
    poly = ehrhart_polynomial(dv)
    half = _symmetric_half(poly, d)
    verdicts: dict[str, HypothesisVerdict] = {}

    cl = all_roots_real_nonneg(half.reflect().primitive())
    verdicts["CL"] = HypothesisVerdict(
        HOLDS_EXACT if cl else FAILS_EXACT,
        None if cl else _witness(poly, lambda r: abs(r.re + 0.5)),
    )
    real = all_roots_real_nonneg(half.primitive())
    verdicts["Real"] = HypothesisVerdict(
        HOLDS_EXACT if real else FAILS_EXACT,
        None if real else _witness(poly, lambda r: abs(r.im)),
    )
    verdicts["NCS"] = strip_verdict(
        poly, Fraction(-d, d + 1), Fraction(-1, d + 1), strict=False
    )
    verdicts["CS"] = strip_verdict(poly, -1, 0, strict=True)
    verdicts["HS"] = strip_verdict(
        poly, Fraction(-d, 2), Fraction(d, 2) - 1, strict=False
    )
    verdicts["S"] = strip_verdict(poly, -d, d - 1, strict=False)
    return HypothesisReport(dimension=d, verdicts=verdicts)


def _witness(poly: RatPoly, key) -> tuple[float, float] | None:
    """The numerical root of poly with the largest key, as (re, im); None
    when the root finder does not converge."""
    try:
        rs = find_roots(poly)
    except NumericalFailure:
        return None
    worst = max(rs.roots, key=key)
    return (worst.re, worst.im)


def braun_disc_check(p: RatPoly, d: int) -> bool:
    """All numerical roots lie in the disc centred at -1/2 with radius
    d(d - 1/2), up to error radii."""
    if d < 1 or p.degree < 1:
        raise ValueError("need degree >= 1")
    radius = d * (d - 0.5)
    rs = find_roots(p)
    return all(
        math.hypot(r.re + 0.5, r.im) <= radius + r.error_radius for r in rs.roots
    )


def real_root_window_check(dv: DeltaVector) -> bool:
    """Exact check that every real root of the counting polynomial lies in
    the open interval (-floor(d/2), floor(d/2) - 1).

    Stated for palindromic vectors with all interior entries positive; the
    window is checked on the counting polynomial itself (equivalently, on
    its symmetric shift against the half-integer window)."""
    if not dv.palindromic:
        raise RequiresReflexiveError("requires a palindromic delta-vector")
    if any(v < 1 for v in dv.entries):
        raise ValueError("requires all entries >= 1")
    d = dv.d
    poly = ehrhart_polynomial(dv)
    lo = Fraction(-(d // 2))
    hi = Fraction(d // 2 - 1)
    if poly(hi) == 0:
        return False
    left = sturm_distinct_real_roots(poly, NEG_INF, lo)
    right = sturm_distinct_real_roots(poly, hi, POS_INF)
    return left == 0 and right == 0
