"""Root location for counting polynomials.

Two layers coexist on purpose:

* a numerical layer (`find_roots`) — simultaneous Aberth iteration at
  double precision, polished by Newton steps on the dyadic grid
  2^-192 (`_POLISH_BITS`); each step evaluates the polynomial and its
  derivative by integer Horner on the homogenized integer polynomial and
  rounds the step to the grid with one integer division per part, and
  the radii are residual-based; a polynomial symmetric about Re z = -1/2,
  as every palindromic vector's is, is solved at half degree through
  p(w - 1/2) = w^parity E(w^2) and z = -1/2 +- sqrt(u) for the roots u of E;
  and
* an exact layer — the substitutions z = -1/2 + beta*i and z = -1/2 + alpha
  turn the critical-line and real-root questions for a palindromic vector
  into sign questions about a real polynomial in u = beta^2 (resp. alpha^2),
  which Sturm counts decide exactly in any dimension.

Strip verdicts are exact too: an exact half-plane count on the
polynomial shifted to each bound (one count per strip for a palindromic
vector, whose nested strips need two or three decisions).  The numerical
roots only supply the witnesses reported next to failing verdicts.
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
    _derivative,
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
_POLISH_BITS = 192
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


def _round_div(n: int, d: int) -> int:
    """n/d rounded to the nearest integer, halves up, for d > 0."""
    return (2 * n + d) // (2 * d)


def _newton_on_grid(P: list[int], z: complex, real_root: bool) -> tuple[int, int]:
    """Newton-polish z as a root of the integer polynomial P (degree n).

    The iterate lives on the dyadic grid z = (a + ib)/q, q = 2^_POLISH_BITS,
    and starts at the grid point nearest the double z.  With the
    homogenized values H = q^n P(z) and D = q^(n-1) P'(z) the Newton step
    P(z)/P'(z) is H conj(D) / (|D|^2 q), which is H conj(D) / |D|^2 grid
    units: each part of the step is one rounded integer division.  Returns
    the final (a, b)."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NumericalFailure("non-finite iterate reached the polishing stage")
    dP = _derivative(P)
    q = 1 << _POLISH_BITS

    def to_grid(x: float) -> int:
        num, dyadic_den = x.as_integer_ratio()
        return _round_div(num << _POLISH_BITS, dyadic_den)

    a = to_grid(z.real)
    b = 0 if real_root else to_grid(z.imag)
    # with b = 0 and real P, pi = di = 0: a real iterate stays real
    for _ in range(_POLISH_STEPS):
        pr, pi = _homogeneous_eval(P, a, b, q)
        dr, di = _homogeneous_eval(dP, a, b, q)
        dn = dr * dr + di * di
        if dn == 0:
            break
        a -= _round_div(pr * dr + pi * di, dn)
        b -= _round_div(pi * dr - pr * di, dn)
    return a, b


def _residual_radius(value_sq: int, slope_sq: int) -> float:
    """10 sqrt(value_sq / slope_sq) / 2^_POLISH_BITS; the square roots, of
    integers widened by 2^128, keep 64 bits and never leave float range."""
    if not slope_sq:
        return math.inf
    return _RADIUS_SAFETY * (
        math.isqrt(value_sq << 128) / (math.isqrt(slope_sq << 128) << _POLISH_BITS))


def _polish_root(P: list[int], z: complex, real_root: bool):
    """`_newton_on_grid` as the correctly rounded floats a/q and b/q, with
    the radius 10 |P(z)|/|P'(z)| = 10 |H| / (|D| q) at the final iterate."""
    a, b = _newton_on_grid(P, z, real_root)
    q = 1 << _POLISH_BITS
    pr, pi = _homogeneous_eval(P, a, b, q)
    dr, di = _homogeneous_eval(_derivative(P), a, b, q)
    return a / q, b / q, _residual_radius(pr * pr + pi * pi, dr * dr + di * di)


def _upper_roots(f: RatPoly) -> list[tuple[complex, bool]]:
    """Aberth approximations, flagged real or not, of the real roots of a
    square-free f of degree >= 2 and of the upper root of each conjugate
    pair; an exact Sturm count fixes how many are real."""
    approx = sorted(_aberth_roots(f), key=lambda z: abs(z.imag))
    n_real = sturm_distinct_real_roots(f, NEG_INF, POS_INF)
    upper = sorted(approx[n_real:], key=lambda z: -z.imag)
    return ([(z, True) for z in approx[:n_real]]
            + [(z, False) for z in upper[:len(upper) // 2]])


def _solve_squarefree(factor: RatPoly) -> list[tuple[float, float, float]]:
    """Roots of a square-free rational polynomial as (re, im, radius); each
    conjugate pair is the polished upper root and its mirror image."""
    if factor.degree == 1:
        r = -factor.coeffs[0] / factor.coeffs[1]
        return [(float(r), 0.0, 1e-15 * (1.0 + abs(float(r))))]
    ints = factor.integer_form()[1]
    out = []
    for z, real in _upper_roots(factor):
        re, im, rad = _polish_root(ints, z, real)
        out += [(re, im, rad)] if real else [(re, im, rad), (re, -im, rad)]
    return out


def _grid_sqrt(a: int, b: int) -> tuple[int, int]:
    """(c, d), c >= 0, with (c + id)^2 = q (a + ib) = A + iB, q = 2^_POLISH_BITS:
    the larger part sqrt((|A + iB| + |A|)/2), real for A >= 0, has no
    cancellation, and the smaller part is B/2 over it."""
    A, B = a << _POLISH_BITS, b << _POLISH_BITS
    # round(sqrt(x)) = (isqrt(4x) + 1) // 2, here with x = (|A + iB| + |A|)/2
    big = (math.isqrt(2 * (math.isqrt(A * A + B * B) + abs(A))) + 1) >> 1
    small = _round_div(abs(B), 2 * big) if big else 0
    sign = 1 if B >= 0 else -1
    return (big, sign * small) if A >= 0 else (small, sign * big)


def _mirror_roots(half: RatPoly, parity: int) -> list[ComplexRoot]:
    """Roots of p from E = half, p(w - 1/2) = w^parity E(w^2).  A factor
    u^m of E puts 2m + parity roots at -1/2.  Each real root u, and the
    upper root of each conjugate pair, of a square-free factor f of the
    rest gives the roots -1/2 +- sqrt(u) (and conjugates) of
    g(z) = f((z + 1/2)^2), with radius 10 |g(z)|/|g'(z)| on the grid."""
    q = 1 << _POLISH_BITS
    m = next(k for k, c in enumerate(half.coeffs) if c)
    centre = parity + 2 * m  # an exact root: radius 1e-15 (1 + |r|)
    out = [ComplexRoot(-0.5, 0.0, centre, 1e-15 * (1.0 + 0.5))] if centre else []
    for f, mult in RatPoly(half.coeffs[m:]).squarefree_decomposition():
        F = f.integer_form()[1]
        if f.degree == 1:
            grid = [(_round_div(-F[0] << _POLISH_BITS, F[1]), 0)]
        else:
            grid = [_newton_on_grid(F, z, real) for z, real in _upper_roots(f)]
        for a, b in grid:
            c, d = _grid_sqrt(a, b)
            vr, vi = c * c - d * d, 2 * c * d  # q^2 w^2
            hr, hi = _homogeneous_eval(F, vr, vi, q * q)
            sr, si = _homogeneous_eval(_derivative(F), vr, vi, q * q)
            radius = _residual_radius(
                hr * hr + hi * hi, 4 * (sr * sr + si * si) * (c * c + d * d))
            out += [ComplexRoot((x - (q >> 1)) / q, y / q, mult, radius)
                    for x in {c, -c} for y in {d, -d}]
    return out


@lru_cache(maxsize=512)
def find_roots(p: RatPoly) -> RootSet:
    """All complex roots of p with multiplicities and error radii.

    Multiplicities come from an exact square-free decomposition, so each
    numerical solve only ever sees simple roots; the number of real roots
    per factor is fixed by an exact Sturm count before any snapping to the
    real axis.  When p is symmetric about Re z = -1/2, as the counting
    polynomial of every palindromic vector is, the solve runs on the half
    polynomial E in u = (z + 1/2)^2, of half the degree.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    half = _symmetric_half(p)
    if half is not None:
        roots = _mirror_roots(half, p.degree % 2)
    else:
        roots = [
            ComplexRoot(re, im, mult, rad)
            for factor, mult in p.squarefree_decomposition()
            for re, im, rad in _solve_squarefree(factor)
        ]
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

def _symmetric_half(poly: RatPoly) -> RatPoly | None:
    """Coefficients e_k with poly(w - 1/2) = sum_k e_k w^(2k + parity),
    parity = deg poly mod 2, or None when poly is not symmetric about
    Re z = -1/2.  Every palindromic vector's counting polynomial is."""
    shifted = poly.shift(Fraction(-1, 2))
    parity = poly.degree % 2
    if any(c for c in shifted.coeffs[1 - parity::2]):
        return None
    return RatPoly(shifted.coeffs[parity::2])


def _half_of(dv: DeltaVector) -> tuple[RatPoly, RatPoly]:
    """(L, E) of a palindromic vector: L and its half polynomial."""
    if not dv.palindromic:
        raise RequiresReflexiveError("requires a palindromic delta-vector")
    poly = ehrhart_polynomial(dv)
    half = _symmetric_half(poly)
    assert half is not None, "symmetry failure on palindromic input"
    return poly, half


def critical_line_polynomial(dv: DeltaVector) -> RatPoly:
    """Integer polynomial F with: roots of L on the line Re z = -1/2
    correspond exactly to real roots u >= 0 of F (u = beta^2 where
    z = -1/2 + beta*i).  For odd d the forced root at -1/2 is removed.
    Normalized primitive with positive leading coefficient."""
    return _half_of(dv)[1].reflect().primitive()


def real_axis_polynomial(dv: DeltaVector) -> RatPoly:
    """Integer polynomial G with: real roots of L correspond exactly to
    real roots u >= 0 of G (u = alpha^2 where z = -1/2 + alpha); the forced
    odd-dimension root at -1/2 is removed.  Same normalization as the
    critical-line polynomial."""
    return _half_of(dv)[1].primitive()


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
    p(lower - z) give the roots beyond each bound and the roots on it.  The
    second is skipped when the first fails, or when it would repeat it:
    p(lower - z) = +-p(upper + z), as for palindromic vectors' polynomials
    on strips centred at -1/2.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    lo, hi = Fraction(lower), Fraction(upper)
    shifted = p.shift(hi)
    right, on_hi = halfplane_counts(shifted)
    holds = not (right or (strict and on_hi))
    if holds:
        mirror = p.compose_linear(-1, lo)
        if mirror != shifted and mirror != -shifted:
            left, on_lo = halfplane_counts(mirror)
            holds = not (left or (strict and on_lo))
    return HypothesisVerdict(HOLDS_EXACT) if holds else _failing_strip(p, lo, hi, strict)


def _failing_strip(p: RatPoly, lo, hi, strict: bool) -> HypothesisVerdict:
    """A failing strip's verdict.  Its witness is the bound itself when a
    real root sits on it and the strip is open, else the numerical root
    farthest outside the strip."""
    for bound in (hi, lo) if strict else ():
        if p(bound) == 0:
            return HypothesisVerdict(FAILS_EXACT, (float(bound), 0.0))
    flo, fhi = float(lo), float(hi)
    return HypothesisVerdict(
        FAILS_EXACT, _witness(p, lambda r: max(r.re - fhi, flo - r.re)))


# ----------------------------------------------------------------------
# The hypothesis hierarchy
# ----------------------------------------------------------------------

def hypothesis_report(dv: DeltaVector) -> HypothesisReport:
    """Verdicts for CL, Real, NCS, CS, HS, S on a palindromic vector.

    CL and Real are decided exactly through the u-substitution; the strip
    hypotheses use exact rational bounds (CS strict, the others closed).
    For d >= 2 the strips are nested, NCS in CS in HS in S: deciding CS,
    then NCS or HS (and S after HS fails) settles all four."""
    poly, half = _half_of(dv)
    d = dv.d
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
    strips = {
        "NCS": (Fraction(-d, d + 1), Fraction(-1, d + 1), False),
        "CS": (Fraction(-1), Fraction(0), True),
        "HS": (Fraction(-d, 2), Fraction(d, 2) - 1, False),
        "S": (Fraction(-d), Fraction(d - 1), False),
    }
    decided: dict[str, HypothesisVerdict] = {}

    def holds(name: str) -> bool:
        decided[name] = strip_verdict(poly, *strips[name])
        return decided[name].holds

    if d == 1:  # the one vector (1, 1), whose strips are not nested
        for name in strips:
            holds(name)
    elif holds("CS"):
        holds("NCS")
    elif not holds("HS"):
        holds("S")
    first = min((k for k, name in enumerate(strips)
                 if name in decided and decided[name].holds), default=len(strips))
    for k, (name, bounds) in enumerate(strips.items()):
        verdicts[name] = decided.get(name) or (
            HypothesisVerdict(HOLDS_EXACT) if k > first else _failing_strip(poly, *bounds))
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
