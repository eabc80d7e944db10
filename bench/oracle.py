"""Reference answers that do not come from the code being timed.

Root-location verdicts are recomputed from the delta-vector alone: the
counting polynomial is rebuilt with sympy and its roots are found with
mpmath at high precision.  A root closer to a bound than the oracle can
resolve makes that hypothesis unchecked rather than failed.
"""

from __future__ import annotations

import mpmath
import sympy

HOLDS, FAILS, UNCHECKED = "holds", "fails", "unchecked"

_DPS = 40
_ON = mpmath.mpf(10) ** -20   # closer than this: the root sits on the bound
_OFF = mpmath.mpf(10) ** -8   # farther than this: clearly on one side

_M = sympy.Symbol("m")


def counting_polynomial(entries) -> list[int]:
    """Integer coefficients of d! * L(m), highest degree first, where
    L(m) = sum_j delta_j * binomial(m + d - j, d)."""
    d = len(entries) - 1
    total = [0] * (d + 1)
    for j, delta_j in enumerate(entries):
        if not delta_j:
            continue
        prod = [1]  # lowest degree first
        for i in range(d):
            root = d - j - i  # factor (m + root)
            prod = [a * root + b for a, b in zip(prod + [0], [0] + prod)]
        for k, c in enumerate(prod):
            total[k] += delta_j * c
    return total[::-1]


def roots(entries) -> list:
    """Distinct complex roots; each square-free factor (sympy) is solved
    separately so that repeated roots do not stall the iteration."""
    poly = sympy.Poly(counting_polynomial(entries), _M)
    found = []
    with mpmath.workdps(_DPS):
        for factor, _ in poly.sqf_list()[1]:
            coeffs = [int(c) for c in factor.all_coeffs()]
            if len(coeffs) == 2:
                found.append(mpmath.mpc(mpmath.mpf(-coeffs[1]) / coeffs[0]))
            else:
                found.extend(mpmath.polyroots(coeffs, maxsteps=200,
                                              extraprec=2 * _DPS))
    return [mpmath.mpc(z) for z in found]


def _side(gap) -> int | None:
    """-1 / +1 when the signed gap is clearly negative / positive, 0 when
    the root is on the bound, None when the oracle cannot tell."""
    if abs(gap) < _ON:
        return 0
    if abs(gap) > _OFF:
        return 1 if gap > 0 else -1
    return None


def _all_on(gaps) -> str:
    sides = [_side(g) for g in gaps]
    if any(s in (1, -1) for s in sides):
        return FAILS
    return UNCHECKED if None in sides else HOLDS


def _within(res, lo, hi, strict: bool) -> str:
    verdict = HOLDS
    for x in res:
        below, above = _side(x - lo), _side(x - hi)
        if below == -1 or above == 1 or (strict and 0 in (below, above)):
            return FAILS
        if below is None or above is None or (not strict and 0 in (below, above)):
            # on a closed bound the hypothesis holds, but only just: a root
            # this close cannot be told apart from one slightly outside
            verdict = UNCHECKED
    return verdict


def hypothesis_verdicts(entries) -> dict[str, str]:
    """holds / fails / unchecked for CL, Real, NCS, CS, HS and S."""
    d = len(entries) - 1
    zs = roots(entries)
    with mpmath.workdps(_DPS):
        res = [z.real for z in zs]
        half = mpmath.mpf(1) / 2
        return {
            "CL": _all_on([x + half for x in res]),
            "Real": _all_on([z.imag for z in zs]),
            "NCS": _within(res, mpmath.mpf(-d) / (d + 1), mpmath.mpf(-1) / (d + 1), False),
            "CS": _within(res, -1, 0, True),
            "HS": _within(res, mpmath.mpf(-d) / 2, mpmath.mpf(d) / 2 - 1, False),
            "S": _within(res, -d, d - 1, False),
        }


def normalized_volume(vertices) -> int:
    """|det| of the (d+1) x (d+1) matrix with rows (1, v)."""
    return abs(int(sympy.Matrix([[1, *v] for v in vertices]).det()))
