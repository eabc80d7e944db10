"""Exact arithmetic kernel: rational polynomials, sign-based real-root
counting, and integer matrix normal forms.

Nothing in this module touches floating point.  Every decision made
elsewhere in the package that matters for a classification (CL / real /
strip verdicts, lattice indices, box points) bottoms out in the routines
here.  `RatPoly` (over `fractions.Fraction`) is the type at the API
boundary; underneath, Sturm counts, gcds, square-free decompositions and
the half-plane counter share one integer remainder chain on primitive
integer polynomials; resultants, and discriminants above the cubic, are
Bareiss determinants of integer Sylvester matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

RatLike = Union[int, Fraction]

NEG_INF = float("-inf")
POS_INF = float("inf")


class SingularMatrixError(ValueError):
    """Raised when an exact linear solve meets a singular matrix."""


def _as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# ----------------------------------------------------------------------
# Dense rational polynomials
# ----------------------------------------------------------------------

class RatPoly:
    """Dense univariate polynomial over Q, constant coefficient first.

    Immutable; trailing zero coefficients are stripped on construction.
    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RatPoly is immutable")

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "RatPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"{c}*z^{k}" if k else f"{c}")
        return "RatPoly(" + " + ".join(terms) + ")"

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RatPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative power")
        result = RatPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        den = other.coeffs
        lead = den[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(den) - 1] / lead
            quo[k] = c
            if c:
                for j, dcoef in enumerate(den):
                    rem[k + j] -= c * dcoef
        return RatPoly(quo), RatPoly(rem)

    def __floordiv__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "RatPoly") -> "RatPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- calculus and evaluation ------------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction, approximate for
        float/complex arguments."""
        acc = 0 if not isinstance(x, (float, complex)) else type(x)(0)
        for c in reversed(self.coeffs):
            if isinstance(x, (float, complex)):
                acc = acc * x + float(c)
            else:
                acc = acc * x + c
        return acc

    def compose_linear(self, a: RatLike, b: RatLike) -> "RatPoly":
        """Return p(a*z + b) by an integer Taylor shift.

        With P = den*p integral, a = s/t and b = u/v, w = t*v:
        p(a*z + b) = sum_k P_k (s*v*z + u*t)^k w^(n-k) / (den * w^n).
        The sum is an O(n^2) Horner scheme on Python integers (as in von
        zur Gathen and Gerhard, ISSAC 1997); the one division by
        den * w^n happens at the end.
        """
        if self.is_zero:
            return self
        a, b = _as_fraction(a), _as_fraction(b)
        den, ints = self.integer_form()
        w = a.denominator * b.denominator
        c0 = b.numerator * a.denominator
        c1 = a.numerator * b.denominator
        acc = [ints[-1]]
        wk = 1
        for c in reversed(ints[:-1]):
            wk *= w
            # acc <- acc * (c1*z + c0) + c * w^(n-k)
            acc = [c0 * x + c1 * y for x, y in zip(acc + [0], [0] + acc)]
            acc[0] += c * wk
        scale = den * wk
        return RatPoly([Fraction(x, scale) for x in acc])

    def shift(self, c: RatLike) -> "RatPoly":
        """Taylor shift: return p(z + c)."""
        return self.compose_linear(1, c)

    def reflect(self) -> "RatPoly":
        """Return p(-z)."""
        return RatPoly([(-1) ** k * c for k, c in enumerate(self.coeffs)])

    # -- gcd / square-free machinery ---------------------------------------

    def monic(self) -> "RatPoly":
        if self.is_zero:
            return self
        return self * (1 / self.leading)

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd, the last element of the integer remainder chain."""
        g = _int_chain(self.integer_form()[1], other.integer_form()[1])[-1]
        return RatPoly(g).monic()

    def squarefree_part(self) -> "RatPoly":
        if self.degree <= 0:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return self.exact_div(g)

    def squarefree_decomposition(self) -> list[tuple["RatPoly", int]]:
        """Yun's algorithm: return [(f_i, i)] with the f_i monic,
        square-free, pairwise coprime, and prod f_i^i = self up to a
        scalar.  Run on integer polynomials: b and c are always divided
        by the same gcd, so c - b' keeps its meaning."""
        if self.degree <= 0:
            return []
        out: list[tuple[RatPoly, int]] = []
        f = _primitive(self.integer_form()[1])
        df = _derivative(f)
        a0 = _int_chain(f, df)[-1]
        b, c = _int_exact_div(f, a0), _int_exact_div(df, a0)
        i = 1
        while len(b) > 1:
            d = _trim([x - y for x, y in zip(c + [0] * len(b), _derivative(b))])
            ai = _int_chain(b, d)[-1]
            if len(ai) > 1:
                out.append((RatPoly(ai).monic(), i))
                b, c = _int_exact_div(b, ai), _int_exact_div(d, ai)
            else:
                c = d
            i += 1
        return out

    def integer_form(self) -> tuple[int, list[int]]:
        """(den, P): den the lcm of the coefficient denominators and P the
        integer coefficients of den * p."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return den, [c.numerator * (den // c.denominator) for c in self.coeffs]

    def content_and_primitive(self) -> tuple[Fraction, "RatPoly"]:
        """Write p = content * primitive with primitive having coprime
        integer coefficients and positive leading coefficient."""
        if self.is_zero:
            return Fraction(0), self
        den, ints = self.integer_form()
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        prim = RatPoly([v // g for v in ints])
        return Fraction(g, den), prim

    def primitive(self) -> "RatPoly":
        return self.content_and_primitive()[1]


def binomial_poly(offset: int, d: int) -> RatPoly:
    """The degree-d polynomial binom(z + offset, d) in z.

    At integer arguments this agrees with the usual binomial coefficient,
    e.g. binomial_poly(0, 3)(5) == comb(5, 3).
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    p = RatPoly([1])
    for j in range(d):
        p = p * RatPoly([Fraction(offset - j), Fraction(1)])
    return p * Fraction(1, math.factorial(d))


@lru_cache(maxsize=None)
def _eulerian_row(d: int) -> tuple[int, ...]:
    if d == 1:
        return (1,)
    prev = _eulerian_row(d - 1)
    row = []
    for j in range(d):
        left = (j + 1) * prev[j] if j < d - 1 else 0
        right = (d - j) * prev[j - 1] if j >= 1 else 0
        row.append(left + right)
    return tuple(row)


def eulerian(d: int, j: int) -> int:
    """Eulerian number A(d, j): permutations of {1..d} with j descents.

    Out-of-range j gives 0 so the number can be used freely in sums.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if j < 0 or j > d - 1:
        return 0
    return _eulerian_row(d)[j]


# ----------------------------------------------------------------------
# Sign-based real root counting
# ----------------------------------------------------------------------

def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sign_changes(values: Sequence) -> int:
    """Sign changes of a sequence of numbers (or signs), zeros skipped."""
    nz = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _signs_at(chain: Sequence[Sequence[int]], x) -> list[int]:
    """Signs of integer polynomials at x (+-inf, int or Fraction); at
    x = a/b, the sign of b^n f(a/b) by integer homogeneous Horner."""
    if x == POS_INF or x == NEG_INF:
        flip = -1 if x == NEG_INF else 1
        return [_sign(f[-1]) * flip ** (len(f) - 1) for f in chain]
    x = _as_fraction(x)
    a, b = x.numerator, x.denominator
    signs = []
    for f in chain:
        acc, bk = f[-1], 1
        for c in reversed(f[:-1]):
            bk *= b
            acc = acc * a + c * bk
        signs.append(_sign(acc))
    return signs


def _variations(chain: Sequence[Sequence[int]], lo=NEG_INF, hi=POS_INF) -> int:
    """Sign variations of the chain at lo minus those at hi."""
    return sign_changes(_signs_at(chain, lo)) - sign_changes(_signs_at(chain, hi))


def _primitive(f: list[int]) -> list[int]:
    """f over its positive content, so every sign is kept."""
    g = math.gcd(*f)
    return [c // g for c in f] if g > 1 else f


def _derivative(f: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(f)][1:]


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _neg_prem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive positive multiple of -rem(f, g): each pseudo-division
    step scales by |lc(g)| / gcd(top, lc(g)) > 0 only."""
    r = list(f)
    n = len(g) - 1
    alc, slc = abs(g[-1]), _sign(g[-1])
    for k in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        if c:
            h = math.gcd(c, alc)
            if h != alc:
                r = [alc // h * x for x in r]
            t = slc * (c // h)
            for j in range(n):
                r[k - n + j] -= t * g[j]
    return _primitive([-x for x in _trim(r)])


def _int_chain(f0: list[int], f1: list[int]) -> list[list[int]]:
    """Primitive remainder chain (Collins, JACM 14, 1967).  Each element
    is a positive multiple of the one of the Euclidean chain f0, f1,
    -rem(f0, f1), ..., so sign variations and Cauchy indices are those of
    that chain; the last element is a primitive gcd(f0, f1)."""
    chain = [_primitive(f0), _primitive(f1)] if f1 else [_primitive(f0)]
    while len(chain) > 1 and len(chain[-1]) > 1:
        r = _neg_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _int_exact_div(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g for a primitive g dividing f: integral by Gauss's lemma."""
    r = list(f)
    n = len(g) - 1
    q = [0] * (len(r) - n)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(r[k + n], g[-1])
        if rem:
            raise ValueError("division is not exact")
        for j in range(n):
            r[k + j] -= q[k] * g[j]
    return q


def _sturm_chain(f: list[int]) -> tuple[list[list[int]], list[int]]:
    """(Sturm chain of s = f / g, g = gcd(f, f')) for deg f >= 1: the
    chain of (f, f') over g, whose second element has the sign of s' at
    every root of s."""
    chain = _int_chain(f, _derivative(f))
    g = chain[-1]
    if len(g) > 1:
        chain = [_int_exact_div(h, g) for h in chain]
    return chain, g


def sturm_distinct_real_roots(p: RatPoly, lo=NEG_INF, hi=POS_INF) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Endpoints may be Fractions, ints, or +/-math.inf.  The count is taken
    on the square-free part of p, so multiplicities are ignored.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if not _endpoint_lt(lo, hi):
        raise ValueError("need lo < hi")
    if p.degree == 0:
        return 0
    return _variations(_sturm_chain(p.integer_form()[1])[0], lo, hi)


def _endpoint_lt(lo, hi) -> bool:
    lo_inf = lo == NEG_INF
    hi_inf = hi == POS_INF
    if lo_inf or hi_inf:
        return not (lo == hi)
    return _as_fraction(lo) < _as_fraction(hi)


def descartes_positive_bound(p: RatPoly) -> int:
    """Descartes bound on the number of positive real roots (sign changes
    of the coefficient sequence)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    return sign_changes(p.coeffs)


def all_roots_real_nonneg(p: RatPoly) -> bool:
    """True iff every complex root of p is real and >= 0.

    Decided exactly: the square-free part must have as many distinct real
    roots in [0, oo) as its degree.  A Descartes check on p(-z) guards the
    positive answer.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return True
    f = p.integer_form()[1]
    chain, g = _sturm_chain(f)
    count = _variations(chain, 0) + (f[0] == 0)
    ok = count == len(f) - len(g)  # the degree of the square-free part
    if ok and descartes_positive_bound(p.reflect()) != 0:
        raise AssertionError("Sturm and Descartes disagree; exact kernel bug")
    return ok


def halfplane_counts(p: RatPoly) -> tuple[int, int]:
    """(roots with Re z > 0, roots with Re z = 0) of p, with multiplicity.

    Exact for every input.  Write p(iy) = A(y) + i B(y) with A, B real.
    Roots on the imaginary axis are the real roots of gcd(A, B); the
    Cauchy index of the lower-degree part over the higher-degree one,
    read off their remainder chain, splits the rest between the two
    half-planes (Gantmacher, Theory of Matrices II, ch. XV).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    n = p.degree
    a = [0] * (n + 1)
    b = [0] * (n + 1)
    for k, c in enumerate(p.integer_form()[1]):
        sign = -1 if k % 4 >= 2 else 1  # i^k = sign * i^(k mod 2)
        (b if k % 2 else a)[k] = sign * c
    re, im = _trim(a), _trim(b)
    s = 1 if len(re) > len(im) else -1
    chain = _int_chain(re, im) if s == 1 else _int_chain(im, re)
    index = _variations(chain)
    # a real root of g = gcd(A, B) of multiplicity m is a root of g,
    # gcd(g, g'), ... up to the m-th: their distinct counts add up to m
    on_axis = 0
    g = chain[-1]
    while len(g) > 1:
        sturm, g = _sturm_chain(g)
        on_axis += _variations(sturm)
    # right + left = n - on_axis and right - left = s * index
    return (n - on_axis + s * index) // 2, on_axis


def routh_right_halfplane_count(p: RatPoly) -> int | None:
    """Number of roots of p with strictly positive real part, or None when
    a root lies on the imaginary axis (a view of `halfplane_counts`)."""
    right, on_axis = halfplane_counts(p)
    return None if on_axis else right


# ----------------------------------------------------------------------
# Resultants and discriminants
# ----------------------------------------------------------------------

def _sylvester_det(P: Sequence[int], Q: Sequence[int]) -> int:
    """Res(P, Q) for integer P, Q not both constant: the Bareiss
    determinant of their Sylvester matrix."""
    n, m = len(P) - 1, len(Q) - 1
    rows = [[0] * i + P[::-1] + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + Q[::-1] + [0] * (n - 1 - i) for i in range(n)]
    return IntMatrix(rows).det()


def resultant(p: RatPoly, q: RatPoly) -> Fraction:
    """Resultant of p and q via the Sylvester determinant, taken on
    P = dp p and Q = dq q: Res(p, q) = Res(P, Q) / (dp^m dq^n)."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    n, m = p.degree, q.degree
    if n == 0:
        return p.leading ** m
    if m == 0:
        return q.leading ** n
    (dp, P), (dq, Q) = p.integer_form(), q.integer_form()
    return Fraction(_sylvester_det(P, Q), dp ** m * dq ** n)


def integer_discriminant(P: Sequence[int]) -> int:
    """Disc(P) of an integer polynomial of degree n >= 1, constant first:
    the classical closed forms for the quadratic and the cubic, otherwise
    (-1)^{n(n-1)/2} Res(P, P') / lead(P) by the Sylvester determinant."""
    n = len(P) - 1
    if n < 1 or not P[-1]:
        raise ValueError("discriminant needs degree >= 1")
    if n == 2:
        return P[1] ** 2 - 4 * P[0] * P[2]
    if n == 3:
        d, c, b, a = P
        return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                - 27 * a * a * d * d + 18 * a * b * c * d)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * _sylvester_det(P, _derivative(P)) // P[-1]


def discriminant(p: RatPoly) -> Fraction:
    """Disc(p), taken on the integer P = den p:
    Disc(p) = Disc(P) / den^(2n-2)."""
    if p.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    den, P = p.integer_form()
    return Fraction(integer_discriminant(P), den ** (2 * p.degree - 2))


# ----------------------------------------------------------------------
# Integer matrices and normal forms
# ----------------------------------------------------------------------

class IntMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("data",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(int(v) for v in row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(r) != width for r in data):
            raise ValueError("rows must be nonempty and of equal length")
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("IntMatrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]})"

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.data))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data]
        )

    def det(self) -> int:
        """Fraction-free Bareiss determinant (square matrices)."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        mat = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if mat[k][k] == 0:
                piv = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
                if piv is None:
                    return 0
                mat[k], mat[piv] = mat[piv], mat[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
                mat[i][k] = 0
            prev = mat[k][k]
        return sign * mat[n - 1][n - 1]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: U * M * V == S, U and V
    unimodular, S diagonal with nonnegative entries d1 | d2 | ...
    """
    r, c = M.rows, M.cols
    a = M.to_lists()
    u = IntMatrix.identity(r).to_lists()
    v = IntMatrix.identity(c).to_lists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(r, c):
        # locate a pivot of minimal magnitude in the trailing block
        piv = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t below the pivot
            progressed = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        progressed = True
            if progressed:
                continue
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        progressed = True
            if progressed:
                continue
            # pivot must divide the remaining block for the divisor chain
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return IntMatrix(u), IntMatrix(a), IntMatrix(v)


def elementary_divisors(M: IntMatrix) -> tuple[int, ...]:
    _, s, _ = smith_normal_form(M)
    return tuple(s.data[i][i] for i in range(min(M.rows, M.cols)))


def row_hermite_basis(rows: Iterable[Iterable[int]]) -> list[list[int]]:
    """Basis (as reduced rows) of the lattice generated by the given rows.

    Row-style HNF: pivots move left to right down the returned rows, each
    pivot is positive, and entries above a pivot are reduced modulo it.
    Zero rows are dropped, so the result has one row per lattice rank.
    """
    mat = [list(map(int, row)) for row in rows]
    if not mat:
        return []
    n_cols = len(mat[0])
    pr = 0
    for col in range(n_cols):
        while True:
            nz = [i for i in range(pr, len(mat)) if mat[i][col] != 0]
            if not nz:
                break
            imin = min(nz, key=lambda i: abs(mat[i][col]))
            mat[pr], mat[imin] = mat[imin], mat[pr]
            done = True
            for i in range(pr + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // mat[pr][col]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[pr])]
                    if mat[i][col] != 0:
                        done = False
            if done:
                break
        if pr < len(mat) and mat[pr][col] != 0:
            if mat[pr][col] < 0:
                mat[pr] = [-x for x in mat[pr]]
            for i in range(pr):
                q = mat[i][col] // mat[pr][col]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[pr])]
            pr += 1
            if pr == len(mat):
                break
    return [row for row in mat[:pr]]


def integer_adjugate(
    rows: Sequence[Sequence[int]],
) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate (det * A^-1) of a square integer matrix.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [A | I]: after
    step k every entry is a (k+1)-minor, so each division is exact and no
    rational number is ever formed.  A singular matrix gives (0, None).
    """
    n = len(rows)
    mat = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    if any(len(r) != 2 * n for r in mat):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n):
        if mat[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if piv is None:
                return 0, None
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        top = mat[k]
        pv = top[k]
        for i in range(n):
            if i != k:
                f = mat[i][k]
                mat[i] = [(pv * a - f * b) // prev for a, b in zip(mat[i], top)]
        prev = pv
    # the rows now read [p*I | p*(PA)^-1 P] with p = det(PA) = sign * det(A)
    return sign * prev, [[sign * v for v in row[n:]] for row in mat]


def _clear_row_denominators(
    rows: Sequence[Sequence[RatLike]],
) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and those multipliers."""
    fracs = [[_as_fraction(v) for v in row] for row in rows]
    scales = [math.lcm(*(v.denominator for v in row)) for row in fracs]
    return [[int(v * c) for v in row] for row, c in zip(fracs, scales)], scales


def solve_linear_exact(
    A: IntMatrix | Sequence[Sequence[RatLike]], b: Sequence[RatLike]
) -> list[Fraction]:
    """Exact solution x of A x = b (A square nonsingular)."""
    rows = A.to_lists() if isinstance(A, IntMatrix) else [list(r) for r in A]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("A must be square")
    if len(b) != n:
        raise ValueError("dimension mismatch")
    # scaling an equation does not change the solution
    ints, _ = _clear_row_denominators([row + [bv] for row, bv in zip(rows, b)])
    det, adj = integer_adjugate([row[:n] for row in ints])
    if det == 0:
        raise SingularMatrixError("singular matrix")
    rhs = [row[n] for row in ints]
    return [Fraction(sum(a * r for a, r in zip(row, rhs)), det) for row in adj]


def fraction_matrix_inverse(
    rows: Sequence[Sequence[RatLike]],
) -> list[list[Fraction]]:
    """Exact inverse of a square matrix over Q."""
    # (C A)^-1 = A^-1 C^-1 for the diagonal row scaling C, so A^-1 = (C A)^-1 C
    ints, scales = _clear_row_denominators(rows)
    det, adj = integer_adjugate(ints)
    if det == 0:
        raise SingularMatrixError("singular matrix")
    return [[Fraction(a * c, det) for a, c in zip(row, scales)] for row in adj]
