"""Concrete lattice simplices: exact point counting, duality, and
delta-vector extraction through box points.

The delta-vector of a lattice simplex is read off the half-open
fundamental parallelepiped of the cone generators (v_i, 1): its lattice
points, grouped by last coordinate, give the vector directly.  The points
are enumerated through coset representatives from the Smith normal form of
the generator matrix, so the cost is the normalized volume rather than
anything exponential in the dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .delta import DeltaVector, ehrhart_series, validate_delta
from .exact import (
    IntMatrix,
    integer_adjugate,
    row_hermite_basis,
    smith_normal_form,
)

BRUTE_VOLUME_CAP = 10 ** 4
BRUTE_DILATION_CAP = 3


class DegenerateSimplexError(ValueError):
    """Vertices are affinely dependent."""


@dataclass(frozen=True)
class LatticeSimplex:
    """A d-simplex given by its d+1 integer vertices (rows)."""

    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("no vertices")
        d = len(self.vertices[0])
        if len(self.vertices) != d + 1:
            raise ValueError("a d-simplex needs exactly d+1 vertices")
        object.__setattr__(
            self,
            "vertices",
            tuple(tuple(int(x) for x in v) for v in self.vertices),
        )

    @property
    def d(self) -> int:
        return len(self.vertices[0])

    @classmethod
    def of(cls, rows) -> "LatticeSimplex":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_text(cls, text: str) -> "LatticeSimplex":
        """Parse the one-vertex-per-line, space-separated serialization."""
        rows = [
            [int(tok) for tok in line.split()]
            for line in text.strip().splitlines()
            if line.strip()
        ]
        return cls.of(rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in v) for v in self.vertices)

    def to_json(self) -> list[list[int]]:
        return [list(v) for v in self.vertices]


@dataclass(frozen=True)
class BoxPointData:
    """Histogram of fundamental-parallelepiped points by height."""

    height_histogram: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.height_histogram)


@dataclass(frozen=True)
class DualSimplex:
    vertices: tuple[tuple[Fraction, ...], ...]
    is_lattice: bool

    def as_lattice_simplex(self) -> LatticeSimplex:
        if not self.is_lattice:
            raise ValueError("dual is not a lattice simplex")
        return LatticeSimplex.of([[int(x) for x in v] for v in self.vertices])


def _cone_matrix(s: LatticeSimplex) -> IntMatrix:
    return IntMatrix([list(v) + [1] for v in s.vertices])


def normalized_volume(s: LatticeSimplex) -> int:
    """d! times the Euclidean volume; 0 for a degenerate simplex."""
    return abs(_cone_matrix(s).det())


def _cone_adjugate(s: LatticeSimplex) -> tuple[int, list[list[int]]]:
    """det and adjugate of the cone matrix G: x in Z^{d+1} is sum t_i (v_i, 1)
    with t = x . adj / det, so column i of adj is det times vertex i's form."""
    det, adj = integer_adjugate(_cone_matrix(s).data)
    if det == 0:
        raise DegenerateSimplexError("degenerate simplex")
    return det, adj


def origin_barycentrics(s: LatticeSimplex) -> list[Fraction]:
    """The t_i with sum t_i = 1 and sum t_i v_i = 0."""
    det, adj = _cone_adjugate(s)
    return [Fraction(a, det) for a in adj[s.d]]


def origin_interior(s: LatticeSimplex) -> bool:
    try:
        return all(t > 0 for t in origin_barycentrics(s))
    except DegenerateSimplexError:
        return False


def _box_histogram(s: LatticeSimplex, cap: tuple[int, ...] | None) -> list[int] | None:
    """Height histogram of the box points; all integer arithmetic.

    With a cap, returns None as soon as some height count would exceed it
    (used to discard quotient candidates early).
    """
    n = s.d + 1
    u, snf, _ = smith_normal_form(_cone_matrix(s))
    diag = [snf.data[i][i] for i in range(n)]
    dpos = math.prod(diag)
    if dpos == 0:
        raise DegenerateSimplexError("degenerate simplex")
    # U G V = S: the coset representatives x = combo . V^-1 of Z^n modulo the
    # generators' row lattice have t = x . G^-1 = combo . S^-1 . U, so dpos * t
    # sums combo_i (dpos / s_i) U_i over the nontrivial Smith factors alone
    steps = [(f, [dpos // f * a for a in row]) for f, row in zip(diag, u.data) if f > 1]
    *outer, (order, last) = steps or [(1, [0] * n)]
    multiples = [[k * x % dpos for x in last] for k in range(order)]
    hist = [0] * n
    for combo in itertools.product(*(range(f) for f, _ in outer)):
        base = [sum(c * w[j] for c, (_, w) in zip(combo, outer)) for j in range(n)]
        for m in multiples:
            # the box point is sum frac(t_i) (v_i, 1), at height sum frac(t_i)
            height = sum((b + x) % dpos for b, x in zip(base, m)) // dpos
            hist[height] += 1
            if cap is not None and hist[height] > cap[height]:
                return None
    assert sum(hist) == dpos
    return hist


def box_points(s: LatticeSimplex) -> BoxPointData:
    """Lattice points of the half-open parallelepiped spanned by the cone
    generators (v_i, 1), grouped by height (the last coordinate)."""
    hist = _box_histogram(s, None)
    return BoxPointData(tuple(hist))


def delta_dominated_by(s: LatticeSimplex, dv: DeltaVector) -> bool:
    """True iff the box histogram of s is entrywise at most the given
    vector (early-aborting); monotone under lattice refinement, so an
    intermediate quotient failing this can never reach the target."""
    return _box_histogram(s, dv.entries) is not None


def delta_of_simplex(s: LatticeSimplex) -> DeltaVector:
    """Delta-vector of the simplex, via box points."""
    return validate_delta(list(box_points(s).height_histogram))


def count_points_dilate(s: LatticeSimplex, m: int) -> int:
    """|mS intersect Z^d|, the m-th integer coefficient of the Ehrhart
    series of the box-point delta-vector."""
    if m < 0:
        raise ValueError("dilation factor must be >= 0")
    return ehrhart_series(delta_of_simplex(s), m + 1)[m]


def count_points_brute(s: LatticeSimplex, m: int) -> int:
    """Independent counting oracle: walk the bounding box of mS with
    per-axis interval pruning and test exact barycentric membership.

    Deliberately bounded (volume <= 10^4, m <= 3); meant for verification,
    not production counting.
    """
    if not 0 <= m <= BRUTE_DILATION_CAP:
        raise ValueError(f"brute-force path supports 0 <= m <= {BRUTE_DILATION_CAP}")
    if normalized_volume(s) > BRUTE_VOLUME_CAP:
        raise ValueError(f"brute-force path capped at volume {BRUTE_VOLUME_CAP}")
    if m == 0:
        return 1
    d = s.d
    det, adj = _cone_adjugate(s)
    # membership: every barycentric form t_i = (x, m) . adj[:, i] / det >= 0
    sign = 1 if det > 0 else -1
    forms = [[sign * a for a in row] for row in adj]  # forms[j][i], j = coord
    lows = [m * min(v[j] for v in s.vertices) for j in range(d)]
    highs = [m * max(v[j] for v in s.vertices) for j in range(d)]
    # suffix[k][i]: best possible contribution of coordinates k..d-1 to form i
    suffix = [[0] * (d + 1) for _ in range(d + 2)]
    for k in range(d - 1, -1, -1):
        for i in range(d + 1):
            best = max(forms[k][i] * lows[k], forms[k][i] * highs[k])
            suffix[k][i] = suffix[k + 1][i] + best

    base = [m * forms[d][i] for i in range(d + 1)]
    count = 0
    stack = [(0, base)]
    while stack:
        k, partial = stack.pop()
        if k == d:
            if all(p >= 0 for p in partial):
                count += 1
            continue
        for xk in range(lows[k], highs[k] + 1):
            nxt = [partial[i] + xk * forms[k][i] for i in range(d + 1)]
            if all(nxt[i] + suffix[k + 1][i] >= 0 for i in range(d + 1)):
                stack.append((k + 1, nxt))
    return count


def dual_simplex(s: LatticeSimplex) -> DualSimplex:
    """Polar dual: one vertex per facet, the u with <u, v_j> = -1 over the
    facet's vertices; lattice iff every entry is an integer (the simplex
    is then reflexive).  Vertex i of the dual corresponds to the facet
    omitting vertex i."""
    if not origin_interior(s):
        raise ValueError("dual computation needs the origin strictly interior")
    _, adj = _cone_adjugate(s)
    d = s.d
    # column i of adj is (a, c) with <v_j, a> + c = 0 for every j != i, and
    # c = det * t_i != 0 for the origin's barycentrics t, so u = a / c
    cols = list(zip(*adj))
    lattice = all(a % col[d] == 0 for col in cols for a in col[:d])
    dual_rows = tuple(tuple(Fraction(a, col[d]) for a in col[:d]) for col in cols)
    return DualSimplex(dual_rows, lattice)


def is_reflexive(s: LatticeSimplex) -> bool:
    return dual_simplex(s).is_lattice


def is_terminal(s: LatticeSimplex) -> bool:
    """Only lattice points are the vertices and the origin."""
    if not origin_interior(s):
        raise ValueError("terminality check needs the origin strictly interior")
    return count_points_dilate(s, 1) == s.d + 2


def multiplicity(s: LatticeSimplex) -> int:
    """Index in Z^d of the subgroup generated by the vertices."""
    basis = row_hermite_basis([list(v) for v in s.vertices])
    if len(basis) != s.d:
        raise ValueError("vertices do not span rank d")
    return abs(IntMatrix(basis).det())


# ----------------------------------------------------------------------
# Canonical form up to lattice isomorphism
# ----------------------------------------------------------------------
#
# For a fixed vertex order, right multiplication by GL_d(Z) is normalized
# by an incremental column echelon form: each vertex row is reduced in
# turn, a fresh pivot (positive, gcd of the remaining entries) is swapped
# to the leftmost free column, and earlier pivot columns are reduced
# modulo it.  All operations touch only columns with no pivot in earlier
# rows plus the fresh pivot column, and those columns vanish on every
# earlier row -- so emitted rows never change.  That prefix stability is
# what makes lexicographic branch-and-bound over vertex orders exact.

def _echelon_push(remaining: dict[int, list[int]], p: int, pick: int, d: int):
    """Emit vertex `pick` as the next row; returns (row, new_remaining, p')."""
    rows = {k: v[:] for k, v in remaining.items() if k != pick}
    cur = remaining[pick][:]

    def addmul(dst, src, f):
        for v in rows.values():
            v[dst] += f * v[src]
        cur[dst] += f * cur[src]

    while True:
        nz = [j for j in range(p, d) if cur[j] != 0]
        if len(nz) <= 1:
            break
        jm = min(nz, key=lambda j: abs(cur[j]))
        for j in nz:
            if j != jm:
                q = cur[j] // cur[jm]
                if q:
                    addmul(j, jm, -q)
    nz = [j for j in range(p, d) if cur[j] != 0]
    if nz:
        j = nz[0]
        if cur[j] < 0:
            for v in rows.values():
                v[j] = -v[j]
            cur[j] = -cur[j]
        if j != p:
            for v in rows.values():
                v[j], v[p] = v[p], v[j]
            cur[j], cur[p] = cur[p], cur[j]
        g = cur[p]
        for pj in range(p):
            q = cur[pj] // g
            if q:
                addmul(pj, p, -q)
        p += 1
    return tuple(cur), rows, p


def echelon_form(s: LatticeSimplex) -> tuple[tuple[int, ...], ...]:
    """Canonical representative of the GL_d(Z)-orbit of the vertex matrix
    for the given vertex order."""
    remaining = {k: list(v) for k, v in enumerate(s.vertices)}
    p = 0
    out = []
    for k in range(len(s.vertices)):
        row, remaining, p = _echelon_push(remaining, p, k, s.d)
        out.append(row)
    return tuple(out)


def _vertex_relation(s: LatticeSimplex) -> tuple[int, ...]:
    """The linear relation sum mu_i v_i = 0, normalized primitive with
    positive sum; unique for a genuine simplex, and a lattice isomorphism
    permutes vertices only within equal-mu classes."""
    det, adj = _cone_adjugate(s)
    ints = [a if det > 0 else -a for a in adj[s.d]]  # |det| * barycentrics
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def canonical_form(s: LatticeSimplex) -> tuple[tuple[int, ...], ...]:
    """Lexicographically minimal echelon form, a complete invariant of the
    simplex up to lattice isomorphism and vertex relabeling.

    The minimum is taken over vertex orders that list the equal-weight
    classes of the canonical linear relation in increasing weight;
    isomorphisms preserve those classes, so the restricted minimum is
    still a complete invariant while the search stays polynomially sized
    for the block-symmetric simplices the package deals with.  Children
    of the branch-and-bound reaching identical transformed states are
    merged, so exactly symmetric vertices cost nothing extra.
    """
    d = s.d
    n = d + 1
    mu = _vertex_relation(s)
    incumbent: list[tuple[tuple[int, ...], ...] | None] = [None]

    def dfs(remaining: dict[int, list[int]], p: int, emitted: list[tuple[int, ...]]):
        depth = len(emitted)
        if depth == n:
            cand = tuple(emitted)
            if incumbent[0] is None or cand < incumbent[0]:
                incumbent[0] = cand
            return
        current_class = min(mu[i] for i in remaining)
        children: dict = {}
        for i in remaining:
            if mu[i] != current_class:
                continue
            row, rem2, p2 = _echelon_push(remaining, p, i, d)
            key = (
                row,
                p2,
                tuple(sorted((mu[k], tuple(v)) for k, v in rem2.items())),
            )
            if key not in children:
                children[key] = (row, rem2, p2)
        for key in sorted(children, key=lambda k: k[0]):
            row, rem2, p2 = children[key]
            prefix = emitted + [row]
            if incumbent[0] is not None and tuple(prefix) > incumbent[0][: depth + 1]:
                break  # children are sorted; the rest are worse
            dfs(rem2, p2, prefix)

    dfs({k: list(v) for k, v in enumerate(s.vertices)}, 0, [])
    assert incumbent[0] is not None
    return incumbent[0]


def lattice_isomorphic(a: LatticeSimplex, b: LatticeSimplex) -> bool:
    return canonical_form(a) == canonical_form(b)
