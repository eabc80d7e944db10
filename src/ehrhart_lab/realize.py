"""Realize a palindromic delta-vector with delta_1 = 1 as a terminal
reflexive simplex.

Such a simplex is a quotient of a weighted projective simplex Q by a
finite group whose order (the multiplicity) divides the entry sum.  The
pipeline:

  1. candidate multiplicities = divisors of sum(delta); each fixes the
     weight sum h = sum(delta) / mult of Q;
  2. enumerate well-formed Gorenstein terminal weight systems with that h
     whose anticanonical degree is divisible by mult;
  3. discard systems whose point count L(m) exceeds the target's for
     some m >= 0 (an exact walk over the integer forward differences of
     the two series; no counting polynomial is built);
  4. multiplicity 1: accept iff the weight delta equals the target;
     multiplicity n > 1 with a unit weight: enumerate cyclic actions of
     order n pinned on a smooth chart, filter by the chart Gorenstein
     divisibility, the age bound derived from the initial agreement of the
     two delta-vectors, and closure across all smooth charts;
  5. build each surviving quotient explicitly and verify it
     unconditionally (delta match, terminality, reflexivity).

Weight systems with no unit weight (or with an exponent space too large
for the chart method) go through the overlattice tower instead: a
multiplicity-n simplex is exactly Q seen from an index-n overlattice, so
climbing index-p extensions with delta-domination pruning is a complete
search, including non-cyclic quotient groups.

The chart route sees cyclic groups only.  A chart row whose multiplicity
has a repeated prime factor (4, 8, 9, 12, ...) can also be realized by a
non-cyclic group, which that route never finds: `1,1,11,22,11,1,1` has a
Z/2 x Z/2 quotient of the weights 1,1,1,2,2,2,3 that `realize` misses.
An empty answer is therefore a certificate of non-existence only when no
dominant row that went through the chart route has such a multiplicity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .delta import DeltaVector, ehrhart_series
from .exact import integer_adjugate, row_hermite_basis
from .lattice import (
    LatticeSimplex,
    canonical_form,
    delta_dominated_by,
    delta_of_simplex,
    is_reflexive,
    is_terminal,
    multiplicity,
)
from .wps import (
    WeightSystem,
    divides_anticanonical_degree,
    enumerate_weights,
    simplex_from_weights,
    wps_delta,
)

ACTION_SPACE_CAP = 200_000
TOWER_LEVEL_CAP = 100_000


class UnsupportedDeltaError(ValueError):
    """The realization method needs a palindromic vector with delta_1 = 1."""


class InvalidActionError(ValueError):
    """Group action data inconsistent with the requested order."""


@dataclass(frozen=True)
class GroupAction:
    """Generator exponents of a cyclic quotient: order n, exponents in
    [0, n) per vertex, stored block-sorted with a zero on a unit weight."""

    order: int
    exponents: tuple[int, ...]

    def __str__(self) -> str:
        return f"1/{self.order}({','.join(str(a) for a in self.exponents)})"


@dataclass(frozen=True)
class Realization:
    weights: WeightSystem
    mult: int
    action: GroupAction | None
    simplex: LatticeSimplex


@dataclass
class SearchLog:
    """Stage-by-stage counts of the realization search; deterministic for
    a given input."""

    multiplicity_candidates: tuple[int, ...] = ()
    multiplicities_tried: tuple[int, ...] = ()
    weight_rows: list[tuple[int, str]] = field(default_factory=list)
    weights_enumerated: int = 0
    weights_after_dominance: int = 0
    dominant_rows: list[tuple[int, str]] = field(default_factory=list)
    actions_enumerated: int = 0
    actions_after_age_bound: int = 0
    actions_after_chart_closure: int = 0
    tower_scans: list[tuple[int, str, int]] = field(default_factory=list)
    verified_realizations: int = 0
    undecided: list[tuple[int, str]] = field(default_factory=list)

    def to_json(self):
        return {
            "multiplicity_candidates": list(self.multiplicity_candidates),
            "multiplicities_tried": list(self.multiplicities_tried),
            "weights_enumerated": self.weights_enumerated,
            "weight_rows": [{"mult": m, "weights": w} for m, w in self.weight_rows],
            "weights_after_dominance": self.weights_after_dominance,
            "dominant_rows": [{"mult": m, "weights": w} for m, w in self.dominant_rows],
            "actions_enumerated": self.actions_enumerated,
            "actions_after_age_bound": self.actions_after_age_bound,
            "actions_after_chart_closure": self.actions_after_chart_closure,
            "tower_scans": [
                {"mult": m, "weights": w, "nodes": c}
                for m, w, c in self.tower_scans
            ],
            "verified_realizations": self.verified_realizations,
            "undecided": [{"mult": m, "weights": w} for m, w in self.undecided],
        }


@dataclass(frozen=True)
class RealizationResult:
    realizations: tuple[Realization, ...]
    log: SearchLog

    @property
    def undecided(self) -> tuple[tuple[int, str], ...]:
        return tuple(self.log.undecided)


def candidate_multiplicities(dv: DeltaVector) -> list[int]:
    """Divisors of the entry sum; the multiplicity of any realization must
    be one of these."""
    _require_target(dv)
    total = dv.total
    return sorted(m for m in range(1, total + 1) if total % m == 0)


def weight_rows(d: int, total: int) -> list[tuple[int, WeightSystem]]:
    """Stage 1: every (multiplicity, weight system) pair that can carry a
    dimension-d realization with entry sum `total` -- the multiplicity
    divides `total` and the anticanonical degree of the weights, which sum
    to `total / multiplicity` -- ordered by multiplicity, then weights."""
    rows = []
    for mult in sorted(m for m in range(1, total + 1) if total % m == 0):
        h = total // mult
        if h < d + 1:
            continue
        for w in enumerate_weights(d, h):
            if divides_anticanonical_degree(w, mult):
                rows.append((mult, w))
    return rows


def _require_target(dv: DeltaVector):
    if not dv.palindromic:
        raise UnsupportedDeltaError("target delta-vector must be palindromic")
    if dv.entries[1] != 1:
        raise UnsupportedDeltaError("realization method needs delta_1 = 1")


def ehrhart_dominates(dv_p: DeltaVector, dv_q: DeltaVector) -> bool:
    """Exact check that L_Q(m) <= L_P(m) for every integer m >= 0.

    The difference D = L_P - L_Q has degree at most d, so its integer
    values D(0..d) (from the series) fix its forward differences
    Delta^0..Delta^d at m = 0, and stepping m adds each difference into
    the one below it.  Once every Delta^k(m) >= 0, Newton's forward
    formula D(m + t) = sum_k binom(t, k) Delta^k(m) keeps D >= 0 for every
    larger m.  The walk always ends: each Delta^k is identically zero or
    eventually takes the sign of D's leading coefficient, so either all
    of them turn nonnegative or Delta^0 = D turns negative.
    """
    if dv_p.d != dv_q.d:
        raise ValueError("dimension mismatch")
    terms = dv_p.d + 1
    diffs = [a - b for a, b in zip(ehrhart_series(dv_p, terms),
                                   ehrhart_series(dv_q, terms))]
    for k in range(1, terms):  # forward differences at m = 0
        for i in range(terms - 1, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    while diffs[0] >= 0:
        if min(diffs) >= 0:
            return True
        for k in range(terms - 1):
            diffs[k] += diffs[k + 1]
    return False


# ----------------------------------------------------------------------
# Cyclic group actions on a weighted projective simplex
# ----------------------------------------------------------------------

def _weight_blocks(w: WeightSystem) -> list[tuple[int, int]]:
    """[(start, stop)] index ranges of equal-weight runs (weights sorted)."""
    blocks = []
    start = 0
    for i in range(1, len(w.weights) + 1):
        if i == len(w.weights) or w.weights[i] != w.weights[start]:
            blocks.append((start, i))
            start = i
    return blocks


def _canonical_exponents(exps: tuple[int, ...], n: int, blocks) -> tuple[int, ...]:
    """Lexicographic minimum, over the generator choices k coprime to n,
    of the exponents k * exps mod n sorted inside equal-weight blocks."""
    return min(
        tuple(x for start, stop in blocks
              for x in sorted(k * v % n for v in exps[start:stop]))
        for k in range(1, n) if math.gcd(k, n) == 1
    )


def normalize_action(a: GroupAction, w: WeightSystem) -> GroupAction:
    """Canonical representative under the generator symmetries: shift by
    the weight vector to zero the first unit-weight coordinate, sorting
    inside equal-weight blocks, and the choice of generator (multiplier
    coprime to the order); the representative is the lexicographic minimum
    over the generator choices."""
    n = a.order
    exps = [v % n for v in a.exponents]
    if len(exps) != len(w.weights):
        raise InvalidActionError("exponent count does not match weights")
    if w.weights[0] != 1:
        raise InvalidActionError("normalization needs a unit weight")
    shift = exps[0]
    pinned = tuple((v - shift * lam) % n for v, lam in zip(exps, w.weights))
    return GroupAction(n, _canonical_exponents(pinned, n, _weight_blocks(w)))


def enumerate_actions(w: WeightSystem, n: int) -> list[GroupAction]:
    """All canonical nontrivial cyclic actions of order exactly n on the
    weight simplex that leave the smooth chart Gorenstein.

    Exponent tuples are generated block-sorted with a zero in the unit
    weight block (the chart pin), constrained by n | sum(exponents) and
    gcd(exponents, n) = 1, and deduplicated over generator multipliers.
    """
    if n < 2:
        return []
    if w.weights[0] != 1:
        raise InvalidActionError("action enumeration needs a unit weight")
    blocks = _weight_blocks(w)
    out = []
    choices = [
        list(itertools.combinations_with_replacement(range(n), stop - start))
        for start, stop in blocks
    ]
    for combo in itertools.product(*choices):
        exps = tuple(v for block in combo for v in block)
        if 0 not in combo[0]:
            continue  # must pin a unit-weight coordinate at zero
        if not any(exps):
            continue
        if sum(exps) % n:
            continue  # chart cone no longer Gorenstein
        if math.gcd(n, *exps) != 1:
            continue  # order strictly less than n
        if exps == _canonical_exponents(exps, n, blocks):
            out.append(GroupAction(n, exps))
    out.sort(key=lambda a: a.exponents)
    return out


def agreement_length(dv_p: DeltaVector, dv_q: DeltaVector) -> int:
    """Largest T with L_P(m) = L_Q(m) for all 0 <= m <= T (T < d for
    distinct polynomials; raises if they coincide).

    L(m) = sum_{j <= m} delta_j binom(m + d - j, d) for m <= d is
    unitriangular in delta, so T is the first index where the vectors
    differ, minus one.
    """
    if dv_p.d != dv_q.d:
        raise ValueError("dimension mismatch")
    if dv_p == dv_q:
        raise ValueError("counting polynomials coincide; no finite agreement bound")
    pairs = zip(dv_p.entries, dv_q.entries)
    return next(j for j, (a, b) in enumerate(pairs) if a != b) - 1


def filter_actions(
    actions: list[GroupAction], w: WeightSystem, dv_p: DeltaVector
) -> tuple[list[GroupAction], list[GroupAction]]:
    """Apply the age bound and then chart closure; returns the two
    surviving lists (after_age, after_closure).

    Age bound: adjoining the group must add no lattice points at heights
    1..T in the chart cone, where T is the agreement length of the target
    and weight counting polynomials; so every nontrivial power's age must
    exceed T.  Chart closure: re-pinning the action on any other unit
    weight chart must again land in the age-surviving set.
    """
    dv_q = wps_delta(w)
    t_cut = agreement_length(dv_p, dv_q)
    after_age = []
    for a in actions:
        n = a.order
        ok = True
        for kappa in range(1, n):
            total = sum((kappa * v) % n for v in a.exponents)
            if total % n or 1 <= total // n <= t_cut:
                ok = False
                break
        if ok:
            after_age.append(a)
    survivors_set = {a.exponents for a in after_age}
    blocks = _weight_blocks(w)
    unit_count = sum(1 for lam in w.weights if lam == 1)
    after_closure = []
    for a in after_age:
        n = a.order
        ok = True
        for shift in sorted(set(a.exponents[:unit_count])):
            rebased = tuple(
                (v - shift * lam) % n for v, lam in zip(a.exponents, w.weights)
            )
            if sum(rebased) % n or math.gcd(n, *rebased) != 1:
                ok = False
                break
            if _canonical_exponents(rebased, n, blocks) not in survivors_set:
                ok = False
                break
        if ok:
            after_closure.append(a)
    return after_age, after_closure


def build_quotient_simplex(w: WeightSystem, a: GroupAction) -> LatticeSimplex:
    """Quotient simplex: take Q on its smooth chart basis and re-express
    the vertices in the lattice extended by g = (1/n) sum a_i v_i."""
    n = a.order
    d = w.d
    if w.weights[0] != 1 or a.exponents[0] != 0:
        raise InvalidActionError("need a pinned unit-weight chart")
    if math.gcd(n, *a.exponents) != 1:
        raise InvalidActionError("generator does not have exact order n")
    # chart basis: v_1..v_d = e_1..e_d, v_0 = -(lambda_1, ..., lambda_d)
    verts = [[-lam for lam in w.weights[1:]]]
    verts += [[int(i == j) for j in range(d)] for i in range(d)]
    alpha = list(a.exponents[1:])
    gens = [[n * int(i == j) for j in range(d)] for i in range(d)]
    gens.append(alpha)
    basis_n = row_hermite_basis(gens)  # basis of n * (Z^d + g Z)
    s = _vertices_in_overlattice(verts, basis_n, n)
    if s is None:
        raise InvalidActionError("vertex not integral over the overlattice")
    if multiplicity(s) != n:
        raise InvalidActionError("quotient does not have the requested index")
    return s


# ----------------------------------------------------------------------
# Overlattice tower: the general quotient search
# ----------------------------------------------------------------------
#
# A multiplicity-n simplex with the target delta-vector is the weight
# simplex viewed from an index-n overlattice of its vertex lattice.  Any
# finite abelian quotient is reached by a chain of index-p extensions
# (primes of n in a fixed order), and box-point histograms only grow along
# the chain, so every intermediate lattice must already be entrywise
# dominated by the target vector.  That prune keeps the search small even
# for large indices, and the route is complete for non-cyclic quotients,
# which the chart/action method never sees.

def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return sorted(out)


def _projective_points(p: int, d: int):
    """Representatives of the projective space over F_p: first nonzero
    coordinate equal to 1."""
    for lead in range(d):
        for tail in itertools.product(range(p), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def _vertices_in_overlattice(vertices, basis, scale: int) -> LatticeSimplex | None:
    """The vertices in coordinates of the lattice with basis rows basis / scale,
    scale * v * adj(B) / det(B); None when some vertex is not integral."""
    det, adj = integer_adjugate(basis)
    cols = list(zip(*adj))
    out = []
    for v in vertices:
        scaled = [scale * sum(a * b for a, b in zip(v, col)) for col in cols]
        if any(x % det for x in scaled):
            return None
        out.append([x // det for x in scaled])
    return LatticeSimplex.of(out)


def tower_scan(w: WeightSystem, n: int, dv: DeltaVector
               ) -> tuple[list[LatticeSimplex] | None, int]:
    """All terminal reflexive index-n quotients of the weight simplex with
    delta-vector dv, by climbing index-p overlattice extensions with
    entrywise delta-domination pruning; returns (simplices, nodes_visited),
    with None for the simplices if a level exceeded the safety cap (the
    caller then reports the weight system as undecided).
    """
    q = simplex_from_weights(w)
    d = w.d
    # lattices are represented by the row Hermite basis of n * lattice
    start = tuple(tuple(n * int(i == j) for j in range(d)) for i in range(d))
    level = {start}
    nodes = 0
    for p in _prime_factors(n):
        nxt: set = set()
        for basis in level:
            for c in _projective_points(p, d):
                gen = [sum(c[i] * basis[i][j] for i in range(d)) for j in range(d)]
                if any(x % p for x in gen):
                    continue  # extension would leave (1/n) Z^d
                rows = [list(r) for r in basis] + [[x // p for x in gen]]
                key = tuple(tuple(r) for r in row_hermite_basis(rows))
                if key in nxt:
                    continue
                nodes += 1
                cand = _vertices_in_overlattice(q.vertices, key, n)
                if cand is not None and delta_dominated_by(cand, dv):
                    nxt.add(key)
                    if len(nxt) > TOWER_LEVEL_CAP:
                        return None, nodes
        level = nxt
    found = []
    for basis in sorted(level):
        cand = _vertices_in_overlattice(q.vertices, basis, n)
        if cand is None or delta_of_simplex(cand) != dv:
            continue
        if is_terminal(cand) and is_reflexive(cand):
            found.append(cand)
    return found, nodes


def action_space_size(w: WeightSystem, n: int) -> int:
    """Raw size of the block-sorted exponent space enumerate_actions walks
    (before its arithmetic filters); used to decide between the chart
    method and the overlattice tower."""
    size = 1
    for start, stop in _weight_blocks(w):
        size *= math.comb(n + (stop - start) - 1, stop - start)
    return size


# ----------------------------------------------------------------------
# The full pipeline
# ----------------------------------------------------------------------

def realize(dv: DeltaVector) -> RealizationResult:
    """Find all terminal reflexive simplices with the given delta-vector
    (palindromic, delta_1 = 1), with a stage-by-stage search log.

    An empty result with no undecided entries is not a certificate when
    a dominant row that went through the chart route (one of
    `log.dominant_rows` without an entry in `log.tower_scans`) has a
    multiplicity with a repeated prime factor: that route sees cyclic
    groups only.
    """
    _require_target(dv)
    d = dv.d
    log = SearchLog()
    log.multiplicity_candidates = tuple(candidate_multiplicities(dv))
    log.multiplicities_tried = tuple(
        m for m in log.multiplicity_candidates if dv.total // m >= d + 1
    )
    rows = weight_rows(d, dv.total)
    log.weight_rows = [(m, str(w)) for m, w in rows]
    log.weights_enumerated = len(rows)

    realizations: list[Realization] = []
    seen_forms = set()

    def register(w: WeightSystem, mult: int, action: GroupAction | None,
                 s: LatticeSimplex):
        assert delta_of_simplex(s) == dv
        assert is_terminal(s) and is_reflexive(s)
        assert multiplicity(s) == mult
        key = canonical_form(s)
        if key not in seen_forms:
            seen_forms.add(key)
            realizations.append(Realization(w, mult, action, s))

    dominant: list[tuple[int, WeightSystem]] = []
    for mult, w in rows:
        if ehrhart_dominates(dv, wps_delta(w)):
            dominant.append((mult, w))
    log.dominant_rows = [(m, str(w)) for m, w in dominant]
    log.weights_after_dominance = len(dominant)

    for mult, w in dominant:
        if mult == 1:
            if wps_delta(w) == dv:
                register(w, 1, None, simplex_from_weights(w))
            continue
        if w.weights[0] == 1 and action_space_size(w, mult) <= ACTION_SPACE_CAP:
            # chart method: cyclic actions pinned on a smooth chart
            actions = enumerate_actions(w, mult)
            log.actions_enumerated += len(actions)
            after_age, after_closure = filter_actions(actions, w, dv)
            log.actions_after_age_bound += len(after_age)
            log.actions_after_chart_closure += len(after_closure)
            for action in after_closure:
                s = build_quotient_simplex(w, action)
                if delta_of_simplex(s) == dv and is_terminal(s) and is_reflexive(s):
                    register(w, mult, action, s)
        else:
            # no smooth chart, or the exponent space is too large for the
            # chart method: complete overlattice tower instead
            found, nodes = tower_scan(w, mult, dv)
            log.tower_scans.append((mult, str(w), nodes))
            if found is None:
                log.undecided.append((mult, str(w)))
                continue
            for s in found:
                register(w, mult, None, s)

    log.verified_realizations = len(realizations)
    realizations.sort(key=lambda r: (r.mult, r.weights.weights,
                                     r.action.exponents if r.action else ()))
    return RealizationResult(tuple(realizations), log)
