import functools
import math

import pytest

from ehrhart_lab.delta import ehrhart_polynomial, ehrhart_series, validate_delta
from ehrhart_lab.lattice import (
    LatticeSimplex,
    canonical_form,
    delta_of_simplex,
    is_reflexive,
    is_terminal,
    lattice_isomorphic,
    multiplicity,
)
from ehrhart_lab.realize import (
    GroupAction,
    UnsupportedDeltaError,
    action_space_size,
    agreement_length,
    build_quotient_simplex,
    candidate_multiplicities,
    ehrhart_dominates,
    enumerate_actions,
    filter_actions,
    normalize_action,
    realize,
    tower_scan,
)
from ehrhart_lab.wps import WeightSystem, wps_delta

DIM10 = validate_delta([1, 1, 1, 1, 9, 28, 9, 1, 1, 1, 1])
W10 = WeightSystem.of([1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3])
DIM10_VERTICES = LatticeSimplex.of(
    [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
     [0, 0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
     [0, 0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
     [0, 0, 0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
     [0, 0, 0, 0, 0, 0, 0, 0, 1, 0], [1, 2, 0, 1, 2, 0, 1, 1, 2, 3],
     [-4, -5, -2, -3, -4, -1, -2, -2, -3, -3]]
)


def test_candidate_multiplicities():
    assert candidate_multiplicities(DIM10) == [1, 2, 3, 6, 9, 18, 27, 54]
    assert candidate_multiplicities(validate_delta([1, 1, 1])) == [1, 3]
    divisors72 = candidate_multiplicities(validate_delta([1, 1, 68, 1, 1]))
    assert divisors72 == [1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72]
    with pytest.raises(UnsupportedDeltaError):
        candidate_multiplicities(validate_delta([1, 2, 2, 2, 1]))
    with pytest.raises(UnsupportedDeltaError):
        candidate_multiplicities(validate_delta([1, 1, 3, 0]))


def test_ehrhart_dominates():
    dq = wps_delta(W10)
    assert ehrhart_dominates(DIM10, dq)
    assert not ehrhart_dominates(dq, DIM10)
    assert ehrhart_dominates(DIM10, DIM10)
    # the two counting polynomials agree up to m = 3 and split at m = 4
    lp = ehrhart_polynomial(DIM10)
    lq = ehrhart_polynomial(dq)
    from fractions import Fraction
    assert all(lp(Fraction(m)) == lq(Fraction(m)) for m in range(4))
    assert lp(Fraction(4)) > lq(Fraction(4))
    assert agreement_length(DIM10, dq) == 3


def _pair_with_difference(diff, base):
    """(P, Q) with Q = base and L_P - L_Q the degree <= d polynomial taking
    the values diff[0..d] at m = 0..d (diff[0] = 0 keeps delta_0 = 1)."""
    d = len(diff) - 1
    gap = [
        sum((-1) ** (i - j) * math.comb(d + 1, i - j) * diff[j] for j in range(i + 1))
        for i in range(d + 1)
    ]
    return validate_delta([b + g for b, g in zip(base, gap)]), validate_delta(base)


@pytest.mark.parametrize("name, poly, expected", [
    # zero at m = 2, 3 and negative on (2, 3): nonnegative on the integers
    ("touches", lambda m: m * (m - 2) * (m - 3), True),
    ("zero", lambda m: 0, True),
    # positive leading coefficient, negative at m = 7 and nowhere else
    ("one-dip", lambda m: m * (2 * (m - 7) ** 2 - 1), False),
    # nonnegative on 0..d, negative leading coefficient
    ("falls", lambda m: m * (28 + 3 * m - m * m), False),
])
def test_ehrhart_dominates_planted(name, poly, expected):
    d = 3
    p, q = _pair_with_difference([poly(m) for m in range(d + 1)], [1, 400, 400, 400])
    diff = [a - b for a, b in zip(ehrhart_series(p, 40), ehrhart_series(q, 40))]
    assert diff == [poly(m) for m in range(40)], name
    assert ehrhart_dominates(p, q) is expected, name


@functools.lru_cache(maxsize=None)
def _sympy_binomials(d):
    """binom(m + d - j, d) for j = 0..d as sympy Polys in m over QQ."""
    import sympy

    m = sympy.Symbol("m")
    return [
        sympy.Poly(sympy.Mul(*[m + d - j - i for i in range(d)]), m, domain="QQ")
        * sympy.Rational(1, math.factorial(d))
        for j in range(d + 1)
    ]


def _sympy_counting(dv):
    basis = _sympy_binomials(dv.d)  # delta_0 = 1 starts the sum
    return sum((b * x for b, x in zip(basis[1:], dv.entries[1:])), basis[0])


def _random_close_pairs(rng, count, d_max):
    """Pairs of the same dimension: independent draws, and pairs that share
    a prefix and differ by small steps after it (near-ties, late sign
    changes), over entry scales 3, 30 and 3000."""
    pairs = []
    for _ in range(count):
        d = rng.randint(1, d_max)
        scale = rng.choice([3, 30, 3000])
        a = [1] + [rng.randint(0, scale) for _ in range(d)]
        if rng.random() < 0.3:
            b = [1] + [rng.randint(0, scale) for _ in range(d)]
        else:
            k = rng.randint(1, d)
            b = a[:k] + [max(0, x + rng.randint(-3, 3)) for x in a[k:]]
        pairs.append((validate_delta(a), validate_delta(b)))
    return pairs


def test_ehrhart_dominates_against_sympy(rng):
    pytest.importorskip("sympy")
    outcomes = set()
    for dv_p, dv_q in _random_close_pairs(rng, 150, 10):
        diff = _sympy_counting(dv_p) - _sympy_counting(dv_q)
        if diff.is_zero:
            expected = True
        else:
            # past its largest real root the sign is the leading one's
            roots = diff.intervals()
            bound = math.ceil(max((hi for (_, hi), _ in roots), default=0))
            expected = bool(diff.LC() > 0) and all(
                diff.eval(k) >= 0 for k in range(max(bound, 0) + 1)
            )
        assert ehrhart_dominates(dv_p, dv_q) is expected, (dv_p, dv_q)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_agreement_length_against_sympy(rng):
    pytest.importorskip("sympy")
    for dv_p, dv_q in _random_close_pairs(rng, 150, 10):
        if dv_p == dv_q:
            with pytest.raises(ValueError):
                agreement_length(dv_p, dv_q)
            continue
        lp, lq = _sympy_counting(dv_p), _sympy_counting(dv_q)
        first = next(k for k in range(dv_p.d + 1) if lp.eval(k) != lq.eval(k))
        assert agreement_length(dv_p, dv_q) == first - 1, (dv_p, dv_q)


def test_dominance_excludes_other_rows():
    from ehrhart_lab.wps import divides_anticanonical_degree, enumerate_weights

    surviving = []
    for mult, h in ((1, 54), (2, 27), (3, 18)):
        for w in enumerate_weights(10, h):
            if not divides_anticanonical_degree(w, mult):
                continue
            if ehrhart_dominates(DIM10, wps_delta(w)):
                surviving.append((mult, str(w)))
    assert surviving == [(3, str(W10))]


def test_normalize_action_inversion():
    a = normalize_action(GroupAction(3, (0, 2, 1, 0, 2, 1, 0, 2, 1, 2, 1)), W10)
    b = normalize_action(GroupAction(3, (0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 2)), W10)
    assert a == b


def test_normalize_action_block_permutation(rng):
    blocks = [(0, 6), (6, 9), (9, 11)]
    base = (0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 2)
    reference = normalize_action(GroupAction(3, base), W10)
    for _ in range(20):
        shuffled = list(base)
        for start, stop in blocks:
            segment = shuffled[start:stop]
            rng.shuffle(segment)
            shuffled[start:stop] = segment
        assert normalize_action(GroupAction(3, tuple(shuffled)), W10) == reference


def test_enumerate_actions_count_215():
    actions = enumerate_actions(W10, 3)
    assert len(actions) == 215
    assert len({a.exponents for a in actions}) == 215
    for a in actions:
        assert sum(a.exponents) % 3 == 0
        assert a.exponents[0] == 0


def test_enumerate_actions_small():
    w = WeightSystem.of([1, 1, 1])
    acts = enumerate_actions(w, 3)
    assert GroupAction(3, (0, 1, 2)) in acts
    assert enumerate_actions(w, 1) == []


def test_filter_actions_58_then_1():
    actions = enumerate_actions(W10, 3)
    after_age, after_closure = filter_actions(actions, W10, DIM10)
    assert len(after_age) == 58
    assert len(after_closure) == 1
    assert after_closure[0].exponents == (0, 0, 1, 1, 2, 2, 0, 1, 2, 1, 2)


def test_build_quotient_simplex_winner():
    action = GroupAction(3, (0, 0, 1, 1, 2, 2, 0, 1, 2, 1, 2))
    s = build_quotient_simplex(W10, action)
    assert multiplicity(s) == 3
    assert delta_of_simplex(s) == DIM10
    assert is_terminal(s) and is_reflexive(s)
    assert lattice_isomorphic(s, DIM10_VERTICES)


def test_action_space_size():
    assert action_space_size(W10, 3) == 28 * 10 * 6


def test_realize_dim10_end_to_end():
    result = realize(DIM10)
    assert len(result.realizations) == 1
    log = result.log
    assert log.multiplicity_candidates == (1, 2, 3, 6, 9, 18, 27, 54)
    assert log.weights_enumerated == 24
    assert log.weights_after_dominance == 1
    assert log.actions_enumerated == 215
    assert log.actions_after_age_bound == 58
    assert log.actions_after_chart_closure == 1
    assert not log.undecided
    r = result.realizations[0]
    assert r.mult == 3 and str(r.weights) == str(W10)
    assert lattice_isomorphic(r.simplex, DIM10_VERTICES)


def test_realize_projective_plane():
    result = realize(validate_delta([1, 1, 1]))
    assert len(result.realizations) == 1
    r = result.realizations[0]
    assert r.mult == 1 and str(r.weights) == "1,1,1"
    assert lattice_isomorphic(
        r.simplex, LatticeSimplex.of([[1, 0], [0, 1], [-1, -1]])
    )


def test_realize_rejects_bad_targets():
    with pytest.raises(UnsupportedDeltaError):
        realize(validate_delta([1, 2, 1]))


def test_certificate_dim4():
    result = realize(validate_delta([1, 1, 68, 1, 1]))
    assert result.realizations == ()
    assert not result.undecided
    log = result.log
    assert log.weights_after_dominance == 1
    assert log.dominant_rows == [(12, "1,1,1,1,2")]
    assert (log.actions_enumerated, log.actions_after_age_bound,
            log.actions_after_chart_closure) == (81, 2, 0)


def test_tower_agrees_with_action_path_negative():
    # the same multiplicity-12 candidate, decided by the overlattice tower
    found, nodes = tower_scan(WeightSystem.of([1, 1, 1, 1, 2]), 12,
                              validate_delta([1, 1, 68, 1, 1]))
    assert found == []
    assert nodes > 0


def test_tower_agrees_with_action_path_positive():
    # the order-5 quotient of the degree-5 simplex: both routes must build
    # the same simplex for its delta-vector
    w = WeightSystem.of([1, 1, 1, 1, 1])
    action = GroupAction(5, (0, 1, 2, 3, 4))
    s = build_quotient_simplex(w, action)
    target = delta_of_simplex(s)
    assert target.entries[1] == 1 and target.palindromic
    assert is_terminal(s) and is_reflexive(s)

    found, _ = tower_scan(w, 5, target)
    assert any(lattice_isomorphic(s, t) for t in found)
    forms = {canonical_form(t) for t in found}

    actions = enumerate_actions(w, 5)
    after_age, after_closure = filter_actions(actions, w, target)
    built = [build_quotient_simplex(w, a) for a in after_closure]
    accepted = {
        canonical_form(t)
        for t in built
        if delta_of_simplex(t) == target and is_terminal(t) and is_reflexive(t)
    }
    assert accepted == forms

    # and realize() reports exactly the deduplicated result
    result = realize(target)
    assert len(result.realizations) == len(forms)


def test_tower_overflow_reports_undecided(monkeypatch):
    import ehrhart_lab.realize as rz

    w = WeightSystem.of([1, 1, 1, 1, 1])
    target = delta_of_simplex(
        build_quotient_simplex(w, GroupAction(5, (0, 1, 2, 3, 4)))
    )
    monkeypatch.setattr(rz, "TOWER_LEVEL_CAP", 0)
    monkeypatch.setattr(rz, "ACTION_SPACE_CAP", 0)  # force the tower branch
    result = rz.realize(target)
    assert result.undecided
    assert result.realizations == ()


def test_realize_finds_order7_quotient():
    w = WeightSystem.of([1, 1, 1, 1, 1, 1, 1])
    s = build_quotient_simplex(w, GroupAction(7, (0, 1, 2, 3, 4, 5, 6)))
    target = delta_of_simplex(s)
    assert target.entries == (1, 1, 1, 43, 1, 1, 1)
    result = realize(target)
    assert any(lattice_isomorphic(r.simplex, s) for r in result.realizations)


def test_realize_composite_order_quotient():
    # an order-8 quotient: composite multiplicities exercise the age bound
    # over non-coprime powers and the chart closure across many unit charts
    w = WeightSystem.of([1] * 8)
    s = build_quotient_simplex(w, GroupAction(8, (0, 0, 0, 0, 1, 3, 5, 7)))
    target = delta_of_simplex(s)
    assert target.entries == (1, 1, 15, 15, 15, 15, 1, 1)
    assert is_terminal(s) and is_reflexive(s) and multiplicity(s) == 8
    result = realize(target)
    assert any(lattice_isomorphic(r.simplex, s) for r in result.realizations)
    # deterministic: this vector admits exactly four quotients up to
    # lattice isomorphism, all verified geometrically
    assert len(result.realizations) == 4
    assert not result.undecided


@pytest.mark.xfail(strict=True, reason=(
    "the second realization is a Z/2 x Z/2 quotient of the weights "
    "1,1,1,2,2,2,3, which the chart route (cyclic actions only) never sees"))
def test_realize_non_cyclic_quotient():
    # the chart row mult 4, weights 1,1,1,2,2,2,3 also has a non-cyclic
    # group; tower_scan finds that quotient, realize reports only the
    # mult-2 realization on the weights 1,1,2,3,3,6,8
    result = realize(validate_delta([1, 1, 11, 22, 11, 1, 1]))
    assert len(result.realizations) == 2
