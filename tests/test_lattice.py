import pytest
from helpers import random_reflexive_simplex, random_unimodular, transform_simplex

from ehrhart_lab.delta import validate_delta
from ehrhart_lab.exact import IntMatrix, elementary_divisors
from ehrhart_lab.lattice import (
    DegenerateSimplexError,
    LatticeSimplex,
    box_points,
    canonical_form,
    count_points_brute,
    count_points_dilate,
    delta_dominated_by,
    delta_of_simplex,
    dual_simplex,
    echelon_form,
    is_reflexive,
    is_terminal,
    lattice_isomorphic,
    multiplicity,
    normalized_volume,
    origin_interior,
)

P12333 = LatticeSimplex.of(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-2, -3, -3, -3]]
)
P12234 = LatticeSimplex.of(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-2, -2, -3, -4]]
)
P4_FAN = LatticeSimplex.of(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]]
)
P4_ANTI = LatticeSimplex.of(
    [[4, -1, -1, -1], [-1, 4, -1, -1], [-1, -1, 4, -1], [-1, -1, -1, 4],
     [-1, -1, -1, -1]]
)
DIM10_SIMPLEX = LatticeSimplex.of(
    [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
     [0, 0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
     [0, 0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
     [0, 0, 0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
     [0, 0, 0, 0, 0, 0, 0, 0, 1, 0], [1, 2, 0, 1, 2, 0, 1, 1, 2, 3],
     [-4, -5, -2, -3, -4, -1, -2, -2, -3, -3]]
)


def test_normalized_volume():
    assert normalized_volume(P12333) == 12
    assert normalized_volume(P4_FAN) == 5
    assert normalized_volume(LatticeSimplex.of([[0, 0], [1, 0], [0, 1]])) == 1
    degenerate = LatticeSimplex.of([[0, 0], [1, 1], [2, 2]])
    assert normalized_volume(degenerate) == 0
    with pytest.raises(DegenerateSimplexError):
        delta_of_simplex(degenerate)


def test_shape_validation():
    with pytest.raises(ValueError):
        LatticeSimplex.of([[1, 0], [0, 1]])


def test_dual_of_p12333():
    dual = dual_simplex(P12333)
    assert dual.is_lattice
    got = sorted(tuple(int(x) for x in v) for v in dual.vertices)
    assert got == sorted([
        (-1, -1, -1, -1), (5, -1, -1, -1), (-1, 3, -1, -1),
        (-1, -1, 3, -1), (-1, -1, -1, 3),
    ])
    dl = dual.as_lattice_simplex()
    assert normalized_volume(dl) == 384
    assert count_points_dilate(dl, 1) == 81
    assert delta_of_simplex(dl).entries == (1, 76, 230, 76, 1)


def test_dual_small_triangles():
    d = dual_simplex(LatticeSimplex.of([[1, 0], [0, 1], [-1, -1]]))
    assert d.is_lattice
    assert sorted(tuple(int(x) for x in v) for v in d.vertices) == [
        (-1, -1), (-1, 2), (2, -1)
    ]
    # weights (1,1,2) divide their sum, so this triangle is reflexive too
    assert dual_simplex(LatticeSimplex.of([[1, 0], [0, 1], [-1, -2]])).is_lattice
    # weights (1,1,3) do not: the dual picks up fractional vertices
    assert not dual_simplex(LatticeSimplex.of([[1, 0], [0, 1], [-1, -3]])).is_lattice


def test_dual_requires_interior_origin():
    with pytest.raises(ValueError):
        dual_simplex(LatticeSimplex.of([[0, 0], [1, 0], [0, 1]]))


def test_p12234_and_its_dual():
    assert normalized_volume(P12234) == 12
    assert count_points_dilate(P12234, 1) == 7
    dual = dual_simplex(P12234).as_lattice_simplex()
    assert normalized_volume(dual) == 432
    assert count_points_dilate(dual, 1) == 89


def test_p4_simplices():
    assert delta_of_simplex(P4_FAN).entries == (1, 1, 1, 1, 1)
    assert is_terminal(P4_FAN) and is_reflexive(P4_FAN)
    assert multiplicity(P4_FAN) == 1
    assert normalized_volume(P4_ANTI) == 625
    assert count_points_dilate(P4_ANTI, 1) == 126


def test_unit_simplex_delta():
    s = LatticeSimplex.of([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert delta_of_simplex(s).entries == (1, 0, 0, 0)


def test_dim10_simplex():
    assert normalized_volume(DIM10_SIMPLEX) == 54
    assert delta_of_simplex(DIM10_SIMPLEX).entries == (1, 1, 1, 1, 9, 28, 9, 1, 1, 1, 1)
    assert multiplicity(DIM10_SIMPLEX) == 3
    assert is_terminal(DIM10_SIMPLEX)
    assert is_reflexive(DIM10_SIMPLEX)


def test_box_points_sum_to_volume(rng):
    for _ in range(25):
        s = random_reflexive_simplex(rng)
        data = box_points(s)
        assert data.total == normalized_volume(s)
        assert delta_of_simplex(s).palindromic  # reflexive -> symmetric


def test_delta_dominated_by():
    target = validate_delta([1, 1, 1, 1, 1])
    assert delta_dominated_by(P4_FAN, target)
    assert not delta_dominated_by(P4_ANTI, validate_delta([1, 1, 1, 1, 1]))


def test_terminal_examples():
    assert is_terminal(LatticeSimplex.of([[1, 0], [0, 1], [-1, -1]]))
    # conv(e1, e2, (-1,-2)) picks up an extra boundary point
    s = LatticeSimplex.of([[1, 0], [0, 1], [-1, -2]])
    assert count_points_dilate(s, 1) == 5
    assert not is_terminal(s)


def test_multiplicity_examples():
    assert multiplicity(LatticeSimplex.of([[1, 0], [0, 1], [-1, -1]])) == 1
    # an index-2 sublattice configuration
    assert multiplicity(LatticeSimplex.of([[1, 1], [1, -1], [-2, 0]])) == 2
    with pytest.raises(ValueError):
        multiplicity(LatticeSimplex.of([[0, 0], [2, 2], [1, 1]]))


def test_count_points_brute_agrees(rng):
    fixed = [
        P12333, P4_FAN,
        LatticeSimplex.of([[1, 0], [0, 1], [-1, -1]]),
        LatticeSimplex.of([[1, 0], [0, 1], [-1, -2]]),
    ]
    for s in fixed:
        for m in (0, 1, 2, 3):
            assert count_points_brute(s, m) == count_points_dilate(s, m)
    for _ in range(12):
        s = random_reflexive_simplex(rng, d_max=4)
        for m in (1, 2, 3):
            assert count_points_brute(s, m) == count_points_dilate(s, m)


def test_box_points_non_cyclic_group(rng):
    # doubling every vertex of a d-simplex makes at least two Smith factors
    # of the cone matrix exceed 1, so the box group is not cyclic
    for _ in range(6):
        s = random_reflexive_simplex(rng, d_max=3)
        doubled = LatticeSimplex.of([[2 * x for x in v] for v in s.vertices])
        cone = IntMatrix([list(v) + [1] for v in doubled.vertices])
        assert sum(f > 1 for f in elementary_divisors(cone)) >= 2
        assert box_points(doubled).total == normalized_volume(doubled)
        for m in (1, 2, 3):
            assert count_points_brute(doubled, m) == count_points_dilate(doubled, m)


def test_count_points_brute_bounds():
    with pytest.raises(ValueError):
        count_points_brute(P4_FAN, 4)


def test_echelon_form_fixed_order_invariance(rng):
    # right multiplication by a unimodular matrix never changes the form
    s = LatticeSimplex.of([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -2, -3]])
    base = echelon_form(s)
    for _ in range(20):
        u = random_unimodular(rng, 3)
        verts = [
            [sum(v[k] * u[k][j] for k in range(3)) for j in range(3)]
            for v in s.vertices
        ]
        assert echelon_form(LatticeSimplex.of(verts)) == base


def test_canonical_form_invariance(rng):
    simplices = [
        LatticeSimplex.of([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -2, -3]]),
        P12333,
        P4_FAN,
    ]
    for s in simplices:
        base = canonical_form(s)
        for _ in range(10):
            t = transform_simplex(s, random_unimodular(rng, s.d), rng)
            assert canonical_form(t) == base


def test_canonical_form_separates(rng):
    a = LatticeSimplex.of([[1, 0], [0, 1], [-1, -1]])
    b = LatticeSimplex.of([[1, 0], [0, 1], [-1, -2]])
    assert canonical_form(a) != canonical_form(b)
    assert not lattice_isomorphic(a, b)
    assert lattice_isomorphic(
        a, transform_simplex(a, random_unimodular(rng, 2), rng)
    )


def test_canonical_form_dim10_fast():
    import time

    t0 = time.monotonic()
    cf = canonical_form(DIM10_SIMPLEX)
    assert time.monotonic() - t0 < 30
    assert len(cf) == 11 and len(cf[0]) == 10


def test_origin_interior():
    assert origin_interior(P12333)
    assert not origin_interior(LatticeSimplex.of([[0, 0], [1, 0], [0, 1]]))


def test_from_text_roundtrip():
    s = LatticeSimplex.from_text(str(P12333))
    assert s == P12333
    assert LatticeSimplex.from_text("1 0\n0 1\n-1 -1\n").d == 2


def test_volume_is_multiplicity_times_weight_sum():
    # for the quotient constructions, d! vol = mult * h
    assert normalized_volume(DIM10_SIMPLEX) == multiplicity(DIM10_SIMPLEX) * 18


def test_canonical_form_without_interior_origin(rng):
    # vertices with a zero coefficient in the canonical relation (the
    # origin sits on a vertex here) still canonicalize invariantly
    s = LatticeSimplex.of([[0, 0], [1, 0], [0, 1]])
    base = canonical_form(s)
    for _ in range(10):
        t = transform_simplex(s, random_unimodular(rng, 2), rng)
        assert canonical_form(t) == base
