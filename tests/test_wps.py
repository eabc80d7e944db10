import math

import pytest
from helpers import small_gorenstein_systems

from ehrhart_lab.delta import ehrhart_polynomial
from ehrhart_lab.lattice import (
    delta_of_simplex,
    is_terminal as simplex_is_terminal,
    lattice_isomorphic,
    LatticeSimplex,
    multiplicity,
    normalized_volume,
)
from ehrhart_lab.wps import (
    NotGorensteinError,
    WeightSystem,
    anticanonical_degree,
    divides_anticanonical_degree,
    enumerate_weights,
    is_gorenstein,
    is_terminal,
    is_well_formed,
    satisfies_terminal_inequalities,
    simplex_from_weights,
    wps_delta,
)

# the 24 candidate rows for the dimension-10 search (multiplicity, weights),
# as independently recomputed; frozen here to pin the enumeration
TABLE_D10_SUM54 = [
    (1, "1,1,1,1,1,1,6,6,9,9,18"),
    (1, "1,1,1,1,2,3,3,6,9,9,18"),
    (1, "1,1,1,1,2,3,6,6,6,9,18"),
    (1, "1,1,1,1,2,6,6,9,9,9,9"),
    (1, "1,1,1,2,2,2,3,6,9,9,18"),
    (1, "1,1,1,2,2,2,6,6,6,9,18"),
    (1, "1,1,2,2,2,2,2,6,9,9,18"),
    (1, "1,1,2,2,3,3,3,3,9,9,18"),
    (1, "1,1,2,2,3,3,3,6,6,9,18"),
    (1, "1,1,2,2,3,3,6,6,6,6,18"),
    (1, "1,1,2,2,3,3,6,9,9,9,9"),
    (1, "1,1,2,2,3,6,6,6,9,9,9"),
    (1, "1,1,2,2,6,6,6,6,6,9,9"),
    (1, "1,2,2,2,2,3,3,3,9,9,18"),
    (1, "1,2,2,2,2,3,3,6,6,9,18"),
    (1, "1,2,2,2,2,3,6,9,9,9,9"),
    (1, "1,2,2,2,2,6,6,6,9,9,9"),
    (1, "2,2,2,2,2,2,3,3,9,9,18"),
    (3, "1,1,1,1,1,1,1,1,1,3,6"),
    (3, "1,1,1,1,1,1,1,1,2,2,6"),
    (3, "1,1,1,1,1,1,1,2,3,3,3"),
    (3, "1,1,1,1,1,1,2,2,2,3,3"),
    (3, "1,1,1,1,1,2,2,2,2,2,3"),
    (3, "1,1,1,1,2,2,2,2,2,2,2"),
]


def test_weight_system_construction():
    w = WeightSystem.of([3, 1, 2])
    assert w.weights == (1, 2, 3) and w.h == 6 and w.d == 2
    with pytest.raises(ValueError):
        WeightSystem.of([0, 1])
    with pytest.raises(ValueError):
        WeightSystem((2, 1))  # must already be sorted


def test_well_formed():
    assert is_well_formed(WeightSystem.of([1, 2, 3, 3, 3]))
    assert not is_well_formed(WeightSystem.of([2, 2, 4]))
    assert is_well_formed(WeightSystem.of([2, 2, 2, 2, 2, 2, 3, 3, 9, 9, 18]))
    assert not is_well_formed(WeightSystem.of([1, 2, 4]))


def test_gorenstein():
    assert is_gorenstein(WeightSystem.of([1, 2, 3, 3, 3]))
    assert is_gorenstein(WeightSystem.of([1, 1, 1, 1, 1]))
    assert not is_gorenstein(WeightSystem.of([1, 2, 4]))


def test_terminal_inequalities():
    assert satisfies_terminal_inequalities(
        WeightSystem.of([1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3])
    )
    assert not satisfies_terminal_inequalities(WeightSystem.of([1, 1, 9]))
    assert satisfies_terminal_inequalities(WeightSystem.of([1, 1, 1]))


def test_terminal_exact():
    assert is_terminal(WeightSystem.of([1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3]))
    assert is_terminal(WeightSystem.of([1, 1, 1]))
    assert not is_terminal(WeightSystem.of([1, 1, 2]))
    with pytest.raises(NotGorensteinError):
        is_terminal(WeightSystem.of([1, 1, 3]))


def test_terminal_matches_simplex_count():
    # the arithmetic terminality test against the geometric one
    for w in [
        WeightSystem.of([1, 1, 1]),
        WeightSystem.of([1, 1, 2]),
        WeightSystem.of([1, 1, 1, 1]),
        WeightSystem.of([1, 1, 2, 2]),
        WeightSystem.of([1, 2, 3, 3, 3]),
        WeightSystem.of([1, 1, 2, 2, 3, 3]),
    ]:
        if not is_gorenstein(w):
            continue
        s = simplex_from_weights(w)
        assert is_terminal(w) == simplex_is_terminal(s)


def test_wps_delta_examples():
    assert wps_delta(WeightSystem.of([1, 1, 1, 1, 1])).entries == (1, 1, 1, 1, 1)
    dv = wps_delta(WeightSystem.of([1, 2, 3, 3, 3]))
    assert dv.total == 12 and dv.palindromic
    w10 = WeightSystem.of([1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3])
    dq = wps_delta(w10)
    assert dq.total == 18
    scaled = [c * math.factorial(10) / 18 for c in ehrhart_polynomial(dq).coeffs]
    assert scaled == [
        201600, 590160, 815756, 467560, 274945, 50085, 17843, 990, 255, 5, 1,
    ]
    with pytest.raises(NotGorensteinError):
        wps_delta(WeightSystem.of([1, 2, 4]))


def test_anticanonical_degree():
    assert anticanonical_degree(WeightSystem.of([1, 2, 3, 3, 3])) == 384
    assert anticanonical_degree(WeightSystem.of([1, 2, 2, 3, 4])) == 432
    assert anticanonical_degree(WeightSystem.of([1, 1, 1, 1, 1])) == 625
    assert divides_anticanonical_degree(WeightSystem.of([1, 2, 3, 3, 3]), 2)
    assert not divides_anticanonical_degree(WeightSystem.of([1, 1, 1, 1, 1]), 2)


def test_simplex_from_weights():
    s = simplex_from_weights(WeightSystem.of([1, 2, 3, 3, 3]))
    assert multiplicity(s) == 1
    assert normalized_volume(s) == 12
    assert lattice_isomorphic(
        s,
        LatticeSimplex.of(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
             [-2, -3, -3, -3]]
        ),
    )
    p4 = simplex_from_weights(WeightSystem.of([1, 1, 1, 1, 1]))
    assert lattice_isomorphic(
        p4,
        LatticeSimplex.of(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
             [-1, -1, -1, -1]]
        ),
    )


def test_wps_delta_matches_box_points():
    for w in small_gorenstein_systems(d_max=5, h_max=16):
        s = simplex_from_weights(w)
        assert delta_of_simplex(s) == wps_delta(w), str(w)
        assert normalized_volume(s) == w.h
        assert wps_delta(w).palindromic == is_gorenstein(w)


def test_enumerate_weights_small():
    assert [str(w) for w in enumerate_weights(2, 3)] == ["1,1,1"]
    assert [str(w) for w in enumerate_weights(4, 5)] == ["1,1,1,1,1"]
    assert enumerate_weights(2, 2) == []


def test_enumerate_weights_dimension10():
    rows = []
    for mult, h in ((1, 54), (2, 27), (3, 18)):
        for w in enumerate_weights(10, h):
            if divides_anticanonical_degree(w, mult):
                rows.append((mult, str(w)))
    assert rows == TABLE_D10_SUM54


def test_enumerate_weights_deterministic():
    a = [str(w) for w in enumerate_weights(10, 54)]
    b = [str(w) for w in enumerate_weights(10, 54)]
    assert a == b == sorted(a)


def _sorted_partitions(total: int, parts: int, lo: int = 1):
    """Every nondecreasing tuple of `parts` integers >= lo summing to total,
    in lexicographic order."""
    if parts == 1:
        if total >= lo:
            yield (total,)
        return
    for first in range(lo, total // parts + 1):
        for rest in _sorted_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def test_enumerate_weights_against_brute_force():
    # the pruned recursion must lose nothing: compare with every partition
    # of h into d+1 parts that passes the three predicates
    for d in range(1, 7):
        for h in range(d + 1, (36 if d <= 4 else 24) + 1):
            brute = [
                w for w in map(WeightSystem, _sorted_partitions(h, d + 1))
                if is_well_formed(w) and is_gorenstein(w) and is_terminal(w)
            ]
            assert enumerate_weights(d, h) == brute, (d, h)
