"""ehrhart-lab: delta-vectors of lattice polytopes, the location of the
roots of their counting polynomials, closed-form classifiers in dimensions
2 through 7, and realization of palindromic delta-vectors with delta_1 = 1
as terminal reflexive simplices via weight systems."""

__version__ = "0.1.0"

from .delta import (
    DeltaVector,
    EhrhartData,
    InvalidDeltaError,
    NotADeltaVectorError,
    cube_delta,
    delta_from_values,
    ehrhart_from_delta,
    ehrhart_polynomial,
    ehrhart_series,
    halve_dilation_delta,
    parse_delta,
    product_delta,
    reciprocity_holds,
    validate_delta,
)
from .exact import (
    IntMatrix,
    RatPoly,
    SingularMatrixError,
    all_roots_real_nonneg,
    binomial_poly,
    discriminant,
    eulerian,
    halfplane_counts,
    integer_adjugate,
    resultant,
    routh_right_halfplane_count,
    smith_normal_form,
    solve_linear_exact,
    sturm_distinct_real_roots,
)

__all__ = [name for name in dir() if not name.startswith("_")]
