"""Distance power sums over regular polygons and Platonic solids.

Closed forms, independent brute-force oracles, locus classification,
distance-system solvers, exact rational/quadratic-surd backends, and the
rational-distance impossibility certificate for the unit regular 24-gon.
"""

from .errors import (
    DegenerateQuarticError,
    DomainError,
    InconsistentDistancesError,
    InexactSqrtError,
    InvalidAverageError,
    MixedRadicandError,
    NegativeDiscriminantError,
    NoAntipodesError,
    NoCertificateFoundError,
    NonRationalInputError,
    OutOfRangeError,
    UnattainableError,
)
from .fields import GOLDEN_RATIO, SQRT5, Surd, exact_sqrt, rel_close, rel_err, sqrt_scalar
from .geometry import (
    PlanePlacement,
    PolygonSpec,
    SolidKind,
    SolidSpec,
    SpacePlacement,
    heron_area_16sq,
    polygon_distance_sq,
    polygon_distances_sq,
    polygon_side_sq,
    polygon_vertex,
    solid_distance_sq,
    solid_distances_sq,
    solid_vertices,
    sum_basis,
)
from .intpoly import (
    DegreeCertificate,
    IntegerPolynomial,
    certify_no_small_factor,
    factor_degrees_mod,
    kronecker_small_factor,
    rational_roots,
)
from .polygon import (
    CyclicAverage,
    Locus,
    circumcircle_residual,
    cyclic_average,
    design_coefficients,
    locus_classify,
    polygon_distances_sq_exact,
    power_sum_brute,
    power_sum_brute_even_exact,
    power_sum_brute_exact,
    power_sum_closed,
    power_sum_closed_sq,
    recover_r2_l2,
    s2m_from_s2,
    s2m_from_s2_s4,
)
from .ratdist import (
    AreaConditionReport,
    QuarticWitness,
    RationalDistanceReport,
    necessary_condition_areas,
    quartic_witness,
    rational24_report,
    side_from_averages,
    sin_pi_24_float,
    sin_pi_24_minimal_polynomial,
)
from .relations import (
    BranchPair,
    opposite_pair_sums,
    recover_spec_from_distances,
    solve_distances,
    square_sixth_factorization_residual,
    square_symmetric_residual,
    subset_sum_residuals,
    triangle_symmetric_residual,
)
from .solids import (
    MAX_POWER_INDEX,
    antipodal_pair_sums,
    circumsphere_residual,
    cube_quadruple_residuals,
    recover_r2_l2_solid,
    solid_cyclic_average,
    solid_locus_classify,
    solid_power_sum_brute,
    solid_power_sum_closed,
    solid_power_sum_closed_sq,
    solid_relation_residuals,
)
from .trigsums import (
    cosine_power_sum,
    multiple_angle_cosine_sum,
    power_reduction_coefficients,
)
from .verify import run_verify

__version__ = "0.1.0"
