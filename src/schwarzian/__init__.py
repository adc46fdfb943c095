"""Deciding, reconstructing and classifying Schwarzian primitives of
rational maps on the Riemann sphere."""

from .algebra import (
    INF,
    J,
    Mobius,
    Poly,
    RationalMap,
    TruncatedSeries,
    is_inf,
    mobius_from_triples,
    poly_gcd,
    poly_resultant,
    poly_roots,
)
from .cubic import (
    criticality_discriminant,
    cross_ratio,
    cubic_fiber_explicit,
    four_group,
    h_alpha,
    is_regular_tetrahedron,
    lift_correspondence,
    ratio_orbit,
)
from .errors import (
    DegenerateInput,
    NoSolutionFound,
    NonConvergence,
    ObstructionNonzero,
    PoleTooHigh,
    SchwarzianError,
)
from .fiber import (
    FiberSolveReport,
    NormalizedMapCoords,
    catalan,
    coords_to_map,
    local_g,
    local_primitive,
    reconstruct_rational,
    solve_fiber,
    wronskian,
    wronskian_jacobian,
)
from .primitivity import (
    CriticalConfiguration,
    HolonomyClass,
    L_values,
    build_phi,
    check_polynomial_criterion,
    check_rational_criterion,
    classify_holonomy,
    condition_determinant,
    k_coefficients,
    merom_generator,
    series_obstruction,
    y_polynomial,
)
from .quaddiff import (
    InfinityType,
    LaurentData,
    critical_points,
    e_sums,
    infinity_type,
    laurent_at,
    numerator_wronskian,
    pole_report,
    schwarzian,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
