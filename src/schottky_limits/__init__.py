"""Exact construction and bounded verification of a rank-2 Schottky group
whose odd/even doubled-word subgroups intersect trivially yet share a radial
limit point on the boundary of the hyperbolic plane."""

from .freewords import (
    DEFAULT_FAMILY,
    SymbolWord,
    Word,
    WordFamily,
    expand,
    is_prefix_free,
    omega,
    reduce,
    reverse,
    theta,
    verify_free_generation,
)
from .mobius import (
    BASE_POINT,
    INFINITY,
    Boundary,
    GeodesicRay,
    GroupElement,
    Interior,
    IsometryClass,
    apply,
    classify,
    compose,
    dist_to_ray,
    hyp_dist,
    inverse,
)
from .schottky import (
    Certificate,
    Circle,
    SchottkyData,
    Violation,
    default_generators,
    nested_disk,
    verify_ping_pong,
    word_to_element,
)
from .limits import (
    QIEstimate,
    RadialWitness,
    enumerate_subgroup,
    estimate_limit_point,
    limit_point_brackets,
    qi_check,
    radial_check,
)

__version__ = "0.1.0"
