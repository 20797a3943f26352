"""Computational laboratory for circle tangency counting.

Circles are lifted to points of R^3 (planar center plus radius as height);
the package generates circle families, counts exact and near tangencies,
enumerates incomparable light-cone planks with their richness statistics,
and drives the scaling experiments and tail checks built on top of those
kernels.
"""

from .errors import (
    ConcentricError,
    DegenerateSweepError,
    EmptyFamilyError,
    InvalidParamsError,
    NotNearTangentError,
    TangencyLabError,
    ValidationError,
)
from .families import (
    CircleFamily,
    OccupancyProfile,
    annular_box,
    check_frostman,
    check_separation,
    cube_box,
    cube_occupancy,
    gen_clamshell,
    gen_integer_lattice,
    gen_maximal_separated,
    gen_random_wellspaced,
    load_family,
    unit_box,
)
from .geometry import (
    Circle3,
    Lightplank,
    PlankBatch,
    PlankFrame,
    Rect2,
    annulus_contains_rect,
    delta_gap,
    is_exact_tangent_int,
    plank_axes,
    plank_comparable,
    plank_contains,
    tangency_rect,
)
from .incidence import (
    TangencyPairSet,
    bin_dyadic,
    count_ct0_exact,
    count_ct_delta_bruteforce,
    count_ct_delta_hashed,
    lift_rect,
)
from .planks import (
    PlankCollection,
    RichnessTable,
    bilinear_rich,
    enumerate_incomparable,
    mu_buckets,
    richness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
