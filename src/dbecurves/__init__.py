"""Exact construction and measure certification of piecewise-monotone
curves in the unit cube whose points pairwise agree in exactly one
coordinate.

The library is organized bottom-up: exact rational interval arithmetic,
ordered partitions and their refinements, singular functions and staircase
machinery, curve construction and the pairwise-coordinate checker,
two-sided Hausdorff-measure certification, the combinatorial set-family
search, independent oracles, and randomized property suites.
"""

from .exact import (
    Interval,
    IntervalUnion,
    decimal_str,
    format_rational,
    parse_rational,
)
from .partitions import (
    DomainMismatchError,
    LRPartition,
    RefinementBoundError,
    diam_sum,
    refine,
)
from .singular import (
    Affine,
    Cantor,
    Composition,
    ConstructionError,
    IntervalStaircase,
    MonotoneFn,
    NotEvaluableError,
    PiecewiseLinear,
    RieszNagy,
    RieszNagyImageGrid,
    WeightedSum,
    build_full_measure_mapper,
    build_interval_staircase,
    eval_cantor,
    eval_riesz_nagy,
    image_measure,
)
from .curves import (
    CurveSpec,
    DbeReport,
    ExtremalCurve,
    build_extremal_curve,
    check_dbe_property,
    curve_from_json,
    curve_to_json,
    sample,
)
from .hausdorff import (
    BoxCount,
    H1Certificate,
    LipschitzWitnessError,
    box_count,
    box_count_slope,
    certify_h1,
    check_derivative_bound,
    check_lipschitz_image,
    check_sum_image_bound,
    polyline_length,
    sqrt_enclosure,
    upper_bound_h1,
)
from .setfamily import (
    SetFamily,
    max_family_size,
    near_pencil,
    unique_intersection,
)

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "BoxCount",
    "Cantor",
    "Composition",
    "ConstructionError",
    "CurveSpec",
    "DbeReport",
    "DomainMismatchError",
    "ExtremalCurve",
    "H1Certificate",
    "Interval",
    "IntervalStaircase",
    "IntervalUnion",
    "LRPartition",
    "LipschitzWitnessError",
    "MonotoneFn",
    "NotEvaluableError",
    "PiecewiseLinear",
    "RefinementBoundError",
    "RieszNagy",
    "RieszNagyImageGrid",
    "SetFamily",
    "WeightedSum",
    "box_count",
    "box_count_slope",
    "build_extremal_curve",
    "build_full_measure_mapper",
    "build_interval_staircase",
    "certify_h1",
    "check_dbe_property",
    "check_derivative_bound",
    "check_lipschitz_image",
    "check_sum_image_bound",
    "curve_from_json",
    "curve_to_json",
    "decimal_str",
    "diam_sum",
    "eval_cantor",
    "eval_riesz_nagy",
    "format_rational",
    "image_measure",
    "max_family_size",
    "near_pencil",
    "parse_rational",
    "polyline_length",
    "refine",
    "sample",
    "sqrt_enclosure",
    "unique_intersection",
    "upper_bound_h1",
]
