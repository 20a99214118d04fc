"""tpcalc: exact multi-singularity class expansions, Chern-class calculus on
products of projective spaces, and classical enumerative counts."""

from .algebra import (
    GradedClass,
    RingSpec,
    graded_component,
    integrate_top,
    invert_unit,
    make_ring,
    multiply,
    parse_class,
    render_class,
)
from .chow import (
    ModelError,
    VarietyModel,
    complete_intersection,
    integrate_on,
    product_projective,
)
from .interp import LinearSystem, SolveResult, assemble_system, solve_exact
from .maps import (
    LNIndex,
    MapModel,
    get_model,
    landweber_novikov,
    linear_projection_model,
    projection_from_product,
    pullback,
    pushforward,
    quotient_chern,
    rational_curve_model,
)
from .oracle import CurveParam, double_point_degree, resultant
from .symbolic import SymbolicExpr, c, fs, parse_expr, render_expr, s, sify
from .tpcore import (
    MissingResidual,
    MultiSingType,
    ResidualDB,
    SingType,
    count_points,
    default_db,
    evaluate,
    expand_source,
    expand_target,
    extract_residual,
    get_sing_type,
    multi_type,
    set_partitions,
    thom_porteous,
    verify_generating_series,
)

__version__ = "0.1.0"
