"""Universal-cover arithmetic for PSL(2,R): element classification, relative
Euler classes and signs of punctured-surface representations, constructive
builders with prescribed invariants, and hyperbolicity audits on enumerated
simple closed curves."""

from .mobius import (
    ALL_DIRECTIONS,
    Matrix2,
    ProjectiveMatrix,
    PslType,
    axes_cross,
    classify_psl,
    conjugator,
    diag,
    fixed_directions,
    normalize,
    rotation,
)
from .cover import (
    Center,
    CoverClass,
    CoverElement,
    Ell,
    Hyp,
    ParMinus,
    ParPlus,
    Z,
    angle_lift,
    central_index,
    cover_classify,
    cover_conj,
    cover_equal,
    cover_inv,
    cover_mul,
    identity_cover,
    lift_in_class,
    sl_projection,
    sl_trace,
    special_lift,
    z_power,
)
from .words import CurveWord, canonical_form, format_word, parse_word, word
from .surface import (
    Feasibility,
    Representation,
    SignVector,
    SplittingSpec,
    SurfacePresentation,
    euler_class,
    eval_word,
    evaluation_map,
    invariants,
    mw_bounds,
    restrict,
    sign_vector,
    standard_splits,
    twist_deform,
)
from .curves import (
    CurveClassification,
    McgAuto,
    classify_curve,
    default_autos,
    enumerate_scc,
    scc_seeds,
    validate_auto,
)
from .constructors import (
    BuildRequest,
    FactorKind,
    build_boundary_extremal,
    build_negative_control,
    build_rep,
    pgl_flip,
    sample,
    solve_commutator,
    solve_product,
)
from .audit import AuditReport, RestrictionReport, audit_rep, check_restrictions
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
