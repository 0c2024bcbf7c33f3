"""Combings, displacement kernels, and uniformly bounded affine actions on
finitely presented groups, certified numerically at desk scale."""

from .groups import (
    BallCapError,
    CayleyBall,
    GroupPresentation,
    OutOfBallError,
    PresentationError,
    ball,
    free_reduce,
    invert,
    parse_presentation,
)
from .bicombing import (
    Chain1,
    TriplePolicy,
    antisymmetrize,
    area,
    boundary,
    combing_chain,
    empirical_area_constant,
    make_bicombing,
    quasi_geodesic_constants,
    translate_chain,
)
from .kernel import (
    SlotEmbedding,
    cnd_min_eigenvalue,
    displacement_decomposition,
    empirical_displacement_constant,
    kernel_cross_validate,
    kernel_dump,
    kernel_from_bicombing,
    two_triangle_bound,
)
from .espace import (
    BoundCheck,
    EVector,
    MeanZeroError,
    PropernessError,
    check_cocycle_identity,
    cocycle,
    norm_e,
    norm_f,
    op_norm_lower_bound,
    per_vector_bound_check,
    properness_report,
    quadratic_form,
    rep_apply,
    uniform_bound,
)
from .actions import (
    ActionError,
    QuasiTreeKernelInput,
    TreeActionSpec,
    orbit_growth_report,
    orbit_kernel,
    parse_action,
    parse_quasitree_csv,
    validate_quasitree_kernel,
)

__version__ = "0.1.0"
