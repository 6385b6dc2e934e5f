"""4D curvature operators: wedge algebra, block decomposition, cone, flow."""

from .cone import (
    ConeFunctionals,
    ConeParams,
    FrameOctet,
    extremal_frame,
    frame_functionals,
    hamilton_intermediate_slack,
    hat_f,
    implies_wpic,
    is_c01,
    is_member,
    lower_bound_l,
    null_vector_verify,
    ricci_pinch_check,
    sampled_inf,
    two_nonneg_flag,
    uniform_pic_check,
)
from .cutoff import (
    CutoffSpec,
    base_profile,
    theorem_variant_check,
    verify_cutoff,
)
from .decomposition import (
    BlockData,
    SelfDualBasis,
    block_sharp3,
    block_sharp_identity,
    block_spectra,
    canonical_selfdual_basis,
    decompose,
    hodge_star,
    mixed_sharp3,
    norm_identity_check,
    reassemble,
    weyl,
)
from .flow import (
    StepUnderflowError,
    Trajectory,
    TrajectoryConfig,
    integrate,
    invariance_monitor,
    l_inequality_monitor,
    reaction_rhs,
)
from .sampling import (
    SamplerConfig,
    boundary_member,
    random_bianchi,
    random_member,
    random_nonmember,
)
from .wedge import (
    barrier_q_expansion,
    bianchi_residual,
    frobenius,
    identity_operator,
    kulkarni_nomizu,
    lie_bracket,
    operator_from_json_dict,
    operator_to_json_dict,
    project_bianchi,
    q_operator,
    ricci,
    scalar,
    sharp,
    sharp_coord,
    structure_constants,
    traceless_ricci,
)

__version__ = "0.1.0"
