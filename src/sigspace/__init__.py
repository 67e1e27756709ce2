"""Invariant geometry, measures, and finite-stage quantum state nets
over homogeneous spaces of scalar products of fixed signature.
"""
from .errors import (
    DegenerateForm,
    EmptyDomain,
    GridTooCoarse,
    LabelNotContained,
    LinearlyDependentInput,
    MinorBreakdown,
    MissingPoint,
    NotInvariantSubspace,
    PointNotInField,
    QuadratureDomainTooSmall,
    SignatureMismatch,
    SigspaceError,
    SingularFrame,
    SingularGroupElement,
    UnsupportedDimension,
)
from .forms import (
    InverseForm,
    Signature,
    SymmetricForm,
    inverse_form,
    random_form,
    random_forms,
    signature_of,
)
from .group import (
    GroupElement,
    OrthonormalFrame,
    act,
    action_jacobian,
    adjoint_determinant,
    connecting_path,
    isotropy_algebra_basis,
    lazy_smoothstep,
    orthonormal_basis,
    transitive_witness,
)
from .geometry import (
    CotangentMetric,
    OneForm,
    deformed_metric,
    metric_components,
    metric_signature,
    one_form_components,
    pullback_invariance_residual,
    qinv_alpha_alpha,
)
from .measure import (
    BoxDomain,
    DensityValue,
    InvarianceReport,
    MCEstimate,
    density,
    density_closed_form,
    invariance_experiment,
    mc_integrate,
    pushforward_invariance_residual,
    radial_bump,
)
from .field import (
    DiffeoJacobianField,
    GridPoint,
    MetricFieldGrid,
    PointChart,
    deform_metric_field,
    diffeo_invariance_residual,
    field_density_at,
    frame_independence_residual,
    make_ball_grid,
)
from .projective import (
    Label,
    Observable,
    QuadratureSpec,
    StateDensity,
    StateField,
    TensorSpace,
    compare_labels,
    embed_observable,
    extend_state,
    gram_schmidt_basis,
    join,
    l2_inner_product,
    pure_state_net,
    rescale_isomorphism_check,
    restrict_state,
)

__version__ = "0.1.0"
