"""lcsflow: twisted exterior calculus and Moser-type stability on flat tori.

The package has three layers:

* spectral exterior calculus on T^n grids (`forms`), with the twisted
  differential d_theta = d - theta^ , its adjoint and a per-mode Hodge
  solver for constant Lee covectors (`twisted`);
* the Moser isotopy machinery for families of locally conformally
  symplectic forms: gauge normalization, exactness certificates, the
  primitive-to-vector-field step, RK4 flow transport and conformal
  comparison of pullbacks (`moser`, `families`);
* exact rational twisted cohomology of simplicial complexes and
  torus-bundle (mapping torus) surrogates (`simplicial`, `mapping_torus`)
  on exact ranks (`exactlinalg`: certified mod 2^31 - 1, with Bareiss
  elimination as the fallback), plus a small scenario runner with JSON
  configs (`runner`).

It holds what the pipeline, the runner, the demos and the benchmark run;
reference operators that only the tests use (the flat Hodge star, the
vertex gauge transform of a local system) live with the tests.
"""

__version__ = "0.1.0"

from .forms import (
    DiffForm,
    GridSpec,
    GridMismatch,
    DegreeError,
    contract,
    ext_d,
    form_from_components,
    l2_inner,
    random_band_limited,
    scalar_form,
    wedge,
)
from .twisted import (
    DegenerateForm,
    LcsForm,
    LeeForm,
    NotLcs,
    codifferential,
    d_theta,
    d_theta_star,
    hodge_decompose,
    lee_form,
    pfaffian_values,
    solve_primitive,
    torus_twisted_betti,
)
from .families import (
    ExactData,
    FormFamily,
    area_interpolation_family,
    contact_circle_family,
    corollary_two_family,
    gcs_rescale_family,
    lee_drift_family,
    tabulated_family,
)
from .moser import (
    ConformalComparison,
    ExactnessCertificate,
    FlowState,
    InconsistentLeeDerivative,
    IsotopyDiverged,
    LeeClassDrift,
    MoserReport,
    NoValidComponents,
    NotExact,
    NotExactFamily,
    PipelineOptions,
    StepCountTooSmall,
    conformal_compare,
    exactness_certificate,
    integrate_isotopy,
    moser_vector_field,
    normalize_family,
    pullback_form,
    run_exact_family,
    run_theorem_pipeline,
    verify_eq1,
)
from .simplicial import (
    CocycleViolation,
    LocalSystem,
    SimplicialComplex,
    TwistedBettiResult,
    build_complex,
    coboundary_matrix,
    local_system,
    twisted_betti,
)
from .mapping_torus import (
    SingularThresholdAmbiguous,
    WrongDimension,
    example_inequality_check,
    exterior_power,
    hyperbolic_example,
    mapping_torus_betti,
    toral_product_example,
)

__all__ = [
    "__version__",
    # forms
    "DiffForm", "GridSpec", "GridMismatch", "DegreeError", "contract",
    "ext_d", "form_from_components", "l2_inner",
    "random_band_limited", "scalar_form", "wedge",
    # twisted calculus
    "DegenerateForm", "LcsForm", "LeeForm", "NotLcs", "codifferential",
    "d_theta", "d_theta_star", "hodge_decompose", "lee_form",
    "pfaffian_values", "solve_primitive", "torus_twisted_betti",
    # families
    "ExactData", "FormFamily", "area_interpolation_family",
    "contact_circle_family", "corollary_two_family", "gcs_rescale_family",
    "lee_drift_family", "tabulated_family",
    # moser
    "ConformalComparison", "ExactnessCertificate", "FlowState",
    "InconsistentLeeDerivative", "IsotopyDiverged", "LeeClassDrift",
    "MoserReport", "NoValidComponents", "NotExact", "NotExactFamily",
    "PipelineOptions", "StepCountTooSmall", "conformal_compare",
    "exactness_certificate", "integrate_isotopy", "moser_vector_field",
    "normalize_family", "pullback_form", "run_exact_family",
    "run_theorem_pipeline", "verify_eq1",
    # simplicial / mapping torus
    "CocycleViolation", "LocalSystem", "SimplicialComplex",
    "TwistedBettiResult", "build_complex", "coboundary_matrix",
    "local_system", "twisted_betti",
    "SingularThresholdAmbiguous", "WrongDimension",
    "example_inequality_check", "exterior_power", "hyperbolic_example",
    "mapping_torus_betti", "toral_product_example",
]
