"""D-optimal experimental design for the Rasch Poisson counts model.

Binary rule settings, interaction models of arbitrary order, the
polynomial inequality system characterizing corner-design optimality,
equivalence-theorem certificates, a multiplicative design optimizer, and
the spectrahedral geometry of information matrix polytopes.
"""

__version__ = "0.1.0"

from .exceptions import (
    InfeasibleStart,
    InputFormatError,
    ModelSizeError,
    MonotonicityError,
    NoBracket,
    NotInAffineHull,
    NotSaturated,
    NumericalCheckError,
    RaschDesignError,
    SingularInformation,
    SingularSupport,
)
from .model import (
    Design,
    InteractionModel,
    ParameterVector,
    choose,
    fisher_information,
    intensities,
    intensity,
    inverse_model_matrix,
    mask_subset,
    model_matrix,
    regression_matrix,
    regression_vector,
    setting_bits,
    setting_mask,
    setting_string,
    subset_mask,
    transform_vector,
)
from .regions import (
    MonomialInequality,
    OptimalityVerdict,
    corner_design,
    corner_inequalities,
    corner_lhs,
    evaluate_inequality,
    is_corner_optimal_by_theorem,
    kw_certificate,
    redundancy_probe,
    region_slice,
    saturated_kw_values,
    sensitivities,
    symmetric_slice,
)
from .optimizer import (
    DesignStructure,
    OptimizerConfig,
    OptimizerResult,
    caratheodory_bound,
    classify_structure,
    find_transition,
    optimize_design,
)
from .geometry import (
    CenterResult,
    CenterStatus,
    LmiSlice,
    MembershipResult,
    PolytopeModel,
    analytic_center,
    center_path,
    lmi_slice,
    log_det_gradient_hessian,
    polytope_membership,
    polytope_vertices,
    vertex_coordinates,
)
from .symmetry import (
    GroupElement,
    Representation,
    act_on_design,
    act_on_parameters,
    act_on_setting,
    representation_matrix,
    verify_transformation,
)
from .serialize import load_design, load_parameters, save_design, save_parameters

__all__ = [
    "__version__",
    # model
    "InteractionModel", "ParameterVector", "Design",
    "regression_vector", "regression_matrix", "intensity", "intensities",
    "fisher_information", "model_matrix", "inverse_model_matrix",
    "transform_vector", "choose", "subset_mask", "mask_subset",
    "setting_mask", "setting_bits", "setting_string",
    # regions
    "MonomialInequality", "OptimalityVerdict", "corner_design",
    "corner_inequalities", "corner_lhs", "evaluate_inequality",
    "is_corner_optimal_by_theorem",
    "kw_certificate", "saturated_kw_values", "sensitivities",
    "symmetric_slice", "region_slice", "redundancy_probe",
    # optimizer
    "OptimizerConfig", "OptimizerResult", "DesignStructure",
    "optimize_design", "classify_structure", "find_transition",
    "caratheodory_bound",
    # geometry
    "PolytopeModel", "LmiSlice", "CenterResult", "CenterStatus",
    "MembershipResult", "polytope_vertices", "lmi_slice", "analytic_center",
    "polytope_membership", "center_path", "vertex_coordinates",
    "log_det_gradient_hessian",
    # symmetry
    "GroupElement", "Representation", "act_on_setting", "act_on_design",
    "act_on_parameters", "representation_matrix", "verify_transformation",
    # serialization
    "load_parameters", "save_parameters", "load_design", "save_design",
    # exceptions
    "RaschDesignError", "InputFormatError", "ModelSizeError",
    "SingularInformation", "NotSaturated", "SingularSupport", "NoBracket",
    "InfeasibleStart", "NotInAffineHull", "MonotonicityError",
    "NumericalCheckError",
]
