"""D-optimal experimental design for the Rasch Poisson counts model.

Binary rule settings, interaction models of arbitrary order, the
polynomial inequality system characterizing corner-design optimality,
equivalence-theorem certificates, a multiplicative design optimizer, and
the spectrahedral geometry of information matrix polytopes.
"""

__version__ = "0.1.0"

#: Each public name, by the submodule that defines it.  A name is imported
#: on first access (PEP 562), so ``import raschdesign`` loads no submodule.
_EXPORTS = {
    "model": (
        "InteractionModel", "ParameterVector", "Design",
        "regression_vector", "regression_matrix", "intensity", "intensities",
        "fisher_information", "choose", "subset_mask", "mask_subset",
        "setting_mask", "setting_bits", "setting_string",
    ),
    "regions": (
        "MonomialInequality", "OptimalityVerdict", "corner_design",
        "corner_inequalities", "corner_lhs", "evaluate_inequality",
        "is_corner_optimal_by_theorem",
        "kw_certificate", "saturated_kw_values", "sensitivities",
        "symmetric_slice", "region_slice", "redundancy_probe",
    ),
    "optimizer": (
        "OptimizerResult", "DesignStructure", "optimize_design",
        "classify_structure", "find_transition", "caratheodory_bound",
    ),
    "geometry": (
        "PolytopeModel", "CenterResult", "CenterStatus", "MembershipResult",
        "polytope_vertices", "analytic_center", "polytope_membership",
        "center_path", "vertex_coordinates", "log_det_gradient_hessian",
    ),
    "symmetry": (
        "GroupElement", "Representation", "act_on_setting", "act_on_design",
        "act_on_parameters", "representation_matrix", "verify_transformation",
    ),
    "serialize": ("load_parameters", "save_parameters", "load_design", "save_design"),
    "exceptions": (
        "RaschDesignError", "InputFormatError", "ModelSizeError",
        "SingularInformation", "NotSaturated", "SingularSupport", "NoBracket",
        "InfeasibleStart", "NotInAffineHull", "MonotonicityError",
        "NumericalCheckError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    import importlib

    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
