"""The package namespace: its exports, resolved on first access."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import raschdesign as rd

#: The public names, by the submodule that defines them.
EXPORTS = {
    "model": [
        "InteractionModel", "ParameterVector", "Design", "regression_vector",
        "regression_matrix", "intensity", "intensities", "fisher_information", "choose",
        "subset_mask", "mask_subset", "setting_mask", "setting_bits", "setting_string",
    ],
    "regions": [
        "MonomialInequality", "OptimalityVerdict", "corner_design", "corner_inequalities",
        "corner_lhs", "evaluate_inequality", "is_corner_optimal_by_theorem",
        "kw_certificate", "saturated_kw_values", "sensitivities", "symmetric_slice",
        "region_slice", "redundancy_probe",
    ],
    "optimizer": [
        "OptimizerResult", "DesignStructure", "optimize_design", "classify_structure",
        "find_transition", "caratheodory_bound",
    ],
    "geometry": [
        "PolytopeModel", "CenterResult", "CenterStatus", "MembershipResult",
        "polytope_vertices", "analytic_center", "polytope_membership", "center_path",
        "vertex_coordinates", "log_det_gradient_hessian",
    ],
    "symmetry": [
        "GroupElement", "Representation", "act_on_setting", "act_on_design",
        "act_on_parameters", "representation_matrix", "verify_transformation",
    ],
    "serialize": ["load_parameters", "save_parameters", "load_design", "save_design"],
    "exceptions": [
        "RaschDesignError", "InputFormatError", "ModelSizeError", "SingularInformation",
        "NotSaturated", "SingularSupport", "NoBracket", "InfeasibleStart",
        "NotInAffineHull", "MonotonicityError", "NumericalCheckError",
    ],
}
HOME = {name: module for module, names in EXPORTS.items() for name in names}


def test_all_lists_every_export():
    assert len(HOME) == 65
    assert set(rd.__all__) == {"__version__", *HOME}
    assert len(rd.__all__) == len(set(rd.__all__))
    # the polytope carries its own slice: no separate slice class or builder
    assert not any(hasattr(module, name) for module in (rd, rd.geometry)
                   for name in ("LmiSlice", "lmi_slice"))
    # the model matrix and its inverse are test oracles, in conftest
    assert not any(hasattr(module, name) for module in (rd, rd.model)
                   for name in ("model_matrix", "inverse_model_matrix", "transform_vector"))


@pytest.mark.parametrize("name", sorted(HOME))
def test_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"raschdesign.{HOME[name]}")
    assert getattr(rd, name) is getattr(home, name)


def test_dir_lists_every_export():
    assert {"__all__", *rd.__all__, *EXPORTS} <= set(dir(rd))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from raschdesign import *", namespace)
    assert set(rd.__all__) <= set(namespace)
    assert namespace["fisher_information"] is rd.fisher_information


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(rd, "no_such_name")
    with pytest.raises(ImportError):
        exec("from raschdesign import no_such_name", {})


def test_import_loads_only_the_lazy_numpy_binding(fresh_python):
    code = (
        "import raschdesign, sys; "
        "print(' '.join(sorted(n for n in sys.modules if n.startswith('raschdesign.'))))"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert set(out.stdout.split()) <= {"raschdesign._numpy"}


def test_submodules_resolve_as_attributes(fresh_python):
    code = (
        "import sys; import raschdesign as rd; "
        "assert rd.regions is sys.modules['raschdesign.regions']; "
        "from raschdesign import optimizer; "
        "assert optimizer is sys.modules['raschdesign.optimizer']; "
        "assert rd.find_transition is optimizer.find_transition"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr


def test_no_module_touches_numpy_on_import(fresh_python):
    # the rule of _numpy, for every module, also those that cli imports
    # only inside a command
    names = sorted(path.stem for path in (Path(__file__).resolve().parents[1]
                                          / "src" / "raschdesign").glob("*.py"))
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module('raschdesign' if name == '__init__' "
        "else 'raschdesign.' + name)\n"
        "print(type(sys.modules['numpy']).__name__)"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "_LazyModule"


def test_missing_numpy_is_a_module_not_found_error(fresh_python):
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "try:\n"
        "    import raschdesign.model\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


def test_readme_library_example_runs(fresh_python):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False ((1, 2, 3, 4),)"


def unreachable_statements(tree):
    """(line, statement) of every statement that follows a return, raise,
    break or continue in the same block."""
    ends = (ast.Return, ast.Raise, ast.Break, ast.Continue)
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for before, after in zip(block, block[1:]):
                if isinstance(before, ends):
                    yield after.lineno, type(after).__name__


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parents[1] / "src" / "raschdesign").glob("*.py")
), ids=lambda path: path.name)
def test_no_statement_follows_a_jump(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(unreachable_statements(tree)) == []
