"""The package exports exactly the public names its modules declare.

Each module's ``__all__`` is the only list of its public names;
``pencilkit/__init__.py`` re-exports them.  The exported set is pinned so
that adding or dropping a public name is a deliberate, visible change.
"""

import importlib
import pkgutil

import pencilkit

EXPORTED = [
    "BlockDirectSum", "ChainGenerator", "ChainReport", "CheckResult",
    "DEFAULT_HALF_PLANE_PROBES", "DHDiagnostics", "DHReport", "DHSectionMats",
    "DHStructure", "DenseBlock", "Diagonal", "FORMAT_VERSION", "Fixture", "FormatError",
    "GramReport", "INFINITY", "Identity", "L2N", "L2Z", "Pencil", "PointClassification",
    "PolynomialSequence", "QuadratureError", "ResidualRow", "RuleOperator", "Scale",
    "SectionWindow", "SectionedPencil", "Shift", "Space", "SparseVec",
    "StackedCertificate", "StructuredOperator", "Sum", "Trajectory", "UniquenessReport",
    "VectorPolynomial", "WeightRule", "Zero", "__version__", "approx_kernel_sequence",
    "basis_vec", "chain_to_polynomial", "classify_point", "constant_weight", "dh_classify",
    "dh_common_kernel", "dh_kernel_EJR", "dh_section_mats", "direct_sum",
    "distance_to_singularity_bound", "extract_left_chain", "extract_right_chain", "finite",
    "fixture_names", "get_fixture", "gram_lower_bound", "joint_kernel_defect",
    "load_pencil", "mild_residual", "operator_matrix", "pencil_from_json", "pencil_to_json",
    "polynomial_roots_check", "polynomial_solution", "power_balance_residual",
    "reduce_polynomial", "regularity_disc", "run_fixture", "save_pencil", "section",
    "sequence_residuals", "series_solution", "spectra_grid", "subspace_angle",
    "uniqueness_demo", "vec_add", "vec_iadd", "vec_inner", "vec_norm", "vec_scale",
    "vec_sub", "verify_dh_structure", "verify_singular_function",
    "verify_singular_polynomial", "window_for",
]


def _public_modules():
    for info in pkgutil.iter_modules(pencilkit.__path__):
        module = importlib.import_module(f"pencilkit.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_exported_names_are_pinned():
    assert len(EXPORTED) == 86
    assert sorted(pencilkit.__all__) == EXPORTED
    assert len(set(pencilkit.__all__)) == len(pencilkit.__all__)


def test_every_module_public_name_is_exported_and_resolves():
    declared = set()
    for module in _public_modules():
        for name in module.__all__:
            assert name in pencilkit.__all__, f"{module.__name__}.{name} is not exported"
            assert getattr(pencilkit, name) is getattr(module, name)
            declared.add(name)
    assert declared == set(pencilkit.__all__) - {"__version__"}
