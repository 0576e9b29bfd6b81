"""Structured operator pencils lambda E - A on sequence spaces.

Finite sections, pointwise spectral classification, singular chains and
vector polynomials, approximate polynomial sequences with the Gram bound,
dissipative-Hamiltonian structure checks, trajectories of E x' = A x with
residual certificates, a registry of worked example pencils, and a JSON
interchange format.

Setting ``PENCILKIT_THREADS`` caps BLAS parallelism.  BLAS reads its thread
count once, when numpy first loads it, so the cap only takes effect when
pencilkit is imported before numpy.  Importing the package loads numpy's
BLAS only; ``scipy.linalg``, with a BLAS of its own, is imported on first
use by the computations that need singular vectors, ``expm``, QZ or
subspace angles (see ``pencilkit.linalg``), so most commands run on a
single BLAS.
"""

import os as _os

if _os.environ.get("PENCILKIT_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["PENCILKIT_THREADS"])

from .operators import (
    BlockDirectSum,
    DenseBlock,
    DHStructure,
    Diagonal,
    Identity,
    L2N,
    L2Z,
    Pencil,
    RuleOperator,
    Scale,
    Shift,
    Space,
    StructuredOperator,
    Sum,
    WeightRule,
    Zero,
    constant_weight,
    direct_sum,
    finite,
)
from .sparsevec import (
    SparseVec,
    basis_vec,
    vec_add,
    vec_iadd,
    vec_inner,
    vec_norm,
    vec_scale,
    vec_sub,
)
from .sections import (
    SectionWindow,
    SectionedPencil,
    StackedCertificate,
    distance_to_singularity_bound,
    joint_kernel_defect,
    operator_matrix,
    section,
    window_for,
)
from .spectra import (
    INFINITY,
    PointClassification,
    SpectraGrid,
    classify_point,
    regularity_disc,
    spectra_grid,
)
from .chains import (
    ChainReport,
    VectorPolynomial,
    chain_to_polynomial,
    extract_left_chain,
    extract_right_chain,
    polynomial_roots_check,
    reduce_polynomial,
    verify_singular_polynomial,
)
from .approx import (
    GramReport,
    PolynomialSequence,
    ResidualRow,
    approx_kernel_sequence,
    gram_lower_bound,
    sequence_residuals,
)
from .dh import (
    DEFAULT_HALF_PLANE_PROBES,
    DHDiagnostics,
    DHReport,
    DHSectionMats,
    dh_classify,
    dh_common_kernel,
    dh_kernel_EJR,
    dh_section_mats,
    subspace_angle,
    verify_dh_structure,
)
from .odae import (
    ChainGenerator,
    QuadratureError,
    Trajectory,
    UniquenessReport,
    mild_residual,
    polynomial_solution,
    power_balance_residual,
    series_solution,
    uniqueness_demo,
)
from .fixtures import (
    CheckResult,
    Fixture,
    fixture_names,
    get_fixture,
    run_fixture,
    verify_singular_function,
)
from .serialize import (
    FORMAT_VERSION,
    FormatError,
    load_pencil,
    pencil_from_json,
    pencil_to_json,
    save_pencil,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDirectSum", "DenseBlock", "DHStructure", "Diagonal", "Identity",
    "L2N", "L2Z", "Pencil", "RuleOperator", "Scale", "Shift", "Space",
    "StructuredOperator", "Sum", "WeightRule", "Zero", "constant_weight",
    "direct_sum", "finite",
    "SparseVec", "basis_vec", "vec_add", "vec_iadd", "vec_inner", "vec_norm",
    "vec_scale", "vec_sub",
    "SectionWindow", "SectionedPencil", "StackedCertificate",
    "distance_to_singularity_bound", "joint_kernel_defect", "operator_matrix",
    "section", "window_for",
    "INFINITY", "PointClassification", "SpectraGrid", "classify_point",
    "regularity_disc", "spectra_grid",
    "ChainReport", "VectorPolynomial", "chain_to_polynomial",
    "extract_left_chain", "extract_right_chain", "polynomial_roots_check",
    "reduce_polynomial", "verify_singular_polynomial",
    "GramReport", "PolynomialSequence", "ResidualRow",
    "approx_kernel_sequence", "gram_lower_bound", "sequence_residuals",
    "DEFAULT_HALF_PLANE_PROBES", "DHDiagnostics", "DHReport", "DHSectionMats",
    "dh_classify", "dh_common_kernel", "dh_kernel_EJR", "dh_section_mats",
    "subspace_angle", "verify_dh_structure",
    "ChainGenerator", "QuadratureError", "Trajectory", "UniquenessReport",
    "mild_residual", "polynomial_solution", "power_balance_residual",
    "series_solution", "uniqueness_demo",
    "CheckResult", "Fixture", "fixture_names", "get_fixture", "run_fixture",
    "verify_singular_function",
    "FORMAT_VERSION", "FormatError", "load_pencil", "pencil_from_json",
    "pencil_to_json", "save_pencil",
    "__version__",
]
