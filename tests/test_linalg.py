import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import pencilkit
from pencilkit import linalg, section
from pencilkit.chains import RANK_PROBES
from pencilkit.fixtures import fixture_names, get_fixture

# (rows, cols, rank): tall, square and wide, each with a nontrivial kernel
SHAPES = [(8, 5, 3), (6, 6, 4), (3, 7, 2), (4, 9, 4)]


def _complex_of_rank(rng, rows, cols, rank):
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    return left @ right


def _full_reference(mat):
    """Padded singular values and null basis (sigma <= TOL_POINT * sigma_max) from the full SVD."""
    _, svals, vh = scipy.linalg.svd(mat)
    cols = mat.shape[1]
    padded = np.concatenate([svals, np.zeros(cols - len(svals))])
    rank = int(np.sum(svals > linalg.TOL_POINT * svals[0]))
    return padded, vh, vh[rank:].conj().T


def _same_span(a, b):
    return a.shape == b.shape and (
        a.shape[1] == 0 or scipy.linalg.subspace_angles(a, b)[0] <= 1e-12
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows,cols,rank", SHAPES)
def test_smallest_right_matches_full_svd(seed, rows, cols, rank):
    rng = np.random.default_rng(seed)
    generic = _complex_of_rank(rng, rows, cols, min(rows, cols))
    for mat in (generic, _complex_of_rank(rng, rows, cols, rank)):
        svals, witness = linalg.smallest_right(mat)
        assert np.array_equal(svals, _full_reference(mat)[0])
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(mat @ witness) == pytest.approx(svals[-1], abs=1e-12 * svals[0])
    if rows >= cols:  # simple smallest singular value: the vectors agree up to phase
        _, ref_vh, _ = _full_reference(generic)
        witness = linalg.smallest_right(generic)[1]
        assert abs(np.vdot(ref_vh[-1].conj(), witness)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows,cols,rank", SHAPES)
def test_kernel_matches_full_svd(seed, rows, cols, rank):
    mat = _complex_of_rank(np.random.default_rng(seed), rows, cols, rank)
    _, _, ref = _full_reference(mat)
    basis = linalg.kernel(mat)
    assert basis.shape == (cols, cols - rank)
    assert _same_span(basis, ref)
    assert np.allclose(basis.conj().T @ basis, np.eye(cols - rank), atol=1e-12)
    assert np.linalg.norm(mat @ basis) <= 1e-12 * np.linalg.norm(mat, 2)


def test_kernel_keeps_what_the_point_rule_calls_zero():
    # sigma_max = 1: a smallest value at half of TOL_POINT * sigma_max is a null direction,
    # one at twice it is not
    for factor, kept in ((0.5, 1), (2.0, 0)):
        basis = linalg.kernel(np.diag([1.0, 1e-3, factor * linalg.TOL_POINT]).astype(complex))
        assert basis.shape == (3, kept)
        assert np.allclose(np.abs(basis), np.eye(3)[:, 2:2 + kept], atol=1e-12)
    assert linalg.kernel(np.diag([1.0, 1e-3, 1e-9]).astype(complex)).shape == (3, 0)
    assert linalg.kernel(np.zeros((2, 3))).shape == (3, 3)


@pytest.mark.parametrize("rows,cols", [(3, 7), (7, 7), (9, 4), (20, 6)])
def test_kernel_spans_the_small_singular_directions(rows, cols):
    # rank 2 plus a 1e-12 perturbation: the TOL_POINT rule keeps cols - 2 directions,
    # those scipy's full SVD keeps at the same cut
    rng = np.random.default_rng(rows * cols)
    mat = rng.standard_normal((rows, 2)) @ rng.standard_normal((2, cols))
    mat = mat + 1e-12 * rng.standard_normal((rows, cols))
    basis = linalg.kernel(mat)
    assert basis.shape == (cols, cols - 2)
    assert np.allclose(basis.conj().T @ basis, np.eye(cols - 2), atol=1e-12)
    reference = _full_reference(mat)[2]
    assert reference.shape == basis.shape
    assert scipy.linalg.subspace_angles(basis, reference).max() <= 1e-8


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows,cols,rank", SHAPES)
def test_singular_values_agree_with_vector_svd_within_rank_tol(seed, rows, cols, rank):
    # the chain scan skips a degree on these values alone; that is sound only
    # while they stay within rank_tol of the values of the vector SVD
    rng = np.random.default_rng(seed)
    for mat in (_complex_of_rank(rng, rows, cols, min(rows, cols)),
                _complex_of_rank(rng, rows, cols, rank)):
        values = linalg.svdvals(mat)
        with_vectors = linalg.smallest_right(mat)[0][: min(rows, cols)]
        assert values.shape == with_vectors.shape == (min(rows, cols),)
        bound = linalg.rank_tol(mat.shape, with_vectors[0])
        assert np.max(np.abs(values - with_vectors)) <= bound


def test_rank_tol_policy():
    assert linalg.rank_tol((4, 7), 2.0) == 7 * 2.0 * 2.0**-52
    assert linalg.EPS == 2.0**-52


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows,cols", [(9, 5), (7, 7), (4, 10), (60, 40), (40, 60)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_svdvals_is_bitwise_scipy_svdvals(seed, rows, cols, dtype):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((rows, cols))
    if dtype is complex:
        mat = mat + 1j * rng.standard_normal((rows, cols))
    low_rank = _complex_of_rank(rng, rows, cols, 3)
    if dtype is float:
        low_rank = low_rank.real  # rank at most 6
    for m in (mat, low_rank):
        assert np.array_equal(linalg.svdvals(m), scipy.linalg.svdvals(m))


def _fixture_pencils():
    for name in fixture_names():
        fx = get_fixture(name)
        data = fx.build(**fx.default_params)
        if "pencil" in data:
            yield name, data["pencil"]


@pytest.mark.parametrize("name,pencil", list(_fixture_pencils()))
def test_svdvals_is_bitwise_scipy_svdvals_on_fixture_sections(name, pencil):
    for n in (4, 7, 12):
        s = section(pencil, n)
        for lam in (0.0, 1.0, 1j, 0.3 - 0.7j) + RANK_PROBES:
            mat = s.evaluate(lam)
            assert np.array_equal(linalg.svdvals(mat), scipy.linalg.svdvals(mat)), (n, lam)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_svdvals_of_empty_matrix_is_empty(shape):
    assert linalg.svdvals(np.zeros(shape)).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "helper", [linalg.svdvals, linalg.smallest_right, linalg.kernel]
)
def test_non_finite_input_is_value_error_not_linalg_error(bad, helper):
    mat = np.eye(6, 3, dtype=complex)  # tall: the vector SVDs run a QR first
    mat[1, 2] = bad
    cases = [(mat,)]
    if helper in (linalg.smallest_right, linalg.kernel):  # the bad entry in a later block
        wide, tall = np.eye(300, 600, dtype=complex), np.eye(520, dtype=complex)
        wide[1, 2] = tall[1, 2] = bad
        # below the cap; a stack above it with numpy's QR, scipy's SVD and scipy's QR
        cases += [(np.eye(3), mat), (np.eye(400), tall[:400, :400]), (np.eye(300, 600), wide),
                  (np.eye(520), tall, np.eye(520))]
    for blocks in cases:
        with pytest.raises(ValueError, match="array must not contain infs or NaNs") as exc:
            helper(*blocks)
        assert not isinstance(exc.value, np.linalg.LinAlgError)


def _of_rank(rng, rows, cols, rank, dtype):
    if dtype is complex:
        return _complex_of_rank(rng, rows, cols, rank)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def _assert_vector_svds_are_bitwise_scipy_svd(mat):
    _, svals, vh = scipy.linalg.svd(mat, full_matrices=False)
    ours, witness = linalg.smallest_right(mat)
    assert np.array_equal(ours, svals) and np.array_equal(witness, vh[-1].conj())
    rank = int(np.sum(svals > linalg.TOL_POINT * svals[0]))
    assert np.array_equal(linalg.kernel(mat), vh[rank:].conj().T)


@pytest.mark.parametrize("ratio", [2, 3, 5])
@pytest.mark.parametrize("cols", [1, 4, 9, 33])
@pytest.mark.parametrize("dtype", [float, complex])
def test_tall_vector_svds_are_bitwise_scipy_svd(ratio, cols, dtype):
    # at >= 2 rows per column the vector SVD is taken of R from a QR first
    rng = np.random.default_rng(100 * cols + ratio)
    for rank in {cols, max(cols - 2, 1)}:
        _assert_vector_svds_are_bitwise_scipy_svd(_of_rank(rng, ratio * cols, cols, rank, dtype))


@pytest.mark.parametrize("name,pencil", list(_fixture_pencils()))
def test_vector_svds_are_bitwise_scipy_svd_on_fixture_stacks(name, pencil):
    for n in (4, 7, 12):
        s = section(pencil, n)
        _assert_vector_svds_are_bitwise_scipy_svd(np.vstack([s.A_mat, s.E_mat]))


# Run at one BLAS thread: at two, Vh can differ between numpy and scipy in the
# last digits.  Results at or below the cap are taken before scipy.linalg is
# imported, so they come from numpy; the reference is scipy.linalg.
_BITWISE_SCRIPT = """
import json, sys
import pencilkit
import numpy as np
from pencilkit import linalg

def of_rank(rng, rows, cols, rank, dtype):
    left, right = rng.standard_normal((rows, rank)), rng.standard_normal((rank, cols))
    if dtype == "complex":
        left = left + 1j * rng.standard_normal((rows, rank))
        right = right + 1j * rng.standard_normal((rank, cols))
    return left @ right

cap = linalg.NUMPY_CAP
# tall with a QR (>= 2 rows per column), tall and square without, and wide
shapes = [(1, 1), (12, 5), (40, 20), (9, 7), (60, 40), (7, 7), (40, 40), (4, 10), (40, 60),
          (1, 6)]
shapes = [(r, c, rank, dtype) for r, c in shapes for rank in {min(r, c), max(min(r, c) - 2, 1)}
          for dtype in ("float", "complex")]
# at the cap, then just above it: the SVD, and the QR of a tall matrix
shapes += [(512, 512, 512, "float"), (1024, 256, 250, "complex"), (513, 512, 512, "float"),
           (1028, 256, 256, "float")]
# tall, with a triangle above the cap that scipy factors in place
shapes += [(1040, 520, 520, "float"), (1040, 520, 515, "complex")]
svd, handed = linalg._svd, []

def recording_svd(mat, full):  # keeps the triangle the layer hands to the SVD
    handed.append(mat.copy())
    return svd(mat, full)

def stacked_case(i, n, dtype, parts=2):
    rng = np.random.default_rng(100 + i)
    blocks = (of_rank(rng, n, n, n - 3, dtype),) + tuple(of_rank(rng, n, n, n, dtype)
                                                          for _ in range(parts - 1))
    handed.clear()
    linalg._svd = recording_svd
    values_vh = linalg.svals_vh(*blocks)
    linalg._svd = svd
    return f"{parts} blocks {parts * n}x{n} {dtype}", blocks, handed[0], values_vh

# blocks such as [A; E] stacked by the layer: with the triangle at the cap it stays on numpy
stacked = [stacked_case(i, 512, dtype) for i, dtype in enumerate(("float", "complex"))]
assert "scipy.linalg" not in sys.modules
cases = []
for i, (rows, cols, rank, dtype) in enumerate(shapes):
    mat = of_rank(np.random.default_rng(i), rows, cols, rank, dtype)
    cases.append((f"{rows}x{cols} rank {rank} {dtype}", mat,
                  linalg.thin_svd(mat), linalg.smallest_right(mat), linalg.kernel(mat),
                  linalg._qr_r((mat,)) if rows >= cols else None, linalg.svals_vh(mat)))
    if mat.size <= cap:
        assert "scipy.linalg" not in sys.modules, cases[-1][0]
assert "scipy.linalg" in sys.modules
# above the cap the stack is made in Fortran order and scipy's QR overwrites it
stacked += [stacked_case(i, 520, dtype) for i, dtype in enumerate(("float", "complex"), 2)]
stacked.append(stacked_case(4, 520, "complex", 3))

import scipy.linalg

differ = []
for label, mat, thin, smallest, null, r, values_vh in cases:
    rows, cols = mat.shape
    u, s, vh = scipy.linalg.svd(mat, full_matrices=False)
    full_vh = scipy.linalg.svd(mat)[2]
    svals = np.concatenate([s, np.zeros(cols - len(s))])
    rank = int(np.sum(s > linalg.TOL_POINT * s[0]))
    checks = {
        "thin_svd": all(np.array_equal(a, b) for a, b in zip(thin, (u, s, vh))),
        "smallest_right": np.array_equal(smallest[0], svals)
        and np.array_equal(smallest[1], full_vh[-1].conj()),
        "kernel": np.array_equal(null, full_vh[rank:].conj().T),
        "qr_r": r is None
        or np.array_equal(r, np.triu(scipy.linalg.qr(mat, mode="r")[0][:cols])),
    }
    if rows >= 2 * cols:  # the vector SVDs factor numpy's R
        _, r_s, r_vh = scipy.linalg.svd(np.linalg.qr(mat, mode="r"), full_matrices=False)
        checks["triangle"] = all(np.array_equal(a, b) for a, b in
                                 zip(values_vh + smallest, (r_s, r_vh, r_s, r_vh[-1].conj())))
    differ += [f"{label}: {name}" for name, same in checks.items() if not same]
for label, blocks, r, values_vh in stacked:
    numpy_r = np.linalg.qr(np.vstack(blocks), mode="r")
    _, r_s, r_vh = scipy.linalg.svd(numpy_r, full_matrices=False)
    checks = {"stacked_r": np.array_equal(r, numpy_r),
              "stacked": np.array_equal(values_vh[0], r_s) and np.array_equal(values_vh[1], r_vh)}
    differ += [f"{label}: {name}" for name, same in checks.items() if not same]
print(json.dumps({"cases": len(cases) + len(stacked), "differ": differ}))
"""


def run_at_one_blas_thread(script: str):
    """The JSON that ``script`` prints, run in a fresh interpreter at one BLAS thread."""
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env.update(PYTHONPATH=str(Path(pencilkit.__file__).parents[1]), PENCILKIT_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_vector_svds_are_bitwise_scipy_on_both_sides_of_the_cap():
    assert run_at_one_blas_thread(_BITWISE_SCRIPT) == {"cases": 47, "differ": []}


# A stack of (t - t0) * G, as a Simpson pass of the poroelasticity flow hands it
# over; the slice at t = t0 is zero, and its exponential the identity.
_EXPM_SCRIPT = """
import json
import numpy as np
from pencilkit import linalg

rng = np.random.default_rng(11)
differ = []
for n, dtype in ((2, float), (9, float), (12, float), (5, complex)):
    gen = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        gen = gen + 1j * rng.standard_normal((n, n))
    stack = np.multiply.outer([0.4, 0.0, -1.5, 30.0, 1e-9, 0.4], gen)
    batch = linalg.expm(stack)
    differ += [f"{n}x{n} {dtype.__name__} slice {k}" for k, mat in enumerate(stack)
               if not np.array_equal(batch[k], linalg.expm(mat))]
    differ += [] if np.array_equal(batch[1], np.eye(n)) else [f"{n}x{n} zero slice"]
print(json.dumps({"slices": 4 * len(stack), "differ": differ}))
"""


def test_expm_of_a_stack_is_bitwise_the_per_slice_calls():
    assert run_at_one_blas_thread(_EXPM_SCRIPT) == {"slices": 24, "differ": []}


@pytest.mark.parametrize("helper", [linalg.thin_svd, linalg.svals_vh, linalg.smallest_right,
                                    linalg.kernel])
def test_vector_svds_leave_the_callers_matrix_unchanged_above_the_cap(helper):
    # scipy overwrites what it factors above the cap; only the layer's own arrays qualify
    rng = np.random.default_rng(5)
    square = rng.standard_normal((520, 520))
    tall = _of_rank(rng, 1040, 520, 520, complex)
    wide = _of_rank(rng, 520, 1040, 520, complex)
    # C- and Fortran-ordered, and tall in C order, Fortran order and as a transposed wide matrix
    for mat in (square, square.T, tall, np.asfortranarray(tall), wide.T):
        assert mat.size > linalg.NUMPY_CAP
        before = mat.copy()
        helper(mat)
        assert np.array_equal(mat, before)


def test_stacked_vector_svd_leaves_the_callers_blocks_unchanged_above_the_cap():
    # the triangle is above the cap, so the stack is QR'd in place: it must be the layer's own
    rng = np.random.default_rng(6)
    a, e = (_of_rank(rng, 520, 520, 520, complex) for _ in range(2))
    for blocks in ((a, e), (np.asfortranarray(a), e.T), (a[:260], e, a[260:])):
        before = [b.copy() for b in blocks]
        linalg.svals_vh(*blocks)
        assert all(np.array_equal(b, c) for b, c in zip(blocks, before))


@pytest.mark.parametrize("rows", [(5, 4), (3, 3, 6), (2, 2), (1, 1)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_vector_svd_is_svals_vh_of_the_stack(rows, dtype):
    # below the cap, with and without the QR (two rows per column), and wide
    rng = np.random.default_rng(sum(rows))
    blocks = tuple(_of_rank(rng, r, 6, min(r, 5), dtype) for r in rows)
    ours = linalg.svals_vh(*blocks)
    expected = linalg.svals_vh(np.vstack(blocks))
    assert all(np.array_equal(a, b) for a, b in zip(ours, expected))


@pytest.mark.parametrize("helper", [linalg.smallest_right, linalg.kernel])
def test_tall_vector_svd_factors_only_the_triangle(monkeypatch, helper):
    shapes = []
    svd = linalg._svd

    def counting_svd(mat, full):
        shapes.append(mat.shape)
        return svd(mat, full)

    monkeypatch.setattr(linalg, "_svd", counting_svd)
    helper(_of_rank(np.random.default_rng(0), 12, 6, 6, complex))
    assert shapes == [(6, 6)]


NUMPY_LINALG = ("np", "numpy", "np.linalg", "numpy.linalg")
NUMPY_NORMS = ("np.linalg.norm", "numpy.linalg.norm")
# numpy functions that factorize their argument, besides the svd and eig* families
FACTORIZING = {
    "roots", "qr", "matrix_rank", "pinv", "lstsq", "solve", "inv", "cholesky", "det", "slogdet",
}


def _is_factorization(name: str) -> bool:
    return "svd" in name or name.startswith("eig") or name in FACTORIZING


def _factorizations(tree: ast.AST):
    """Scipy imports and numpy factorizations and matrix 2-norm uses in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found = [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found = [module] if module.split(".")[0] == "scipy" else []
            if module in NUMPY_LINALG:
                found += [a.name for a in node.names if _is_factorization(a.name)]
        elif isinstance(node, ast.Attribute):
            numpy_fn = ast.unparse(node.value) in NUMPY_LINALG and _is_factorization(node.attr)
            found = [ast.unparse(node)] if numpy_fn else []
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in NUMPY_NORMS:
            matrix_norm = len(node.args) > 1 or any(k.arg == "ord" for k in node.keywords)
            found = [ast.unparse(node)] if matrix_norm else []
        else:
            found = []
        yield from (f"line {node.lineno}: {name}" for name in found)


def test_only_linalg_factorizes_or_imports_scipy():
    package = Path(pencilkit.__file__).parent
    offenders = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py"
        and (found := list(_factorizations(ast.parse(path.read_text()))))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.linalg",
        "from scipy import linalg",
        "s = np.linalg.svd(m)",
        "w = numpy.linalg.eigvalsh(m)",
        "f = np.linalg.eigh",
        "from numpy.linalg import eigvals",
        "n = np.linalg.norm(m, 2)",
        "n = np.linalg.norm(m, ord=-2)",
        "r = np.roots(c)",
        "from numpy import roots",
        "q, r = np.linalg.qr(m)",
        "from numpy.linalg import qr",
        "r = numpy.linalg.matrix_rank(m)",
        "p = np.linalg.pinv(m)",
        "x = np.linalg.lstsq(a, b)",
        "x = np.linalg.solve(a, b)",
        "i = np.linalg.inv(m)",
        "c = np.linalg.cholesky(m)",
        "d = np.linalg.det(m)",
        "s, logdet = np.linalg.slogdet(m)",
    ],
)
def test_factorization_source_check_flags(source):
    assert list(_factorizations(ast.parse(source)))


def test_factorization_source_check_allows_linalg_layer_and_vector_norms():
    source = "s = linalg.svdvals(m)\nw = linalg.eigvalsh(m)\nn = np.linalg.norm(v)\n"
    assert list(_factorizations(ast.parse(source))) == []


@pytest.mark.parametrize(
    "source",
    [
        "r = linalg.poly_roots(c)",
        "x = linalg.solve(a, b)",
        "y = np.invert(m)",
        "d = np.diag(m)",
        "z = np.polyval(c, x)",
        "from numpy import zeros, sqrt",
        "q = np.linalg",
    ],
)
def test_factorization_source_check_allows_non_factorizing_names(source):
    assert list(_factorizations(ast.parse(source))) == []


def _outcome(fn, mat):
    try:
        value = fn(mat)
    except Exception as exc:  # the error type is the outcome
        return type(exc)
    return type(value), repr(value)


@pytest.mark.parametrize(
    "mat",
    [
        np.zeros((3, 3)),
        np.zeros((4, 2), dtype=complex),
        np.full((2, 3), -0.0),
        np.zeros(5),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.zeros((0, 0)),
        np.array([[0.0, np.nan], [0.0, 0.0]]),
        np.array([[0.0, complex(0.0, np.nan)]]),
        np.eye(3) * 1e-300,
    ],
)
def test_norm2_is_numpy_norm_on_zero_empty_and_nan_matrices(mat):
    assert _outcome(linalg.norm2, mat) == _outcome(lambda m: np.linalg.norm(m, 2), mat)


def test_norm2_of_zero_matrix_takes_no_svd(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "norm", lambda mat, ord: calls.append(mat.shape) or 1.0)
    assert linalg.norm2(np.zeros((6, 6), dtype=complex)) == 0.0
    assert calls == []
    assert linalg.norm2(np.eye(2)) == 1.0 and calls == [(2, 2)]


def test_poly_roots_is_numpy_roots():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    assert np.array_equal(linalg.poly_roots(coeffs), np.roots(coeffs))


def _hermitian(mat):
    return 0.5 * (mat + mat.conj().T)


@pytest.mark.parametrize("name,pencil", list(_fixture_pencils()))
def test_numpy_pass_throughs_are_bitwise_numpy_on_fixture_sections(name, pencil):
    for n in (4, 7, 12):
        s = section(pencil, n)
        for lam in (0.0, 1.0, 0.3 - 0.7j):
            mat = s.evaluate(lam)
            assert np.array_equal(linalg.norm2(mat), np.linalg.norm(mat, 2))
            if not s.is_square:
                continue
            herm = _hermitian(mat)
            assert np.array_equal(linalg.eigvalsh(herm), np.linalg.eigvalsh(herm))
            for ours, ref in zip(linalg.eigh(herm), np.linalg.eigh(herm)):
                assert np.array_equal(ours, ref)
            assert np.array_equal(linalg.standard_eigvals(mat), np.linalg.eigvals(mat))
