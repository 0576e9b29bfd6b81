import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pencilkit
from pencilkit import (
    DenseBlock,
    Diagonal,
    Identity,
    L2N,
    L2Z,
    Pencil,
    Shift,
    WeightRule,
    constant_weight,
    distance_to_singularity_bound,
    finite,
    joint_kernel_defect,
    linalg,
    operator_matrix,
    section,
    window_for,
)
from pencilkit.chains import _null_basis
from pencilkit.fixtures import get_fixture


def _diag_reciprocal(n):
    """An l2N section, so [A; E] is 2n x n and its triangle n x n."""
    fx = get_fixture("diag_reciprocal")
    return section(fx.build(**fx.default_params)["pencil"], n)


def test_nested_l2z_windows_are_storage_prefixes():
    small = window_for(L2Z, 2).indices
    large = window_for(L2Z, 4).indices
    assert large[: len(small)] == small
    assert sorted(window_for(L2Z, 2).indices) == [-2, -1, 0, 1, 2]


def test_finite_window_clips_to_dimension():
    assert window_for(finite(3), 10).indices == (1, 2, 3)


def test_window_size_validation():
    with pytest.raises(ValueError):
        window_for(L2N, 0)


def test_operator_matrix_entries_diagonal_and_shift():
    w = window_for(L2N, 4)
    d = operator_matrix(Diagonal(L2N, WeightRule("reciprocal_index")), w, w)
    assert np.allclose(d, np.diag([1.0, 0.5, 1.0 / 3, 0.25]))
    s = operator_matrix(Shift(L2N, -1, constant_weight(1.0)), w, w)
    expect = np.zeros((4, 4))
    for j in range(1, 4):
        expect[j - 1, j] = 1.0
    assert np.allclose(s, expect)


def test_bilateral_section_matrix_in_interleaved_storage():
    w = window_for(L2Z, 1)  # storage order 0, -1, 1
    s = operator_matrix(Shift(L2Z, 1, constant_weight(1.0)), w, w)
    # e_0 -> e_1 (storage 0 -> 2), e_{-1} -> e_0 (1 -> 0); e_1 -> e_2 leaves
    expect = np.zeros((3, 3))
    expect[2, 0] = 1.0
    expect[0, 1] = 1.0
    assert np.allclose(s, expect)


def _ref_operator_matrix(op, window_out, window_in):
    """The per-column loop that every operator but a bare ``DenseBlock`` goes through."""
    rows = {j: i for i, j in enumerate(window_out.indices)}
    mat = np.zeros((window_out.dim, window_in.dim), dtype=complex)
    for col, j in enumerate(window_in.indices):
        for i, c in op.apply_basis(j).items():
            r = rows.get(i)
            if r is not None:
                mat[r, col] = c
    return mat


def _assert_bitwise(a, b):
    assert np.array_equal(a, b)
    for part in (np.real, np.imag):  # the sign of every zero too
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


def _block_with_zeros(rows, cols):
    rng = np.random.default_rng(rows * cols)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    signed = [-0.0, 0.0, complex(-0.0, -0.0), complex(-0.0, 1.5), complex(2.0, -0.0)]
    for k, z in enumerate(signed):
        m[k % rows, (2 * k) % cols] = z
    return m


@pytest.mark.parametrize(
    "space_in,space_out,shape,row_start,col_start",
    [
        (finite(5), finite(5), (5, 5), 1, 1),
        (finite(6), finite(4), (4, 6), 1, 1),  # rectangular
        (finite(7), finite(5), (3, 4), 2, 3),  # offset inside the spaces
        (L2N, L2N, (4, 5), 3, 2),
        (L2Z, L2Z, (4, 5), -2, -1),
    ],
)
def test_dense_block_assembly_matches_per_column_loop(
    space_in, space_out, shape, row_start, col_start
):
    op = DenseBlock(space_in, space_out, _block_with_zeros(*shape), row_start, col_start)
    for n in (1, 2, 3, 5, 9):  # windows cutting the block, covering it, and beyond
        w_in, w_out = window_for(space_in, n), window_for(space_out, n)
        _assert_bitwise(operator_matrix(op, w_out, w_in), _ref_operator_matrix(op, w_out, w_in))


def test_dense_block_assembly_rejects_window_outside_input_space():
    op = DenseBlock(L2N, L2N, np.ones((2, 2)))
    w = window_for(L2Z, 2)
    for assemble in (operator_matrix, _ref_operator_matrix):
        with pytest.raises(IndexError):
            assemble(op, w, w)


def test_section_reverse_and_adjoint_shapes():
    e = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    p = Pencil(E=DenseBlock(finite(3), finite(2), e), A=DenseBlock(finite(3), finite(2), a))
    s = section(p, 3)
    assert s.shape == (2, 3) and not s.is_square
    assert np.allclose(s.reverse().E_mat, a)
    assert s.adjoint().shape == (3, 2)
    assert np.allclose(s.adjoint().E_mat, e.conj().T)


def test_stacked_certificate_diagonal_oracle():
    # E = A = diag(1/j): sigma_min of [A; E] over window 1..n is
    # min_j sqrt(2)/j = sqrt(2)/n, computed independently of the SVD path.
    p = Pencil(
        E=Diagonal(L2N, WeightRule("reciprocal_index")),
        A=Diagonal(L2N, WeightRule("reciprocal_index")),
    )
    for n in (2, 4, 8, 16):
        cert = distance_to_singularity_bound(section(p, n))
        assert cert.value == pytest.approx(math.sqrt(2.0) / n, abs=1e-13)
        # witness concentrates on the last basis vector
        assert abs(abs(cert.witness[-1]) - 1.0) <= 1e-12


def test_stacked_certificate_zero_for_engineered_kernel():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = Pencil(E=DenseBlock(finite(2), finite(2), m), A=DenseBlock(finite(2), finite(2), m))
    cert = joint_kernel_defect(section(p, 2))
    assert cert.value <= 1e-15


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_witness_energy_identity(seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((3, 3))
    a = rng.standard_normal((3, 3))
    p = Pencil(E=DenseBlock(finite(3), finite(3), e), A=DenseBlock(finite(3), finite(3), a))
    cert = distance_to_singularity_bound(section(p, 3))
    x = cert.witness
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    energy = np.linalg.norm(e @ x) ** 2 + np.linalg.norm(a @ x) ** 2
    assert energy == pytest.approx(cert.value**2, abs=1e-10 * max(1.0, energy))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    lam1=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    lam2=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
def test_sigma_min_lipschitz_in_lambda(seed, lam1, lam2):
    import scipy.linalg

    rng = np.random.default_rng(seed)
    e = rng.standard_normal((4, 4))
    a = rng.standard_normal((4, 4))
    p = Pencil(E=DenseBlock(finite(4), finite(4), e), A=DenseBlock(finite(4), finite(4), a))
    s = section(p, 4)
    s1 = scipy.linalg.svdvals(s.evaluate(lam1))[-1]
    s2 = scipy.linalg.svdvals(s.evaluate(lam2))[-1]
    bound = abs(lam1 - lam2) * np.linalg.norm(e, 2)
    assert abs(s1 - s2) <= bound + 1e-10


def test_stacked_certificate_on_wide_section():
    # 2x5 blocks: the 4x5 stack has fewer rows than columns, so its null
    # directions exist only in the full right singular factor.
    rng = np.random.default_rng(7)
    e = rng.standard_normal((2, 5))
    a = rng.standard_normal((2, 5))
    p = Pencil(E=DenseBlock(finite(5), finite(2), e), A=DenseBlock(finite(5), finite(2), a))
    s = section(p, 5)
    assert np.vstack([s.A_mat, s.E_mat]).shape == (4, 5)
    cert = distance_to_singularity_bound(s)
    assert cert.value == 0.0
    x = cert.witness
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(e @ x) ** 2 + np.linalg.norm(a @ x) ** 2 <= 1e-28


def test_only_sections_takes_the_norm_of_a_section_matrix():
    # every other module reads ||E||_2 and ||A||_2 from the section that owns them
    offenders = []
    for path in sorted(Path(pencilkit.__file__).parent.glob("*.py")):
        if path.name == "sections.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("norm2")
                    and any(isinstance(a, (ast.Name, ast.Attribute))
                            and ast.unparse(a).split(".")[-1] in ("E", "A", "E_mat", "A_mat")
                            for a in node.args)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("n", [12, 520])  # the triangle below and above linalg.NUMPY_CAP
def test_certificate_frees_its_stack_before_the_svd(monkeypatch, n):
    import scipy.linalg

    s = _diag_reciprocal(n)
    stacks, alive = [], []
    svd = linalg._svd

    def recording(qr):  # the stack the kernel makes goes to numpy's QR or, above the cap, scipy's
        def wrapped(mat, *args, **kwargs):
            stacks.append(weakref.ref(mat))
            return qr(mat, *args, **kwargs)

        return wrapped

    def checking_svd(mat, full):
        alive.append([ref() is not None for ref in stacks])
        return svd(mat, full)

    monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
    monkeypatch.setattr(scipy.linalg, "qr", recording(scipy.linalg.qr))
    monkeypatch.setattr(linalg, "_svd", checking_svd)
    distance_to_singularity_bound(s)
    assert alive == [[False]]


def test_certificate_peak_memory_above_the_cap():
    # n = 600: the 600 x 600 triangle is above linalg.NUMPY_CAP, so scipy factors it.
    # Holding the stack and a second triangle through the SVD peaked at 4.3 stacks.
    s = _diag_reciprocal(600)
    assert 600 * 600 > linalg.NUMPY_CAP
    expected = distance_to_singularity_bound(s)  # loads scipy.linalg outside the trace
    tracemalloc.start()
    try:
        cert = distance_to_singularity_bound(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.value == expected.value and np.array_equal(cert.witness, expected.witness)
    assert peak < 3.5 * np.vstack([s.A_mat, s.E_mat]).nbytes


# Peak RSS counts the pages a process touched, which tracemalloc cannot see: the SVD's work
# arrays are allocated in full but not all touched.  It is read as VmHWM, the peak of this
# process's own memory: ru_maxrss starts from the size of the process that spawned it.
_CERTIFICATE_RSS_SCRIPT = """
import json
import scipy.linalg
from pencilkit import distance_to_singularity_bound, get_fixture, section

def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

fx = get_fixture("diag_reciprocal")
s = section(fx.build(**fx.default_params)["pencil"], 600)
before = peak_rss()
distance_to_singularity_bound(s)
print(json.dumps({"dtype": str(s.A_mat.dtype), "stacks": (peak_rss() - before) / (2 * s.A_mat.nbytes)}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_certificate_touches_no_second_stack_above_the_cap():
    # n = 600, complex: the 1200 x 600 stack is 11.0 MB.  The certificate's peak RSS above
    # setup was 2.2 stacks with the stack QR'd in place, 3.2 when numpy's QR copied it first.
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env.update(PYTHONPATH=str(Path(pencilkit.__file__).parents[1]), PENCILKIT_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _CERTIFICATE_RSS_SCRIPT],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["dtype"] == "complex128"
    assert result["stacks"] < 2.7, result


def test_null_basis_leaves_section_matrices_unchanged_above_the_cap():
    rng = np.random.default_rng(3)
    e, a = rng.standard_normal((2, 520, 520))
    s = section(Pencil(E=DenseBlock(finite(520), finite(520), e),
                       A=DenseBlock(finite(520), finite(520), a)), 520)
    stack = np.vstack([s.A_mat, s.E_mat])
    for mat in (s.A_mat, s.adjoint().A_mat, stack):  # C-ordered, Fortran-ordered, tall
        before = mat.copy()
        _null_basis(mat, 1e-12)
        assert np.array_equal(mat, before)
