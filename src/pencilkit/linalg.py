"""Dense linear-algebra kernels, the rank-tolerance policy and the verdict table.

Every factorization in the package goes through this module, and it is the
only one that names scipy: singular values and vectors, nullspaces, matrix
2-norms, eigenvalues, matrix exponentials and solves.  No kernel rescales its
input: ``sections`` stores each section with its largest entry in range.

- Values only: ``svdvals`` runs ``numpy.linalg.svd`` without vectors, at
  every size.  It keeps scipy's contract: NaN or Inf input raises
  ``ValueError``, not ``LinAlgError``, and an empty matrix has no singular
  values.
- Singular vectors: ``svals_vh``, ``smallest_right`` and ``kernel`` take
  the blocks of the matrix they factorize, stacked on top of each other,
  such as [A; E] or [E; BQ]; ``thin_svd`` takes one matrix.  They go
  through two kernels, ``_qr_r`` and ``_svd``, with one rule for both.  A
  factorization of at most ``NUMPY_CAP`` (2^18) entries, the triangle
  counted for a QR, runs ``numpy.linalg`` on the caller's array, or on
  ``numpy.vstack`` of several blocks.  Above the cap ``scipy.linalg``,
  imported on first use, overwrites an array the layer made: ``_own``'s
  Fortran-ordered stack of the blocks, the copy scipy would make itself,
  or the triangle R of a QR.  ``svals_vh`` drops a stack once its R is
  taken, so a stack that only it holds is freed before the SVD.  Both
  keep the NaN and Inf contract.  So a command whose factorizations stay
  below the cap never loads ``scipy.linalg`` (about 0.3 s of cold start):
  the 1024 x 512 stack of ``distance --sections 512`` has its triangle at
  the cap.  The cap is
  there for memory.  numpy's ``gesdd`` allocates one work buffer and
  copies U and Vh out of it, about 57 MB for an 800 x 800 triangle, and a
  plain numpy swap raised the peak memory of the large stacked
  certificates from 188.7 to 207.0 MB.  ``numpy.linalg.qr`` copies its
  input before ``geqrf``; ``scipy.linalg.qr(mode="raw")`` overwrites the
  stack (``mode="r"`` would return the triangle of the whole stack, a
  second stack), and the stack is dropped before R's Fortran copy, so it
  never exists twice.  At n = 800 one certificate peaked 39 MB above setup
  in a fresh process, against 61 MB when numpy's QR copied the stack, and
  ``dense-sweep``'s median peak RSS went from 170.8 to 153.3 MB
  (``BENCH_30.json``; 2-vCPU Xeon, one BLAS thread).
  Both libraries call the same LAPACK routines (``gesdd``, ``geqrf``); at
  one BLAS thread their values and vectors were bitwise equal on every
  shape compared, but at two threads ``Vh`` can differ in the last digits.
  R was bitwise equal at 2n x n for n = 200, 400 and 800, at one and two
  threads.  The thin SVD is taken; the full ``Vh`` only for
  matrices with fewer rows than columns, the one case in which null
  directions are missing from the thin factor.
- Tall vector SVDs: ``svals_vh``, and so ``smallest_right`` and ``kernel``,
  return only the singular values and ``Vh``.  With at least twice as many
  rows as columns they take R from a QR first and the SVD of the square
  triangle R.  On such shapes LAPACK's ``gesdd`` runs the same ``geqrf``
  and decomposes the same R itself (its "M much larger than N" path), so
  the values and ``Vh`` are bitwise equal; only Q and Q·U, which nothing
  reads, are no longer formed.  Below two rows per column the answers
  differ in the last digits, so the threshold stays at 2.
- ``kernel`` keeps the singular values at or below ``TOL_POINT`` times
  sigma_max, the ``point_singular`` rule of the verdict table: one answer to
  "exactly singular", and the one nullspace of the package (the dH common
  kernels and the chain scan's hint).  ``rank_tol`` is the rounding slack
  of ``screen_margin`` and the rank rule of ``reduce_polynomial`` and of
  ``dh_kernel_EJR``.
- ``norm2``, ``eigvalsh``, ``eigh`` and ``standard_eigvals`` pass through
  to ``numpy.linalg``, and ``poly_roots`` to ``numpy.roots`` (an
  eigenvalue solve of the companion matrix), looked up at each call, so
  they return exactly what the numpy call returns.  The one exception:
  ``norm2`` of a nonempty matrix whose entries are all zero, such as a
  structure defect of an exactly structured dH section, is 0 without an
  SVD.
- ``expm``, ``solve``, generalized ``eigvals`` (QZ) and
  ``subspace_angles`` pass through to ``scipy.linalg``, imported on first
  use.  ``expm`` also takes a stack; each slice is bitwise its own call.
"""

from __future__ import annotations

import numpy as np

EPS = 2.0**-52
# Vector SVDs of matrices with at most this many entries run on numpy.
NUMPY_CAP = 2**18


def _scipy_linalg():
    import scipy.linalg

    return scipy.linalg


# The verdict table: every spectral verdict compares a value with factor * scale.
TOL_POINT = 1e-10  # point singular: sigma_min(lam E - A) <= factor * sigma_max(lam E - A)
TOL_APPROX = 1e-6  # approx. singular: that sigma_min, or sigma_min([E; BQ]) vs. the dH scale
TOL_STRUCTURE = 1e-10  # dH margins vs. max(||E||_2, ||BQ||_2); sigma_min(Q) vs. sigma_max(Q)
TOL_CHAIN = 1e-10  # chain accepted: sigma_min(T_d) <= factor * (||E||_2 + ||A||_2)
TOL_KERNEL_ANGLE = 1e-8  # absolute angle: the E/J/R kernel agrees with ker E ∩ ker J ∩ ker R
TOL_ROOT_CLUSTER = 1e-8  # common root: |coordinate(r)| <= factor * coefficient size * max(1, |r|)^k
TOL_NEGLIGIBLE = 1e-12  # polynomial coefficient <= factor * largest coordinate counts as zero
TOL_NEAR_ROOT = 1e-2  # absolute: ||q(lam)|| or ||rev q(lam)|| at or below it is a near-root


def rank_tol(shape: tuple[int, ...], smax: float) -> float:
    """Default rank tolerance sigma_max * 2^-52 * max(shape), in an order that cannot overflow."""
    return smax * EPS * max(shape)


def screen_margin(thr: float, rt: float) -> float:
    """A values-only sigma_min above this proves no vector-SVD value at or below ``thr``.

    The two SVDs differ by less than the rank tolerance ``rt``; thr = TOL_POINT * sigma_max
    proves an empty ``kernel``.
    """
    return max(10 * thr, thr + 2 * rt)


def finite_scale(name: str, value: float) -> float:
    """``value``, or a ValueError naming the scale ``name`` when it is not finite.

    A threshold formed from an infinite scale would call everything small.  Sections are
    stored in range, so such a scale comes from a caller's lambda, tolerance or dH factor Q.
    """
    if not np.isfinite(value):
        raise ValueError(f"scale {name} = {value} is not finite: the input is too large")
    return value


def svdvals(mat: np.ndarray) -> np.ndarray:
    """Singular values in descending order, as ``scipy.linalg.svdvals`` gives them."""
    return np.linalg.svd(np.asarray_chkfinite(mat), compute_uv=False)


def _svd(mat: np.ndarray, full: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of an array from ``_own`` or ``_qr_r``, which scipy overwrites above the cap."""
    if mat.size <= NUMPY_CAP:
        return np.linalg.svd(np.asarray_chkfinite(mat), full_matrices=full)
    return _scipy_linalg().svd(mat, full_matrices=full, overwrite_a=True)


def _shape(blocks: tuple[np.ndarray, ...]) -> tuple[int, int]:
    """Shape of the blocks stacked on top of each other."""
    return sum(len(b) for b in blocks), blocks[0].shape[1]


def _own(blocks: tuple[np.ndarray, ...], size: int) -> np.ndarray:
    """The blocks stacked, for a factorization of ``size`` entries.

    At or below the cap the one block as given, or numpy's stack of several; above it a
    Fortran-ordered stack of the layer's own, the copy scipy would make itself.
    """
    if size <= NUMPY_CAP:
        return blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    stack = np.empty(_shape(blocks), np.result_type(*blocks), order="F")
    return np.concatenate(blocks, out=stack)


def _qr_r(blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """The square triangle R of the blocks stacked, with at least as many rows as columns."""
    cols = blocks[0].shape[1]
    stack = _own(blocks, cols * cols)
    if cols * cols <= NUMPY_CAP:
        return np.linalg.qr(np.asarray_chkfinite(stack), mode="r")
    r = _scipy_linalg().qr(stack, mode="raw", overwrite_a=True)[1]
    del stack  # it holds the Householder vectors now; they go before R's Fortran copy
    return np.asfortranarray(r)  # a C-ordered R goes before the SVD


def thin_svd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U, s, Vh`` of the thin SVD."""
    return _svd(_own((mat,), mat.size), False)


def svals_vh(*blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and all right singular vectors (the rows of ``Vh``) of the blocks
    stacked on top of each other, from one SVD."""
    rows, cols = _shape(blocks)
    if cols and rows >= 2 * cols:
        mat = _qr_r(blocks)  # frees a stack that only this call holds
    else:
        mat = _own(blocks, rows * cols)
    _, svals, vh = _svd(mat, rows < cols)
    return svals, vh


def smallest_right(*blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of the blocks stacked: singular values zero-padded to the column count, and the last
    right singular vector."""
    svals, vh = svals_vh(*blocks)
    return np.concatenate([svals, np.zeros(vh.shape[1] - len(svals))]), vh[-1].conj()


def kernel(*blocks: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace of the blocks stacked, from one SVD.

    Singular values at or below ``TOL_POINT`` times sigma_max of that SVD count as zero, the
    rule of ``point_singular``.
    """
    svals, vh = svals_vh(*blocks)
    return vh[int(np.sum(svals > TOL_POINT * (svals[0] if svals.size else 0.0))):].conj().T


def norm2(mat: np.ndarray) -> float:
    """Spectral norm, the largest singular value; 0 without an SVD for a nonempty zero matrix."""
    if mat.size and not mat.any():
        return np.float64(0.0)
    return np.linalg.norm(mat, 2)


def eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(mat)


def eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix."""
    return np.linalg.eigh(mat)


def standard_eigvals(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix."""
    return np.linalg.eigvals(mat)


def poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the polynomial with coefficients ``coeffs``, highest degree first."""
    return np.roots(coeffs)


def expm(mat: np.ndarray) -> np.ndarray:
    return _scipy_linalg().expm(mat)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _scipy_linalg().solve(a, b)


def eigvals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues of ``a x = w b x`` (QZ)."""
    return _scipy_linalg().eigvals(a, b)


def subspace_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _scipy_linalg().subspace_angles(a, b)
