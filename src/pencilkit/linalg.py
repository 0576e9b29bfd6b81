"""Dense linear-algebra kernels and the package's single rank-tolerance policy.

Every factorization in the package goes through this module, and it is the
only one that names scipy: singular values and vectors, nullspaces, matrix
2-norms, eigenvalues, matrix exponentials and solves.

- Values only: ``svdvals`` and ``singular_values`` run
  ``numpy.linalg.svd`` without vectors, at every size.  They keep scipy's
  contract: NaN or Inf input raises ``ValueError``, not ``LinAlgError``,
  and an empty matrix has no singular values.
- Singular vectors: ``svals_vh``, ``smallest_right``, ``kernel`` and
  ``thin_svd`` go through two kernels, ``_svd`` and ``_qr_r``.  ``_qr_r``
  runs ``numpy.linalg.qr`` at every size.  ``_svd`` runs ``numpy.linalg``
  on a matrix of at most ``NUMPY_CAP`` (2^18) entries and ``scipy.linalg``,
  imported on first use, above it.  Both keep the NaN and Inf contract.
  So a command whose SVDs stay below the cap never loads ``scipy.linalg``
  (about 0.3 s of cold start).  The cap is there for memory: numpy's
  ``gesdd`` allocates one work buffer and copies U and Vh out of it, about
  57 MB for an 800 x 800 triangle, and a plain numpy swap raised the peak
  memory of the large stacked certificates from 188.7 to 207.0 MB
  (measured on a 2-vCPU Xeon at one BLAS thread).  QR has no such buffer.
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
- ``norm2``, ``eigvalsh``, ``eigh`` and ``standard_eigvals`` pass through
  to ``numpy.linalg``, and ``poly_roots`` to ``numpy.roots`` (an
  eigenvalue solve of the companion matrix), looked up at each call, so
  they return exactly what the numpy call returns.  The one exception:
  ``norm2`` of a nonempty matrix whose entries are all zero, such as a
  structure defect of an exactly structured dH section, is 0 without an
  SVD.
- ``expm``, ``solve``, generalized ``eigvals`` (QZ) and
  ``subspace_angles`` pass through to ``scipy.linalg``, imported on first
  use.
"""

from __future__ import annotations

import numpy as np

EPS = 2.0**-52
# Vector SVDs of matrices with at most this many entries run on numpy.
NUMPY_CAP = 2**18


def _scipy_linalg():
    import scipy.linalg

    return scipy.linalg


def rank_tol(shape: tuple[int, ...], smax: float) -> float:
    """Default rank tolerance sigma_max * 2^-52 * max(shape), in an order that cannot overflow."""
    return smax * EPS * max(shape)


def finite_scale(name: str, value: float) -> float:
    """``value``, or a ValueError naming the scale ``name`` when it is not finite.

    A threshold formed from an infinite scale would call everything small.
    """
    if not np.isfinite(value):
        raise ValueError(f"scale {name} = {value} is not finite: the input is too large")
    return value


def svdvals(mat: np.ndarray) -> np.ndarray:
    """Singular values in descending order, as ``scipy.linalg.svdvals`` gives them."""
    return np.linalg.svd(np.asarray_chkfinite(mat), compute_uv=False)


def _svd(mat: np.ndarray, full: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if mat.size <= NUMPY_CAP:
        return np.linalg.svd(np.asarray_chkfinite(mat), full_matrices=full)
    return _scipy_linalg().svd(mat, full_matrices=full)


def _qr_r(mat: np.ndarray) -> np.ndarray:
    """The square triangle R of a matrix with at least as many rows as columns."""
    return np.linalg.qr(np.asarray_chkfinite(mat), mode="r")


def thin_svd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U, s, Vh`` of the thin SVD."""
    return _svd(mat, False)


def svals_vh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and all right singular vectors (the rows of ``Vh``), from one SVD."""
    rows, cols = mat.shape
    if cols and rows >= 2 * cols:
        mat = _qr_r(mat)
    _, svals, vh = _svd(mat, rows < cols)
    return svals, vh


def _padded(svals: np.ndarray, cols: int) -> np.ndarray:
    if len(svals) < cols:
        svals = np.concatenate([svals, np.zeros(cols - len(svals))])
    return svals


def singular_values(mat: np.ndarray) -> np.ndarray:
    """Singular values only, descending and zero-padded to the column count."""
    return _padded(svdvals(mat), mat.shape[1])


def smallest_right(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values zero-padded to the column count, and the last right singular vector."""
    svals, vh = svals_vh(mat)
    return _padded(svals, mat.shape[1]), vh[-1].conj()


def kernel(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace, from one SVD.

    Singular values at or below ``rank_tol``, with sigma_max taken from that
    SVD, count as zero.
    """
    svals, vh = svals_vh(mat)
    tol = rank_tol(mat.shape, svals[0] if svals.size else 0.0)
    return vh[int(np.sum(svals > tol)):].conj().T


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
