"""Dense singular-value kernels and the package's single rank-tolerance policy.

Every smallest-singular-vector and nullspace computation goes through this
module.  The vector helpers take the thin SVD; the full ``Vh`` is requested
only for matrices with fewer rows than columns, the one case in which null
directions are missing from the thin factor.  ``singular_values`` computes
no vectors at all, for callers that only compare sigma_min with a threshold.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

EPS = 2.0**-52


def rank_tol(shape: tuple[int, ...], smax: float) -> float:
    """Default rank tolerance: max(shape) * sigma_max * 2^-52."""
    return max(shape) * smax * EPS


def _svals_vh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = mat.shape
    _, svals, vh = scipy.linalg.svd(mat, full_matrices=rows < cols)
    return svals, vh


def _padded(svals: np.ndarray, cols: int) -> np.ndarray:
    if len(svals) < cols:
        svals = np.concatenate([svals, np.zeros(cols - len(svals))])
    return svals


def singular_values(mat: np.ndarray) -> np.ndarray:
    """Singular values only, descending and zero-padded to the column count."""
    return _padded(scipy.linalg.svdvals(mat), mat.shape[1])


def smallest_right(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values zero-padded to the column count, and the last right singular vector."""
    svals, vh = _svals_vh(mat)
    return _padded(svals, mat.shape[1]), vh[-1].conj()


def kernel(mat: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace, from one SVD.

    The default tolerance is ``rank_tol`` with sigma_max taken from that SVD.
    """
    svals, vh = _svals_vh(mat)
    if tol is None:
        tol = rank_tol(mat.shape, svals[0] if svals.size else 0.0)
    return vh[int(np.sum(svals > tol)):].conj().T
