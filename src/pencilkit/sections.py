"""Finite sections of pencils and the stacked-sigma_min singularity certificate.

A section compresses a pencil onto the canonical basis window of size ``n``:
indices ``1..n`` for l2N and finite spaces, the symmetric window ``-n..n``
for l2Z.  l2Z windows are stored in the interleaved order 0, -1, 1, -2, 2,
... so that nested windows are storage prefixes of one another; the window
object records both storage and logical orderings.

A section owns its scale: ``norm`` computes ||E||_2 or ||A||_2 on first use,
keeps it and shares it with the adjoint, and ``scale`` is their sum, read by
``chains``; ``dh`` and ``spectra.regularity_disc`` read ||E||_2 and a
``fixtures`` check ||A||_2.  Lazy, because pointwise verdicts and stacked
certificates (sweeps up to n = 800) read neither.  A scale that is not
finite is refused (ValueError).

The distance-to-singularity certificate is the smallest singular value of
the stacked matrix [A; E].  The Frobenius-nearest singular pencil itself is
not computed (NP-hard in general); if the certificate tends to zero along a
window schedule, so does the true distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .operators import DenseBlock, Pencil, Space, StructuredOperator

__all__ = [
    "SectionWindow",
    "SectionedPencil",
    "section",
    "operator_matrix",
    "distance_to_singularity_bound",
    "joint_kernel_defect",
    "StackedCertificate",
    "window_for",
]


@dataclass(frozen=True)
class SectionWindow:
    """Basis window of a space, with logical indices in storage order."""

    space: Space
    indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.indices)

    def position(self, j: int) -> int:
        return self.indices.index(j)


def window_for(space: Space, n: int) -> SectionWindow:
    if n < 1:
        raise ValueError("window size must be >= 1")
    if space.kind == "l2Z":
        idx = tuple(space.canonical_index(p) for p in range(2 * n + 1))
    elif space.kind == "finite":
        idx = tuple(range(1, min(n, space.dim) + 1))  # type: ignore[arg-type]
    else:
        idx = tuple(range(1, n + 1))
    return SectionWindow(space, idx)


def operator_matrix(
    op: StructuredOperator, window_out: SectionWindow, window_in: SectionWindow
) -> np.ndarray:
    """Compression matrix with entries <op e_j, e_i> over the given windows.

    A ``DenseBlock`` is copied in one indexed assignment of the part of its
    matrix that falls inside the windows, its logical indices mapped to
    storage positions as for every other operator.  Entries equal to zero
    (``-0.0`` included) land as ``+0.0``, as they do in the per-column loop
    that every other operator, and a ``DenseBlock`` inside a ``Sum`` or
    ``Scale``, goes through.
    """
    rows = {j: i for i, j in enumerate(window_out.indices)}
    mat = np.zeros((window_out.dim, window_in.dim), dtype=complex)
    if type(op) is DenseBlock:
        _copy_dense_block(mat, op, rows, window_in.indices)
        return mat
    for col, j in enumerate(window_in.indices):
        for i, c in op.apply_basis(j).items():
            r = rows.get(i)
            if r is not None:
                mat[r, col] = c
    return mat


def _copy_dense_block(
    mat: np.ndarray, op: DenseBlock, rows: dict[int, int], cols: tuple[int, ...]
) -> None:
    height, width = op.matrix.shape
    for j in cols:  # an index outside the input space raises as apply_basis does
        op._check_index(j)
    at_rows = [(r, i - op.row_start) for i, r in rows.items() if 0 <= i - op.row_start < height]
    at_cols = [(c, j - op.col_start) for c, j in enumerate(cols) if 0 <= j - op.col_start < width]
    if at_rows and at_cols:
        (dst_r, src_r), (dst_c, src_c) = zip(*at_rows), zip(*at_cols)
        block = op.matrix[np.ix_(src_r, src_c)]
        mat[np.ix_(dst_r, dst_c)] = np.where(block != 0, block, 0)


@dataclass(frozen=True)
class SectionedPencil:
    """Dense compression Q_n (lambda E - A)|_{ran P_n} of a pencil."""

    window_in: SectionWindow
    window_out: SectionWindow
    E_mat: np.ndarray
    A_mat: np.ndarray
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def norm(self, name: str) -> float:
        """||E||_2 or ||A||_2 for ``name`` "E" or "A"."""
        if name not in self._norms:
            mat = {"E": self.E_mat, "A": self.A_mat}[name]
            self._norms[name] = linalg.finite_scale(f"||{name}||_2", float(linalg.norm2(mat)))
        return self._norms[name]

    @property
    def scale(self) -> float:
        return linalg.finite_scale("||E||_2 + ||A||_2", self.norm("E") + self.norm("A"))

    @property
    def shape(self) -> tuple[int, int]:
        return self.E_mat.shape  # type: ignore[return-value]

    @property
    def is_square(self) -> bool:
        return self.E_mat.shape[0] == self.E_mat.shape[1]

    def evaluate(self, lam: complex) -> np.ndarray:
        return lam * self.E_mat - self.A_mat

    def stacked(self) -> np.ndarray:
        return np.vstack([self.A_mat, self.E_mat])

    def reverse(self) -> "SectionedPencil":
        return SectionedPencil(self.window_in, self.window_out, self.A_mat, self.E_mat)

    def adjoint(self) -> "SectionedPencil":
        adj = SectionedPencil(self.window_out, self.window_in,
                              self.E_mat.conj().T, self.A_mat.conj().T)
        object.__setattr__(adj, "_norms", self._norms)  # ||M*||_2 = ||M||_2
        return adj


def section(p: Pencil, n: int) -> SectionedPencil:
    """Orthogonal compression of a pencil onto the canonical window of size n."""
    win_in = window_for(p.space_in, n)
    win_out = window_for(p.space_out, n)
    return SectionedPencil(
        window_in=win_in,
        window_out=win_out,
        E_mat=operator_matrix(p.E, win_out, win_in),
        A_mat=operator_matrix(p.A, win_out, win_in),
    )


def numerical_rank_tol(mat: np.ndarray) -> float:
    """Default rank tolerance of ``mat`` under the package policy (``linalg.rank_tol``)."""
    return linalg.rank_tol(mat.shape, linalg.svdvals(mat)[0] if mat.size else 0.0)


@dataclass(frozen=True)
class StackedCertificate:
    """sigma_min of the stacked [A; E] matrix with its minimizing unit vector."""

    value: float
    witness: np.ndarray


def distance_to_singularity_bound(s: SectionedPencil) -> StackedCertificate:
    """Certificate controlling the Frobenius distance to the nearest singular pencil.

    Returns sigma_min([A; E]) together with the minimizing unit vector x,
    which satisfies ||E x||^2 + ||A x||^2 = value^2; if this value tends to
    0 along a window schedule, the true distance to singularity of the
    sections tends to 0 as well.
    """
    svals, witness = linalg.smallest_right(s.stacked())
    return StackedCertificate(value=float(svals[-1]), witness=witness)


# The same certificate, read as the joint-kernel defect of E and A.
joint_kernel_defect = distance_to_singularity_bound
