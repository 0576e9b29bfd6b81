"""Finite sections of pencils and the stacked-sigma_min singularity certificate.

A section compresses a pencil onto the canonical basis window of size ``n``:
indices ``1..n`` for l2N and finite spaces, the symmetric window ``-n..n``
for l2Z.  l2Z windows are stored in the interleaved order 0, -1, 1, -2, 2,
... so that nested windows are storage prefixes of one another; the window
object records both storage and logical orderings.

A section owns its scale.  Verdicts do not change when lambda E - A is scaled,
so a section whose largest real or imaginary part lies outside [2^-RANGE,
2^RANGE] stores E and A divided by the 2^exponent that brings it into [1/2, 1);
else ``exponent`` is 0 and E and A are kept bit for bit.  ``unscaled`` takes a
value of the stored matrices to the input's units, ``stored`` a dH factor to
theirs; no other module does power-of-two arithmetic.  ``reverse`` and
``adjoint`` are copies that carry the exponent, with no second range scan.
``norm`` computes ||E||_2 or ||A||_2 on first use, keeps it and shares it with
the adjoint, and ``scale`` is their sum; lazy, as pointwise verdicts and
certificates read neither.

The distance-to-singularity certificate is the smallest singular value of
the stacked matrix [A; E].  ``linalg.smallest_right`` takes A_mat and E_mat
and makes the stack itself, its one holder: it frees the stack after the QR
that leaves the square triangle for the SVD, and above the cap that QR
overwrites it.  The Frobenius-nearest singular pencil itself is
not computed (NP-hard in general); if the certificate tends to zero along a
window schedule, so does the true distance.
"""

from __future__ import annotations

import copy
import math
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

RANGE = 100  # stored parts below 2^100 keep the chain check's residual norms finite


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
    exponent: int = field(default=0, init=False)
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        big = max(float(np.abs(part).max(initial=0.0))
                  for mat in (self.E_mat, self.A_mat) for part in (mat.real, mat.imag))
        if not 2.0**-RANGE <= big <= 2.0**RANGE:  # 0, inf and nan give exponent 0
            object.__setattr__(self, "exponent", math.frexp(big)[1])
            object.__setattr__(self, "E_mat", self.stored(self.E_mat))
            object.__setattr__(self, "A_mat", self.stored(self.A_mat))

    def stored(self, mat: np.ndarray) -> np.ndarray:
        """``mat`` / 2^exponent, in two factors that stay normal for a subnormal part (2^1073)."""
        e = self.exponent
        return mat * 2.0**-(e // 2) * 2.0**-(e - e // 2) if e else mat

    def unscaled(self, value: float, name: str) -> float:
        """``value`` of the stored matrices times 2^exponent; ValueError naming it on overflow."""
        if math.frexp(value)[1] + self.exponent > 1024:
            raise ValueError(f"{name} = {float(value)!r} * 2^{self.exponent} is too large")
        return math.ldexp(value, self.exponent)

    def norm(self, name: str) -> float:
        """||E||_2 or ||A||_2 of the stored matrices, for ``name`` "E" or "A"."""
        if name not in self._norms:
            mat = {"E": self.E_mat, "A": self.A_mat}[name]
            self._norms[name] = float(linalg.norm2(mat))
        return self._norms[name]

    @property
    def scale(self) -> float:
        return self.norm("E") + self.norm("A")

    @property
    def shape(self) -> tuple[int, int]:
        return self.E_mat.shape  # type: ignore[return-value]

    @property
    def is_square(self) -> bool:
        return self.E_mat.shape[0] == self.E_mat.shape[1]

    def evaluate(self, lam: complex) -> np.ndarray:
        return lam * self.E_mat - self.A_mat

    def reverse(self) -> "SectionedPencil":
        rev = copy.copy(self)  # no __post_init__: the matrices are stored already
        rev.__dict__.update(E_mat=self.A_mat, A_mat=self.E_mat, _norms={})
        return rev

    def adjoint(self) -> "SectionedPencil":
        adj = copy.copy(self)  # shares the norms, as ||M*||_2 = ||M||_2
        adj.__dict__.update(window_in=self.window_out, window_out=self.window_in,
                            E_mat=self.E_mat.conj().T, A_mat=self.A_mat.conj().T)
        return adj


def section(p: Pencil, n: int) -> SectionedPencil:
    """Orthogonal compression of a pencil onto the canonical window of size n."""
    win_in, win_out = window_for(p.space_in, n), window_for(p.space_out, n)
    return SectionedPencil(win_in, win_out, operator_matrix(p.E, win_out, win_in),
                           operator_matrix(p.A, win_out, win_in))


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
    svals, witness = linalg.smallest_right(s.A_mat, s.E_mat)
    return StackedCertificate(value=float(svals[-1]), witness=witness)


# The same certificate, read as the joint-kernel defect of E and A.
joint_kernel_defect = distance_to_singularity_bound
