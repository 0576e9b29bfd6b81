"""Dissipative-Hamiltonian structure checks and singularity classification.

All checks run on dense sections of the pencil lambda E - B Q.  Structure
conditions: Q*E selfadjoint and nonnegative, B dissipative (Hermitian part
negative semidefinite, a complete criterion for matrices), Q invertible;
when a split B = J - R is supplied, J anti-selfadjoint and R selfadjoint
nonnegative.  Maximal dissipativity is automatic in finite dimensions and
is therefore reported, not tested.

Classification at section level: a nontrivial common kernel of E and BQ is
equivalent to a constant right singular polynomial and to
sigma_min(lam E - BQ) = 0 at every right-half-plane probe
(``probe_sigma_min`` reports them; ``dh_classify`` reads only the kernel);
a small stacked sigma_min without an exact kernel is evidence of
approximate singularity.  The common kernel is ``linalg.kernel``'s, on the
``point_singular`` rule ``linalg.TOL_POINT`` times sigma_max([E; BQ]); this
module states no kernel threshold of its own.
Structure margins are judged against ``linalg.TOL_STRUCTURE`` times max(||E||_2, ||BQ||_2),
sigma_min(Q) against it times sigma_max(Q); every factor and ``rank_tol`` come from ``linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .operators import DHStructure
from .sections import SectionedPencil, operator_matrix

__all__ = [
    "DHSectionMats",
    "DHDiagnostics",
    "DHReport",
    "dh_section_mats",
    "verify_dh_structure",
    "dh_common_kernel",
    "dh_kernel_EJR",
    "dh_classify",
    "DEFAULT_HALF_PLANE_PROBES",
    "subspace_angle",
]

DEFAULT_HALF_PLANE_PROBES = (1.0 + 0.0j, 2.0 + 0.0j, 1.0 + 1.0j, 1.0 - 1.0j, 0.01 + 10.0j)


@dataclass(frozen=True)
class DHSectionMats:
    section: SectionedPencil  # E and A are its E_mat and A_mat
    B: np.ndarray
    Q: np.ndarray
    BQ: np.ndarray
    J: np.ndarray | None
    R: np.ndarray | None


def dh_section_mats(s: SectionedPencil, dh: DHStructure) -> DHSectionMats:
    """Compress the dH factors onto the section's window.

    B, J and R are taken to the section's stored units and Q is not, since
    A = BQ.  BQ is the product of the compressed factors, which can differ
    from the compressed product; the mismatch against A is surfaced in the
    diagnostics.  Every dH check works on the result; ``dh_classify``
    keeps it in its report, where ``dh-check`` reads its probes.
    """
    if dh is None:
        raise ValueError("pencil carries no dissipative-Hamiltonian metadata")
    if not s.is_square or s.window_in.indices != s.window_out.indices:
        raise ValueError("dH checks need a square section on a common window")
    w = s.window_in
    B = s.stored(operator_matrix(dh.B, w, w))
    Q = operator_matrix(dh.Q, w, w)
    J = s.stored(operator_matrix(dh.J, w, w)) if dh.J is not None else None
    R = s.stored(operator_matrix(dh.R, w, w)) if dh.R is not None else None
    return DHSectionMats(section=s, B=B, Q=Q, BQ=B @ Q, J=J, R=R)


@dataclass(frozen=True)
class DHDiagnostics:
    qe_selfadjoint_defect: float
    qe_min_eig: float
    b_sym_max_eig: float
    q_sigma_min: float
    j_skew_defect: float | None
    r_selfadjoint_defect: float
    r_min_eig: float | None
    bq_vs_a_defect: float
    scale: float  # max(||E||_2, ||BQ||_2, 1e-300), the scale of every dH threshold
    tol: float
    q_tol: float

    @property
    def structure_ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        out = []
        if self.qe_selfadjoint_defect > self.tol:
            out.append("Q*E not selfadjoint")
        if self.qe_min_eig < -self.tol:
            out.append("Q*E not nonnegative")
        if self.b_sym_max_eig > self.tol:
            out.append("B not dissipative")
        if self.q_sigma_min <= self.q_tol:
            out.append("Q not invertible")
        if self.j_skew_defect is not None and self.j_skew_defect > self.tol:
            out.append("J not anti-selfadjoint")
        if self.r_min_eig is not None and (
            self.r_min_eig < -self.tol or self.r_selfadjoint_defect > self.tol
        ):
            out.append("R not selfadjoint nonnegative")
        return out


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def verify_dh_structure(mats: DHSectionMats) -> DHDiagnostics:
    """Margins of the structure conditions on one compressed section, with their thresholds."""
    qe = mats.Q.conj().T @ mats.section.E_mat
    qe_defect = float(linalg.norm2(qe - qe.conj().T))
    qe_min = float(linalg.eigvalsh(_herm(qe))[0])
    b_sym_max = float(linalg.eigvalsh(_herm(mats.B))[-1])
    q_svals = linalg.svdvals(mats.Q)
    j_defect = None
    r_defect = 0.0
    r_min = None
    if mats.J is not None:
        j_defect = float(linalg.norm2(mats.J + mats.J.conj().T))
    if mats.R is not None:
        r_defect = float(linalg.norm2(mats.R - mats.R.conj().T))
        r_min = float(linalg.eigvalsh(_herm(mats.R))[0])
    bq_defect = float(linalg.norm2(mats.BQ - mats.section.A_mat))
    scale = linalg.finite_scale("dH max(||E||_2, ||BQ||_2)",
                                max(mats.section.norm("E"), float(linalg.norm2(mats.BQ)), 1e-300))
    return DHDiagnostics(
        qe_selfadjoint_defect=qe_defect,
        qe_min_eig=qe_min,
        b_sym_max_eig=b_sym_max,
        q_sigma_min=float(q_svals[-1]),
        j_skew_defect=j_defect,
        r_selfadjoint_defect=r_defect,
        r_min_eig=r_min,
        bq_vs_a_defect=bq_defect,
        scale=scale,
        tol=linalg.TOL_STRUCTURE * scale,
        q_tol=linalg.TOL_STRUCTURE * linalg.finite_scale("sigma_max(Q)", float(q_svals[0])),
    )


def dh_common_kernel(mats: DHSectionMats) -> tuple[int, np.ndarray]:
    """Orthonormal basis of ker E intersect ker(BQ), via the stacked matrix."""
    basis = linalg.kernel(mats.section.E_mat, mats.BQ)
    return basis.shape[1], basis


def subspace_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the column spans; 0 for two empty spans."""
    if a.shape[1] != b.shape[1]:
        return float(np.pi / 2)
    if a.shape[1] == 0:
        return 0.0
    return float(linalg.subspace_angles(a, b)[0])


def dh_kernel_EJR(s: SectionedPencil, dh: DHStructure) -> tuple[int, np.ndarray]:
    """Kernel of E^2 + R^2 - J^2 (Q = I, split supplied); checked against the stack.

    With Q = I the Q*E margins of ``verify_dh_structure`` are E's, so its
    failures are the preconditions.  The formula's kernel is its eigenvalues
    at or below ``rank_tol``, the stack's is ``linalg.kernel`` of [E; J; R].
    The formula squares the stack's singular values, so it resolves them only
    down to about sqrt(n * EPS) * sigma_max([E; J; R]): it agrees with the
    stack below ``linalg.TOL_POINT`` * sigma_max([E; J; R]), and refuses
    ("disagrees") between that and its resolution.  Raises if the
    preconditions fail or the two kernels differ in dimension or beyond the
    subspace angle ``linalg.TOL_KERNEL_ANGLE``.
    """
    if not dh.q_is_identity:
        raise ValueError("E/J/R kernel formula requires Q = identity")
    if not dh.has_split:
        raise ValueError("requires the split B = J - R")
    mats = dh_section_mats(s, dh)
    failures = verify_dh_structure(mats).failures()
    if failures:
        raise ValueError("structure preconditions fail: " + "; ".join(failures))
    m = s.E_mat @ s.E_mat + mats.R @ mats.R - mats.J @ mats.J
    m = _herm(m)
    evals, evecs = linalg.eigh(m)
    thr = linalg.rank_tol(m.shape, max(abs(evals[0]), evals[-1], 1e-300))
    kdim = int(np.sum(evals <= thr))
    basis = evecs[:, :kdim]
    stacked = linalg.kernel(s.E_mat, mats.J, mats.R)
    if basis.shape[1] != stacked.shape[1] or subspace_angle(basis, stacked) > linalg.TOL_KERNEL_ANGLE:
        raise ValueError("E^2+R^2-J^2 kernel disagrees with ker E ∩ ker J ∩ ker R")
    return kdim, basis


def probe_sigma_min(mats: DHSectionMats) -> tuple[tuple[complex, float], ...]:
    """sigma_min(lam E - BQ) at each of DEFAULT_HALF_PLANE_PROBES, one values-only SVD each.

    A common kernel of E and BQ makes every value zero; the classification
    does not read them.
    """
    return tuple(
        (complex(lam), float(linalg.svdvals(complex(lam) * mats.section.E_mat - mats.BQ)[-1]))
        for lam in DEFAULT_HALF_PLANE_PROBES
    )


@dataclass(frozen=True)
class DHReport:
    mats: DHSectionMats  # the compressed section that was classified
    diagnostics: DHDiagnostics
    common_kernel_dim: int
    kernel_basis: np.ndarray
    stacked_sigma_min: float
    classification: str


def dh_classify(
    s: SectionedPencil,
    dh: DHStructure,
    tol_ap: float | None = None,
) -> DHReport:
    """Classify a dH section: point_singular / approx_singular_evidence / regular_candidate.

    One values-only SVD of the stack [E; BQ] gives ``stacked_sigma_min``, in
    the section's stored units; ``tol_ap`` is in the units of the pencil.
    The common kernel (``dh_common_kernel``, a vector SVD of the same stack)
    is computed only when that sigma_min is at most
    ``linalg.screen_margin(thr, rank_tol)`` with thr = ``linalg.TOL_POINT``
    times sigma_max of the values-only SVD; above it the kernel, which keeps
    the singular values at or below that rule, is empty.  The report carries
    the compressed ``mats``, for ``probe_sigma_min`` among others.
    """
    mats = dh_section_mats(s, dh)
    diag = verify_dh_structure(mats)
    stacked = np.vstack([mats.section.E_mat, mats.BQ])
    svals = linalg.svdvals(stacked)
    stacked_smin = float(svals[-1])
    thr = linalg.TOL_POINT * linalg.finite_scale("dH sigma_max([E; BQ])", float(svals[0]))
    if stacked_smin <= linalg.screen_margin(thr, linalg.rank_tol(stacked.shape, svals[0])):
        kdim, basis = dh_common_kernel(mats)
    else:
        kdim, basis = 0, np.zeros((stacked.shape[1], 0), dtype=stacked.dtype)
    ta = linalg.TOL_APPROX * diag.scale if tol_ap is None else mats.section.stored(tol_ap)
    if kdim >= 1:
        classification = "point_singular"
    elif stacked_smin <= ta:
        classification = "approx_singular_evidence"
    else:
        classification = "regular_candidate"
    return DHReport(
        mats=mats,
        diagnostics=diag,
        common_kernel_dim=kdim,
        kernel_basis=basis,
        stacked_sigma_min=stacked_smin,
        classification=classification,
    )
