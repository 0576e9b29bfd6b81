"""Singular chains and singular vector polynomials for sectioned pencils.

Extraction works on dense (possibly rectangular) sections only: a chain
x_0..x_k with A x_0 = 0, A x_{j+1} = E x_j, E x_k = 0 is found as a null
vector of a block-Toeplitz system T_d, scanning degrees upward so the
returned chain has minimal length.  Three rules skip degrees that cannot
carry a chain (details in ``extract_right_chain``): a section with at least
as many rows as columns that has full column rank at two fixed unit-circle
probes has no chain, so no T_d is built; a degree whose values-only
sigma_min(T_d) is clearly above the threshold is skipped without computing
singular vectors; and a scan that reaches HINT_DEGREE without a chain
jumps to the minimal index eps that a staircase-style subspace recursion
on the n-sized E and A predicts (Van Dooren 1979; Demmel and Kagstrom,
GUPTRI, 1993), when one values-only screen of T_{eps-1} proves that the
degrees in between would all be skipped.  Section-level verdicts are
statements about the section; they do not automatically lift to the
infinite object.  The tolerance factors sit in the verdict table of ``linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .operators import Pencil
from .sparsevec import SparseVec, vec_iadd, vec_norm
from .sections import SectionedPencil

__all__ = [
    "VectorPolynomial",
    "ChainReport",
    "extract_right_chain",
    "extract_left_chain",
    "chain_to_polynomial",
    "verify_singular_polynomial",
    "reduce_polynomial",
    "polynomial_roots_check",
]

# Fixed unit-circle points of the full-column-rank exit of extract_right_chain.
RANK_PROBES = (np.exp(2j * np.pi * 0.1234567), np.exp(2j * np.pi * 0.6180339))
# Degree at which extract_right_chain computes its minimal-index hint.
HINT_DEGREE = 6


@dataclass(frozen=True)
class VectorPolynomial:
    """Polynomial with finitely supported vector coefficients a_0..a_k.

    Coefficients are copied and trailing zeros trimmed at construction.
    ``evaluate`` returns sum_j lam^j a_j as a sparse vector.
    """

    coeffs: tuple[SparseVec, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(dict(c) for c in trimmed))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def evaluate(self, lam: complex) -> SparseVec:
        out: SparseVec = {}
        power = 1.0 + 0.0j
        for c in self.coeffs:
            vec_iadd(out, c, power)
            power *= lam
        return out

    def reversal(self) -> "VectorPolynomial":
        return VectorPolynomial(self.coeffs[::-1])

    def coefficient_matrix(self) -> tuple[np.ndarray, list[int]]:
        """Dense (k+1) x |support| matrix of coefficients and the support."""
        support = sorted({j for c in self.coeffs for j in c})
        mat = np.zeros((len(self.coeffs), len(support)), dtype=complex)
        pos = {j: i for i, j in enumerate(support)}
        for d, c in enumerate(self.coeffs):
            for j, v in c.items():
                mat[d, pos[j]] = v
        return mat, support


@dataclass(frozen=True)
class ChainReport:
    """Extracted singular chain with per-link residual norms."""

    side: str
    chain: tuple[np.ndarray, ...]
    minimal_index: int
    residuals: tuple[float, ...]
    window_indices: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "minimal_index": self.minimal_index,
            "residuals": list(self.residuals),
            "window_indices": list(self.window_indices),
            "vectors": [[[z.real, z.imag] for z in v] for v in self.chain],
        }


def _chain_system(E: np.ndarray, A: np.ndarray, d: int) -> np.ndarray:
    """Block matrix whose null vectors are chains of length d.

    Unknown x_0..x_d (stacked); rows enforce A x_0 = 0, then
    E x_{j-1} - A x_j = 0 for j = 1..d, then E x_d = 0.
    """
    m, k = A.shape
    T = np.zeros(((d + 2) * m, (d + 1) * k), dtype=complex)
    T[:m, :k] = A
    for j in range(1, d + 1):
        T[j * m : (j + 1) * m, (j - 1) * k : j * k] = E
        T[j * m : (j + 1) * m, j * k : (j + 1) * k] = -A
    T[(d + 1) * m :, d * k :] = E
    return T


def _null_basis(mat: np.ndarray, thr: float) -> np.ndarray:
    """Orthonormal columns spanning the right singular directions with sigma <= thr."""
    svals, vh = linalg.svals_vh(mat)
    return vh[int(np.sum(svals > thr)) :].conj().T


def _right_index_hint(E: np.ndarray, A: np.ndarray, thr: float) -> int | None:
    """Minimal right index of the section pencil from n-sized nullspaces, or None.

    S_0 = ker A and S_{j+1} = A^{-1}(E S_j) hold the vectors x_j that end a
    chain x_0..x_j with A x_0 = 0 and A x_{i+1} = E x_i; the hint is the
    first j with ker(E|S_j) != 0.  Rank decisions are sigma <= thr.  When
    S_j stops growing no chain of any length exists, and the hint is None.
    """
    basis = _null_basis(A, thr)
    for j in range(A.shape[1]):
        if basis.shape[1] == 0:
            return None
        u, svals, _ = linalg.thin_svd(E @ basis)
        if len(svals) < basis.shape[1] or svals[-1] <= thr:
            return j
        grown = _null_basis(A - u @ (u.conj().T @ A), thr)
        if grown.shape[1] <= basis.shape[1]:
            return None
        basis = grown
    return None


def _jump_target(E: np.ndarray, A: np.ndarray, thr: float) -> int:
    """Degree at which the scan goes on from HINT_DEGREE: the hint eps where certified.

    See ``extract_right_chain`` for the certificate.  The hint is computed
    only if k leaves room for a jump.
    """
    k = A.shape[1]
    eps = _right_index_hint(E, A, thr) if k > HINT_DEGREE + 2 else None
    if eps is None or not HINT_DEGREE + 1 < eps < k:
        return HINT_DEGREE
    T = _chain_system(E, A, eps - 1)
    if T.shape[0] < T.shape[1]:
        return HINT_DEGREE
    screen = linalg.singular_values(T)
    rt = linalg.rank_tol(T.shape, screen[0])
    return eps if screen[-1] > linalg.screen_margin(thr, rt) + 2 * rt else HINT_DEGREE


def _scan_degrees(E: np.ndarray, A: np.ndarray, thr: float):
    """Degrees 0..k-1 in the order the scan visits them, with one certified jump.

    The jump is decided only when the scan reaches HINT_DEGREE without a chain.
    """
    k = A.shape[1]
    yield from range(min(k, HINT_DEGREE))
    yield from range(_jump_target(E, A, thr), k)


def _link_residuals(E: np.ndarray, A: np.ndarray, chain: list[np.ndarray]) -> list[float]:
    res = [float(linalg.vector_norm(A @ chain[0]))]
    for j in range(1, len(chain)):
        res.append(float(linalg.vector_norm(A @ chain[j] - E @ chain[j - 1])))
    res.append(float(linalg.vector_norm(E @ chain[-1])))
    return res


def extract_right_chain(s: SectionedPencil, tol: float = linalg.TOL_CHAIN) -> ChainReport | None:
    """Minimal-length right singular chain of a dense section, if one exists.

    Returns None for regular sections.  Link residuals are bounded by
    tol * (||E|| + ||A||); chain vectors are checked for linear
    independence at the same scale.  ``tol`` must be finite and
    nonnegative, and the scale and thr finite (ValueError otherwise).

    Degree d is accepted when sigma_min(T_d) <= thr = tol * scale, with
    scale = ||E||_2 + ||A||_2 (or 1 if 0).  Two rules skip degrees that cannot be:

    - Full-column-rank exit, for m >= k (rows >= columns): if
      sigma_k(lam0 E - A) > sqrt(tol) * scale at both ``RANK_PROBES``, the
      result is None and no T_d is built.  In exact arithmetic full column
      rank at one point proves that no right chain of any length exists.
      Numerically: a unit v with ||T_d v|| <= thr gives the polynomial
      p_v(lam) = sum_j lam^j x_j, and on the unit circle
      sigma_min(lam0 E - A) * ||p_v(lam0)|| <= sqrt(d + 2) * thr.  So the
      exit can only overrule a chain whose polynomial is below
      sqrt(d + 2) * sqrt(tol) at both probes.  If either sigma_k is at or
      below the margin, every degree is scanned.
    - Values-only screening: where T_d has at least as many rows as
      columns, its singular values are computed first, without vectors, and
      the degree is skipped, as one the vector SVD rejects too, when
      sigma_min(T_d) exceeds ``linalg.screen_margin(thr, rank_tol)``.
      Otherwise the vector SVD decides and gives the chain vectors.  After
      the first screen that skips nothing, no later degree is screened:
      sigma_min(T_d) is nonincreasing in d (see below), so the later
      screens would mostly fail as well.
    - Certified jump: a scan that reaches degree HINT_DEGREE (6) without a
      chain computes the hint eps of ``_right_index_hint`` once, from
      nullspaces of n-sized matrices at the same thr.  If
      HINT_DEGREE + 1 < eps < k and T_{eps-1} has at least as many rows as
      columns, one values-only screen of T_{eps-1} is taken, and the scan
      continues at degree eps when sigma_min(T_{eps-1}) exceeds the screen
      margin plus 2 * rank_tol(T_{eps-1}).  The screen would then have
      skipped every degree from HINT_DEGREE to eps - 1: sigma_min(T_d) is
      nonincreasing in d, since [v; 0] carries a vector of T_d into
      T_{d+1} with the same residual; the margin and rank_tol are
      nondecreasing in d; and if T_{eps-1} has at least as many rows as
      columns, so has every lower T_d.  The extra 2 * rank_tol covers the
      rounding of both values-only SVDs, so the report is the one the full
      scan gives.  With no hint, a smaller eps or a failed certificate the
      scan goes on degree by degree.  Below HINT_DEGREE the hint would cost
      more than the screens it saves.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"chain tolerance must be finite and nonnegative, got {tol!r}")
    E, A = s.E_mat, s.A_mat
    m, k = A.shape
    scale = s.scale or 1.0
    thr = linalg.finite_scale("tol * (||E||_2 + ||A||_2)", tol * scale)
    if 0 < k <= m and all(
        linalg.singular_values(lam * E - A)[-1] > np.sqrt(tol) * scale for lam in RANK_PROBES
    ):
        return None
    screening = True
    for d in _scan_degrees(E, A, thr):
        T = _chain_system(E, A, d)
        if screening and T.shape[0] >= T.shape[1]:
            screen = linalg.singular_values(T)
            if screen[-1] > linalg.screen_margin(thr, linalg.rank_tol(T.shape, screen[0])):
                continue
            screening = False
        svals, null = linalg.smallest_right(T)
        if svals[-1] > thr:
            continue
        chain = [null[j * k : (j + 1) * k] for j in range(d + 1)]
        norm = max(linalg.vector_norm(v) for v in chain)
        chain = [v / norm for v in chain]
        stackmat = np.column_stack(chain)
        indep = linalg.singular_values(stackmat)[-1] if d > 0 else np.linalg.norm(chain[0])
        if indep <= tol:
            continue  # degenerate null vector; a genuine chain shows at higher d
        return ChainReport(
            side="right",
            chain=tuple(chain),
            minimal_index=d,
            residuals=tuple(_link_residuals(E, A, chain)),
            window_indices=s.window_in.indices,
        )
    return None


def extract_left_chain(s: SectionedPencil, tol: float = linalg.TOL_CHAIN) -> ChainReport | None:
    """Right chain of the adjoint section (same norms, so same thr), reported as a left chain."""
    rep = extract_right_chain(s.adjoint(), tol)
    if rep is None:
        return None
    return replace(rep, side="left", window_indices=s.window_out.indices)


def chain_to_polynomial(report: ChainReport) -> VectorPolynomial:
    """p(lambda) = sum_j lambda^j x_j over the logical indices of the window."""
    coeffs = []
    for v in report.chain:
        coeffs.append({j: complex(c) for j, c in zip(report.window_indices, v) if c != 0})
    return VectorPolynomial(coeffs)


def _default_probes(degree: int) -> list[complex]:
    base = [0.0, 1.0, -1.0, 2.0j, 1.0 + 1.0j, -2.0, 3.0, 0.5 - 1.5j]
    probes = list(base)
    t = 2
    while len(probes) < degree + 2:
        probes.append(complex(t, -t / 2))
        t += 1
    return probes[: max(degree + 2, 3)]


def verify_singular_polynomial(
    target: Pencil | SectionedPencil,
    q: VectorPolynomial,
    side: str,
    probes: list[complex] | None = None,
) -> float:
    """Max over probes of ||(lam E - A) q(lam)|| (or the adjoint pencil for side left).

    For a degree-k polynomial, k+2 distinct probes certify identical
    vanishing, since a nonzero vector polynomial of degree <= k+1 cannot
    have k+2 roots.
    """
    if q.is_zero:
        raise ValueError("zero polynomial")
    if probes is None:
        probes = _default_probes(q.degree)
    if len(probes) != len(set(probes)):
        raise ValueError("probe list contains repeated values")
    if not probes:
        raise ValueError("probes must be nonempty")

    if isinstance(target, SectionedPencil):
        sec = target.adjoint() if side == "left" else target
        pos = {j: i for i, j in enumerate(sec.window_in.indices)}
        worst = 0.0
        for lam in probes:
            val = q.evaluate(lam)
            x = np.zeros(sec.window_in.dim, dtype=complex)
            for j, c in val.items():
                if j not in pos:
                    raise ValueError(f"polynomial support index {j} outside section window")
                x[pos[j]] = c
            # exact power-of-two scalings keep the product finite until its norm
            mat = sec.evaluate(lam)
            em, ex = (max(0, math.frexp(np.abs(a).max(initial=0.0))[1]) for a in (mat, x))
            res = linalg.vector_norm((mat * 2.0**-em) @ (x * 2.0**-ex))
            worst = max(worst, float(np.ldexp(res, em + ex)))
        return worst

    pencil = target.adjoint() if side == "left" else target
    worst = 0.0
    for lam in probes:
        worst = max(worst, vec_norm(pencil.evaluate_action(lam, q.evaluate(lam))))
    return worst


def _poly_eval_scalar(coeffs: np.ndarray, z: complex) -> complex:
    out = 0.0 + 0.0j
    for c in coeffs[::-1]:
        out = out * z + c
    return complex(out)


def _deflate(coeffs: np.ndarray, root: complex) -> np.ndarray:
    """Synthetic division of sum_d coeffs[d] lam^d by (lam - root)."""
    k = len(coeffs) - 1
    out = np.zeros(k, dtype=complex)
    carry = coeffs[k]
    for d in range(k - 1, -1, -1):
        out[d] = carry
        carry = coeffs[d] + carry * root
    return out


def reduce_polynomial(q: VectorPolynomial) -> VectorPolynomial:
    """Divide out the scalar GCD of the coordinate polynomials.

    Coordinates are taken in an orthonormal frame of the coefficient span;
    common roots are matched numerically at ``linalg.TOL_ROOT_CLUSTER`` and
    removed by deflation, together with common lambda factors and trailing
    zero coefficients.  The result and its reversal are root-free, and the
    operation is idempotent.
    """
    if q.is_zero:
        raise ValueError("cannot reduce the zero polynomial")
    mat, support = q.coefficient_matrix()
    # orthonormal frame of the coefficient span
    u, svals, vh = linalg.thin_svd(mat)
    rank = int(np.sum(svals > linalg.rank_tol(mat.shape, svals[0]))) if svals.size else 0
    rank = max(rank, 1)
    coords = u[:, :rank] * svals[:rank]  # (k+1) x rank; rows = coefficient coords
    frame = vh[:rank]

    scale = np.abs(coords).max()
    small = linalg.TOL_NEGLIGIBLE * scale

    def strip(c: np.ndarray) -> np.ndarray:
        """Drop zero trailing coefficients, then zero leading ones (common factors lambda)."""
        while c.shape[0] > 1 and np.all(np.abs(c[-1]) <= small):
            c = c[:-1]
        while c.shape[0] > 1 and np.all(np.abs(c[0]) <= small):
            c = c[1:]
        return c

    coords = strip(coords)

    # common finite roots across all coordinate polynomials
    changed = True
    while changed and coords.shape[0] > 1:
        changed = False
        lead = next(i for i in range(rank) if np.abs(coords[:, i]).max() > small)
        roots = linalg.poly_roots(coords[::-1, lead])
        for r in roots:
            bound = max(1.0, abs(r)) ** (coords.shape[0] - 1)
            if all(
                abs(_poly_eval_scalar(coords[:, i], r))
                <= linalg.TOL_ROOT_CLUSTER * max(np.abs(coords[:, i]).max(), small) * bound
                for i in range(rank)
            ):
                coords = np.column_stack([_deflate(coords[:, i], r) for i in range(rank)])
                coords = strip(coords)
                changed = True
                break

    reduced = coords @ frame
    out_coeffs: list[SparseVec] = []
    for row in reduced:
        out_coeffs.append(
            {j: complex(c) for j, c in zip(support, row) if abs(c) > small}
        )
    result = VectorPolynomial(out_coeffs)
    if result.is_zero:  # numerically everything cancelled; keep the input
        return q
    return result


def polynomial_roots_check(q: VectorPolynomial, grid: list[complex]) -> bool:
    """Falsification probe: True iff ||q|| and ||rev q|| exceed TOL_NEAR_ROOT on the grid.

    The threshold is the absolute ``linalg.TOL_NEAR_ROOT``.  Not a proof of root-freeness;
    a False verdict exhibits a near-root.
    """
    rev, tol = q.reversal(), linalg.TOL_NEAR_ROOT
    for lam in grid:
        if vec_norm(q.evaluate(lam)) <= tol or vec_norm(rev.evaluate(lam)) <= tol:
            return False
    return True
