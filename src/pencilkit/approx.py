"""Approximate singular polynomial sequences and the Gram non-degeneracy bound.

Sequences are represented by generators n -> polynomial, because the
interesting families have unbounded degree.  Residuals are evaluated
exactly: coefficient supports are finite, so the (possibly unbounded)
operators act without truncation error.  The Gram matrix of a polynomial's
coefficient vectors gives a uniform lower bound on ||p_n(lam)|| and
||rev p_n(lam)||: if xi = inf_n lambda_min(Gram_n) > 0, neither value can
sink to zero at any lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import linalg
from .chains import VectorPolynomial
from .operators import Pencil
from .sparsevec import SparseVec, vec_norm, vec_scale

__all__ = [
    "PolynomialSequence",
    "ResidualRow",
    "GramReport",
    "sequence_residuals",
    "gram_lower_bound",
    "approx_kernel_sequence",
]


@dataclass(frozen=True)
class PolynomialSequence:
    """Indexed family n -> vector polynomial with finitely supported coefficients."""

    generator: Callable[[int], VectorPolynomial]

    def __call__(self, n: int) -> VectorPolynomial:
        p = self.generator(n)
        if p.is_zero:
            raise ValueError(f"generated polynomial at n={n} is zero")
        return p


@dataclass(frozen=True)
class ResidualRow:
    n: int
    probe: complex
    forward: float | None
    reverse: float | None
    p_norm: float
    revp_norm: float


def sequence_residuals(
    p: Pencil | None,
    seq: PolynomialSequence,
    probes: Sequence[complex],
    n_range: Iterable[int],
) -> list[ResidualRow]:
    """Per-(n, probe) norms of (lam E - A) p_n(lam) and (lam A - E) rev p_n(lam).

    Without a pencil only the norms of p_n(lam) and rev p_n(lam) are taken;
    ``forward`` and ``reverse`` are then None.
    """
    rev_pencil = None if p is None else p.reverse()
    rows = []
    for n in n_range:
        poly = seq(n)
        rev = poly.reversal()
        for lam in probes:
            val = poly.evaluate(lam)
            rval = rev.evaluate(lam)
            rows.append(
                ResidualRow(
                    n=n,
                    probe=complex(lam),
                    forward=None if p is None else vec_norm(p.evaluate_action(lam, val)),
                    reverse=None if p is None else vec_norm(rev_pencil.evaluate_action(lam, rval)),
                    p_norm=vec_norm(val),
                    revp_norm=vec_norm(rval),
                )
            )
    return rows


@dataclass(frozen=True)
class GramReport:
    n_values: tuple[int, ...]
    grams: tuple[np.ndarray, ...]
    lambda_min: tuple[float, ...]
    xi: float


def gram_lower_bound(seq: PolynomialSequence, n_range: Iterable[int]) -> GramReport:
    """Gram matrices of coefficient vectors, their lambda_min, and the running infimum.

    Each Gram matrix is one product M M* of ``coefficient_matrix``'s M.

    ``lambda_min`` also bounds the reversal polynomials: the Gram matrix of
    rev p is the index-reversed Gram matrix of p (a principal block of it when
    p's lowest coefficients vanish), so its lambda_min is no smaller.
    """
    ns, grams, lmins = [], [], []
    for n in n_range:
        mat, _ = seq(n).coefficient_matrix()
        g = mat @ mat.conj().T
        ns.append(n)
        grams.append(g)
        lmins.append(float(linalg.eigvalsh(g)[0]))
    return GramReport(
        n_values=tuple(ns),
        grams=tuple(grams),
        lambda_min=tuple(lmins),
        xi=min(lmins) if lmins else 0.0,
    )


def approx_kernel_sequence(witness_rule: Callable[[int], SparseVec]) -> PolynomialSequence:
    """Constant unit-norm polynomials from a joint-approximate-kernel witness family."""

    def gen(n: int) -> VectorPolynomial:
        x = witness_rule(n)
        if not x:
            raise ValueError(f"witness at n={n} is zero")
        return VectorPolynomial([vec_scale(1.0 / vec_norm(x), x)])

    return PolynomialSequence(generator=gen)
