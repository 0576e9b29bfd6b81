"""Pointwise classification of lambda values for sectioned pencils.

A point is classified from sigma_min(lambda E - A) of the section (and of
its conjugate transpose, which differs only for rectangular sections).
Infinity is handled exclusively through the reversal pencil: the verdict at
infinity is the verdict of lambda A - E at zero.  Verdicts are section
statements; convergence across growing windows is the only evidence offered
about the infinite object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .sections import SectionedPencil

__all__ = [
    "INFINITY",
    "PointClassification",
    "classify_point",
    "spectra_grid",
    "regularity_disc",
]

INFINITY = math.inf

DEFAULT_TOL_POINT_FACTOR = 1e-10
DEFAULT_TOL_AP_FACTOR = 1e-6


@dataclass(frozen=True)
class PointClassification:
    lam: complex | float
    sigma_min: float
    sigma_min_adjoint: float
    verdict: str
    tol_point: float
    tol_ap: float


def classify_point(s: SectionedPencil, lam: complex | float) -> PointClassification:
    """Classify a point (or infinity, via the reversal) for one section.

    The thresholds are DEFAULT_TOL_*_FACTOR times sigma_max; the report states both.
    A sigma_max that is not finite is refused (ValueError).
    """
    if lam == INFINITY:
        inner = classify_point(s.reverse(), 0.0)
        return replace(inner, lam=INFINITY)
    mat = s.evaluate(complex(lam))
    svals = linalg.svdvals(mat)
    smax = float(svals[0]) if svals.size else 0.0
    linalg.finite_scale(f"sigma_max(lam E - A) at lam={lam}", smax)
    rows, cols = mat.shape
    smin = float(svals[-1]) if svals.size == cols else 0.0
    smin_adj = float(svals[-1]) if svals.size == rows else 0.0
    tp = DEFAULT_TOL_POINT_FACTOR * smax
    ta = DEFAULT_TOL_AP_FACTOR * smax
    if smin <= tp:
        verdict = "point_singular"
    elif smin <= ta:
        verdict = "approx_singular_only"
    elif min(smin, smin_adj) <= ta:
        verdict = "singular_only"
    else:
        verdict = "regular"
    return PointClassification(lam, smin, smin_adj, verdict, tp, ta)


def spectra_grid(
    s: SectionedPencil,
    rect: tuple[float, float, float, float],
    steps: tuple[int, int],
) -> tuple[PointClassification, ...]:
    """classify_point on an inclusive rectangular grid, row-major by re then im."""
    re_min, re_max, im_min, im_max = rect
    n_re, n_im = steps
    if n_re < 2 or n_im < 2:
        raise ValueError("need at least 2 steps per axis")
    res = np.linspace(re_min, re_max, n_re)
    ims = np.linspace(im_min, im_max, n_im)
    return tuple(classify_point(s, complex(re, im)) for re in res for im in ims)


def regularity_disc(s: SectionedPencil, lam: complex) -> float:
    """Radius sigma_min(lam E - A) / ||E|| of guaranteed section regularity around lam.

    Every point strictly inside the disc is regular for the same section.
    A section whose ``classify_point`` verdict at lam is not ``regular`` is
    refused, and so is every non-square section, which is never ``regular``.
    """
    pc = classify_point(s, lam)
    if pc.verdict != "regular":
        raise ValueError(f"section not invertible at {lam}")
    return math.inf if s.norm("E") == 0.0 else pc.sigma_min / s.norm("E")
