"""Each verdict rule flips at its threshold from the verdict table of ``linalg``.

The compared value is put one ulp below, at, and one ulp above its threshold
(``np.nextafter``), on sections whose singular values and eigenvalues LAPACK
returns exactly: diagonal matrices, and a stack with orthogonal columns.
Every scale is 1, so each threshold is the table factor itself.
"""

import numpy as np
import pytest

from pencilkit import DenseBlock, DHStructure, Identity, Pencil, finite, linalg, section
from pencilkit.dh import dh_classify, dh_section_mats, verify_dh_structure
from pencilkit.spectra import classify_point

SP = finite(2)


def _diag(*values: float) -> DenseBlock:
    return DenseBlock(SP, SP, np.diag(values))


def _around(threshold: float) -> tuple[float, float, float]:
    return np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0)


@pytest.mark.parametrize("factor, at_or_below, above", [
    (linalg.TOL_POINT, "point_singular", "approx_singular_only"),
    (linalg.TOL_APPROX, "approx_singular_only", "regular"),
])
def test_classify_point_flips_at_its_factor_times_sigma_max(factor, at_or_below, above):
    verdicts = []
    for delta in _around(factor):
        # lam E - A at lam = 0 is -diag(1, delta): sigma_max = 1, sigma_min = delta
        pc = classify_point(section(Pencil(E=_diag(0.0, 0.0), A=_diag(1.0, delta)), 2), 0.0)
        assert (pc.sigma_min, pc.tol_point, pc.tol_ap) == (delta, linalg.TOL_POINT,
                                                           linalg.TOL_APPROX)
        verdicts.append(pc.verdict)
    assert verdicts == [at_or_below, at_or_below, above]


@pytest.mark.parametrize("factor, kdims, at_or_below, above", [
    (linalg.TOL_POINT, [1, 1, 0], "point_singular", "approx_singular_evidence"),
    (linalg.TOL_APPROX, [0, 0, 0], "approx_singular_evidence", "regular_candidate"),
], ids=["TOL_POINT", "TOL_APPROX"])
def test_dh_classify_flips_at_the_approx_factor_times_the_dh_scale(factor, kdims, at_or_below,
                                                                   above):
    verdicts = []
    for delta, kdim in zip(_around(factor), kdims):
        # the stack [E; BQ] has orthogonal columns (1, 0, 0, 0) and (0, 0, 0, -delta): its
        # sigma_max, which scales the kernel's TOL_POINT, and the dH scale
        # max(||E||_2, ||BQ||_2), which scales TOL_APPROX, are both 1
        B = _diag(0.0, -delta)
        p = Pencil(E=_diag(1.0, 0.0), A=B, dh=DHStructure(B=B, Q=Identity(SP)))
        rep = dh_classify(section(p, 2), p.dh)
        assert (rep.stacked_sigma_min, rep.diagnostics.scale) == (delta, 1.0)
        assert rep.common_kernel_dim == kdim
        verdicts.append(rep.classification)
    assert verdicts == [at_or_below, at_or_below, above]


def _failures(E: DenseBlock, B: DenseBlock, Q: DenseBlock) -> list:
    A = DenseBlock(SP, SP, B.matrix @ Q.matrix)
    p = Pencil(E=E, A=A, dh=DHStructure(B=B, Q=Q))
    diag = verify_dh_structure(dh_section_mats(section(p, 2), p.dh))
    assert (diag.scale, diag.tol) == (1.0, linalg.TOL_STRUCTURE)
    return diag.failures()


def test_q_invertibility_flips_at_the_structure_factor_times_sigma_max_of_q():
    # sigma_max(Q) = 1 and sigma_min(Q) = delta; Q*E = Q and B = -I keep the other margins
    found = [_failures(_diag(1.0, 1.0), _diag(-1.0, -1.0), _diag(1.0, delta))
             for delta in _around(linalg.TOL_STRUCTURE)]
    assert found == [["Q not invertible"]] * 2 + [[]]


def test_dissipativity_flips_at_the_structure_factor_times_the_dh_scale():
    # sym(B) = B = diag(-1, delta) with ||E||_2 = ||BQ||_2 = 1
    found = [_failures(_diag(1.0, 1.0), _diag(-1.0, delta), _diag(1.0, 1.0))
             for delta in _around(linalg.TOL_STRUCTURE)]
    assert found == [[], [], ["B not dissipative"]]
