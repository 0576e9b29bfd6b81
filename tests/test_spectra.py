import math

import numpy as np
import pytest

from pencilkit import (
    INFINITY,
    DenseBlock,
    Diagonal,
    Identity,
    L2N,
    Pencil,
    WeightRule,
    Zero,
    classify_point,
    finite,
    regularity_disc,
    section,
    spectra_grid,
)
from pencilkit.fixtures import get_fixture


def _diag_pencil():
    # E = I, A = diag(1/j): eigenvalues are exactly 1/j
    return Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index")))


def test_point_singular_at_exact_eigenvalue():
    s = section(_diag_pencil(), 4)
    pc = classify_point(s, 0.25)
    assert pc.verdict == "point_singular"
    assert pc.sigma_min <= 1e-15


@pytest.mark.parametrize(
    "delta, verdict",
    [
        (0.5e-10, "point_singular"),
        (2e-10, "approx_singular_only"),
        (0.5e-6, "approx_singular_only"),
        (2e-6, "regular"),
    ],
)
def test_verdicts_at_the_stated_tolerances(delta, verdict):
    # E = I, A = diag(1, 1, delta) at lam = 0: sigma_max = 1, sigma_min = delta
    sp = finite(3)
    s = section(Pencil(E=Identity(sp), A=DenseBlock(sp, sp, np.diag([1.0, 1.0, delta]))), 3)
    pc = classify_point(s, 0.0)
    assert pc.verdict == verdict
    assert pc.sigma_min == pytest.approx(delta, rel=1e-12)
    smax = np.linalg.norm(s.evaluate(0.0), 2)
    assert smax == 1.0
    assert pc.tol_point == 1e-10 * smax and pc.tol_ap == 1e-6 * smax


def test_regular_away_from_spectrum():
    s = section(_diag_pencil(), 4)
    pc = classify_point(s, 2.0)
    # sigma_min = min_j |2 - 1/j| = 1 for the identity-E pencil
    assert pc.verdict == "regular"
    assert pc.sigma_min == pytest.approx(1.0, abs=1e-14)


def test_infinity_goes_through_the_reversal():
    # E = 0, A = I on a 1-dim space: infinity is a point singularity
    p = Pencil(E=Zero(finite(1)), A=Identity(finite(1)))
    pc = classify_point(section(p, 1), INFINITY)
    assert pc.lam == INFINITY and pc.verdict == "point_singular"
    # and the diagonal pencil (E invertible) is regular at infinity
    assert classify_point(section(_diag_pencil(), 4), INFINITY).verdict == "regular"


def test_rectangular_section_separates_sides():
    # 1 x 2 block: columns outnumber rows, so sigma_min (right side) is 0
    e = np.array([[1.0, 0.0]])
    a = np.array([[0.0, 1.0]])
    p = Pencil(E=DenseBlock(finite(2), finite(1), e), A=DenseBlock(finite(2), finite(1), a))
    pc = classify_point(section(p, 2), 0.5)
    assert pc.sigma_min == 0.0
    assert pc.sigma_min_adjoint > 0.5
    assert pc.verdict == "point_singular"


def test_tall_section_of_full_column_rank_is_singular_only():
    # the adjoint of the Kronecker block L_2 is 3 x 2 and injective: only its adjoint side is singular
    s = section(get_fixture("kronecker_L").build(k=2)["pencil"].adjoint(), 3)
    assert s.shape == (3, 2)
    points = {0.5: math.sqrt(3) / 2, 1j: 1.0, INFINITY: 1.0}
    for lam, smin in points.items():
        pc = classify_point(s, lam)
        assert pc.verdict == "singular_only" and pc.sigma_min_adjoint == 0.0
        assert pc.sigma_min == pytest.approx(smin, rel=1e-14)
    grid = spectra_grid(s, (0.0, 0.5, 0.0, 1.0), (2, 2))
    assert {pc.verdict for pc in grid} == {"singular_only"}
    assert (grid[1], grid[2]) == (classify_point(s, 1j), classify_point(s, 0.5))


def test_grid_is_row_major_re_then_im():
    s = section(_diag_pencil(), 3)
    pts = [complex(pc.lam) for pc in spectra_grid(s, (-1.0, 1.0, -2.0, 2.0), (2, 3))]
    assert pts == [
        complex(-1, -2), complex(-1, 0), complex(-1, 2),
        complex(1, -2), complex(1, 0), complex(1, 2),
    ]


@pytest.mark.parametrize("steps", [(1, 3), (3, 1), (0, 0)])
def test_grid_with_fewer_than_two_steps_names_the_bound(steps):
    with pytest.raises(ValueError, match="^need at least 2 steps per axis$"):
        spectra_grid(section(_diag_pencil(), 3), (-1.0, 1.0, -1.0, 1.0), steps)


def test_regularity_disc_radius_and_refusal():
    s = section(_diag_pencil(), 4)
    r = regularity_disc(s, 2.0)
    assert r == pytest.approx(1.0, abs=1e-14)  # sigma_min 1, ||E|| = 1
    # every lambda strictly inside the disc stays regular
    for lam in (1.5, 2.9, 2.0 + 0.9j):
        assert classify_point(s, lam).verdict == "regular"
    with pytest.raises(ValueError):
        regularity_disc(s, 0.25)  # singular point
