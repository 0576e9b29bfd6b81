import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilkit import (
    Diagonal,
    Identity,
    L2N,
    Pencil,
    PolynomialSequence,
    VectorPolynomial,
    WeightRule,
    approx_kernel_sequence,
    basis_vec,
    gram_lower_bound,
    sequence_residuals,
    vec_norm,
)


def test_sequence_rejects_zero_polynomials():
    seq = PolynomialSequence(generator=lambda n: VectorPolynomial([{}]))
    with pytest.raises(ValueError):
        seq(1)


def test_residuals_match_hand_computation():
    # E = I, A = diag(1/j); constant polynomial e_n gives
    # ||(lam E - A) e_n|| = |lam - 1/n| and reversal ||(lam A - E) e_n|| = |lam/n - 1|
    p = Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index")))
    seq = approx_kernel_sequence(lambda n: basis_vec(n))
    rows = sequence_residuals(p, seq, [0.0, 2.0, 1.0j], [2, 5])
    for r in rows:
        assert r.forward == pytest.approx(abs(r.probe - 1.0 / r.n), abs=1e-15)
        assert r.reverse == pytest.approx(abs(r.probe / r.n - 1.0), abs=1e-15)
        assert r.p_norm == 1.0 and r.revp_norm == 1.0


def test_residuals_without_pencil_keep_only_the_polynomial_norms():
    seq = approx_kernel_sequence(lambda n: {1: 3.0, n + 1: 4.0j})
    rows = sequence_residuals(None, seq, [0.0, 2.0, 1.0j], [2, 5])
    assert [(r.n, r.probe) for r in rows] == [(n, lam) for n in (2, 5) for lam in (0.0, 2.0, 1.0j)]
    for r in rows:
        assert r.forward is None and r.reverse is None
        assert r.p_norm == vec_norm(seq(r.n).evaluate(r.probe)) == 1.0
        assert r.revp_norm == vec_norm(seq(r.n).reversal().evaluate(r.probe))


def test_gram_identity_for_orthonormal_coefficients():
    def gen(n):
        return VectorPolynomial([basis_vec(j) for j in range(1, n + 2)])

    seq = PolynomialSequence(generator=gen)
    rep = gram_lower_bound(seq, range(1, 5))
    assert all(np.allclose(g, np.eye(g.shape[0])) for g in rep.grams)
    assert rep.xi == 1.0


def test_gram_detects_dependent_coefficients():
    poly = VectorPolynomial([basis_vec(1), basis_vec(1)])
    seq = PolynomialSequence(generator=lambda n: poly)
    rep = gram_lower_bound(seq, [1])
    assert abs(rep.lambda_min[0]) <= 1e-14


coeff_lists = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=6),
            st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        ),
        max_size=3,
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(raw=coeff_lists)
def test_gram_bounds_reversal_values_below(raw):
    coeffs = [{j: c for j, c in row if c != 0} for row in raw]
    poly = VectorPolynomial(coeffs)
    if poly.is_zero:
        return
    seq = PolynomialSequence(generator=lambda n: poly)
    rep = gram_lower_bound(seq, [1])
    # lambda_min(Gram of p) <= ||rev p(lam)||^2 / sum |lam|^(2j): the Gram
    # matrix of rev p is an index-reversed principal block of that of p
    lm = rep.lambda_min[0]
    slack = 1e-10 * max(1.0, float(np.trace(rep.grams[0]).real))
    rev = poly.reversal()
    for lam in (0.3, -1.2, 0.5 + 0.5j, 2.0j):
        weight = sum(abs(lam) ** (2 * j) for j in range(len(rev.coeffs)))
        assert vec_norm(rev.evaluate(lam)) ** 2 >= (lm - slack) * weight


def test_gram_bounds_polynomial_values_below():
    # lambda_min(Gram) <= ||p(lam)||^2 / sum |lam|^(2j) at every lambda
    poly = VectorPolynomial([basis_vec(1), basis_vec(2, 0.5), basis_vec(1, 0.25)])
    seq = PolynomialSequence(generator=lambda n: poly)
    lm = gram_lower_bound(seq, [1]).lambda_min[0]
    for lam in (0.3, -1.2, 0.5 + 0.5j):
        weight = sum(abs(lam) ** (2 * j) for j in range(len(poly.coeffs)))
        assert vec_norm(poly.evaluate(lam)) ** 2 >= lm * weight - 1e-12


def test_approx_kernel_sequence_normalizes():
    seq = approx_kernel_sequence(lambda n: basis_vec(1, 3.0 * n))
    assert vec_norm(seq(3).coeffs[0]) == pytest.approx(1.0, abs=1e-15)
    bad = approx_kernel_sequence(lambda n: {})
    with pytest.raises(ValueError):
        bad(1)
