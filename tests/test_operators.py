import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilkit import (
    BlockDirectSum,
    DenseBlock,
    Diagonal,
    Identity,
    L2N,
    L2Z,
    Pencil,
    RuleOperator,
    Scale,
    Shift,
    Sum,
    WeightRule,
    Zero,
    constant_weight,
    finite,
    section,
    vec_inner,
    vec_norm,
)
from pencilkit.operators import _SumIndexMap
from pencilkit.serialize import op_from_json, op_to_json


# --- spaces ---------------------------------------------------------------


@given(st.integers(min_value=0, max_value=500))
def test_l2z_enumeration_roundtrip(pos):
    j = L2Z.canonical_index(pos)
    assert L2Z.canonical_position(j) == pos


def test_l2z_enumeration_prefix_order():
    assert [L2Z.canonical_index(p) for p in range(5)] == [0, -1, 1, -2, 2]


def test_space_membership():
    assert L2Z.contains(-7) and L2N.contains(1) and not L2N.contains(0)
    f = finite(3)
    assert f.contains(3) and not f.contains(4)


def test_space_validation():
    with pytest.raises(ValueError):
        finite(0)
    with pytest.raises(ValueError):
        from pencilkit import Space

        Space("l2N", dim=3)


# --- weight rules ---------------------------------------------------------


def test_factorial_ratio_matches_literal_factorials():
    w = WeightRule("factorial_ratio")
    for j in range(-8, 9):
        lit = math.factorial(abs(j)) / math.factorial(abs(j - 1))
        assert w(j) == pytest.approx(lit, abs=0)


def test_reciprocal_and_inverse_factorial():
    assert WeightRule("reciprocal_index")(4) == 0.25
    assert WeightRule("reciprocal_index")(0) == 1.0
    assert WeightRule("inverse_factorial")(5) == 1.0 / 120


def test_table_rule_with_default():
    w = WeightRule("table", values=(2.0, 3.0), start=5, default=-1.0)
    assert w(5) == 2.0 and w(6) == 3.0 and w(4) == -1.0 and w(99) == -1.0


def test_shifted_and_conjugated_compose():
    w = WeightRule("constant", value=1 + 2j)
    assert w.conjugated()(3) == 1 - 2j
    v = WeightRule("reciprocal_index").shifted(2)
    assert v(1) == 1.0 / 3


# --- basic operator actions ----------------------------------------------


def test_shift_drops_out_of_space_targets():
    s = Shift(L2N, -1, constant_weight(1.0))
    assert s.apply_basis(1) == {}
    assert s.apply_basis(2) == {1: 1.0}
    f = Shift(finite(3), 1, constant_weight(1.0))
    assert f.apply_basis(3) == {}


def test_diagonal_action_and_index_check():
    d = Diagonal(L2N, WeightRule("reciprocal_index"))
    assert d.apply_basis(4) == {4: 0.25}
    with pytest.raises(IndexError):
        d.apply_basis(0)


def test_diagonal_is_the_shift_by_zero():
    assert "apply_basis" not in vars(Diagonal)
    w = constant_weight(2.0 - 1.0j)
    d, s = Diagonal(L2Z, w), Shift(L2Z, 0, w)
    assert all(d.apply_basis(j) == s.apply_basis(j) for j in range(-3, 4))
    adj = d.adjoint()
    assert type(adj) is Diagonal and adj.apply_basis(2) == {2: 2.0 + 1.0j}
    doc = op_to_json(adj)
    assert doc["node"] == "diagonal" and type(op_from_json(doc)) is Diagonal


def test_dense_block_placement():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = DenseBlock(L2N, L2N, m, row_start=5, col_start=3)
    assert b.apply_basis(3) == {5: 1.0, 6: 3.0}
    assert b.apply_basis(2) == {}


def test_dense_block_keeps_a_read_only_copy_of_its_matrix():
    m = np.array([[1.0, 2.0j], [0.5, -1.0]])  # complex: np.asarray would alias it
    b = DenseBlock(L2N, L2N, m)
    with pytest.raises(ValueError):
        b.matrix[0, 0] = 7.0
    m[0, 0] = 7.0
    assert m.flags.writeable and b.apply_basis(1) == {1: 1.0, 2: 0.5}


def test_composite_operators_hold_tuples():
    s = Sum([Identity(L2N), Identity(L2N)])
    d = BlockDirectSum([Identity(finite(2)), Identity(L2N)])
    assert isinstance(s.terms, tuple) and isinstance(d.ops, tuple)


def test_sum_requires_matching_spaces():
    with pytest.raises(ValueError):
        Sum([Identity(L2N), Identity(L2Z)])


# --- adjoints -------------------------------------------------------------


def _ops_for_adjoint_test():
    return [
        Diagonal(L2N, WeightRule("reciprocal_index")),
        Shift(L2N, -1, constant_weight(2.0 - 1.0j)),
        Shift(L2N, 2, WeightRule("factorial_ratio")),
        Shift(L2Z, 1, WeightRule("inverse_factorial")),
        DenseBlock(L2N, L2N, np.array([[1.0, 2.0j], [0.5, -1.0]]), row_start=2),
        Scale(1.0 + 3.0j, Shift(L2N, -1, constant_weight(1.0))),
        Sum([Identity(L2N), Shift(L2N, 1, constant_weight(0.5j))]),
        BlockDirectSum([Identity(finite(2)), Shift(L2N, -1, constant_weight(1.0))]),
        Zero(finite(3), finite(2)),
        RuleOperator(L2N, L2N, _rule_forward, _rule_adjoint),
    ]


def _rule_forward(j):
    """e_j -> (1 + j i) e_{j+1}."""
    return {j + 1: 1.0 + j * 1.0j}


def _rule_adjoint(j):
    return {j - 1: 1.0 - (j - 1) * 1.0j} if j > 1 else {}


sparse_vecs = st.dictionaries(
    st.integers(min_value=1, max_value=12),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(u=sparse_vecs, v=sparse_vecs, pick=st.integers(min_value=0, max_value=9))
def test_adjoint_inner_product_identity(u, v, pick):
    op = _ops_for_adjoint_test()[pick]
    if op.space_in.is_finite:
        u = {j: c for j, c in u.items() if op.space_in.contains(j)}
        v = {j: c for j, c in v.items() if op.space_out.contains(j)}
    lhs = vec_inner(op.apply(u), v)
    rhs = vec_inner(u, op.adjoint().apply(v))
    scale = max(vec_norm(u) * vec_norm(v), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_double_adjoint_restores_action():
    for op in _ops_for_adjoint_test():
        back = op.adjoint().adjoint()
        for j in (1, 2, 3, 7):
            if op.space_in.contains(j):
                a, b = op.apply_basis(j), back.apply_basis(j)
                assert set(a) == set(b)
                assert all(abs(a[k] - b[k]) <= 1e-15 for k in a)


# --- direct sums ----------------------------------------------------------


def test_sum_index_map_roundtrip():
    m = _SumIndexMap([finite(2), L2N, L2N])
    for idx in range(1, 30):
        s, j = m.decode(idx)
        assert m.encode(s, j) == idx


def test_direct_sum_rejects_mixed_infinite_kinds():
    with pytest.raises(ValueError):
        BlockDirectSum([Identity(L2N), Identity(L2Z)])


def test_direct_sum_finite_prefix():
    b = BlockDirectSum([Identity(finite(2)), Scale(3.0, Identity(L2N))])
    assert b.apply_basis(1) == {1: 1.0}
    assert b.apply_basis(2) == {2: 1.0}
    assert b.apply_basis(3) == {3: 3.0}  # first vector of the infinite tail


# --- pencils --------------------------------------------------------------


def test_pencil_space_mismatch_rejected():
    with pytest.raises(ValueError):
        Pencil(E=Identity(L2N), A=Identity(L2Z))


def test_reversal_is_an_involution():
    p = Pencil(E=Diagonal(L2N, WeightRule("reciprocal_index")), A=Identity(L2N))
    q = p.reverse().reverse()
    for j in (1, 2, 5):
        assert q.E.apply_basis(j) == p.E.apply_basis(j)
        assert q.A.apply_basis(j) == p.A.apply_basis(j)


def test_evaluate_action_matches_section_matrix():
    p = Pencil(
        E=Diagonal(L2N, WeightRule("reciprocal_index")),
        A=Shift(L2N, -1, constant_weight(1.0)),
    )
    s = section(p, 6)
    lam = 1.5 - 0.5j
    x = {1: 1.0, 3: -2.0j, 6: 0.5}
    dense = np.zeros(6, dtype=complex)
    for j, c in x.items():
        dense[s.window_in.position(j)] = c
    via_matrix = s.evaluate(lam) @ dense
    via_action = p.evaluate_action(lam, x)
    for i, c in enumerate(via_matrix):
        j = s.window_out.indices[i]
        assert abs(c - via_action.get(j, 0.0)) <= 1e-14
