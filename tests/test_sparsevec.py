"""Sparse-vector sums built on ``vec_iadd`` against the scale-then-merge code.

The ``_ref_*`` functions below are copies of the compositions that the
operators, pencils, monomial forms and vector polynomials used before every
sum went through ``vec_iadd``: scale a temporary dict with ``vec_scale``,
then merge the temporaries with ``vec_add``.  The in-place sums must
reproduce them exactly: the same keys in the same insertion order and the
same ``repr`` of every entry, so signed zeros, float versus complex entries
and non-finite parts all count.  Inputs mix float and complex entries with
negative-zero and infinite parts, draw from a small value set so that
entries cancel exactly, and include zero scalars.
"""

import math

import numpy as np
from hypothesis import example, given, settings
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
    VectorPolynomial,
    WeightRule,
    finite,
    vec_add,
    vec_iadd,
    vec_scale,
    vec_sub,
)
from pencilkit.odae import MonomialForm, _simpson_pass
from pencilkit.sparsevec import coordinate_plan, vec_combine


# --- reference: the scale-then-merge compositions -------------------------


def _ref_add(*vs):
    out = {}
    for v in vs:
        for j, c in v.items():
            s = out.get(j, 0.0) + c
            if s == 0:
                out.pop(j, None)
            else:
                out[j] = s
    return out


def _ref_scale(c, v):
    if c == 0:
        return {}
    return {j: c * x for j, x in v.items()}


def _ref_sub(a, b):
    return _ref_add(a, _ref_scale(-1.0, b))


def _ref_apply_basis(op, j):
    if isinstance(op, Sum):
        return _ref_add(*(_ref_apply_basis(t, j) for t in op.terms))
    if isinstance(op, Scale):
        return _ref_scale(op.factor, _ref_apply_basis(op.op, j))
    if isinstance(op, BlockDirectSum):
        s, local = op.map_in.decode(j)
        img = _ref_apply_basis(op.ops[s], local)
        return {op.map_out.encode(s, i): c for i, c in img.items()}
    return op.apply_basis(j)


def _ref_apply(op, v):
    return _ref_add(*(_ref_scale(c, _ref_apply_basis(op, j)) for j, c in v.items())) if v else {}


def _ref_evaluate_action(p, lam, v):
    return _ref_add(_ref_scale(lam, _ref_apply(p.E, v)), _ref_scale(-1.0, _ref_apply(p.A, v)))


def _ref_monomial(terms, t):
    return _ref_add(*(_ref_scale(t**p, c) for p, c in terms)) if terms else {}


def _ref_polynomial(coeffs, lam):
    out = {}
    power = 1.0 + 0.0j
    for c in coeffs:
        out = _ref_add(out, _ref_scale(power, c))
        power *= lam
    return out


def _entries(v):
    return [(j, repr(x)) for j, x in v.items()]


# --- strategies -------------------------------------------------------------

FINITE_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -3.0])
PARTS = st.one_of(FINITE_PARTS, st.sampled_from([math.inf, -math.inf]))
FINITE_ENTRY = st.one_of(FINITE_PARTS, st.builds(complex, FINITE_PARTS, FINITE_PARTS))
ENTRY = st.one_of(PARTS, st.builds(complex, PARTS, PARTS))
SCALAR = st.one_of(st.sampled_from([0, 0j, -0.0]), FINITE_ENTRY)
DIM = 4


def vecs(entry=ENTRY, dim=DIM):
    return st.dictionaries(st.integers(1, dim), entry, max_size=dim)


@st.composite
def leaves(draw, dim):
    space = finite(dim)
    row = st.lists(FINITE_ENTRY, min_size=dim, max_size=dim)
    table = WeightRule("table", values=tuple(draw(row)))
    kind = draw(st.sampled_from(["diag", "reciprocal", "identity", "shift", "dense"]))
    if kind == "diag":
        return Diagonal(space, table)
    if kind == "reciprocal":
        return Diagonal(space, WeightRule("reciprocal_index"))
    if kind == "identity":
        return Identity(space)
    if kind == "shift":
        return Shift(space, draw(st.sampled_from([-1, 1, 2])), table)
    rows = draw(st.lists(row, min_size=dim, max_size=dim))
    return DenseBlock(space, space, np.array(rows, dtype=complex))


@st.composite
def operators(draw, dim=DIM):
    kind = draw(st.sampled_from(["leaf", "scale", "sum", "direct_sum"]))
    if kind == "leaf":
        return draw(leaves(dim))
    if kind == "scale":
        return Scale(draw(SCALAR), draw(operators(dim)))
    if kind == "sum":
        return Sum(draw(st.lists(operators(dim), min_size=1, max_size=3)))
    half = dim // 2
    return BlockDirectSum([draw(leaves(half)), draw(leaves(dim - half))])


# --- tests ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(vecs(), max_size=4), vecs(), vecs())
def test_vec_add_and_sub_match_reference(vs, a, b):
    assert _entries(vec_add(*vs)) == _entries(_ref_add(*vs))
    assert _entries(vec_sub(a, b)) == _entries(_ref_sub(a, b))


@settings(max_examples=100, deadline=None)
@given(vecs(), vecs(), SCALAR)
def test_vec_iadd_matches_scaled_merge(start, v, c):
    # a running sum built by the rule itself holds no negative-zero parts,
    # so adding into it in place equals re-merging it
    out = vec_add(start)
    ref = _ref_add(out, _ref_scale(c, v))
    vec_iadd(out, v, c)
    assert _entries(out) == _entries(ref)


@settings(max_examples=200, deadline=None)
@given(operators(), vecs(), vecs())
def test_apply_matches_reference(op, u, v):
    # the second call reads the basis images that the first one stored
    first, second = op.apply(u), op.apply(v)
    assert _entries(first) == _entries(_ref_apply(op, u))
    assert _entries(second) == _entries(_ref_apply(op, v))


@settings(max_examples=100, deadline=None)
@given(operators(), operators(), SCALAR, vecs())
def test_evaluate_action_matches_reference(E, A, lam, v):
    p = Pencil(E, A)
    assert _entries(p.evaluate_action(lam, v)) == _entries(_ref_evaluate_action(p, lam, v))


# 1e-200 ** p underflows to 0 from p = 2 on, where the loop skips the term
TIMES = st.one_of(FINITE_PARTS, st.sampled_from([1e-200, -1e-200, 1.1, -1.1]))
TERMS = st.lists(st.tuples(st.integers(0, 40), vecs()), max_size=4)


@settings(max_examples=300, deadline=None)
@given(TERMS, TIMES)
# partial sums of exactly 0 part-way through a form: the loop drops key 1
# and re-inserts it after key 2, and the sum restarts from 0.0
@example([(0, {1: 1.0, 2: 1.0}), (1, {1: -1.0}), (2, {1: 2.0})], 1.0)
@example([(0, {3: 1j}), (1, {3: 2j, 1: 0.5}), (2, {3: complex(-0.25, -0.0)})], -0.5)
@example([(3, {2: 0.0, 1: 1.0}), (1, {2: -3.0})], 2.0)
def test_monomial_form_evaluate_matches_reference(terms, t):
    form = MonomialForm(tuple(terms))
    assert _entries(form.evaluate(t)) == _entries(_ref_monomial(terms, t))
    # the second evaluation reads the plan that the first one built
    assert _entries(form.evaluate(-t)) == _entries(_ref_monomial(terms, -t))


def _hex_entries(v):
    return [(j, complex(x).real.hex(), complex(x).imag.hex(), isinstance(x, complex))
            for j, x in v.items()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), vecs(FINITE_ENTRY)), max_size=4), TIMES)
def test_monomial_form_evaluates_numpy_times_on_python_scalars(terms, t):
    # sampled times are np.float64; the values are the numpy arithmetic's, bit for bit
    got = MonomialForm(tuple(terms)).evaluate(np.float64(t))
    assert _hex_entries(got) == _hex_entries(_ref_monomial(terms, np.float64(t)))
    assert all(type(x) in (float, complex) for x in got.values())


@settings(max_examples=200, deadline=None)
@given(st.lists(vecs(), max_size=4), SCALAR)
def test_vector_polynomial_evaluate_matches_reference(coeffs, lam):
    poly = VectorPolynomial(coeffs)
    assert _entries(poly.evaluate(lam)) == _entries(_ref_polynomial(coeffs, lam))


def _ref_dense_column(op, j):
    """``DenseBlock.apply_basis`` as it was: ``complex`` of each numpy scalar."""
    k = j - op.col_start
    if not 0 <= k < op.matrix.shape[1]:
        return {}
    return {op.row_start + i: complex(c) for i, c in enumerate(op.matrix[:, k]) if c != 0}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(FINITE_ENTRY, min_size=3, max_size=3), min_size=1, max_size=5),
    st.integers(1, 3),
    st.integers(1, 3),
)
@example([[-0.0, complex(-0.0, 1.0), 0.0], [complex(0.0, -0.0), 2.0, complex(-3.0, -0.0)]], 2, 1)
def test_dense_apply_basis_matches_complex_comprehension(rows, row_start, col_start):
    op = DenseBlock(L2N, L2N, np.array(rows, dtype=complex), row_start, col_start)
    for j in range(1, col_start + 4):
        assert _entries(op.apply_basis(j)) == _entries(_ref_dense_column(op, j))


# --- coordinate-major sums against the vec_iadd loop --------------------------
#
# ``vec_combine`` sums coordinate by coordinate and falls back to one
# ``vec_iadd`` per vector where that would change the key order.  It and its
# callers ``StructuredOperator.apply`` and ``odae._simpson_pass`` must equal
# the loop by float hex, entry type and key order.


def _loop_combine(vs, scales):
    out = {}
    for v, c in zip(vs, scales):
        vec_iadd(out, v, c)
    return out


@st.composite
def combine_cases(draw):
    """Up to four vectors and their scales; half the time in one shared key order."""
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        keys = draw(st.permutations(range(1, DIM + 1)))[: draw(st.integers(0, DIM))]
        entries = st.lists(st.one_of(FINITE_ENTRY, ENTRY), min_size=len(keys),
                           max_size=len(keys))
        vs = [dict(zip(keys, draw(entries))) for _ in range(n)]
    else:
        vs = draw(st.lists(vecs(st.one_of(FINITE_ENTRY, ENTRY)), min_size=n, max_size=n))
    return vs, draw(st.lists(SCALAR, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(combine_cases())
# coordinate 1 cancels at the second vector: the loop re-inserts it after key 2
@example(([{1: 1.0, 2: 1.0}, {1: -1.0, 2: 1.0}, {1: 1.0, 2: 0.5}], [1.0, 1.0, 1.0]))
# a partial sum of a complex coordinate cancels to 0j, then a float scale follows
@example(([{2: 1j, 1: 1.0}, {2: 1j, 1: 2.0}, {2: 0.5, 1: -1.0}], [1.0, -1.0, 2.0]))
# zero scales of each type: -0.0, 0j and 0
@example(([{1: 1.0, 3: 1j}, {3: 2.0, 1: 1.0}], [-0.0, 2.0]))
@example(([{1: 1.0}, {1: 2.0, 2: 1j}], [0.5, 0j]))
@example(([{1: 1.0, 2: 1.0}, {1: 2.0, 2: 1j}], [0, 1j]))
def test_vec_combine_matches_vec_iadd_loop(case):
    vs, scales = case
    want = _hex_entries(_loop_combine(vs, scales))
    assert _hex_entries(vec_combine(vs, scales, coordinate_plan(vs))) == want
    keys = list(vs[0]) if vs else []
    if all(list(v) == keys for v in vs):
        # any plan with the pairs of ``coordinate_plan``: here one zipped from a shared key order
        zipped = zip(keys, map(enumerate, zip(*(v.values() for v in vs))))
        assert _hex_entries(vec_combine(vs, scales, zipped)) == want


def _loop_apply(op, v):
    out = {}
    for j, c in v.items():
        vec_iadd(out, op.apply_basis(j), c)
    return out


def _window(space):
    return range(1, 5) if space == L2N else range(-2, 3)


def _rule(values):
    # two-entry images of the drawn floats or complexes; a drawn 0.0 is stored, not dropped
    def forward(j):
        return {j: values[j % len(values)], j + 1: values[(j + 1) % len(values)]}

    return forward


@st.composite
def plan_leaves(draw, space):
    window = _window(space)
    row = st.lists(FINITE_ENTRY, min_size=len(window), max_size=len(window))
    table = WeightRule("table", values=tuple(draw(row)), start=window[0])
    kind = draw(st.sampled_from(["diag", "shift", "dense", "rule"]))
    if kind == "diag":
        return Diagonal(space, table)
    if kind == "shift":
        return Shift(space, draw(st.sampled_from([-2, -1, 1, 2])), table)
    if kind == "dense":
        rows = draw(st.lists(row, min_size=len(window), max_size=len(window)))
        return DenseBlock(space, space, np.array(rows, dtype=complex), window[0], window[0])
    values = draw(row)
    return RuleOperator(space, space, _rule(values), _rule(values))


@st.composite
def plan_operators(draw):
    space = draw(st.sampled_from([L2N, L2Z]))
    kind = draw(st.sampled_from(["leaf", "sum", "direct_sum"]))
    if kind == "leaf":
        return draw(plan_leaves(space))
    if kind == "sum":
        return Sum(draw(st.lists(plan_leaves(space), min_size=2, max_size=3)))
    return BlockDirectSum(draw(st.lists(plan_leaves(space), min_size=2, max_size=2)))


def _support_vecs(op):
    window = range(1, 11) if isinstance(op, BlockDirectSum) else _window(op.space_in)
    return st.dictionaries(st.sampled_from(window), st.one_of(SCALAR, ENTRY),
                           max_size=len(window))


APPLY_CASES = plan_operators().flatmap(
    lambda op: st.tuples(st.just(op), _support_vecs(op), _support_vecs(op)))
CANCELLING = DenseBlock(L2N, L2N, np.array([[1.0, -1.0, 2.0], [1.0, 0.0, 0.0]]))


@settings(max_examples=300, deadline=None)
@given(APPLY_CASES)
# column 2 cancels row 1 of column 1, and column 3 re-inserts it after row 2
@example((CANCELLING, {1: 1.0, 2: 1.0, 3: 1.0}, {3: 1j, 1: 0.5}))
# a signed-zero coefficient: the loop skips that column
@example((CANCELLING, {1: 1.0, 3: -0.0}, {2: 1j, 1: 2.0, 3: 0j}))
# float times complex, on l2Z, through images with a stored 0.0 entry
@example((RuleOperator(L2Z, L2Z, _rule([1.0, 1j, 0.0]), _rule([1.0, 1j, 0.0])),
          {0: complex(-0.0, 2.0), -1: 0.5, 2: -3.0}, {1: 1j, 0: 2.0}))
# a zero complex coefficient on columns already summed: the loop keeps floats
@example((RuleOperator(L2N, L2N, _rule([1.0, 2.0, 0.5]), _rule([1.0, 2.0, 0.5])),
          {1: 1.0, 3: 1.0, 2: 0j}, {3: 1.0, 1: 1.0, 2: 0j}))
def test_apply_plan_matches_vec_iadd_loop(case):
    op, u, v = case
    # one operator, two supports, and the first support again from its plan
    for w in (u, v, u):
        assert _hex_entries(op.apply(w)) == _hex_entries(_loop_apply(op, w))


def _loop_simpson(fn, a, b, m):
    h = (b - a) / m
    total = {}
    for i in range(m + 1):
        vec_iadd(total, fn(a + i * h), 1 if i in (0, m) else (4 if i % 2 else 2))
    return vec_scale(h / 3.0, total)


@st.composite
def simpson_nodes(draw):
    """m + 1 node values: some in one shared key order, some with their own supports."""
    m = draw(st.sampled_from([2, 4, 8]))
    keys = draw(st.permutations(range(1, DIM + 1)))[: draw(st.integers(1, DIM))]
    shared = st.lists(st.one_of(FINITE_ENTRY, ENTRY), min_size=len(keys),
                      max_size=len(keys)).map(lambda xs: dict(zip(keys, xs)))
    own = vecs() if draw(st.booleans()) else shared
    return draw(st.lists(st.one_of(shared, own, st.just({})), min_size=m + 1, max_size=m + 1))


@settings(max_examples=300, deadline=None)
@given(simpson_nodes(), st.sampled_from([(0.0, 1.0), (0.0, 0.3), (-1.0, 2.5)]))
# an empty node at t = 0, then one shared key order
@example([{}, {2: 1.0, 1: 0.5}, {2: -0.5, 1: 1j}], (0.0, 1.0))
# coordinate 1 cancels at the middle node: the loop re-inserts it after key 2
@example([{1: 1.0, 2: 1.0}, {1: -0.25, 2: 1.0}, {1: 1.0, 2: 1.0}], (0.0, 1.0))
# different supports
@example([{1: 1.0}, {1: 2.0, 3: 1j}, {3: -0.5}, {}, {1: 1.0, 3: 1.0}], (0.0, 1.0))
def test_simpson_pass_matches_vec_iadd_loop(nodes, interval):
    a, b = interval
    m = len(nodes) - 1
    h = (b - a) / m
    by_time = {a + i * h: v for i, v in enumerate(nodes)}
    got = _simpson_pass(by_time.__getitem__, {}, a, b, m)
    assert _hex_entries(got) == _hex_entries(_loop_simpson(by_time.__getitem__, a, b, m))
