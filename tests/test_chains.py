import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pencilkit import (
    DenseBlock,
    Diagonal,
    Identity,
    L2N,
    Pencil,
    VectorPolynomial,
    WeightRule,
    basis_vec,
    chain_to_polynomial,
    extract_left_chain,
    extract_right_chain,
    finite,
    polynomial_roots_check,
    reduce_polynomial,
    section,
    vec_norm,
    vec_sub,
    verify_singular_polynomial,
)
from pencilkit import chains, linalg
from pencilkit.chains import ChainReport, RANK_PROBES, _chain_system, _link_residuals
from pencilkit.fixtures import fixture_names, get_fixture


def _kronecker(k: int) -> Pencil:
    e = np.zeros((k, k + 1))
    a = np.zeros((k, k + 1))
    for i in range(k):
        e[i, i] = 1.0
        a[i, i + 1] = 1.0
    return Pencil(E=DenseBlock(finite(k + 1), finite(k), e), A=DenseBlock(finite(k + 1), finite(k), a))


# --- polynomials ----------------------------------------------------------


def test_polynomial_trimming_and_degree():
    p = VectorPolynomial([basis_vec(1), {}, {}])
    assert p.degree == 0
    z = VectorPolynomial([{}])
    assert z.is_zero
    with pytest.raises(ValueError):
        z.degree


def test_polynomial_evaluate_and_reversal():
    p = VectorPolynomial([basis_vec(1), basis_vec(2, 2.0)])
    assert p.evaluate(3.0) == {1: 1.0, 2: 6.0}
    rev = p.reversal()
    assert rev.evaluate(0.0) == {2: 2.0}
    assert p.reversal().reversal().coeffs == p.coeffs


def test_coefficient_matrix_support():
    p = VectorPolynomial([basis_vec(4), basis_vec(7, 2.0j)])
    mat, support = p.coefficient_matrix()
    assert support == [4, 7]
    assert mat[0, 0] == 1.0 and mat[1, 1] == 2.0j


# --- chain extraction -----------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kronecker_chain_minimal_index(k):
    s = section(_kronecker(k), k + 1)
    rep = extract_right_chain(s)
    assert rep is not None and rep.minimal_index == k
    # oracle: the links hold against the explicit matrices
    assert max(rep.residuals) <= 1e-12


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
@pytest.mark.parametrize("extract", [extract_right_chain, extract_left_chain])
def test_chain_tolerance_must_be_finite_and_nonnegative(extract, tol):
    with pytest.raises(ValueError, match="chain tolerance must be finite and nonnegative"):
        extract(section(_kronecker(2), 3), tol)


def test_regular_section_has_no_chain():
    p = Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index")))
    assert extract_right_chain(section(p, 5)) is None


def test_kronecker_has_no_left_chain():
    # the adjoint block has full column rank, so no left chain exists
    assert extract_left_chain(section(_kronecker(2), 3)) is None


def test_chain_polynomial_verifies_on_pencil_and_section():
    p = _kronecker(2)
    s = section(p, 3)
    poly = chain_to_polynomial(extract_right_chain(s))
    assert verify_singular_polynomial(p, poly, side="right") <= 1e-12
    assert verify_singular_polynomial(s, poly, side="right") <= 1e-12


def test_verify_rejects_repeated_probes():
    poly = VectorPolynomial([basis_vec(1)])
    with pytest.raises(ValueError):
        verify_singular_polynomial(_kronecker(1), poly, probes=[1.0, 1.0, 2.0])


# --- reduction and roots --------------------------------------------------


def test_reduce_strips_common_linear_factor():
    # (lam - 2) * (v + lam w) with independent v, w
    v, w = basis_vec(1), basis_vec(2)
    coeffs = [{1: -2.0}, {1: 1.0, 2: -2.0}, {2: 1.0}]
    q = VectorPolynomial(coeffs)
    r = reduce_polynomial(q)
    assert r.degree == 1
    # reduced polynomial proportional to v + lam w
    assert abs(r.coeffs[0].get(2, 0.0)) <= 1e-10
    assert abs(r.coeffs[1].get(1, 0.0)) <= 1e-10


def test_reduce_strips_common_lambda_factor():
    q = VectorPolynomial([{}, basis_vec(1), basis_vec(2)])
    r = reduce_polynomial(q)
    assert r.degree == 1
    assert vec_norm(vec_sub(r.coeffs[0], basis_vec(1))) <= 1e-12


def test_reduce_is_idempotent_on_root_free_input():
    q = VectorPolynomial([basis_vec(1), basis_vec(2)])
    r = reduce_polynomial(q)
    assert len(r.coeffs) == len(q.coeffs)
    assert all(vec_norm(vec_sub(a, b)) <= 1e-12 for a, b in zip(r.coeffs, q.coeffs))


def test_roots_check_flags_near_root():
    # q(lam) = (lam - 1/2) e_1 vanishes on the grid point 1/2
    q = VectorPolynomial([basis_vec(1, -0.5), basis_vec(1)])
    assert not polynomial_roots_check(q, [0.5])
    assert polynomial_roots_check(q, [3.0])
    # the reversal has its own root at lam = 2
    assert not polynomial_roots_check(q, [2.0])


# --- skipping degrees that cannot carry a chain ---------------------------


def _reference_right_chain(s, tol=1e-10):
    """The degree scan without the exit and the screening: one vector SVD per degree."""
    E, A = s.E_mat, s.A_mat
    m, k = A.shape
    scale = np.linalg.norm(E, 2) + np.linalg.norm(A, 2)
    if scale == 0:
        scale = 1.0
    thr = tol * scale
    for d in range(k):
        svals, null = linalg.smallest_right(_chain_system(E, A, d))
        if svals[-1] > thr:
            continue
        chain = [null[j * k : (j + 1) * k] for j in range(d + 1)]
        norm = max(np.linalg.norm(v) for v in chain)
        chain = [v / norm for v in chain]
        stackmat = np.column_stack(chain)
        indep = scipy.linalg.svdvals(stackmat)[-1] if d > 0 else np.linalg.norm(chain[0])
        if indep <= tol:
            continue
        return ChainReport(
            side="right",
            chain=tuple(chain),
            minimal_index=d,
            residuals=tuple(_link_residuals(E, A, chain)),
            window_indices=s.window_in.indices,
        )
    return None


def _assert_same_report(got, ref):
    assert (got is None) == (ref is None)
    if ref is None:
        return
    assert got.minimal_index == ref.minimal_index
    assert len(got.chain) == len(ref.chain)
    assert all(np.array_equal(a, b) for a, b in zip(got.chain, ref.chain))
    assert got.residuals == ref.residuals


def _assert_matches_reference(s):
    _assert_same_report(extract_right_chain(s), _reference_right_chain(s))
    _assert_same_report(extract_left_chain(s), _reference_right_chain(s.adjoint()))


def _dense_section(e, a):
    rows, cols = a.shape
    p = Pencil(
        E=DenseBlock(finite(cols), finite(rows), e),
        A=DenseBlock(finite(cols), finite(rows), a),
    )
    return section(p, max(rows, cols))


def _l_block(eps):
    """L_eps = (E, A) of shape eps x (eps + 1): right minimal index eps."""
    e = np.eye(eps, eps + 1)
    a = np.eye(eps, eps + 1, 1)
    return e, a


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _kronecker_sum(rng, eps, etas, regular, delta):
    """P (sum of L_eps, L_eta^T and a generic regular block) Q, perturbed by delta * scale."""
    blocks = [_l_block(e) for e in eps] + [tuple(m.T for m in _l_block(h)) for h in etas]
    if regular:
        shape = (regular, regular)
        blocks.append(tuple(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                            for _ in range(2)))
    rows = sum(b[0].shape[0] for b in blocks)
    cols = sum(b[0].shape[1] for b in blocks)
    e = np.zeros((rows, cols), dtype=complex)
    a = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for be, ba in blocks:
        h, w = be.shape
        e[r : r + h, c : c + w] = be
        a[r : r + h, c : c + w] = ba
        r, c = r + h, c + w
    left, right = _unitary(rng, rows), _unitary(rng, cols)
    e, a = left @ e @ right, left @ a @ right
    if delta:
        scale = np.linalg.norm(e, 2) + np.linalg.norm(a, 2)
        for mat in (e, a):
            g = rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape)
            mat += delta * scale * g / np.linalg.norm(g, 2)
    return e, a


minimal_indices = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=2)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(["square", "wide", "tall"]),
    eps=minimal_indices,
    etas=minimal_indices,
    regular=st.integers(min_value=0, max_value=4),
    delta=st.sampled_from([0.0, 1e-13, 1e-8, 1e-3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_chain_extraction_matches_reference_scan(shape, eps, etas, regular, delta, seed):
    if shape == "square":
        etas = etas[: len(eps)]
        eps = eps[: len(etas)]
    elif shape == "wide":
        etas = []
    else:
        eps = []
    rows = sum(eps) + sum(h + 1 for h in etas) + regular
    cols = sum(e + 1 for e in eps) + sum(etas) + regular
    assume(rows >= 1 and cols >= 1)
    e, a = _kronecker_sum(np.random.default_rng(seed), eps, etas, regular, delta)
    _assert_matches_reference(_dense_section(e, a))


def _pencil_fixtures():
    names = []
    for name in fixture_names():
        fx = get_fixture(name)
        if "pencil" in fx.build(**fx.default_params):
            names.append(name)
    return names


@pytest.mark.parametrize("n", [4, 7, 12])
@pytest.mark.parametrize("name", _pencil_fixtures())
def test_fixture_chains_match_reference_scan(name, n):
    fx = get_fixture(name)
    _assert_matches_reference(section(fx.build(**fx.default_params)["pencil"], n))


@pytest.fixture
def chain_systems(monkeypatch):
    """Counts the block-Toeplitz systems built by chain extraction."""
    calls = []

    def counted(E, A, d):
        calls.append(d)
        return _chain_system(E, A, d)

    monkeypatch.setattr(chains, "_chain_system", counted)
    return calls


def test_full_column_rank_exit_builds_no_chain_system(chain_systems):
    rng = np.random.default_rng(0)
    e, a = (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)) for _ in range(2))
    s = _dense_section(e, a)
    assert extract_right_chain(s) is None and extract_left_chain(s) is None
    big = section(get_fixture("diag_reciprocal").build()["pencil"], 200)
    assert extract_right_chain(big) is None and extract_left_chain(big) is None
    assert chain_systems == []


def test_kronecker_chain_takes_one_vector_svd(monkeypatch):
    calls = []
    smallest_right = linalg.smallest_right

    def counted(mat):
        calls.append(mat.shape)
        return smallest_right(mat)

    monkeypatch.setattr(linalg, "smallest_right", counted)
    for k in range(1, 16):
        s = section(get_fixture("kronecker_L").build(k=k)["pencil"], k + 1)
        calls.clear()
        rep = extract_right_chain(s)
        assert rep is not None and rep.minimal_index == k
        assert len(calls) == 1
        calls.clear()
        assert extract_left_chain(s) is None
        assert calls == []


@pytest.mark.parametrize("factor,scanned", [(0.5, True), (2.0, False)])
def test_exit_margin_boundary(chain_systems, factor, scanned):
    # E = I, A = diag(lam0 + delta, 3, 3, 3): sigma_min(lam0 E - A) = delta at the first probe
    tol = 1e-10
    scale = 1.0 + 3.0
    delta = factor * np.sqrt(tol) * scale
    lam0 = RANK_PROBES[0]
    a = np.diag([lam0 + delta, 3.0, 3.0, 3.0])
    s = _dense_section(np.eye(4, dtype=complex), a)
    assert linalg.singular_values(lam0 * s.E_mat - s.A_mat)[-1] == pytest.approx(delta, rel=1e-9)
    assert extract_right_chain(s, tol) is None
    assert bool(chain_systems) == scanned


# --- the minimal-index hint and its certified jump ------------------------


high_indices = st.lists(st.integers(min_value=6, max_value=10), min_size=1, max_size=1)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(["square", "wide", "tall"]),
    eps=high_indices,
    etas=high_indices,
    regular=st.integers(min_value=0, max_value=2),
    delta=st.sampled_from([0.0, 1e-13, 1e-8, 1e-3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_high_index_chain_extraction_matches_reference_scan(shape, eps, etas, regular, delta, seed):
    if shape == "wide":
        etas = []
    elif shape == "tall":
        eps = []
    e, a = _kronecker_sum(np.random.default_rng(seed), eps, etas, regular, delta)
    _assert_matches_reference(_dense_section(e, a))


@pytest.mark.parametrize("k", [7, 10, 15])
def test_kronecker_fixture_matches_reference_scan(k):
    _assert_matches_reference(section(get_fixture("kronecker_L").build(k=k)["pencil"], k + 1))


@pytest.mark.parametrize(
    "hint",
    [
        lambda eps, cols: eps - 2,
        lambda eps, cols: eps + 1,
        lambda eps, cols: None,
        lambda eps, cols: 0,
        lambda eps, cols: cols + 3,
    ],
    ids=["eps-2", "eps+1", "none", "zero", "cols+3"],
)
@pytest.mark.parametrize("eps", [8, 10])
@pytest.mark.parametrize("side", ["right", "left"])
def test_wrong_hints_keep_reports(monkeypatch, side, eps, hint):
    monkeypatch.setattr(chains, "_right_index_hint", lambda E, A, thr: hint(eps, A.shape[1]))
    right, left = ([eps], []) if side == "right" else ([], [eps])
    e, a = _kronecker_sum(np.random.default_rng(eps), right, left, 2, 0.0)
    _assert_matches_reference(_dense_section(e, a))


def test_right_index_hint_finds_kronecker_indices():
    for eps in range(8):
        e, a = _kronecker_sum(np.random.default_rng(eps), [eps, eps + 2], [1], 3, 0.0)
        thr = 1e-10 * (np.linalg.norm(e, 2) + np.linalg.norm(a, 2))
        assert chains._right_index_hint(e, a, thr) == eps
        assert chains._right_index_hint(e.conj().T, a.conj().T, thr) == 1
    rng = np.random.default_rng(0)
    e, a = (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)) for _ in range(2))
    assert chains._right_index_hint(e, a, 1e-10) is None


@pytest.mark.parametrize("factor,jumped", [(0.5, False), (2.0, True)])
def test_jump_certificate_margin_boundary(chain_systems, factor, jumped):
    # tol puts sigma_min(T_{k-1}) at the screen margin plus factor * (2 * rank_tol)
    k = 10
    s = section(get_fixture("kronecker_L").build(k=k)["pencil"], k + 1)
    E, A = s.E_mat, s.A_mat
    scale = linalg.norm2(E) + linalg.norm2(A)
    T = _chain_system(E, A, k - 1)
    screen = linalg.singular_values(T)
    rt = linalg.rank_tol(T.shape, screen[0])
    tol = (screen[-1] - factor * 2 * rt) / (10 * scale)
    thr = tol * scale
    margin = max(10 * thr, thr + 2 * rt)
    assert screen[-1] - margin == pytest.approx(factor * 2 * rt, rel=1e-2)
    rep = extract_right_chain(s, tol)
    _assert_same_report(rep, _reference_right_chain(s, tol))
    assert rep.minimal_index == k
    assert chain_systems[: chains.HINT_DEGREE] == list(range(chains.HINT_DEGREE))
    assert set(chain_systems).isdisjoint(range(chains.HINT_DEGREE, k - 1)) == jumped


@pytest.fixture
def hint_calls(monkeypatch):
    """Counts the minimal-index hints computed by chain extraction."""
    calls = []
    hint = chains._right_index_hint

    def counted(E, A, thr):
        calls.append(A.shape)
        return hint(E, A, thr)

    monkeypatch.setattr(chains, "_right_index_hint", counted)
    return calls


def test_low_index_scans_compute_no_hint(hint_calls, chain_systems):
    for k in range(1, chains.HINT_DEGREE + 1):
        s = section(get_fixture("kronecker_L").build(k=k)["pencil"], k + 1)
        assert extract_right_chain(s).minimal_index == k
        assert extract_left_chain(s) is None
    scanned = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        eps = list(rng.integers(0, 4, size=rng.integers(1, 3)))
        etas = list(rng.integers(0, 4, size=rng.integers(1, 3)))
        delta = [0.0, 1e-13, 1e-8, 1e-3][seed % 4]
        e, a = _kronecker_sum(rng, eps, etas, int(rng.integers(0, 5)), delta)
        s = _dense_section(e, a)
        for extract in (extract_right_chain, extract_left_chain):
            chain_systems.clear()
            hint_calls.clear()
            extract(s)
            if 0 <= max(chain_systems, default=-1) < chains.HINT_DEGREE:
                assert hint_calls == []
                scanned += 1
    assert scanned >= 20


def test_kronecker_k15_screens_below_gate_then_jumps(monkeypatch, hint_calls):
    built, screened, vector_svds = [], [], []
    chain_system, singular_values = _chain_system, linalg.singular_values
    smallest_right = linalg.smallest_right

    def building(E, A, d):
        built.append(chain_system(E, A, d))
        return built[-1]

    def screening(mat):
        if any(mat is T for T in built):
            screened.append(mat.shape)
        return singular_values(mat)

    def vectors(mat):
        vector_svds.append(mat.shape)
        return smallest_right(mat)

    monkeypatch.setattr(chains, "_chain_system", building)
    monkeypatch.setattr(linalg, "singular_values", screening)
    monkeypatch.setattr(linalg, "smallest_right", vectors)
    k = 15
    s = section(get_fixture("kronecker_L").build(k=k)["pencil"], k + 1)
    assert extract_right_chain(s).minimal_index == k
    assert len(hint_calls) == 1
    assert len(screened) <= chains.HINT_DEGREE + 2
    assert len(vector_svds) == 1


def test_no_screen_after_the_first_that_skips_nothing(monkeypatch):
    # kronecker_L k=4: sigma_min(T_d) = 1, 0.618, 0.445, 0.347, 0 for d = 0..4
    # and scale = 2, so at thr = 0.08 the screen skips degree 0; degree 1
    # passes its screen (0.618 <= 10 * thr) but not its vector SVD, and the
    # tall T_2 and T_3 go to the vector SVD unscreened
    tol = 0.04
    s = section(get_fixture("kronecker_L").build(k=4)["pencil"], 5)
    built, events = [], []
    chain_system, singular_values = _chain_system, linalg.singular_values
    smallest_right = linalg.smallest_right

    def building(E, A, d):
        built.append((d, chain_system(E, A, d)))
        return built[-1][1]

    def screening(mat):
        events.extend(("screen", d) for d, T in built if T is mat)
        return singular_values(mat)

    def vectors(mat):
        events.extend(("vector", d) for d, T in built if T is mat)
        return smallest_right(mat)

    monkeypatch.setattr(chains, "_chain_system", building)
    monkeypatch.setattr(linalg, "singular_values", screening)
    monkeypatch.setattr(linalg, "smallest_right", vectors)
    rep = extract_right_chain(s, tol)
    monkeypatch.undo()
    _assert_same_report(rep, _reference_right_chain(s, tol))
    assert rep.minimal_index == 4
    assert events == [("screen", 0), ("screen", 1)] + [("vector", d) for d in range(1, 5)]


@pytest.mark.parametrize("rows,cols", [(3, 7), (7, 7), (9, 4), (20, 6)])
def test_null_basis_spans_the_small_singular_directions(rows, cols):
    # rank 2 plus a 1e-12 perturbation: thr = 1e-9 keeps cols - 2 directions,
    # those the zero-padded thin SVD keeps
    rng = np.random.default_rng(rows * cols)
    mat = rng.standard_normal((rows, 2)) @ rng.standard_normal((2, cols))
    mat = mat + 1e-12 * rng.standard_normal((rows, cols))
    basis = chains._null_basis(mat, 1e-9)
    assert basis.shape == (cols, cols - 2)
    assert np.allclose(basis.conj().T @ basis, np.eye(cols - 2), atol=1e-12)
    padded = np.vstack([mat, np.zeros((max(cols - rows, 0), cols))])
    _, svals, vh = scipy.linalg.svd(padded, full_matrices=False)
    reference = vh[int(np.sum(svals > 1e-9)) :].conj().T
    assert scipy.linalg.subspace_angles(basis, reference).max() <= 1e-8
