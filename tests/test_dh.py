import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import pencilkit.dh
from pencilkit import linalg
from pencilkit.chains import extract_right_chain
from pencilkit.fixtures import get_fixture
from pencilkit import (
    DenseBlock,
    DHStructure,
    Identity,
    Pencil,
    dh_classify,
    dh_common_kernel,
    dh_kernel_EJR,
    dh_section_mats,
    finite,
    section,
    subspace_angle,
    uniqueness_demo,
    verify_dh_structure,
)
from pencilkit.spectra import classify_point


def _random_dh(seed: int, dim: int = 4, engineered_kernel: bool = False) -> Pencil:
    """E selfadjoint nonnegative, B = J - R with J skew and R PSD, Q = I."""
    rng = np.random.default_rng(seed)

    def spd():
        m = rng.standard_normal((dim, dim))
        return m @ m.T + dim * np.eye(dim)

    e, r = spd(), spd()
    k = rng.standard_normal((dim, dim))
    j = k - k.T
    if engineered_kernel:
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        proj = np.eye(dim) - np.outer(v, v)
        e, r, j = proj @ e @ proj, proj @ r @ proj, proj @ j @ proj
    sp = finite(dim)
    b = j - r
    return Pencil(
        E=DenseBlock(sp, sp, e),
        A=DenseBlock(sp, sp, b),
        dh=DHStructure(
            B=DenseBlock(sp, sp, b),
            Q=Identity(sp),
            J=DenseBlock(sp, sp, j),
            R=DenseBlock(sp, sp, r),
        ),
    )


def test_structure_diagnostics_pass_on_valid_instance():
    p = _random_dh(0)
    diag = verify_dh_structure(dh_section_mats(section(p, 4), p.dh))
    assert diag.structure_ok and diag.failures() == []
    assert diag.qe_min_eig > 0 and diag.b_sym_max_eig < 0
    assert diag.bq_vs_a_defect <= 1e-12


def test_structure_violations_are_named():
    dim = 3
    sp = finite(dim)
    e = np.eye(dim)
    b = np.eye(dim)  # Hermitian part positive: not dissipative
    p = Pencil(
        E=DenseBlock(sp, sp, e),
        A=DenseBlock(sp, sp, b),
        dh=DHStructure(B=DenseBlock(sp, sp, b), Q=Identity(sp)),
    )
    diag = verify_dh_structure(dh_section_mats(section(p, dim), p.dh))
    assert not diag.structure_ok
    assert "B not dissipative" in diag.failures()


def test_common_kernel_matches_engineering():
    p = _random_dh(7, engineered_kernel=True)
    s = section(p, 4)
    kdim, basis = dh_common_kernel(dh_section_mats(s, p.dh))
    assert kdim == 1
    # the basis vector is annihilated by both factors
    assert np.linalg.norm(s.E_mat @ basis[:, 0]) <= 1e-10
    assert np.linalg.norm(s.A_mat @ basis[:, 0]) <= 1e-10


def test_no_kernel_for_spd_instance():
    p = _random_dh(7)
    kdim, basis = dh_common_kernel(dh_section_mats(section(p, 4), p.dh))
    assert kdim == 0 and basis.shape == (4, 0)


def test_kernel_EJR_agrees_with_stack():
    for seed in (1, 2, 3):
        p = _random_dh(seed, engineered_kernel=True)
        s = section(p, 4)
        kdim, basis = dh_kernel_EJR(s, p.dh)
        assert kdim == 1
        mats = dh_section_mats(s, p.dh)
        stacked = np.vstack([s.E_mat, mats.J, mats.R])
        _, svals, vh = scipy.linalg.svd(stacked)
        stack_basis = vh[-1:].conj().T
        assert subspace_angle(basis, stack_basis) <= 1e-8


def test_kernel_EJR_preconditions():
    p = _random_dh(5)
    s = section(p, 4)
    no_split = DHStructure(B=p.dh.B, Q=p.dh.Q)
    with pytest.raises(ValueError):
        dh_kernel_EJR(s, no_split)
    not_identity = DHStructure(B=p.dh.B, Q=p.dh.B, J=p.dh.J, R=p.dh.R)
    with pytest.raises(ValueError):
        dh_kernel_EJR(s, not_identity)


def _dh_with_common_kernel(seed, dim, kdim, spd_q, scale, delta) -> Pencil:
    """lambda E - BQ on finite(dim) with ker E ∩ ker BQ of dimension kdim, then perturbed.

    Q is I or SPD, and Q*E = S and R are PSD, all with eigenvalues in [1, 2] off the kernel;
    J is skew with norm at most 1.  S and R are shifted by delta times their 2-norm times I,
    so the kernel's singular values of [E; BQ] are about delta * sigma_max.  E, J and R are
    multiplied by ``scale``.
    """
    rng = np.random.default_rng(seed)

    def orth(m):
        return np.linalg.qr(m)[0]

    def spd():
        u = orth(rng.standard_normal((dim, dim)))
        return u @ np.diag(rng.uniform(1.0, 2.0, dim)) @ u.T

    q = spd() if spd_q else np.eye(dim)
    v = orth(rng.standard_normal((dim, kdim)))  # ker E ∩ ker BQ, as Q v spans ker B
    pv, pw = (np.eye(dim) - u @ u.T for u in (v, orth(q @ v)))
    k = rng.standard_normal((dim, dim))
    j = pw @ (k - k.T) @ pw
    j /= max(1.0, np.linalg.norm(j, 2))
    s, r = (m + delta * np.linalg.norm(m, 2) * np.eye(dim)
            for m in (pv @ spd() @ pv, pw @ spd() @ pw))
    e, j, r = scale * np.linalg.solve(q, s), scale * j, scale * r
    sp = finite(dim)
    J, R = DenseBlock(sp, sp, j), DenseBlock(sp, sp, r)
    Q = DenseBlock(sp, sp, q) if spd_q else Identity(sp)
    return Pencil(E=DenseBlock(sp, sp, e), A=DenseBlock(sp, sp, (j - r) @ q),
                  dh=DHStructure(B=DenseBlock(sp, sp, j - r), Q=Q, J=J, R=R))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 12),
    kdim=st.integers(0, 2),
    spd_q=st.booleans(),
    scale=st.sampled_from([1.0, 1e-3, 2.0**-60, 2.0**80]),
    delta=st.sampled_from([0.0, 1e-14, 1e-12, 1e-9, 1e-7, 1e-4]),
)
def test_every_path_agrees_on_exactly_singular(seed, dim, kdim, spd_q, scale, delta):
    # no delta lies within 10x of TOL_POINT, so the paths' scales cannot split a verdict
    kdim = min(kdim, dim - 1)
    p = _dh_with_common_kernel(seed, dim, kdim, spd_q, scale, delta)
    s = section(p, dim)
    chain = extract_right_chain(s)
    singular = {
        "dh_classify": dh_classify(s, p.dh).classification == "point_singular",
        "classify_point": classify_point(s, 1 + 0.5j).verdict == "point_singular",
        "chain of degree 0": chain is not None and chain.minimal_index == 0,
        "uniqueness_demo": uniqueness_demo(p, {}, [0.0, 1.0], n=dim).kernel_dim > 0,
    }
    assert set(singular.values()) == {kdim > 0 and delta < linalg.TOL_POINT}, singular


def test_kernel_EJR_agrees_below_the_point_rule_and_refuses_above_it():
    # E^2 + R^2 - J^2 squares the stack's delta-sized singular value: at 1e-12 both kernels
    # keep it; at 1e-9 the stack's TOL_POINT rule drops it, but the formula, which resolves
    # only down to about sqrt(n * EPS), still keeps it
    near = _dh_with_common_kernel(3, 4, 1, False, 1.0, 1e-12)
    assert dh_kernel_EJR(section(near, 4), near.dh)[0] == 1
    far = _dh_with_common_kernel(3, 4, 1, False, 1.0, 1e-9)
    with pytest.raises(ValueError, match="disagrees"):
        dh_kernel_EJR(section(far, 4), far.dh)


def test_classification_branches():
    singular = _random_dh(11, engineered_kernel=True)
    s = section(singular, 4)
    rep = dh_classify(s, singular.dh)
    assert rep.classification == "point_singular"
    probes = pencilkit.dh.probe_sigma_min(dh_section_mats(s, singular.dh))
    assert min(v for _, v in probes) <= 1e-10

    regular = _random_dh(11)
    rep = dh_classify(section(regular, 4), regular.dh)
    assert rep.classification == "regular_candidate"
    assert rep.stacked_sigma_min > 0.1

    # forcing a generous tolerance flips the regular case to evidence-only
    rep = dh_classify(section(regular, 4), regular.dh, tol_ap=1e6)
    assert rep.classification == "approx_singular_evidence"


def test_subspace_angle_edge_cases():
    a = np.zeros((3, 0))
    assert subspace_angle(a, a) == 0.0
    b = np.eye(3)[:, :1]
    assert subspace_angle(a, b) == pytest.approx(np.pi / 2)


@pytest.mark.parametrize(
    "run",
    [
        lambda p: dh_classify(section(p, 4), p.dh),
        lambda p: dh_kernel_EJR(section(p, 4), p.dh),
        lambda p: uniqueness_demo(p, {}, [0.0, 1.0], n=4),
    ],
    ids=["dh_classify", "dh_kernel_EJR", "uniqueness_demo"],
)
def test_each_call_compresses_the_section_once(monkeypatch, run):
    calls = []
    compress = pencilkit.dh.dh_section_mats

    def counting(*args):
        calls.append(args)
        return compress(*args)

    monkeypatch.setattr(pencilkit.dh, "dh_section_mats", counting)
    run(_random_dh(6, engineered_kernel=True))
    assert len(calls) == 1


def _count_svds(monkeypatch, stack_shape):
    """Counters of vector SVDs and of values-only SVDs of the given stack shape."""
    counts = {"vector": 0, "stack_values": 0}
    svd, svdvals = linalg._svd, linalg.svdvals

    def counting_svd(mat, full):
        counts["vector"] += 1
        return svd(mat, full)

    def counting_svdvals(mat):
        counts["stack_values"] += mat.shape == stack_shape
        return svdvals(mat)

    monkeypatch.setattr(linalg, "_svd", counting_svd)
    monkeypatch.setattr(linalg, "svdvals", counting_svdvals)
    return counts


@pytest.mark.parametrize(
    "name,params,n",
    [("diag_reciprocal", {}, 200), ("poroelasticity_template", {"d": 80}, 240)],
)
def test_regular_classification_takes_one_values_only_stack_svd(monkeypatch, name, params, n):
    fx = get_fixture(name)
    data = fx.build(**{**fx.default_params, **params})
    p = data.get("dh_pencil", data["pencil"])
    s = section(p, n)
    counts = _count_svds(monkeypatch, (2 * n, n))
    rep = dh_classify(s, p.dh)
    assert counts == {"vector": 0, "stack_values": 1}
    assert rep.classification == "regular_candidate"
    assert rep.common_kernel_dim == 0 and rep.kernel_basis.shape == (n, 0)


@pytest.mark.parametrize(
    "name,params", [("stokes_skeleton", {}), ("poroelasticity_template", {"singular_pressure": True})]
)
def test_singular_fixtures_keep_their_one_dimensional_kernel(name, params):
    fx = get_fixture(name)
    data = fx.build(**{**fx.default_params, **params})
    p = data["pencil"]
    s = section(p, data["dim"])
    rep = dh_classify(s, p.dh)
    kdim, basis = dh_common_kernel(dh_section_mats(s, p.dh))
    assert rep.classification == "point_singular"
    assert rep.common_kernel_dim == kdim == 1
    assert np.array_equal(rep.kernel_basis, basis)


@pytest.mark.parametrize("factor,vector_svds,kdim", [(0.5, 1, 1), (9.0, 1, 0), (11.0, 0, 0)])
def test_kernel_screen_boundary(monkeypatch, factor, vector_svds, kdim):
    # [E; BQ] has orthogonal columns: sigma_min is exactly delta, sigma_max is sqrt(2); the
    # kernel keeps sigma <= thr, and the screen skips its SVD above 10 * thr
    thr = linalg.TOL_POINT * np.sqrt(2.0)
    delta = factor * thr
    sp = finite(4)
    b = np.diag([-1.0, -1.0, -1.0, 0.0])
    p = Pencil(
        E=DenseBlock(sp, sp, np.diag([1.0, 1.0, 1.0, delta])),
        A=DenseBlock(sp, sp, b),
        dh=DHStructure(B=DenseBlock(sp, sp, b), Q=Identity(sp)),
    )
    s = section(p, 4)
    unscreened = dh_common_kernel(dh_section_mats(s, p.dh))
    counts = _count_svds(monkeypatch, (8, 4))
    rep = dh_classify(s, p.dh)
    assert counts == {"vector": vector_svds, "stack_values": 1}
    assert rep.stacked_sigma_min == pytest.approx(delta, rel=1e-12)
    assert rep.common_kernel_dim == unscreened[0] == kdim
    assert rep.kernel_basis.shape == (4, kdim)
    assert np.array_equal(rep.kernel_basis, unscreened[1])


def _dense_dh(e, j, r, q=None) -> Pencil:
    """lambda E - (J - R) Q on finite(2), Q = I when q is None."""
    sp = finite(2)
    e, j, r = (np.array(m, dtype=float) for m in (e, j, r))
    Q = Identity(sp) if q is None else DenseBlock(sp, sp, np.array(q, dtype=float))
    b = j - r
    bq = b if q is None else b @ np.array(q, dtype=float)
    return Pencil(
        E=DenseBlock(sp, sp, e),
        A=DenseBlock(sp, sp, bq),
        dh=DHStructure(B=DenseBlock(sp, sp, b), Q=Q, J=DenseBlock(sp, sp, j), R=DenseBlock(sp, sp, r)),
    )


_I2, _O2 = np.eye(2), np.zeros((2, 2))


_BREAKS_ONE_RULE = {  # B = J - R stays dissipative in each
    "Q*E not selfadjoint": _dense_dh([[1, 1], [0, 1]], _O2, _I2),
    "Q*E not nonnegative": _dense_dh([[1, 0], [0, -1]], _O2, _I2),
    "Q not invertible": _dense_dh(_I2, _O2, _I2, q=[[1, 0], [0, 0]]),
    "J not anti-selfadjoint": _dense_dh(_I2, [[0, 0.5], [0.5, 0]], _I2),
    "R not selfadjoint nonnegative": _dense_dh(_I2, _O2, [[1, 1], [0, 1]]),
}


@pytest.mark.parametrize("rule", list(_BREAKS_ONE_RULE))
def test_each_structure_rule_fires_alone(rule):
    pencil = _BREAKS_ONE_RULE[rule]
    s = section(pencil, 2)
    diag = verify_dh_structure(dh_section_mats(s, pencil.dh))
    assert diag.failures() == [rule] and not diag.structure_ok
    if rule.startswith("Q*E"):  # Q = I: the Q*E rules are the E preconditions of the kernel formula
        with pytest.raises(ValueError, match=r"^structure preconditions fail: " + re.escape(rule) + "$"):
            dh_kernel_EJR(s, pencil.dh)


@pytest.mark.parametrize("engineered_kernel", [False, True])
def test_kernel_EJR_reads_the_structure_margins(monkeypatch, engineered_kernel):
    # with Q = I the Q*E margins are E's: no norm or eigenvalue beyond those of the structure check
    calls = []
    norm2, eigvalsh = linalg.norm2, linalg.eigvalsh
    monkeypatch.setattr(linalg, "norm2", lambda m: calls.append("norm2") or norm2(m))
    monkeypatch.setattr(linalg, "eigvalsh", lambda m: calls.append("eigvalsh") or eigvalsh(m))
    p = _random_dh(9, engineered_kernel=engineered_kernel)
    verify_dh_structure(dh_section_mats(section(p, 4), p.dh))
    checked = sorted(calls)
    calls.clear()
    dh_kernel_EJR(section(p, 4), p.dh)
    assert sorted(calls) == checked


def test_dh_section_mats_refuses_a_section_it_cannot_compress():
    p = _random_dh(3)
    with pytest.raises(ValueError, match="^pencil carries no dissipative-Hamiltonian metadata$"):
        dh_section_mats(section(p, 4), None)
    sp, wide = finite(3), finite(2)
    rect = Pencil(E=DenseBlock(sp, wide, np.ones((2, 3))), A=DenseBlock(sp, wide, np.ones((2, 3))))
    with pytest.raises(ValueError, match="^dH checks need a square section on a common window$"):
        dh_section_mats(section(rect, 3), DHStructure(B=Identity(sp), Q=Identity(sp)))


def test_dh_kernels_leave_their_blocks_unchanged_above_the_cap(monkeypatch):
    # d = 180: the triangles of the 1080 x 540 stack [E; BQ] and the 1620 x 540 stack [E; J; R]
    # are above the cap, so scipy's QR overwrites a stack that the layer made of the blocks
    data = get_fixture("poroelasticity_template").build(d=180, singular_pressure=True)
    p, s = data["pencil"], section(data["pencil"], data["dim"])
    assert s.E_mat.shape[1] ** 2 > linalg.NUMPY_CAP
    kernel, checked = linalg.kernel, []

    def checking(*blocks):
        before = [b.copy() for b in blocks]
        basis = kernel(*blocks)
        assert all(np.array_equal(b, c) for b, c in zip(blocks, before))
        assert np.array_equal(basis, kernel(np.vstack(blocks)))
        checked.append(len(blocks))
        return basis

    monkeypatch.setattr(linalg, "kernel", checking)
    assert dh_common_kernel(dh_section_mats(s, p.dh))[0] == 1
    assert dh_kernel_EJR(s, p.dh)[0] == 1
    assert checked == [2, 3]


# VmHWM is this process's own peak resident memory (see tests/test_sections.py).
_KERNEL_RSS_SCRIPT = """
import json
import scipy.linalg
from pencilkit import dh_common_kernel, dh_section_mats, get_fixture, section

def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

data = get_fixture("poroelasticity_template").build(d=200, singular_pressure=True)
p = data["pencil"]
mats = dh_section_mats(section(p, data["dim"]), p.dh)
before = peak_rss()
kdim = dh_common_kernel(mats)[0]
stacks = (peak_rss() - before) / (2 * mats.BQ.nbytes)
print(json.dumps({"dtype": str(mats.BQ.dtype), "kdim": kdim, "stacks": stacks}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_dh_common_kernel_touches_no_second_stack_above_the_cap():
    # d = 200, complex: the 1200 x 600 stack [E; BQ] is 11.5 MB.  The kernel's peak RSS above
    # setup was 2.8 stacks with the stack QR'd in place, 3.85 when numpy.vstack made the stack
    # and numpy's QR copied it.
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env.update(PYTHONPATH=str(Path(pencilkit.__file__).parents[1]), PENCILKIT_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _KERNEL_RSS_SCRIPT],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["dtype"] == "complex128" and result["kdim"] == 1
    assert result["stacks"] < 3.3, result


@pytest.mark.parametrize("engineered_kernel", [True, False])
def test_report_carries_the_mats_it_classified(engineered_kernel):
    # dh-check reads its probes from the report instead of compressing the section again
    p = _random_dh(11, engineered_kernel=engineered_kernel)
    s = section(p, 4)
    rep = dh_classify(s, p.dh)
    assert rep.mats.section is s
    probe = pencilkit.dh.probe_sigma_min
    assert probe(rep.mats) == probe(dh_section_mats(s, p.dh))
