"""Sections own their scale: a pencil far from 1 is stored divided by a power of two.

Every verdict compares a sigma-value with a threshold relative to a scale:
sigma_max(lam E - A) for the point verdicts, ||E||_2 + ||A||_2 for the
chain scan, sigma_max([E; BQ]) and ||E||_2 for the dH classification.  So
every verdict is unchanged when the pencil is multiplied by a constant, and
a section stores E and A divided by 2^exponent when their largest entry is
far from 1.  These tests scale pencils by powers of two, which is exact
until an entry under- or overflows, and require each scaled pencil to keep
its verdicts; only a printed value that leaves the double range when it is
multiplied back may be refused, as an input error.  Scales formed from a
value the caller chooses (a lambda, a tolerance, a dH factor Q) can still
overflow, and are refused.
"""

import contextlib
import io
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pencilkit import (
    DenseBlock,
    DHStructure,
    Pencil,
    SectionedPencil,
    classify_point,
    dh_classify,
    dh_section_mats,
    finite,
    linalg,
    operator_matrix,
    regularity_disc,
    save_pencil,
    section,
    uniqueness_demo,
    window_for,
)
from pencilkit import spectra
from pencilkit.cli import EXIT_INPUT, EXIT_OK, main
from pencilkit.fixtures import get_fixture


def _rotation(s: float) -> Pencil:
    """E = s I, A = s [[0, 1], [-1, 0]]: det(lam E - A) = s^2 (lam^2 + 1)."""
    sp = finite(2)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return Pencil(E=DenseBlock(sp, sp, s * np.eye(2)), A=DenseBlock(sp, sp, s * rot))


def _fixture(name: str, **params) -> Pencil:
    fx = get_fixture(name)
    return fx.build(**{**fx.default_params, **params})["pencil"]


PENCILS = {
    "rotation": _rotation(1.0),
    "kronecker_L": _fixture("kronecker_L"),
    "kronecker_L-k7": _fixture("kronecker_L", k=7),
    "stokes_skeleton": _fixture("stokes_skeleton"),
    "poroelasticity_template": _fixture("poroelasticity_template"),
    "poroelasticity_template-singular": _fixture("poroelasticity_template", singular_pressure=True),
}


def _scaled_block(op, k: int):
    """A dense block times 2**k, or None when an entry leaves the double range."""
    if not isinstance(op, DenseBlock):
        return op
    with np.errstate(over="ignore"):
        mat = op.matrix * 2.0**k
    if not np.isfinite(mat).all():
        return None
    return DenseBlock(op.space_in, op.space_out, mat, op.row_start, op.col_start)


def _scaled(p: Pencil, k: int) -> Pencil | None:
    """lam (2^k E) - 2^k A, with B, J and R scaled too and Q kept; None if not representable."""
    ops = [_scaled_block(op, k) for op in (p.E, p.A)]
    dh = None
    if p.dh is not None:
        parts = [_scaled_block(op, k) for op in (p.dh.B, p.dh.J, p.dh.R)]
        ops += parts
        dh = DHStructure(B=parts[0], Q=p.dh.Q, J=parts[1], R=parts[2])
    if any(op is None for op in ops):
        return None
    return Pencil(E=ops[0], A=ops[1], dh=dh)


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _verdicts(command: str, out: str) -> list:
    """The verdicts and minimal indices a command prints.

    For ``analyze``: the four point verdicts, the right-chain line and, for a
    dH pencil, the structure verdict, the common kernel dimension and the
    classification.
    """
    if command == "chains":
        report = _strict_json(out)
        return [None if report[side] is None else report[side]["minimal_index"]
                for side in ("right", "left")]
    return (re.findall(r"verdict=(\w+)", out)
            + re.findall(r"right singular chain: (.*)", out)
            + re.findall(r"dh: structure (\w+), common kernel dim (\d+), classification (\w+)",
                         out))


def _scaling_values(command: str, out: str) -> list[float]:
    """The printed values that scale with the pencil: sigma-values, or chain residuals."""
    if command == "chains":
        report = _strict_json(out)
        return [r for side in ("right", "left") if report[side] is not None
                for r in (*report[side]["residuals"], report[side]["verify_residual"])]
    return [float(v) for v in re.findall(r"(?:sigma_min=|certificate: )(\S+)", out)]


def _command(tmp_path_factory, p: Pencil, command: str) -> tuple[int, str, str]:
    path = tmp_path_factory.mktemp("scaled") / "pencil.json"
    save_pencil(p, str(path))
    return _run([command, str(path), "--n", str(p.space_in.dim)])


def _outcome(tmp_path_factory, p: Pencil, command: str) -> tuple[int, list | None, str]:
    code, out, err = _command(tmp_path_factory, p, command)
    return code, _verdicts(command, out) if code == EXIT_OK else None, err


@pytest.fixture(scope="module")
def unscaled(tmp_path_factory) -> dict:
    """Exit code, verdicts, stderr and largest scaling value of each command on each pencil."""
    out = {}
    for name, p in PENCILS.items():
        for command in ("analyze", "chains"):
            code, stdout, err = _command(tmp_path_factory, p, command)
            assert code == EXIT_OK, err
            out[name, command] = (code, _verdicts(command, stdout), err,
                                  max(map(abs, _scaling_values(command, stdout)), default=0.0))
    return out


def _overflows(value: float, k: int) -> bool:
    """Whether value * 2^k leaves the double range at the top."""
    return math.frexp(value)[1] + k > sys.float_info.max_exp


@pytest.mark.parametrize("command", ["analyze", "chains"])
@pytest.mark.parametrize("name", PENCILS)
@settings(max_examples=15, deadline=None)
@given(k=st.integers(min_value=-1000, max_value=1023))
@example(k=-1000)
@example(k=30)
@example(k=560)
@example(k=1019)
@example(k=1020)
@example(k=1022)
@example(k=1023)
def test_scaled_pencil_keeps_its_verdicts_or_is_refused(tmp_path_factory, unscaled, name,
                                                        command, k):
    # refused only when a value the unscaled run prints, times 2^k, overflows
    p = _scaled(PENCILS[name], k)
    assume(p is not None)
    _, base, _, largest = unscaled[name, command]
    code, verdicts, err = _outcome(tmp_path_factory, p, command)
    if not _overflows(largest, k):
        assert (code, err) == (EXIT_OK, "")
    assert code in (EXIT_OK, EXIT_INPUT)
    if code == EXIT_OK:
        assert verdicts == base
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "* 2^" in err and "is too large" in err


@pytest.mark.parametrize("k", [600, 900, 1000])
@pytest.mark.parametrize("command", ["analyze", "chains"])
@pytest.mark.parametrize("name", ["kronecker_L", "kronecker_L-k7", "stokes_skeleton",
                                  "poroelasticity_template-singular"])
def test_singular_pencil_beyond_the_vector_norm_overflow_keeps_its_verdicts(
        tmp_path_factory, unscaled, name, command, k):
    # chain residuals square entries near 2^k: only a scaled vector norm stays finite
    code, verdicts, err = _outcome(tmp_path_factory, _scaled(PENCILS[name], k), command)
    assert (code, err) == (EXIT_OK, "")
    assert verdicts == unscaled[name, command][1]


@pytest.mark.parametrize("k", [1015, 1019, 1022])
@pytest.mark.parametrize("command", ["analyze", "chains"])
@pytest.mark.parametrize("name", ["kronecker_L", "kronecker_L-k7"])
def test_singular_polynomial_check_beyond_the_product_overflow_keeps_its_verdicts(
        tmp_path_factory, unscaled, name, command, k):
    # (lam E - A) q(lam) at the probes overflows before its norm unless both are rescaled
    code, verdicts, err = _outcome(tmp_path_factory, _scaled(PENCILS[name], k), command)
    assert (code, err) == (EXIT_OK, "")
    assert verdicts == unscaled[name, command][1]


@pytest.mark.parametrize("command", ["analyze", "chains"])
def test_pencil_at_1e308_keeps_the_verdicts_of_rotation_1(tmp_path_factory, command):
    # ||E|| + ||A|| = 2e308 and sigma_max(i E - A) = 2e308 would overflow; the stored section's do not
    code, verdicts, err = _outcome(tmp_path_factory, _rotation(1e308), command)
    assert (code, err) == (EXIT_OK, "")
    assert verdicts == _outcome(tmp_path_factory, _rotation(1.0), command)[1]


def test_section_norms_are_lazy_kept_and_shared_with_the_adjoint(monkeypatch):
    calls = []
    norm2 = linalg.norm2

    def counted(mat):
        calls.append(mat.shape)
        return norm2(mat)

    monkeypatch.setattr(linalg, "norm2", counted)
    s = section(PENCILS["kronecker_L"], 3)
    assert calls == []
    assert s.scale == float(norm2(s.E_mat)) + float(norm2(s.A_mat))
    assert calls == [(2, 3), (2, 3)]
    adj = s.adjoint()
    assert (adj.norm("E"), adj.norm("A"), adj.scale) == (s.norm("E"), s.norm("A"), s.scale)
    assert len(calls) == 2
    fresh = section(PENCILS["kronecker_L"], 3).adjoint()
    assert fresh.norm("A") == s.norm("A") and len(calls) == 3


def test_section_of_a_pencil_at_1e308_has_a_finite_scale():
    s = section(_rotation(1e308), 2)
    assert s.exponent == math.frexp(1e308)[1] > 0
    assert s.norm("E") == s.norm("A") == math.ldexp(1e308, -s.exponent)
    assert s.scale == 2 * s.norm("E") and math.isfinite(s.scale)


def test_classify_point_refuses_an_infinite_sigma_max():
    # a lambda near the top of the range overflows sigma_max(lam E - A) = |lam| of the rotation
    s = section(_rotation(1.0), 2)
    assert classify_point(s, 1e308 + 1e308j).verdict == "regular"  # sigma_max = sqrt(2) * 1e308
    at = r"at lam=\(1\.5e\+308\+1\.5e\+308j\)"
    with pytest.raises(ValueError, match=r"scale sigma_max\(lam E - A\) " + at + " = (inf|nan) is"):
        classify_point(s, 1.5e308 + 1.5e308j)


@pytest.mark.parametrize("b,scale", [(-1.0, r"dH max\(\|\|E\|\|_2, \|\|BQ\|\|_2\)"),
                                     (0.0, r"sigma_max\(Q\)")])
def test_dh_classify_refuses_an_infinite_scale_of_a_huge_q(b, scale):
    # E and A are stored in range, Q as given: ||Q|| = ||BQ|| = 1.84e308 overflow, Q*E = 0 does not
    sp = finite(2)
    huge = np.array([[0.0, 0.0], [1.3e308, 1.3e308]])
    p = Pencil(E=DenseBlock(sp, sp, np.diag([1.0, 0.0])), A=DenseBlock(sp, sp, np.zeros((2, 2))),
               dh=DHStructure(B=DenseBlock(sp, sp, b * np.eye(2)), Q=DenseBlock(sp, sp, huge)))
    with pytest.raises(ValueError, match=scale + " = inf is not finite"):
        dh_classify(section(p, 2), p.dh)


def test_rank_tol_does_not_overflow():
    assert linalg.rank_tol((3, 800), 1.7e308) == 1.7e308 * linalg.EPS * 800


@settings(max_examples=300, deadline=None)
@given(
    smax=st.floats(min_value=2.0**-970, max_value=1e300),
    shape=st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
)
def test_rank_tol_keeps_the_bits_of_the_former_order(smax, shape):
    # sigma_max * 2^-52 stays a normal number here, so scaling by the power of
    # two first rounds once, as max(shape) * sigma_max * 2^-52 does
    assert linalg.rank_tol(shape, smax) == max(shape) * smax * linalg.EPS


def test_regularity_disc_decides_through_classify_point(monkeypatch):
    verdicts = []
    classify = spectra.classify_point

    def recorded(s, lam):
        verdicts.append(classify(s, lam).verdict)
        return classify(s, lam)

    monkeypatch.setattr(spectra, "classify_point", recorded)
    s = section(_rotation(2.0), 2)
    assert regularity_disc(s, 0.0) == 1.0  # sigma_min(-A) = 2, ||E|| = 2
    with pytest.raises(ValueError, match="not invertible"):
        regularity_disc(s, 1j)
    wide = section(PENCILS["kronecker_L"], 3)
    with pytest.raises(ValueError, match="not invertible"):
        regularity_disc(wide, 0.5)
    assert verdicts == ["regular", "point_singular", "point_singular"]


def _direct(E, A) -> SectionedPencil:
    """A section built by a caller from its own matrices."""
    w = window_for(finite(len(E)), len(E))
    return SectionedPencil(w, w, np.asarray(E, dtype=complex), np.asarray(A, dtype=complex))


def _given(s: SectionedPencil, mat: np.ndarray) -> np.ndarray:
    """A stored matrix of s times 2^exponent, part by part."""
    return np.ldexp(mat.real, s.exponent) + 1j * np.ldexp(mat.imag, s.exponent)


def test_directly_built_section_near_1e308_is_stored_in_range():
    # the small entries become subnormal powers of two, so every entry is stored exactly
    E, A = [[1e308, 0.0], [0.0, 1.0]], [[0.0, -1.5e308j], [0.25, 0.0]]
    s = _direct(E, A)
    assert s.exponent == math.frexp(1.5e308)[1] == 1024
    parts = np.abs(np.concatenate([m.view(float).ravel() for m in (s.E_mat, s.A_mat)]))
    assert 0.5 <= parts.max() < 1 and np.isfinite(parts).all()
    assert np.array_equal(_given(s, s.E_mat), E) and np.array_equal(_given(s, s.A_mat), A)
    assert math.isfinite(s.scale)


def test_section_with_a_subnormal_largest_entry_is_stored_in_range():
    s = _direct([[5e-324, 0.0], [0.0, 0.0]], [[0.0, 1e-323j], [0.0, -5e-324]])
    assert s.exponent == -1072
    assert np.array_equal(s.E_mat, [[0.25, 0], [0, 0]])
    assert np.array_equal(s.A_mat, [[0, 0.5j], [0, -0.25]])
    assert s.unscaled(0.5, "value") == 1e-323


@pytest.mark.parametrize("big", [0.0, 2.0**-100, 1.0, 2.0**100])
def test_section_in_range_is_stored_bit_for_bit(big):
    E = np.array([[big, -0.0], [3.0, np.pi]], dtype=complex)
    s = _direct(E, -E)
    assert s.exponent == 0 and s.E_mat is E
    assert s.unscaled(1.5, "value") == 1.5 and s.stored(E) is E


def test_reverse_and_adjoint_keep_the_exponent():
    s = section(_rotation(2.0**-700), 2)
    assert s.exponent == -699
    for derived in (s.reverse(), s.adjoint(), s.adjoint().reverse(), s.reverse().adjoint()):
        assert derived.exponent == s.exponent
    assert s.reverse().E_mat is s.A_mat and np.array_equal(s.adjoint().A_mat, s.A_mat.conj().T)


def test_reverse_and_adjoint_are_copies_without_a_second_range_scan(monkeypatch):
    s = _direct([[2.0**-700, 0.0], [0.0, 0.0]], [[0.0, 2.0**-701], [0.0, 0.0]])
    scans = []
    post_init = SectionedPencil.__post_init__
    monkeypatch.setattr(SectionedPencil, "__post_init__", lambda self: scans.append(self) or post_init(self))
    rev, adj = s.reverse(), s.adjoint()
    assert scans == []
    assert (rev.exponent, adj.exponent) == (s.exponent, s.exponent) == (-699, -699)
    assert (rev.window_in, adj.window_in, adj.window_out) == (s.window_in, s.window_out, s.window_in)
    assert adj._norms is s._norms  # ||M*||_2 = ||M||_2
    assert (rev.norm("E"), rev.norm("A")) == (0.25, 0.5) and s._norms == {}  # its E is the parent's A
    assert (s.norm("E"), adj.norm("A")) == (0.5, 0.25)


def test_unscaled_value_that_overflows_is_refused_naming_it():
    s = section(_rotation(1e308), 2)
    assert s.unscaled(0.5, "half") == math.ldexp(0.5, s.exponent)
    with pytest.raises(ValueError, match=r"^chain residual = 2\.0 \* 2\^1024 is too large$"):
        s.unscaled(2.0, "chain residual")


def test_dh_factors_other_than_q_are_stored_with_the_section():
    p = _scaled(PENCILS["poroelasticity_template"], 600)
    s = section(p, p.space_in.dim)
    mats = dh_section_mats(s, p.dh)
    assert s.exponent > 600
    w = s.window_in
    for stored, op in ((mats.B, p.dh.B), (mats.J, p.dh.J), (mats.R, p.dh.R)):
        assert np.array_equal(_given(s, stored), operator_matrix(op, w, w))
    assert np.array_equal(mats.Q, operator_matrix(p.dh.Q, w, w))
    assert np.array_equal(mats.BQ, mats.B @ mats.Q)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_dh_classify_reads_tol_ap_in_the_units_of_the_pencil(factor):
    p = PENCILS["poroelasticity_template"]
    big = _scaled(p, 600)
    n = p.space_in.dim
    tol_ap = factor * dh_classify(section(p, n), p.dh).stacked_sigma_min
    want = dh_classify(section(p, n), p.dh, tol_ap).classification
    assert want == ("approx_singular_evidence" if factor > 1 else "regular_candidate")
    assert dh_classify(section(big, n), big.dh, math.ldexp(tol_ap, 600)).classification == want


def test_uniqueness_margin_is_in_the_units_of_the_pencil():
    p = PENCILS["poroelasticity_template"]
    base = uniqueness_demo(p, {}, [0.0, 1.0], n=p.space_in.dim)
    big = uniqueness_demo(_scaled(p, 600), {}, [0.0, 1.0], n=p.space_in.dim)
    assert base.unique and big.unique
    assert big.margin == pytest.approx(math.ldexp(base.margin, 600), rel=1e-12)
