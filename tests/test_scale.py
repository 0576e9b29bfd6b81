"""Sections own their scale, and a scale that is not finite is refused.

Every verdict compares a sigma-value with a threshold relative to a scale:
sigma_max(lam E - A) for the point verdicts, ||E||_2 + ||A||_2 for the
chain scan, sigma_max([E; BQ]) and ||E||_2 for the dH classification.  At
the top of the double range such a scale overflows to inf, the threshold
becomes inf, and every comparison against it says "small".  These tests
scale pencils by powers of two, which is exact until an entry under- or
overflows, and require each scaled pencil to keep its verdicts or to be
refused as an input error.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pencilkit import (
    DenseBlock,
    DHStructure,
    Identity,
    Pencil,
    classify_point,
    dh_classify,
    finite,
    linalg,
    regularity_disc,
    save_pencil,
    section,
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
    dH pencil, the common kernel dimension and classification.  The dH
    structure verdict is left out: it is judged against the absolute
    ``dh.STRUCTURE_TOL``, not against a scale, so it is not scale-invariant.
    """
    if command == "chains":
        report = _strict_json(out)
        return [None if report[side] is None else report[side]["minimal_index"]
                for side in ("right", "left")]
    return (re.findall(r"verdict=(\w+)", out)
            + re.findall(r"right singular chain: (.*)", out)
            + re.findall(r"common kernel dim (\d+), classification (\w+)", out))


def _outcome(tmp_path_factory, p: Pencil, command: str) -> tuple[int, list | None, str]:
    path = tmp_path_factory.mktemp("scaled") / "pencil.json"
    save_pencil(p, str(path))
    code, out, err = _run([command, str(path), "--n", str(p.space_in.dim)])
    return code, _verdicts(command, out) if code == EXIT_OK else None, err


@pytest.fixture(scope="module")
def unscaled(tmp_path_factory) -> dict:
    """Exit code, verdicts and stderr of each command on each pencil as built."""
    return {(name, command): _outcome(tmp_path_factory, p, command)
            for name, p in PENCILS.items() for command in ("analyze", "chains")}


@pytest.mark.parametrize("command", ["analyze", "chains"])
@pytest.mark.parametrize("name", PENCILS)
@settings(max_examples=15, deadline=None)
@given(k=st.integers(min_value=-1000, max_value=1023))
@example(k=-1000)
@example(k=560)
@example(k=1019)
@example(k=1020)
@example(k=1022)
@example(k=1023)
def test_scaled_pencil_keeps_its_verdicts_or_is_refused(tmp_path_factory, unscaled, name,
                                                        command, k):
    p = _scaled(PENCILS[name], k)
    assume(p is not None)
    base_code, base, _ = unscaled[name, command]
    assert base_code == EXIT_OK
    code, verdicts, err = _outcome(tmp_path_factory, p, command)
    assert code in (EXIT_OK, EXIT_INPUT)
    if code == EXIT_OK:
        assert verdicts == base
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "chains"])
def test_pencil_at_1e308_is_refused_naming_the_scale(tmp_path, command):
    # the chain scale ||E|| + ||A|| = 2e308 and sigma_max(i E - A) = 2e308 overflow
    path = tmp_path / "big.json"
    save_pencil(_rotation(1e308), str(path))
    code, out, err = _run([command, str(path), "--n", "2"])
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: scale ") and "is not finite" in err and err.count("\n") == 1


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


def test_scale_is_refused_when_not_finite():
    s = section(_rotation(1e308), 2)
    assert s.norm("E") == 1e308 and s.norm("A") == 1e308
    with pytest.raises(ValueError, match=r"scale \|\|E\|\|_2 \+ \|\|A\|\|_2 = inf is not finite"):
        s.scale


def test_classify_point_refuses_an_infinite_sigma_max():
    s = section(_rotation(1e308), 2)
    assert classify_point(s, 1.0).verdict == "regular"  # sigma_max = sqrt(2) * 1e308
    with pytest.raises(ValueError, match=r"sigma_max\(lam E - A\) at lam=1j = inf"):
        classify_point(s, 1j)


def test_dh_classify_refuses_an_infinite_stack_sigma_max():
    # ||E|| = ||BQ|| = 1.6e308 are finite; sigma_max([E; BQ]) = sqrt(2) * 1.6e308 is not
    sp = finite(2)
    big = np.full((2, 2), 0.8e308)
    p = Pencil(E=DenseBlock(sp, sp, big), A=DenseBlock(sp, sp, -big),
               dh=DHStructure(B=DenseBlock(sp, sp, -big), Q=Identity(sp)))
    with pytest.raises(ValueError, match=r"dH sigma_max\(\[E; BQ\]\) = inf"):
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
