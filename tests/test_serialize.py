import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilkit import (
    BlockDirectSum,
    DenseBlock,
    DHStructure,
    Diagonal,
    FormatError,
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
    basis_vec,
    constant_weight,
    finite,
    fixture_names,
    get_fixture,
    load_pencil,
    pencil_from_json,
    pencil_to_json,
    save_pencil,
    section,
)
from pencilkit.sections import operator_matrix, window_for
from pencilkit.serialize import op_from_json, op_to_json


def _same_sections(p, q, n=6):
    s, t = section(p, n), section(q, n)
    return np.allclose(s.E_mat, t.E_mat) and np.allclose(s.A_mat, t.A_mat)


ROUNDTRIP_PENCILS = [
    Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index"))),
    Pencil(E=Identity(L2Z), A=Shift(L2Z, -1, WeightRule("factorial_ratio"))),
    Pencil(
        E=Sum([Identity(L2N), Scale(0.5j, Shift(L2N, 1, constant_weight(2.0)))]),
        A=Zero(L2N),
    ),
    Pencil(
        E=BlockDirectSum([Identity(finite(2)), Identity(L2N)]),
        A=BlockDirectSum([Zero(finite(2)), Shift(L2N, -1, constant_weight(1.0))]),
    ),
    Pencil(
        E=DenseBlock(finite(3), finite(2), np.array([[1.0, 2.0j, 0.0], [0.0, 1.0, -1.0]])),
        A=DenseBlock(finite(3), finite(2), np.eye(2, 3)),
    ),
    Pencil(
        E=Identity(L2N),
        A=DenseBlock(L2N, L2N, np.array([[1.0, 2.0], [3.0, 4.0]]), row_start=3, col_start=2),
    ),
]


@pytest.mark.parametrize("p", ROUNDTRIP_PENCILS)
def test_json_roundtrip_preserves_sections(p):
    q = pencil_from_json(pencil_to_json(p))
    assert _same_sections(p, q)


def test_dh_metadata_roundtrip():
    sp = finite(2)
    b = -np.eye(2)
    p = Pencil(
        E=Identity(sp),
        A=DenseBlock(sp, sp, b),
        dh=DHStructure(
            B=DenseBlock(sp, sp, b),
            Q=Identity(sp),
            J=DenseBlock(sp, sp, np.zeros((2, 2))),
            R=DenseBlock(sp, sp, np.eye(2)),
        ),
    )
    q = pencil_from_json(pencil_to_json(p))
    assert q.dh is not None and q.dh.has_split and q.dh.q_is_identity


def test_file_roundtrip(tmp_path):
    p = ROUNDTRIP_PENCILS[0]
    path = tmp_path / "p.json"
    save_pencil(p, str(path))
    assert _same_sections(p, load_pencil(str(path)))
    # deterministic serialization: saving twice gives identical bytes
    path2 = tmp_path / "q.json"
    save_pencil(p, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_adjoint_node_applied_on_load():
    raw = {
        "node": "adjoint",
        "op": {"node": "shift", "space": "l2N", "offset": -1,
               "weights": {"kind": "constant", "value": [0.0, 1.0]}},
    }
    op = op_from_json(raw)
    # adjoint of e_j -> i e_{j-1} is e_j -> -i e_{j+1}
    assert op.apply_basis(1) == {2: -1.0j}


def test_conjugate_key_applied_on_load():
    def diagonal(weights):
        return op_from_json({"node": "diagonal", "space": "l2N", "weights": weights})

    const = diagonal({"kind": "constant", "value": [1, 2], "conjugate": True})
    assert const.apply_basis(3) == {3: 1 - 2j}
    recip = diagonal({"kind": "reciprocal_index", "conjugate": True})
    plain = diagonal({"kind": "reciprocal_index"})
    assert all(recip.apply_basis(j) == plain.apply_basis(j) for j in range(1, 6))


def test_adjoint_diagonal_saved_without_conjugate_key():
    for weights in (WeightRule("reciprocal_index"), constant_weight(1 + 2j)):
        p = Pencil(E=Identity(L2N), A=Diagonal(L2N, weights).adjoint())
        doc = pencil_to_json(p)
        assert "conjugate" not in json.dumps(doc)
        assert _same_sections(p, pencil_from_json(doc))


def test_bare_real_scalars_accepted():
    raw = {"node": "scale", "factor": 2.5, "op": {"node": "identity", "space": "l2N"}}
    assert op_from_json(raw).apply_basis(3) == {3: 2.5}


_IDENTITY = {"node": "identity", "space": "l2N"}
# tags that are not strings: a table lookup would hash them and raise TypeError
_NON_STRING_TAGS = [
    ({"node": ["identity"], "space": "l2N"}, "not an operator node: "),
    ({"node": {}, "space": "l2N"}, "not an operator node: "),
    ({"node": "diagonal", "space": "l2N", "weights": {"kind": ["constant"], "value": 2}},
     "not a weight rule: "),
]


@pytest.mark.parametrize("op, message", _NON_STRING_TAGS)
def test_non_string_tag_is_named(op, message):
    with pytest.raises(FormatError) as caught:
        pencil_from_json({"format": 1, "E": _IDENTITY, "A": op})
    assert str(caught.value).startswith(message)


def test_errors_are_format_errors(tmp_path):
    with pytest.raises(FormatError):
        pencil_from_json({"format": 99, "E": {}, "A": {}})
    with pytest.raises(FormatError):
        pencil_from_json({"format": 1, "E": {"node": "identity", "space": "l2N"}})
    with pytest.raises(FormatError):
        op_from_json({"node": "mystery"})
    with pytest.raises(FormatError):
        pencil_from_json(
            {
                "format": 1,
                "space": "l2Z",
                "E": {"node": "identity", "space": "l2N"},
                "A": {"node": "identity", "space": "l2N"},
            }
        )
    dh_missing_q = {
        "format": 1,
        "E": {"node": "identity", "space": "l2N"},
        "A": {"node": "identity", "space": "l2N"},
        "dh": {"B": {"node": "identity", "space": "l2N"}},
    }
    with pytest.raises(FormatError):
        pencil_from_json(dh_missing_q)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_pencil(str(bad))
    bad.write_bytes(b'{"format": 1, "E": "\xff"}')
    with pytest.raises(FormatError, match="malformed JSON"):
        load_pencil(str(bad))
    bad.write_text('{"format": ' + "1" * 5000 + "}")
    with pytest.raises(FormatError, match="malformed JSON"):
        load_pencil(str(bad))


def _pencil_doc(e, a):
    return {"format": 1, "E": e, "A": a}


def _dense(matrix):
    return {"node": "denseBlock", "space_in": {"finite": 2}, "space_out": {"finite": 2},
            "matrix": matrix}


_ID2 = {"node": "identity", "space": {"finite": 2}}
_IDN = {"node": "identity", "space": "l2N"}
_ID3 = {"node": "identity", "space": {"finite": 3}}
_DENSE32 = {"node": "denseBlock", "space_in": {"finite": 3}, "space_out": {"finite": 2},
            "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}


@pytest.mark.parametrize(
    "doc",
    [
        _pencil_doc({"node": "identity", "space": {"finite": 2.5}},
                    {"node": "identity", "space": {"finite": 2.5}}),
        _pencil_doc(_IDN, {"node": "shift", "space": "l2N", "weights": {"kind": "constant"}}),
        _pencil_doc(_IDN, {"node": "identity", "space": "l2Z"}),
        _pencil_doc(_IDN, {"node": "diagonal", "space": "l2N", "weights": {"kind": "mystery"}}),
        _pencil_doc(_ID2, _dense([[1.0, 2.0], [3.0]])),
        _pencil_doc(_ID2, _dense(1.0)),
        _pencil_doc(_ID2, _dense([1.0, 2.0])),
        _pencil_doc(_ID2, _dense([])),
        _pencil_doc(_ID2, _dense([[]])),
        _pencil_doc({"node": "identity", "space": {"finite": -1}},
                    {"node": "identity", "space": {"finite": -1}}),
        _pencil_doc(_ID2, _dense([[1.0, float("nan")], [0.0, 1.0]])),
        _pencil_doc(_IDN, {"node": "diagonal", "space": "l2N",
                           "weights": {"kind": "table", "values": [1.0, float("inf")]}}),
        _pencil_doc(_IDN, {"node": "scale", "factor": [float("nan"), 0.0], "op": _IDN}),
        _pencil_doc(_IDN, {"node": "scale", "factor": float("inf"), "op": _IDN}),
        _pencil_doc(_IDN, {"node": "scale", "factor": 10**400, "op": _IDN}),
        _pencil_doc(_IDN, {"node": "scale", "factor": True, "op": _IDN}),
        _pencil_doc(_IDN, {"node": "scale", "factor": [1.0, False], "op": _IDN}),
        {**_pencil_doc(_ID3, _ID3), "dh": {"B": _ID2, "Q": _ID3}},
        {**_pencil_doc(_ID3, _ID3), "dh": {"B": _ID3, "Q": _ID3, "J": _ID3, "R": _ID2}},
        {**_pencil_doc(_DENSE32, _DENSE32), "dh": {"B": _ID3, "Q": _ID3}},
        _pencil_doc(_IDN, {"node": "diagonal", "space": "l2N",
                           "weights": {"kind": "reciprocal_index", "value": 5, "values": [1, 2]}}),
        _pencil_doc(_IDN, {"node": "diagonal", "space": "l2N",
                           "weights": {"kind": "constant", "value": 2, "default": 1}}),
        _pencil_doc(_IDN, {"node": "diagonal", "space": "l2N",
                           "weights": {"kind": "table", "values": [1], "value": 2}}),
        _pencil_doc(_IDN, {"node": "diagonal", "space": "l2N",
                           "weights": {"kind": "constant", "valu": 2}}),
        _pencil_doc(_IDN, {"node": "scale", "factor": 2.0, "factr": 3.0, "op": _IDN}),
        {**_pencil_doc(_IDN, _IDN), "dh_": {"B": _IDN, "Q": _IDN}},
        {**_pencil_doc(_IDN, _IDN), "dh": {"B": _IDN, "Q": _IDN, "S": _IDN}},
        _pencil_doc(_IDN, {"node": "adjoint", "op": _IDN, "space": "l2N"}),
        _pencil_doc(_IDN, {"node": "identity"}),
        {**_pencil_doc(_IDN, _IDN), "format": True},
        {**_pencil_doc(_IDN, _IDN), "format": 1.0},
        _pencil_doc(_IDN, {"node": "diagonal", "space": "l2N",
                           "weights": {"kind": "constant", "value": [0, 1], "conjugate": "no"}}),
    ],
    ids=["non-integer-dim", "shift-without-offset", "mismatched-spaces",
         "unknown-weight-kind", "ragged-matrix", "scalar-matrix", "one-dimensional-matrix",
         "empty-matrix", "empty-matrix-row", "negative-dim", "nan-entry",
         "infinite-table-weight", "nan-scale-factor", "infinite-scale-factor",
         "overflowing-scale-factor", "bool-scale-factor", "bool-in-complex-pair",
         "dh-factor-on-other-space", "dh-split-on-other-space", "dh-on-rectangular-pencil",
         "value-on-reciprocal-index", "table-key-on-constant", "value-on-table",
         "misspelled-weight-value", "misspelled-scale-factor", "misspelled-dh",
         "stray-key-in-dh", "stray-key-on-adjoint", "identity-without-space",
         "bool-format", "float-format", "string-conjugate"],
)
def test_malformed_documents_raise_format_error(doc):
    with pytest.raises(FormatError):
        pencil_from_json(doc)


def test_deeply_nested_operator_is_format_error():
    op = _IDN
    for _ in range(100_000):
        op = {"node": "adjoint", "op": op}
    with pytest.raises(FormatError, match="RecursionError"):
        pencil_from_json(_pencil_doc(op, _IDN))


def test_rule_operators_are_not_serializable():
    op = RuleOperator(L2N, L2N, lambda j: basis_vec(j), lambda j: basis_vec(j))
    with pytest.raises(FormatError):
        op_to_json(op)


# Fixtures whose pencils hold RuleOperators, which have no JSON form.
RULE_FIXTURES = ("approxchain", "rescaled_approxchain")


@functools.cache
def _fixture_pencils():
    """(id, pencil) for each fixture's pencil and dh_pencil."""
    out = []
    for name in fixture_names():
        data = get_fixture(name).build()
        out += [(f"{name}.{key}", data[key]) for key in ("pencil", "dh_pencil") if key in data]
    return tuple(out)


def _fixture_docs():
    """A fresh document for each fixture pencil that has a JSON form."""
    return {key: pencil_to_json(p) for key, p in _fixture_pencils()
            if key.split(".")[0] not in RULE_FIXTURES}


def _factor_matrices(p, n):
    if p.dh is None:
        return []
    win = window_for(p.space_in, n)
    return [None if op is None else operator_matrix(op, win, win)
            for op in (p.dh.B, p.dh.Q, p.dh.J, p.dh.R)]


@pytest.mark.parametrize("key,p", [pytest.param(key, p, id=key) for key, p in _fixture_pencils()])
def test_fixture_pencil_survives_json_roundtrip(key, p):
    if key.split(".")[0] in RULE_FIXTURES:
        with pytest.raises(FormatError):
            pencil_to_json(p)
        return
    q = pencil_from_json(json.loads(json.dumps(pencil_to_json(p))))
    assert (p.dh is None) == (q.dh is None)
    for n in (3, 8):
        s, t = section(p, n), section(q, n)
        assert np.array_equal(s.E_mat, t.E_mat) and np.array_equal(s.A_mat, t.A_mat)
        for a, b in zip(_factor_matrices(p, n), _factor_matrices(q, n), strict=True):
            assert (a is None and b is None) or np.array_equal(a, b)


# Keys that select how an object is read; a document without one is reported as a whole.
_TAGS = ("format", "node", "kind", "finite")
# Keys that a reader of the named node may do without.
_OPTIONAL = {"zero": {"space_out"}, "denseBlock": {"row_start", "col_start"}}


def _objects(v, parent, out):
    """Append each JSON object under v with the keys its reader requires."""
    if isinstance(v, list):
        for item in v:
            _objects(item, parent, out)
    elif isinstance(v, dict):
        if parent is None:
            required = {"format", "E", "A"}
        elif parent == "dh":
            required = {"B", "Q"}
        elif "node" in v:
            required = set(v) - _OPTIONAL.get(v["node"], set())
        elif "kind" in v:
            required = {"kind"}
        else:  # a finite space
            required = set(v)
        out.append((v, sorted(required)))
        for key, item in v.items():
            _objects(item, key, out)
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_fixture_documents_raise_format_error(data):
    docs = _fixture_docs()
    doc = docs[data.draw(st.sampled_from(sorted(docs)))]
    obj, required = data.draw(st.sampled_from(_objects(doc, None, [])))
    if required and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(required))
        del obj[key]
    else:
        key = "x_" + data.draw(st.text(max_size=3))
        obj[key] = data.draw(st.sampled_from([0, "l2N", {}]))
    with pytest.raises(FormatError) as caught:
        pencil_from_json(doc)
    if key not in _TAGS:
        assert repr(key) in str(caught.value)
