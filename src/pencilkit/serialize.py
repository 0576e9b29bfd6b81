"""Versioned JSON description of pencils and structured operators.

Top level: ``{"format": 1, "space": <space>, "E": <expr>, "A": <expr>,
"dh": {"B": ..., "Q": ..., "J": ..., "R": ...}?}``.  Expression nodes are
tagged unions mirroring the operator classes; ``adjoint`` nodes are applied
structurally on load, so a loaded tree always consists of concrete
operators.  Complex scalars are ``[re, im]`` pairs (bare reals accepted on
input); spaces are ``"l2N"``, ``"l2Z"`` or ``{"finite": dim}``.
"""

from __future__ import annotations

import json
import numbers
from typing import Any

import numpy as np

from .operators import (
    BlockDirectSum,
    DenseBlock,
    DHStructure,
    Diagonal,
    Identity,
    Pencil,
    Scale,
    Shift,
    Space,
    StructuredOperator,
    Sum,
    WeightRule,
    Zero,
    finite,
    L2N,
    L2Z,
)

__all__ = ["FORMAT_VERSION", "FormatError", "pencil_to_json", "pencil_from_json", "load_pencil",
           "save_pencil"]

FORMAT_VERSION = 1
# Weight-rule keys that only one kind reads ("shift" and "conjugate" apply to all).
_KIND_KEYS = {"value": "constant", "values": "table", "start": "table", "default": "table"}


class FormatError(ValueError):
    """Malformed pencil description."""


# ---------------------------------------------------------------------------
# scalars and spaces


def _cplx_out(z: complex) -> Any:
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


def _cplx_in(v: Any) -> complex:
    if isinstance(v, (int, float)) and type(v) is not bool:
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and bool not in (type(v[0]), type(v[1])):
        return complex(v[0], v[1])
    raise FormatError(f"not a complex scalar: {v!r}")


def _int_in(v: Any) -> int:
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    raise FormatError(f"not an integer: {v!r}")


def _space_out(s: Space) -> Any:
    return {"finite": s.dim} if s.is_finite else s.kind


def _space_in(v: Any) -> Space:
    if v == "l2N":
        return L2N
    if v == "l2Z":
        return L2Z
    if isinstance(v, dict) and set(v) == {"finite"}:
        return finite(_int_in(v["finite"]))
    raise FormatError(f"not a space: {v!r}")


def _weights_out(w: WeightRule) -> dict:
    d: dict[str, Any] = {"kind": w.kind}
    if w.kind == "constant":
        d["value"] = _cplx_out(w.value)
    elif w.kind == "table":
        d["values"] = [_cplx_out(v) for v in w.values]
        d["start"] = w.start
        d["default"] = _cplx_out(w.default)
    if w.shift:
        d["shift"] = w.shift
    return d


def _weights_in(v: Any) -> WeightRule:
    if not isinstance(v, dict) or "kind" not in v:
        raise FormatError(f"not a weight rule: {v!r}")
    stray = sorted(k for k in v if _KIND_KEYS.get(k, v["kind"]) != v["kind"])
    if stray:
        raise FormatError(f"weight rule {v['kind']!r} does not take {', '.join(stray)}")
    rule = WeightRule(
        kind=v["kind"],
        value=_cplx_in(v.get("value", 1.0)),
        values=tuple(_cplx_in(x) for x in v.get("values", [])),
        start=_int_in(v.get("start", 1)),
        default=_cplx_in(v.get("default", 0.0)),
        shift=_int_in(v.get("shift", 0)),
    )
    return rule.conjugated() if v.get("conjugate", False) else rule


# ---------------------------------------------------------------------------
# operator expression trees


def op_to_json(op: StructuredOperator) -> dict:
    if isinstance(op, Diagonal):
        return {
            "node": "diagonal",
            "space": _space_out(op.space_in),
            "weights": _weights_out(op.weights),
        }
    if isinstance(op, Shift):
        return {
            "node": "shift",
            "space": _space_out(op.space_in),
            "offset": op.offset,
            "weights": _weights_out(op.weights),
        }
    if isinstance(op, DenseBlock):
        return {
            "node": "denseBlock",
            "space_in": _space_out(op.space_in),
            "space_out": _space_out(op.space_out),
            "row_start": op.row_start,
            "col_start": op.col_start,
            "matrix": [[_cplx_out(z) for z in row] for row in op.matrix],
        }
    if isinstance(op, Identity):
        return {"node": "identity", "space": _space_out(op.space_in)}
    if isinstance(op, Zero):
        return {
            "node": "zero",
            "space_in": _space_out(op.space_in),
            "space_out": _space_out(op.space_out),
        }
    if isinstance(op, Scale):
        return {"node": "scale", "factor": _cplx_out(op.factor), "op": op_to_json(op.op)}
    if isinstance(op, Sum):
        return {"node": "sum", "terms": [op_to_json(t) for t in op.terms]}
    if isinstance(op, BlockDirectSum):
        return {"node": "blockDirectSum", "summands": [op_to_json(t) for t in op.ops]}
    raise FormatError(f"operator {type(op).__name__} has no JSON form")


def op_from_json(v: Any) -> StructuredOperator:
    if not isinstance(v, dict) or "node" not in v:
        raise FormatError(f"not an operator node: {v!r}")
    node = v["node"]
    if node == "diagonal":
        return Diagonal(_space_in(v["space"]), _weights_in(v["weights"]))
    if node == "shift":
        return Shift(_space_in(v["space"]), _int_in(v["offset"]), _weights_in(v["weights"]))
    if node == "denseBlock":
        mat = np.array(
            [[_cplx_in(z) for z in row] for row in v["matrix"]], dtype=complex
        )
        return DenseBlock(
            _space_in(v["space_in"]),
            _space_in(v["space_out"]),
            mat,
            row_start=_int_in(v.get("row_start", 1)),
            col_start=_int_in(v.get("col_start", 1)),
        )
    if node == "identity":
        return Identity(_space_in(v["space"]))
    if node == "zero":
        si = _space_in(v["space_in"])
        so = _space_in(v["space_out"]) if "space_out" in v else si
        return Zero(si, so)
    if node == "scale":
        return Scale(_cplx_in(v["factor"]), op_from_json(v["op"]))
    if node == "sum":
        return Sum([op_from_json(t) for t in v["terms"]])
    if node == "blockDirectSum":
        return BlockDirectSum([op_from_json(t) for t in v["summands"]])
    if node == "adjoint":
        return op_from_json(v["op"]).adjoint()
    raise FormatError(f"unknown operator node {node!r}")


# ---------------------------------------------------------------------------
# pencils


def pencil_to_json(p: Pencil) -> dict:
    out = {
        "format": FORMAT_VERSION,
        "space": _space_out(p.space_in),
        "E": op_to_json(p.E),
        "A": op_to_json(p.A),
    }
    if p.dh is not None:
        dh = {"B": op_to_json(p.dh.B), "Q": op_to_json(p.dh.Q)}
        if p.dh.J is not None:
            dh["J"] = op_to_json(p.dh.J)
        if p.dh.R is not None:
            dh["R"] = op_to_json(p.dh.R)
        out["dh"] = dh
    return out


def pencil_from_json(v: Any) -> Pencil:
    """Build a pencil from its JSON form; any malformed input raises FormatError."""
    try:
        return _pencil_from_json(v)
    except FormatError:
        raise
    except (KeyError, ValueError, TypeError, IndexError, OverflowError, RecursionError) as exc:
        raise FormatError(f"invalid pencil ({type(exc).__name__}: {exc})") from exc


def _pencil_from_json(v: Any) -> Pencil:
    if not isinstance(v, dict):
        raise FormatError("top level must be an object")
    if v.get("format") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported format {v.get('format')!r}; this build reads format {FORMAT_VERSION}"
        )
    for key in ("E", "A"):
        if key not in v:
            raise FormatError(f"missing operator {key!r}")
    e = op_from_json(v["E"])
    a = op_from_json(v["A"])
    if "space" in v:
        declared = _space_in(v["space"])
        if e.space_in != declared:
            raise FormatError(
                f"declared space {v['space']!r} does not match E's input space"
            )
    dh = None
    if "dh" in v and v["dh"] is not None:
        d = v["dh"]
        if "B" not in d or "Q" not in d:
            raise FormatError("dh metadata needs both B and Q")
        dh = DHStructure(
            B=op_from_json(d["B"]),
            Q=op_from_json(d["Q"]),
            J=op_from_json(d["J"]) if "J" in d else None,
            R=op_from_json(d["R"]) if "R" in d else None,
        )
    return Pencil(E=e, A=a, dh=dh)


def load_pencil(path: str) -> Pencil:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError too
        raise FormatError(f"{path}: malformed JSON ({exc})") from exc
    try:
        return pencil_from_json(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_pencil(p: Pencil, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pencil_to_json(p), fh, indent=2, sort_keys=True)
        fh.write("\n")
