"""Versioned JSON description of pencils and structured operators.

Top level: ``{"format": 1, "space": <space>?, "E": <node>, "A": <node>,
"dh": {"B": <node>, "Q": <node>, "J": <node>?, "R": <node>?} | null?}``.
Operator nodes ``{"node": <name>, ...}`` mirror the operator classes;
weight rules are ``{"kind": <kind>, ...}``.  The tables ``_NODES``,
``_KINDS`` and ``_PENCIL`` hold every key, and the reader and the writer
both loop over them.  A key is optional exactly where its constructor
argument has a default; an unknown or a missing required key is a
:class:`FormatError` that names it.  ``adjoint`` nodes and the weight-rule
key ``conjugate`` (a JSON boolean) are read, applied on load, and never
written; ``format`` must be the JSON integer 1.  Complex
scalars are ``[re, im]`` pairs (bare reals accepted on input); spaces are
``"l2N"``, ``"l2Z"`` or ``{"finite": dim}``.
"""

from __future__ import annotations

import inspect
import json
import numbers
from typing import Any

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


def _keys_in(v: dict, what: str, allowed: Any, required: Any) -> None:
    """Raise a FormatError naming a key of v outside allowed, or a missing required one."""
    for key in v:
        if key not in allowed:
            raise FormatError(f"{what} does not take key {key!r}")
    for key in required:
        if key not in v:
            raise FormatError(f"{what} needs key {key!r}")


# Codecs: a (reader, writer) pair for the value of one key.
_INT = (_int_in, int)
_SPACE = (_space_in, _space_out)
_CPLX = (_cplx_in, _cplx_out)
_CPLXS = (lambda v: tuple(_cplx_in(z) for z in v), lambda zs: [_cplx_out(z) for z in zs])
# The matrix reader returns nested lists: DenseBlock builds the only array from them.
_MATRIX = (
    lambda v: [[_cplx_in(z) for z in row] for row in v],
    lambda m: [[_cplx_out(z) for z in row] for row in m],
)


# ---------------------------------------------------------------------------
# weight rules

# Weight-rule kind -> the keys that kind reads, each the WeightRule argument of that name,
# with its codec.  Every kind also reads the _COMMON keys and, on input only, "conjugate"
# (a JSON boolean; true conjugates the rule on load).
_KINDS = {
    "constant": {"value": _CPLX},
    "reciprocal_index": {},
    "factorial_ratio": {},
    "inverse_factorial": {},
    "index_plus_one": {},
    "table": {"values": _CPLXS, "start": _INT, "default": _CPLX},
}
_COMMON = {"shift": _INT}


def _weights_out(w: WeightRule) -> dict:
    keys = {**_KINDS[w.kind], **_COMMON}
    return {"kind": w.kind, **{key: write(getattr(w, key)) for key, (_, write) in keys.items()}}


def _weights_in(v: Any) -> WeightRule:
    if not (isinstance(v, dict) and isinstance(v.get("kind"), str) and v["kind"] in _KINDS):
        raise FormatError(f"not a weight rule: {v!r}")
    keys = {**_KINDS[v["kind"]], **_COMMON}
    _keys_in(v, f"weight rule {v['kind']!r}", ("kind", "conjugate", *keys), ())
    conjugate = v.get("conjugate", False)
    if type(conjugate) is not bool:
        raise FormatError(f"weight rule {v['kind']!r}: conjugate must be true or false, "
                          f"not {conjugate!r}")
    args = {key: read(v[key]) for key, (read, _) in keys.items() if key in v}
    rule = WeightRule(v["kind"], **args)
    return rule.conjugated() if conjugate else rule


# ---------------------------------------------------------------------------
# objects built from a table row


def _row(tag: Any, build: Any, *fields: tuple) -> tuple:
    """A table row: builder, fields, the keys allowed (the tag among them) and those required.

    A field is (key, builder argument, attribute the writer reads, codec).  A key is required
    exactly where its argument has no default.  A key without an argument is derived: the
    writer writes it, and the reader checks it against the built object.
    """
    params = inspect.signature(build).parameters
    required = tuple(key for key, arg, _, _ in fields
                     if arg and params[arg].default is params[arg].empty)
    return build, fields, frozenset((tag, *(field[0] for field in fields))), required


def _read(v: Any, what: str, row: tuple) -> Any:
    build, fields, allowed, required = row
    if not isinstance(v, dict):
        raise FormatError(f"{what} must be an object, not {v!r}")
    _keys_in(v, what, allowed, required)
    obj = build(**{arg: read(v[key]) for key, arg, _, (read, _) in fields if arg and key in v})
    for key, arg, attr, (read, write) in fields:
        if not arg and key in v and read(v[key]) != getattr(obj, attr):
            built = write(getattr(obj, attr))
            raise FormatError(f"{what}: {key} {v[key]!r} does not match {built!r}")
    return obj


def _fields_out(obj: Any, fields: tuple) -> dict:
    """The written keys of obj; a None attribute is left out."""
    values = ((key, write, getattr(obj, attr)) for key, _, attr, (_, write) in fields)
    return {key: write(value) for key, write, value in values if value is not None}


# ---------------------------------------------------------------------------
# operator expression trees


def op_to_json(op: StructuredOperator) -> dict:
    name = _NODE_NAMES.get(type(op))
    if name is None:
        raise FormatError(f"operator {type(op).__name__} has no JSON form")
    return {"node": name, **_fields_out(op, _NODES[name][1])}


def op_from_json(v: Any) -> StructuredOperator:
    if not (isinstance(v, dict) and isinstance(v.get("node"), str) and v["node"] in _NODES):
        raise FormatError(f"not an operator node: {v!r}")
    return _read(v, f"node {v['node']!r}", _NODES[v["node"]])


_OP = (op_from_json, op_to_json)
_OPS = (lambda v: [op_from_json(t) for t in v], lambda ops: [op_to_json(t) for t in ops])
_WEIGHTS = (_weights_in, _weights_out)

# Operator node name -> row.  The "adjoint" node is read only: it is applied on load.
_NODES = {name: _row("node", *spec) for name, spec in {
    "diagonal": (Diagonal, ("space", "space", "space_in", _SPACE),
                 ("weights", "weights", "weights", _WEIGHTS)),
    "shift": (Shift, ("space", "space", "space_in", _SPACE), ("offset", "offset", "offset", _INT),
              ("weights", "weights", "weights", _WEIGHTS)),
    "denseBlock": (DenseBlock, ("space_in", "space_in", "space_in", _SPACE),
                   ("space_out", "space_out", "space_out", _SPACE),
                   ("row_start", "row_start", "row_start", _INT),
                   ("col_start", "col_start", "col_start", _INT),
                   ("matrix", "matrix", "matrix", _MATRIX)),
    "identity": (Identity, ("space", "space", "space_in", _SPACE)),
    "zero": (Zero, ("space_in", "space_in", "space_in", _SPACE),
             ("space_out", "space_out", "space_out", _SPACE)),
    "scale": (Scale, ("factor", "factor", "factor", _CPLX), ("op", "op", "op", _OP)),
    "sum": (Sum, ("terms", "terms", "terms", _OPS)),
    "blockDirectSum": (BlockDirectSum, ("summands", "ops", "ops", _OPS)),
    "adjoint": (lambda op: op.adjoint(), ("op", "op", None, _OP)),
}.items()}
_NODE_NAMES = {row[0]: name for name, row in _NODES.items()}


# ---------------------------------------------------------------------------
# pencils

# The pencil level, tagged by "format", and the dH metadata inside it.  "space" is
# derived from E; "dh" may be null.
_DH = _row(None, DHStructure, ("B", "B", "B", _OP), ("Q", "Q", "Q", _OP),
           ("J", "J", "J", _OP), ("R", "R", "R", _OP))
_PENCIL = _row("format", Pencil, ("space", None, "space_in", _SPACE),
               ("E", "E", "E", _OP), ("A", "A", "A", _OP),
               ("dh", "dh", "dh", (lambda v: None if v is None else _read(v, "dh", _DH),
                                   lambda d: _fields_out(d, _DH[1]))))


def pencil_to_json(p: Pencil) -> dict:
    return {"format": FORMAT_VERSION, **_fields_out(p, _PENCIL[1])}


def pencil_from_json(v: Any) -> Pencil:
    """Build a pencil from its JSON form; any malformed input raises FormatError."""
    if isinstance(v, dict) and not (type(v.get("format")) is int and v["format"] == FORMAT_VERSION):
        raise FormatError(
            f"unsupported format {v.get('format')!r}; this build reads format {FORMAT_VERSION}"
        )
    try:
        return _read(v, "pencil", _PENCIL)
    except FormatError:
        raise
    except (KeyError, ValueError, TypeError, IndexError, OverflowError, RecursionError) as exc:
        raise FormatError(f"invalid pencil ({type(exc).__name__}: {exc})") from exc


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
