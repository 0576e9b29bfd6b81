"""Finitely supported vectors over an integer index set.

Vectors are plain ``dict[int, complex]`` objects mapping a (logical) basis
index to a coefficient.  The inner product is linear in the first argument
and conjugate-linear in the second.

Every sum of sparse vectors in the package goes through one accumulation
rule, implemented once by ``vec_iadd(out, v, c)``: each entry ``x`` of ``v``
(``c * x`` when a scalar is given) is added as ``out.get(j, 0.0) + x``, and
an entry that sums to exactly zero is dropped, so supports stay finite and
iteration stays cheap.  An unscaled add multiplies by nothing, and a scaled
add with ``c == 0`` adds nothing (as ``vec_scale`` returns ``{}``), so an
in-place sum is bitwise equal to merging ``vec_scale``'d copies.

``odae.MonomialForm.evaluate`` applies the rule coordinate-major: each index
is summed over the terms in term order from ``0.0``, the same operations in
the same order.  Where a zero scale or a zero partial sum would make the
term-by-term sum skip a term or drop a key and re-insert it later, so that
the key order differs, it runs the term-by-term sum instead.
"""

from __future__ import annotations

import math

__all__ = [
    "SparseVec",
    "basis_vec",
    "vec_add",
    "vec_iadd",
    "vec_inner",
    "vec_norm",
    "vec_scale",
    "vec_sub",
]

SparseVec = dict[int, complex]


def basis_vec(j: int, c: complex = 1.0) -> SparseVec:
    return {j: complex(c)} if c != 0 else {}


def vec_iadd(out: SparseVec, v: SparseVec, c: complex | None = None) -> None:
    """out += v, or out += c * v, in place; entries summing to zero are dropped."""
    get = out.get
    if c is None:
        for j, x in v.items():
            s = get(j, 0.0) + x
            if s == 0:
                out.pop(j, None)
            else:
                out[j] = s
    elif c != 0:
        for j, x in v.items():
            s = get(j, 0.0) + c * x
            if s == 0:
                out.pop(j, None)
            else:
                out[j] = s


def vec_add(*vs: SparseVec) -> SparseVec:
    out: SparseVec = {}
    for v in vs:
        vec_iadd(out, v)
    return out


def vec_scale(c: complex, v: SparseVec) -> SparseVec:
    if c == 0:
        return {}
    return {j: c * x for j, x in v.items()}


def vec_sub(a: SparseVec, b: SparseVec) -> SparseVec:
    out = vec_add(a)
    vec_iadd(out, b, -1.0)
    return out


def vec_inner(a: SparseVec, b: SparseVec) -> complex:
    if len(b) < len(a):
        return complex(sum(a[j] * b[j].conjugate() for j in b if j in a))
    return complex(sum(a[j] * b[j].conjugate() for j in a if j in b))


def vec_norm(v: SparseVec) -> float:
    return math.sqrt(sum(abs(c) ** 2 for c in v.values()))


def _fmt(x: float) -> str:
    """x with 17 significant digits, enough to round-trip a double.

    The number format of the CLI and of the fixture check details; it is
    defined here because every command that prints numbers loads this module.
    """
    return f"{float(x):.17g}"
