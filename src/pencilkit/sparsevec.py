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
in-place sum is bitwise equal to merging ``vec_scale``'d copies.  Into an
empty vector the rule keeps ``0.0 + x`` where it is not zero; ``vec_sub``
copies its first operand so, in one comprehension.

``vec_combine(vs, scales, plan)`` is the one owner of the faster
coordinate-major order: it sums each index of ``plan`` over its (k, x) pairs
as ``s = s + scales[k] * x`` from ``0.0``, the operations of the ``vec_iadd``
loop in the same order.  Where a scale or a partial sum is 0, that loop
would skip a vector or drop a key and re-insert it later, so ``vec_combine``
runs the loop itself; results are bitwise the loop's, key order included.
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


def coordinate_plan(vs) -> list[tuple[int, list[tuple[int, complex]]]]:
    """Each index of the vectors ``vs``, in order of first appearance, with its
    (position in ``vs``, entry) pairs in order."""
    plan: dict[int, list[tuple[int, complex]]] = {}
    for k, v in enumerate(vs):
        for j, x in v.items():
            plan.setdefault(j, []).append((k, x))
    return list(plan.items())


def vec_combine(vs, scales, plan) -> SparseVec:
    """The sum of ``scales[k] * vs[k]``, bitwise ``vec_iadd(out, vs[k], scales[k])``
    for each k in order; ``plan`` lists the pairs of ``coordinate_plan(vs)``."""
    if 0.0 not in scales:
        out: SparseVec = {}
        for j, pairs in plan:
            s = 0.0
            for k, x in pairs:
                s = s + scales[k] * x
                if not s:
                    break
            if not s:
                break
            out[j] = s
        else:
            return out
    out = {}
    for v, c in zip(vs, scales):
        vec_iadd(out, v, c)
    return out


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
    out = {j: s for j, x in a.items() if (s := 0.0 + x) != 0}
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
