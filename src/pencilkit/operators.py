"""Structured operators on sequence spaces and operator pencils.

Operators are described by their action on the canonical basis: diagonals,
weighted shifts, dense blocks, direct sums, sums, scalings.  The action on
any basis vector is computable in finite time and finitely supported, which
is all the rest of the package needs (finite sections, residual evaluation,
series solutions).  Unboundedness is implicit in weight growth; no domain
bookkeeping is done beyond the linear span of the basis.

``apply`` keeps one store on the operator: for each support it has met
(the keys of the vector, in order), the images ``apply_basis(j)`` and their
``coordinate_plan``, summed by ``sparsevec.vec_combine``.  So results are
bitwise those of a fresh operator, operators must not change after
construction (``DenseBlock`` keeps a read-only copy of its matrix; ``Sum``
and ``BlockDirectSum`` hold tuples), and the store grows with the distinct
supports an operator is applied to.  ``apply_basis`` and section assembly
neither read nor fill it.

Index conventions: ``l2N`` and ``finite(d)`` spaces are indexed 1, 2, ...;
``l2Z`` is indexed over all integers.  A shift ``offset k`` maps
``e_j -> w(j) e_{j+k}``, dropping targets that fall outside the index set.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from .sparsevec import SparseVec, coordinate_plan, vec_add, vec_combine, vec_iadd, vec_scale

__all__ = [
    "Space",
    "WeightRule",
    "StructuredOperator",
    "Diagonal",
    "Shift",
    "DenseBlock",
    "BlockDirectSum",
    "Sum",
    "Scale",
    "Identity",
    "Zero",
    "RuleOperator",
    "DHStructure",
    "Pencil",
    "direct_sum",
    "finite",
    "L2N",
    "L2Z",
    "constant_weight",
]


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Space:
    """One of the three ambient spaces: finite(dim), l2N, l2Z."""

    kind: str
    dim: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "l2N", "l2Z"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "finite":
            if self.dim is None or self.dim < 1:
                raise ValueError("finite space needs dim >= 1")
        elif self.dim is not None:
            raise ValueError(f"{self.kind} space takes no dim")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def contains(self, j: int) -> bool:
        if self.kind == "l2Z":
            return True
        if self.kind == "l2N":
            return j >= 1
        return 1 <= j <= self.dim  # type: ignore[operator]

    def canonical_index(self, pos: int) -> int:
        """Logical index at enumeration position ``pos`` (0-based).

        l2N/finite enumerate 1, 2, ...; l2Z interleaves 0, -1, 1, -2, 2, ...
        """
        if self.kind != "l2Z":
            return pos + 1
        if pos == 0:
            return 0
        q, r = divmod(pos + 1, 2)
        return -q if r == 0 else q

    def canonical_position(self, j: int) -> int:
        if self.kind != "l2Z":
            return j - 1
        if j == 0:
            return 0
        return 2 * j if j > 0 else 2 * abs(j) - 1


def finite(dim: int) -> Space:
    return Space("finite", dim)


L2N = Space("l2N")
L2Z = Space("l2Z")


# ---------------------------------------------------------------------------
# weight rules


@dataclass(frozen=True)
class WeightRule:
    """Total weight function j -> w(j), with an optional index shift.

    Kinds: ``constant`` (c), ``reciprocal_index`` (1/max(|j|,1)),
    ``factorial_ratio`` (|j|!/|j-1|!), ``inverse_factorial`` (1/|j|!),
    ``index_plus_one`` (j+1), ``table`` (finite list with a default
    outside the stored range).
    """

    kind: str
    value: complex = 1.0
    values: tuple[complex, ...] = ()
    start: int = 1
    default: complex = 0.0
    shift: int = 0

    _KINDS = (
        "constant",
        "reciprocal_index",
        "factorial_ratio",
        "inverse_factorial",
        "index_plus_one",
        "table",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown weight rule {self.kind!r}")
        if not np.isfinite([self.value, self.default, *self.values]).all():
            raise ValueError("weight rule values must be finite")

    def _base(self, j: int) -> complex:
        if self.kind == "constant":
            return complex(self.value)
        if self.kind == "reciprocal_index":
            return 1.0 / max(abs(j), 1)
        if self.kind == "factorial_ratio":
            # |j|!/|j-1|! collapses to j for j >= 1, 1 at j = 0 and
            # 1/(|j|+1) for j <= -1; avoids forming large factorials.
            if j >= 1:
                return complex(j)
            if j == 0:
                return 1.0
            return 1.0 / (abs(j) + 1)
        if self.kind == "inverse_factorial":
            try:
                return 1.0 / math.factorial(abs(j))
            except OverflowError:
                return 0.0
        if self.kind == "index_plus_one":
            return complex(j + 1)
        # table
        k = j - self.start
        if 0 <= k < len(self.values):
            return complex(self.values[k])
        return complex(self.default)

    def __call__(self, j: int) -> complex:
        return self._base(j + self.shift)

    def shifted(self, s: int) -> "WeightRule":
        return replace(self, shift=self.shift + s)

    def conjugated(self) -> "WeightRule":
        """The complex-conjugate rule; kinds other than constant and table are real."""
        if self.kind in ("constant", "table"):
            return replace(
                self,
                value=complex(self.value).conjugate(),
                values=tuple(complex(v).conjugate() for v in self.values),
                default=complex(self.default).conjugate(),
            )
        return self


def constant_weight(c: complex) -> WeightRule:
    return WeightRule("constant", value=c)


# ---------------------------------------------------------------------------
# operators


class StructuredOperator(ABC):
    """Linear operator given by its (finitely supported) action on basis vectors."""

    space_in: Space
    space_out: Space

    @abstractmethod
    def apply_basis(self, j: int) -> SparseVec:
        """Exact action on e_j as a sparse vector."""

    @abstractmethod
    def adjoint(self) -> "StructuredOperator":
        """Structural adjoint (conjugate weights, reflected shifts, ...)."""

    def apply(self, v: SparseVec) -> SparseVec:
        try:
            store = self._store
        except AttributeError:
            store = self._store = {}
        support = tuple(v)
        try:
            images, plan = store[support]
        except KeyError:
            images = [self.apply_basis(j) for j in support]
            plan = coordinate_plan(images)
            store[support] = images, plan
        return vec_combine(images, list(v.values()), plan)

    def _check_index(self, j: int) -> None:
        if not self.space_in.contains(j):
            raise IndexError(f"index {j} outside {self.space_in}")


class Shift(StructuredOperator):
    """e_j -> w(j) e_{j+offset}; out-of-space targets are dropped."""

    def __init__(self, space: Space, offset: int, weights: WeightRule):
        self.space_in = self.space_out = space
        self.offset = offset
        self.weights = weights

    def apply_basis(self, j: int) -> SparseVec:
        self._check_index(j)
        t = j + self.offset
        if not self.space_out.contains(t):
            return {}
        w = self.weights(j)
        return {t: w} if w != 0 else {}

    def adjoint(self) -> "Shift":
        return Shift(
            self.space_in,
            -self.offset,
            self.weights.shifted(-self.offset).conjugated(),
        )


class Diagonal(Shift):
    """The shift by 0: e_j -> w(j) e_j."""

    def __init__(self, space: Space, weights: WeightRule):
        super().__init__(space, 0, weights)

    def adjoint(self) -> "Diagonal":
        return Diagonal(self.space_in, self.weights.conjugated())


class DenseBlock(StructuredOperator):
    """Dense matrix placed at an index window; zero elsewhere."""

    def __init__(
        self,
        space_in: Space,
        space_out: Space,
        matrix: np.ndarray,
        row_start: int = 1,
        col_start: int = 1,
    ):
        self.space_in = space_in
        self.space_out = space_out
        self.matrix = np.array(matrix, dtype=complex)
        self.matrix.flags.writeable = False
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        if not np.isfinite(self.matrix).all():
            raise ValueError("matrix entries must be finite")
        self.row_start = row_start
        self.col_start = col_start
        rows, cols = self.matrix.shape
        for j in (col_start, col_start + cols - 1):
            if not space_in.contains(j):
                raise ValueError("column window outside input space")
        for i in (row_start, row_start + rows - 1):
            if not space_out.contains(i):
                raise ValueError("row window outside output space")

    def apply_basis(self, j: int) -> SparseVec:
        self._check_index(j)
        k = j - self.col_start
        if not 0 <= k < self.matrix.shape[1]:
            return {}
        col = self.matrix[:, k].tolist()
        return {self.row_start + i: c for i, c in enumerate(col) if c != 0}

    def adjoint(self) -> "DenseBlock":
        return DenseBlock(
            self.space_out,
            self.space_in,
            self.matrix.conj().T,
            row_start=self.col_start,
            col_start=self.row_start,
        )


class Identity(StructuredOperator):
    def __init__(self, space: Space):
        self.space_in = self.space_out = space

    def apply_basis(self, j: int) -> SparseVec:
        self._check_index(j)
        return {j: 1.0}

    def adjoint(self) -> "Identity":
        return self


class Zero(StructuredOperator):
    def __init__(self, space_in: Space, space_out: Space | None = None):
        self.space_in = space_in
        self.space_out = space_out if space_out is not None else space_in

    def apply_basis(self, j: int) -> SparseVec:
        self._check_index(j)
        return {}

    def adjoint(self) -> "Zero":
        return Zero(self.space_out, self.space_in)


class Scale(StructuredOperator):
    def __init__(self, factor: complex, op: StructuredOperator):
        self.factor = complex(factor)
        if not np.isfinite(self.factor):
            raise ValueError("scale factor must be finite")
        self.op = op
        self.space_in = op.space_in
        self.space_out = op.space_out

    def apply_basis(self, j: int) -> SparseVec:
        return vec_scale(self.factor, self.op.apply_basis(j))

    def adjoint(self) -> "Scale":
        return Scale(self.factor.conjugate(), self.op.adjoint())


class Sum(StructuredOperator):
    def __init__(self, terms: list[StructuredOperator]):
        if not terms:
            raise ValueError("sum needs at least one term")
        first = terms[0]
        for t in terms[1:]:
            if t.space_in != first.space_in or t.space_out != first.space_out:
                raise ValueError("sum terms must share spaces")
        self.terms = tuple(terms)
        self.space_in = first.space_in
        self.space_out = first.space_out

    def apply_basis(self, j: int) -> SparseVec:
        return vec_add(*(t.apply_basis(j) for t in self.terms))

    def adjoint(self) -> "Sum":
        return Sum([t.adjoint() for t in self.terms])


class _SumIndexMap:
    """Re-indexing of a finite direct sum over a single combined index set.

    Finite summands occupy a concatenated prefix (in order); infinite
    summands are round-robin interleaved after the prefix, each enumerated
    in its canonical order (l2N: 1,2,...; l2Z: 0,-1,1,-2,2,...).  Mixing
    l2N and l2Z summands is rejected.
    """

    def __init__(self, spaces: list[Space]):
        kinds = {s.kind for s in spaces if not s.is_finite}
        if len(kinds) > 1:
            raise ValueError("cannot mix l2N and l2Z summands in a direct sum")
        self.spaces = spaces
        self.finite_ids = [i for i, s in enumerate(spaces) if s.is_finite]
        self.infinite_ids = [i for i, s in enumerate(spaces) if not s.is_finite]
        self.offsets = {}
        off = 0
        for i in self.finite_ids:
            self.offsets[i] = off
            off += spaces[i].dim  # type: ignore[operator]
        self.prefix = off
        self.combined = L2N if self.infinite_ids else finite(off)

    def decode(self, m: int) -> tuple[int, int]:
        """Combined index -> (summand position, local logical index)."""
        if m <= self.prefix:
            for i in self.finite_ids:
                d = self.spaces[i].dim  # type: ignore[assignment]
                if m <= self.offsets[i] + d:
                    return i, m - self.offsets[i]
        r = m - self.prefix - 1
        if r < 0 or not self.infinite_ids:
            raise IndexError(f"combined index {m} out of range")
        s = self.infinite_ids[r % len(self.infinite_ids)]
        pos = r // len(self.infinite_ids)
        return s, self.spaces[s].canonical_index(pos)

    def encode(self, s: int, j: int) -> int:
        if self.spaces[s].is_finite:
            return self.offsets[s] + j
        k = self.infinite_ids.index(s)
        pos = self.spaces[s].canonical_position(j)
        return self.prefix + pos * len(self.infinite_ids) + k + 1


class BlockDirectSum(StructuredOperator):
    """Orthogonal direct sum of finitely many operators, re-indexed over one space."""

    def __init__(self, ops: list[StructuredOperator]):
        if not ops:
            raise ValueError("direct sum needs at least one summand")
        self.ops = tuple(ops)
        self.map_in = _SumIndexMap([o.space_in for o in ops])
        self.map_out = _SumIndexMap([o.space_out for o in ops])
        self.space_in = self.map_in.combined
        self.space_out = self.map_out.combined

    def apply_basis(self, j: int) -> SparseVec:
        self._check_index(j)
        s, local = self.map_in.decode(j)
        img = self.ops[s].apply_basis(local)
        return {self.map_out.encode(s, i): c for i, c in img.items()}

    def adjoint(self) -> "BlockDirectSum":
        return BlockDirectSum([o.adjoint() for o in self.ops])


class RuleOperator(StructuredOperator):
    """Operator defined by an explicit basis-action rule (fixture plumbing).

    ``forward(j)`` returns the sparse image of e_j; ``adjoint_rule`` does
    the same for the adjoint.  Not JSON-serializable.
    """

    def __init__(self, space_in, space_out, forward, adjoint_rule):
        self.space_in = space_in
        self.space_out = space_out
        self._forward = forward
        self._adjoint_rule = adjoint_rule

    def apply_basis(self, j: int) -> SparseVec:
        self._check_index(j)
        return self._forward(j)

    def adjoint(self) -> "RuleOperator":
        return RuleOperator(self.space_out, self.space_in, self._adjoint_rule, self._forward)


# ---------------------------------------------------------------------------
# pencils


@dataclass(frozen=True)
class DHStructure:
    """Dissipative-Hamiltonian metadata for a pencil lambda*E - B*Q.

    ``B`` is the (intended) dissipative factor, ``Q`` the boundedly
    invertible one; the optional split B = J - R carries the
    anti-selfadjoint and nonnegative parts.  Verified at section level by
    :mod:`pencilkit.dh`, never assumed.
    """

    B: StructuredOperator
    Q: StructuredOperator
    J: StructuredOperator | None = None
    R: StructuredOperator | None = None

    @property
    def q_is_identity(self) -> bool:
        return isinstance(self.Q, Identity)

    @property
    def has_split(self) -> bool:
        return self.J is not None and self.R is not None


@dataclass(frozen=True)
class Pencil:
    """Operator pencil lambda*E - A with optional dH metadata."""

    E: StructuredOperator
    A: StructuredOperator
    dh: DHStructure | None = None

    def __post_init__(self) -> None:
        if self.E.space_in != self.A.space_in or self.E.space_out != self.A.space_out:
            raise ValueError("E and A must share input and output spaces")
        if self.dh is not None:
            d = self.dh
            for name, op in (("E", self.E), ("B", d.B), ("Q", d.Q), ("J", d.J), ("R", d.R)):
                if op is not None and not op.space_in == op.space_out == self.space_in:
                    raise ValueError(f"dH pencil: {name} must map {self.space_in} to itself")

    @property
    def space_in(self) -> Space:
        return self.E.space_in

    @property
    def space_out(self) -> Space:
        return self.E.space_out

    def reverse(self) -> "Pencil":
        """The pencil lambda*A - E; carries behaviour at infinity to 0."""
        return Pencil(E=self.A, A=self.E)

    def adjoint(self) -> "Pencil":
        return Pencil(E=self.E.adjoint(), A=self.A.adjoint())

    def evaluate_action(self, lam: complex, v: SparseVec) -> SparseVec:
        """(lam*E - A) v for finitely supported v."""
        out: SparseVec = {}
        vec_iadd(out, self.E.apply(v), lam)
        vec_iadd(out, self.A.apply(v), -1.0)
        return out


def direct_sum(pencils: list[Pencil]) -> Pencil:
    """Block direct sum of pencils with shared combined re-indexing."""
    if not pencils:
        raise ValueError("direct sum needs at least one pencil")
    return Pencil(
        E=BlockDirectSum([p.E for p in pencils]),
        A=BlockDirectSum([p.A for p in pencils]),
    )
