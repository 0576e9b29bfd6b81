"""Named example pencils with their expected verdicts and check suites.

Each fixture builds a deterministic pencil together with companion data:
expected witnesses, closed-form singular functions, polynomial sequences,
dH metadata, initial states, and caveat notes.  Its parameters and their
defaults are its builder's keyword arguments (random fixtures take a seed).
``run_fixture`` executes the fixture's full check suite and reports one
pass/fail line per expectation.

One registry entry, ``symmetric_not_sa_note``, is caveat-only: it
describes an operator with no faithful finite model and constructs nothing
numerical.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import approx, chains, dh, linalg, odae, sections, spectra
from .operators import (
    BlockDirectSum,
    DenseBlock,
    DHStructure,
    Diagonal,
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
    constant_weight,
    direct_sum,
    finite,
)
from .sparsevec import SparseVec, _fmt, basis_vec, vec_iadd, vec_norm, vec_sub

__all__ = [
    "CheckResult",
    "Fixture",
    "get_fixture",
    "fixture_names",
    "run_fixture",
    "verify_singular_function",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Fixture:
    """Registry entry: deterministic builder plus its check suite."""

    name: str
    description: str
    build: Callable[..., dict]
    checks: Callable[[dict], list[CheckResult]]
    caveat_only: bool = False

    @property
    def default_params(self) -> dict:
        """The builder's keyword arguments with their defaults."""
        params = inspect.signature(self.build).parameters.values()
        return {p.name: p.default for p in params if p.default is not p.empty}


# ---------------------------------------------------------------------------
# closed-form singular functions


@dataclass(frozen=True)
class SingularFunctionData:
    """Truncatable closed-form x(lam) with (lam E - A) x(lam) = 0.

    ``term(j)`` returns the coefficient vector of lam^j; ``index_range(N)``
    the truncation index set; ``tail_bound(lam, N)`` a convergent bound on
    the image of the discarded tail.  ``excluded`` lists points where the
    nonvanishing convention fails (the function is zero or undefined there).
    """

    term: Callable[[int], SparseVec]
    index_range: Callable[[int], list[int]]
    tail_bound: Callable[[complex, int], float]
    excluded: tuple[complex, ...]
    excluded_note: str

    def truncate(self, lam: complex, n: int) -> SparseVec:
        out: SparseVec = {}
        for j in self.index_range(n):
            vec_iadd(out, self.term(j), lam**j)
        return out


def verify_singular_function(
    data: dict, probes: list[complex], truncation: int
) -> list[dict]:
    """Residual of the truncated singular function against its tail bound.

    Raises ValueError for probes at excluded points; each row asserts
    residual <= tail_bound + 1e-12.
    """
    sf: SingularFunctionData = data["singular_function"]
    p: Pencil = data["pencil"]
    rows = []
    for lam in probes:
        lam = complex(lam)
        if any(abs(lam - z) < 1e-14 for z in sf.excluded):
            raise ValueError(
                f"probe {lam} is an excluded point: {sf.excluded_note}"
            )
        x = sf.truncate(lam, truncation)
        res = vec_norm(p.evaluate_action(lam, x))
        bound = sf.tail_bound(lam, truncation)
        rows.append(
            {
                "probe": lam,
                "residual": res,
                "tail_bound": bound,
                "ok": res <= bound + 1e-12,
            }
        )
    return rows


def _tail_sum(term: Callable[[int], float], n: int, total: float = 0.0) -> float:
    """total + sum_{j>n} term(j), stopped at a negligible term or after 500 terms."""
    for j in range(n + 1, n + 501):
        t = term(j)
        total += t
        if t < 1e-30 * max(total, 1.0):
            break
    return total


# ---------------------------------------------------------------------------
# individual fixture builders


def _build_kronecker_l(k: int = 2) -> dict:
    """Rectangular k x (k+1) block with E = [I 0] and A the right shift."""
    if k < 1:
        raise ValueError("k must be >= 1")
    e = np.zeros((k, k + 1))
    a = np.zeros((k, k + 1))
    for i in range(k):
        e[i, i] = 1.0
        a[i, i + 1] = 1.0
    p = Pencil(
        E=DenseBlock(finite(k + 1), finite(k), e),
        A=DenseBlock(finite(k + 1), finite(k), a),
    )
    return {"pencil": p}


def _check_kronecker_l(data: dict) -> list[CheckResult]:
    p = data["pencil"]
    k = p.space_out.dim
    s = sections.section(p, k + 1)
    out = []
    rep = chains.extract_right_chain(s)
    ok = rep is not None and rep.minimal_index == k
    out.append(
        CheckResult(
            "right chain has minimal index k",
            ok,
            f"minimal_index={'none' if rep is None else rep.minimal_index} expected {k}",
        )
    )
    if rep is not None:
        poly = chains.chain_to_polynomial(rep)
        res = chains.verify_singular_polynomial(p, poly, side="right")
        out.append(
            CheckResult(
                "chain polynomial annihilates the pencil",
                res <= 1e-12,
                f"max residual {_fmt(res)} <= 1e-12",
            )
        )
    grid = spectra.spectra_grid(s, (-1.0, 1.0, -1.0, 1.0), (3, 3))
    worst = max(pc.sigma_min for pc in grid)
    out.append(
        CheckResult(
            "sigma_min vanishes on the whole grid (no regular points)",
            worst <= 1e-12,
            f"max sigma_min over grid {_fmt(worst)}",
        )
    )
    return out


def _dense_dh_pencil(e: np.ndarray, j: np.ndarray, r: np.ndarray) -> Pencil:
    """Dense pencil lambda E - (J - R) on finite(dim) with dH data B = J - R, Q = I."""
    b = j - r
    sp = finite(e.shape[0])
    E, A, B, J, R = (DenseBlock(sp, sp, m) for m in (e, b, b, j, r))
    return Pencil(E=E, A=A, dh=DHStructure(B=B, Q=Identity(sp), J=J, R=R))


def _build_stokes_skeleton() -> dict:
    """Finite algebraic toy of the incompressible-flow block structure.

    E keeps velocity only; J couples a discrete gradient G (row sums zero,
    so constant pressure is in its kernel) with its negative transpose; R
    damps velocity with an SPD matrix.  The constant-pressure direction
    spans ker E intersect ker(J - R).
    """
    m, np_ = 4, 3  # velocity and pressure unknowns
    g = np.zeros((m, np_))
    for i in range(m):
        g[i, i % np_] = 1.0
        g[i, (i + 1) % np_] = -1.0
    lap = 2.0 * np.eye(m)
    for i in range(m - 1):
        lap[i, i + 1] = lap[i + 1, i] = -1.0
    d = m + np_
    e = np.zeros((d, d))
    e[:m, :m] = np.eye(m)
    j = np.zeros((d, d))
    j[:m, m:] = -g
    j[m:, :m] = g.T
    r = np.zeros((d, d))
    r[:m, :m] = lap
    pencil = _dense_dh_pencil(e, j, r)
    kernel_dir = np.zeros(d)
    kernel_dir[m:] = 1.0 / math.sqrt(np_)
    return {"pencil": pencil, "kernel_direction": kernel_dir, "dim": d}


def _structure_check(diag: dh.DHDiagnostics) -> CheckResult:
    return CheckResult(
        "structure conditions hold",
        diag.structure_ok,
        "failures: " + (", ".join(diag.failures()) or "none"),
    )


def _check_stokes_skeleton(data: dict) -> list[CheckResult]:
    p = data["pencil"]
    rep = dh.dh_classify(sections.section(p, data["dim"]), p.dh)
    out = [_structure_check(rep.diagnostics)]
    kdim = rep.common_kernel_dim
    out.append(CheckResult("common kernel is one-dimensional", kdim == 1, f"dim={kdim}"))
    if kdim >= 1:
        angle = dh.subspace_angle(
            rep.kernel_basis[:, :1], data["kernel_direction"].reshape(-1, 1)
        )
        out.append(
            CheckResult(
                "kernel is the constant-pressure direction",
                angle <= 1e-8,
                f"subspace angle {_fmt(angle)}",
            )
        )
    out.append(
        CheckResult(
            "classification is point_singular",
            rep.classification == "point_singular",
            rep.classification,
        )
    )
    return out


def _poro_blocks(rng: np.random.Generator, d: int, singular_pressure: bool):
    def spd() -> np.ndarray:
        m = rng.standard_normal((d, d))
        return m @ m.T + d * np.eye(d)

    y, a0, m_ = spd(), spd(), spd()
    k = spd()
    dd = rng.standard_normal((d, d))
    p0 = None
    if singular_pressure:
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        proj = np.eye(d) - np.outer(v, v)
        m_ = proj @ m_ @ proj
        k = proj @ k @ proj
        dd = proj @ dd  # v leaves the row space of D, so D* v = 0
        p0 = v
    return y, a0, m_, k, dd, p0


def _build_poroelasticity(seed: int = 0, d: int = 3, singular_pressure: bool = False) -> dict:
    """Three-field template: E = blockdiag(Y, A0, M), B = J - R.

    Y, A0, M are SPD (M projected to be singular in the
    ``singular_pressure`` variant, with the coupling D and damping K
    annihilating the same pressure direction).
    """
    rng = np.random.default_rng(seed)
    y, a0, m_, k, dd, p0 = _poro_blocks(rng, d, singular_pressure)
    n = 3 * d
    e = np.zeros((n, n))
    for i, blk in enumerate((y, a0, m_)):
        e[i * d : (i + 1) * d, i * d : (i + 1) * d] = blk
    j = np.zeros((n, n))
    j[:d, d : 2 * d] = -a0
    j[d : 2 * d, :d] = a0
    j[:d, 2 * d :] = dd.T
    j[2 * d :, :d] = -dd
    r = np.zeros((n, n))
    r[2 * d :, 2 * d :] = k
    pencil = _dense_dh_pencil(e, j, r)
    x0 = np.cos(np.arange(n, dtype=float) + 1.0)
    out = {"pencil": pencil, "dim": n, "E_mat": e, "B_mat": j - r, "x0": x0}
    if p0 is not None:
        kv = np.zeros(n)
        kv[2 * d :] = p0
        out["kernel_vector"] = kv
    return out


def integrator_trajectory(data: dict, t_grid: np.ndarray, x0: np.ndarray) -> odae.Trajectory:
    """Exact flow x(t) = expm((t - t0) E^-1 B) x0 of E x' = B x for a finite dH fixture.

    The trajectory carries a state function but no term-wise integral, so
    mild residuals of it are computed by adaptive Simpson quadrature.  Its
    batch form ``state_fn.many`` takes the samples, then each Simpson pass, in
    one ``expm`` of the stack of its unseen times: each distinct time once.
    """
    gen = linalg.solve(data["E_mat"], data["B_mat"])
    t0 = float(t_grid[0])
    seen: dict[float, SparseVec] = {}

    def many(times) -> list[SparseVec]:
        fresh = [t for t in dict.fromkeys(times) if t not in seen]
        if fresh:
            arrs = linalg.expm(np.multiply.outer(np.subtract(fresh, t0), gen)) @ x0
            for t, arr in zip(fresh, arrs.tolist()):
                seen[t] = {i + 1: complex(c) for i, c in enumerate(arr) if c != 0}
        return [seen[t] for t in times]

    def state_fn(t: float) -> SparseVec:
        return many([t])[0]

    state_fn.many = many
    times = np.asarray(t_grid, dtype=float)
    many(times.tolist())
    return odae.Trajectory(times=times, state_fn=state_fn)


def _check_poroelasticity(data: dict) -> list[CheckResult]:
    p = data["pencil"]
    s = sections.section(p, data["dim"])
    if "kernel_vector" in data:
        out = [_structure_check(dh.verify_dh_structure(dh.dh_section_mats(s, p.dh)))]
        rep = chains.extract_right_chain(s)
        ok = rep is not None and rep.minimal_index == 0
        detail = "no chain" if rep is None else f"minimal_index={rep.minimal_index}"
        out.append(CheckResult("constant singular polynomial exists", ok, detail))
        if rep is not None:
            basis = np.array([rep.chain[0]]).T
            angle = dh.subspace_angle(basis, data["kernel_vector"].reshape(-1, 1) + 0j)
            out.append(
                CheckResult(
                    "kernel lies in the pressure block",
                    angle <= 1e-6,
                    f"subspace angle {_fmt(angle)}",
                )
            )
    else:
        rep = dh.dh_classify(s, p.dh)
        out = [_structure_check(rep.diagnostics)]
        out.append(
            CheckResult(
                "classification is regular_candidate",
                rep.classification == "regular_candidate",
                rep.classification,
            )
        )
        evals = linalg.eigvals(s.A_mat, s.E_mat)
        worst = float(np.max(evals.real))
        out.append(
            CheckResult(
                "generalized eigenvalues avoid the right half plane",
                worst <= 1e-8 * s.norm("A"),
                f"max Re eigenvalue {_fmt(worst)}",
            )
        )
        traj = integrator_trajectory(data, np.linspace(0.0, 1.0, 6), data["x0"])
        res, ham = odae.power_balance_residual(p, traj)
        out.append(
            CheckResult(
                "power balance residual small",
                float(res.max()) <= 1e-6,
                f"max residual {_fmt(float(res.max()))} <= 1e-6",
            )
        )
        drift = float(np.max(np.diff(ham)))
        out.append(
            CheckResult(
                "Hamiltonian nonincreasing",
                drift <= 1e-8,
                f"max increase {_fmt(drift)}",
            )
        )
    return out


def _build_mult_by_e() -> dict:
    """Pencil lam*E - E with E = diag(1/j): 0 approximates but never reaches the kernel."""
    e = Diagonal(L2N, WeightRule("reciprocal_index"))
    return {"pencil": Pencil(E=e, A=e)}


def _check_mult_by_e(data: dict) -> list[CheckResult]:
    p = data["pencil"]
    out = []
    vals = []
    for n in (4, 8, 16):
        s = sections.section(p, n)
        pc = spectra.classify_point(s, 2.0)
        vals.append(pc.sigma_min)
        ok = abs(pc.sigma_min - 1.0 / n) <= 1e-14
        out.append(
            CheckResult(
                f"sigma_min at lam=2 equals 1/n for n={n}",
                ok,
                f"sigma_min {_fmt(pc.sigma_min)} vs 1/n {_fmt(1.0 / n)}",
            )
        )
    out.append(
        CheckResult(
            "no exact kernel at lam=2 but sigma_min decreases to 0",
            all(v > 0 for v in vals) and vals == sorted(vals, reverse=True),
            "values " + ", ".join(_fmt(v) for v in vals),
        )
    )
    return out


_SYMMETRIC_NOT_SA_CAVEAT = (
    "This entry records a symmetric-but-not-selfadjoint construction whose "
    "spectrum is the whole plane while its approximate spectrum is not.  No "
    "finite section represents it faithfully (finite Hermitian compressions "
    "are selfadjoint), so nothing numerical is built."
)


def _build_symmetric_not_sa_note() -> dict:
    return {"caveat": _SYMMETRIC_NOT_SA_CAVEAT}


def _check_caveat_only(data: dict) -> list[CheckResult]:
    return [CheckResult("caveat-only entry", True, data["caveat"])]


def _build_shift_adjoint_sum() -> dict:
    """Direct sum of shifted backward-shift blocks plus a (0, 1) tail block.

    Each summand lam*I - (S* + alpha) has point spectrum alpha + open unit
    disc; the union over the finite alpha list stands in for the covering
    family.  The tail block makes infinity a point singularity.
    """
    alphas = (0.0, 0.5 + 0.5j, -1.0)
    blocks_e = [Identity(L2N) for _ in alphas] + [Zero(finite(1))]
    blocks_a = [
        Sum([Shift(L2N, -1, constant_weight(1.0)), Scale(a, Identity(L2N))])
        for a in alphas
    ]
    p = Pencil(E=BlockDirectSum(blocks_e), A=BlockDirectSum(blocks_a + [Identity(finite(1))]))
    return {"pencil": p, "alphas": tuple(complex(a) for a in alphas), "blocks": blocks_a}


def _check_shift_adjoint_sum(data: dict) -> list[CheckResult]:
    out = []
    w = sections.window_for(L2N, 12)
    for a, block in zip(data["alphas"], data["blocks"]):
        mat = sections.operator_matrix(block, w, w)
        evals = linalg.standard_eigvals(mat)
        worst = float(np.max(np.abs(evals - a)))
        out.append(
            CheckResult(
                f"section eigenvalues stay in alpha + unit disc (alpha={a})",
                worst <= 1.0 + 1e-10,
                f"max |eig - alpha| {_fmt(worst)}",
            )
        )
    s = sections.section(data["pencil"], 8)
    pc = spectra.classify_point(s, spectra.INFINITY)
    out.append(
        CheckResult(
            "infinity is a point singularity (tail block)",
            pc.verdict == "point_singular",
            pc.verdict,
        )
    )
    return out


def _build_backward_shift_diag() -> dict:
    """E = diag(1/j), A = backward shift; x(lam) = sum lam^j/(j-1)! e_j annihilates."""
    p = Pencil(
        E=Diagonal(L2N, WeightRule("reciprocal_index")),
        A=Shift(L2N, -1, constant_weight(1.0)),
    )

    def term(j: int) -> SparseVec:
        return basis_vec(j, 1.0 / math.factorial(j - 1))

    def tail_bound(lam: complex, n: int) -> float:
        # image of the discarded tail: sum_{j>N} (|lam|^{j+1}/j! + |lam|^j/(j-1)!)
        r = abs(lam)
        return _tail_sum(
            lambda j: r ** (j + 1) / math.factorial(j) + r**j / math.factorial(j - 1), n
        )

    sf = SingularFunctionData(
        term=term,
        index_range=lambda n: list(range(1, n + 1)),
        tail_bound=tail_bound,
        excluded=(0.0,),
        excluded_note="the series has no constant term, so x(0) = 0",
    )
    return {"pencil": p, "singular_function": sf}


def _check_backward_shift_diag(data: dict) -> list[CheckResult]:
    out = []
    rows = verify_singular_function(data, [1.0], truncation=25)
    row = rows[0]
    out.append(
        CheckResult(
            "truncated singular function residual under the tail bound",
            row["ok"] and row["residual"] <= 1.0 / math.factorial(24) + 1e-12,
            f"residual {_fmt(row['residual'])}, tail bound {_fmt(row['tail_bound'])}",
        )
    )
    try:
        verify_singular_function(data, [0.0], truncation=10)
        out.append(CheckResult("probe at 0 is excluded", False, "no exclusion raised"))
    except ValueError as exc:
        out.append(CheckResult("probe at 0 is excluded", True, str(exc)))
    return out


def _build_bilateral_weighted() -> dict:
    """lam*I - A on the two-sided space, A e_j = (|j|!/|j-1|!) e_{j-1}.

    The Laurent series x(lam) = sum lam^j/|j|! e_j annihilates the pencil
    away from 0; no analogous function exists for the reversal, which is
    exactly why 'has a singular function' fails as a singularity notion.
    """
    p = Pencil(
        E=Identity(L2Z),
        A=Shift(L2Z, -1, WeightRule("factorial_ratio")),
    )

    def term(j: int) -> SparseVec:
        return basis_vec(j, 1.0 / math.factorial(abs(j)))

    def tail_bound(lam: complex, n: int) -> float:
        r = abs(lam)
        total = 0.0
        for sign in (1, -1):
            total = _tail_sum(
                lambda j: r ** (sign * j) * r / math.factorial(j)
                + r ** (sign * j) / math.factorial(j - 1),
                n,
                total,
            )
        return total

    sf = SingularFunctionData(
        term=term,
        index_range=lambda n: list(range(-n, n + 1)),
        tail_bound=tail_bound,
        excluded=(0.0,),
        excluded_note="the Laurent series diverges at 0",
    )
    return {
        "pencil": p,
        "singular_function": sf,
        "notes": (
            "the reversal pencil has no singular function of this form; "
            "singular functions do not survive reversal",
        ),
    }


def _check_bilateral_weighted(data: dict) -> list[CheckResult]:
    p = data["pencil"]
    out = []
    # oracle: literal factorial-ratio table for |j| <= 10
    worst = 0.0
    for j in range(-10, 11):
        img = p.A.apply_basis(j)
        w = img.get(j - 1, 0.0)
        lit = math.factorial(abs(j)) / math.factorial(abs(j - 1))
        worst = max(worst, abs(w - lit))
    out.append(
        CheckResult(
            "weights match the literal factorial ratio for |j| <= 10",
            worst <= 1e-15,
            f"max deviation {_fmt(worst)}",
        )
    )
    rows = verify_singular_function(data, [2.0], truncation=20)
    out.append(
        CheckResult(
            "two-sided truncation residual under the tail bound",
            rows[0]["ok"],
            f"residual {_fmt(rows[0]['residual'])}, bound {_fmt(rows[0]['tail_bound'])}",
        )
    )
    return out


def _build_non4_sum() -> dict:
    """(lam*I - A) + (lam*A - I) as a direct sum, A the two-sided weighted shift.

    The first summand has a singular function, the second one's reversal
    does; neither property survives on the orthogonal sum as a whole.
    """
    a = Shift(L2Z, -1, WeightRule("factorial_ratio"))
    summands = (Pencil(E=Identity(L2Z), A=a), Pencil(E=a, A=Identity(L2Z)))
    return {"pencil": direct_sum(summands), "summands": summands}


def _check_non4_sum(data: dict) -> list[CheckResult]:
    s1 = sections.section(data["summands"][0], 5)
    s2 = sections.section(data["summands"][1], 5)
    sv1 = float(linalg.svdvals(s1.evaluate(0.0))[-1])
    sv2 = float(linalg.svdvals(s2.evaluate(0.0))[-1])
    return [
        CheckResult(
            "first summand section is singular at lam=0",
            sv1 <= 1e-12,
            f"sigma_min {_fmt(sv1)}",
        ),
        CheckResult(
            "second summand section is regular at lam=0",
            sv2 >= 0.5,
            f"sigma_min {_fmt(sv2)}",
        ),
    ]


def _build_diag_reciprocal() -> dict:
    """E = A = diag(1, 1/2, 1/3, ...): approximate joint kernel, unique ODAE flow.

    The dissipative companion replaces A by BQ = -E (B = -identity,
    Q = diag(1/j), invertible on every window): it shares E, Q*E = diag(1/j^2)
    and the kernel structure, so the uniqueness criterion
    ker E intersect ker(BQ) = {0} is checked on the structured object.
    The e^t flow itself solves the unstructured pencil's equation.
    """
    e = Diagonal(L2N, WeightRule("reciprocal_index"))
    main = Pencil(E=e, A=e)
    b = Scale(-1.0, Identity(L2N))
    companion = Pencil(E=e, A=Scale(-1.0, e), dh=DHStructure(B=b, Q=e))
    return {"pencil": main, "dh_pencil": companion}


def _exp_trajectory(t_grid: np.ndarray) -> odae.Trajectory:
    """Closed form x(t) = e^t e_1 with its exact time integral."""
    return odae.Trajectory(
        times=np.asarray(t_grid, dtype=float),
        state_fn=lambda t: {1: math.exp(t)},
        integral_fn=lambda t: {1: math.exp(t) - 1.0} if t != 0 else {},
    )


def _check_diag_reciprocal(data: dict) -> list[CheckResult]:
    p = data["pencil"]
    out = []
    s3 = sections.section(p, 3)
    ok = np.allclose(s3.E_mat, np.diag([1.0, 0.5, 1.0 / 3.0])) and np.allclose(
        s3.E_mat, s3.A_mat
    )
    out.append(CheckResult("section n=3 is diag(1, 1/2, 1/3) twice", ok, "exact"))
    vals = []
    for n in (2, 4, 8, 16):
        cert = sections.distance_to_singularity_bound(sections.section(p, n))
        vals.append(cert.value)
        out.append(
            CheckResult(
                f"stacked sigma_min = sqrt(2)/n at n={n}",
                abs(cert.value - math.sqrt(2.0) / n) <= 1e-13,
                f"value {_fmt(cert.value)}",
            )
        )
    out.append(
        CheckResult(
            "certificate decreases towards 0 (approximate-singularity evidence)",
            vals == sorted(vals, reverse=True),
            ", ".join(_fmt(v) for v in vals),
        )
    )
    dp = data["dh_pencil"]
    s = sections.section(dp, 32)
    rep = dh.dh_classify(s, dp.dh, tol_ap=0.1)
    out.append(
        CheckResult(
            "dissipative companion shows approximate-singularity evidence "
            "(window-scaled tolerance 0.1)",
            rep.classification == "approx_singular_evidence",
            f"{rep.classification}, stacked sigma_min {_fmt(rep.stacked_sigma_min)}",
        )
    )
    urep = odae.uniqueness_demo(dp, {}, np.linspace(0.0, 1.0, 5), n=8)
    out.append(
        CheckResult(
            "uniqueness certificate with positive margin",
            urep.unique and urep.margin > 0,
            f"kernel dim {urep.kernel_dim}, margin {_fmt(urep.margin)}",
        )
    )
    traj = _exp_trajectory(np.linspace(0.0, 1.0, 5))
    res = odae.mild_residual(p, traj)
    out.append(
        CheckResult(
            "closed-form flow e^t x0 is a mild solution",
            float(res.max()) <= 1e-10,
            f"max mild residual {_fmt(float(res.max()))}",
        )
    )
    return out


# --- approxchain family -----------------------------------------------------


def _approxchain_ops(alpha: Callable[[int], float], scale: Callable[[int], float]):
    """Block operators on the concatenated space; block n occupies 2n+1 indices.

    Within block n (local indices 1..2n+1, global offset n^2 - 1):
    A: 1 -> alpha*1, 1+j -> n+1+j (j=1..n), n+1+j -> 1+j;
    E: j -> n+1+j (j=1..n), n+1 -> alpha*(n+1), n+1+j -> j.
    Both are real symmetric, so they are their own adjoints.
    """

    def locate(i: int) -> tuple[int, int]:
        n = math.isqrt(i)
        return n, i - n * n + 1

    def glob(n: int, j: int) -> int:
        return n * n + j - 1

    def a_rule(i: int) -> SparseVec:
        n, j = locate(i)
        c = scale(n)
        if j == 1:
            return basis_vec(i, alpha(n) * c)
        if 2 <= j <= n + 1:
            return basis_vec(glob(n, n + j), c)
        return basis_vec(glob(n, j - n), c)

    def e_rule(i: int) -> SparseVec:
        n, j = locate(i)
        c = scale(n)
        if j <= n:
            return basis_vec(glob(n, n + 1 + j), c)
        if j == n + 1:
            return basis_vec(i, alpha(n) * c)
        return basis_vec(glob(n, j - n - 1), c)

    e = RuleOperator(L2N, L2N, e_rule, e_rule)
    a = RuleOperator(L2N, L2N, a_rule, a_rule)
    return e, a, glob


def _build_approxchain() -> dict:
    """Orthogonal sum of (2n+1)-blocks coupling two shift chains via alpha_n.

    With alpha_n = 1/(n+1)! the block polynomials p_n(lam) = sum lam^j e_{j+1}
    form a right approximate polynomial sequence with orthonormal
    coefficients (Gram matrices are identities).
    """
    alpha = lambda n: 1.0 / math.factorial(n + 1)
    e, a, glob = _approxchain_ops(alpha, lambda n: 1.0)

    def gen(n: int) -> chains.VectorPolynomial:
        coeffs = [basis_vec(glob(n, j + 1)) for j in range(n + 1)]
        return chains.VectorPolynomial(coeffs)

    return {"pencil": Pencil(E=e, A=a), "alpha": alpha, "sequence": approx.PolynomialSequence(gen)}


def _check_approxchain(data: dict) -> list[CheckResult]:
    p, alpha, seq = data["pencil"], data["alpha"], data["sequence"]
    probes = [0.0, 1.0, -1.0, 1.0 + 1.0j]
    rows = approx.sequence_residuals(p, seq, probes, range(1, 7))
    worst = 0.0
    for row in rows:
        expect = alpha(row.n) * math.sqrt(1.0 + abs(row.probe) ** (2 * (row.n + 1)))
        worst = max(
            worst,
            abs(row.forward - expect) / max(expect, 1e-300),
            abs(row.reverse - expect) / max(expect, 1e-300),
        )
    out = [
        CheckResult(
            "residuals match alpha_n*sqrt(1+|lam|^(2(n+1))) both ways",
            worst <= 1e-12,
            f"max relative deviation {_fmt(worst)}",
        )
    ]
    g = approx.gram_lower_bound(seq, range(1, 7))
    ident = all(np.allclose(m, np.eye(m.shape[0])) for m in g.grams)
    out.append(
        CheckResult(
            "Gram matrices are identities with xi = 1",
            ident and g.xi == 1.0,
            f"xi {_fmt(g.xi)}",
        )
    )
    return out


def _build_rescaled_approxchain() -> dict:
    """1/n-scaled variant: the first basis vectors alone already witness.

    E e_1 and A e_1 both have norm 1/n inside block n, so the constant
    polynomials e_1^(n) form a right approximate polynomial sequence of
    degree zero - chain length is not intrinsic.
    """
    e, a, glob = _approxchain_ops(lambda n: 1.0, lambda n: 1.0 / n)
    p = Pencil(E=e, A=a)
    seq = approx.approx_kernel_sequence(lambda n: basis_vec(glob(n, 1)))
    return {"pencil": p, "sequence": seq}


def _check_rescaled_approxchain(data: dict) -> list[CheckResult]:
    p, seq = data["pencil"], data["sequence"]
    probes = [0.0, 1.0, 2.0j]
    rows = approx.sequence_residuals(p, seq, probes, [4, 8, 16, 32])
    worst = 0.0
    for row in rows:
        expect = math.sqrt(1.0 + abs(row.probe) ** 2) / row.n
        worst = max(worst, abs(row.forward - expect))
    out = [
        CheckResult(
            "constant-witness residuals equal sqrt(1+|lam|^2)/n",
            worst <= 1e-14,
            f"max deviation {_fmt(worst)}",
        )
    ]
    g = approx.gram_lower_bound(seq, [4, 8, 16, 32])
    out.append(
        CheckResult(
            "degree-zero Gram matrices are [1]",
            g.xi == 1.0 and all(m.shape == (1, 1) for m in g.grams),
            f"xi {_fmt(g.xi)}",
        )
    )
    return out


def _build_gram_counterexample() -> dict:
    """Root-free polynomial whose coefficient Gram matrix is singular."""
    poly = chains.VectorPolynomial([basis_vec(1), basis_vec(2), basis_vec(2), basis_vec(3)])
    seq = approx.PolynomialSequence(generator=lambda n: poly)
    return {"polynomial": poly, "sequence": seq}


def _check_gram_counterexample(data: dict) -> list[CheckResult]:
    g = approx.gram_lower_bound(data["sequence"], [1])
    lmin = g.lambda_min[0]
    grid = [np.exp(2j * np.pi * k / 64) for k in range(64)]
    ok_roots = chains.polynomial_roots_check(data["polynomial"], grid)
    reduced = chains.reduce_polynomial(data["polynomial"])
    poly = data["polynomial"]
    same = len(reduced.coeffs) == len(poly.coeffs) and all(
        vec_norm(vec_sub(a, b)) <= 1e-12
        for a, b in zip(reduced.coeffs, poly.coeffs)
    )
    return [
        CheckResult(
            "Gram matrix is singular", abs(lmin) <= 1e-14, f"lambda_min {_fmt(lmin)}"
        ),
        CheckResult("root-free on a 64-point circle grid", ok_roots, "no near-roots"),
        CheckResult(
            "reduction leaves the root-free polynomial unchanged",
            same,
            "coefficients agree to 1e-12",
        ),
    ]


def _build_revdegenerate() -> dict:
    """p_n = e_1 + (lam^n/n!) e_2: values stay away from 0, reversals do not."""

    def gen(n: int) -> chains.VectorPolynomial:
        coeffs = [basis_vec(1)] + [{} for _ in range(n - 1)] + [
            basis_vec(2, 1.0 / math.factorial(n))
        ]
        return chains.VectorPolynomial(coeffs)

    return {"sequence": approx.PolynomialSequence(generator=gen)}


def _check_revdegenerate(data: dict) -> list[CheckResult]:
    seq = data["sequence"]
    p8 = seq(8)
    grid = [np.exp(2j * np.pi * k / 32) for k in range(32)] + [0.5]
    fwd_ok = all(vec_norm(p8.evaluate(z)) >= 1.0 for z in grid)
    rev_val = vec_norm(p8.reversal().evaluate(0.5))
    expect = math.sqrt(2.0 ** -16 + (1.0 / math.factorial(8)) ** 2)
    both = chains.polynomial_roots_check(p8, [0.5])
    return [
        CheckResult(
            "values bounded below by the constant coefficient",
            fwd_ok,
            "min over grid >= 1",
        ),
        CheckResult(
            "reversal value collapses at lam=1/2",
            abs(rev_val - expect) <= 1e-15 and rev_val < 0.01,
            f"|rev p_8(1/2)| = {_fmt(rev_val)}",
        ),
        CheckResult(
            "combined roots check fails through the reversal",
            not both,
            "polynomial_roots_check(p_8, [1/2]) is False",
        ),
    ]


def _build_facfac() -> dict:
    """E lowers the basis index, A = diag(k+1); a_k = k! e_k generates the series.

    A is invertible, so the pencil has no singular polynomials at all - yet
    the homogeneous equation has the nonzero factorial-series solution.
    """
    p = Pencil(
        E=Shift(L2N, -1, constant_weight(1.0)),
        A=Diagonal(L2N, WeightRule("index_plus_one")),
    )
    gen = odae.ChainGenerator(
        rule=lambda k: basis_vec(k, float(math.factorial(k))), c=1.0, n0=3
    )
    return {"pencil": p, "generator": gen}


def _check_facfac(data: dict) -> list[CheckResult]:
    p, gen = data["pencil"], data["generator"]
    out = []
    try:
        gen.validate(p, 12)
        out.append(CheckResult("links and growth certificate validate", True, "k <= 12"))
    except ValueError as exc:
        out.append(CheckResult("links and growth certificate validate", False, str(exc)))
    m = 10
    t0 = 0.05
    traj = odae.series_solution(p, gen, [0.0, t0], order=m)
    big = odae.series_solution(p, gen, [t0], order=2 * m)
    # the links telescope, leaving only -A a_M t^M/M!, of norm (M+1) t^M
    oracle = (m + 1) * t0**m
    dev = abs(float(traj.residual_classical[1]) - oracle) / oracle
    out.append(
        CheckResult(
            "series residual matches the telescoped closed form (M+1) t^M",
            dev <= 1e-12 and traj.residual_classical[0] == 0.0,
            f"residual {_fmt(float(traj.residual_classical[1]))}, relative deviation {_fmt(dev)}",
        )
    )
    out.append(
        CheckResult(
            "doubling the order shrinks the residual",
            float(big.residual_classical[0]) < float(traj.residual_classical[1]),
            f"order-{2*m} residual {_fmt(float(big.residual_classical[0]))}",
        )
    )
    rep = chains.extract_right_chain(sections.section(p, 8))
    out.append(
        CheckResult(
            "no singular chain (A invertible)",
            rep is None,
            "regular sections, nonunique flow regardless",
        )
    )
    return out


def _build_shift_identity() -> dict:
    """E backward shift, A = I: nonuniqueness from the factorial series.

    a_k = e_k has all relevant norms equal to 1, so any growth constant c
    works; c = 0.1 certifies the radius 1/(0.1 e) ~ 3.68, comfortably
    covering t = 1.  The inhomogeneous initial value g(0) = e_1 also admits
    solutions, each shiftable by multiples of the homogeneous series.
    """
    p = Pencil(E=Shift(L2N, -1, constant_weight(1.0)), A=Identity(L2N))
    gen = odae.ChainGenerator(rule=lambda k: basis_vec(k), c=0.1, n0=1)
    return {
        "pencil": p,
        "generator": gen,
        "notes": (
            "g(0) = e_1 admits the family g(t) = e_1 + sum_{k>=2} "
            "t^(k-1)/(k-1)! e_k + alpha*f(t): nonzero initial values "
            "inherit the nonuniqueness",
        ),
    }


def _check_shift_identity(data: dict) -> list[CheckResult]:
    p, gen = data["pencil"], data["generator"]
    out = []
    for m, t in ((10, 1.0), (15, 1.0)):
        traj = odae.series_solution(p, gen, [0.0, t], order=m)
        expect = t**m / math.factorial(m)
        dev = abs(float(traj.residual_classical[1]) - expect) / expect
        out.append(
            CheckResult(
                f"classical residual at t=1 is 1/{m}! for order {m}",
                dev <= 1e-10 and not traj.states[0],
                f"residual {_fmt(float(traj.residual_classical[1]))}, f(0) = 0",
            )
        )
    norm1 = vec_norm(traj.states[1])  # traj is the loop's last: order 15 on [0, 1]
    out.append(
        CheckResult(
            "the nonzero solution has substantial norm at t=1",
            norm1 >= 1.0,
            f"||f(1)|| = {_fmt(norm1)}",
        )
    )
    mres = odae.mild_residual(p, traj)
    out.append(
        CheckResult(
            "series trajectory is mild up to the truncation error",
            float(mres.max()) <= 1e-6,
            f"max mild residual {_fmt(float(mres.max()))}",
        )
    )
    try:
        odae.uniqueness_demo(p, {}, [0.0, 1.0])
        out.append(CheckResult("uniqueness_demo refuses (not dH)", False, "no error"))
    except ValueError as exc:
        out.append(CheckResult("uniqueness_demo refuses (not dH)", True, str(exc)))
    return out


def _build_bilateral_shift() -> dict:
    """lam*T - T for the two-sided shift: regular object, singular sections.

    T is unitary, so the only singular point of the pencil is 1; yet every
    symmetric window maps its last basis vector outside itself, so all
    sections are singular.  A standing caveat marks every verdict.
    """
    t = Shift(L2Z, 1, constant_weight(1.0))
    p = Pencil(E=t, A=t)
    return {
        "pencil": p,
        "notes": (
            "section-artifact: the window kernel vector e_n is an artifact "
            "of truncation; the infinite pencil is singular only at lam = 1",
        ),
    }


def _check_bilateral_shift(data: dict) -> list[CheckResult]:
    p = data["pencil"]
    out = []
    for n in (2, 5):
        s = sections.section(p, n)
        cert = sections.distance_to_singularity_bound(s)
        out.append(
            CheckResult(
                f"stacked certificate is 0 at window n={n}",
                cert.value <= 1e-12,
                f"value {_fmt(cert.value)} (caveat: {data['notes'][0][:20]}...)",
            )
        )
    s = sections.section(p, 4)
    kernel_col = s.window_in.position(4)  # logical index n maps outside the window
    col_norm = float(
        np.linalg.norm(s.E_mat[:, kernel_col]) + np.linalg.norm(s.A_mat[:, kernel_col])
    )
    out.append(
        CheckResult(
            "the out-shifted edge vector spans the section kernel",
            col_norm == 0.0,
            "columns of e_n vanish in both matrices",
        )
    )
    return out


# ---------------------------------------------------------------------------
# registry


REGISTRY: dict[str, Fixture] = {
    f.name: f
    for f in [
        Fixture(
            "kronecker_L",
            "rectangular shift block: the canonical pencil with a right singular chain",
            _build_kronecker_l,
            _check_kronecker_l,
        ),
        Fixture(
            "stokes_skeleton",
            "algebraic toy of the incompressible-flow block structure; "
            "constant pressure spans the common kernel",
            _build_stokes_skeleton,
            _check_stokes_skeleton,
        ),
        Fixture(
            "poroelasticity_template",
            "three-field dissipative block template with SPD or engineered-singular blocks",
            _build_poroelasticity,
            _check_poroelasticity,
        ),
        Fixture(
            "mult_by_E",
            "lam*E - E with E = diag(1/j): approximate singularity without eigenvectors",
            _build_mult_by_e,
            _check_mult_by_e,
        ),
        Fixture(
            "symmetric_not_sa_note",
            "caveat-only: symmetric-not-selfadjoint operator with no faithful finite model",
            _build_symmetric_not_sa_note,
            _check_caveat_only,
            caveat_only=True,
        ),
        Fixture(
            "shift_adjoint_sum",
            "direct sum of shifted backward shifts: point singularities cover "
            "the plane yet the pencil decomposes into regular parts",
            _build_shift_adjoint_sum,
            _check_shift_adjoint_sum,
        ),
        Fixture(
            "backward_shift_diag",
            "E = diag(1/j), A backward shift; carries a closed-form singular function",
            _build_backward_shift_diag,
            _check_backward_shift_diag,
        ),
        Fixture(
            "bilateral_weighted",
            "two-sided weighted shift with a Laurent singular function away from 0",
            _build_bilateral_weighted,
            _check_bilateral_weighted,
        ),
        Fixture(
            "non4_sum",
            "direct sum pairing a pencil having a singular function with one "
            "whose reversal does",
            _build_non4_sum,
            _check_non4_sum,
        ),
        Fixture(
            "diag_reciprocal",
            "E = A = diag(1/j): joint approximate kernel, unique flow, "
            "dissipative companion for the structured checks",
            _build_diag_reciprocal,
            _check_diag_reciprocal,
        ),
        Fixture(
            "approxchain",
            "block family whose chain polynomials form a right approximate "
            "polynomial sequence with orthonormal coefficients",
            _build_approxchain,
            _check_approxchain,
        ),
        Fixture(
            "rescaled_approxchain",
            "1/n-scaled block family where constant polynomials already witness",
            _build_rescaled_approxchain,
            _check_rescaled_approxchain,
        ),
        Fixture(
            "gram_counterexample",
            "root-free polynomial with singular coefficient Gram matrix",
            _build_gram_counterexample,
            _check_gram_counterexample,
        ),
        Fixture(
            "revdegenerate",
            "p_n = e_1 + (lam^n/n!) e_2: the reversal non-vanishing condition fails",
            _build_revdegenerate,
            _check_revdegenerate,
        ),
        Fixture(
            "facfac",
            "bounded shift against an unbounded diagonal: factorial series "
            "nonuniqueness without any singular polynomial",
            _build_facfac,
            _check_facfac,
        ),
        Fixture(
            "shift_identity",
            "E backward shift, A = I: nonunique flow despite a regular point at 0",
            _build_shift_identity,
            _check_shift_identity,
        ),
        Fixture(
            "bilateral_shift",
            "unitary two-sided shift: every section is singular, the pencil is not",
            _build_bilateral_shift,
            _check_bilateral_shift,
        ),
    ]
}


def fixture_names() -> list[str]:
    return sorted(REGISTRY)


def get_fixture(name: str) -> Fixture:
    if name not in REGISTRY:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    return REGISTRY[name]


def run_fixture(name: str, **params) -> list[CheckResult]:
    """Build the fixture with params (the builder's defaults fill the rest) and run its checks."""
    fx = get_fixture(name)
    return fx.checks(fx.build(**params))
