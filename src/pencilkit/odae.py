"""Trajectories of E x' = A x: factorial series from chains, polynomial
solutions from singular polynomials, mild-solution and power-balance
residuals, and uniqueness demonstrations for dissipative pencils.

A trajectory is its state function; its states are that function at the
sample times.

Series and polynomial trajectories are stored in closed monomial form, so
states, derivatives and time integrals are exact up to floating point; no
truncation spillover occurs because every chain term is finitely supported.
A form is evaluated at ``float(t)``, bitwise as the sum of its scaled terms
by ``vec_iadd``, so its entries are Python floats and complexes.
Trajectories without a term-wise integral (the exact matrix-exponential
flow of the finite poroelasticity fixture) are integrated by composite
Simpson with dyadic refinement until the Richardson estimate drops below a
tenth of the requested tolerance.  Every pass takes its nodes and weights
from ``_simpson_grid``.  A vector pass combines its vectors along a
``coordinate_plan``; a scalar pass, such as the power balance's dissipation
rate, sums plain floats s = s + w * v in node order from 0.0 by
``vec_combine``'s zero rule (a partial sum equal to 0 restarts from 0.0, and
a zero total or a zero h/3 gives 0.0), bitwise the one-key vector pass.
Halving the step is exact, so every node of one pass is a node of the next:
the integrand is evaluated once per distinct node, and a batch form
``many`` of it, such as the flow's, takes the fresh nodes of a pass at once.
The cross-check of a monomial trajectory's exact integral integrates its
form term by term, with one weighted power sum per term and pass: it
evaluates the state at no node, and its value is compared, never printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from . import chains, dh
from .operators import Pencil
from .sections import section
from .sparsevec import SparseVec, coordinate_plan, vec_combine
from .sparsevec import vec_inner, vec_norm, vec_scale, vec_sub

__all__ = [
    "ChainGenerator",
    "Trajectory",
    "QuadratureError",
    "series_solution",
    "polynomial_solution",
    "mild_residual",
    "power_balance_residual",
    "uniqueness_demo",
    "UniquenessReport",
]

LINK_TOL = 1e-12
# Relative slack of ChainGenerator.validate's growth bound (k/c)^k.
GROWTH_SLACK = 1e-12
POLYNOMIAL_VERIFY_TOL = 1e-8
# Quadrature of a trajectory known only by its states; cross-check of an exact integral.
QUADRATURE_TOL = 1e-8
CROSS_CHECK_TOL = 1e-10
RADIUS_MARGIN = 0.1
# Lowest truncation order of series_solution.
MIN_SERIES_ORDER = 2
# First and last pass sizes of adaptive_simpson_vec (subintervals, even).
SIMPSON_M0 = 8
SIMPSON_MAX_M = 4096


class QuadratureError(RuntimeError):
    """Raised when the quadrature error estimate exceeds the requested tolerance."""


# ---------------------------------------------------------------------------
# monomial closed forms


@dataclass(frozen=True)
class MonomialForm:
    """Finite sum of terms coeff * t^power with sparse vector coefficients.

    ``evaluate`` (also the form's call) sums the terms by
    ``sparsevec.vec_combine`` along a plan built on first use; ``simpson``
    combines the same coefficients with Simpson power sums instead, so a
    quadrature of the form evaluates it at no node.
    """

    terms: tuple[tuple[int, SparseVec], ...]

    @cached_property
    def _combine(self) -> tuple[list[SparseVec], list]:
        coeffs = [c for _, c in self.terms]
        return coeffs, coordinate_plan(coeffs)

    def evaluate(self, t: float) -> SparseVec:
        """The form at ``float(t)``; entries are Python floats or complexes."""
        t = float(t)
        coeffs, plan = self._combine
        return vec_combine(coeffs, [t**p for p, _ in self.terms], plan)

    __call__ = evaluate

    def simpson(self, a: float, b: float, m: int) -> SparseVec:
        """Composite Simpson of the form over m subintervals (even), term by term.

        Term p contributes h/3 * sum_i w_i t_i^p times its coefficient, on
        the grid of ``_simpson_grid``.  An overflow leaves an inf or nan in
        the result rather than raising.
        """
        h, nodes, weights = _simpson_grid(a, b, m)
        coeffs, plan = self._combine
        with np.errstate(over="ignore", invalid="ignore"):
            sums = h / 3.0 * (weights @ np.power.outer(nodes, [p for p, _ in self.terms]))
        return vec_combine(coeffs, sums.tolist(), plan)

    def derivative(self) -> "MonomialForm":
        return MonomialForm(
            tuple((p - 1, vec_scale(p, c)) for p, c in self.terms if p >= 1)
        )

    def integral(self) -> "MonomialForm":
        """Antiderivative vanishing at t = 0."""
        return MonomialForm(
            tuple((p + 1, vec_scale(1.0 / (p + 1), c)) for p, c in self.terms)
        )

    def mapped(self, op_apply: Callable[[SparseVec], SparseVec]) -> "MonomialForm":
        return MonomialForm(tuple((p, op_apply(c)) for p, c in self.terms))


# ---------------------------------------------------------------------------
# quadrature


def _simpson_grid(a: float, b: float, m: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Step h, nodes a + i*h (bitwise) and weights 1, 4, 2, ..., 4, 1 of m subintervals (even)."""
    h = (b - a) / m
    weights = np.full(m + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, m]] = 1.0
    return h, a + np.arange(m + 1) * h, weights


def _node_values(fn, values: dict, ts: list[float]) -> list:
    """fn at each node of ts, memoized in values.

    The fresh nodes, each distinct one once in node order, go to one
    ``fn.many`` call when fn has that batch form, else to fn one by one.
    """
    fresh = list(dict.fromkeys(t for t in ts if t not in values))
    values.update(zip(fresh, fn.many(fresh) if hasattr(fn, "many") else map(fn, fresh)))
    return [values[t] for t in ts]


def _simpson_pass(fn, values: dict, a: float, b: float, m: int) -> SparseVec:
    """Composite Simpson with m subintervals (even); fn(t) is memoized in values.

    The node values of ``_simpson_grid``, only read, never mutated, are
    summed by ``vec_combine`` along their ``coordinate_plan``.
    """
    h, ts, weights = _simpson_grid(a, b, m)
    nodes = _node_values(fn, values, ts.tolist())
    return vec_scale(h / 3.0, vec_combine(nodes, weights.tolist(), coordinate_plan(nodes)))


def adaptive_simpson_vec(fn, a: float, b: float, tol: float) -> SparseVec:
    """Dyadically refined composite Simpson; Richardson estimate < 0.1 * tol.

    Starts with SIMPSON_M0 subintervals and doubles while m <= SIMPSON_MAX_M,
    so the last pass tried has 2 * SIMPSON_MAX_M at most.  The nodes a + i*h
    of one pass are bitwise nodes of the next, so fn is called once per
    distinct node (the final m + 1 calls in all); fn must be pure.  With a
    batch form ``fn.many`` each pass makes one call for its fresh nodes.  A
    ``MonomialForm`` fn is integrated term by term by ``MonomialForm.simpson``
    and is not called at all; the passes, the estimate and the errors are
    the same.  tol must be finite and positive, else a ValueError is raised
    before fn is called.  A missed tolerance raises QuadratureError, a
    non-finite estimate OverflowError.
    """
    simpson = fn.simpson if isinstance(fn, MonomialForm) else partial(_simpson_pass, fn, {})
    return _refine(simpson, lambda cur, prev: vec_norm(vec_sub(cur, prev)), {}, a, b, tol)


def _refine(simpson, distance, zero, a: float, b: float, tol: float):
    """The refinement loop of both adaptive quadratures: passes simpson(a, b, m),
    estimate distance(cur, prev) / 15; ``zero`` is the integral when a == b."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if a == b:
        return zero
    m = SIMPSON_M0
    prev = simpson(a, b, m)
    while m <= SIMPSON_MAX_M:
        m *= 2
        cur = simpson(a, b, m)
        est = distance(cur, prev) / 15.0
        if not math.isfinite(est):
            raise OverflowError(f"quadrature estimate {est} is not finite: the input overflows")
        if est < 0.1 * tol:
            return cur
        prev = cur
    raise QuadratureError(f"quadrature estimate {est:.3e} above tolerance {tol:.3e}")


def _pointwise(g, fn):
    """t -> g(fn(t)), with the batch form ``many`` when fn has one."""

    def h(t):
        return g(fn(t))

    if hasattr(fn, "many"):
        h.many = lambda ts: [g(v) for v in fn.many(ts)]
    return h


def _scalar_pass(fn, values: dict, a: float, b: float, m: int) -> float:
    """``_simpson_pass`` of a scalar fn on plain floats: bitwise its one key, or 0.0."""
    h, ts, weights = _simpson_grid(a, b, m)
    s = 0.0
    for w, v in zip(weights.tolist(), _node_values(fn, values, ts.tolist())):
        s = s + w * v
        if not s:
            s = 0.0
    return h / 3.0 * s if s and h / 3.0 else 0.0


def _scalar_distance(cur, prev) -> float:
    """``vec_norm(vec_sub({0: cur}, {0: prev}))``, bitwise: the square is kept, since
    it can round or underflow, and a huge difference raises OverflowError there."""
    return math.sqrt(abs((0.0 + cur) + -1.0 * prev) ** 2)


def adaptive_simpson_scalar(fn, a: float, b: float, tol: float) -> float:
    """``adaptive_simpson_vec`` of a scalar fn, on plain floats.

    Nodes, memoized batches, refinement and errors are the vector
    quadrature's.  Each pass sums s = s + w * v in node order from 0.0 by
    ``vec_combine``'s zero rule: a partial sum equal to 0 restarts from 0.0,
    and a zero total or a zero h/3 gives 0.0, else the pass is h/3 * s.  So
    the result is bitwise the real part of the one key of
    ``adaptive_simpson_vec`` on ``t -> {0: fn(t)}``, or 0.0 where it has none.
    """
    return float(_refine(partial(_scalar_pass, fn, {}), _scalar_distance, 0.0, a, b, tol).real)


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Solution candidate given by its state function, sampled at ``times``.

    ``states`` is ``state_fn`` at each stored time; an optional exact time
    integral and classical residual ride along.
    """

    times: np.ndarray
    state_fn: Callable[[float], SparseVec]
    integral_fn: Callable[[float], SparseVec] | None = None
    residual_classical: np.ndarray | None = None
    states: list[SparseVec] = field(init=False)

    def __post_init__(self) -> None:
        self.states = [self.state_fn(t) for t in self.times]


@dataclass(frozen=True)
class ChainGenerator:
    """Sequence a_1, a_2, ... with E a_1 = 0, E a_{k+1} = A a_k and a growth bound.

    The certificate (c, N0) declares ||a_k||, ||A a_k||, ||E a_k|| <= (k/c)^k
    for k >= N0; it is validated on sampled k, and a violation is an error.
    The induced series solution is analytic for |t| < 1/(c e).
    """

    rule: Callable[[int], SparseVec]
    c: float
    n0: int

    @property
    def radius(self) -> float:
        return 1.0 / (self.c * math.e)

    def validate(self, p: Pencil, k_max: int) -> None:
        """Check a_1 .. a_{k_max+1}; E and A are applied to each a_k once."""
        a = {k: self.rule(k) for k in range(1, k_max + 2)}
        if all(not v for v in a.values()):
            raise ValueError("chain generator is identically zero up to the sampled order")
        ea = {k: p.E.apply(v) for k, v in a.items()}
        aa = {k: p.A.apply(v) for k, v in a.items()}
        e1 = vec_norm(ea[1])
        if e1 > LINK_TOL:
            raise ValueError(f"E a_1 = 0 violated: ||E a_1|| = {e1:.3e}")
        for k in range(1, k_max + 1):
            defect = vec_norm(vec_sub(ea[k + 1], aa[k]))
            scale = max(1.0, vec_norm(a[k]))
            if defect > LINK_TOL * scale:
                raise ValueError(f"chain link k={k} violated: defect {defect:.3e}")
        for k in range(max(self.n0, 1), k_max + 2):
            bound = (k / self.c) ** k
            for label, val in (
                ("||a_k||", vec_norm(a[k])),
                ("||A a_k||", vec_norm(aa[k])),
                ("||E a_k||", vec_norm(ea[k])),
            ):
                if val > bound * (1 + GROWTH_SLACK):
                    raise ValueError(
                        f"growth certificate violated at k={k}: {label}={val:.3e} > (k/c)^k={bound:.3e}"
                    )


def _monomial_trajectory(p: Pencil, form: MonomialForm, times: np.ndarray) -> Trajectory:
    """Closed-form trajectory with its exact classical residual ||E f' - A f||."""
    e_dot = form.derivative().mapped(p.E.apply)
    a_f = form.mapped(p.A.apply)
    residual = np.array(
        [vec_norm(vec_sub(e_dot.evaluate(t), a_f.evaluate(t))) for t in times]
    )
    return Trajectory(
        times=times,
        state_fn=form,
        integral_fn=form.integral(),
        residual_classical=residual,
    )


def series_solution(
    p: Pencil, gen: ChainGenerator, t_grid: Sequence[float], order: int
) -> Trajectory:
    """Truncated factorial series f_M(t) = sum_{j<=M} a_j t^j / j! with exact residuals.

    All grid times must lie inside the certified radius with a 10% margin;
    the classical residual uses the exact derivative of the truncation.
    """
    if order < MIN_SERIES_ORDER:
        raise ValueError(f"order must be >= {MIN_SERIES_ORDER}")
    limit = gen.radius * (1.0 - RADIUS_MARGIN)
    times = np.asarray(list(t_grid), dtype=float)
    if np.any(np.abs(times) > limit):
        raise ValueError(f"time grid leaves the certified radius (|t| <= {limit:.6g})")
    gen.validate(p, order)
    a = {j: gen.rule(j) for j in range(1, order + 1)}
    form = MonomialForm(
        tuple((j, vec_scale(1.0 / math.factorial(j), a[j])) for j in range(1, order + 1))
    )
    return _monomial_trajectory(p, form, times)


def polynomial_solution(p: Pencil, sp, t_grid: Sequence[float]) -> Trajectory:
    """Trajectory f(t) = t * p(t) from a right singular polynomial (residual <= 1e-8)."""
    res = chains.verify_singular_polynomial(p, sp, side="right")
    if res > POLYNOMIAL_VERIFY_TOL:
        raise ValueError(
            "polynomial fails singularity verification: "
            f"residual {res:.3e} > {POLYNOMIAL_VERIFY_TOL:.1e}"
        )
    times = np.asarray(list(t_grid), dtype=float)
    form = MonomialForm(tuple((j + 1, dict(c)) for j, c in enumerate(sp.coeffs)))
    return _monomial_trajectory(p, form, times)


def mild_residual(p: Pencil, traj: Trajectory) -> np.ndarray:
    """||E x(t) - A \\int_0^t x - E x(0)|| per sample.

    x(0) is the first state when the grid starts at 0, else ``state_fn(0.0)``.
    Uses the exact term-wise integral when the trajectory carries one,
    cross-checked at the final time by quadrature to CROSS_CHECK_TOL;
    otherwise integrates the state function by adaptive Simpson to
    QUADRATURE_TOL.  The trajectory, not the caller, sets the tolerance.
    """
    ex0 = p.E.apply(traj.states[0] if traj.times[0] == 0.0 else traj.state_fn(0.0))
    out = []
    for t, x in zip(traj.times, traj.states):
        t = float(t)
        if traj.integral_fn is not None:
            integral = traj.integral_fn(t)
        else:
            integral = adaptive_simpson_vec(traj.state_fn, 0.0, t, QUADRATURE_TOL)
        res = vec_sub(vec_sub(p.E.apply(x), p.A.apply(integral)), ex0)
        out.append(vec_norm(res))
    if traj.integral_fn is not None:
        t_end = float(traj.times[-1])
        if t_end != 0.0:
            quad = adaptive_simpson_vec(traj.state_fn, 0.0, t_end, CROSS_CHECK_TOL)
            drift = vec_norm(vec_sub(quad, integral))
            if drift > CROSS_CHECK_TOL:
                raise QuadratureError(
                    f"quadrature cross-check drift {drift:.3e} above {CROSS_CHECK_TOL:.1e}"
                )
    return np.asarray(out)


def power_balance_residual(
    p: Pencil, traj: Trajectory, tol: float = QUADRATURE_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """|energy change - accumulated dissipation| per time, plus the Hamiltonian trace.

    The balance compares <E f(t), Q f(t)> - <E f(t0), Q f(t0)> against
    2 Re int_{t0}^t <B Q f, Q f>, t0 the first sample time; H = 1/2 <E f, Q f>.
    The rate forwards the flow's batches and skips Q when Q = I; its
    integral is ``adaptive_simpson_scalar``, whose passes sum plain floats
    with ``vec_combine``'s zero rule (a partial sum equal to 0 restarts from
    0.0; a zero total or a zero h/3 gives 0.0).
    """
    if p.dh is None:
        raise ValueError("pencil carries no dissipative-Hamiltonian metadata")
    E, Q, B = p.E, p.dh.Q, p.dh.B

    def rate(f: SparseVec) -> float:
        qf = f if p.dh.q_is_identity else Q.apply(f)
        return 2.0 * float(vec_inner(B.apply(qf), qf).real)

    dissipation = _pointwise(rate, traj.state_fn)
    times = [float(t) for t in traj.times]
    energies = [float(vec_inner(E.apply(f), Q.apply(f)).real) for f in traj.states]
    e0 = energies[0]
    residuals = []
    acc = 0.0
    prev_t = times[0]
    for t, e in zip(times, energies):
        if t != prev_t:
            acc += adaptive_simpson_scalar(dissipation, prev_t, t, tol)
            prev_t = t
        residuals.append(abs((e - e0) - acc))
    return np.asarray(residuals), np.asarray([0.5 * e for e in energies])


@dataclass
class UniquenessReport:
    kernel_dim: int
    margin: float  # sigma_min([E; BQ]) of the section, in the pencil's units
    trajectories: list[Trajectory] = field(default_factory=list)
    max_distance: float = 0.0
    mild_residuals: list[float] = field(default_factory=list)

    @property
    def unique(self) -> bool:
        return self.kernel_dim == 0


def uniqueness_demo(
    p: Pencil,
    x0: SparseVec,
    t_grid: Sequence[float],
    n: int = 12,
) -> UniquenessReport:
    """Exhibit two mild solutions (kernel drift) or a section-level uniqueness certificate.

    Requires dH metadata: for these pencils uniqueness of mild solutions is
    equivalent to triviality of ker E intersect ker(BQ).  Verdicts describe
    the chosen section window.
    """
    if p.dh is None:
        raise ValueError(
            "not a dissipative-Hamiltonian pencil; use series_solution to "
            "exhibit non-uniqueness for unstructured pencils"
        )
    s = section(p, n)
    rep = dh.dh_classify(s, p.dh)
    kdim = rep.common_kernel_dim
    times = np.asarray(list(t_grid), dtype=float)
    indices = s.window_in.indices
    margin = s.unscaled(rep.stacked_sigma_min, "uniqueness margin")
    if kdim == 0:
        return UniquenessReport(kernel_dim=0, margin=margin)
    if vec_norm(x0) > 0:
        raise ValueError("non-uniqueness demo supports x0 = 0 only")
    v = {j: complex(c) for j, c in zip(indices, rep.kernel_basis[:, 0]) if c != 0}
    zero_traj = _monomial_trajectory(p, MonomialForm(()), times)
    drift_traj = _monomial_trajectory(p, MonomialForm(((1, v),)), times)
    r0 = mild_residual(p, zero_traj)
    r1 = mild_residual(p, drift_traj)
    dist = max(
        vec_norm(vec_sub(a, b)) for a, b in zip(zero_traj.states, drift_traj.states)
    )
    return UniquenessReport(
        kernel_dim=kdim,
        margin=margin,
        trajectories=[zero_traj, drift_traj],
        max_distance=float(dist),
        mild_residuals=[float(r0.max()), float(r1.max())],
    )
