"""Seeded inputs, task lists and answer oracles of the four workloads.

``setup(seed, tiny, workdir)`` returns one pass: the list of tasks the
runner times, in order.  Sizes never depend on the seed, only values do, so
every seed costs the same work.  Each task carries the values its oracle
expects in ``Task.expect``; the oracle runs after the task's clock stops.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy.linalg

import pencilkit as pk
from pencilkit import chains, dh, fixtures, odae, sections, serialize, spectra

@dataclass
class Task:
    kind: str
    run: Callable[[Any], Any]             # ctx -> result (timed)
    check: Callable[[Any, dict], bool]    # (result, expect) -> correct? (not timed)
    expect: dict = field(default_factory=dict)
    digest_key: str | None = None          # cli-cold: stdout compared with digests.json


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _close(x: float, ref: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(x - ref) <= rel * abs(ref) + abs_


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dense_pencil(E: np.ndarray, A: np.ndarray) -> pk.Pencil:
    m, n = E.shape
    return pk.Pencil(E=pk.DenseBlock(pk.finite(n), pk.finite(m), E),
                     A=pk.DenseBlock(pk.finite(n), pk.finite(m), A))


def kronecker_sum(rng, eps, etas, regs) -> tuple[np.ndarray, np.ndarray]:
    """U (L_eps... + L_eta^T... + regular blocks) V with random unitary U, V.

    The right minimal indices are ``eps``, the left ones ``etas``; the
    regular blocks (E = I + noise, A random) add no chains.
    """
    es, as_ = [], []
    for e in eps:
        es.append(np.eye(e, e + 1))
        as_.append(np.eye(e, e + 1, 1))
    for h in etas:
        es.append(np.eye(h + 1, h))
        as_.append(np.eye(h + 1, h, -1))
    for r in regs:
        es.append(2.0 * np.eye(r) + rng.standard_normal((r, r)))
        as_.append(rng.standard_normal((r, r)))
    E, A = scipy.linalg.block_diag(*es), scipy.linalg.block_diag(*as_)
    U, V = _unitary(rng, E.shape[0]), _unitary(rng, E.shape[1])
    return U @ E @ V, U @ A @ V


def _scale(E: np.ndarray, A: np.ndarray) -> float:
    return float(np.linalg.norm(E, 2) + np.linalg.norm(A, 2)) or 1.0


def _unit_probes(rng, count: int) -> list[complex]:
    return [complex(np.exp(2j * np.pi * (i + rng.uniform(0.1, 0.9)) / count))
            for i in range(count)]


# ---------------------------------------------------------------------------
# dense-sweep

def _diag_table(values) -> pk.WeightRule:
    return pk.WeightRule("table", values=tuple(complex(v) for v in values))


def _classify_check(pc, expect) -> bool:
    smin, smax = expect["sigma_min"], expect["sigma_max"]
    if not _close(pc.sigma_min, smin, 0.0, 1e-11 * smax):
        return False
    if "verdict" in expect:
        return pc.verdict == expect["verdict"]
    # grid point: verdict from the oracle value unless it sits on a threshold
    for factor in (1e-10, 1e-6):
        if abs(smin - factor * smax) <= 1e-3 * factor * smax:
            return True
    want = ("point_singular" if smin <= 1e-10 * smax
            else "approx_singular_only" if smin <= 1e-6 * smax else "regular")
    return pc.verdict == want


def dense_sweep(seed: int, tiny: bool, workdir: str) -> list[Task]:
    # Grid points cycle through five section sizes, so classify costs form a
    # continuum rather than two clusters: a per-task latency percentile then
    # moves smoothly with machine speed instead of jumping between clusters.
    sizes, grids, windows, n_dh, d_poro = (
        ((10, 12), (3, 2), (4, 8), 8, 3) if tiny
        else ((160, 180, 200, 220, 240), (12, 8), (100, 200, 400, 800), 200, 80))
    n_max = max(sizes)
    tasks: list[Task] = []

    # diagonal pencil lam*diag(e) - diag(a): sigma_min = min_j |lam e_j - a_j|
    rng = _rng(seed, 1)
    e = rng.uniform(0.5, 2.0, n_max)
    a = rng.uniform(-1.8, 1.8, n_max) + 1j * rng.uniform(-1.8, 1.8, n_max)
    sp = pk.finite(n_max)
    diag_pencil = pk.Pencil(E=pk.Diagonal(sp, _diag_table(e)), A=pk.Diagonal(sp, _diag_table(a)))
    diag = {n: (pk.section(diag_pencil, n), a[:n] / e[:n], e[:n], a[:n]) for n in sizes}

    # shift-like pencil lam*I - c*P with P the n x n cyclic shift: eigenvalues c*w^k
    c = rng.uniform(0.8, 1.5) * np.exp(2j * np.pi * rng.uniform())
    shift = {}
    for n in sizes:
        spn = pk.finite(n)
        cyc = pk.Sum([pk.Shift(spn, 1, pk.constant_weight(c)),
                      pk.DenseBlock(spn, spn, np.array([[c]]), row_start=1, col_start=n)])
        roots = c * np.exp(2j * np.pi * np.arange(n) / n)
        shift[n] = (pk.section(pk.Pencil(E=pk.Identity(spn), A=cyc), n), roots,
                    np.ones(n), roots)

    def classify_task(kind, sec, lam, expect):
        s, _, ee, aa = sec
        sv = np.abs(lam * ee - aa)
        return Task(kind, lambda ctx: spectra.classify_point(s, lam), _classify_check,
                    {"sigma_min": float(sv.min()), "sigma_max": float(sv.max()), **expect})

    k = 0
    for family, g in ((shift, grids[0]), (diag, grids[1])):
        h = 4.0 / g
        for i in range(g):
            for j in range(g):
                lam = complex(-2.0 + (i + 0.5 + rng.uniform(-0.35, 0.35)) * h,
                              -2.0 + (j + 0.5 + rng.uniform(-0.35, 0.35)) * h)
                tasks.append(classify_task("classify", family[sizes[k % len(sizes)]], lam, {}))
                k += 1
    # known eigenvalues are point_singular; infinity is regular for E invertible
    mid = sizes[len(sizes) // 2]
    for family in (shift, diag):
        sec = family[mid]
        for j in rng.choice(mid, 2, replace=False):
            tasks.append(classify_task("classify_eigenvalue", sec, complex(sec[1][j]),
                                       {"sigma_min": 0.0, "verdict": "point_singular"}))
    for family in (shift, diag):
        s, _, ee, _ = family[mid]
        tasks.append(Task("classify_infinity",
                          lambda ctx, s=s: spectra.classify_point(s, spectra.INFINITY),
                          _classify_check,
                          {"sigma_min": float(ee.min()), "sigma_max": float(ee.max()),
                           "verdict": "regular"}))

    # stacked certificate over nested windows of a diagonal l2(N) pencil:
    # sigma_min([A; E]) = min_{j <= n} sqrt(|a_j|^2 + e_j^2)
    rng = _rng(seed, 2)
    big = windows[-1]
    e2 = rng.uniform(0.3, 2.0, big)
    a2 = rng.uniform(-2.0, 2.0, big) + 1j * rng.uniform(-2.0, 2.0, big)
    dpen = pk.Pencil(E=pk.Diagonal(pk.L2N, _diag_table(e2)), A=pk.Diagonal(pk.L2N, _diag_table(a2)))
    joint = np.sqrt(np.abs(a2) ** 2 + e2**2)

    def cert_check(out, expect) -> bool:
        s, cert = out
        x = cert.witness
        energy = np.linalg.norm(s.A_mat @ x) ** 2 + np.linalg.norm(s.E_mat @ x) ** 2
        return (_close(cert.value, expect["value"], 1e-10)
                and _close(float(energy), expect["value"] ** 2, 1e-9))

    def certificate(n: int):
        s = sections.section(dpen, n)
        return s, sections.distance_to_singularity_bound(s)

    for n in windows:
        tasks.append(Task("certificate", lambda ctx, n=n: certificate(n), cert_check,
                          {"value": float(joint[:n].min())}))

    # dissipative-Hamiltonian classification
    comp = fixtures.get_fixture("diag_reciprocal").build()["dh_pencil"]
    tasks.append(Task("dh_companion",
                      lambda ctx: dh.dh_classify(sections.section(comp, n_dh), comp.dh),
                      lambda rep, x: (rep.classification == x["classification"]
                                      and rep.diagnostics.structure_ok
                                      and rep.common_kernel_dim == 0
                                      and _close(rep.stacked_sigma_min, x["stacked"], 1e-9)),
                      {"classification": "regular_candidate", "stacked": math.sqrt(2.0) / n_dh}))
    poro = fixtures.get_fixture("poroelasticity_template")
    for singular in (False, True):
        data = poro.build(seed=int(_rng(seed, 3 + singular).integers(2**31)), d=d_poro,
                          singular_pressure=singular)

        def poro_check(rep, x, data=data) -> bool:
            if rep.classification != x["classification"] or not rep.diagnostics.structure_ok:
                return False
            if "kernel_vector" not in data:
                return rep.common_kernel_dim == 0
            angle = dh.subspace_angle(rep.kernel_basis,
                                      data["kernel_vector"].reshape(-1, 1) + 0j)
            return rep.common_kernel_dim == 1 and angle <= 1e-6

        tasks.append(Task("dh_poroelasticity",
                          lambda ctx, p=data["pencil"], n=data["dim"]:
                          dh.dh_classify(sections.section(p, n), p.dh),
                          poro_check,
                          {"classification": "point_singular" if singular else "regular_candidate"}))
    return tasks


# ---------------------------------------------------------------------------
# chain-scan

def _chain_task(kind: str, doc: dict, n: int, expect: dict, scale: float, probe_rng) -> Task:
    """Load a pencil from JSON, extract both chains, verify and reduce found ones.

    A degree-d polynomial is verified at d + 2 seeded unit-circle probes.
    """
    probes = {d: _unit_probes(probe_rng, d + 2)
              for d in (expect["right"], expect["left"]) if d is not None}

    def run(ctx):
        s = sections.section(serialize.pencil_from_json(doc), n)
        out = {}
        for side, extract in (("right", chains.extract_right_chain),
                              ("left", chains.extract_left_chain)):
            rep = extract(s)
            if rep is None:
                out[side] = None
                continue
            poly = chains.chain_to_polynomial(rep)
            out[side] = (rep, poly,
                         chains.verify_singular_polynomial(s, poly, side, probes[rep.minimal_index]),
                         chains.reduce_polynomial(poly))
        return out

    def check(out, x) -> bool:
        tol = 1e-10 * x["scale"]
        for side in ("right", "left"):
            got = out[side]
            if got is None or x[side] is None:
                if got is not x[side]:
                    return False
                continue
            rep, poly, verify, reduced = got
            d = rep.minimal_index
            if d != x[side] or poly.degree != d or reduced.degree != d:
                return False
            if max(rep.residuals) > tol or verify > tol * (d + 1):
                return False
        return True

    return Task(kind, run, check, {**expect, "scale": scale})


# (right minimal indices, left minimal indices, regular block sizes).  The
# one-sided sums scan every degree on their chain-free side, at sizes 8..13,
# so task costs fill the range around the latency median without gaps.
KRONECKER_SUMS = (
    ((1,), (2,), (3,)),
    ((2,), (1,), (4,)),
    ((3,), (3,), (2,)),
    ((1, 4), (2,), (2,)),
    ((0,), (3,), (5,)),
    ((), (2,), (6,)),
    ((1,), (), (7,)),
    ((), (1,), (8,)),
    ((1,), (), (9,)),
    ((), (2,), (9,)),
    ((2,), (), (10,)),
    ((), (1,), (12,)),
)


def chain_scan(seed: int, tiny: bool, workdir: str) -> list[Task]:
    regular_sizes, facfac_sizes, kron_ks, sums = (
        ((6,), (8,), range(1, 4), KRONECKER_SUMS[:2]) if tiny
        else ((10, 18, 21), (12, 16, 18), range(1, 16), KRONECKER_SUMS))
    probe_rng = _rng(seed, 10)
    tasks = []
    rng = _rng(seed, 11)
    for n in regular_sizes:
        E, A = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        tasks.append(_chain_task("regular_dense", serialize.pencil_to_json(_dense_pencil(E, A)), n,
                                 {"right": None, "left": None}, _scale(E, A), probe_rng))
    facfac = serialize.pencil_to_json(fixtures.get_fixture("facfac").build()["pencil"])
    for n in facfac_sizes:
        s = sections.section(serialize.pencil_from_json(facfac), n)
        tasks.append(_chain_task("regular_fixture", facfac, n, {"right": None, "left": None},
                                 _scale(s.E_mat, s.A_mat), probe_rng))
    rng = _rng(seed, 12)
    for eps, etas, regs in sums:
        E, A = kronecker_sum(rng, eps, etas, regs)
        tasks.append(_chain_task("kronecker_sum", serialize.pencil_to_json(_dense_pencil(E, A)),
                                 max(E.shape),
                                 {"right": min(eps) if eps else None,
                                  "left": min(etas) if etas else None},
                                 _scale(E, A), probe_rng))
    kron = fixtures.get_fixture("kronecker_L")
    for k in kron_ks:
        p = kron.build(k=k)["pencil"]
        s = sections.section(p, k + 1)
        tasks.append(_chain_task("kronecker_L", serialize.pencil_to_json(p), k + 1,
                                 {"right": k, "left": None}, _scale(s.E_mat, s.A_mat), probe_rng))
    return tasks


# ---------------------------------------------------------------------------
# sparse-trajectories

def _series_task(name: str, order: int, t_grid: np.ndarray) -> Task:
    """Factorial series and its mild residual; both residuals have closed forms.

    With f = sum_{j<=M} a_j t^j/j!, the links telescope: the classical
    residual is ||A a_M|| t^M/M! and the mild one ||A a_M|| t^(M+1)/(M+1)!.
    facfac has ||A a_M|| = (M+1)!, shift_identity ||A a_M|| = 1.
    """
    data = fixtures.get_fixture(name).build()
    p, gen = data["pencil"], data["generator"]
    norm_aM = float(math.factorial(order + 1)) if name == "facfac" else 1.0

    def run(ctx):
        traj = odae.series_solution(p, gen, t_grid, order)
        return traj, odae.mild_residual(p, traj)

    def check(out, x) -> bool:
        traj, mild = out
        for t, rc, rm in zip(t_grid, traj.residual_classical, mild):
            want_c = norm_aM * t**order / math.factorial(order)
            want_m = norm_aM * t ** (order + 1) / math.factorial(order + 1)
            if not (_close(rc, want_c, 1e-6, 1e-14) and _close(rm, want_m, 1e-6, 1e-14)):
                return False
        return True

    return Task("series", run, check, {"order": order})


def _polynomial_task(k: int, t_grid: np.ndarray) -> Task:
    """Trajectory t*p(t) of a kronecker_L chain, residuals recomputed densely."""
    p = fixtures.get_fixture("kronecker_L").build(k=k)["pencil"]
    s = sections.section(p, k + 1)
    poly = chains.chain_to_polynomial(chains.extract_right_chain(s))
    E, A = s.E_mat, s.A_mat
    X = [np.array([c.get(j, 0.0) for j in range(1, k + 2)], dtype=complex) for c in poly.coeffs]

    def dense(t: float) -> tuple[float, float]:
        f = sum(t ** (j + 1) * x for j, x in enumerate(X))
        df = sum((j + 1) * t**j * x for j, x in enumerate(X))
        integral = sum(t ** (j + 2) / (j + 2) * x for j, x in enumerate(X))
        return (float(np.linalg.norm(E @ df - A @ f)),
                float(np.linalg.norm(E @ f - A @ integral)))

    def run(ctx):
        traj = odae.polynomial_solution(p, poly, t_grid)
        return traj, odae.mild_residual(p, traj)

    def check(out, x) -> bool:
        traj, mild = out
        for t, rc, rm in zip(t_grid, traj.residual_classical, mild):
            want_c, want_m = dense(float(t))
            if not (_close(rc, want_c, 1e-10, 1e-12) and _close(rm, want_m, 1e-10, 1e-12)):
                return False
        return True

    return Task("polynomial", run, check, {"k": k})


def _time_grid(rng, t_max: float, inner: int) -> np.ndarray:
    """0, ``inner`` seeded times, and t_max.

    The last time is fixed: the quadrature cross-check of ``mild_residual``
    integrates up to it, and its refinement cost jumps with that endpoint.
    """
    return np.concatenate([[0.0], np.sort(rng.uniform(0.05 * t_max, t_max, inner)), [t_max]])


def sparse_trajectories(seed: int, tiny: bool, workdir: str) -> list[Task]:
    rng = _rng(seed, 20)
    tasks = []
    for name in fixtures.fixture_names():
        params = {"seed": seed} if "seed" in fixtures.get_fixture(name).default_params else {}
        tasks.append(Task("fixture", lambda ctx, name=name, params=params:
                          fixtures.run_fixture(name, **params),
                          lambda res, x: all(r.passed for r in res), {"fixture": name}))
    # The long shift_identity series are the costliest seed-independent
    # tasks; they hold the latency p90 away from the seeded ones.
    orders = {"facfac": (8, 10) if tiny else (10, 14, 18, 22),
              "shift_identity": (6,) if tiny else (8, 10, 12, 14, 18, 22, 26, 30, 34, 38)}
    for name, t_max in (("facfac", 0.3), ("shift_identity", 1.0)):
        grid = _time_grid(rng, t_max, 14)
        for order in orders[name]:
            tasks.append(_series_task(name, order, grid))
    for k in (1, 2) if tiny else range(1, 7):
        tasks.append(_polynomial_task(k, _time_grid(rng, 1.0, 10)))

    # Power balance on seeded poroelasticity instances.  Quadrature cost
    # follows the instance's time scale and energy, so each instance starts
    # at unit energy and runs over one time constant 1/max|eig(B, E)|; twelve
    # instances a pass average the rest out, keeping the cost seed-invariant.
    poro = fixtures.get_fixture("poroelasticity_template")
    for d in (3,) if tiny else (3,) * 6 + (4,) * 6:
        data = poro.build(seed=int(rng.integers(2**31)), d=d)
        x0 = rng.standard_normal(data["dim"])
        x0 /= math.sqrt(x0 @ data["E_mat"] @ x0)
        rate = float(np.abs(scipy.linalg.eigvals(data["B_mat"], data["E_mat"])).max())
        t_grid = np.linspace(0.0, 1.0 / rate, 6)

        def pbe_run(ctx, data=data, x0=x0, t_grid=t_grid):
            traj = fixtures.integrator_trajectory(data, t_grid, x0)
            return odae.power_balance_residual(data["pencil"], traj, tol=1e-8)

        tasks.append(Task("power_balance", pbe_run,
                          lambda out, x: (float(out[0].max()) <= 1e-6
                                          and float(np.max(np.diff(out[1]))) <= 1e-8),
                          {"d": d}))

    ac = fixtures.get_fixture("approxchain").build()
    probes = [complex(z) for z in rng.uniform(-1.5, 1.5, 4) + 1j * rng.uniform(-1.5, 1.5, 4)]
    n_values = range(1, 5) if tiny else range(1, 11)

    def approx_check(out, x) -> bool:
        rows, gram = out
        for r in rows:
            want = ac["alpha"](r.n) * math.sqrt(1.0 + abs(r.probe) ** (2 * (r.n + 1)))
            if not (_close(r.forward, want, 1e-10) and _close(r.reverse, want, 1e-10)):
                return False
        return gram.xi == 1.0 and all(np.allclose(m, np.eye(len(m))) for m in gram.grams)

    tasks.append(Task("approx", lambda ctx: (
        pk.approx.sequence_residuals(ac["pencil"], ac["sequence"], probes, n_values),
        pk.approx.gram_lower_bound(ac["sequence"], n_values)), approx_check))

    comp = fixtures.get_fixture("diag_reciprocal").build()["dh_pencil"]
    stokes = fixtures.get_fixture("stokes_skeleton").build()
    t_grid = _time_grid(rng, 1.0, 3)
    for n in (8, 16):
        tasks.append(Task("uniqueness", lambda ctx, n=n: odae.uniqueness_demo(comp, {}, t_grid, n=n),
                          lambda rep, x: (rep.unique and rep.kernel_dim == 0
                                          and _close(rep.margin, x["margin"], 1e-9)),
                          {"margin": math.sqrt(2.0) / n}))
    tasks.append(Task("uniqueness",
                      lambda ctx: odae.uniqueness_demo(stokes["pencil"], {}, t_grid, n=stokes["dim"]),
                      lambda rep, x: (not rep.unique and rep.kernel_dim == 1
                                      and max(rep.mild_residuals) <= 1e-10
                                      and _close(rep.max_distance, x["distance"], 1e-12)),
                      {"distance": float(t_grid[-1])}))
    return tasks


# ---------------------------------------------------------------------------
# cli-cold

def _lines(out) -> list[str]:
    return out.stdout.decode().splitlines()


def _csv(out) -> list[list[str]]:
    return [line.split(",") for line in _lines(out) if not line.startswith("#")][1:]


def cli_cold(seed: int, tiny: bool, workdir: str) -> list[Task]:
    rng = _rng(seed, 30)

    def write(name: str, pencil: pk.Pencil) -> str:
        path = os.path.join(workdir, name)
        serialize.save_pencil(pencil, path)
        return path

    E, A = kronecker_sum(rng, (2,), (1,), (3,))
    sum_path, sum_scale = write("sum.json", _dense_pencil(E, A)), _scale(E, A)
    Er, Ar = rng.standard_normal((12, 12)), rng.standard_normal((12, 12))
    reg_path = write("regular.json", _dense_pencil(Er, Ar))
    e = rng.uniform(0.5, 2.0, 8)
    a = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
    diag_path = write("diag.json", _dense_pencil(np.diag(e).astype(complex), np.diag(a)))
    x0, y0 = (float(v) for v in rng.uniform(-2.0, -1.5, 2))
    rect = f"{x0!r},{x0 + 3.0!r},{y0!r},{y0 + 3.0!r}"

    def ok(out) -> bool:
        return out.returncode == 0

    def has(line):
        return lambda out, x: ok(out) and line in _lines(out)

    def chains_check(out, x) -> bool:
        if not ok(out):
            return False
        rep = json.loads(out.stdout)
        for side in ("right", "left"):
            got = rep[side]
            if got is None or x[side] is None:
                if got is not x[side]:
                    return False
                continue
            tol = 1e-10 * x["scale"]
            if (got["minimal_index"] != x[side] or max(got["residuals"]) > tol
                    or got["verify_residual"] > tol * 3.0 ** (got["minimal_index"] + 1)):
                return False
        return True

    def spectra_check(out, x) -> bool:
        rows = _csv(out)
        if not ok(out) or len(rows) != 25:
            return False
        for re_, im, sv, sva, verdict in rows:
            lam = complex(float(re_), float(im))
            ref = np.abs(lam * e - a)
            if not (_close(float(sv), ref.min(), 0.0, 1e-12 * ref.max()) and sv == sva):
                return False
        return True

    def distance_check(out, x) -> bool:
        rows = _csv(out)
        return ok(out) and len(rows) == 4 and all(
            _close(float(v), math.sqrt(2.0) / int(n), 1e-12) for n, v, _ in rows)

    def approx_check(out, x) -> bool:
        rows = _csv(out)
        if not ok(out) or len(rows) != 24:
            return False
        for n, pre, pim, fwd, rev, *_ in rows:
            lam = complex(float(pre), float(pim))
            want = 1.0 / math.factorial(int(n) + 1) * math.sqrt(1.0 + abs(lam) ** (2 * (int(n) + 1)))
            if not (_close(float(fwd), want, 1e-12) and _close(float(rev), want, 1e-12)):
                return False
        return True

    def simulate_poro_check(out, x) -> bool:
        rows = _csv(out)
        return ok(out) and len(rows) == 11 and max(float(r[-2]) for r in rows) <= 1e-6

    def simulate_shift_check(out, x) -> bool:
        rows = _csv(out)
        if not ok(out) or len(rows) != 11:
            return False
        return all(_close(float(r[-4]), float(r[0]) ** 10 / math.factorial(10), 1e-6, 1e-15)
                   for r in rows)

    commands = [
        ("examples_list", ["examples", "list"],
         lambda out, x: ok(out) and len(_lines(out)) == len(fixtures.fixture_names()), True),
        ("examples_run", ["--seed", str(seed), "examples", "run", "--all"],
         has("overall: pass"), False),
        ("analyze", ["analyze", sum_path, "--n", "7"],
         has("right singular chain: minimal index 2"), False),
        ("analyze", ["analyze", reg_path, "--n", "12"],
         has("right singular chain: none (section is regular)"), False),
        ("chains", ["chains", sum_path, "--n", "7"], chains_check, False),
        ("chains", ["chains", reg_path, "--n", "12"], chains_check, False),
        ("spectra", ["spectra", diag_path, "--n", "8", f"--rect={rect}", "--steps", "5,5"],
         spectra_check, False),
        ("distance", ["distance", "--fixture", "diag_reciprocal", "--sections", "4,8,16,32"],
         distance_check, True),
        ("dh_check", ["dh-check", "--fixture", "stokes_skeleton"],
         has("classification: point_singular"), True),
        ("dh_check", ["dh-check", "--fixture", "diag_reciprocal", "--use-companion", "--n", "16"],
         has("classification: regular_candidate"), True),
        ("approx", ["approx", "--fixture", "approxchain"], approx_check, True),
        ("simulate", ["--seed", str(seed), "simulate", "--fixture", "poroelasticity_template"],
         simulate_poro_check, False),
        ("simulate", ["simulate", "--fixture", "shift_identity"], simulate_shift_check, True),
    ]
    tasks = []
    for kind, argv, check, digest in commands:
        expect = {}
        if kind == "chains":
            expect = ({"right": 2, "left": 1, "scale": sum_scale} if argv[1] == sum_path
                      else {"right": None, "left": None, "scale": 1.0})
        tasks.append(Task(kind, lambda ctx, argv=argv: ctx.cli(argv), check, expect,
                          digest_key=" ".join(argv) if digest else None))
    return tasks


WORKLOADS: dict[str, Callable[[int, bool, str], list[Task]]] = {
    "cli-cold": cli_cold,
    "dense-sweep": dense_sweep,
    "chain-scan": chain_scan,
    "sparse-trajectories": sparse_trajectories,
}
