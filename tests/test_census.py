"""Factorizations over the golden ``analyze`` and ``chains`` commands are counted and pinned.

The census wraps the SVD entry points of ``pencilkit.linalg`` (``svdvals``,
``norm2``, ``thin_svd`` and ``svals_vh``, through which ``smallest_right``
and ``kernel`` go) with a counter that hashes each input
matrix, for ``svals_vh`` the stack of its blocks, runs every golden
``analyze`` and ``chains`` command in this process, and counts a call as
repeated when the same command has already passed a bitwise-equal matrix
to one of them.  The counts were the same at
one and two BLAS threads.  A change that adds a factorization, or removes
one, updates the pins here deliberately.

The sparse-arithmetic census counts ``vec_iadd`` calls, through every
module that binds the function, over a series and a polynomial trajectory
with their mild residuals, and over the power balance of an integrated
trajectory, whose sums go through ``StructuredOperator.apply`` and the
Simpson passes.

The exponential census counts ``linalg.expm`` calls and the matrices they
exponentiate, a stack counting each slice, over ``simulate`` of the
poroelasticity fixture and over one power balance of its flow.
"""

import contextlib
import hashlib
import io
import sys

import numpy as np
import pytest

from pencilkit import chains, fixtures, linalg, odae, sections, sparsevec
from pencilkit.cli import EXIT_OK, main
from test_cli_golden import CASES
from test_scale import _strict_json

COMMANDS = [argv for argv in CASES if argv[0] in ("analyze", "chains")]
KERNELS = ("svdvals", "norm2", "thin_svd", "svals_vh")


@pytest.fixture(scope="module")
def census():
    """Per command: calls per kernel, repeated calls, and stdout."""
    mp = pytest.MonkeyPatch()
    seen: set[bytes] = set()
    current: dict = {}

    def counting(name, fn):
        def wrapped(*blocks):
            mat = np.vstack(blocks)  # the vector kernels take the blocks of a stack
            key = hashlib.sha1(repr((mat.shape, mat.dtype.str)).encode()
                               + np.ascontiguousarray(mat).tobytes()).digest()
            current["calls"][name] = current["calls"].get(name, 0) + 1
            current["repeats"] += key in seen
            seen.add(key)
            return fn(*blocks)

        return wrapped

    for name in KERNELS:
        mp.setattr(linalg, name, counting(name, getattr(linalg, name)))
    out = {}
    try:
        for argv in COMMANDS:
            seen.clear()
            current.update(calls={}, repeats=0)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == EXIT_OK
            out[" ".join(argv)] = {**current, "stdout": buf.getvalue()}
    finally:
        mp.undo()
    return out


def test_repeated_factorizations_are_pinned(census):
    assert len(census) == 84
    assert sum(sum(c["calls"].values()) for c in census.values()) == 1038
    assert sum(c["repeats"] for c in census.values()) == 116


def test_chains_takes_one_norm_of_each_section_matrix(census):
    # the left chain reads the norms the right chain computed, through the adjoint
    chains = {cmd: c for cmd, c in census.items() if cmd.startswith("chains")}
    assert chains and all(c["calls"]["norm2"] == 2 for c in chains.values())


def test_chains_stdout_is_strict_json(census):
    for cmd, c in census.items():
        if cmd.startswith("chains"):
            _strict_json(c["stdout"])


def _count_vec_iadd(monkeypatch, run) -> int:
    calls = [0]
    vec_iadd = sparsevec.vec_iadd

    def counted(*args):
        calls[0] += 1
        return vec_iadd(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("pencilkit.") and getattr(module, "vec_iadd", None) is vec_iadd:
            monkeypatch.setattr(module, "vec_iadd", counted)
    run()
    return calls[0]


def test_series_trajectory_sums_are_pinned(monkeypatch):
    data = fixtures.get_fixture("shift_identity").build()
    p = data["pencil"]

    def run():
        traj = odae.series_solution(p, data["generator"], np.linspace(0.0, 1.0, 16), 38)
        odae.mild_residual(p, traj)

    assert _count_vec_iadd(monkeypatch, run) == 336


def test_polynomial_trajectory_sums_are_pinned(monkeypatch):
    p = fixtures.get_fixture("kronecker_L").build(k=6)["pencil"]
    poly = chains.chain_to_polynomial(chains.extract_right_chain(sections.section(p, 7)))

    def run():
        traj = odae.polynomial_solution(p, poly, np.linspace(0.0, 1.0, 12))
        odae.mild_residual(p, traj)

    assert _count_vec_iadd(monkeypatch, run) == 188


def test_power_balance_sums_are_pinned(monkeypatch):
    data = fixtures.get_fixture("poroelasticity_template").build()

    def run():
        traj = fixtures.integrator_trajectory(data, np.linspace(0.0, 1.0, 6), data["x0"])
        odae.power_balance_residual(data["pencil"], traj, tol=1e-8)

    assert _count_vec_iadd(monkeypatch, run) == 18


def _count_expm(monkeypatch, run) -> tuple[int, int]:
    """``linalg.expm`` calls over run(), and the matrices they exponentiate."""
    counts = [0, 0]
    expm = linalg.expm

    def counted(mat):
        counts[0] += 1
        counts[1] += len(mat) if mat.ndim == 3 else 1
        return expm(mat)

    monkeypatch.setattr(linalg, "expm", counted)
    run()
    return tuple(counts)


def test_simulate_exponentials_are_pinned(monkeypatch):
    # one expm for the stored samples and one per Simpson pass; each distinct time once
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--seed", "0", "simulate", "--fixture", "poroelasticity_template"]) == EXIT_OK

    assert _count_expm(monkeypatch, run) == (51, 472)


def _power_balance(data):
    traj = fixtures.integrator_trajectory(data, np.linspace(0.0, 1.0, 6), data["x0"])
    odae.power_balance_residual(data["pencil"], traj, tol=1e-8)
    return traj


def test_power_balance_exponentials_are_pinned(monkeypatch):
    data = fixtures.get_fixture("poroelasticity_template").build()
    assert _count_expm(monkeypatch, lambda: _power_balance(data)) == (15, 145)


def test_power_balance_exponentiates_each_time_once(monkeypatch):
    # a slice (t - t0) * G stands for its time t: no slice twice, and after the
    # states are stored no slice of a sample time
    data = fixtures.get_fixture("poroelasticity_template").build()
    slices = []
    expm = linalg.expm

    def recording(mat):
        slices.extend(m.tobytes() for m in (mat if mat.ndim == 3 else [mat]))
        return expm(mat)

    monkeypatch.setattr(linalg, "expm", recording)
    traj = _power_balance(data)
    gen = linalg.solve(data["E_mat"], data["B_mat"])
    samples = {m.tobytes() for m in np.multiply.outer(traj.times - traj.times[0], gen)}
    assert len(slices) == len(set(slices)) == 145
    assert set(slices[:6]) == samples and samples.isdisjoint(slices[6:])
