import dataclasses
import functools

import numpy as np
import pytest

from pencilkit import fixture_names, get_fixture, run_fixture, series_solution, verify_singular_function
from pencilkit import fixtures, odae
from pencilkit.fixtures import SingularFunctionData, integrator_trajectory
from test_linalg import run_at_one_blas_thread


def test_registry_contents():
    names = fixture_names()
    assert "kronecker_L" in names and "poroelasticity_template" in names
    assert names == sorted(names)
    with pytest.raises(KeyError):
        get_fixture("no_such_fixture")


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_checks_pass(name):
    results = run_fixture(name)
    assert results, "fixture produced no checks"
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


def test_parameterized_fixture_variants():
    # the Kronecker block with a different k
    results = run_fixture("kronecker_L", k=4)
    assert all(r.passed for r in results)
    # the engineered-singular pressure variant of the three-field template
    results = run_fixture("poroelasticity_template", singular_pressure=True)
    assert all(r.passed for r in results), "; ".join(
        f"{r.name}: {r.detail}" for r in results if not r.passed
    )


def test_poroelasticity_seeds_give_distinct_but_valid_instances():
    import numpy as np

    a = get_fixture("poroelasticity_template").build(seed=1, d=3, singular_pressure=False)
    b = get_fixture("poroelasticity_template").build(seed=2, d=3, singular_pressure=False)
    assert not np.allclose(a["E_mat"], b["E_mat"])
    for res in run_fixture("poroelasticity_template", seed=1):
        assert res.passed, f"{res.name}: {res.detail}"


def test_singular_function_excluded_probe_raises():
    data = get_fixture("backward_shift_diag").build()
    with pytest.raises(ValueError):
        verify_singular_function(data, [0.0], truncation=10)


def test_singular_function_truncation_drops_cancelled_entries():
    # lam^0 * {1: 1} + lam^1 * {1: -1} cancels exactly at lam = 1
    sf = SingularFunctionData(
        term=lambda j: {1: 1.0} if j == 0 else {1: -1.0},
        index_range=lambda n: list(range(n + 1)),
        tail_bound=lambda lam, n: 0.0,
        excluded=(),
        excluded_note="",
    )
    assert sf.truncate(1.0, 1) == {}
    assert sf.truncate(2.0, 1) == {1: -1.0}


# the builders that declare keyword defaults; every other builder takes none
DEFAULT_PARAMS = {
    "kronecker_L": {"k": 2},
    "poroelasticity_template": {"seed": 0, "d": 3, "singular_pressure": False},
}


@pytest.mark.parametrize("name", fixture_names())
def test_default_params_are_the_builder_defaults(name):
    fx = get_fixture(name)
    assert fx.default_params == DEFAULT_PARAMS.get(name, {})

    # a timing wrapper swapped in for the builder (as bench/tracer.py does) keeps them
    @functools.wraps(fx.build)
    def wrapper(*args, **kwargs):
        return fx.build(*args, **kwargs)

    assert dataclasses.replace(fx, build=wrapper).default_params == fx.default_params


def test_caveat_only_fixture_builds_no_pencil():
    assert [n for n in fixture_names() if get_fixture(n).caveat_only] == ["symmetric_not_sa_note"]
    fx = get_fixture("symmetric_not_sa_note")
    assert fx.caveat_only
    data = fx.build()
    assert "pencil" not in data and "caveat" in data


def _series_trajectory(t_grid):
    data = get_fixture("shift_identity").build()
    return series_solution(data["pencil"], data["generator"], t_grid, order=8)


def _integrator_trajectory(t_grid):
    data = get_fixture("poroelasticity_template").build(seed=0, d=3)
    return integrator_trajectory(data, t_grid, data["x0"])


@pytest.mark.parametrize(
    "produce", [_series_trajectory, _integrator_trajectory, fixtures._exp_trajectory]
)
def test_states_are_the_state_function_at_the_stored_times(produce):
    traj = produce(np.linspace(0.0, 1.0, 7))
    again = [traj.state_fn(t) for t in traj.times]
    assert traj.states == again and repr(traj.states) == repr(again)


# Times out of order and repeated, on and off the grid [0.25, 0.5, 0.75, 1], t0 = 0.25
# among them; the reference is a fresh trajectory's state function, called one
# time at a time, and the flow's formula with one expm per time.
_FLOW_SCRIPT = """
import json
import numpy as np
from pencilkit import linalg
from pencilkit.fixtures import get_fixture, integrator_trajectory

times = [0.9, 0.5, 0.3, 0.9, 1.0, -0.4, 0.3, 0.25, 2.0, 0.5, 0.0]
differ = []
for params in ({"d": 3}, {"d": 4}, {"d": 3, "singular_pressure": True}):
    data = get_fixture("poroelasticity_template").build(seed=2, **params)
    flow = lambda: integrator_trajectory(data, np.linspace(0.25, 1.0, 4), data["x0"]).state_fn
    batch = flow().many(times)
    state_fn = flow()
    one_by_one = [state_fn(t) for t in times]
    gen = linalg.solve(data["E_mat"], data["B_mat"])
    formula = [linalg.expm((t - 0.25) * gen) @ data["x0"] for t in times]
    formula = [{i + 1: complex(c) for i, c in enumerate(arr) if c != 0} for arr in formula]
    for name, ref in (("state_fn", one_by_one), ("formula", formula)):
        same = (batch == ref and [list(v) for v in batch] == [list(v) for v in ref]
                and repr(batch) == repr(ref))
        differ += [] if same else [f"{params}: {name}"]
print(json.dumps({"differ": differ}))
"""


def test_flow_batch_states_are_the_state_function_one_time_at_a_time():
    assert run_at_one_blas_thread(_FLOW_SCRIPT) == {"differ": []}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("d", (3, 4))
def test_integrator_trajectory_matches_dop853(seed, d):
    from scipy.integrate import solve_ivp

    data = get_fixture("poroelasticity_template").build(seed=seed, d=d)
    t_grid = np.linspace(0.0, 1.0, 6)
    x0 = data["x0"]
    traj = integrator_trajectory(data, t_grid, x0)
    assert traj.integral_fn is None  # mild residuals must go through quadrature
    rhs = lambda _t, x: np.linalg.solve(data["E_mat"], data["B_mat"] @ x)  # noqa: E731
    ref = solve_ivp(rhs, (0.0, 1.0), x0, t_eval=t_grid, method="DOP853", rtol=1e-12, atol=1e-12)
    for i, t in enumerate(t_grid):
        state = traj.states[i]
        got = np.array([state.get(j + 1, 0.0) for j in range(data["dim"])])
        assert np.linalg.norm(got - ref.y[:, i]) <= 1e-9


def test_shift_identity_builds_each_series_once(monkeypatch):
    orders = []
    series = odae.series_solution

    def counting(*args, **kwargs):
        orders.append(kwargs["order"])
        return series(*args, **kwargs)

    monkeypatch.setattr(odae, "series_solution", counting)
    assert all(res.passed for res in run_fixture("shift_identity"))
    assert orders == [10, 15]
