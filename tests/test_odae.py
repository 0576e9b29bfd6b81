import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilkit import (
    ChainGenerator,
    DenseBlock,
    DHStructure,
    Diagonal,
    Identity,
    L2N,
    Pencil,
    QuadratureError,
    Shift,
    StructuredOperator,
    Trajectory,
    VectorPolynomial,
    WeightRule,
    basis_vec,
    constant_weight,
    finite,
    mild_residual,
    polynomial_solution,
    power_balance_residual,
    series_solution,
    uniqueness_demo,
    vec_add,
    vec_norm,
    vec_scale,
    vec_sub,
)
from pencilkit import odae
from pencilkit.odae import MonomialForm, adaptive_simpson_scalar, adaptive_simpson_vec


# --- monomial forms and quadrature ---------------------------------------


def test_monomial_calculus():
    f = MonomialForm(((0, basis_vec(1, 2.0)), (3, basis_vec(2))))
    assert f.evaluate(2.0) == {1: 2.0, 2: 8.0}
    assert f.derivative().evaluate(2.0) == {2: 12.0}
    assert f.integral().evaluate(1.0) == {1: 2.0, 2: 0.25}


def test_simpson_exact_on_cubics():
    # composite Simpson integrates cubics exactly
    val = adaptive_simpson_scalar(lambda t: t**3 - 2 * t, 0.0, 2.0, 1e-12)
    assert val == pytest.approx(4.0 - 4.0, abs=1e-13)
    v = adaptive_simpson_vec(lambda t: {1: t**2}, 0.0, 3.0, 1e-12)
    assert v[1].real == pytest.approx(9.0, abs=1e-10)


def _counting(fn):
    calls = []

    def wrapped(t):
        calls.append(t)
        return fn(t)

    return wrapped, calls


def _assert_one_call_per_final_node(calls, a, b, m0=8):
    # the calls are exactly the nodes of the final pass, each evaluated once
    m = len(calls) - 1
    assert m > m0 and m % m0 == 0 and (m // m0) & (m // m0 - 1) == 0
    h = (b - a) / m
    assert sorted(calls) == sorted(a + i * h for i in range(m + 1))


def test_simpson_evaluates_each_node_once_vector():
    fn, calls = _counting(lambda t: {1: math.exp(t), 2: math.sin(3 * t)})
    adaptive_simpson_vec(fn, 0.0, 1.0, 1e-10)
    assert len(calls) > 17  # refined past the first doubling
    _assert_one_call_per_final_node(calls, 0.0, 1.0)


def test_simpson_evaluates_each_node_once_scalar():
    fn, calls = _counting(lambda t: math.cos(2 * t))
    adaptive_simpson_scalar(fn, -0.5, 1.25, 1e-10)
    assert len(calls) > 17
    _assert_one_call_per_final_node(calls, -0.5, 1.25)


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": float("nan")}, {"tol": 0.0}, {"tol": -1e-8}],
    ids=["tol-nan", "tol-zero", "tol-negative"],
)
def test_simpson_rejects_bad_arguments_before_evaluating(kwargs):
    fn, calls = _counting(lambda t: {1: t})
    args = {"tol": 1e-8, **kwargs}
    with pytest.raises(ValueError):
        adaptive_simpson_vec(fn, 0.0, 1.0, **args)
    assert calls == []


def test_simpson_stops_at_the_first_non_finite_estimate():
    # the flow at t = 1e300 overflows: the second pass shows it, after 9 + 8 evaluations
    from pencilkit.fixtures import get_fixture, integrator_trajectory

    data = get_fixture("poroelasticity_template").build()
    traj = integrator_trajectory(data, np.linspace(0.0, 1e300, 3), data["x0"])
    traj.state_fn, calls = _counting(traj.state_fn)
    with pytest.raises((OverflowError, QuadratureError)) as exc:
        power_balance_residual(data["pencil"], traj)
    assert (exc.type, len(calls)) == (OverflowError, 17)
    assert "quadrature estimate nan is not finite" in str(exc.value)


def _reference_simpson(fn, a, b, tol, m0=8, max_m=4096):
    """Plain dyadic Simpson: every pass evaluates every node and rebuilds the
    running sum with vec_add; adaptive_simpson_vec must match it bit for bit."""

    def simpson_pass(m):
        h = (b - a) / m
        total = {}
        for i in range(m + 1):
            w = 1 if i in (0, m) else (4 if i % 2 else 2)
            total = vec_add(total, vec_scale(w, fn(a + i * h)))
        return vec_scale(h / 3.0, total)

    if a == b:
        return {}
    m = m0
    prev = simpson_pass(m)
    while m <= max_m:
        m *= 2
        cur = simpson_pass(m)
        if vec_norm(vec_sub(cur, prev)) / 15.0 < 0.1 * tol:
            return cur
        prev = cur
    raise AssertionError("reference quadrature did not converge; shrink the test sizes")


def _integrand(kind, a, b, tol):
    c = 0.5 * (a + b)
    tiny = 1e-3 * tol
    if kind == "polynomial":
        return lambda t: {1: 3 * t**3 - t + 2.0, 4: 1j * t**2}
    if kind == "exponential":
        # entry 3 has a negative-zero real part: its sum must come out +0.0
        return lambda t: {2: math.exp(-t), 3: complex(-0.0, math.exp(0.5 * t))}
    if kind == "oscillating":
        return lambda t: {1: math.sin(4 * t), 2: complex(math.cos(3 * t), math.sin(3 * t))}
    # entries that sum to exactly zero: an odd part about the midpoint, an
    # identically zero entry, one that vanishes at the first node, and an
    # endpoint spike cancelled by the next node (dropped, then re-inserted)
    return lambda t: {
        5: t - c,
        6: 0.0 * t,
        7: (t - a) ** 2,
        8: complex(-0.0, t - c),
        9: tiny if t == a else -tiny / 4,
    }


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["polynomial", "exponential", "oscillating", "cancelling"]),
    a=st.floats(min_value=-1.0, max_value=1.0),
    length=st.floats(min_value=-1.5, max_value=1.5),
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
)
def test_simpson_matches_reference_loop_bitwise(kind, a, length, tol):
    b = a + length
    fn = _integrand(kind, a, b, tol)
    want = _reference_simpson(fn, a, b, tol)
    got = adaptive_simpson_vec(fn, a, b, tol)
    assert [(j, repr(x)) for j, x in got.items()] == [(j, repr(x)) for j, x in want.items()]


def _scalar_integrand(kind, a, b, tol):
    c = 0.5 * (a + b)
    tiny = 1e-3 * tol
    if kind == "cubic":
        return lambda t: 3 * t**3 - t + 2.0
    if kind == "exponential":
        return lambda t: math.exp(-t) - 0.5
    if kind == "zero":
        return lambda t: -0.0 * t
    if kind == "odd":
        # every pass sums to exactly zero: the rule drops the total
        return lambda t: t - c
    if kind == "spike":
        # the first partial sum is cancelled by the next node and restarts from 0.0
        return lambda t: tiny if t == a else -tiny / 4
    if kind == "complex":
        return lambda t: complex(math.cos(3 * t), -0.0 if t < c else (t - c) ** 3)
    if kind == "huge":
        # the sum overflows to inf, the estimate is nan
        return lambda t: 1e308 * (1.5 + math.sin(t))
    # the squared difference of two passes overflows
    return lambda t: 1e200 * math.exp(3 * t)


def _outcome(quadrature):
    try:
        return float.hex(quadrature())
    except (ArithmeticError, QuadratureError) as exc:
        return type(exc), str(exc)


_SCALAR_END = st.one_of(
    st.floats(min_value=-1.5, max_value=1.5),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.5e-308]),
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["cubic", "exponential", "zero", "odd", "spike", "complex", "huge",
                          "overflow"]),
    a=_SCALAR_END,
    b=_SCALAR_END,
    tol=st.sampled_from([1e-4, 1e-8, 1e-12, 1e-300]),
)
def test_scalar_simpson_is_the_one_key_vector_quadrature_bitwise(kind, a, b, tol):
    # float passes against {0: v} passes: the same value, or the same error and message
    fn = _scalar_integrand(kind, a, b, tol)
    want = _outcome(lambda: float(
        adaptive_simpson_vec(odae._pointwise(lambda v: {0: v}, fn), a, b, tol).get(0, 0.0).real))
    assert _outcome(lambda: adaptive_simpson_scalar(fn, a, b, tol)) == want


_GRID_END = st.floats(min_value=-1e300, max_value=1e300)


@settings(max_examples=200, deadline=None)
@given(half_m=st.integers(1, 4096), a=_GRID_END, b=_GRID_END)
def test_simpson_grid_is_the_reference_grid(half_m, a, b):
    # the one grid of both pass producers: nodes bitwise a + i*h, weights 1, 4, 2, ..., 4, 1
    m = 2 * half_m
    h, nodes, weights = odae._simpson_grid(a, b, m)
    assert h.hex() == ((b - a) / m).hex()
    assert [t.hex() for t in nodes.tolist()] == [(a + i * h).hex() for i in range(m + 1)]
    assert weights.tolist() == [1.0] + [4.0, 2.0] * (half_m - 1) + [4.0, 1.0]


def test_simpson_sums_node_values_of_changing_key_order_along_a_plan(monkeypatch):
    # the node values switch key order at t = 0.5; each pass sums them along one coordinate plan
    plans = []
    coordinate_plan = odae.coordinate_plan
    monkeypatch.setattr(odae, "coordinate_plan", lambda vs: plans.append(len(vs)) or coordinate_plan(vs))

    def fn(t):
        one, two = math.exp(t), complex(math.sin(3 * t), t**2)
        return {1: one, 2: two} if t < 0.5 else {2: two, 1: one}

    got = adaptive_simpson_vec(fn, 0.0, 1.0, 1e-10)
    want = _reference_simpson(fn, 0.0, 1.0, 1e-10)
    assert plans and plans[0] == 9
    assert [(j, repr(x)) for j, x in got.items()] == [(j, repr(x)) for j, x in want.items()]


_COEFF = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.integers(0, 6), st.dictionaries(st.integers(1, 4), _COEFF, min_size=1, max_size=3)),
        max_size=4,
    ),
    a=st.floats(min_value=-1.0, max_value=1.0),
    length=st.floats(min_value=-1.0, max_value=1.0),
    tol=st.sampled_from([1e-4, 1e-6, 1e-8, None]),
)
def test_monomial_simpson_matches_the_node_wise_passes(terms, a, length, tol):
    # A MonomialForm is integrated term by term, its bound evaluate node by node.
    # tol None asks for 1e-300 with a t^24 term on its own index and an interval
    # of length 1.5: the estimate stays far above it, so both must give up.
    if tol is None:
        terms, length, tol = terms + [(24, {9: 1.0})], 1.5, 1e-300
    form = MonomialForm(tuple(terms))
    b = a + length
    runs = {}
    for fn in (form, form.evaluate):
        passes = []
        with pytest.MonkeyPatch.context() as mp:
            simpson, node_pass = MonomialForm.simpson, odae._simpson_pass
            mp.setattr(MonomialForm, "simpson", lambda f, a, b, m: passes.append(m) or simpson(f, a, b, m))
            mp.setattr(odae, "_simpson_pass", lambda *args: passes.append(args[-1]) or node_pass(*args))
            try:
                runs[fn is form] = passes, adaptive_simpson_vec(fn, a, b, tol)
            except QuadratureError:
                runs[fn is form] = passes, None
    (fast_passes, fast), (node_passes, node) = runs[True], runs[False]
    assert fast_passes == node_passes
    if a == b:
        assert fast == node == {} and fast_passes == []
    elif tol == 1e-300:
        assert fast is node is None and fast_passes[-1] == 8192
    else:
        # both sum the same m + 1 weighted terms per coordinate, in different orders
        scale = abs(length) * sum(vec_norm(c) * max(abs(a), abs(b)) ** p for p, c in terms)
        assert vec_norm(vec_sub(fast, node)) <= 1e-12 * scale


def test_mild_residual_evaluates_a_series_state_at_no_simpson_node(monkeypatch):
    p, gen = _shift_identity()
    traj = series_solution(p, gen, np.linspace(0.0, 1.0, 5), order=20)
    inside, quadratures = [], []  # evaluations made inside the quadrature; its calls
    depth = [0]
    evaluate = MonomialForm.evaluate

    def counted(form, t):
        if depth[0]:
            inside.append(t)
        return evaluate(form, t)

    def quadrature(fn, a, b, tol):
        quadratures.append((a, b, tol))
        depth[0] += 1
        try:
            return adaptive_simpson_vec(fn, a, b, tol)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(MonomialForm, "evaluate", counted)
    monkeypatch.setattr(MonomialForm, "__call__", counted)
    monkeypatch.setattr(odae, "adaptive_simpson_vec", quadrature)
    assert float(mild_residual(p, traj).max()) <= 1e-10
    assert quadratures == [(0.0, 1.0, odae.CROSS_CHECK_TOL)] and inside == []


# --- chain generators and series solutions -------------------------------


def _shift_identity():
    p = Pencil(E=Shift(L2N, -1, constant_weight(1.0)), A=Identity(L2N))
    gen = ChainGenerator(rule=lambda k: basis_vec(k), c=0.1, n0=1)
    return p, gen


def test_generator_validates_links_and_growth():
    p, gen = _shift_identity()
    gen.validate(p, 10)  # no error


def test_generator_applies_e_and_a_once_per_vector(monkeypatch):
    p, gen = _shift_identity()
    calls = []
    apply = StructuredOperator.apply

    def counting(self, v):
        calls.append((id(self), tuple(v.items())))
        return apply(self, v)

    monkeypatch.setattr(StructuredOperator, "apply", counting)
    gen.validate(p, 10)
    vectors = [tuple(basis_vec(k).items()) for k in range(1, 12)]
    assert sorted(calls) == sorted((id(op), v) for op in (p.E, p.A) for v in vectors)


def test_generator_rejects_broken_link():
    p, _ = _shift_identity()
    bad = ChainGenerator(rule=lambda k: basis_vec(k + 1), c=0.1, n0=1)  # E a_1 = e_1 != 0
    with pytest.raises(ValueError):
        bad.validate(p, 3)


@pytest.mark.parametrize("rule,message", [
    (lambda k: {}, "^chain generator is identically zero up to the sampled order$"),
    (lambda k: basis_vec(k, 1.0 if k <= 2 else 2.0), r"^chain link k=2 violated: defect 1\.000e\+00$"),
], ids=["all_zero", "broken_link"])
def test_generator_refusals_name_the_rule(rule, message):
    p, _ = _shift_identity()
    with pytest.raises(ValueError, match=message):
        ChainGenerator(rule=rule, c=0.1, n0=1).validate(p, 3)


def test_generator_rejects_growth_violation():
    p, _ = _shift_identity()
    # c = 100 demands ||a_1|| <= (1/100)^1, violated by the unit vector
    greedy = ChainGenerator(rule=lambda k: basis_vec(k), c=100.0, n0=1)
    with pytest.raises(ValueError):
        greedy.validate(p, 3)


def test_series_residual_closed_form():
    # truncation at M leaves exactly the term t^M/M! e_{M} link: residual t^M/M!
    p, gen = _shift_identity()
    for m, t in ((5, 0.7), (9, 1.3)):
        traj = series_solution(p, gen, [0.0, t], order=m)
        assert traj.residual_classical[0] == 0.0
        expect = t**m / math.factorial(m)
        assert traj.residual_classical[1] == pytest.approx(expect, rel=1e-12)


def test_series_refuses_outside_certified_radius():
    p, gen = _shift_identity()
    limit = gen.radius * 0.9
    with pytest.raises(ValueError):
        series_solution(p, gen, [limit * 1.01], order=5)
    with pytest.raises(ValueError):
        series_solution(p, gen, [0.1], order=1)


def test_series_states_are_partial_exponential_sums():
    p, gen = _shift_identity()
    traj = series_solution(p, gen, [1.0], order=6)
    state = traj.states[0]
    for k in range(1, 7):
        assert state[k] == pytest.approx(1.0 / math.factorial(k), abs=1e-16)


# --- polynomial solutions -------------------------------------------------


def _kernel_dh(dim: int = 3):
    """dH pencil with an engineered one-dim common kernel direction e_dim."""
    rng = np.random.default_rng(42)
    m = rng.standard_normal((dim, dim))
    spd = m @ m.T + dim * np.eye(dim)
    proj = np.eye(dim)
    proj[dim - 1, dim - 1] = 0.0
    e = proj @ spd @ proj
    r = proj @ spd @ proj
    k = rng.standard_normal((dim, dim))
    j = proj @ (k - k.T) @ proj
    b = j - r
    sp = finite(dim)
    return Pencil(
        E=DenseBlock(sp, sp, e),
        A=DenseBlock(sp, sp, b),
        dh=DHStructure(
            B=DenseBlock(sp, sp, b), Q=Identity(sp),
            J=DenseBlock(sp, sp, j), R=DenseBlock(sp, sp, r),
        ),
    )


def test_polynomial_solution_from_kernel_vector():
    p = _kernel_dh()
    q = VectorPolynomial([basis_vec(3)])
    traj = polynomial_solution(p, q, np.linspace(0.0, 2.0, 5))
    assert float(np.max(traj.residual_classical)) <= 1e-12
    assert traj.states[0] == {}
    assert vec_norm(traj.states[-1]) == pytest.approx(2.0, abs=1e-14)
    assert float(mild_residual(p, traj).max()) <= 1e-10


def test_polynomial_solution_rejects_non_singular_polynomial():
    p = _kernel_dh()
    q = VectorPolynomial([basis_vec(1)])
    with pytest.raises(ValueError):
        polynomial_solution(p, q, [0.0, 1.0])


# --- mild residual --------------------------------------------------------


def _exp_traj(rate: float, t_grid):
    return Trajectory(
        times=np.asarray(t_grid, dtype=float),
        state_fn=lambda t: {1: math.exp(rate * t)},
        integral_fn=lambda t: {1: (math.exp(rate * t) - 1.0) / rate},
    )


def test_mild_residual_zero_for_true_flow():
    p = Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index")))
    # x(t) = e^t e_1 solves x' = diag(1/j) x in the first coordinate
    traj = _exp_traj(1.0, np.linspace(0.0, 1.0, 5))
    assert float(mild_residual(p, traj).max()) <= 1e-10


def test_mild_residual_flags_wrong_flow():
    p = Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index")))
    traj = _exp_traj(2.0, np.linspace(0.0, 1.0, 5))  # wrong rate
    assert float(mild_residual(p, traj).max()) > 0.1


def test_mild_residual_cross_checks_inconsistent_integral():
    p = Pencil(E=Identity(L2N), A=Identity(L2N))
    traj = Trajectory(
        times=np.array([0.0, 1.0]),
        state_fn=lambda t: {1: math.exp(t)},
        integral_fn=lambda t: {1: 2.0 * t},  # wrong antiderivative
    )
    with pytest.raises(QuadratureError):
        mild_residual(p, traj)


def test_mild_residual_cross_check_is_1e_10():
    p = Pencil(E=Identity(L2N), A=Identity(L2N))
    for drift, raises in ((1e-9, True), (1e-11, False)):
        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            state_fn=lambda t: {1: math.exp(t)},
            integral_fn=lambda t, drift=drift: {1: math.exp(t) - 1.0 + drift * t},
        )
        if raises:
            with pytest.raises(QuadratureError, match="above 1.0e-10"):
                mild_residual(p, traj)
        else:
            mild_residual(p, traj)


def test_mild_residual_cross_check_of_a_monomial_form_is_1e_10():
    # the partial exponential sum at index 1, with a drifted exact integral
    p = Pencil(E=Identity(L2N), A=Identity(L2N))
    form = MonomialForm(tuple((k, {1: 1.0 / math.factorial(k)}) for k in range(13)))
    for drift, raises in ((1e-9, True), (1e-11, False)):
        integral = MonomialForm(form.integral().terms + ((1, {1: drift}),))
        traj = Trajectory(times=np.array([0.0, 1.0]), state_fn=form, integral_fn=integral)
        if raises:
            with pytest.raises(QuadratureError, match="above 1.0e-10"):
                mild_residual(p, traj)
        else:
            mild_residual(p, traj)


def test_mild_residual_integrates_a_trajectory_of_states_to_1e_8():
    p = Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index")))
    traj = Trajectory(times=np.linspace(0.0, 1.0, 5), state_fn=lambda t: {1: math.exp(t)})
    ex0 = p.E.apply(traj.states[0])
    ref = []
    for t, x in zip(traj.times, traj.states):
        integral = adaptive_simpson_vec(traj.state_fn, 0.0, float(t), 1e-8)
        ref.append(vec_norm(vec_sub(vec_sub(p.E.apply(x), p.A.apply(integral)), ex0)))
    assert np.array_equal(mild_residual(p, traj), np.asarray(ref))


def test_mild_residual_calls_state_fn_only_in_the_cross_check(monkeypatch):
    p = Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index")))
    traj = _exp_traj(1.0, np.linspace(0.0, 1.0, 5))
    outside, inside = [], []  # state_fn calls made outside / inside the quadrature
    depth = [0]
    state_fn = traj.state_fn

    def counted(t):
        (inside if depth[0] else outside).append(t)
        return state_fn(t)

    def quadrature(fn, a, b, tol):
        depth[0] += 1
        try:
            return adaptive_simpson_vec(fn, a, b, tol)
        finally:
            depth[0] -= 1

    traj.state_fn = counted
    monkeypatch.setattr(odae, "adaptive_simpson_vec", quadrature)
    assert float(mild_residual(p, traj).max()) <= 1e-10
    assert outside == [] and inside


def test_mild_residual_calls_integral_fn_once_per_sample():
    p = Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index")))
    traj = _exp_traj(1.0, np.linspace(0.0, 1.0, 5))
    calls = []
    integral_fn = traj.integral_fn
    traj.integral_fn = lambda t: calls.append(t) or integral_fn(t)
    assert float(mild_residual(p, traj).max()) <= 1e-10
    assert calls == [float(t) for t in traj.times]


def test_mild_residual_takes_x0_at_time_zero():
    # a grid that starts after 0 still integrates from 0 and subtracts E x(0)
    p, gen = _shift_identity()
    late = mild_residual(p, series_solution(p, gen, [0.5, 1.0], order=15))
    full = mild_residual(p, series_solution(p, gen, [0.0, 0.5, 1.0], order=15))
    assert np.array_equal(late, full[1:]) and float(late.max()) <= 1e-12

    from pencilkit.fixtures import get_fixture, integrator_trajectory

    data = get_fixture("poroelasticity_template").build()
    traj = integrator_trajectory(data, np.linspace(0.5, 1.0, 3), data["x0"])
    assert float(mild_residual(data["pencil"], traj).max()) <= 1e-8


# --- power balance --------------------------------------------------------


def _unit_decay():
    # E = I, B = -I, Q = I: x(t) = e^{-t} x0, H(t) = e^{-2t} H(0)
    sp = finite(1)
    return Pencil(
        E=Identity(sp),
        A=DenseBlock(sp, sp, -np.eye(1)),
        dh=DHStructure(B=DenseBlock(sp, sp, -np.eye(1)), Q=Identity(sp)),
    )


def test_power_balance_exact_decay():
    p = _unit_decay()
    traj = _exp_traj(-1.0, np.linspace(0.0, 2.0, 9))
    res, ham = power_balance_residual(p, traj)
    assert float(res.max()) <= 1e-7
    assert np.allclose(ham, 0.5 * np.exp(-2.0 * traj.times), atol=1e-12)
    assert np.all(np.diff(ham) <= 0)


def test_power_balance_computes_energy_once_per_sample(monkeypatch):
    # the energies are read from the stored states: state_fn runs only inside
    # the dissipation quadrature, E only once per sample outside it
    p = _unit_decay()
    traj = _exp_traj(-1.0, np.linspace(0.0, 1.0, 6))
    outside = []  # state_fn calls made outside the dissipation quadrature
    applied = []  # E.apply calls made outside it
    depth = [0]
    state_fn, e_apply = traj.state_fn, p.E.apply

    def counted(t):
        if not depth[0]:
            outside.append(t)
        return state_fn(t)

    def counted_apply(v):
        if not depth[0]:
            applied.append(v)
        return e_apply(v)

    def quadrature(fn, a, b, tol):
        depth[0] += 1
        try:
            return adaptive_simpson_scalar(fn, a, b, tol)
        finally:
            depth[0] -= 1

    traj.state_fn = counted
    monkeypatch.setattr(p.E, "apply", counted_apply)
    monkeypatch.setattr(odae, "adaptive_simpson_scalar", quadrature)
    power_balance_residual(p, traj)
    assert outside == []
    assert applied == traj.states


def test_power_balance_builds_each_basis_image_once():
    from collections import Counter

    from pencilkit.fixtures import get_fixture, integrator_trajectory

    data = get_fixture("poroelasticity_template").build(seed=0, d=3)
    p = data["pencil"]
    calls = Counter()
    for op in {id(op): op for op in (p.E, p.dh.Q, p.dh.B)}.values():
        def counted(j, op=op, apply_basis=op.apply_basis):
            calls[id(op), j] += 1
            return apply_basis(j)

        op.apply_basis = counted
    traj = integrator_trajectory(data, np.linspace(0.0, 1.0, 6), data["x0"])
    power_balance_residual(p, traj)
    assert len(calls) == 3 * data["dim"]
    assert set(calls.values()) == {1}


def test_power_balance_requires_dh():
    p = Pencil(E=Identity(L2N), A=Identity(L2N))
    with pytest.raises(ValueError):
        power_balance_residual(p, _exp_traj(1.0, [0.0, 1.0]))


# --- uniqueness -----------------------------------------------------------


def test_uniqueness_certificate_without_kernel():
    sp = finite(2)
    p = Pencil(
        E=Identity(sp),
        A=DenseBlock(sp, sp, -np.eye(2)),
        dh=DHStructure(B=DenseBlock(sp, sp, -np.eye(2)), Q=Identity(sp)),
    )
    rep = uniqueness_demo(p, {}, [0.0, 1.0], n=2)
    assert rep.unique and rep.kernel_dim == 0
    assert rep.margin == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_uniqueness_demo_exhibits_kernel_drift():
    p = _kernel_dh()
    rep = uniqueness_demo(p, {}, np.linspace(0.0, 1.0, 5), n=3)
    assert not rep.unique and rep.kernel_dim == 1
    assert rep.max_distance == pytest.approx(1.0, abs=1e-12)
    assert max(rep.mild_residuals) <= 1e-10
    # both trajectories start at 0 yet differ
    assert rep.trajectories[0].states[0] == {} and rep.trajectories[1].states[0] == {}


def test_uniqueness_demo_requires_dh_and_zero_start():
    p, _ = _shift_identity()
    with pytest.raises(ValueError):
        uniqueness_demo(p, {}, [0.0, 1.0])
    q = _kernel_dh()
    with pytest.raises(ValueError):
        uniqueness_demo(q, {1: 1.0}, [0.0, 1.0], n=3)
