import dataclasses
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from hwmlab.hardy import (
    FourierSeries,
    evaluate_grid,
    fit_series,
    fractional_derivative,
    grid_product,
    sobolev_energy,
)
from hwmlab.grassmann import (
    BlaschkeProduct,
    GrassmannLoop,
    constraint_residuals,
    half_harmonic_map,
    pauli_encode,
    random_blaschke,
    random_rational_loop,
    traveling_profile,
    validate_loop,
)
from hwmlab import evolution, integrator
from hwmlab.evolution import make_plan, solve_at_time
from hwmlab.integrator import (
    BlowUpError,
    IntegratorState,
    _flow_rate,
    _grid_size,
    cross_validate,
    integrate,
    rhs,
    step_rk4,
)

from conftest import random_series


def fresh_state(loop, dt):
    return IntegratorState(
        loop=loop,
        t=0.0,
        dt=dt,
        stats={"steps": 0, "energy0": sobolev_energy(loop.series), "constraint_drift": 0.0, "energy_drift": 0.0},
    )


def reference_rhs(series):
    """The right-hand side as two grid products and an inline FFT fit, the form
    the stacked transform, commutator kernel and fit must reproduce bit for bit."""
    M = _grid_size(series.N)
    u = evaluate_grid(series, M)
    du = evaluate_grid(fractional_derivative(series), M)
    comm = -0.5j * (grid_product(u, du) - grid_product(du, u))
    n = np.arange(-series.N, series.N + 1)
    return np.fft.fft(comm, axis=0)[n % M] / M


def bit_cases():
    rng = np.random.Generator(np.random.Philox(key=20240811))
    return [
        GrassmannLoop(1, 0, random_series(rng, 1, 5, hermitian=True, scale=0.5), {}),
        traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16),
        GrassmannLoop(3, 1, random_series(rng, 3, 6, hermitian=True), {}),
        random_rational_loop(rng, 4, 2, twists=2),
    ]


@pytest.mark.parametrize("loop", bit_cases(), ids=lambda loop: f"d{loop.d}")
def test_rhs_matches_two_product_reference_bitwise(loop):
    assert rhs(loop).coeffs.tobytes() == reference_rhs(loop.series).tobytes()


def test_stage_rate_ignores_coefficient_layout():
    # RK4 stages feed the kernel raw arrays in whatever layout the arithmetic left
    loop = bit_cases()[-1]
    c = loop.series.coeffs
    transposed = np.ascontiguousarray(c.transpose(2, 1, 0)).transpose(2, 1, 0)
    assert np.array_equal(transposed, c) and not transposed.flags.c_contiguous
    expected = reference_rhs(loop.series)
    assert np.ascontiguousarray(_flow_rate(transposed)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("loop", bit_cases(), ids=lambda loop: f"d{loop.d}")
def test_step_rk4_matches_two_product_reference_bitwise(loop):
    dt = 1e-2
    c = loop.series.coeffs
    d, N = loop.d, loop.series.N

    def f(coeffs):
        return reference_rhs(FourierSeries(d, N, coeffs))

    k1 = f(c)
    k2 = f(c + 0.5 * dt * k1)
    k3 = f(c + 0.5 * dt * k2)
    k4 = f(c + dt * k3)
    expected = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    state = step_rk4(fresh_state(loop, dt))
    assert state.loop.series.coeffs.tobytes() == expected.tobytes()
    energy = sobolev_energy(FourierSeries(d, N, expected))
    assert state.stats["energy_drift"] == abs(energy - sobolev_energy(loop.series))


@pytest.mark.parametrize("loop", bit_cases(), ids=lambda loop: f"d{loop.d}")
def test_checked_state_residuals_are_constraint_residuals_bitwise(loop):
    # a checked state's residuals are constraint_residuals of its coefficients, on 4N+1 points
    for state in (step_rk4(fresh_state(loop, 1e-2)), integrate(loop, 0.05, 1e-2)):
        check = constraint_residuals(loop.d, loop.k, state.loop.series.coeffs)
        assert list(state.loop.grid_check) == list(check)
        assert struct.pack("<3d", *state.loop.grid_check.values()) == struct.pack("<3d", *check.values())


def reference_march(c, steps):
    """RK4 steps of :func:`reference_rhs` on raw coefficients, of the lengths ``steps``:
    the coefficients they reach."""
    d, N = c.shape[-1], (c.shape[0] - 1) // 2

    def f(coeffs):
        return reference_rhs(FourierSeries(d, N, coeffs))

    for h in steps:
        k1 = f(c)
        k2 = f(c + 0.5 * h * k1)
        k3 = f(c + 0.5 * h * k2)
        k4 = f(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c


@pytest.mark.parametrize("loop", bit_cases(), ids=lambda loop: f"d{loop.d}")
def test_march_matches_chained_reference_steps_bitwise(loop):
    # the padded march: 11 steps of the two-product reference, step i ending at i dt and
    # the last cut short to land on 0.105, reach integrate's state bit for bit; so do
    # 4 such steps from each check time to the next and the state cross_validate checks there
    c0 = loop.series.coeffs
    c = reference_march(c0, [1e-2] * 10 + [0.105 - 10 * 1e-2])
    state = integrate(loop, 0.105, 1e-2)
    assert (state.t, state.stats["steps"]) == (0.105, 11)
    assert state.loop.series.coeffs.tobytes() == c.tobytes()

    checked, wrap = [], integrator._wrap_step

    def spy(*args):
        checked.append(wrap(*args))
        return checked[-1]

    # cross_validate reads only .loop.series off the exact solves; a zero series stands in
    zero = SimpleNamespace(loop=SimpleNamespace(series=FourierSeries(loop.d, 0, np.zeros((1, loop.d, loop.d)))))
    zeros = mock.patch.object(evolution, "solve_many", lambda p, ts: [zero] * len(ts))
    with mock.patch.object(integrator, "_wrap_step", spy), zeros:
        res = cross_validate(loop, 0.105, 1e-2, plan=object(), n_checks=3)
    c, t = c0, 0.0
    assert len(checked) == len(res["curve"]) == 3
    for tc, state, point in zip(np.linspace(0.0, 0.105, 4)[1:], checked, res["curve"]):
        c, t = reference_march(c, [1e-2] * 3 + [tc - (t + 3 * 1e-2)]), tc
        assert (state.t, point["t"]) == (tc, tc)
        assert state.loop.series.coeffs.tobytes() == c.tobytes()
        assert point["l2_gap"] == float(np.sqrt(np.sum(np.abs(c) ** 2)))


def test_cross_validate_solves_every_check_time_in_one_call():
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    plan = make_plan(q)
    calls, solve_many = [], evolution.solve_many

    def spy(p, times):
        calls.append(list(times))
        return solve_many(p, times)

    with mock.patch.object(evolution, "solve_many", spy):
        res = cross_validate(q, 0.2, 1e-2, plan=plan, n_checks=4)
    assert calls == [[point["t"] for point in res["curve"]]]
    assert len(calls[0]) == 4 and calls[0][-1] == 0.2
    # on this datum the block gives each time the loop its lone solve gives it
    lone = mock.patch.object(evolution, "solve_many", lambda p, ts: [solve_many(p, [t])[0] for t in ts])
    with lone:
        assert cross_validate(q, 0.2, 1e-2, plan=plan, n_checks=4) == res


@pytest.mark.parametrize(
    "dt, t_end, n_steps",
    [pytest.param(dt, 20 * dt, 20, id=f"{dt}") for dt in (1e-12, 1e-13, 1e-14)]
    + [pytest.param(1e-2, 7.3, 730, id="7.3")],
)
def test_short_marches_take_every_step_and_land_on_t_end(dt, t_end, n_steps):
    # the stopping slack scales with dt, so a march of 20 tiny steps is not cut short;
    # counted steps land on t_end, where a running sum of t ends at 7.299999999999889
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    state = integrate(q, t_end, dt)
    assert state.stats["steps"] == n_steps
    assert (state.t, state.dt) == (t_end, dt)


def chained(loop, steps):
    """``step_rk4`` with steps of the lengths ``steps``, keeping every state."""
    states = [fresh_state(loop, steps[0])]
    for h in steps:
        states.append(step_rk4(dataclasses.replace(states[-1], dt=h)))
    return states


def assert_states_bitwise_equal(a, b):
    # the chain's t is a running sum; a march's is counted (see the landing tests)
    assert a.dt == b.dt
    assert a.loop.series.coeffs.tobytes() == b.loop.series.coeffs.tobytes()
    assert a.loop.grid_check == b.loop.grid_check
    assert a.stats == b.stats


@pytest.mark.parametrize("loop", bit_cases()[1:], ids=lambda loop: f"d{loop.d}")
def test_integrate_equals_chained_steps_bitwise(loop):
    # integrate marches raw coefficients and checks only the state it returns;
    # 0.105 is no whole number of steps: the short last step runs from 10 dt to it
    for t_end, steps in ((0.1, [1e-2] * 10), (0.105, [1e-2] * 10 + [0.105 - 10 * 1e-2])):
        marched = integrate(loop, t_end, 1e-2)
        assert marched.t == t_end
        assert_states_bitwise_equal(marched, chained(loop, steps)[-1])
    assert marched.dt == pytest.approx(5e-3, rel=1e-12)


def test_cross_validate_drifts_are_the_chained_final_state():
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    plan = make_plan(q)
    res = cross_validate(q, 0.2, 1e-2, plan=plan, n_checks=4)
    final = chained(q, [1e-2] * 20)[-1]
    assert res["energy_drift"] == final.stats["energy_drift"]
    assert res["constraint_drift"] == final.stats["constraint_drift"]
    # the last checked state is integrate's, bit for bit: its gap to the exact solve matches
    marched = integrate(q, 0.2, 1e-2)
    assert res["curve"][-1]["t"] == marched.t == 0.2
    assert_states_bitwise_equal(marched, final)
    exact = solve_at_time(plan, marched.t).loop.series
    n = max(exact.N, marched.loop.N)
    diff = exact.with_cutoff(n).coeffs - marched.loop.series.with_cutoff(n).coeffs
    gap = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
    assert res["curve"][-1]["l2_gap"] == gap


def test_rhs_constant_vanishes():
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1] = pauli_encode((0.0, 1.0, 0.0))
    loop = validate_loop(2, 1, FourierSeries(2, 1, c))
    assert np.max(np.abs(rhs(loop).coeffs)) < 1e-15


def test_rhs_vanishes_on_half_harmonic(rng):
    q = half_harmonic_map(random_blaschke(rng, 2), N=64)
    assert np.linalg.norm(rhs(q).coeffs) < 1e-10


def test_rhs_matches_pauli_cross_product(rng):
    # matrix commutator form against the 3-vector cross-product form, on a
    # band-limited unit path coming from an actual loop
    from hwmlab.grassmann import PAULI

    loop = random_rational_loop(rng, 2, 1, twists=2)
    series = loop.series
    N = series.N
    M = 8 * N + 1
    matrix_rhs = rhs(series)

    # per-component scalar series u_a with coefficients Tr(U_n sigma_a)/2
    comps = []
    for a in range(3):
        cc = 0.5 * np.einsum("nij,ji->n", series.coeffs, PAULI[a])
        comps.append(FourierSeries(1, N, cc.reshape(-1, 1, 1)))
    path = np.stack([evaluate_grid(c, M)[:, 0, 0].real for c in comps])
    dpath = np.stack([evaluate_grid(fractional_derivative(c), M)[:, 0, 0].real for c in comps])
    cross = np.cross(path.T, dpath.T).T
    cross_matrix = np.einsum("am,aij->mij", cross, np.stack(PAULI))
    expected = fit_series(cross_matrix, N)
    gap = np.max(np.abs(matrix_rhs.coeffs - expected))
    assert gap < 1e-10


def test_stationary_profile_drift(rng):
    q = half_harmonic_map(BlaschkeProduct(0.0, (0.2,)), N=24)
    final = integrate(q, 1.0, 1e-2)
    gap = np.max(np.abs(final.loop.series.coeffs - q.series.coeffs))
    assert gap < 1e-8
    assert final.stats["energy_drift"] < 1e-8


def test_constant_datum_fixed_point():
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1] = pauli_encode((0.0, 0.0, 1.0))
    loop = validate_loop(2, 1, FourierSeries(2, 1, c))
    final = integrate(loop, 0.5, 1e-2)
    assert np.array_equal(final.loop.series.coeffs, loop.series.coeffs)


def test_rk4_fourth_order_against_exact():
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    plan = make_plan(q)
    gaps = {dt: cross_validate(q, 1.0, dt, plan=plan, n_checks=2)["max_gap"] for dt in (0.1, 0.05)}
    assert gaps[0.1] / gaps[0.05] == pytest.approx(16.0, rel=0.3)


def test_rk4_resolved_generic_datum():
    rng = np.random.Generator(np.random.Philox(key=11))
    loop = random_rational_loop(rng, 2, 1, twists=2)
    plan = make_plan(loop)
    gaps = {dt: cross_validate(loop, 1.0, dt, plan=plan, n_checks=2, N=32)["max_gap"] for dt in (0.05, 0.025)}
    assert gaps[0.05] / gaps[0.025] == pytest.approx(16.0, rel=0.35)


def test_cross_validation_tight_at_fine_step():
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    plan = make_plan(q)
    res = cross_validate(q, 0.25, 1e-3, plan=plan, n_checks=2, N=32)
    assert res["max_gap"] < 1e-10
    assert res["energy_drift"] < 1e-10


def test_constraint_drift_measurable_without_renormalization():
    rng = np.random.Generator(np.random.Philox(key=11))
    loop = random_rational_loop(rng, 2, 1, twists=2)
    padded = GrassmannLoop(2, 1, loop.series.with_cutoff(24), loop.grid_check)
    raw = integrate(padded, 0.5, 2e-2)
    assert raw.stats["constraint_drift"] < 1e-6


def test_blow_up_guard():
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1] = 3.0 * np.diag([1.0, -1.0])
    c[0] = np.array([[0.0, 2.0], [0.0, 0.0]])
    c[2] = np.array([[0.0, 0.0], [2.0, 0.0]])
    bad = GrassmannLoop(2, 1, FourierSeries(2, 1, c), {})
    with pytest.raises(BlowUpError):
        step_rk4(fresh_state(bad, 1e-3))
    # integrate wraps only its tenth state; the guard stops it on the first raw step
    with pytest.raises(BlowUpError, match=r"at t = 0\.001$"):
        integrate(bad, 1e-2, 1e-3)


def test_blow_up_guard_stops_a_march_at_the_state_that_leaves_the_bound():
    # RK4 at dt*N = 4.8 is unstable on the soliton: the states stay within 2 sqrt(d)
    # for fifteen steps, then one grows past it
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    state = fresh_state(q, 0.3)
    with pytest.raises(BlowUpError) as refused:
        while True:
            state = step_rk4(state)
    # step_rk4 guards the single state it makes; the state it started from passed
    assert state.stats["steps"] == 15
    assert str(refused.value).endswith(f"at t = {state.t + 0.3}")
    # a march guards each state on its next step's samples, and the one it stops at on
    # its own; it counts its steps, so it names the sixteenth state's time as 16 dt
    sup = str(refused.value).rsplit(" at t = ", 1)[0]
    for t_end in (10.0, 16 * 0.3):
        with pytest.warns(UserWarning, match="strains"), pytest.raises(BlowUpError) as marched:
            integrate(q, t_end, 0.3)
        assert str(marched.value) == f"{sup} at t = {16 * 0.3}"


def test_march_to_50_takes_5000_steps():
    # a running sum of t would end 1.4e-12 short of 50 and take a 5001st, sliver step
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    planned = []
    with mock.patch.object(integrator, "_steps", lambda state, *plan: planned.append(plan) or state):
        integrate(q, 50.0, 1e-2)
    assert planned == [(5000, 1e-2, 50.0)]


def test_cross_validate_rejects_cutoff_below_datum():
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    with pytest.raises(ValueError, match="below the datum's cutoff"):
        cross_validate(q, 0.1, 1e-2, plan=object(), n_checks=1, N=8)


def test_integrate_rejects_bad_dt(rng):
    loop = random_rational_loop(rng, 2, 1, twists=1)
    with pytest.raises(ValueError):
        integrate(loop, 1.0, 0.0)


def test_negative_end_time_is_rejected(rng):
    loop = random_rational_loop(rng, 2, 1, twists=1)
    with pytest.raises(ValueError, match="t_end must be nonnegative"):
        integrate(loop, -1.0, 1e-2)
    with pytest.raises(ValueError, match="t_end must be nonnegative"):
        cross_validate(loop, -0.5, 1e-2, plan=object(), n_checks=2)


def test_nan_state_trips_blow_up_guard():
    # NaN compares false against the bound, so the guard is written as a negation
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    with pytest.raises(BlowUpError, match="sup"):
        step_rk4(fresh_state(q, float("nan")))


@pytest.mark.parametrize(
    "t_end, dt, message",
    [
        (1.0, float("nan"), "dt must be positive and finite"),
        (1.0, float("inf"), "dt must be positive and finite"),
        (float("inf"), 1e-2, "t_end must be finite"),
        (float("nan"), 1e-2, "t_end must be finite"),
    ],
)
def test_non_finite_times_are_rejected(t_end, dt, message):
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    with pytest.raises(ValueError, match=message):
        integrate(q, t_end, dt)
    with pytest.raises(ValueError, match=message):
        cross_validate(q, t_end, dt, plan=object(), n_checks=2)


@pytest.mark.parametrize("dt", [5e-324, 1e-300, 1.0 / 2**53 / 1.5])
def test_step_counts_past_2_to_the_53_are_rejected_before_a_step(dt):
    # 1/5e-324 overflows to inf, 1e300 steps would never end, and past 2**53 steps
    # i dt names no distinct step end; a stand-in _steps records any march that starts
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    started = []
    with mock.patch.object(integrator, "_steps", lambda *args: started.append(args)):
        with pytest.raises(ValueError, match="more than 2\\*\\*53"):
            integrate(q, 1.0, dt)
        with pytest.raises(ValueError, match="more than 2\\*\\*53"):
            cross_validate(q, 1.0, dt, plan=object(), n_checks=2)
    assert started == []


@pytest.mark.parametrize("n_checks", [0, -1])
def test_cross_validate_needs_a_check(n_checks):
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    with pytest.raises(ValueError, match="n_checks must be at least 1"):
        cross_validate(q, 0.5, 1e-2, plan=object(), n_checks=n_checks)
