import dataclasses
import warnings

import numpy as np
import pytest

from hwmlab.hardy import FourierSeries, project_plus, sobolev_energy
from hwmlab.grassmann import (
    TRAVELING_SIGN,
    BlaschkeProduct,
    constraint_residuals,
    embed_block,
    half_harmonic_map,
    pauli_encode,
    random_rational_loop,
    traveling_profile,
    validate_loop,
)
from hwmlab.operators import NotRationalError
from hwmlab.stability import apply_u_sigma, emit, hwm_model, model_at_time
from hwmlab.evolution import (
    SlowDecayWarning,
    SpectralRadiusError,
    conservation_report,
    contraction_spectrum,
    fourier_coefficient,
    intertwining_check,
    lax_isospectrality_check,
    lax_residual,
    make_plan,
    recurrence_search,
    solve_at_time,
    solve_many,
)


SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def constant_loop(axis=(0.0, 0.0, 1.0)):
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1] = pauli_encode(axis).U
    return validate_loop(2, 1, FourierSeries(2, 1, c))


def soliton(v=0.5, N=16):
    return traveling_profile(BlaschkeProduct(0.0, (0.0,)), v, N=N)


@pytest.fixture(scope="module")
def twist_plan():
    rng = np.random.Generator(np.random.Philox(key=11))
    loop = random_rational_loop(rng, 2, 1, twists=2)
    return loop, make_plan(loop)


def test_plan_constant_datum():
    plan = make_plan(constant_loop())
    assert plan.dim == 2
    assert np.allclose(np.sort(plan.model.lam), [-1.0, 1.0])


def test_plan_ground_state_dimension():
    plan = make_plan(half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=8))
    assert plan.dim <= 4
    assert np.max(np.abs(plan.model.lam)) <= 1.0 + 1e-8


def test_plan_soliton_frequencies():
    plan = make_plan(soliton(0.5))
    assert np.allclose(np.sort(plan.model.lam), [-1.0, -0.5, -0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("kind", ["rational", "standard"])
def test_plan_step_matches_retimed_model(kind):
    loop = soliton(0.5, N=12)
    # the standard backward shift runs on the flow model's vector section
    model = make_plan(loop).model if kind == "rational" else hwm_model(loop, 0.0, 12)
    for t in (0.0, 0.9, 3.7):
        # the retimed model's eigenbasis step, the form every iteration runs on
        m = model_at_time(model, t)
        eigen_form = m.vecs @ (m.phases([m.t]) * m.eigen_shift) @ m.vecs.conj().T
        assert np.max(np.abs(model.step(t) - eigen_form)) < 1e-13
    assert (model.sstar is None) == (kind == "standard")


def test_rational_model_rejects_hardy_element():
    # a HardyElement lives on the whole truncated space, not on the frame
    plan = make_plan(soliton(0.5, N=12))
    f = project_plus(plan.source.with_cutoff(plan.N_op))
    assert f.coeffs.size != plan.dim
    with pytest.raises(ValueError, match="length"):
        apply_u_sigma(plan.model, f, 4)


def test_plan_propagates_not_rational(rng):
    from test_operators import nonrational_loop

    with pytest.raises(NotRationalError):
        make_plan(nonrational_loop(rng))


def test_mode_zero_frozen_exactly():
    plan = make_plan(soliton(0.6))
    base = fourier_coefficient(plan, 0.0, 0)
    for t in (0.3, 1.7, 9.0):
        assert np.array_equal(fourier_coefficient(plan, t, 0), base)


def test_coefficients_at_time_zero_reproduce_datum():
    q = soliton(0.6)
    plan = make_plan(q)
    for n in range(3):
        assert np.max(np.abs(fourier_coefficient(plan, 0.0, n) - q.series.coeff(n))) < 1e-12


def test_fourier_coefficient_matches_solve_bitwise(twist_plan):
    _, plan = twist_plan
    for t in (0.7, 3.1):
        series = solve_at_time(plan, t).loop.series
        assert series.N >= 2
        # the loop's zeroth mode is assembled as mode + adjoint - frozen mean
        assert np.max(np.abs(fourier_coefficient(plan, t, 0) - series.coeff(0))) < 1e-13
        for n in range(1, series.N + 1):
            assert np.array_equal(fourier_coefficient(plan, t, n), series.coeff(n))


def test_constant_datum_is_fixed_point():
    loop = constant_loop((1.0, 0.0, 0.0))
    plan = make_plan(loop)
    s = solve_at_time(plan, 2.7)
    assert np.max(np.abs(s.loop.series.coeff(0) - loop.series.coeff(0))) < 1e-14
    assert np.max(np.abs(fourier_coefficient(plan, 2.7, 1))) < 1e-14


def test_half_harmonic_map_is_stationary():
    q = half_harmonic_map(BlaschkeProduct(0.2, (0.3, -0.2j)), N=48)
    plan = make_plan(q)
    for t in (0.5, 3.0):
        ser = solve_at_time(plan, t).loop.series
        N = max(ser.N, q.N)
        gap = np.max(np.abs(ser.with_cutoff(N).coeffs - q.series.with_cutoff(N).coeffs))
        assert gap < 1e-8


def test_soliton_translates_with_recorded_sign():
    v = 0.5
    q = soliton(v)
    plan = make_plan(q)
    t = 1.0
    ser = solve_at_time(plan, t).loop.series
    N = max(ser.N, q.N)
    n = np.arange(-N, N + 1)
    rotated = q.series.with_cutoff(N).coeffs * np.exp(1j * n * TRAVELING_SIGN * v * t)[:, None, None]
    gap = np.sqrt(np.sum(np.abs(ser.with_cutoff(N).coeffs - rotated) ** 2))
    assert gap < 1e-7
    wrong = q.series.with_cutoff(N).coeffs * np.exp(-1j * n * TRAVELING_SIGN * v * t)[:, None, None]
    assert np.sqrt(np.sum(np.abs(ser.with_cutoff(N).coeffs - wrong) ** 2)) > 0.1


def test_contraction_spectrum_constant_datum():
    plan = make_plan(constant_loop())
    mu = contraction_spectrum(plan, 1.3)
    assert np.max(np.abs(mu)) < 1e-8


def test_contraction_spectrum_inside_disk(twist_plan):
    _, plan = twist_plan
    for t in (0.0, 0.5, 1.0):
        mu = contraction_spectrum(plan, t)
        assert np.max(np.abs(mu)) < 1.0


def test_contraction_radius_sweep(twist_plan):
    _, plan = twist_plan
    rs = [np.max(np.abs(contraction_spectrum(plan, t))) for t in np.linspace(0.0, 2 * np.pi, 64)]
    assert max(rs) < 1.0


def test_solve_validates_constraints(twist_plan):
    _, plan = twist_plan
    s = solve_at_time(plan, 1.3)
    assert s.diagnostics["constraint_residual"] < 1e-10
    sym = s.loop.series.coeffs
    flipped = np.conj(np.transpose(sym[::-1], (0, 2, 1)))
    assert np.array_equal(sym, flipped)  # Hermitian symmetry exact by construction


def test_tail_bound_honest(twist_plan):
    _, plan = twist_plan
    t = 1.1
    r = float(np.max(np.abs(contraction_spectrum(plan, t))))
    s = solve_at_time(plan, t)
    coeffs = s.loop.series
    mags = [np.linalg.norm(coeffs.coeff(n)) for n in range(1, coeffs.N + 1)]
    # geometric envelope with the measured radius, generous constant
    c0 = max(mags) / max(r, 1e-12)
    for n, m in enumerate(mags, start=1):
        assert m <= 10.0 * c0 * r**n + 1e-13


def test_isospectrality_time_zero(twist_plan):
    _, plan = twist_plan
    rep = lax_isospectrality_check(plan, (0.0,), N=32)
    assert rep["max_gap"] < 1e-12


def test_isospectrality_soliton_rotation():
    plan = make_plan(soliton(0.5, N=12))
    rep = lax_isospectrality_check(plan, (1.0,), N=24)
    assert rep["max_gap"] < 1e-8


def test_isospectrality_random_rational(twist_plan):
    _, plan = twist_plan
    rep = lax_isospectrality_check(plan, (0.3, 1.7), N=48)
    assert rep["max_gap"] < 1e-6
    counts = {r["count"] for r in rep["rows"]}
    assert counts == {rep["rows"][0]["count_base"]}


def test_conservation_report(twist_plan):
    loop, plan = twist_plan
    rows = conservation_report(plan, np.linspace(0.0, 10.0, 11), N_rank=16)
    e0 = rows[0]["energy"]
    m0 = rows[0]["mean"]
    r0 = rows[0]["hankel_rank"]
    i2_0 = rows[0]["I2"]
    for row in rows[1:]:
        assert abs(row["energy"] - e0) < 1e-9
        assert np.array_equal(row["mean"], m0)
        assert row["hankel_rank"] == r0
        assert abs(row["I2"] - i2_0) < 1e-9
    # Schatten-2 sum in the per-column convention equals the energy
    assert abs(i2_0 - e0) < 1e-8


def test_intertwining_identity(twist_plan):
    _, plan = twist_plan
    assert intertwining_check(plan, 0.0) < 1e-12
    assert intertwining_check(plan, 1.0) < 1e-7


def test_lax_residual_second_order_and_sign():
    q = soliton(0.5, N=16)
    plan = make_plan(q)
    res = {h: lax_residual(q, 0.5, h, sign=+1, plan=plan) for h in (1e-2, 5e-3)}
    assert res[1e-2] / res[5e-3] == pytest.approx(4.0, rel=0.15)
    wrong = lax_residual(q, 0.5, 1e-2, sign=-1, plan=plan)
    assert wrong > 1e3 * res[1e-2]


def test_lax_residual_stationary_case():
    q = half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=8)
    plan = make_plan(q)
    assert lax_residual(q, 0.5, 1e-2, plan=plan) < 1e-10


def test_recurrence_constant_datum():
    plan = make_plan(constant_loop())
    res = recurrence_search(plan, 2.0, coarse_dt=0.5)
    assert res["t_star"] is not None
    assert res["distance"] < res["eps"]


def test_recurrence_soliton_period():
    v = 0.5
    plan = make_plan(soliton(v, N=12))
    res = recurrence_search(plan, 20.0, coarse_dt=0.05)
    assert res["t_star"] == pytest.approx(2 * np.pi / v, abs=1e-3)
    assert res["distance"] <= res["eps"]
    assert res["sup_h_half"] < 10.0


def test_recurrence_commensurate_frequencies():
    # soliton frequencies {±1, ±v} are commensurate for v = 0.5: gcd grid 0.5
    v = 0.5
    plan = make_plan(soliton(v, N=12))
    lam = plan.model.lam
    scaled = lam / v
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)
    period = 2 * np.pi / v
    res = recurrence_search(plan, 20.0, coarse_dt=0.05)
    assert res["t_star"] == pytest.approx(period, abs=1e-3)


def test_quasi_periodic_phase_equivalence(twist_plan):
    # commensurate construction: exp(-i t lam) is 2pi-periodic in t lam, so
    # shifting t by the soliton period reproduces the loop to high accuracy
    v = 0.5
    plan = make_plan(soliton(v, N=12))
    period = 2 * np.pi / v
    a = solve_at_time(plan, 0.7).loop.series
    b = solve_at_time(plan, 0.7 + period).loop.series
    N = max(a.N, b.N)
    assert np.max(np.abs(a.with_cutoff(N).coeffs - b.with_cutoff(N).coeffs)) < 1e-9


def test_make_plan_warns_nothing_on_repeated_frequencies():
    # every d >= 2 plan has d-fold frequencies; the eigenbasis propagator is exact there
    loops = (soliton(0.5), embed_block(traveling_profile(BlaschkeProduct(0.0, (0.2,)), 0.4, N=32), 4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loop in loops:
            lam = make_plan(loop).model.lam
            assert np.min(np.diff(lam)) < 1e-12


def test_embedded_datum_evolves(twist_plan):
    from hwmlab.grassmann import embed_block

    q = embed_block(soliton(0.4, N=10), 3, 1)
    plan = make_plan(q)
    s = solve_at_time(plan, 1.0)
    assert s.diagnostics["constraint_residual"] < 1e-9
    assert abs(s.diagnostics["energy"] - q.energy()) < 1e-10


def reference_solve(plan, t):
    """Reference solve: per time one step matrix, one eigensolve and one
    mode loop on the plan's own coordinates."""
    A = plan.model.step(t)
    r = float(np.max(np.abs(np.linalg.eigvals(A))))
    if r >= 1.0:
        raise SpectralRadiusError(f"contraction spectral radius {r} >= 1 at t = {t}")
    coeffs, norms = emit(A, plan.model.mean_map, plan.c0[:, None], plan.N_out, plan.tail_tol)
    coeffs, norms = coeffs[..., 0], norms[:, 0]
    n = coeffs.shape[0] - 1
    series_coeffs = np.zeros((2 * n + 1, plan.d, plan.d), dtype=complex)
    series_coeffs[n] = coeffs[0] + coeffs[0].conj().T - plan.mean0
    series_coeffs[n + 1 :] = coeffs[1:]
    series_coeffs[:n] = coeffs[:0:-1].conj().transpose(0, 2, 1)
    return {"series": FourierSeries(plan.d, n, series_coeffs), "radius": r, "tail": norms[-1]}


def flow_loops():
    """The benchmark's four flow loops: soliton, generic twist loop, embedded d=4 loop, harmonic map."""
    generic = random_rational_loop(np.random.Generator(np.random.Philox(key=424246)), 2, 1, twists=2)
    embedded = embed_block(traveling_profile(BlaschkeProduct(0.0, (0.2,)), 0.4, N=32), 4, 2)
    harmonic = half_harmonic_map(BlaschkeProduct(0.0, (0.5, -0.3 + 0.3j, 0.2j)), N=64)
    return {"soliton": soliton(0.5), "generic": generic, "embedded": embedded, "harmonic": harmonic}


@pytest.fixture(scope="module")
def flow_plans():
    return {name: make_plan(loop) for name, loop in flow_loops().items()}


FLOW_TIMES = np.linspace(0.0, 10.0, 50)


@pytest.mark.parametrize("name", ["soliton", "generic", "embedded", "harmonic"])
def test_solve_many_matches_per_time_reference(flow_plans, name):
    plan = flow_plans[name]
    samples = solve_many(plan, FLOW_TIMES)
    assert [s.t for s in samples] == FLOW_TIMES.tolist()
    mean = samples[0].diagnostics["mean"]
    for t, s in zip(FLOW_TIMES, samples):
        ref = reference_solve(plan, t)
        series = s.loop.series
        assert s.diagnostics["n_modes_used"] == series.N == ref["series"].N
        assert np.max(np.abs(series.coeffs - ref["series"].coeffs)) < 1e-14
        # the zeroth mode is frozen bit for bit, at the per-time solve's value
        assert np.array_equal(s.diagnostics["mean"], ref["series"].coeff(0))
        assert np.array_equal(s.diagnostics["mean"], mean)
        assert s.loop.grid_check == constraint_residuals(plan.d, plan.k, series)
        assert s.diagnostics["energy"] == sobolev_energy(series)
        assert abs(s.diagnostics["spectral_radius"] - ref["radius"]) < 1e-7
        assert abs(s.diagnostics["tail_estimate"] - ref["tail"]) < 1e-15


@pytest.mark.parametrize("name", ["generic"])
def test_solve_many_single_time_is_solve_at_time(flow_plans, name):
    plan = flow_plans[name]
    for t in (0.0, 0.7, 3.1):
        (a,) = solve_many(plan, [t])
        b = solve_at_time(plan, t)
        assert a.t == b.t
        assert a.loop.series.coeffs.tobytes() == b.loop.series.coeffs.tobytes()
        assert a.loop.grid_check == b.loop.grid_check
        for key, value in a.diagnostics.items():
            assert np.asarray(value).tobytes() == np.asarray(b.diagnostics[key]).tobytes()


def test_solve_many_blocks_long_time_arrays(flow_plans, monkeypatch):
    import hwmlab.evolution as evolution

    plan = flow_plans["generic"]
    whole = solve_many(plan, FLOW_TIMES)
    monkeypatch.setattr(evolution, "SOLVE_BLOCK_ENTRIES", 7 * plan.dim**2)
    blocked = solve_many(plan, FLOW_TIMES)
    assert [s.t for s in blocked] == FLOW_TIMES.tolist()
    for a, b in zip(whole, blocked):
        assert a.diagnostics["n_modes_used"] == b.diagnostics["n_modes_used"]
        assert np.max(np.abs(a.loop.series.coeffs - b.loop.series.coeffs)) < 1e-14
    assert solve_many(plan, []) == []


def scaled_plan(plan, scale):
    """The plan with its compressed shift scaled, which scales every contraction radius."""
    return dataclasses.replace(plan, model=dataclasses.replace(plan.model, sstar=scale * plan.model.sstar))


def test_spectral_radius_error_names_first_offending_time(flow_plans):
    plan = flow_plans["generic"]
    radii = np.array([reference_solve(plan, t)["radius"] for t in FLOW_TIMES])
    bad_plan = scaled_plan(plan, 1.0 / np.median(radii))
    first = None
    for t in FLOW_TIMES:
        try:
            reference_solve(bad_plan, t)
        except SpectralRadiusError:
            first = t
            break
    assert first is not None and first > FLOW_TIMES[0]
    with pytest.raises(SpectralRadiusError, match=f"at t = {first}$"):
        solve_many(bad_plan, FLOW_TIMES)


def warned_times(fn, *args) -> dict:
    """Times named by each kind of SlowDecayWarning that fn(*args) raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(*args)
    out = {"radius": [], "cap": []}
    for w in caught:
        assert issubclass(w.category, SlowDecayWarning)
        text = str(w.message)
        kind = "radius" if text.startswith("contraction spectral radius") else "cap"
        out[kind].append(float(text.rsplit("t = ", 1)[1].split(";")[0]))
    return out


def test_slow_decay_warnings_per_offending_time(flow_plans):
    plan = flow_plans["generic"]
    radii = np.array([reference_solve(plan, t)["radius"] for t in FLOW_TIMES])
    times = FLOW_TIMES[np.argmax(radii)] + np.linspace(-0.05, 0.05, 9)
    radii = np.array([reference_solve(plan, t)["radius"] for t in times])
    # the largest radius lands between the slow-decay threshold 1 - 1e-3 and 1
    near = dataclasses.replace(scaled_plan(plan, (1.0 - 2e-4) / np.max(radii)), N_out=6)
    refs = [reference_solve(near, t) for t in times]
    slow = [t for t, ref in zip(times, refs) if ref["radius"] > 1.0 - 1e-3]
    capped = [t for t, ref in zip(times, refs) if ref["tail"] > near.tail_tol and ref["series"].N >= near.N_out]
    assert 1 < len(slow) < times.size and capped
    assert min(abs(ref["radius"] - (1.0 - 1e-3)) for ref in refs) > 1e-7
    got = warned_times(solve_many, near, times)
    assert got == {"radius": slow, "cap": capped}
