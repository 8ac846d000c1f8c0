import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwmlab.config import ExperimentConfig
from hwmlab.experiments import build_datum, trajectory_rows
from hwmlab.hardy import FourierSeries, project_plus, sobolev_energy, sobolev_norm
from hwmlab.grassmann import (
    TRAVELING_SIGN,
    BlaschkeProduct,
    GrassmannLoop,
    constraint_residuals,
    embed_block,
    half_harmonic_map,
    loop_from_json,
    loop_to_json,
    pauli_encode,
    random_blaschke,
    random_rational_loop,
    random_unitary,
    traveling_profile,
    validate_loop,
)
from hwmlab.operators import NotRationalError, invariant_subspace, key_identity_check, kronecker_rank
from hwmlab.stability import IsometryModel, apply_u_sigma, emit, hwm_model, model_at_time, parseval_defect
from hwmlab.evolution import (
    _block_loops,
    _check_block,
    _spectra,
    _time_blocks,
    SlowDecayWarning,
    SpectralRadiusError,
    conservation_report,
    contraction_spectrum,
    fourier_coefficient,
    intertwining_check,
    lax_residual,
    make_plan,
    recurrence_search,
    solve_at_time,
    solve_many,
)


SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def constant_loop(axis=(0.0, 0.0, 1.0)):
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1] = pauli_encode(axis)
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
    assert plan.model.lam.size == 2
    assert np.allclose(np.sort(plan.model.lam), [-1.0, 1.0])


def test_plan_ground_state_dimension():
    plan = make_plan(half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=8))
    assert plan.model.lam.size <= 4
    assert np.max(np.abs(plan.model.lam)) <= 1.0 + 1e-8


def test_plan_soliton_frequencies():
    plan = make_plan(soliton(0.5))
    assert np.allclose(np.sort(plan.model.lam), [-1.0, -0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("kind", ["rational", "standard"])
def test_plan_step_matches_retimed_model(kind):
    loop = soliton(0.5, N=12)
    plan = make_plan(loop)
    # both models run on the vector section: the plan's eigenvectors span its frame
    model = plan.model if kind == "rational" else hwm_model(loop, plan.N_op)
    rows = (plan.N_op + 1) * loop.d
    assert model.vecs.shape == (rows, plan.model.lam.size if kind == "rational" else rows)
    for t in (0.0, 0.9, 3.7):
        # the retimed model's eigenbasis step, the form every iteration runs on
        m = model_at_time(model, t)
        eigen_form = m.vecs @ (m.phases([m.t]) * m.eigen_shift)
        assert np.max(np.abs(model.step(t) @ m.vecs - eigen_form)) < 1e-13


def test_rational_model_rejects_hardy_element():
    # the plan's model takes section coordinates, but only elements of its frame
    plan = make_plan(soliton(0.5, N=12))
    f = project_plus(plan.source.with_cutoff(plan.N_op))
    assert f.size == plan.model.dim
    # the analytic part lies in the frame: its output modes are the flow's at t = 0
    modes = plan.model.iterate(plan.pu0.reshape(-1), [0.0], 4)[0]
    assert np.max(np.abs(apply_u_sigma(plan.model, f, 4) - modes[..., 0])) < 1e-13
    off = np.zeros_like(f)
    off[-1] = np.eye(2)
    vecs = plan.model.vecs  # an orthonormal basis of the frame
    cols = off.reshape(-1, 2)
    assert np.linalg.norm(cols - vecs @ (vecs.conj().T @ cols)) > 0.5
    with pytest.raises(ValueError, match="off the model's subspace"):
        apply_u_sigma(plan.model, off, 4)
    with pytest.raises(ValueError, match="length"):
        apply_u_sigma(plan.model, np.zeros(plan.model.dim + 1), 4)


def test_plan_propagates_not_rational(rng):
    from test_operators import nonrational_loop

    with pytest.raises(NotRationalError):
        make_plan(nonrational_loop(rng))


def test_mode_zero_frozen_exactly():
    plan = make_plan(soliton(0.6))
    base = fourier_coefficient(plan, 0.0, 0)
    for t in (0.3, 1.7, 9.0):
        assert np.array_equal(fourier_coefficient(plan, t, 0), base)
    # mode 0 is the plan's mean bit for bit, returned as a copy that the caller may write
    assert base.tobytes() == plan.mean0.tobytes()
    want = plan.mean0.copy()
    base += 1.0
    assert plan.mean0.tobytes() == want.tobytes()


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
        for n in range(series.N + 1):
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
        # one eigenvalue per dimension of the plan's space, the constants' d exact zeros last
        assert mu.shape == plan.model.lam.shape and not mu[-plan.d :].any()


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
    (row,) = conservation_report(plan, (0.0,))
    assert row["interior_gap"] < 1e-12


def test_isospectrality_soliton_rotation():
    plan = make_plan(soliton(0.5, N=12))
    (row,) = conservation_report(plan, (1.0,))
    assert row["interior_gap"] < 1e-8


def test_isospectrality_random_rational(twist_plan):
    _, plan = twist_plan
    rows = conservation_report(plan, (0.3, 1.7))
    assert max(r["interior_gap"] for r in rows) < 1e-6
    counts = {r["interior_count"] for r in rows}
    assert counts == {rows[0]["interior_count_base"]}


def narrow_section_plan():
    """A datum whose loop at t = 3.5 reaches mode 79, far past its plan's N_op = 14."""
    cfg = ExperimentConfig(datum="random_rational", twists=6, seed=3922829259)
    return make_plan(build_datum(cfg), N_out=cfg.N_out, rank_tol=cfg.rank_tol, tail_tol=cfg.tail_tol)


def test_isospectrality_reads_each_loop_on_a_section_that_holds_it():
    # at N_op the section cuts the loop off and the interior spectrum drifts by 1.5e-4
    plan = narrow_section_plan()
    (row,) = conservation_report(plan, (3.5,))
    assert solve_at_time(plan, 3.5).loop.N > plan.N_op
    assert row["interior_gap"] <= 1e-12
    assert row["interior_count"] == row["interior_count_base"]


def test_conservation_report_reads_the_datum_spectrum_once_per_cutoff(monkeypatch):
    # one section of the datum per distinct cutoff, and one per sample
    from hwmlab import evolution

    cfg = ExperimentConfig()
    plan = make_plan(build_datum(cfg), N_out=cfg.N_out, rank_tol=cfg.rank_tol, tail_tol=cfg.tail_tol)
    times = np.linspace(0.0, 10.0, 6)
    cutoffs = {max(plan.N_op, s.loop.N) for s in solve_many(plan, times)}
    sections = []
    real = evolution.toeplitz_vector_section
    monkeypatch.setattr(evolution, "toeplitz_vector_section", lambda u, N: sections.append(N) or real(u, N))
    conservation_report(plan, times)
    assert len(sections) == len(cutoffs) + times.size


def test_conservation_report(twist_plan):
    loop, plan = twist_plan
    rows = conservation_report(plan, np.linspace(0.0, 10.0, 11))
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


def test_trajectory_and_conservation_rows_extend_the_sample_diagnostics(twist_plan, monkeypatch):
    # every row carries its sample's diagnostics, the values themselves and not copies
    from hwmlab import evolution

    _, plan = twist_plan
    times = np.linspace(0.0, 2.0, 3)
    solved = []
    real = evolution.solve_many
    monkeypatch.setattr(evolution, "solve_many", lambda plan, times: solved.extend(real(plan, times)) or solved)
    pairs = list(zip(conservation_report(plan, times), solved))
    pairs += trajectory_rows(plan, times)
    assert len(pairs) == 2 * times.size
    for row, s in pairs:
        assert row["t"] == s.t
        for key, value in s.diagnostics.items():
            assert row[key] is value


def test_intertwining_identity(twist_plan):
    _, plan = twist_plan
    assert intertwining_check(plan, 0.0) < 1e-12
    assert intertwining_check(plan, 1.0) < 1e-7


def test_lax_residual_second_order_and_sign():
    q = soliton(0.5, N=16)
    plan = make_plan(q)
    res = {h: lax_residual(plan, 0.5, h, sign=+1) for h in (1e-2, 5e-3)}
    assert res[1e-2] / res[5e-3] == pytest.approx(4.0, rel=0.15)
    wrong = lax_residual(plan, 0.5, 1e-2, sign=-1)
    assert wrong > 1e3 * res[1e-2]


def test_lax_residual_stationary_case():
    plan = make_plan(half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=8))
    assert lax_residual(plan, 0.5, 1e-2) < 1e-10


@pytest.mark.parametrize("h", [0.0, -1e-2, np.nan, np.inf])
def test_lax_residual_rejects_bad_step(h):
    plan = make_plan(half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=8))
    with pytest.raises(ValueError, match="^h must be positive and finite"):
        lax_residual(plan, 0.5, h)


@pytest.mark.parametrize(
    "horizon, coarse_dt, name",
    [
        (-1.0, 0.5, "horizon"),
        (np.nan, 0.5, "horizon"),
        (np.inf, 0.5, "horizon"),
        (2.0, 0.0, "coarse_dt"),
        (2.0, -0.5, "coarse_dt"),
        (2.0, np.nan, "coarse_dt"),
        (2.0, np.inf, "coarse_dt"),
    ],
)
def test_recurrence_search_rejects_bad_times(horizon, coarse_dt, name):
    plan = make_plan(constant_loop())
    with pytest.raises(ValueError, match=f"^{name} must be"):
        recurrence_search(plan, horizon, coarse_dt=coarse_dt)


def test_recurrence_constant_datum():
    plan = make_plan(constant_loop())
    res = recurrence_search(plan, 2.0, coarse_dt=0.5)
    assert res["t_star"] is not None
    assert res["distance"] < res["eps"]


def test_recurrence_short_soliton_horizons_find_no_return():
    # the soliton moves away at once but has not armed by t = 0.1: no return, not a trivial one
    plan = make_plan(soliton(0.5))
    assert recurrence_search(plan, 0.0)["t_star"] == 0.0  # only t = 0 is scanned
    for horizon in (0.05, 0.1, 0.3):
        res = recurrence_search(plan, horizon)
        assert res["t_star"] is None and res["distance"] is None, horizon


def test_recurrence_soliton_period():
    v = 0.5
    plan = make_plan(soliton(v, N=12))
    res = recurrence_search(plan, 20.0, coarse_dt=0.05)
    assert res["t_star"] == pytest.approx(2 * np.pi / v, abs=1e-3)
    assert res["distance"] <= res["eps"]
    assert res["sup_h_half"] < 10.0


@pytest.mark.parametrize("horizon, scanned", [(12.57, 252), (12.58, 252)])
def test_recurrence_finds_a_return_in_the_last_interval(horizon, scanned):
    # the return at 4 pi lies between the last sample, 12.55, and the horizon
    plan = make_plan(soliton(0.5))
    res = recurrence_search(plan, horizon)
    assert res["samples_scanned"] == scanned
    assert res["t_star"] == pytest.approx(4 * np.pi, abs=1e-6)
    assert res["distance"] <= res["eps"]


@pytest.mark.parametrize("horizon", [12.6, 13.0, 20.0])
def test_recurrence_past_the_last_interval_keeps_its_bits(horizon):
    res = recurrence_search(make_plan(soliton(0.5)), horizon)
    assert struct.pack("<2d", res["t_star"], res["distance"]) == struct.pack(
        "<2d", 12.566370614864944, 4.3801042210484733e-10
    )


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
    # an embedded datum's constant block repeats the frequencies +-1; the eigenbasis propagator is exact there
    loops = (
        embed_block(soliton(0.5), 4, 2),
        embed_block(traveling_profile(BlaschkeProduct(0.0, (0.2,)), 0.4, N=32), 4, 2),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loop in loops:
            lam = make_plan(loop).model.lam
            assert np.min(np.diff(lam)) < 1e-12


@settings(max_examples=30)
@given(
    dk=st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
    twists=st.integers(1, 3),
    key=st.integers(0, 2**32 - 1),
)
def test_plan_modes_match_full_section_model(dk, twists, key):
    # the frame is invariant on the vector section, so iterating on it is iterating on the whole section
    d, k = dk
    loop = random_rational_loop(np.random.Generator(np.random.Philox(key=key)), d, k, twists=twists)
    plan = make_plan(loop)
    # a Hankel singular vector is known only to eps sigma_1 / sigma_r, which bounds the
    # residual of a well-conditioned datum by 1e-12 and scales it for an ill-conditioned one
    r, sv = kronecker_rank(loop, plan.N_op)
    assert plan.invariance_residual < 1e-12 * (sv[0] / sv[r - 1] if r else 1.0)
    times, n_max = np.array([0.0, 0.7, 2.9]), 24
    got = plan.model.iterate(plan.pu0.reshape(-1), times, n_max)[0]
    pu = project_plus(loop.series.with_cutoff(plan.N_op)).reshape(-1)
    full = hwm_model(loop, plan.N_op)
    ref = full.iterate(pu, times, n_max)[0]
    assert np.max(np.abs(got - ref)) < 1e-12
    # both models' dense steps act alike on the analytic part, which lies in the frame
    for t in times:
        assert np.max(np.abs(plan.model.step(t) @ plan.pu0 - full.step(t) @ plan.pu0)) < 1e-12
    # S* annihilates the constants, at eigenbasis coordinates V[:d]*, so the stacked
    # eigensolve deflates them; where the radius is not rounding noise it is unchanged
    model = plan.model
    assert np.max(np.abs(model.eigen_shift @ model.eigen_mean_map.conj().T)) < 1e-13
    sweep = np.linspace(0.0, 10.0, 21)
    full_radii = np.max(np.abs(np.linalg.eigvals(model.phases(sweep).T[:, :, None] * model.eigen_shift)), axis=-1)
    radii = _spectra(plan, sweep)[1]
    assert np.all(radii <= full_radii + 1e-11)
    live = full_radii > 1e-2
    assert np.all(np.abs(radii - full_radii)[live] < 1e-10)


def test_frame_keeps_a_direction_far_above_rounding():
    # seed 144's tenth frame direction has singular value 7.1e-11 s_0, five decades above
    # rounding (1.6e-16 s_0); a frame without it flows off by 2.9e-11 per mode at t = 1
    loop = random_rational_loop(np.random.default_rng(144), 4, 1, 6)
    plan = make_plan(loop)
    coeffs = solve_at_time(plan, 1.0).coeffs
    w = len(coeffs) // 2
    pu = project_plus(loop.series.with_cutoff(96)).reshape(-1)
    ref = hwm_model(loop, 96).iterate(pu, [1.0], w)[0][..., 0]
    assert np.max(np.abs(coeffs[w:] - ref)) < 1e-14
    assert plan.model.lam.size == 10


@given(
    dk=st.integers(2, 5).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
    twists=st.integers(1, 6),
    key=st.integers(0, 2**32 - 1),
)
def test_random_rational_family_invariants(dk, twists, key):
    d, k = dk
    assert_family_invariants(random_rational_loop(np.random.Generator(np.random.Philox(key=key)), d, k, twists=twists))


def random_traveling(degree, v, key, conjugate=False):
    """A traveling profile with zeros of radius <= 0.7, conjugated by a random unitary
    if asked; the Blaschke coefficients decay like max|a|^n, so the cutoff keeps the
    dropped tail near 1e-12."""
    rng = np.random.Generator(np.random.Philox(key=key))
    b = random_blaschke(rng, degree, max_radius=0.7)
    a = max(abs(z) for z in b.zeros)
    N = degree + math.ceil(math.log(1e-12) / math.log(a)) + 1
    return traveling_profile(b, v, random_unitary(rng) if conjugate else None, N)


@settings(max_examples=40)
@given(degree=st.integers(1, 3), v=st.floats(-0.95, 0.95), key=st.integers(0, 2**32 - 1))
def test_traveling_profile_family_invariants(degree, v, key):
    assert_family_invariants(random_traveling(degree, v, key))


@settings(max_examples=12)
@given(
    degree=st.integers(1, 3),
    v=st.floats(-0.95, 0.95),
    key=st.integers(0, 2**32 - 1),
    embed=st.booleans(),
    dk=st.integers(3, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
)
def test_conjugated_traveling_family_invariants(degree, v, key, embed, dk):
    # a conjugated datum's mean need not be exactly Hermitian, and the evolved mean
    # must still be the datum's bit for bit
    loop = random_traveling(degree, v, key, conjugate=True)
    assert_family_invariants(embed_block(loop, *dk) if embed else loop)


def assert_family_invariants(loop):
    """JSON round trip, trace identity, and the conserved energy, constraint, mean
    and contraction radius of the evolved loop at four times."""
    restored = loop_from_json(loop_to_json(loop)).series.coeffs
    assert restored.tobytes() == loop.series.coeffs.tobytes()
    e0 = sobolev_energy(loop.series)
    scale = max(1.0, e0)
    plan = make_plan(loop)
    assert key_identity_check(loop, plan.N_op)["trace_gap"] <= 1e-13 * scale
    for s in solve_many(plan, (0.0, 0.7, 3.1, 17.3)):
        assert abs(s.diagnostics["energy"] - e0) <= 1e-12 * scale
        assert s.diagnostics["constraint_residual"] < 1e-9
        assert s.diagnostics["mean"].tobytes() == loop.series.coeff(0).tobytes()
        assert s.diagnostics["spectral_radius"] < 1.0


def test_embedded_datum_evolves(twist_plan):
    from hwmlab.grassmann import embed_block

    q = embed_block(soliton(0.4, N=10), 3, 1)
    plan = make_plan(q)
    s = solve_at_time(plan, 1.0)
    assert s.diagnostics["constraint_residual"] < 1e-9
    assert abs(s.diagnostics["energy"] - q.energy()) < 1e-10


def reference_solve(plan, t):
    """Reference solve: per time one step matrix, one eigensolve and one
    mode loop, on frame coordinates of the dense section step."""
    F = invariant_subspace(plan.source, plan.N_op)[0]
    A = F.conj().T @ plan.model.step(t) @ F
    # S* annihilates the constants, at frame coordinates F[:d]*: their d zeros are exact,
    # and the rest of the spectrum is that of the compression to their complement
    consts = F[: plan.d].conj().T
    assert np.max(np.abs(A @ consts)) < 1e-13
    q = np.linalg.qr(consts, mode="complete")[0][:, plan.d :]
    r = float(np.max(np.abs(np.linalg.eigvals(q.conj().T @ A @ q)), initial=0.0))
    if r >= 1.0:
        raise SpectralRadiusError(f"contraction spectral radius {r} >= 1 at t = {t}")
    # the d columns of the analytic part step as one curve
    coeffs, norms, _ = emit(A, F[: plan.d], (F.conj().T @ plan.pu0)[:, :, None], plan.N_out, plan.tail_tol)
    norms = norms[:, 0]
    # the flow conserves the mean: the emitted mode 0 is the datum's, up to rounding
    assert np.max(np.abs(coeffs[0] - plan.mean0)) < 1e-14
    n = coeffs.shape[0] - 1
    series_coeffs = np.zeros((2 * n + 1, plan.d, plan.d), dtype=complex)
    series_coeffs[n] = plan.mean0
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
    # one block, and all mode counts below 64: each time is checked as its series
    # zero-padded to the widest cutoff
    w = max(s.loop.N for s in samples)
    assert w < 64
    for t, s in zip(FLOW_TIMES, samples):
        ref = reference_solve(plan, t)
        series = s.loop.series
        assert s.diagnostics["n_modes_used"] == series.N == ref["series"].N
        assert np.max(np.abs(series.coeffs - ref["series"].coeffs)) < 1e-14
        # the zeroth mode is frozen bit for bit, at the per-time solve's value
        assert np.array_equal(s.diagnostics["mean"], ref["series"].coeff(0))
        assert np.array_equal(s.diagnostics["mean"], mean)
        assert s.loop.grid_check == constraint_residuals(plan.d, plan.k, series.with_cutoff(w))
        assert s.diagnostics["energy"] == sobolev_energy(series.with_cutoff(w))
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
    monkeypatch.setattr(evolution, "BLOCK_ENTRIES", 7 * plan.model.lam.size**2)
    blocked = solve_many(plan, FLOW_TIMES)
    assert [s.t for s in blocked] == FLOW_TIMES.tolist()
    for a, b in zip(whole, blocked):
        assert a.diagnostics["n_modes_used"] == b.diagnostics["n_modes_used"]
        assert np.max(np.abs(a.loop.series.coeffs - b.loop.series.coeffs)) < 1e-14
    assert solve_many(plan, []) == []


@pytest.mark.parametrize("block_entries", [None, 7])
def test_solve_many_checks_each_time_block_once(flow_plans, monkeypatch, block_entries):
    import hwmlab.evolution as evolution

    plan = flow_plans["generic"]
    if block_entries:
        monkeypatch.setattr(evolution, "BLOCK_ENTRIES", block_entries * plan.model.lam.size**2)
    calls = {"constraint_residuals": 0, "sobolev_energy": 0}
    for name in calls:
        real = getattr(evolution, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(evolution, name, counted)
    solve_many(plan, FLOW_TIMES)
    n_blocks = len(_time_blocks(plan, FLOW_TIMES))
    assert n_blocks == (1 if block_entries is None else 8)
    # the default budget checks each block in one call; the small one holds one time's samples
    n_checks = n_blocks if block_entries is None else FLOW_TIMES.size
    assert calls == {"constraint_residuals": n_checks, "sobolev_energy": n_checks}


def test_grid_checks_stack_at_most_the_block_budget(flow_plans, monkeypatch):
    import hwmlab.evolution as evolution

    # a budget that still holds each plan's 50 step matrices in one block but not its grids:
    # each check stacks at most BLOCK_ENTRIES sample entries, and every bit stays
    whole = {name: solve_many(plan, FLOW_TIMES) for name, plan in flow_plans.items()}
    monkeypatch.setattr(evolution, "BLOCK_ENTRIES", 2000)
    real, stacked = evolution.constraint_residuals, []

    def counted(d, k, loops):
        stacked.append(len(loops) * (2 * loops.shape[1] - 1) * d * d)  # (T, 4n+1, d, d) samples
        return real(d, k, loops)

    monkeypatch.setattr(evolution, "constraint_residuals", counted)
    for name, plan in flow_plans.items():
        assert len(_time_blocks(plan, FLOW_TIMES)) == 1, name
        for a, b in zip(whole[name], solve_many(plan, FLOW_TIMES), strict=True):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert list(a.grid_check) == list(b.grid_check)
            assert struct.pack("<3d", *a.grid_check.values()) == struct.pack("<3d", *b.grid_check.values())
            for key, value in a.diagnostics.items():
                assert np.asarray(value).tobytes() == np.asarray(b.diagnostics[key]).tobytes(), key
    assert max(stacked) <= 2000 and len(stacked) > 2 * len(flow_plans)


def test_solve_many_checks_each_octave_of_mode_counts_once(flow_plans, monkeypatch):
    import hwmlab.evolution as evolution

    # near the unit radius the mode counts spread over octaves: each octave (all counts
    # below 64 in one) is checked once, on its widest cutoff, so no time pays a far wider grid
    times = np.linspace(0.0, 10.0, 101)
    radii = [np.max(np.abs(contraction_spectrum(flow_plans["generic"], t))) for t in times]
    plan = scaled_plan(flow_plans["generic"], 0.9 / max(radii))
    real, cutoffs = evolution.constraint_residuals, []
    monkeypatch.setattr(
        evolution, "constraint_residuals", lambda d, k, loops: cutoffs.append(loops.shape[1] // 2) or real(d, k, loops)
    )
    samples = solve_many(plan, times)
    n = [s.loop.N for s in samples]
    octave = [max(m, 32).bit_length() for m in n]
    widest = {e: max(m for m, f in zip(n, octave) if f == e) for e in octave}
    assert len(_time_blocks(plan, times)) == 1 and len(widest) >= 3
    assert sorted(cutoffs) == sorted(widest.values())
    for s, e in zip(samples, octave):
        assert s.loop.grid_check == real(plan.d, plan.k, s.loop.series.with_cutoff(widest[e]))
        assert s.diagnostics["energy"] == sobolev_energy(s.loop.series.with_cutoff(widest[e]))


def test_flow_blocks_step_only_to_their_predicted_stop(flow_plans, monkeypatch):
    import hwmlab.stability as stability

    # every step a block takes is read by _curve_norms at least once, step 0 included
    real, read = stability._curve_norms, []
    monkeypatch.setattr(stability, "_curve_norms", lambda v: read.append(len(v)) or real(v))
    for name, plan in flow_plans.items():
        read.clear()
        last = max(s.diagnostics["n_modes_used"] for s in solve_many(plan, FLOW_TIMES))
        assert sum(read) <= last + 3, name
        if name == "soliton":  # a nilpotent step
            assert sum(read) <= plan.model.lam.size + 1


def test_a_missed_prediction_reruns_to_the_cap_and_changes_no_bit(flow_plans, monkeypatch):
    import hwmlab.evolution as evolution

    real_iterate, steps = IsometryModel.iterate, []
    monkeypatch.setattr(IsometryModel, "iterate", lambda *a: steps.append(a[3]) or real_iterate(*a))

    def run(plan):
        steps.clear()
        loops, n_used, _, tails = _block_loops(plan, FLOW_TIMES)
        return [a.tobytes() for a in (loops, n_used, tails)], list(steps)

    missed = set()
    for name, plan in flow_plans.items():
        cap = plan.N_out + 1
        want, calls = run(plan)
        assert len(calls) == 1 and calls[0] < cap, name  # a hit: one short run
        with monkeypatch.context() as m:
            # radii of 1e-300 predict a stop at step 1, so the first run takes 3 steps
            m.setattr(evolution, "_spectra", lambda plan, times: (None, np.full(times.size, 1e-300)))
            got, calls = run(plan)
        assert got == want and calls[0] == 3, name
        if calls[1:]:
            assert calls[1:] == [cap], name
            missed.add(name)
        with monkeypatch.context() as m:
            m.setattr(evolution, "STOP_SLACK", 10**9)  # no prediction: one run to the cap
            got, calls = run(plan)
        assert got == want and calls == [cap], name
    assert missed == {"generic", "embedded", "harmonic"}


@pytest.mark.parametrize("name", ["soliton", "embedded"])
def test_lazy_loops_equal_the_eager_build(flow_plans, name):
    plan = flow_plans[name]
    loops, n_used, _, _ = _block_loops(plan, FLOW_TIMES)
    checks, _ = _check_block(plan, loops, n_used)
    w = loops.shape[1] // 2
    for j, s in enumerate(solve_many(plan, FLOW_TIMES)):
        n = int(n_used[j])
        eager = GrassmannLoop(plan.d, plan.k, FourierSeries(plan.d, n, loops[j, w - n : w + n + 1]), checks[j])
        assert (s.loop.d, s.loop.k, s.loop.N) == (eager.d, eager.k, eager.N) == (plan.d, plan.k, n)
        assert s.loop.series.coeffs.tobytes() == eager.series.coeffs.tobytes()
        assert list(s.loop.grid_check) == list(eager.grid_check)
        assert struct.pack("<3d", *s.loop.grid_check.values()) == struct.pack("<3d", *eager.grid_check.values())
        # the mean is a read-only view of the block, equal to the loop's mode 0
        assert s.diagnostics["mean"].tobytes() == eager.series.coeff(0).tobytes()
        assert not s.diagnostics["mean"].flags.writeable and not s.coeffs.flags.writeable


def fresh_deflation(model, d):
    """``EvolutionPlan.deflated_shift`` computed afresh from ``model``."""
    q = np.linalg.qr(model.eigen_mean_map.conj().T, mode="complete")[0][:, d:]
    return q.conj().T, model.eigen_shift @ q


def test_cached_spectra_match_a_fresh_computation(flow_plans, monkeypatch):
    for plan in flow_plans.values():
        model = plan.model
        qh, shift_q = fresh_deflation(model, plan.d)
        compressed = (qh * model.phases(FLOW_TIMES).T[:, None, :]) @ shift_q
        mu = np.concatenate([np.linalg.eigvals(compressed), np.zeros((FLOW_TIMES.size, plan.d))], axis=-1)
        plan = dataclasses.replace(plan)  # a copy with nothing cached
        qr, calls = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or qr(*a, **k))
        for _ in range(2):  # the second call reads the cached deflation
            got_mu, got_r = _spectra(plan, FLOW_TIMES)
            assert got_mu.tobytes() == mu.tobytes()
            assert got_r.tobytes() == np.max(np.abs(mu), axis=-1).tobytes()
        monkeypatch.undo()
        # the plan makes its deflation once, and a plan with another model makes its own
        assert len(calls) == 1
        scaled = scaled_plan(plan, 0.5)
        want = fresh_deflation(scaled.model, plan.d)
        assert [x.tobytes() for x in scaled.deflated_shift] == [x.tobytes() for x in want]
        assert not np.array_equal(scaled.deflated_shift[1], plan.deflated_shift[1])


def scaled_plan(plan, scale):
    """The plan with its eigenvectors scaled by sqrt(scale), which scales every contraction radius by scale."""
    return dataclasses.replace(plan, model=dataclasses.replace(plan.model, vecs=np.sqrt(scale) * plan.model.vecs))


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


def dropped_norms(loop, cap, times):
    """Norm of the analytic modes above ``cap`` at each time, from an uncapped solve."""
    out = []
    for s in solve_many(make_plan(loop), times):
        c, N = s.loop.series.coeffs, s.loop.N
        out.append(float(np.sqrt(np.sum(np.abs(c[N + cap + 1 :]) ** 2))))
    return out


@pytest.mark.parametrize(
    "loop, cap, warns",
    [
        # the cutoff-1 loop needs a second mode only to rounding, so the cap at 1 drops ~1e-17
        (random_rational_loop(np.random.Generator(np.random.Philox(key=42)), 2, 1, twists=1), 1, False),
        (traveling_profile(BlaschkeProduct(0.0, (0.5,)), 0.5, N=64), 10, True),
    ],
)
def test_mode_cap_reports_the_norm_it_drops(loop, cap, warns):
    times = [0.0, 1.0]
    capped = dataclasses.replace(make_plan(loop), N_out=cap)
    got = warned_times(solve_many, capped, times)
    assert got == {"radius": [], "cap": times if warns else []}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowDecayWarning)
        samples = solve_many(capped, times)
    for s, dropped in zip(samples, dropped_norms(loop, cap, times)):
        assert s.diagnostics["n_modes_used"] == cap
        assert abs(s.diagnostics["tail_estimate"] - dropped) <= 1e-15 + 1e-12 * dropped
        assert (s.diagnostics["tail_estimate"] > capped.tail_tol) == warns


def with_cutoff_measure(plan, samples):
    """recurrence_search's distances and norms as one FourierSeries copy per sample computed them."""
    u0 = plan.source
    N = max(u0.N, *(s.loop.N for s in samples))
    loops = [s.loop.series.with_cutoff(N) for s in samples]
    base = u0.with_cutoff(N).coeffs
    dists = [sobolev_norm(FourierSeries(u0.d, N, f.coeffs - base)) for f in loops]
    return np.array(dists), np.array([sobolev_norm(f) for f in loops])


def test_recurrence_search_matches_per_sample_series_bitwise():
    # a horizon just past the soliton's period 4 pi: the scan arms, refines one candidate and returns it
    plan = make_plan(soliton(0.5))
    horizon, coarse_dt = 13.0, 0.05
    ts = np.arange(0.0, horizon + coarse_dt, coarse_dt)
    _, norms = with_cutoff_measure(plan, solve_many(plan, ts))
    res = recurrence_search(plan, horizon, coarse_dt)
    assert res["samples_scanned"] == ts.size and res["t_star"] is not None
    assert struct.pack("<d", res["sup_h_half"]) == struct.pack("<d", float(np.max(norms)))
    dist, _ = with_cutoff_measure(plan, [solve_at_time(plan, res["t_star"])])
    assert struct.pack("<d", res["distance"]) == struct.pack("<d", dist[0])


@pytest.mark.parametrize(
    "horizon, coarse_dt, count",
    [(0.2, 0.1, 3), (0.3, 0.1, 4), (0.7, 0.3, 3), (13.0, 0.3, 44), (0.0, 0.5, 1)],
)
def test_recurrence_search_scans_within_its_horizon(horizon, coarse_dt, count, monkeypatch):
    import hwmlab.evolution as evolution

    plan = make_plan(soliton(0.5))
    block_loops, seen = evolution._block_loops, []

    def recording(plan, times):
        seen.extend(times.tolist())
        return block_loops(plan, times)

    monkeypatch.setattr(evolution, "_block_loops", recording)
    assert recurrence_search(plan, horizon, coarse_dt)["samples_scanned"] == count
    # 3 * 0.1 rounds to 0.30000000000000004: the scan allows a relative slack of 1e-9
    assert seen[:count] == (coarse_dt * np.arange(count)).tolist() and max(seen) <= horizon * (1 + 1e-9)


def test_recurrence_search_builds_no_loop_objects(monkeypatch):
    import hwmlab.evolution as evolution

    plan = make_plan(soliton(0.5))
    built = []

    def counting_loop(*args, **kwargs):
        built.append(args)
        return GrassmannLoop(*args, **kwargs)

    monkeypatch.setattr(evolution, "GrassmannLoop", counting_loop)
    assert recurrence_search(plan, 13.0)["t_star"] is not None
    assert built == []
    # the patch is live: a solve builds no loop, and each record builds its own on first read
    samples = solve_many(plan, [0.0, 1.0])
    assert built == []
    for count, s in enumerate(samples, 1):
        assert s.loop is s.loop
        assert len(built) == count


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"N_out": 0}, "N_out"),
        ({"N_out": -3}, "N_out"),
        ({"rank_tol": 0.0}, "rank_tol"),
        ({"rank_tol": 1.0}, "rank_tol"),
        ({"rank_tol": 2.0}, "rank_tol"),
        ({"rank_tol": np.nan}, "rank_tol"),
        ({"tail_tol": 0.0}, "tail_tol"),
        ({"tail_tol": -1e-12}, "tail_tol"),
        ({"tail_tol": np.nan}, "tail_tol"),
        ({"tail_tol": np.inf}, "tail_tol"),
    ],
)
def test_make_plan_rejects_bad_tolerances_and_caps(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make_plan(soliton(0.5), **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_plan_rejects_a_non_finite_datum(bad):
    # a loop built directly skips validate_loop, so make_plan checks its coefficients itself
    q = traveling_profile(BlaschkeProduct(0.0, (0.3,)), 0.5, N=32)
    coeffs = q.series.coeffs.copy()
    coeffs[q.N + 1, 0, 0] = bad
    loop = GrassmannLoop(q.d, q.k, FourierSeries(q.d, q.N, coeffs), q.grid_check)
    with pytest.raises(ValueError, match="^u0 has a coefficient that is not finite$"):
        make_plan(loop)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda plan, t: fourier_coefficient(plan, t, 2),
        lambda plan, t: fourier_coefficient(plan, t, 0),
        intertwining_check,
        solve_at_time,
        lambda plan, t: solve_many(plan, [0.0, t, 1.0]),
        contraction_spectrum,
        lambda plan, t: parseval_defect(model_at_time(plan.model, t), plan.pu0, 8),
    ],
    ids=["fourier_coefficient", "fourier_coefficient_mode_0", "intertwining_check", "solve_at_time", "solve_many",
         "contraction_spectrum", "parseval_defect"],
)
def test_eigenbasis_paths_reject_non_finite_times(call, t):
    plan = make_plan(soliton(0.5))
    with pytest.raises(ValueError, match=f"^time must be finite, got t = {t}$"):
        call(plan, t)
