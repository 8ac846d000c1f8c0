import tracemalloc

import numpy as np
import pytest

from hwmlab.config import ExperimentConfig
from hwmlab.hardy import FourierSeries, project_plus
from hwmlab.grassmann import BlaschkeProduct, GrassmannLoop, random_rational_loop, traveling_profile
from hwmlab.evolution import make_plan, solve_at_time
from hwmlab.operators import build_toeplitz, shift_backward_matrix
from hwmlab.stability import (
    BLOCK_ENTRIES,
    CHUNK_STEPS,
    PLATEAU_SLOPE,
    apply_u_sigma,
    breaking_time,
    curve_verdict,
    emit,
    hwm_model,
    isometry_model,
    model_at_time,
    parseval_defect,
    strong_stability_test,
    wold_decomposition_estimate,
    zd_bo_model,
    zd_bo_norm_curve,
)


def minus_cosine():
    c = np.zeros((3, 1, 1), dtype=complex)
    c[0, 0, 0] = -0.5
    c[2, 0, 0] = -0.5
    return FourierSeries(1, 1, c)


def analytic_part_vector(loop, N):
    pu = np.zeros((N + 1, loop.d, loop.d), dtype=complex)
    for n in range(min(N, loop.series.N) + 1):
        pu[n] = loop.series.coeff(n)
    return pu.reshape(-1)


def dense_curve(model, v, n_max, stop_tol=None):
    """Dense reference: the step matrix at the model's time iterated on one start, up to its first stop.

    The start's d columns step side by side as one curve; the mean is the
    section's first d rows.
    """
    rows = len(model.vecs)
    start = np.asarray(v, dtype=complex).reshape(rows, model.d, 1)
    means, norms, _ = emit(model.step(model.t), np.eye(model.d, rows), start, n_max, stop_tol)
    return means.reshape(len(means), model.d, model.d), norms[:, 0]


def dense_verdict(norms, tol, plateau_slope=1e-3):
    """``strong_stability_test``'s per-vector rule, read off a dense curve."""
    if norms[-1] <= tol:
        return "stable"
    n = norms.size - 1
    half = max(1, n // 2)
    slope = (np.log2(norms[-1]) - np.log2(norms[half])) / np.log2(n / half)
    return "unstable" if abs(slope) < plateau_slope else "inconclusive"


def flip_model():
    # two-mode scalar model whose contraction has eigenvalue exactly one
    L = (np.pi / 2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return model_at_time(isometry_model(L, d=1, N=1), 1.0)


def test_zd_bo_generator_is_tridiagonal():
    m = zd_bo_model(8, minus_cosine())
    T = (m.vecs * m.lam) @ m.vecs.conj().T
    assert np.max(np.abs(np.diag(T))) < 1e-13
    off = np.diag(T, 1)
    assert np.allclose(off, -1.0)
    assert np.max(np.abs(T - np.diag(off, 1) - np.diag(off, -1))) < 1e-12


def test_zd_bo_requires_real_symbol():
    c = np.zeros((3, 1, 1), dtype=complex)
    c[2, 0, 0] = 1.0
    with pytest.raises(ValueError):
        zd_bo_model(8, FourierSeries(1, 1, c))


def test_breaking_time_of_minus_cosine():
    assert breaking_time(minus_cosine()) == pytest.approx(0.5, abs=1e-6)
    const = np.zeros((1, 1, 1), dtype=complex)
    assert breaking_time(FourierSeries(1, 0, const)) == np.inf


def test_isometry_interior_columns():
    m = model_at_time(zd_bo_model(32, minus_cosine()), 0.7)
    sigma = m.step(m.t).conj().T
    gram = sigma.conj().T @ sigma
    # the isometry defect is the exponential-spread image of the dropped top
    # mode; it decays super-exponentially away from the edge
    inner = gram[:16, :16]
    assert np.max(np.abs(inner - np.eye(16))) < 1e-12
    assert abs(gram[-1, -1]) < 1.0  # the top column is genuinely deficient


def test_model_at_time_reuses_the_eigenbasis_arrays(rng):
    loop = random_rational_loop(rng, 2, 1, twists=2)
    base = hwm_model(loop, 8)
    m = model_at_time(base, 0.6)
    assert m.t == 0.6 and base.t == 0.0
    assert m.eigen_shift is base.eigen_shift
    assert m.eigen_mean_map is base.eigen_mean_map
    assert model_at_time(m, 1.1).eigen_shift is base.eigen_shift
    # the re-timed model iterates as an independent build re-timed to that time
    v = rng.standard_normal(base.dim) + 1j * rng.standard_normal(base.dim)
    fresh = model_at_time(hwm_model(loop, 8), 0.6)
    got, want = m.iterate(v, [m.t], 12), fresh.iterate(v, [fresh.t], 12)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_isometry_model_rejects_a_nan_generator():
    # a NaN gap fails every comparison, so the check asks for a gap of at most 1e-10
    L = np.eye(4)
    L[0, 1] = L[1, 0] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        isometry_model(L, d=1, N=3)


def test_hwm_model_rejects_a_loop_whose_section_is_not_hermitian():
    # a soliton with one mode-(+1) entry raised by 1e-6, built past validation: eigh reads
    # one triangle, so an unchecked solve gives a generator with eigenvalue -1.00000087
    base = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    coeffs = base.series.coeffs.copy()
    coeffs[base.N + 1, 1, 0] += 1e-6
    loop = GrassmannLoop(base.d, base.k, FourierSeries(base.d, base.N, coeffs), base.grid_check)
    with pytest.raises(ValueError, match="not Hermitian"):
        hwm_model(loop, 8)


def test_a_nan_start_is_rejected():
    # likewise the subspace check asks for a residual of at most 1e-10 |start|
    loop = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)
    plan = make_plan(loop)
    start = np.full(plan.model.dim, np.nan, dtype=complex)
    with pytest.raises(ValueError, match="off the model's subspace"):
        apply_u_sigma(plan.model, start, 4)
    model = hwm_model(loop, 16)
    start = analytic_part_vector(loop, 16)
    start[0] = np.nan
    with pytest.raises(ValueError, match="off the model's subspace"):
        strong_stability_test(model, [start], 64)


def test_zero_step_defect_curve(rng):
    m = model_at_time(zd_bo_model(16, minus_cosine()), 0.9)
    v = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    rep = parseval_defect(m, v, 0)
    assert rep.n_steps == 0 and rep.norms.shape == rep.emitted_sq.shape == (1,)
    assert rep.norms[0] == pytest.approx(np.linalg.norm(v), rel=1e-13)
    assert rep.emitted_sq[0] == pytest.approx(abs(v[0]) ** 2, rel=1e-13)
    assert rep.telescope_residual == 0.0
    assert rep.tail_slope_per_octave == -np.inf


def test_zd_bo_norm_curve_needs_a_cutoff():
    with pytest.raises(ValueError, match="at least one cutoff"):
        zd_bo_norm_curve(minus_cosine(), (0.4,), Ns=())


@pytest.mark.parametrize("times", [[], (), np.array([])])
def test_zd_bo_norm_curve_needs_a_time(times):
    with pytest.raises(ValueError, match="at least one time, got times = "):
        zd_bo_norm_curve(minus_cosine(), times, Ns=(16,))


def test_defect_curve_monotone_and_telescoping(rng):
    m = model_at_time(zd_bo_model(64, minus_cosine()), 0.9)
    v = rng.standard_normal(65) + 1j * rng.standard_normal(65)
    rep = parseval_defect(m, v, 200)
    assert np.all(np.diff(rep.norms) <= 1e-12)
    assert rep.telescope_residual < 1e-10


def test_constants_are_fixed_points():
    m = model_at_time(zd_bo_model(16, minus_cosine()), 1.2)
    e0 = np.zeros(17, dtype=complex)
    e0[0] = 1.0
    out = apply_u_sigma(m, e0, 8)
    assert abs(out[0, 0, 0] - 1.0) < 1e-13
    assert np.max(np.abs(out[1:])) < 1e-13


def test_zero_generator_reproduces_input(rng):
    N = 12
    m = isometry_model(np.zeros((N + 1, N + 1)), d=1, N=N)
    v = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    for n_max in (N, 2 * N):
        out = apply_u_sigma(m, v, n_max)
        # the pure shift is nilpotent: past N the output holds zeros, not fewer modes
        assert out.shape == (n_max + 1, 1, 1)
        assert np.max(np.abs(out[: N + 1, 0, 0] - v)) < 1e-13
        assert not np.any(out[N + 1 :])


def test_constant_scalar_symbol_is_unitary(rng):
    c = np.zeros((1, 1, 1), dtype=complex)
    c[0, 0, 0] = 0.7
    m = model_at_time(zd_bo_model(24, FourierSeries(1, 0, c)), 1.5)
    v = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    out = apply_u_sigma(m, v, 24)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12


def test_intertwining_on_coefficients(rng):
    m = model_at_time(zd_bo_model(32, minus_cosine()), 0.8)
    v = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    n = 16
    left = apply_u_sigma(m, v, n + 1)[1:, 0, 0]  # S* applied to the output
    right = apply_u_sigma(m, m.step(m.t) @ v, n)[:, 0, 0]
    assert np.max(np.abs(left[: n + 1] - right)) < 1e-12


def test_hwm_model_matches_explicit_evolution():
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=8)
    plan = make_plan(q)
    t = 0.9
    N = 16
    model = model_at_time(hwm_model(q, N), t)
    out = apply_u_sigma(model, analytic_part_vector(q, N), 8)
    exact = solve_at_time(plan, t).loop.series
    for n in range(6):
        assert np.max(np.abs(out[n] - exact.coeff(n))) < 1e-10


def test_hwm_rational_models_stable():
    rng = np.random.Generator(np.random.Philox(key=11))
    loop = random_rational_loop(rng, 2, 1, twists=2)
    N = 48
    base = hwm_model(loop, N)
    vec = analytic_part_vector(loop, N)
    for t in (0.5, 1.0, 2.0):
        res = strong_stability_test(model_at_time(base, t), [vec], 2048, tol=1e-6)
        assert res["verdict"] == "stable"


def test_finite_model_verdict_matches_spectral_radius(rng):
    m = flip_model()
    r = np.max(np.abs(np.linalg.eigvals(m.step(m.t))))
    assert r == pytest.approx(1.0, abs=1e-12)
    res = strong_stability_test(m, [np.array([0.0, 1.0])], 64, tol=1e-8)
    assert res["verdict"] == "unstable"

    stable = isometry_model(np.zeros((4, 4)), d=1, N=3)
    r2 = np.max(np.abs(np.linalg.eigvals(stable.step(stable.t))))
    assert r2 < 1.0
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    res2 = strong_stability_test(stable, [v], 32, tol=1e-10)
    assert res2["verdict"] == "stable"


def test_zd_bo_prebreaking_flat_postbreaking_deficit():
    res = zd_bo_norm_curve(minus_cosine(), (0.4, 0.6), Ns=(128, 256), checkpoint=512)
    by = {(r["t"], r["N"]): r for r in res["rows"]}
    for N in (128, 256):
        assert by[(0.4, N)]["deficit"] < 1e-8
        assert by[(0.6, N)]["deficit"] > 1e-3
    assert abs(by[(0.6, 128)]["deficit"] - by[(0.6, 256)]["deficit"]) < 0.3 * by[(0.6, 256)]["deficit"]
    assert by[(0.4, 128)]["norm"] == pytest.approx(0.5, abs=1e-8)


def test_zd_bo_unstable_verdict_at_plateau():
    m = model_at_time(zd_bo_model(256, minus_cosine()), 0.6)
    pu = np.zeros(257, dtype=complex)
    pu[1] = -0.5
    res = strong_stability_test(m, [pu], 1024, tol=1e-4)
    assert res["verdict"] == "unstable"


def test_wold_trivial_for_plain_shift():
    m = isometry_model(np.zeros((9, 9)), d=1, N=8)
    w = wold_decomposition_estimate(m, 16)
    assert w["dim_unitary"] == 0
    assert w["dim_stable"] == 9


def test_wold_hwm_model_trivial():
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=8)
    m = model_at_time(hwm_model(q, 12), 1.0)
    w = wold_decomposition_estimate(m, 64)
    assert np.count_nonzero(w["singular_values"] < 1e-5) == 0


def test_wold_flip_model_and_zdbo():
    assert wold_decomposition_estimate(flip_model(), 32)["dim_unitary"] == 1
    m = model_at_time(zd_bo_model(128, minus_cosine()), 0.6)
    w = wold_decomposition_estimate(m, 256)
    assert np.count_nonzero(w["singular_values"] < 1e-2) >= 1


def test_model_at_time_reuses_eigendata():
    base = zd_bo_model(16, minus_cosine())
    m = model_at_time(base, 0.4)
    assert m.lam is base.lam and m.vecs is base.vecs
    assert (m.t, base.t) == (0.4, 0.0)
    assert np.array_equal(m.step(m.t), base.step(0.4))


def test_coefficients_converge_with_generator(rng):
    # entrywise generator convergence moves the output coefficients continuously
    N = 16
    base = rng.standard_normal((N + 1, N + 1))
    L = 0.5 * (base + base.T)
    v = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    ref = apply_u_sigma(model_at_time(isometry_model(L, d=1, N=N), 0.7), v, 12)
    gaps = []
    for eps in (1e-2, 1e-4):
        pert = rng.standard_normal((N + 1, N + 1))
        Lp = L + eps * 0.5 * (pert + pert.T)
        out = apply_u_sigma(model_at_time(isometry_model(Lp, d=1, N=N), 0.7), v, 12)
        gaps.append(float(np.max(np.abs(out - ref))))
    assert gaps[1] < 1e-1 * gaps[0]


def test_emit_block_columns_follow_their_phased_steps():
    plan = make_plan(traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16))
    model = plan.model
    times = np.array([0.0, 0.4, 1.3, 2.9])
    phase = model.phases(times)
    # each curve is the d columns of the analytic part
    w0 = model.vecs.conj().T @ plan.pu0
    block = np.repeat(w0[:, :, None], times.size, axis=2)
    tol = 1e-3
    means, norms, _ = emit(model.eigen_shift, model.eigen_mean_map, block, 200, tol, phase[:, None])
    means = means.reshape(norms.shape[0], 2, 2, times.size)
    for j, t in enumerate(times):
        # curve j is the eigenbasis image of the one-curve dense iteration at time t
        start = (model.vecs @ w0)[:, :, None]
        single_means, single_norms, _ = emit(model.step(t), np.eye(2, len(start)), start, 200, tol)
        n = single_norms.shape[0]
        assert np.max(np.abs(means[:n, :, :, j] - single_means)) < 1e-13
        assert np.max(np.abs(norms[:n, j] - single_norms[:, 0])) < 1e-13
        # each column's own first stop is the one-column stop
        assert np.flatnonzero(norms[1:, j] <= tol)[0] + 1 == n - 1
    assert norms.shape[0] - 1 == max(np.flatnonzero(norms[1:, j] <= tol)[0] + 1 for j in range(times.size))


def complex_hermitian_symbol():
    # real on the circle with complex Fourier coefficients, so the generator is complex
    c = np.zeros((5, 1, 1), dtype=complex)
    c[3, 0, 0] = -0.3 + 0.4j
    c[1, 0, 0] = np.conj(c[3, 0, 0])
    c[4, 0, 0] = 0.1j
    c[0, 0, 0] = np.conj(c[4, 0, 0])
    return FourierSeries(1, 2, c)


@pytest.mark.parametrize("symbol", [minus_cosine, complex_hermitian_symbol])
def test_zd_bo_norm_curve_matches_per_time_defect(symbol):
    u0, N, K = symbol(), 48, 256
    times = (0.2, 0.45, 0.6, 0.9)
    curve = zd_bo_norm_curve(u0, times, Ns=(N,), checkpoint=K)
    base = zd_bo_model(N, u0)
    pu = project_plus(u0.with_cutoff(N)).reshape(-1)
    steps = set()
    for t, row in zip(times, curve["rows"]):
        _, norms = dense_curve(model_at_time(base, t), pu, K, 1e-9)
        assert (row["t"], row["N"]) == (t, N)
        assert row["n_steps"] == norms.size - 1
        assert abs(row["tail_norm"] - norms[-1]) < 1e-13
        assert row["telescope_residual"] < 1e-10
        steps.add(norms.size - 1)
    # the block holds columns that stop early next to ones that run to the checkpoint
    assert min(steps) < K == max(steps)


def test_zd_bo_stop_pattern_at_default_times():
    # the default curve at N = 256: three times stop early, four hang at the checkpoint
    cfg = ExperimentConfig()
    curve = zd_bo_norm_curve(minus_cosine(), cfg.zdbo_times, Ns=(256,), checkpoint=cfg.zdbo_checkpoint)
    assert [row["n_steps"] for row in curve["rows"]] == [50, 147, 406, 1024, 1024, 1024, 1024]
    assert curve["onsets"] == {256: 0.525}


def test_zd_bo_onset_is_the_smallest_crossing_in_any_order():
    times = (0.3, 0.4, 0.45, 0.5, 0.525, 0.55, 0.6)
    want = zd_bo_norm_curve(minus_cosine(), times, Ns=(128, 256))["onsets"]
    assert want[256] == 0.525
    # the first listed crossing, 0.6 here, is not the onset
    for permuted in ((0.6, 0.3, 0.45, 0.5, 0.525, 0.55, 0.4), times[::-1]):
        assert zd_bo_norm_curve(minus_cosine(), permuted, Ns=(128, 256))["onsets"] == want


def test_emit_real_step_matches_complex_step(rng):
    dim, T, n_max = 12, 3, 9
    A = rng.standard_normal((dim, dim)) / (2 * np.sqrt(dim))
    mean_map = rng.standard_normal((1, 1, dim)) + 1j * rng.standard_normal((1, 1, dim))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # a transposed view: the block need not be C-contiguous
    block = (rng.standard_normal((T, dim)) + 1j * rng.standard_normal((T, dim))).T
    phase = np.exp(1j * rng.standard_normal((dim, T)))
    for start, ph in ((v[:, None], None), (block, phase)):
        got = emit(A, mean_map, start, n_max, None, ph)
        ref = emit(A.astype(complex), mean_map, start, n_max, None, ph)
        for x, y in zip(got, ref):
            assert x.shape == y.shape and np.max(np.abs(x - y)) < 1e-14
    # both paths step the transposed start exactly as its contiguous copy, with and without stops
    for step in (A, A.astype(complex)):
        for tol in (None, 0.3):
            got = emit(step, mean_map, block, n_max, tol, phase)
            ref = emit(step, mean_map, np.ascontiguousarray(block), n_max, tol, phase)
            assert all(np.array_equal(x, y) for x, y in zip(got, ref))


@pytest.mark.parametrize("kind", ["hwm", "zdbo"])
def test_emit_steps_only_live_columns(kind, rng):
    model, early, n_max = stability_case(kind)
    probe = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    constant = np.zeros(model.dim, dtype=complex)
    constant[: model.d**2] = 1.0  # mode 0 only: the backward shift removes it in one step
    x = np.stack([early, probe, constant, early], axis=1)
    times = model.t + np.array([0.0, 0.3, 0.6, 1.1])
    tol = 5e-7
    # iterate runs one (dim, g, T) block with (dim, 1, T) phases; g = 2 on the hwm vector section
    means, norms, stops = model.iterate(x, times, n_max, tol)
    assert stops[1] == n_max and stops[2] == 1 and np.unique(stops).size == 3
    assert norms.shape[0] - 1 == stops.max()
    full_means, full_norms, full_stops = model.iterate(x, times, n_max)
    assert full_norms.shape[0] == n_max + 1 and (full_stops == n_max).all()
    for j, (n, t) in enumerate(zip(stops.tolist(), times)):
        single_means, single_norms, single_stops = model.iterate(x[:, j], [t], n_max, tol)
        assert single_norms.shape[0] == n + 1 and single_stops.tolist() == [n]
        # the returned stop is the first step from step 1 on whose norm is at most tol
        assert (norms[1:n, j] > tol).all() and (norms[n, j] <= tol or n == n_max)
        for m, nm in ((single_means[..., 0], single_norms[:, 0]), (full_means[..., j], full_norms[:, j])):
            assert np.max(np.abs(means[: n + 1, ..., j] - m[: n + 1])) < 1e-13
            assert np.max(np.abs(norms[: n + 1, j] - nm[: n + 1])) < 1e-13
        # a column is not stepped after its stop: its later entries are exactly zero
        assert not means[n + 1 :, ..., j].any() and not norms[n + 1 :, j].any()


def per_step_curves(A, mean_map, v, n_max, stop_tol, phase):
    """``emit``'s contract as a plain loop: product, phase, mean, norm, then drop after the stop."""
    dim, T = len(v), v.shape[-1]
    rows = mean_map.reshape(-1, dim)
    x = np.array(v, dtype=complex)
    live = np.ones(T, dtype=bool)
    means, norms = [], []
    for n in range(n_max + 1):
        if n:
            x = (A @ x.reshape(dim, -1)).reshape(x.shape)
            if phase is not None:
                x = x * phase
        mean = (rows @ x.reshape(dim, -1)).reshape(len(rows), -1, T)
        norm = np.sqrt(np.sum(np.abs(x) ** 2, axis=tuple(range(x.ndim - 1))))
        means.append(np.where(live, mean, 0.0))
        norms.append(np.where(live, norm, 0.0))
        if stop_tol is not None and n:
            live &= norm > stop_tol
            if not live.any():
                break
    return np.stack(means).reshape((len(means),) + mean_map.shape[:-1] + (-1,)), np.stack(norms)


def shift_case(stops, kind, rng):
    """A step that moves rows up by one, and curves of two columns whose norms
    first fall below 1e-3 at the given steps (None: not within 111 steps).

    Small entries further above the diagonal mix the rows, and the top row
    wraps to the bottom scaled by ``eps``.  A column supported on its first s
    rows with entry 1 in row s - 1 keeps norm at least that entry's share for
    s - 1 steps and is of order ``eps`` from step s on, so the stop is step s,
    and the curve is not 0 after it.  A curve of norm 1e-4 (s = 0) stops at
    step 1, the first step that can stop.
    """
    dim, eps = 112, 1e-5
    A = np.eye(dim, k=1) + np.triu(rng.standard_normal((dim, dim)), 2) * (0.005 / np.sqrt(dim))
    if kind == "complex":
        A = A + 1j * np.triu(rng.standard_normal((dim, dim)), 2) * (0.005 / np.sqrt(dim))
    A[-1, 0] = eps
    v = np.zeros((dim, 2, len(stops)), dtype=complex)
    for j, s in enumerate(stops):
        if s == 0:
            v[:, 0, j] = rng.standard_normal(dim)
            v[..., j] *= 1e-4 / np.linalg.norm(v[..., j])
            continue
        s = dim if s is None else s
        v[:s, 0, j] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        v[s - 1, 0, j] = 1.0
        v[: s - 1, 1, j] = rng.standard_normal(s - 1)
        v[..., j] /= np.linalg.norm(v[..., j])
    mean_map = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, (dim, 1, len(stops))))
    return A, mean_map, v, phase


K = CHUNK_STEPS


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize(
    "stops, n_max, stop_tol",
    [
        ([0, 1, K - 1, K, K + 1, None], 2 * K + 3, 1e-3),  # stops at chunk offsets 1, K-1, K, K+1
        ([3, None], K - 1, 1e-3),
        ([K, None], K, 1e-3),
        ([K + 1, None], K + 1, 1e-3),
        ([None, 7], K - 1, None),
        ([None, K], K, None),
        ([None, 2], K + 1, None),
        ([1, 5, K - 1], 3 * K, 1e-3),  # every curve stops in the first chunk
        ([2, 9, 2 * K + 1], 3 * K, 1e-3),
    ],
)
def test_emit_matches_a_per_step_loop(kind, stops, n_max, stop_tol, rng):
    A, mean_map, v, phase = shift_case(stops, kind, rng)
    assert v.size * K <= BLOCK_ENTRIES  # the block steps in full chunks
    got_means, got_norms, got_stops = emit(A, mean_map, v, n_max, stop_tol, phase)
    want_means, want_norms = per_step_curves(A, mean_map, v, n_max, stop_tol, phase)
    assert got_means.shape == want_means.shape and got_norms.shape == want_norms.shape
    assert np.max(want_norms) < 4.0
    assert np.max(np.abs(got_means - want_means)) < 1e-13
    assert np.max(np.abs(got_norms - want_norms)) < 1e-13
    if stop_tol is None:
        assert len(got_norms) == n_max + 1 and got_stops.tolist() == [n_max] * len(stops)
        return
    # each curve stops at its given step, the run ends at the last stop, and nothing follows a stop
    expected = [n_max if s is None or s > n_max else max(s, 1) for s in stops]
    assert got_stops.tolist() == expected and len(got_norms) == max(expected) + 1
    for j, s in enumerate(expected):
        assert not got_means[s + 1 :, ..., j :: len(stops)].any() and not got_norms[s + 1 :, j].any()
    # the steps after a stop are not 0 in the iteration itself
    full_norms = emit(A, mean_map, v, n_max, None, phase)[1]
    assert all(full_norms[s + 1 :, j].all() for j, s in enumerate(expected) if stops[j])


def test_negative_step_counts_and_empty_blocks_raise(rng):
    A = rng.standard_normal((4, 4))
    with pytest.raises(ValueError, match="step count must be >= 0, got -1"):
        emit(A, np.eye(1, 4), np.ones((4, 1)), -1)
    with pytest.raises(ValueError, match="step count must be >= 0, got -3"):
        zd_bo_norm_curve(minus_cosine(), [0.3], Ns=(16,), checkpoint=-3)
    with pytest.raises(ValueError, match="nonempty block"):
        emit(A, np.eye(1, 4), np.ones((4, 0)), 3)
    for budget in (0, -2):
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            wold_decomposition_estimate(flip_model(), budget)


def test_wold_estimate_steps_a_bounded_chunk():
    # the identity's 512 columns are one 4 MB block; an uncapped chunk would hold 33 of them
    m = model_at_time(zd_bo_model(511, minus_cosine()), 0.7)
    block = 512 * 512 * 16
    m.eigen_shift, m.eigen_mean_map  # built outside the traced call
    tracemalloc.start()
    try:
        wold_decomposition_estimate(m, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # stepping one block at a time, without chunks, this call peaked at 2.02 blocks
    assert peak < 2 * 2.02 * block


def test_eigen_shift_is_real_for_a_real_generator():
    assert zd_bo_model(16, minus_cosine()).eigen_shift.dtype == np.float64
    assert np.iscomplexobj(zd_bo_model(16, complex_hermitian_symbol()).eigen_shift)


def stability_case(kind):
    """A retimed model, its analytic-part vector (stops early) and the budget."""
    if kind == "hwm":
        q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=8)
        return model_at_time(hwm_model(q, 16), 0.9), analytic_part_vector(q, 16), 12
    m = model_at_time(zd_bo_model(48, minus_cosine()), 0.3)
    return m, project_plus(minus_cosine().with_cutoff(48)).reshape(-1), 64


@pytest.mark.parametrize("kind", ["hwm", "zdbo"])
def test_defect_curves_match_dense_reference(kind, rng):
    model, early, n_max = stability_case(kind)
    probe = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    probe /= np.linalg.norm(probe)
    tol = 1e-6
    refs = [dense_curve(model, v, n_max, tol * 0.5) for v in (early, probe)]
    # one vector stops early and one runs to the budget
    assert refs[0][1].size - 1 < n_max == refs[1][1].size - 1
    res = strong_stability_test(model, [early, probe], n_max, tol=tol)
    for v, (means, norms), rep, verdict in zip((early, probe), refs, res["reports"], res["per_vector"]):
        full_means, full_norms = dense_curve(model, v, n_max)
        # the verdict's report stops at tol / 2; parseval_defect runs the whole budget
        for r, (m_ref, n_ref) in ((rep, (means, norms)), (parseval_defect(model, v, n_max), (full_means, full_norms))):
            assert r.n_steps == n_ref.size - 1
            assert np.max(np.abs(r.norms - n_ref)) < 1e-13
            assert np.max(np.abs(r.emitted_sq - np.linalg.norm(m_ref, axis=(1, 2)) ** 2)) < 1e-13
        assert verdict == dense_verdict(norms, tol)
        assert np.max(np.abs(apply_u_sigma(model, v, n_max) - full_means)) < 1e-13
    assert res["per_vector"][0] == "stable" != res["per_vector"][1]


def test_curve_verdict_outcomes():
    # settled wins over any slope; an unsettled curve is unstable only on a flat tail
    assert curve_verdict(True, 5.0) == "stable"
    assert curve_verdict(False, 0.5 * PLATEAU_SLOPE) == "unstable"
    assert curve_verdict(False, -0.5 * PLATEAU_SLOPE) == "unstable"
    assert curve_verdict(False, PLATEAU_SLOPE) == "inconclusive"
    assert curve_verdict(False, -np.inf) == "inconclusive"


def test_strong_stability_test_needs_a_vector():
    with pytest.raises(ValueError, match="at least one vector"):
        strong_stability_test(flip_model(), [], 8)


@pytest.mark.parametrize("case", [2, 3, 4, "embedded"])
def test_hwm_model_matches_matrix_section_reference(case, rng):
    from test_operators import kronecker_oracle_loop

    loop, N, t, n_max, tol = kronecker_oracle_loop(case), 16, 0.9, 16, 1e-6
    d = loop.d
    model = model_at_time(hwm_model(loop, N), t)
    # the dense reference on the matrix-valued space: its own section, eigh and backward shift
    lam, V = np.linalg.eigh(build_toeplitz(loop, N))
    step = (V * np.exp(-1j * t * lam)) @ V.conj().T @ shift_backward_matrix(d, N)
    dim = step.shape[0]
    mean_map = np.eye(d * d, dim).reshape(d, d, dim)
    early = analytic_part_vector(loop, N)
    probe = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    probe /= np.linalg.norm(probe)
    res = strong_stability_test(model, [early, probe], n_max, tol=tol)
    stops = []
    for v, rep, verdict in zip((early, probe), res["reports"], res["per_vector"]):
        means, norms = (x[..., 0] for x in emit(step, mean_map, v[:, None], n_max, tol * 0.5)[:2])
        full_means, full_norms = (x[..., 0] for x in emit(step, mean_map, v[:, None], n_max)[:2])
        stops.append(norms.size - 1)
        # the verdict's report stops at tol / 2; parseval_defect runs the whole budget
        for r, (m_ref, n_ref) in ((rep, (means, norms)), (parseval_defect(model, v, n_max), (full_means, full_norms))):
            assert r.n_steps == n_ref.size - 1
            assert np.max(np.abs(r.norms - n_ref)) < 1e-13
            assert np.max(np.abs(r.emitted_sq - np.linalg.norm(m_ref, axis=(1, 2)) ** 2)) < 1e-13
        assert verdict == dense_verdict(norms, tol)
        assert np.max(np.abs(apply_u_sigma(model, v, n_max) - full_means)) < 1e-13
    # one vector stops early and one runs to the budget
    assert stops[0] < n_max == stops[1]
    rows, block = [], mean_map.reshape(d * d, dim)
    for _ in range(n_max):
        rows.append(block)
        block = block @ step
    sv = np.linalg.svd(np.concatenate(rows), compute_uv=False)
    unitary = int(np.count_nonzero(sv < tol)) + dim - sv.size
    w = wold_decomposition_estimate(model, n_max)
    assert (w["dim_unitary"], w["dim_stable"]) == (unitary, dim - unitary)
