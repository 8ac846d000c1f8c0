import numpy as np
import pytest

from hwmlab.hardy import FourierSeries, project_plus
from hwmlab.grassmann import BlaschkeProduct, random_rational_loop, traveling_profile
from hwmlab.evolution import make_plan, solve_at_time
from hwmlab.operators import build_toeplitz, shift_backward_matrix
from hwmlab.stability import (
    apply_u_sigma,
    breaking_time,
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

    On the vector section the start's d columns step side by side as one curve.
    """
    start = np.asarray(v, dtype=complex).reshape(model.lam.size, model.columns, 1)
    means, norms = emit(model.step(model.t), model.mean_map, start, n_max, stop_tol)
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
    return isometry_model(L, 1.0, d=1, N=1)


def test_zd_bo_generator_is_tridiagonal():
    m = zd_bo_model(8, minus_cosine())
    T = (m.vecs * m.lam) @ m.vecs.conj().T
    assert np.max(np.abs(np.diag(T))) < 1e-13
    off = np.diag(T, 1)
    assert np.allclose(off, -0.5)
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
    assert abs(out.coeffs[0, 0, 0] - 1.0) < 1e-13
    assert np.max(np.abs(out.coeffs[1:])) < 1e-13


def test_zero_generator_reproduces_input(rng):
    N = 12
    m = isometry_model(np.zeros((N + 1, N + 1)), 1.0, d=1, N=N)
    v = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    for n_max in (N, 2 * N):
        out = apply_u_sigma(m, v, n_max)
        # the pure shift is nilpotent: past N the output holds zeros, not fewer modes
        assert out.coeffs.shape == (n_max + 1, 1, 1)
        assert np.max(np.abs(out.coeffs[: N + 1, 0, 0] - v)) < 1e-13
        assert not np.any(out.coeffs[N + 1 :])


def test_constant_scalar_symbol_is_unitary(rng):
    c = np.zeros((1, 1, 1), dtype=complex)
    c[0, 0, 0] = 0.7
    m = model_at_time(zd_bo_model(24, FourierSeries(1, 0, c)), 1.5)
    v = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    out = apply_u_sigma(m, v, 24)
    assert abs(np.linalg.norm(out.coeffs) - np.linalg.norm(v)) < 1e-12


def test_intertwining_on_coefficients(rng):
    m = model_at_time(zd_bo_model(32, minus_cosine()), 0.8)
    v = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    n = 16
    left = apply_u_sigma(m, v, n + 1).coeffs[1:, 0, 0]  # S* applied to the output
    right = apply_u_sigma(m, m.step(m.t) @ v, n).coeffs[:, 0, 0]
    assert np.max(np.abs(left[: n + 1] - right)) < 1e-12


def test_hwm_model_matches_explicit_evolution():
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=8)
    plan = make_plan(q)
    t = 0.9
    N = 16
    model = model_at_time(hwm_model(q, 0.0, N), t)
    out = apply_u_sigma(model, analytic_part_vector(q, N), 8)
    exact = solve_at_time(plan, t).loop.series
    for n in range(6):
        assert np.max(np.abs(out.coeffs[n] - exact.coeff(n))) < 1e-10


def test_hwm_rational_models_stable():
    rng = np.random.Generator(np.random.Philox(key=11))
    loop = random_rational_loop(rng, 2, 1, twists=2)
    N = 48
    base = hwm_model(loop, 0.0, N)
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

    stable = isometry_model(np.zeros((4, 4)), 1.0, d=1, N=3)
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
    m = isometry_model(np.zeros((9, 9)), 1.0, d=1, N=8)
    w = wold_decomposition_estimate(m, 16)
    assert w["dim_unitary"] == 0
    assert w["dim_stable"] == 9


def test_wold_hwm_model_trivial():
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=8)
    m = model_at_time(hwm_model(q, 0.0, 12), 1.0)
    w = wold_decomposition_estimate(m, 64, tol=1e-5)
    assert w["dim_unitary"] == 0


def test_wold_flip_model_and_zdbo():
    assert wold_decomposition_estimate(flip_model(), 32)["dim_unitary"] == 1
    m = model_at_time(zd_bo_model(128, minus_cosine()), 0.6)
    w = wold_decomposition_estimate(m, 256, tol=1e-2)
    assert w["dim_unitary"] >= 1


def test_model_at_time_reuses_eigendata():
    base = zd_bo_model(16, minus_cosine())
    m = model_at_time(base, 0.4)
    assert m.lam is base.lam and m.vecs is base.vecs and m.mean_map is base.mean_map
    assert (m.t, base.t) == (0.4, 0.0)
    assert np.array_equal(m.step(m.t), base.step(0.4))


def test_coefficients_converge_with_generator(rng):
    # entrywise generator convergence moves the output coefficients continuously
    N = 16
    base = rng.standard_normal((N + 1, N + 1))
    L = 0.5 * (base + base.T)
    v = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    ref = apply_u_sigma(isometry_model(L, 0.7, d=1, N=N), v, 12).coeffs
    gaps = []
    for eps in (1e-2, 1e-4):
        pert = rng.standard_normal((N + 1, N + 1))
        Lp = L + eps * 0.5 * (pert + pert.T)
        out = apply_u_sigma(isometry_model(Lp, 0.7, d=1, N=N), v, 12).coeffs
        gaps.append(float(np.max(np.abs(out - ref))))
    assert gaps[1] < 1e-1 * gaps[0]


def test_emit_block_columns_follow_their_phased_steps():
    plan = make_plan(traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=16))
    model = plan.model
    times = np.array([0.0, 0.4, 1.3, 2.9])
    phase = model.phases(times)
    w0 = model.vecs.conj().T @ plan.c0
    block = np.repeat(w0[:, None], times.size, axis=1)
    tol = 1e-3
    means, norms = emit(model.eigen_shift, model.eigen_mean_map, block, 200, tol, phase)
    assert means.shape == (norms.shape[0], 2, 2, times.size)
    for j, t in enumerate(times):
        # column j is the eigenbasis image of the one-column dense iteration at time t
        single_means, single_norms = emit(model.step(t), model.mean_map, (model.vecs @ w0)[:, None], 200, tol)
        n = single_norms.shape[0]
        assert np.max(np.abs(means[:n, :, :, j] - single_means[..., 0])) < 1e-13
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
    pu = project_plus(u0.with_cutoff(N)).coeffs.reshape(-1)
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


def test_eigen_shift_is_real_for_a_real_generator():
    assert zd_bo_model(16, minus_cosine()).eigen_shift.dtype == np.float64
    assert np.iscomplexobj(zd_bo_model(16, complex_hermitian_symbol()).eigen_shift)


def stability_case(kind):
    """A retimed model, its analytic-part vector (stops early) and the budget."""
    if kind == "hwm":
        q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.5, N=8)
        return model_at_time(hwm_model(q, 0.0, 16), 0.9), analytic_part_vector(q, 16), 12
    m = model_at_time(zd_bo_model(48, minus_cosine()), 0.3)
    return m, project_plus(minus_cosine().with_cutoff(48)).coeffs.reshape(-1), 64


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
        single = parseval_defect(model, v, n_max, tol * 0.5)
        for r in (rep, single):
            assert r.n_steps == norms.size - 1
            assert np.max(np.abs(r.norms - norms)) < 1e-13
            assert np.max(np.abs(r.emitted_sq - np.linalg.norm(means, axis=(1, 2)) ** 2)) < 1e-13
        assert verdict == dense_verdict(norms, tol)
        full_means, _ = dense_curve(model, v, n_max)
        assert np.max(np.abs(apply_u_sigma(model, v, n_max).coeffs - full_means)) < 1e-13
    assert res["per_vector"][0] == "stable" != res["per_vector"][1]


def test_strong_stability_test_needs_a_vector():
    with pytest.raises(ValueError, match="at least one vector"):
        strong_stability_test(flip_model(), [], 8)


@pytest.mark.parametrize("case", [2, 3, 4, "embedded"])
def test_hwm_model_matches_matrix_section_reference(case, rng):
    from test_operators import kronecker_oracle_loop

    loop, N, t, n_max, tol = kronecker_oracle_loop(case), 16, 0.9, 16, 1e-6
    d = loop.d
    model = model_at_time(hwm_model(loop, 0.0, N), t)
    # the dense reference on the matrix-valued space: its own section, eigh and backward shift
    lam, V = np.linalg.eigh(build_toeplitz(loop, N).matrix)
    step = (V * np.exp(-1j * t * lam)) @ V.conj().T @ shift_backward_matrix(d, N)
    dim = step.shape[0]
    mean_map = np.eye(d * d, dim).reshape(d, d, dim)
    early = analytic_part_vector(loop, N)
    probe = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    probe /= np.linalg.norm(probe)
    res = strong_stability_test(model, [early, probe], n_max, tol=tol)
    stops = []
    for v, rep, verdict in zip((early, probe), res["reports"], res["per_vector"]):
        means, norms = (x[..., 0] for x in emit(step, mean_map, v[:, None], n_max, tol * 0.5))
        stops.append(norms.size - 1)
        for r in (rep, parseval_defect(model, v, n_max, tol * 0.5)):
            assert r.n_steps == norms.size - 1
            assert np.max(np.abs(r.norms - norms)) < 1e-13
            assert np.max(np.abs(r.emitted_sq - np.linalg.norm(means, axis=(1, 2)) ** 2)) < 1e-13
        assert verdict == dense_verdict(norms, tol)
        full_means = emit(step, mean_map, v[:, None], n_max)[0][..., 0]
        assert np.max(np.abs(apply_u_sigma(model, v, n_max).coeffs - full_means)) < 1e-13
    # one vector stops early and one runs to the budget
    assert stops[0] < n_max == stops[1]
    rows, block = [], mean_map.reshape(d * d, dim)
    for _ in range(n_max):
        rows.append(block)
        block = block @ step
    sv = np.linalg.svd(np.concatenate(rows), compute_uv=False)
    unitary = int(np.count_nonzero(sv < tol)) + dim - sv.size
    w = wold_decomposition_estimate(model, n_max, tol)
    assert (w["dim_unitary"], w["dim_stable"]) == (unitary, dim - unitary)
