import numpy as np
import pytest

from hwmlab.hardy import FourierSeries
from hwmlab.grassmann import BlaschkeProduct, random_rational_loop, traveling_profile
from hwmlab.evolution import make_plan, solve_at_time
from hwmlab.stability import (
    apply_u_sigma,
    breaking_time,
    hwm_model,
    isometry_model,
    model_at_time,
    parseval_defect,
    strong_stability_test,
    wold_decomposition_estimate,
    zd_bo_model,
    zd_bo_norm_curve,
)

pytestmark = pytest.mark.filterwarnings("ignore::hwmlab.evolution.DegenerateEigenvalueWarning")


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
    sigma = m.sigma_star.conj().T
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
    right = apply_u_sigma(m, m.sigma_star @ v, n).coeffs[:, 0, 0]
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
    r = np.max(np.abs(np.linalg.eigvals(m.sigma_star)))
    assert r == pytest.approx(1.0, abs=1e-12)
    res = strong_stability_test(m, [np.array([0.0, 1.0])], 64, tol=1e-8)
    assert res["verdict"] == "unstable"

    stable = isometry_model(np.zeros((4, 4)), 1.0, d=1, N=3)
    r2 = np.max(np.abs(np.linalg.eigvals(stable.sigma_star)))
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
