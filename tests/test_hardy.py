import numpy as np
import pytest

from hwmlab.hardy import (
    AliasingWarning,
    FourierSeries,
    GridSamples,
    HardyElement,
    evaluate_grid,
    fit_series,
    fractional_derivative,
    half_norm_sq,
    l2_norm,
    mean,
    project_minus,
    project_plus,
    reproduce_check,
    shift_backward,
    shift_forward,
    sobolev_energy,
)
from conftest import random_hardy, random_series

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def series_from(d, N, modes):
    c = np.zeros((2 * N + 1, d, d), dtype=complex)
    for n, m in modes.items():
        c[n + N] = m
    return FourierSeries(d, N, c)


def test_series_shape_validation():
    with pytest.raises(ValueError):
        FourierSeries(2, 2, np.zeros((4, 2, 2)))
    with pytest.raises(ValueError):
        HardyElement(2, 2, np.zeros((3, 2, 3)))


def test_project_plus_constant_is_kept():
    u = series_from(2, 3, {0: SIGMA3})
    f = project_plus(u)
    assert np.array_equal(f.coeffs[0], SIGMA3)
    assert np.all(f.coeffs[1:] == 0)


def test_project_plus_kills_antianalytic():
    u = series_from(2, 3, {-1: E12})
    f = project_plus(u)
    assert np.all(f.coeffs == 0)


def test_project_plus_on_ground_state_profile():
    # off-diagonal loop with unimodular entry z: analytic part is z E21 only
    u = series_from(2, 3, {1: E21, -1: E12})
    f = project_plus(u)
    assert np.array_equal(f.coeffs[1], E21)
    assert np.max(np.abs(f.coeffs[0])) == 0.0


def test_projection_orthogonality(rng):
    for _ in range(10):
        u = random_series(rng, 2, 6)
        total = l2_norm(project_plus(u)) ** 2 + l2_norm(project_minus(u)) ** 2
        assert abs(total - l2_norm(u) ** 2) < 1e-13


def test_backward_shift_kills_constants():
    f = HardyElement(2, 3, np.stack([SIGMA3] + [np.zeros((2, 2))] * 3))
    assert np.all(shift_backward(f).coeffs == 0)


def test_shift_defect_identity(rng):
    f = random_hardy(rng, 2, 5, zero_top=True)
    fwd_back = shift_forward(shift_backward(f))
    expected = f.coeffs.copy()
    expected[0] = 0.0  # S S* = I - mean
    assert np.max(np.abs(fwd_back.coeffs - expected)) == 0.0
    back_fwd = shift_backward(shift_forward(f))
    assert np.max(np.abs(back_fwd.coeffs - f.coeffs)) == 0.0


def test_forward_shift_sets_sticky_truncation_flag(rng):
    f = random_hardy(rng, 2, 3)
    assert shift_forward(f).truncated
    g = random_hardy(rng, 2, 3, zero_top=True)
    assert not shift_forward(g).truncated
    assert shift_backward(shift_forward(f)).truncated


def test_backward_shift_index():
    f = HardyElement(2, 3, np.stack([np.zeros((2, 2)), E21, np.zeros((2, 2)), np.zeros((2, 2))]))
    g = shift_backward(f)
    assert np.array_equal(g.coeffs[0], E21)
    assert np.all(g.coeffs[1:] == 0)


def test_shift_adjointness(rng):
    for _ in range(10):
        f = random_hardy(rng, 2, 6, zero_top=True)
        g = random_hardy(rng, 2, 6)
        left = np.sum(shift_forward(f).coeffs * np.conj(g.coeffs))
        right = np.sum(f.coeffs * np.conj(shift_backward(g).coeffs))
        assert abs(left - right) < 1e-14


def test_mean_of_constant():
    u = series_from(2, 2, {0: SIGMA3})
    assert np.array_equal(mean(u), SIGMA3)


def test_mean_of_ground_state_is_zero():
    u = series_from(2, 2, {1: E21, -1: E12})
    assert np.max(np.abs(mean(u))) == 0.0


def test_fractional_derivative_modes():
    u = series_from(2, 2, {0: SIGMA3, 1: E21, -1: E12})
    du = fractional_derivative(u, "|D|")
    assert np.max(np.abs(du.coeff(0))) == 0.0
    assert np.array_equal(du.coeff(1), E21)
    assert np.array_equal(du.coeff(-1), E12)
    signed = fractional_derivative(u, "D")
    assert np.array_equal(signed.coeff(-1), -E12)
    with pytest.raises(ValueError):
        fractional_derivative(u, "D^2")


def test_energy_of_constant_is_zero():
    assert sobolev_energy(series_from(2, 2, {0: SIGMA3})) == 0.0


def test_energy_of_ground_state():
    u = series_from(2, 2, {1: E21, -1: E12})
    assert abs(sobolev_energy(u) - 1.0) < 1e-15


def test_energy_of_pure_power():
    # winding m off-diagonal loop carries energy m
    for m in (1, 2, 3):
        u = series_from(2, m, {m: E21, -m: E12})
        assert abs(sobolev_energy(u) - m) < 1e-14


def test_hermitian_split_of_half_norm(rng):
    for _ in range(10):
        u = random_series(rng, 2, 6, hermitian=True)
        assert abs(half_norm_sq(project_minus(u)) - 0.5 * half_norm_sq(u)) < 1e-13


def test_grid_constant_series():
    g = evaluate_grid(series_from(2, 0, {0: SIGMA3}), 8)
    assert g.M == 8
    assert np.max(np.abs(g.values - SIGMA3)) < 1e-15


def test_grid_single_mode_pattern():
    A = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    u = series_from(2, 1, {1: A})
    g = evaluate_grid(u, 4)
    for j in range(4):
        assert np.max(np.abs(g.values[j] - A * 1j**j)) < 1e-14


def test_grid_roundtrip(rng):
    u = random_series(rng, 2, 4)
    back = fit_series(evaluate_grid(u, 16), 4)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12


def test_grid_aliasing_warning(rng):
    u = random_series(rng, 2, 4)
    with pytest.warns(AliasingWarning):
        evaluate_grid(u, 5)
    with pytest.warns(AliasingWarning):
        fit_series(GridSamples(2, 5, np.zeros((5, 2, 2))), 4)


def reference_evaluate_grid(f, M):
    """The per-mode accumulation loop that the scatter-add replaced."""
    spec = np.zeros((M, f.d, f.d), dtype=complex)
    for n in range(-f.N, f.N + 1):
        spec[n % M] += f.coeffs[n + f.N]
    return np.fft.ifft(spec, axis=0) * M


def reference_fit_series(g, N):
    """The per-mode copy loop that the masked gather replaced."""
    spec = np.fft.fft(g.values, axis=0) / g.M
    out = np.zeros((2 * N + 1, g.d, g.d), dtype=complex)
    lo, hi = -(g.M // 2), (g.M - 1) // 2
    for n in range(-N, N + 1):
        if lo <= n <= hi:
            out[n + N] = spec[n % g.M]
    return out


@pytest.mark.filterwarnings("ignore::hwmlab.hardy.AliasingWarning")
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N, M", [(4, 16), (4, 9), (4, 7), (5, 4), (6, 2), (3, 1)])
def test_grid_transforms_match_mode_loops(rng, d, N, M):
    # M < 2N+1 folds several modes onto one grid frequency, so the sums'
    # order shows in the bytes
    f = random_series(rng, d, N)
    g = evaluate_grid(f, M)
    assert g.values.tobytes() == reference_evaluate_grid(f, M).tobytes()
    for cutoff in (0, 1, N, 2 * N + 3):
        assert fit_series(g, cutoff).coeffs.tobytes() == reference_fit_series(g, cutoff).tobytes()


def test_reproduce_at_zero(rng):
    f = random_hardy(rng, 2, 5)
    assert np.max(np.abs(reproduce_check(f, 0.0) - f.coeffs[0])) < 1e-14


def test_reproduce_two_terms():
    A = np.eye(2, dtype=complex)
    B = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
    f = HardyElement(2, 1, np.stack([A, B]))
    assert np.max(np.abs(reproduce_check(f, 0.5) - (A + 0.5 * B))) < 1e-14


def test_reproduce_matches_horner(rng):
    worst = 0.0
    for _ in range(100):
        f = random_hardy(rng, 2, 6)
        z = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        worst = max(worst, float(np.max(np.abs(reproduce_check(f, z) - f.eval_at(z)))))
    assert worst < 1e-10


def test_reproduce_rejects_boundary(rng):
    f = random_hardy(rng, 2, 3)
    with pytest.raises(ValueError):
        reproduce_check(f, 1.0)


def test_with_cutoff_pads_and_truncates(rng):
    u = random_series(rng, 2, 3)
    up = u.with_cutoff(5)
    assert up.N == 5
    assert np.array_equal(up.coeff(2), u.coeff(2))
    assert np.max(np.abs(up.coeff(5))) == 0.0
    down = up.with_cutoff(2)
    assert np.array_equal(down.coeff(-2), u.coeff(-2))
