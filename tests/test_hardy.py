import numpy as np
import pytest

from hwmlab.hardy import (
    FourierSeries,
    evaluate_grid,
    fit_padded,
    fit_series,
    fractional_derivative,
    half_norm_sq,
    mean,
    pad_spectrum,
    project_minus,
    project_plus,
    reproduce_check,
    sample_padded,
    shift_backward,
    shift_forward,
    sobolev_energy,
    spectrum_coeffs,
)
from conftest import horner, random_hardy, random_series

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


def test_project_plus_constant_is_kept():
    u = series_from(2, 3, {0: SIGMA3})
    f = project_plus(u)
    assert np.array_equal(f[0], SIGMA3)
    assert np.all(f[1:] == 0)


def test_project_plus_is_a_read_only_view(rng):
    u = random_series(rng, 2, 4)
    f = project_plus(u)
    assert f.shape == (5, 2, 2)
    assert np.shares_memory(f, u.coeffs)
    assert not f.flags.writeable
    assert np.array_equal(f, u.coeffs[4:])


def test_project_plus_kills_antianalytic():
    u = series_from(2, 3, {-1: E12})
    f = project_plus(u)
    assert np.all(f == 0)


def test_project_plus_on_ground_state_profile():
    # off-diagonal loop with unimodular entry z: analytic part is z E21 only
    u = series_from(2, 3, {1: E21, -1: E12})
    f = project_plus(u)
    assert np.array_equal(f[1], E21)
    assert np.max(np.abs(f[0])) == 0.0


def test_projection_orthogonality(rng):
    for _ in range(10):
        u = random_series(rng, 2, 6)
        total = np.linalg.norm(project_plus(u)) ** 2 + np.linalg.norm(project_minus(u).coeffs) ** 2
        assert abs(total - np.linalg.norm(u.coeffs) ** 2) < 1e-13


def test_backward_shift_kills_constants():
    f = np.stack([SIGMA3] + [np.zeros((2, 2))] * 3)
    assert np.all(shift_backward(f) == 0)


def test_shift_defect_identity(rng):
    f = random_hardy(rng, 2, 5, zero_top=True)
    fwd_back = shift_forward(shift_backward(f))
    expected = f.copy()
    expected[0] = 0.0  # S S* = I - mean
    assert np.max(np.abs(fwd_back - expected)) == 0.0
    back_fwd = shift_backward(shift_forward(f))
    assert np.max(np.abs(back_fwd - f)) == 0.0


def test_backward_shift_index():
    f = np.stack([np.zeros((2, 2)), E21, np.zeros((2, 2)), np.zeros((2, 2))]).astype(complex)
    g = shift_backward(f)
    assert np.array_equal(g[0], E21)
    assert np.all(g[1:] == 0)


def test_shift_adjointness(rng):
    for _ in range(10):
        f = random_hardy(rng, 2, 6, zero_top=True)
        g = random_hardy(rng, 2, 6)
        left = np.sum(shift_forward(f) * np.conj(g))
        right = np.sum(f * np.conj(shift_backward(g)))
        assert abs(left - right) < 1e-14


def test_mean_of_constant():
    u = series_from(2, 2, {0: SIGMA3})
    assert np.array_equal(mean(u), SIGMA3)


def test_mean_of_ground_state_is_zero():
    u = series_from(2, 2, {1: E21, -1: E12})
    assert np.max(np.abs(mean(u))) == 0.0


def test_mean_rejects_an_analytic_array(rng):
    with pytest.raises(TypeError, match="FourierSeries"):
        mean(random_hardy(rng, 2, 3))


def test_fractional_derivative_modes():
    u = series_from(2, 2, {0: SIGMA3, 1: E21, -1: E12})
    du = fractional_derivative(u)
    assert np.max(np.abs(du.coeff(0))) == 0.0
    assert np.array_equal(du.coeff(1), E21)
    assert np.array_equal(du.coeff(-1), E12)


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
    assert g.shape == (8, 2, 2)
    assert np.max(np.abs(g - SIGMA3)) < 1e-15


def test_grid_single_mode_pattern():
    A = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    u = series_from(2, 1, {1: A})
    g = evaluate_grid(u, 4)
    for j in range(4):
        assert np.max(np.abs(g[j] - A * 1j**j)) < 1e-14


def test_grid_roundtrip(rng):
    u = random_series(rng, 2, 4)
    back = fit_series(evaluate_grid(u, 16), 4)
    assert np.max(np.abs(back - u.coeffs)) < 1e-12


def reference_evaluate_grid(f, M):
    """The per-mode accumulation loop that the scatter-add replaced."""
    spec = np.zeros((M, f.d, f.d), dtype=complex)
    for n in range(-f.N, f.N + 1):
        spec[n % M] += f.coeffs[n + f.N]
    return np.fft.ifft(spec, axis=0, norm="forward")


def reference_fit_series(values, N):
    """The per-mode copy loop that the gathers replaced."""
    M = values.shape[0]
    spec = np.fft.fft(values, axis=0, norm="forward")
    out = np.zeros((2 * N + 1,) + values.shape[1:], dtype=complex)
    lo, hi = -(M // 2), (M - 1) // 2
    for n in range(-N, N + 1):
        if lo <= n <= hi:
            out[n + N] = spec[n % M]
    return out


# the RK4 march's grid at N = 32 and a 4N+1 check grid of the flow
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N, M", [(4, 16), (4, 9), (32, 128), (42, 169)])
def test_grid_transforms_match_mode_loops(rng, d, N, M):
    f = random_series(rng, d, N)
    g = evaluate_grid(f, M)
    assert g.tobytes() == reference_evaluate_grid(f, M).tobytes()
    for cutoff in (0, 1, N, (M - 1) // 2):
        assert fit_series(g, cutoff).tobytes() == reference_fit_series(g, cutoff).tobytes()


@pytest.mark.parametrize("M", [16, 9])
def test_padded_pair_writes_into_the_buffer_it_is_given(rng, M):
    # the transform scales on every grid, a power of two or odd
    spec = pad_spectrum(random_series(rng, 2, 4).coeffs, M)
    buf = np.empty_like(spec)
    values = sample_padded(spec, out=buf)
    assert values is buf and buf.tobytes() == sample_padded(spec).tobytes()
    buf = np.empty_like(spec)
    fitted = fit_padded(values, 3, out=buf)
    assert fitted is buf and buf.tobytes() == fit_padded(values, 3).tobytes()


def aliasing(M, N):
    return f"grid of {M} points aliases a cutoff-{N} series"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N, M", [(4, 7), (5, 4), (6, 2), (3, 1)])
def test_grid_pair_rejects_aliasing_grids(rng, d, N, M):
    # below 2N+1 points several modes share one grid frequency
    with pytest.raises(ValueError, match=aliasing(M, N)):
        evaluate_grid(random_series(rng, d, N), M)
    with pytest.raises(ValueError, match=aliasing(M, N)):
        fit_series(np.zeros((M, d, d), dtype=complex), N)
    # a fit whose cutoff is above (M-1)/2 on samples that resolve the series
    g = evaluate_grid(random_series(rng, d, N), 2 * N + 1)
    with pytest.raises(ValueError, match=aliasing(2 * N + 1, N + 1)):
        fit_series(g, N + 1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("N, M", [(4, 7), (5, 4), (6, 2), (3, 1), (3, 5)])
def test_padded_helpers_reject_aliasing_grids(rng, d, N, M):
    # the layout and fit helpers raise what the grid pair raises: on 5 points,
    # modes -3..3 with values 1..7 would come back as [1, 2, 3, 4, 5, 1, 2]
    coeffs = random_series(rng, d, N).coeffs
    with pytest.raises(ValueError, match=aliasing(M, N)):
        pad_spectrum(coeffs, M)
    with pytest.raises(ValueError, match=aliasing(M, N)):
        spectrum_coeffs(np.zeros((d, d, M), dtype=complex), N)
    with pytest.raises(ValueError, match=aliasing(M, N)):
        fit_padded(np.zeros((d, d, M), dtype=complex), N)
    # on 2N+1 points the layout round-trips
    spec = pad_spectrum(coeffs, 2 * N + 1)
    assert spectrum_coeffs(spec, N).tobytes() == coeffs.tobytes()


def test_reproduce_at_zero(rng):
    f = random_hardy(rng, 2, 5)
    assert np.max(np.abs(reproduce_check(f, 0.0) - f[0])) < 1e-14


def test_reproduce_two_terms():
    A = np.eye(2, dtype=complex)
    B = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
    f = np.stack([A, B])
    assert np.max(np.abs(reproduce_check(f, 0.5) - (A + 0.5 * B))) < 1e-14


def test_reproduce_matches_horner(rng):
    worst = 0.0
    for _ in range(100):
        f = random_hardy(rng, 2, 6)
        z = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        worst = max(worst, float(np.max(np.abs(reproduce_check(f, z) - horner(f, z)))))
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
