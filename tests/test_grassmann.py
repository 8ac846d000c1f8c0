import json
import struct

import numpy as np
import pytest

from hwmlab.hardy import FourierSeries, evaluate_grid, grid_product, half_norm_sq
from hwmlab.grassmann import (
    PAULI,
    BlaschkeProduct,
    CutoffTooSmallError,
    GapCollapseError,
    ValidationError,
    blaschke_eval,
    blaschke_series,
    constraint_residuals,
    embed_block,
    half_harmonic_map,
    loop_from_json,
    loop_to_json,
    pauli_decode,
    pauli_encode,
    project_to_grassmann,
    random_blaschke,
    random_rational_loop,
    random_unitary,
    traveling_profile,
    validate_loop,
)
from hwmlab.grassmann import _offdiag_loop

E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_pauli_encode_axes():
    assert np.array_equal(pauli_encode((0, 0, 1)), np.diag([1.0, -1.0]))
    assert np.array_equal(pauli_encode((1, 0, 0)), PAULI[0])
    assert abs(pauli_encode((0, 1, 0))[0, 1] + 1j) < 1e-15


def test_pauli_rejects_nonunit():
    with pytest.raises(ValueError):
        pauli_encode((0.0, 0.0, 2.0))


def test_pauli_roundtrip(rng):
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        worst = max(worst, float(np.max(np.abs(pauli_decode(pauli_encode(v)) - v))))
    assert worst < 1e-14


def test_blaschke_identity_zero():
    b = BlaschkeProduct(0.0, (0.0,))
    zs = np.exp(1j * np.linspace(0, 2 * np.pi, 7))
    assert np.max(np.abs(blaschke_eval(b, zs) - zs)) < 1e-15


def test_blaschke_factor_value():
    b = BlaschkeProduct(0.0, (0.5,))
    assert abs(blaschke_eval(b, 1.0) - 1.0) < 1e-15


def test_blaschke_unimodular_on_circle(rng):
    b = random_blaschke(rng, 3)
    zs = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(np.abs(blaschke_eval(b, zs)) - 1.0)) < 1e-12


def test_blaschke_rejects_outside_disk():
    with pytest.raises(ValueError):
        BlaschkeProduct(0.0, (1.2,))
    b = BlaschkeProduct(0.0, (0.5,))
    with pytest.raises(ValueError):
        blaschke_eval(b, 1.5)


def test_blaschke_series_matches_geometric():
    # (z - a)/(1 - a z) = -a + (1 - a^2) sum_{n>=1} a^{n-1} z^n for real a
    a = 0.4
    coeffs = blaschke_series(BlaschkeProduct(0.0, (a,)), 32)
    assert abs(coeffs[0] + a) < 1e-13
    for n in range(1, 8):
        assert abs(coeffs[n] - (1 - a * a) * a ** (n - 1)) < 1e-13


def blaschke_series_reference(b, N):
    # the 1-D FFT fit that blaschke_series ran before it went through fit_series
    M = 4 * N + 1
    theta = 2.0 * np.pi * np.arange(M) / M
    vals = blaschke_eval(b, np.exp(1j * theta))
    spec = np.fft.fft(vals) / M
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[0] = spec[0]
    coeffs[1:] = spec[1 : N + 1]
    return coeffs


@pytest.mark.parametrize(
    "b, N",
    [
        (BlaschkeProduct(0.0, (0.0,)), 4),
        (BlaschkeProduct(0.0, (0.4,)), 32),
        (BlaschkeProduct(1.1, (0.5, -0.3 + 0.3j, 0.2j)), 64),
        (BlaschkeProduct(-2.0, (0.6j, -0.45, 0.1 - 0.5j, 0.3)), 200),
    ],
)
def test_blaschke_series_matches_fft_form_bitwise(b, N):
    assert blaschke_series(b, N).tobytes() == blaschke_series_reference(b, N).tobytes()


def test_blaschke_series_cutoff_guard():
    with pytest.raises(CutoffTooSmallError):
        blaschke_series(BlaschkeProduct(0.0, (0.9,)), 16)
    with pytest.raises(CutoffTooSmallError):
        blaschke_series(BlaschkeProduct(0.0, (0.0, 0.0, 0.0)), 2)


def test_half_harmonic_ground_state_coefficients():
    q = half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=8)
    assert np.max(np.abs(q.series.coeff(1) - E21)) < 1e-14
    assert np.max(np.abs(q.series.coeff(-1) - E12)) < 1e-14
    assert abs(q.energy() - 1.0) < 1e-14


def test_half_harmonic_energy_quantization(rng):
    for m in (1, 2, 3):
        q = half_harmonic_map(random_blaschke(rng, m), N=64)
        assert abs(q.energy() - m) < 1e-8


def test_half_harmonic_constant_case():
    q = half_harmonic_map(BlaschkeProduct(0.7, ()), N=4)
    assert q.energy() < 1e-30
    assert np.max(np.abs(q.series.coeff(1))) < 1e-15


def test_energy_independent_of_conjugation(rng):
    b = random_blaschke(rng, 2)
    e0 = half_harmonic_map(b, N=64).energy()
    e1 = traveling_profile(b, 0.0, random_unitary(rng), 64).energy()
    assert abs(e0 - e1) < 1e-12


def test_traveling_profile_energy_law():
    b = BlaschkeProduct(0.0, (0.0,))
    e0 = traveling_profile(b, 0.0, N=8).energy()
    for v in (0.6, 0.9, 0.99):
        ev = traveling_profile(b, v, N=8).energy()
        assert abs(ev - (1 - v * v) * e0) < 1e-12
    assert traveling_profile(b, 0.99, N=8).energy() < traveling_profile(b, 0.9, N=8).energy()


def test_traveling_profile_mean_pattern(rng):
    U = random_unitary(rng)
    q = traveling_profile(BlaschkeProduct(0.0, (0.0,)), 0.6, U=U, N=8)
    expected = 0.6 * U @ PAULI[2] @ U.conj().T
    assert np.max(np.abs(q.series.coeff(0) - expected)) < 1e-13


def test_traveling_profile_rejects_fast():
    with pytest.raises(ValueError):
        traveling_profile(BlaschkeProduct(0.0, (0.0,)), 1.0, N=8)


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: BlaschkeProduct(0.0, (np.nan,)), r"unit disk, got \(nan\+0j\)"),
        (lambda: BlaschkeProduct(0.0, (complex(0.1, np.nan),)), r"unit disk, got \(0\.1\+nanj\)"),
        (lambda: BlaschkeProduct(np.nan, (0.3,)), "phase must be finite, got nan"),
        (lambda: BlaschkeProduct(np.inf, ()), "phase must be finite, got inf"),
        (lambda: traveling_profile(BlaschkeProduct(0.0, (0.2,)), np.nan, N=16), r"\|v\| < 1, got nan"),
    ],
    ids=["nan-zero", "nan-imaginary-zero", "nan-phase", "inf-phase", "nan-speed"],
)
def test_non_finite_blaschke_data_and_speeds_fail_at_construction(make, named):
    # abs(nan) >= 1 is False: a NaN used to pass these checks and fail later, in the grid
    # check or the cutoff's tail guard, under a name that did not say which input was bad
    with pytest.raises(ValueError, match=named) as raised:
        make()
    assert raised.type is ValueError


def test_loop_validation_residuals(rng):
    q = half_harmonic_map(random_blaschke(rng, 2), N=64)
    assert q.grid_check["involution"] < 1e-10
    assert q.grid_check["hermitian"] < 1e-12
    assert q.grid_check["trace"] < 1e-8


def test_embed_block_cases():
    q = half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=8)
    q3 = embed_block(q, 3, 1)
    assert (q3.d, q3.k) == (3, 1)
    assert abs(q3.series.coeff(0)[2, 2] - 1.0) < 1e-14
    assert abs(q3.energy() - q.energy()) < 1e-13

    q4 = embed_block(q, 4, 2)
    pad = np.diag(q4.series.coeff(0))[2:]
    assert np.allclose(pad, [1.0, -1.0])

    assert embed_block(q, 2, 1) is q

    with pytest.raises(ValueError):
        embed_block(q, 3, 3)


def test_project_identity_on_existing_loop(rng):
    q = half_harmonic_map(random_blaschke(rng, 1), N=32)
    p = project_to_grassmann(q.series, 2, 1)
    assert np.max(np.abs(p.series.coeffs - q.series.coeffs)) < 1e-12


def test_project_repairs_small_noise(rng):
    q = half_harmonic_map(BlaschkeProduct(0.0, (0.3,)), N=32)
    noise = np.zeros_like(q.series.coeffs)
    band = 4
    block = rng.standard_normal((2 * band + 1, 2, 2)) + 1j * rng.standard_normal((2 * band + 1, 2, 2))
    block = 0.5 * (block + np.conj(np.transpose(block[::-1], (0, 2, 1))))
    noise[q.N - band : q.N + band + 1] = 1e-3 * block
    noisy = FourierSeries(2, q.N, q.series.coeffs + noise)
    repaired = project_to_grassmann(noisy, 2, 1)
    gap = np.linalg.norm(repaired.series.coeffs - q.series.coeffs)
    assert gap < 5e-3
    assert repaired.grid_check["involution"] < 1e-10


def test_project_gap_collapse():
    # zero matrix has no spectral gap anywhere
    series = FourierSeries(2, 2, np.zeros((5, 2, 2), dtype=complex))
    with pytest.raises(GapCollapseError):
        project_to_grassmann(series, 2, 1)


def test_validate_loop_rejects_bad_series(rng):
    c = np.zeros((5, 2, 2), dtype=complex)
    c[2] = np.diag([1.0, -1.0]) * 1.5
    with pytest.raises(ValidationError):
        validate_loop(2, 1, FourierSeries(2, 2, c))


def test_nan_coefficients_fail_validation():
    # a NaN residual compares false with every tolerance, so each check is a negated <=
    with pytest.raises(ValidationError):
        validate_loop(2, 1, FourierSeries(2, 1, np.full((3, 2, 2), np.nan)))
    payload = json.loads(loop_to_json(half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=4)))
    payload["coeffs"] = [[float("nan"), 0.0]] * len(payload["coeffs"])
    with pytest.raises(ValueError):
        loop_from_json(json.dumps(payload))


def test_serialization_roundtrip_bit_exact(rng):
    q = half_harmonic_map(random_blaschke(rng, 2), N=64)
    text = loop_to_json(q)
    back = loop_from_json(text)
    assert (back.d, back.k, back.N) == (q.d, q.k, q.N)
    assert np.array_equal(back.series.coeffs, q.series.coeffs)
    payload = json.loads(text)
    assert set(payload) == {"d", "k", "N", "coeffs"}


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda p: [p], "must be an object"),
        (lambda p: {key: v for key, v in p.items() if key != "k"}, "lacks 'k'"),
        (lambda p: {key: v for key, v in p.items() if key != "coeffs"}, "lacks 'coeffs'"),
        (lambda p: {**p, "N": "2"}, "must be integers"),
        (lambda p: {**p, "coeffs": [[0.0, 0.0, 0.0]] + p["coeffs"][1:]}, r"\[re, im\] number pairs"),
        (lambda p: {**p, "coeffs": [0.0] + p["coeffs"][1:]}, r"\[re, im\] number pairs"),
        (lambda p: {**p, "coeffs": [["0", "0"]] + p["coeffs"][1:]}, r"\[re, im\] number pairs"),
    ],
)
def test_loop_from_json_names_malformed_payload(edit, problem):
    payload = json.loads(loop_to_json(half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=2)))
    with pytest.raises(ValueError, match=problem):
        loop_from_json(json.dumps(edit(payload)))


def test_random_rational_loop_validates(rng):
    loop = random_rational_loop(rng, 2, 1, twists=2)
    # W B W* with W of degree two in z: the cutoff is the bandwidth, two
    assert loop.N == 2
    assert np.min(np.abs(loop.series.coeffs[[0, -1]]).max(axis=(1, 2))) > 1e-3
    assert loop.grid_check["involution"] < 1e-10
    loop3 = random_rational_loop(rng, 3, 1, twists=1)
    assert (loop3.d, loop3.k) == (3, 1)


def test_constraint_residuals_quantify_violation():
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1] = np.diag([1.0, -1.0]) * (1.0 + 1e-3)
    res = constraint_residuals(2, 1, FourierSeries(2, 1, c))
    assert 1e-3 < res["involution"] < 5e-3


def test_stacked_residuals_and_half_norm_match_single_calls_bytewise(rng):
    loop = random_rational_loop(rng, 2, 1, twists=2)
    N = loop.N + 3
    group = [loop.series.with_cutoff(N)]
    for j in range(4):
        c = rng.standard_normal((2 * N + 1, 2, 2)) + 1j * rng.standard_normal((2 * N + 1, 2, 2))
        group.append(FourierSeries(2, N, 0.1 * c + group[0].coeffs))
    zeroed = group[1].coeffs.copy()
    zeroed[N + 1] = complex(-0.0, -0.0)  # an all -0.0 mode, which the grid spectrum holds as +0.0
    group.append(FourierSeries(2, N, zeroed))

    def packed(*xs):
        return struct.pack(f"<{len(xs)}d", *xs)

    stack = np.stack([s.coeffs for s in group])
    checks = constraint_residuals(2, 1, stack)
    norms = half_norm_sq(stack)
    assert len(checks) == norms.size == len(group)
    for series, check, norm in zip(group, checks, norms):
        single = constraint_residuals(2, 1, series)
        assert list(check) == list(single)
        assert packed(*check.values()) == packed(*single.values())
        assert packed(norm) == packed(half_norm_sq(series))
    # a stack is one (T, 2N+1, d, d) array; a list of series is rejected
    with pytest.raises(TypeError, match="FourierSeries or a coefficient array"):
        constraint_residuals(2, 1, group)
    with pytest.raises(ValueError, match=r"\(\.\.\., 2N\+1, d, d\)"):
        constraint_residuals(2, 1, stack[:, 1:])


def full_matrix_residuals(d, k, coeffs, M):
    # the full-matrix formulation (both triangles, a broadcast identity), kept as a bitwise reference
    vals = evaluate_grid(coeffs, M)
    lines = (-3, -2, -1)
    return np.stack(
        [
            np.abs(grid_product(vals, vals) - np.eye(d)).max(axis=lines),
            np.abs(vals - vals.swapaxes(-2, -1).conj()).max(axis=lines),
            np.abs(vals.trace(axis1=-2, axis2=-1).real - (d - 2 * k)).max(axis=-1),
        ],
        axis=-1,
    )


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_residuals_match_full_matrix_formulation_bitwise(rng, d):
    N, k = 5, d // 2
    U = random_unitary(rng, d)
    base = np.zeros((2 * N + 1, d, d), dtype=complex)
    base[N] = (U * np.r_[-np.ones(k), np.ones(d - k)]) @ U.conj().T
    noise = rng.standard_normal((3,) + base.shape) + 1j * rng.standard_normal((3,) + base.shape)
    coeffs = np.concatenate([base[None], base + np.array([1e-12, 1e-3, 1.0])[:, None, None, None] * noise])
    got = [list(r.values()) for r in constraint_residuals(d, k, coeffs)]
    assert got == full_matrix_residuals(d, k, coeffs, 4 * N + 1).tolist()
    # the constant involution carries only rounding; the noisy ones violate every constraint
    assert max(got[0]) < 1e-14 and min(got[-1]) > 1e-2


def offdiag_loop_reference(b, diag, U, N):
    # the per-mode loop that _offdiag_loop replaced, kept as a bitwise reference
    s = np.sqrt(max(0.0, 1.0 - diag * diag))
    bc = blaschke_series(b, N)
    coeffs = np.zeros((2 * N + 1, 2, 2), dtype=complex)
    coeffs[N, 0, 0] += diag
    coeffs[N, 1, 1] -= diag
    for n in range(N + 1):
        coeffs[N + n, 1, 0] += s * bc[n]
        coeffs[N - n, 0, 1] += s * np.conj(bc[n])
    if U is not None:
        coeffs = np.einsum("ij,mjk,kl->mil", U, coeffs, U.conj().T)
    return coeffs


@pytest.mark.parametrize("with_u", [False, True])
# diag = 1 makes s = 0, so s * bc carries -0.0 entries that only += turns into +0.0;
# diag = 0 makes -diag = -0.0, which only -= turns into +0.0
@pytest.mark.parametrize("diag", [0.0, 0.4, -0.7, 1.0])
@pytest.mark.parametrize(
    "b",
    [
        BlaschkeProduct(0.0, (0.0,)),
        BlaschkeProduct(0.3, (0.2,)),
        BlaschkeProduct(1.1, (0.5, -0.3 + 0.3j, 0.2j)),
        BlaschkeProduct(-2.0, (0.6j, -0.45, 0.1 - 0.5j, 0.3)),
    ],
)
def test_offdiag_loop_matches_mode_loop(rng, b, diag, with_u):
    N = 64
    U = random_unitary(rng, 2) if with_u else None
    out = _offdiag_loop(b, diag, U, N, 1e-12)
    assert out.coeffs.tobytes() == offdiag_loop_reference(b, diag, U, N).tobytes()
