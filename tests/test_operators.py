import re

import numpy as np
import pytest

from hwmlab.hardy import FourierSeries, fractional_derivative, project_plus, sobolev_energy
from hwmlab.grassmann import (
    BlaschkeProduct,
    embed_block,
    half_harmonic_map,
    random_blaschke,
    random_rational_loop,
    traveling_profile,
)
from hwmlab.operators import (
    NotRationalError,
    apply_toeplitz_grid,
    b_vector_section,
    bandwidth,
    build_hankel,
    build_toeplitz,
    commutator_rank_one_check,
    hankel_vector_section,
    hermitian_eigh,
    invariant_subspace,
    key_identity_check,
    kronecker_rank,
    shift_backward_matrix,
    symbol_of,
    toeplitz_product_identity,
    toeplitz_vector_section,
)
from hwmlab.grassmann import project_to_grassmann
from conftest import random_hardy, random_series

SIGMA3 = np.diag([1.0, -1.0]).astype(complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def series_from(d, N, modes):
    c = np.zeros((2 * N + 1, d, d), dtype=complex)
    for n, m in modes.items():
        c[n + N] = m
    return FourierSeries(d, N, c)


def ground_state(N=8):
    return half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=N)


def nonrational_loop(rng, N=32):
    c = np.zeros((2 * N + 1, 2, 2), dtype=complex)
    for n in range(1, N + 1):
        A = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.5**n
        c[N + n] = 0.2 * A
        c[N - n] = 0.2 * A.conj().T
    c[N] = SIGMA3
    return project_to_grassmann(FourierSeries(2, N, c), 2, 1, sq_tol=1e-7, herm_tol=1e-11)


def reference_mode_blocks(sym, rows, cols):
    """The per-block kron loop that the vectorized assembly replaced."""
    d = sym.d
    out = np.zeros((len(rows) * d * d, len(cols) * d * d), dtype=complex)
    for i, m in enumerate(rows):
        for j, n in enumerate(cols):
            blk = sym.coeff(m - n)
            if np.any(blk):
                out[i * d * d : (i + 1) * d * d, j * d * d : (j + 1) * d * d] = np.kron(blk, np.eye(d))
    return out


def reference_hankel_vector_section(sym, N):
    d = sym.d
    out = np.zeros((N * d, (N + 1) * d), dtype=complex)
    for m in range(N):
        for n in range(N + 1):
            blk = sym.coeff(-(m + 1) - n)
            if np.any(blk):
                out[m * d : (m + 1) * d, n * d : (n + 1) * d] = blk
    return out


def build_b_operator(u, N, sign=+1):
    """The skew generator on the matrix section: the lift of the vector section's."""
    return np.kron(b_vector_section(u, N, sign), np.eye(symbol_of(u).d))


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


SYMBOL_BAND = 3


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [0, 1, SYMBOL_BAND - 1, SYMBOL_BAND, 3 * SYMBOL_BAND])
def test_section_assembly_matches_block_loop(rng, d, N):
    c = random_series(rng, d, SYMBOL_BAND).coeffs.copy()
    c[SYMBOL_BAND - 1] = -0.0 * np.abs(c[SYMBOL_BAND - 1])  # an all-zero mode with signed zeros
    sym = FourierSeries(d, SYMBOL_BAND, c)
    modes = list(range(N + 1))
    assert_same_bytes(build_toeplitz(sym, N), reference_mode_blocks(sym, modes, modes))
    rows = [-(m + 1) for m in range(N)]
    assert_same_bytes(build_hankel(sym, N), reference_mode_blocks(sym, rows, modes))
    assert_same_bytes(hankel_vector_section(sym, N), reference_hankel_vector_section(sym, N))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [0, 1, 5])
def test_shift_backward_matrix_is_block_shift(d, N):
    expected = np.kron(np.eye(N + 1, k=1), np.eye(d * d))
    assert_same_bytes(shift_backward_matrix(d, N), expected)


def test_toeplitz_constant_symbol_blocks():
    T = build_toeplitz(series_from(2, 2, {0: SIGMA3}), 3)
    expected = np.kron(np.eye(4), np.kron(SIGMA3, np.eye(2)))
    assert np.array_equal(T, expected)


def test_toeplitz_single_mode_subdiagonal():
    A = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    T = build_toeplitz(series_from(2, 1, {1: A}), 3)
    blk = np.kron(A, np.eye(2))
    for m in range(4):
        for n in range(4):
            sub = T[4 * m : 4 * (m + 1), 4 * n : 4 * (n + 1)]
            if m == n + 1:
                assert np.array_equal(sub, blk)
            else:
                assert np.max(np.abs(sub)) == 0.0


def test_toeplitz_block_depends_on_difference(rng):
    u = random_series(rng, 2, 3, hermitian=True)
    T = build_toeplitz(u, 5)
    d2 = 4
    for m in range(5):
        for n in range(5):
            ref = T[d2 * (m + 1) : d2 * (m + 2), d2 * (n + 1) : d2 * (n + 2)]
            cur = T[d2 * m : d2 * (m + 1), d2 * n : d2 * (n + 1)]
            assert np.array_equal(cur, ref)


def test_hankel_structure_of_ground_state():
    H = build_hankel(ground_state().series, 4)
    blk = H[:4, :4]
    assert np.max(np.abs(blk - np.kron(E12, np.eye(2)))) < 1e-14
    rest = H.copy()
    rest[:4, :4] = 0.0
    assert np.max(np.abs(rest)) < 1e-14


def test_hankel_block_depends_on_sum(rng):
    u = random_series(rng, 2, 4, hermitian=True)
    H = build_hankel(u, 4)
    d2 = 4
    for m in range(3):
        for n in range(3):
            anti = H[d2 * (m + 1) : d2 * (m + 2), d2 * n : d2 * (n + 1)]
            cur = H[d2 * m : d2 * (m + 1), d2 * (n + 1) : d2 * (n + 2)]
            assert np.array_equal(cur, anti)


def test_toeplitz_action_matches_grid_route(rng):
    loop = random_rational_loop(rng, 2, 1, twists=2)
    N = 12
    T = build_toeplitz(loop.series, N)
    for _ in range(5):
        f = random_hardy(rng, 2, N)
        via_matrix = T @ f.reshape(-1)
        via_grid = apply_toeplitz_grid(loop.series, f)
        band = bandwidth(loop.series)
        keep = (N - band + 1) * 4
        assert via_grid.shape == f.shape
        gap = np.abs(via_matrix - via_grid.reshape(-1))[:keep]
        assert np.max(gap) < 1e-10


def test_key_identity_constant_symbol():
    rep = key_identity_check(series_from(2, 1, {0: SIGMA3}), 6)
    assert rep["interior_residual"] < 1e-14
    assert rep["trace_gap"] < 1e-14


def test_key_identity_ground_state():
    rep = key_identity_check(ground_state(), 8)
    assert rep["trace"] == pytest.approx(1.0, abs=1e-10)
    assert rep["interior_residual"] < 1e-10


def test_key_identity_random_rational(rng):
    loop = random_rational_loop(rng, 2, 1, twists=2)
    rep = key_identity_check(loop, 12)
    assert rep["interior_residual"] < 1e-8
    assert rep["trace_gap"] < 1e-10


def test_eig_constant_sigma3():
    N = 5
    lam = np.sort(hermitian_eigh(build_toeplitz(series_from(2, 0, {0: SIGMA3}), N))[0])
    assert np.allclose(lam[: 2 * (N + 1)], -1.0)
    assert np.allclose(lam[2 * (N + 1) :], 1.0)


def test_hermitian_eigh_rejects_a_nan_section(monkeypatch):
    # a NaN gap fails every comparison, so the check asks for a gap of at most 1e-10;
    # it runs before either driver, so a refused numpy solve does not reach scipy's
    A = np.eye(4)
    A[0, 1] = A[1, 0] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigh(A)
    monkeypatch.setattr(np.linalg, "eigh", refuse_eigh)
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigh(A)


def test_eig_edges_and_bound(rng):
    loop = random_rational_loop(rng, 2, 1, twists=2)
    N = 24
    A = build_toeplitz(loop.series, N)
    lam, vecs = hermitian_eigh(A)
    assert np.max(np.abs(lam)) <= 1.0 + 1e-8
    frame = invariant_subspace(loop, 12)[0]
    assert np.count_nonzero(np.abs(lam) > 0.9) >= lam.size - 2 * frame.shape[1]
    assert np.max(np.linalg.norm(A @ vecs - vecs * lam, axis=0)) < 1e-10


def refuse_eigh(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_eigensolves_fall_back_to_qr_iteration_when_eigh_fails(rng, monkeypatch):
    # np.linalg.eigh's divide-and-conquer solve can fail to converge on a Toeplitz
    # section (seed 6 at N = 256 with one BLAS thread); forced here with a stub
    from hwmlab.evolution import make_plan
    from hwmlab.stability import hwm_model

    loop = random_rational_loop(rng, 2, 1, twists=2)
    A = toeplitz_vector_section(loop.series, 24)
    lam0 = np.linalg.eigh(A).eigenvalues
    monkeypatch.setattr(np.linalg, "eigh", refuse_eigh)
    lam, vecs = hermitian_eigh(A)
    assert np.max(np.linalg.norm(A @ vecs - vecs * lam, axis=0)) < 1e-13
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(A)))) < 1e-13
    assert np.max(np.abs(lam - lam0)) < 1e-13
    # every Hermitian solve takes it: the one above, the stability models, the plan
    model = hwm_model(loop, 24)
    assert np.array_equal(model.lam, lam)
    plan = make_plan(loop)
    assert plan.model.lam.size == invariant_subspace(loop, plan.N_op)[0].shape[1]


@pytest.mark.parametrize("real", [False, True])
def test_converging_eigensolve_keeps_numpy_bits(rng, real):
    A = toeplitz_vector_section(random_rational_loop(rng, 2, 1, twists=2).series, 24)
    A = A.real + A.real.T if real else A
    lam, vecs = hermitian_eigh(A)
    ref = np.linalg.eigh(A)
    assert np.array_equal(lam, ref.eigenvalues) and np.array_equal(vecs, ref.eigenvectors)


def test_interior_eigenvalue_count_stabilizes(rng):
    loop = random_rational_loop(rng, 2, 1, twists=2)
    counts = []
    for N in (16, 24, 32):
        lam = hermitian_eigh(build_toeplitz(loop.series, N))[0]
        counts.append(np.count_nonzero(np.abs(lam) < 0.95))
    assert counts[0] == counts[1] == counts[2]


def test_commutator_annihilates_meanless(rng):
    u = random_series(rng, 2, 2, hermitian=True)
    N = 10
    c = random_hardy(rng, 2, N)
    c[0] = 0.0
    T = build_toeplitz(u, N)
    S = shift_backward_matrix(2, N)
    vec = c.reshape(-1)
    comm = S @ (T @ vec) - T @ (S @ vec)
    keep = (N - bandwidth(u)) * 4  # modes 0 .. N - band - 1
    assert np.max(np.abs(comm[:keep])) < 1e-13


def test_commutator_rank_one_for_identity_mean(rng):
    u = random_series(rng, 2, 2, hermitian=True)
    N = 10
    c = np.zeros((N + 1, 2, 2), dtype=complex)
    c[0] = np.eye(2)
    residual = commutator_rank_one_check(u, N, c)
    assert residual < 1e-13


def test_commutator_rank_one_random(rng):
    worst = 0.0
    for _ in range(50):
        u = random_series(rng, 2, 2, hermitian=True)
        f = random_hardy(rng, 2, 10)
        worst = max(worst, commutator_rank_one_check(u, 10, f))
    assert worst < 1e-9


def test_identities_reject_cutoff_below_bandwidth(rng):
    u = random_series(rng, 2, 3, hermitian=True)
    with pytest.raises(ValueError, match="exceeds cutoff"):
        key_identity_check(u, 2)
    with pytest.raises(ValueError, match="exceeds cutoff"):
        commutator_rank_one_check(u, 3, random_hardy(rng, 2, 3))


def test_commutator_rank_one_rejects_a_wrongly_shaped_element(rng):
    u = random_series(rng, 2, 2, hermitian=True)
    for f in (random_hardy(rng, 2, 9), random_hardy(rng, 2, 11), random_hardy(rng, 3, 10)):
        with pytest.raises(ValueError, match=re.escape(f"(11, 2, 2), got {f.shape}")):
            commutator_rank_one_check(u, 10, f)


def test_product_identity_constant_left(rng):
    f = series_from(2, 1, {0: SIGMA3})
    g = random_series(rng, 2, 2)
    assert toeplitz_product_identity(f, g, 8) < 1e-13


def test_product_identity_reproduces_key_identity():
    q = ground_state().series
    assert toeplitz_product_identity(q, q, 8) < 1e-12


def test_product_identity_random(rng):
    worst = 0.0
    for _ in range(10):
        f = random_series(rng, 2, 2)
        g = random_series(rng, 2, 2)
        worst = max(worst, toeplitz_product_identity(f, g, 10))
    assert worst < 1e-9


def test_invariant_subspace_constant_symbol():
    # a constant symbol's columns are constants: the frame is the d constant unit vectors
    frame = invariant_subspace(series_from(2, 1, {0: SIGMA3}), 6)[0]
    assert frame.shape[1] == 2
    ident = invariant_subspace(series_from(2, 1, {0: np.eye(2, dtype=complex)}), 6)[0]
    assert ident.shape[1] == 2


def test_invariant_subspace_ground_state():
    frame, _, residual = invariant_subspace(ground_state(), 8)
    assert frame.shape[1] <= 4
    assert residual < 1e-8


def test_invariant_subspace_degree_two(rng):
    q = half_harmonic_map(random_blaschke(rng, 2, max_radius=0.35), N=48)
    invariant_subspace(q, 64)  # raises NotRationalError without a clear gap at the rank cut
    assert kronecker_rank(q, 64)[0] == 4


def test_invariant_subspace_rejects_nonrational(rng):
    loop = nonrational_loop(rng)
    with pytest.raises(NotRationalError):
        invariant_subspace(loop, 24)


def reference_invariant_subspace(sym, N, rank_tol=1e-8):
    """Frame from the SVD of the matrix Hankel section, which repeats every
    singular vector d times: (hankel_rank, frame, restricted spectrum, residual)."""
    d = sym.d
    _, sv, Vh = np.linalg.svd(build_hankel(sym, N))
    r = int(np.count_nonzero(sv > rank_tol * sv[0])) if sv.size and sv[0] > 0.0 else 0
    ident = np.zeros((N + 1, d, d), dtype=complex)
    ident[0] = np.eye(d)
    pu = project_plus(sym.with_cutoff(N)).reshape(-1)
    cols = np.column_stack([Vh[:r].conj().T, pu, ident.reshape(-1)])
    q, s, _ = np.linalg.svd(cols, full_matrices=False)
    frame = q[:, s > 1e-10 * s[0]]
    T = build_toeplitz(sym, N)
    S = shift_backward_matrix(d, N)
    proj = frame @ frame.conj().T
    residual = max(np.linalg.norm(A @ frame - proj @ (A @ frame), ord=2) for A in (T, S))
    t_k = frame.conj().T @ T @ frame
    return r, frame, np.linalg.eigvalsh(0.5 * (t_k + t_k.conj().T)), residual


def kronecker_oracle_loop(case):
    if case == "embedded":
        return embed_block(traveling_profile(BlaschkeProduct(0.0, (0.2,)), 0.4, N=32), 3, 1)
    rng = np.random.Generator(np.random.Philox(key=20240812 + case))
    return random_rational_loop(rng, case, case // 2, twists=2)


@pytest.mark.parametrize("case", [2, 3, 4, "embedded"])
def test_matrix_sections_are_lifted_vector_sections(case):
    loop = kronecker_oracle_loop(case)
    d = loop.d
    N = max(2 * bandwidth(loop.series) + 2, 8)
    lam = np.linalg.eigvalsh(build_toeplitz(loop, N))
    assert np.max(np.abs(lam - np.repeat(np.linalg.eigvalsh(toeplitz_vector_section(loop, N)), d))) < 1e-12

    frame, t_k, residual = invariant_subspace(loop, N)
    rank, ref_frame, ref_spectrum, ref_residual = reference_invariant_subspace(loop.series, N)
    assert kronecker_rank(loop, N)[0] == rank
    # the matrix frame lies in the lift of the vector frame
    lift = np.kron(frame, np.eye(d))
    assert np.linalg.norm(ref_frame - lift @ (lift.conj().T @ ref_frame), ord=2) < 1e-12
    # so its restricted spectrum is part of the vector frame's
    spectrum = np.linalg.eigvalsh(0.5 * (t_k + t_k.conj().T))
    assert np.max(np.min(np.abs(ref_spectrum[:, None] - spectrum), axis=1)) < 1e-12
    assert residual < 1e-12 and ref_residual < 1e-12


def test_kronecker_rank_cases(rng):
    assert kronecker_rank(series_from(2, 1, {0: SIGMA3}), 6)[0] == 0
    assert kronecker_rank(ground_state(), 8)[0] == 2
    loop = nonrational_loop(rng)
    ranks = [kronecker_rank(loop.series, N)[0] for N in (6, 12, 24)]
    assert ranks[0] < ranks[1] < ranks[2]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("N", [8, 16])
def test_kronecker_rank_matches_matrix_svd(rng, d, N):
    # the matrix-valued section's own SVD is the reference for the d-fold repeat
    for loop in (random_rational_loop(rng, d, d // 2, twists=2), nonrational_loop(rng)):
        rank, sv = kronecker_rank(loop.series, N)
        ref = np.linalg.svd(build_hankel(loop.series, N), compute_uv=False)
        assert rank == int(np.count_nonzero(ref > 1e-8 * ref[0]))
        assert sv.shape == ref.shape
        assert np.max(np.abs(sv - ref)) < 1e-14


def schatten_sum(u, N, p):
    """Schatten p-th power sum of the per-column Hankel singular values, as
    ``conservation_report`` reads it: ``kronecker_rank`` repeats each d times."""
    return float(np.sum(kronecker_rank(u, N)[1][:: symbol_of(u).d] ** p))


def test_schatten_norms(rng):
    q = ground_state()
    assert schatten_sum(q, 8, 2.0) == pytest.approx(1.0, abs=1e-10)
    assert schatten_sum(series_from(2, 1, {0: SIGMA3}), 6, 1.0) == 0.0
    loop = random_rational_loop(rng, 2, 1, twists=2)
    i1 = schatten_sum(loop, 12, 1.0)
    i2 = schatten_sum(loop, 12, 2.0)
    # Cauchy-Schwarz over the singular values: I1 <= sqrt(rank_vec) * sqrt(I2)
    sv = np.linalg.svd(hankel_vector_section(loop, 12), compute_uv=False)
    rank_vec = int(np.count_nonzero(sv > 1e-8 * sv[0]))
    assert i1 <= np.sqrt(rank_vec) * np.sqrt(i2) + 1e-12
    assert i2 == pytest.approx(sobolev_energy(loop.series), abs=1e-10)


def test_schatten_vector_convention_vs_matrix_trace():
    q = ground_state()
    H = build_hankel(q.series, 8)
    assert np.trace(H.conj().T @ H).real == pytest.approx(2.0 * schatten_sum(q, 8, 2.0), abs=1e-12)


def test_b_operator_annihilates_constants(rng):
    loop = random_rational_loop(rng, 2, 1, twists=1)
    N = 8
    B = build_b_operator(loop, N)
    c = np.zeros((N + 1, 2, 2), dtype=complex)
    c[0] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.max(np.abs(B @ c.reshape(-1))) < 1e-13


def test_b_operator_constant_symbol_assembly():
    N = 5
    sym = series_from(2, 0, {0: SIGMA3})
    B = build_b_operator(sym, N)
    T = build_toeplitz(sym, N)
    D = np.diag(np.repeat(np.arange(N + 1.0), 4))
    assert np.max(np.abs(B - (-0.5j) * (T @ D + D @ T))) < 1e-14


def test_b_operator_is_the_matrix_assembly(rng):
    # the lift of the vector section equals the generator assembled on the matrix section
    loop = random_rational_loop(rng, 3, 1, twists=2)
    N = 12
    T = build_toeplitz(loop, N)
    D = np.diag(np.repeat(np.arange(N + 1.0), 9))
    Tdu = build_toeplitz(fractional_derivative(loop.series), N)
    assert np.array_equal(build_b_operator(loop, N), -0.5j * (T @ D + D @ T) + 0.5j * Tdu)


def test_b_operator_interior_skew(rng):
    loop = random_rational_loop(rng, 2, 1, twists=2)
    N = 16
    B = build_b_operator(loop, N)
    keep = (N - bandwidth(loop.series) + 1) * 4  # modes 0 .. N - band
    inner = B[:keep, :keep]
    assert np.max(np.abs(inner + inner.conj().T)) < 1e-9


def test_eigenspaces_nearly_shift_invariant(rng):
    # meanless interior eigenvectors stay eigenvectors after a backward shift
    loop = random_rational_loop(rng, 2, 1, twists=2)
    N = 24
    T = build_toeplitz(loop.series, N)
    lam, vecs = hermitian_eigh(T)
    S = shift_backward_matrix(2, N)
    sel = np.nonzero((np.abs(lam) < 0.95))[0]
    checked = 0
    for j in sel:
        v = vecs[:, j]
        if np.linalg.norm(v[:4]) > 1e-8:
            continue
        w = S @ v
        if np.linalg.norm(w) < 1e-8:
            continue
        checked += 1
        assert np.linalg.norm(T @ w - lam[j] * w) < 1e-7
    assert checked >= 0
