"""Finite sections of block Toeplitz and Hankel operators with matrix symbols.

Operators act on the truncated Hardy space of d x d matrix polynomials of
degree <= N.  The symbol acts by left multiplication, so each column of a
matrix function evolves on its own: everything here runs on the vector
section, the Hardy space of column vectors (length d (N+1), mode-major),
and a matrix element is the ``(d (N+1), d)`` block of its columns.  The
backward shift S* moves rows up by d and the mean keeps the first d rows.
Singular values and eigenvalues of the matrix sections are the vector
sections' with d-fold multiplicity.  The matrix sections themselves
(:func:`build_toeplitz`, :func:`build_hankel`, the lift
``kron(vector section, I_d)`` as a plain array, and
:func:`shift_backward_matrix`) are kept only as public entry points; nothing
in the package calls them.

Finite sections pollute rows and columns within one symbol bandwidth of the
top mode N, so every operator identity here is asserted on the interior
block (modes <= N - bandwidth); for banded symbols the identities are exact
there.
"""

from __future__ import annotations

import numpy as np

from .hardy import (
    FourierSeries,
    _shift_up,
    evaluate_grid,
    fit_series,
    fractional_derivative,
    grid_product,
    project_plus,
    shift_backward_matrix,
    sobolev_energy,
)
from .grassmann import GrassmannLoop

__all__ = [
    "NotRationalError",
    "symbol_of",
    "bandwidth",
    "build_toeplitz",
    "build_hankel",
    "toeplitz_vector_section",
    "hankel_vector_section",
    "shift_backward_matrix",
    "apply_toeplitz_grid",
    "key_identity_check",
    "hermitian_eigh",
    "commutator_rank_one_check",
    "toeplitz_product_identity",
    "invariant_subspace",
    "kronecker_rank",
    "b_vector_section",
]


class NotRationalError(ValueError):
    """Hankel singular values show no spectral gap: symbol is not numerically rational."""


def symbol_of(u) -> FourierSeries:
    if isinstance(u, GrassmannLoop):
        return u.series
    if isinstance(u, FourierSeries):
        return u
    raise TypeError(f"expected a GrassmannLoop or FourierSeries, got {type(u)!r}")


def bandwidth(f: FourierSeries, tol: float = 1e-13) -> int:
    """Largest |n| carrying a coefficient above tol."""
    mags = np.max(np.abs(f.coeffs), axis=(1, 2))
    live = np.nonzero(mags > tol)[0]
    if live.size == 0:
        return 0
    return int(max(abs(live[0] - f.N), abs(live[-1] - f.N)))


def _vector_section(sym: FourierSeries, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Section on the vector-valued Hardy space whose block (i, j) is the
    symbol mode rows[i] - cols[j]; all-zero modes stay +0."""
    d = sym.d
    idx = rows[:, None] - cols[None, :]
    live = np.abs(idx) <= sym.N
    live[live] = np.any(sym.coeffs, axis=(1, 2))[idx[live] + sym.N]
    blocks = np.zeros(idx.shape + (d, d), dtype=complex)
    blocks[live] = sym.coeffs[idx[live] + sym.N]
    return blocks.transpose(0, 2, 1, 3).reshape(len(rows) * d, len(cols) * d)


def toeplitz_vector_section(u, N: int) -> np.ndarray:
    """Toeplitz section on the column-vector-valued Hardy space."""
    modes = np.arange(N + 1)
    return _vector_section(symbol_of(u), modes, modes)


def hankel_vector_section(u, N: int) -> np.ndarray:
    """Hankel section on the column-vector-valued Hardy space.

    Traces and Schatten sums are reported in this per-column normalization,
    where trace(H* H) equals the symbol's half-order energy.
    """
    return _vector_section(symbol_of(u), -np.arange(1, N + 1), np.arange(N + 1))


def build_toeplitz(u, N: int) -> np.ndarray:
    """Toeplitz section, the array ``kron(toeplitz_vector_section, I_d)``."""
    sym = symbol_of(u)
    return np.kron(toeplitz_vector_section(sym, N), np.eye(sym.d))


def build_hankel(u, N: int) -> np.ndarray:
    """Hankel section, the array ``kron(hankel_vector_section, I_d)``; block (m, n) is mode -(m+1) - n."""
    sym = symbol_of(u)
    return np.kron(hankel_vector_section(sym, N), np.eye(sym.d))


def _interior_rows(d: int, N: int, band: int) -> int:
    """Number of vector-section rows in modes 0 .. N - band."""
    if band > N:
        raise ValueError(f"bandwidth {band} exceeds cutoff {N}")
    return (N - band + 1) * d


def apply_toeplitz_grid(u, f: np.ndarray) -> np.ndarray:
    """Independent route for T_U F on an ``(n+1, d, d)`` analytic element: multiply on a
    dealiased grid of 3 (2N+1) points, N = max(cutoff of U, n), and project back to modes 0..n."""
    sym = symbol_of(u)
    n = f.shape[0] - 1
    N = max(sym.N, n)
    M = 3 * (2 * N + 1)
    embedded = np.pad(f, ((N, N - n), (0, 0), (0, 0)))
    prod = grid_product(evaluate_grid(sym.with_cutoff(N), M), evaluate_grid(embedded, M))
    return fit_series(prod, N)[N : N + n + 1]


def key_identity_check(u, N: int) -> dict:
    """Residuals of T^2 + H*H = I on the interior block and of trace(H*H) = energy.

    Both run on the vector sections: the matrix identity is their lift, with
    the same interior residual and d times the trace.  For banded symbols
    both quantities vanish to rounding once N exceeds the bandwidth; the
    trace side reproduces the half-order energy.
    """
    sym = symbol_of(u)
    T = toeplitz_vector_section(sym, N)
    H = hankel_vector_section(sym, N)
    K = H.conj().T @ H
    keep = _interior_rows(sym.d, N, bandwidth(sym))
    combo = T @ T + K - np.eye(T.shape[0])
    interior_residual = float(np.linalg.norm(combo[:keep, :keep], ord=2))
    trace, energy = float(np.trace(K).real), sobolev_energy(sym)
    return {
        "interior_residual": interior_residual,
        "trace_gap": abs(trace - energy),
        "trace": trace,
        "energy": energy,
    }


def hermitian_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The package's one Hermitian eigensolve: ``np.linalg.eigh(A)``, retried with
    LAPACK's QR iteration (scipy's driver ``ev``) when that divide-and-conquer solve
    does not converge, as it can on Toeplitz sections; a converged solve keeps numpy's
    bits.  Both drivers read one triangle, so an ``A`` not Hermitian to 1e-10
    entrywise, NaN included, raises ValueError before either runs."""
    gap = np.max(np.abs(A - A.conj().T))
    if not gap <= 1e-10:
        raise ValueError(f"matrix is not Hermitian (gap {gap:.2e})")
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError:
        # imported here: scipy.linalg costs about 0.3 s, more than most runs' set-up.
        # Not MRRR ("evr"): on the default datum's N = 1024 section its eigenvectors
        # are orthonormal only to 5e-3.
        import scipy.linalg

        return scipy.linalg.eigh(A, driver="ev")


def commutator_rank_one_check(u, N: int, f: np.ndarray) -> float:
    """Residual of [S*, T_U] F = (S* analytic-part-of-U) F_0 on the interior modes.

    F, an ``(N+1, d, d)`` analytic element, runs as its d columns on the vector
    section; any other shape raises ``ValueError``.
    """
    sym = symbol_of(u)
    d = sym.d
    if np.shape(f) != (N + 1, d, d):
        raise ValueError(f"expected F of shape {(N + 1, d, d)}, got {np.shape(f)}")
    T = toeplitz_vector_section(sym, N)
    cols = f.reshape(-1, d)
    lhs = _shift_up(T @ cols, d) - T @ _shift_up(cols, d)
    pu = project_plus(sym.with_cutoff(N + 1))[1:]  # backward shift of the analytic part
    rhs = pu.reshape(-1, d) @ f[0]
    keep = _interior_rows(d, N, bandwidth(sym) + 1)
    return float(np.linalg.norm((lhs - rhs)[:keep]))


def toeplitz_product_identity(f: FourierSeries, g: FourierSeries, N: int) -> float:
    """Interior residual of T_{FG} - T_F T_G = H*_{F*} H_G on the vector sections.

    The matrix sections are their lifts, with the same interior 2-norm.
    """
    if f.d != g.d:
        raise ValueError("symbols must share the matrix dimension")
    Nfg = f.N + g.N
    M = 2 * (2 * Nfg + 1)
    fv = evaluate_grid(f.with_cutoff(Nfg), M)
    gv = evaluate_grid(g.with_cutoff(Nfg), M)
    fg = FourierSeries(f.d, Nfg, fit_series(grid_product(fv, gv), Nfg))

    fstar = FourierSeries(
        f.d, f.N, np.conj(np.transpose(f.coeffs[::-1], (0, 2, 1)))
    )
    lhs = toeplitz_vector_section(fg, N) - toeplitz_vector_section(f, N) @ toeplitz_vector_section(g, N)
    rhs = hankel_vector_section(fstar, N).conj().T @ hankel_vector_section(g, N)
    keep = _interior_rows(f.d, N, min(N, max(bandwidth(f), bandwidth(g))))
    return float(np.linalg.norm((lhs - rhs)[:keep, :keep], ord=2))


def kronecker_rank(u, N: int, rank_tol: float = 1e-8) -> tuple[int, np.ndarray]:
    """Numerical rank of the Hankel section, with the singular spectrum for audit.

    The spectrum is that of the matrix-valued section, taken as the vector
    section's singular values each repeated d times.
    """
    sv = np.repeat(np.linalg.svd(hankel_vector_section(u, N), compute_uv=False), symbol_of(u).d)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0, sv
    rank = int(np.count_nonzero(sv > rank_tol * sv[0]))
    return rank, sv


def invariant_subspace(u, N: int, rank_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray, float]:
    """``(frame, t_restricted, invariance_residual)`` for ran(H*) + span{analytic symbol,
    constants} on the vector section.

    Requires a clear spectral gap in the Hankel singular values, a ratio of
    at least 1e3 at the rank cut (the finite rank dichotomy is exact only in
    infinite dimensions); raises NotRationalError otherwise.  The orthonormal
    columns of ``frame`` span the vector Hankel section's right singular
    vectors (its co-range), the d columns of the analytic part of the symbol
    and the d constant unit vectors; the matrix-valued subspace is its lift,
    the elements whose d columns all lie in it.  ``t_restricted`` is the
    compression of the Toeplitz operator; the subspace is invariant under it
    and the backward shift, so compression and restriction agree up to the
    measured ``invariance_residual``.  The Hankel rank and singular values of
    the same section are :func:`kronecker_rank`'s.
    """
    sym = symbol_of(u)
    d = sym.d
    _, sv, Vh = np.linalg.svd(hankel_vector_section(sym, N))
    if sv.size and sv[0] > 0.0:
        r = int(np.count_nonzero(sv > rank_tol * sv[0]))
        if r == sv.size:
            raise NotRationalError("no Hankel singular value falls below tolerance at this cutoff")
        if r > 0 and sv[r] > 0.0 and sv[r - 1] / sv[r] < 1e3:
            raise NotRationalError(
                f"no singular-value gap at rank {r}: sigma_r/sigma_(r+1) = {sv[r - 1] / sv[r]:.1f}"
            )
    else:
        r = 0

    # sigma_i / sigma_1 weights keep a singular vector, known only to eps sigma_1 / sigma_i,
    # from tilting the frame's other directions by more than eps; sv[:1] also serves r = 0
    corange = Vh[:r].conj().T * (sv[:r] / sv[:1])
    pu = project_plus(sym.with_cutoff(N)).reshape(-1, d)
    cols = np.column_stack([corange, pu, np.eye((N + 1) * d, d)])
    q, s, _ = np.linalg.svd(cols, full_matrices=False)
    # rounding leaves the dropped values within a few eps s_0; a real direction can sit at 7e-11 s_0
    frame = q[:, s > 1e-12 * s[0]]

    tf = toeplitz_vector_section(sym, N) @ frame
    sf = _shift_up(frame, d)
    t_k = frame.conj().T @ tf
    res_t = np.linalg.norm(tf - frame @ t_k, ord=2)
    res_s = np.linalg.norm(sf - frame @ (frame.conj().T @ sf), ord=2)
    return frame, t_k, float(max(res_t, res_s))


def b_vector_section(u, N: int, sign: int = +1) -> np.ndarray:
    """The skew generator -(i/2)(T_U D + D T_U) + (i/2) T_{|D| U} on the vector section.

    ``D`` is the mode index, diagonal, so it scales rows and columns.
    ``sign=-1`` assembles the opposite overall sign; the Lax-residual
    experiment in the evolution module selects which one propagates the
    Toeplitz spectrum (the default does).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    sym = symbol_of(u)
    T = toeplitz_vector_section(sym, N)
    n = np.repeat(np.arange(N + 1.0), sym.d)
    Tdu = toeplitz_vector_section(fractional_derivative(sym), N)
    return sign * (-0.5j * (T * n + n[:, None] * T) + 0.5j * Tdu)
