"""Finite sections of block Toeplitz and Hankel operators with matrix symbols.

Operators act on the truncated Hardy space of d x d matrix polynomials of
degree <= N, stacked as vectors of length d^2 (N+1): mode-major, row-major
within each matrix.  The symbol acts by left multiplication, so each column
of a matrix function evolves on its own: every matrix section is
``kron(vector section, I_d)``, where the vector section acts on the Hardy
space of column vectors (length d (N+1), mode-major).  The vector sections
are the only thing assembled here; their singular values and eigenvalues
are the matrix sections' with d-fold multiplicity, so every factorization
runs on them.

Finite sections pollute rows and columns within one symbol bandwidth of the
top mode N, so every operator identity here is asserted on the interior
block (modes <= N - bandwidth); for banded symbols the identities are exact
there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import (
    FourierSeries,
    HardyElement,
    fractional_derivative,
    project_plus,
    shift_backward_matrix,
    sobolev_energy,
)
from .grassmann import GrassmannLoop

__all__ = [
    "BlockToeplitz",
    "BlockHankel",
    "SpectralData",
    "SubspaceFrame",
    "NotRationalError",
    "symbol_of",
    "bandwidth",
    "build_toeplitz",
    "build_hankel",
    "toeplitz_vector_section",
    "hankel_vector_section",
    "shift_backward_matrix",
    "derivative_matrix",
    "interior_indices",
    "stack",
    "unstack",
    "apply_toeplitz_grid",
    "key_identity_check",
    "eig_hermitian",
    "commutator_rank_one_check",
    "toeplitz_product_identity",
    "invariant_subspace",
    "kronecker_rank",
    "schatten_norm",
    "build_b_operator",
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


def stack(f: HardyElement) -> np.ndarray:
    """HardyElement -> stacked coordinate vector."""
    return f.coeffs.reshape(-1).copy()


def unstack(vec: np.ndarray, d: int, N: int, truncated: bool = False) -> HardyElement:
    return HardyElement(d, N, vec.reshape(N + 1, d, d), truncated=truncated)


@dataclass(frozen=True)
class BlockToeplitz:
    """Compression of F |-> analytic part of U F to degree <= N."""

    d: int
    N: int
    matrix: np.ndarray
    symbol: FourierSeries

    @property
    def dim(self) -> int:
        return self.d * self.d * (self.N + 1)


@dataclass(frozen=True)
class BlockHankel:
    """F |-> anti-analytic part of U F, rows indexed by output modes -1..-N."""

    d: int
    N: int
    matrix: np.ndarray
    symbol: FourierSeries

    def gram(self) -> np.ndarray:
        """The nonnegative operator H* H on the truncated Hardy space."""
        return self.matrix.conj().T @ self.matrix


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    near_edge_count: int
    residual: float

    def interior(self, delta: float = 0.1) -> np.ndarray:
        """Eigenvalues strictly inside (-1 + delta, 1 - delta)."""
        lam = self.eigenvalues
        return lam[(lam > -1.0 + delta) & (lam < 1.0 - delta)]


@dataclass(frozen=True)
class SubspaceFrame:
    """Orthonormal frame of the minimal invariant subspace of the flow data.

    Columns of ``frame`` span ran(H*) + span{analytic part of the symbol, 1}.
    ``t_restricted`` and ``sstar_restricted`` are the compressions of the
    Toeplitz operator and the backward shift; because the subspace is
    invariant, compressions agree with restrictions up to ``invariance_residual``.
    ``mean_map[:, :, j]`` is the zeroth coefficient of the j-th frame column.
    """

    d: int
    N: int
    frame: np.ndarray
    t_restricted: np.ndarray
    sstar_restricted: np.ndarray
    mean_map: np.ndarray
    hankel_rank: int
    singular_values: np.ndarray
    invariance_residual: float

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def coordinates(self, vec: np.ndarray, check_tol: float | None = 1e-10) -> np.ndarray:
        """Coordinates of a stacked vector in the frame; optionally verify membership."""
        c = self.frame.conj().T @ vec
        if check_tol is not None:
            residual = np.linalg.norm(vec - self.frame @ c)
            if residual > check_tol * max(1.0, np.linalg.norm(vec)):
                raise ValueError(f"vector is not in the invariant subspace (residual {residual:.2e})")
        return c


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


def build_toeplitz(u, N: int) -> BlockToeplitz:
    """Finite section of the Toeplitz operator with the given symbol."""
    sym = symbol_of(u)
    return BlockToeplitz(sym.d, N, np.kron(toeplitz_vector_section(sym, N), np.eye(sym.d)), sym)


def build_hankel(u, N: int) -> BlockHankel:
    """Finite section of the Hankel operator; block (m, n) is mode -(m+1) - n."""
    sym = symbol_of(u)
    return BlockHankel(sym.d, N, np.kron(hankel_vector_section(sym, N), np.eye(sym.d)), sym)


def derivative_matrix(d: int, N: int) -> np.ndarray:
    """D = -i d/dtheta, diagonal with the mode index on the truncated space."""
    return np.kron(np.diag(np.arange(N + 1.0)), np.eye(d * d))


def interior_indices(d: int, N: int, band: int) -> np.ndarray:
    """Stacked indices of modes 0 .. N - band."""
    keep = N - band
    if keep < 0:
        raise ValueError(f"bandwidth {band} exceeds cutoff {N}")
    return np.arange((keep + 1) * d * d)


def apply_toeplitz_grid(u, f: HardyElement, oversample: int = 3) -> HardyElement:
    """Independent route for T_U F: multiply on a dealiased grid, project back."""
    from .hardy import GridSamples, evaluate_grid, fit_series, grid_product, project_plus

    sym = symbol_of(u)
    N = max(sym.N, f.N)
    M = oversample * (2 * N + 1)
    uv = evaluate_grid(sym.with_cutoff(N), M).values
    fv = evaluate_grid(f.to_series(N), M).values
    prod = grid_product(uv, fv)
    series = fit_series(GridSamples(sym.d, M, prod), N)
    return HardyElement(sym.d, f.N, project_plus(series).with_cutoff(f.N).coeffs, truncated=True)


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
    band = bandwidth(sym)
    # interior_indices counts matrix coordinates, d per vector coordinate
    keep = interior_indices(sym.d, N, band).size // sym.d
    combo = T @ T + K - np.eye(T.shape[0])
    interior_residual = float(np.linalg.norm(combo[:keep, :keep], ord=2))
    trace = float(np.trace(K).real)
    trace_gap = abs(trace - sobolev_energy(sym))
    return {
        "interior_residual": interior_residual,
        "trace_gap": trace_gap,
        "trace": trace,
        "energy": sobolev_energy(sym),
        "band": band,
    }


def eig_hermitian(A: np.ndarray, delta_edge: float = 0.1) -> SpectralData:
    """Eigendecomposition of a Hermitian-symbol finite section (a matrix or vector section's array)."""
    herm_gap = np.max(np.abs(A - A.conj().T))
    if herm_gap > 1e-10:
        raise ValueError(f"finite section is not Hermitian (gap {herm_gap:.2e})")
    lam, vecs = np.linalg.eigh(A)
    residual = float(np.max(np.linalg.norm(A @ vecs - vecs * lam, axis=0)))
    near_edge = int(np.count_nonzero(np.abs(lam) > 1.0 - delta_edge))
    return SpectralData(lam, vecs, near_edge, residual)


def commutator_rank_one_check(u, N: int, f: HardyElement) -> float:
    """Residual of [S*, T_U] F = (S* analytic-part-of-U) F_0 on the section."""
    sym = symbol_of(u)
    T = build_toeplitz(sym, N)
    S = shift_backward_matrix(sym.d, N)
    vec = f.with_cutoff(N).coeffs.reshape(-1)
    lhs = S @ (T.matrix @ vec) - T.matrix @ (S @ vec)
    pu = project_plus(sym.with_cutoff(N + 1)).coeffs[1:]  # backward shift of the analytic part
    rhs = np.einsum("nij,jk->nik", pu, f.coeff(0)).reshape(-1)
    band = bandwidth(sym)
    idx = interior_indices(sym.d, N, band + 1)
    return float(np.linalg.norm((lhs - rhs)[idx]))


def toeplitz_product_identity(f: FourierSeries, g: FourierSeries, N: int) -> float:
    """Interior residual of T_{FG} - T_F T_G = H*_{F*} H_G on finite sections."""
    if f.d != g.d:
        raise ValueError("symbols must share the matrix dimension")
    from .hardy import GridSamples, evaluate_grid, fit_series, grid_product

    Nfg = f.N + g.N
    M = 2 * (2 * Nfg + 1)
    fv = evaluate_grid(f.with_cutoff(Nfg), M).values
    gv = evaluate_grid(g.with_cutoff(Nfg), M).values
    fg = fit_series(GridSamples(f.d, M, grid_product(fv, gv)), Nfg)

    Tfg = build_toeplitz(fg, N)
    Tf = build_toeplitz(f, N)
    Tg = build_toeplitz(g, N)
    fstar = FourierSeries(
        f.d, f.N, np.conj(np.transpose(f.coeffs[::-1], (0, 2, 1)))
    )
    Hf = build_hankel(fstar, N)
    Hg = build_hankel(g, N)
    lhs = Tfg.matrix - Tf.matrix @ Tg.matrix
    rhs = Hf.matrix.conj().T @ Hg.matrix
    band = max(bandwidth(f), bandwidth(g))
    idx = interior_indices(f.d, N, min(N, band))
    return float(np.linalg.norm((lhs - rhs)[np.ix_(idx, idx)], ord=2))


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


def schatten_norm(u, N: int, p: float) -> float:
    """Schatten p-th power sum of the per-column Hankel singular values.

    With p = 2 this is trace(H* H) in the vector-valued normalization, equal
    to the symbol's half-order energy for involution-valued symbols.
    """
    if p < 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    sv = np.linalg.svd(hankel_vector_section(u, N), compute_uv=False)
    return float(np.sum(sv**p))


def invariant_subspace(u, N: int, rank_tol: float = 1e-8, gap_ratio: float = 1e3) -> SubspaceFrame:
    """Orthonormal frame for ran(H*) + span{analytic symbol, identity}.

    Requires a clear spectral gap in the Hankel singular values (the finite
    rank dichotomy is exact only in infinite dimensions); raises
    NotRationalError otherwise.  ran(H*) is the lift of the vector section's
    right singular vectors, so ``hankel_rank`` and ``singular_values`` count
    each of them d times, as the matrix section does.  The returned
    compressions of the Toeplitz operator and backward shift come with
    measured invariance residuals.
    """
    sym = symbol_of(u)
    d = sym.d
    _, sv, Vh = np.linalg.svd(hankel_vector_section(sym, N))
    if sv.size and sv[0] > 0.0:
        r = int(np.count_nonzero(sv > rank_tol * sv[0]))
        if r == sv.size:
            raise NotRationalError("no Hankel singular value falls below tolerance at this cutoff")
        if r > 0 and sv[r] > 0.0 and sv[r - 1] / sv[r] < gap_ratio:
            raise NotRationalError(
                f"no singular-value gap at rank {r}: sigma_r/sigma_(r+1) = {sv[r - 1] / sv[r]:.1f}"
            )
    else:
        r = 0

    ident = np.zeros((N + 1, d, d), dtype=complex)
    ident[0] = np.eye(d)
    pu = project_plus(sym.with_cutoff(N)).coeffs.reshape(-1)
    cols = np.column_stack([np.kron(Vh[:r].conj().T, np.eye(d)), pu, ident.reshape(-1)])
    q, s, _ = np.linalg.svd(cols, full_matrices=False)
    frame = q[:, s > 1e-10 * s[0]]

    T = build_toeplitz(sym, N)
    S = shift_backward_matrix(d, N)
    t_k = frame.conj().T @ T.matrix @ frame
    s_k = frame.conj().T @ S @ frame
    proj = frame @ frame.conj().T
    res_t = np.linalg.norm(T.matrix @ frame - proj @ (T.matrix @ frame), ord=2)
    res_s = np.linalg.norm(S @ frame - proj @ (S @ frame), ord=2)
    mean_map = frame.reshape(N + 1, d, d, -1)[0]
    return SubspaceFrame(
        d=d,
        N=N,
        frame=frame,
        t_restricted=t_k,
        sstar_restricted=s_k,
        mean_map=mean_map,
        hankel_rank=d * r,
        singular_values=np.repeat(sv, d),
        invariance_residual=float(max(res_t, res_s)),
    )


def build_b_operator(u, N: int, sign: int = +1) -> np.ndarray:
    """The skew generator -(i/2)(T_U D + D T_U) + (i/2) T_{|D| U} on the section.

    ``sign=-1`` assembles the opposite overall sign; the Lax-residual
    experiment in the evolution module selects which one propagates the
    Toeplitz spectrum (the default does).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    sym = symbol_of(u)
    T = build_toeplitz(sym, N).matrix
    D = derivative_matrix(sym.d, N)
    Tdu = build_toeplitz(fractional_derivative(sym, "|D|"), N).matrix
    b = -0.5j * (T @ D + D @ T) + 0.5j * Tdu
    return sign * b
