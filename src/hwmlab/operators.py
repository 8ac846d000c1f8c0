"""Finite sections of block Toeplitz and Hankel operators with matrix symbols.

Operators act on the truncated Hardy space of d x d matrix polynomials of
degree <= N, stacked as vectors of length d^2 (N+1): mode-major, row-major
within each matrix.  Left multiplication by a matrix A corresponds to the
block kron(A, I_d) in these coordinates.

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
    "hankel_vector_section",
    "shift_backward_matrix",
    "shift_forward_matrix",
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

    def band(self) -> int:
        return bandwidth(self.symbol)


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


def _gather_modes(sym: FourierSeries, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(R, C, d, d) array of symbol modes rows[i] - cols[j]; all-zero modes stay +0."""
    d = sym.d
    idx = rows[:, None] - cols[None, :]
    live = np.abs(idx) <= sym.N
    live[live] = np.any(sym.coeffs, axis=(1, 2))[idx[live] + sym.N]
    blocks = np.zeros(idx.shape + (d, d), dtype=complex)
    blocks[live] = sym.coeffs[idx[live] + sym.N]
    return blocks


def _mode_blocks(sym: FourierSeries, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Assemble kron(symbol mode, I_d) blocks for the given integer row/col mode maps."""
    d = sym.d
    eye = np.eye(d)
    blocks = _gather_modes(sym, rows, cols).transpose(0, 2, 1, 3)
    out = blocks[:, :, None, :, :, None] * eye[None, None, :, None, None, :]
    return out.reshape(len(rows) * d * d, len(cols) * d * d)


def build_toeplitz(u, N: int) -> BlockToeplitz:
    """Finite section of the Toeplitz operator with the given symbol."""
    sym = symbol_of(u)
    modes = np.arange(N + 1)
    return BlockToeplitz(sym.d, N, _mode_blocks(sym, modes, modes), sym)


def build_hankel(u, N: int) -> BlockHankel:
    """Finite section of the Hankel operator; block (m, n) is mode -(m+1) - n."""
    sym = symbol_of(u)
    return BlockHankel(sym.d, N, _mode_blocks(sym, -np.arange(1, N + 1), np.arange(N + 1)), sym)


def hankel_vector_section(u, N: int) -> np.ndarray:
    """Hankel section on the column-vector-valued Hardy space.

    The matrix-valued operator is the d-fold direct sum of this one (columns
    decouple under left multiplication), so it shares the singular values
    with d-fold multiplicity.  Traces and Schatten sums are reported in this
    per-column normalization, where trace(H* H) equals the symbol's
    half-order energy.
    """
    sym = symbol_of(u)
    blocks = _gather_modes(sym, -np.arange(1, N + 1), np.arange(N + 1))
    return blocks.transpose(0, 2, 1, 3).reshape(N * sym.d, (N + 1) * sym.d)


def shift_forward_matrix(d: int, N: int) -> np.ndarray:
    return shift_backward_matrix(d, N).T


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
    from .hardy import GridSamples, evaluate_grid, fit_series, project_plus

    sym = symbol_of(u)
    N = max(sym.N, f.N)
    M = oversample * (2 * N + 1)
    uv = evaluate_grid(sym.with_cutoff(N), M).values
    fv = evaluate_grid(f.to_series(N), M).values
    prod = np.einsum("mij,mjk->mik", uv, fv)
    series = fit_series(GridSamples(sym.d, M, prod), N)
    out = project_plus(series)
    trimmed = np.zeros((f.N + 1, sym.d, sym.d), dtype=complex)
    m = min(f.N, N)
    trimmed[: m + 1] = out.coeffs[: m + 1]
    return HardyElement(sym.d, f.N, trimmed, truncated=True)


def key_identity_check(u, N: int) -> dict:
    """Residuals of T^2 + H*H = I on the interior block and of trace(H*H) = energy.

    For banded symbols both quantities vanish to rounding once N exceeds the
    bandwidth; the trace side reproduces the half-order energy.
    """
    sym = symbol_of(u)
    T = build_toeplitz(sym, N)
    H = build_hankel(sym, N)
    K = H.gram()
    band = T.band()
    idx = interior_indices(sym.d, N, band)
    combo = T.matrix @ T.matrix + K - np.eye(T.dim)
    interior_residual = float(np.linalg.norm(combo[np.ix_(idx, idx)], ord=2))
    # per-column trace: the matrix-space trace overcounts by the d columns
    trace = float(np.trace(K).real) / sym.d
    trace_gap = abs(trace - sobolev_energy(sym))
    return {
        "interior_residual": interior_residual,
        "trace_gap": trace_gap,
        "trace": trace,
        "energy": sobolev_energy(sym),
        "band": band,
    }


def eig_hermitian(T: BlockToeplitz, delta_edge: float = 0.1) -> SpectralData:
    """Eigendecomposition of a Hermitian-symbol finite section."""
    herm_gap = np.max(np.abs(T.matrix - T.matrix.conj().T))
    if herm_gap > 1e-10:
        raise ValueError(f"finite section is not Hermitian (gap {herm_gap:.2e})")
    lam, vecs = np.linalg.eigh(T.matrix)
    residual = float(np.max(np.linalg.norm(T.matrix @ vecs - vecs * lam, axis=0)))
    near_edge = int(np.count_nonzero(np.abs(lam) > 1.0 - delta_edge))
    return SpectralData(lam, vecs, near_edge, residual)


def commutator_rank_one_check(u, N: int, f: HardyElement) -> float:
    """Residual of [S*, T_U] F = (S* analytic-part-of-U) F_0 on the section."""
    sym = symbol_of(u)
    T = build_toeplitz(sym, N)
    S = shift_backward_matrix(sym.d, N)
    fc = np.zeros((N + 1, sym.d, sym.d), dtype=complex)
    m = min(N, f.N)
    fc[: m + 1] = f.coeffs[: m + 1]
    vec = fc.reshape(-1)
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
    from .hardy import GridSamples, evaluate_grid, fit_series

    Nfg = f.N + g.N
    M = 2 * (2 * Nfg + 1)
    fv = evaluate_grid(f.with_cutoff(Nfg), M).values
    gv = evaluate_grid(g.with_cutoff(Nfg), M).values
    fg = fit_series(GridSamples(f.d, M, np.einsum("mij,mjk->mik", fv, gv)), Nfg)

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
    """Numerical rank of the Hankel section, with the singular spectrum for audit."""
    H = build_hankel(u, N)
    sv = np.linalg.svd(H.matrix, compute_uv=False)
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
    NotRationalError otherwise.  The returned compressions of the Toeplitz
    operator and backward shift come with measured invariance residuals.
    """
    sym = symbol_of(u)
    d = sym.d
    H = build_hankel(sym, N)
    _, sv, Vh = np.linalg.svd(H.matrix)
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
    basis = [Vh[j].conj() for j in range(r)]

    extra = [project_plus(sym.with_cutoff(N)).coeffs.reshape(-1)]
    ident = np.zeros((N + 1, d, d), dtype=complex)
    ident[0] = np.eye(d)
    extra.append(ident.reshape(-1))

    cols = np.column_stack(basis + extra) if basis else np.column_stack(extra)
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
        hankel_rank=r,
        singular_values=sv,
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
