"""Truncated matrix-valued Fourier and Hardy-space arithmetic on the torus.

Everything in this module follows one fixed convention: inner products and
norms use the normalized measure dtheta/(2*pi), so ``<F|G> = (1/2pi) int
Tr(F G*) dtheta`` and Parseval reads ``||F||^2 = sum_n |F_n|_E^2`` with
``|.|_E`` the Frobenius norm on d x d matrices.  The half-order energy of a
degree-m Blaschke loop is then exactly m (one global constant relative to
the unnormalized-integral convention).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierSeries",
    "HardyElement",
    "GridSamples",
    "AliasingWarning",
    "series_stack",
    "project_plus",
    "project_minus",
    "shift_forward",
    "shift_backward",
    "mean",
    "fractional_derivative",
    "sobolev_energy",
    "half_norm_sq",
    "sobolev_norm",
    "l2_norm",
    "evaluate_grid",
    "grid_values",
    "grid_product",
    "fit_series",
    "shift_backward_matrix",
    "reproduce_check",
]


class AliasingWarning(UserWarning):
    """Grid too coarse for the represented bandwidth."""


def _as_coeff_array(coeffs, count: int, d: int, order: str = "C") -> np.ndarray:
    arr = np.asarray(coeffs, dtype=complex)
    if arr.shape != (count, d, d):
        raise ValueError(f"expected coefficient array of shape {(count, d, d)}, got {arr.shape}")
    arr = arr.copy(order=order)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FourierSeries:
    """Two-sided truncated Fourier series with d x d matrix coefficients.

    ``coeffs[j]`` is the coefficient of ``exp(i*n*theta)`` for ``n = j - N``,
    so the array has exactly ``2N+1`` entries for modes ``-N..N``.
    """

    d: int
    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs, 2 * self.N + 1, self.d))

    def coeff(self, n: int) -> np.ndarray:
        """Coefficient of mode n (zero matrix outside the cutoff)."""
        if abs(n) > self.N:
            return np.zeros((self.d, self.d), dtype=complex)
        return self.coeffs[n + self.N]

    def with_cutoff(self, N: int) -> "FourierSeries":
        """Pad with zeros or truncate to cutoff N."""
        out = np.zeros((2 * N + 1, self.d, self.d), dtype=complex)
        lo = max(-N, -self.N)
        hi = min(N, self.N)
        out[lo + N : hi + N + 1] = self.coeffs[lo + self.N : hi + self.N + 1]
        return FourierSeries(self.d, N, out)

    def is_hermitian_symbol(self, tol: float = 1e-12) -> bool:
        """True when (U_n)* = U_{-n} for all modes, i.e. U(theta) is Hermitian."""
        flipped = np.conj(np.transpose(self.coeffs[::-1], (0, 2, 1)))
        return bool(np.max(np.abs(self.coeffs - flipped)) <= tol)


@dataclass(frozen=True)
class HardyElement:
    """Analytic (nonnegative-frequency) truncated series F(z) = sum_{n=0}^N F_n z^n.

    ``truncated`` is a sticky flag: it is set whenever an operation dropped a
    top mode, so downstream exactness checks can refuse inexact inputs.
    """

    d: int
    N: int
    coeffs: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs, self.N + 1, self.d))

    def coeff(self, n: int) -> np.ndarray:
        if n < 0 or n > self.N:
            return np.zeros((self.d, self.d), dtype=complex)
        return self.coeffs[n]

    def with_cutoff(self, N: int) -> "HardyElement":
        """Pad with zeros or truncate to cutoff N; dropping a nonzero mode sets ``truncated``."""
        out = np.zeros((N + 1, self.d, self.d), dtype=complex)
        m = min(N, self.N)
        out[: m + 1] = self.coeffs[: m + 1]
        dropped = bool(np.any(self.coeffs[m + 1 :]))
        return HardyElement(self.d, N, out, truncated=self.truncated or dropped)

    def eval_at(self, z: complex) -> np.ndarray:
        """Horner evaluation of the polynomial at a point of the closed disk."""
        acc = np.zeros((self.d, self.d), dtype=complex)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def to_series(self, N: int | None = None) -> FourierSeries:
        """Embed into a two-sided series (negative modes zero)."""
        N = self.N if N is None else N
        out = np.zeros((2 * N + 1, self.d, self.d), dtype=complex)
        m = min(N, self.N)
        out[N : N + m + 1] = self.coeffs[: m + 1]
        return FourierSeries(self.d, N, out)


@dataclass(frozen=True)
class GridSamples:
    """Values of a matrix-valued function at theta_j = 2*pi*j/M, kept in the layout given."""

    d: int
    M: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_coeff_array(self.values, self.M, self.d, order="K"))


def series_stack(f) -> tuple[int, np.ndarray]:
    """Cutoff and coefficients of one series, or of a sequence of series
    sharing one cutoff, stacked along a new leading axis."""
    if isinstance(f, FourierSeries):
        return f.N, f.coeffs
    cutoffs = {s.N for s in f}
    if len(cutoffs) != 1:
        raise ValueError(f"a series stack needs one shared cutoff, got {sorted(cutoffs)}")
    return f[0].N, np.stack([s.coeffs for s in f])


def project_plus(f: FourierSeries) -> HardyElement:
    """Analytic projection: keep modes n >= 0, drop n < 0."""
    return HardyElement(f.d, f.N, f.coeffs[f.N :])


def project_minus(f: FourierSeries) -> FourierSeries:
    """Anti-analytic part: keep modes n < 0 (as a two-sided series)."""
    out = f.coeffs.copy()
    out[f.N :] = 0.0
    return FourierSeries(f.d, f.N, out)


def shift_forward(f: HardyElement) -> HardyElement:
    """Multiply by z.  The top mode is dropped and the result is flagged
    as truncated unless that mode was already zero."""
    out = np.zeros_like(f.coeffs)
    out[1:] = f.coeffs[:-1]
    dropped = bool(np.any(np.abs(f.coeffs[-1]) > 0.0))
    return HardyElement(f.d, f.N, out, truncated=f.truncated or dropped)


def shift_backward(f: HardyElement) -> HardyElement:
    """(F(z) - F(0)) / z, the backward shift."""
    out = np.zeros_like(f.coeffs)
    out[:-1] = f.coeffs[1:]
    return HardyElement(f.d, f.N, out, truncated=f.truncated)


def mean(f) -> np.ndarray:
    """Zeroth Fourier coefficient (projection onto constants)."""
    if isinstance(f, HardyElement):
        return f.coeffs[0].copy()
    if isinstance(f, FourierSeries):
        return f.coeffs[f.N].copy()
    raise TypeError(f"mean expects a FourierSeries or HardyElement, got {type(f)!r}")


def fractional_derivative(f: FourierSeries, kind: str = "|D|") -> FourierSeries:
    """Modewise derivative: |D| multiplies mode n by |n|, D by n."""
    n = np.arange(-f.N, f.N + 1)
    if kind == "|D|":
        w = np.abs(n)
    elif kind == "D":
        w = n
    else:
        raise ValueError(f'kind must be "|D|" or "D", got {kind!r}')
    return FourierSeries(f.d, f.N, f.coeffs * w[:, None, None])


def half_norm_sq(f):
    """Homogeneous half-order seminorm squared: sum_n |n| |F_n|_E^2.

    A sequence of series sharing one cutoff gives an array with one value
    per series, each equal bit for bit to the call on that series alone.
    """
    N, coeffs = series_stack(f)
    n = np.abs(np.arange(-N, N + 1))
    out = np.sum(n * np.sum(np.abs(coeffs) ** 2, axis=(-2, -1)), axis=-1)
    return float(out) if isinstance(f, FourierSeries) else out


def sobolev_energy(f):
    """Half the homogeneous half-order seminorm squared (the flow's energy);
    stacks as :func:`half_norm_sq` does."""
    return 0.5 * half_norm_sq(f)


def sobolev_norm(f, s: float = 0.5):
    """Inhomogeneous H^s norm: (sum (1+|n|^{2s}) |F_n|_E^2)^{1/2}; stacks as
    :func:`half_norm_sq` does."""
    N, coeffs = series_stack(f)
    n = np.abs(np.arange(-N, N + 1)).astype(float)
    w = 1.0 + n ** (2.0 * s)
    out = np.sqrt(np.sum(w * np.sum(np.abs(coeffs) ** 2, axis=(-2, -1)), axis=-1))
    return float(out) if isinstance(f, FourierSeries) else out


def l2_norm(f) -> float:
    """L^2 norm under the normalized measure (Parseval on coefficients)."""
    if isinstance(f, (FourierSeries, HardyElement)):
        return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))
    raise TypeError(f"l2_norm expects a FourierSeries or HardyElement, got {type(f)!r}")


def grid_values(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Values at M equispaced points of the series with coefficients ``coeffs``.

    ``coeffs`` holds modes -N..N along axis -3, shape ``(..., 2N+1, d, d)``,
    and the values come back as ``(..., M, d, d)``, entry major: a transposed
    view of a ``(d, d, ..., M)`` block, so every line ``[..., i, j]`` is
    contiguous for :func:`grid_product`.  Each transform runs along its own
    entry line, so each series in a stack gets the values it gets alone, bit
    for bit.  Warns when M < 2N+1: represented modes then alias onto each other.
    """
    N = (coeffs.shape[-3] - 1) // 2
    nd = coeffs.ndim
    by_entry = coeffs.transpose(nd - 2, nd - 1, *range(nd - 3), nd - 3)
    spec = np.zeros(by_entry.shape[:-1] + (M,), dtype=complex)
    # += into zeros, so a -0.0 coefficient lands as 0 + x = +0.0
    if M >= 2 * N + 1:
        spec[..., : N + 1] += by_entry[..., N:]
        spec[..., M - N :] += by_entry[..., :N]
    else:
        warnings.warn(
            f"grid of {M} points aliases a cutoff-{N} series (need M >= {2 * N + 1})",
            AliasingWarning,
            stacklevel=3,
        )
        # np.add.at is unbuffered and runs in mode order, so modes that alias
        # onto one grid frequency accumulate in a fixed order
        np.add.at(spec, (..., np.arange(-N, N + 1) % M), by_entry)
    values = np.fft.ifft(spec, axis=-1) * M
    return values.transpose(*range(2, nd), 0, 1)


def grid_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise matrix product of grid samples, ``a @ b`` broadcast as in ``np.matmul``.

    Taken as d^3 multiply-adds of whole entry lines, summed over j = 0..d-1,
    and returned entry major like :func:`grid_values`.
    """
    d = a.shape[-1]
    shape = np.broadcast_shapes(a.shape, b.shape)[:-2]
    out = np.empty((d, d) + shape, dtype=np.result_type(a, b))
    for i in range(d):
        for k in range(d):
            acc = np.multiply(a[..., i, 0], b[..., 0, k], out=out[i, k])
            for j in range(1, d):
                acc += a[..., i, j] * b[..., j, k]
    return out.transpose(*range(2, out.ndim), 0, 1)


def evaluate_grid(f: FourierSeries, M: int) -> GridSamples:
    """Sample F(theta_j) at M equispaced points via FFT (see :func:`grid_values`)."""
    return GridSamples(f.d, M, grid_values(f.coeffs, M))


def fit_series(g: GridSamples, N: int) -> FourierSeries:
    """Trigonometric interpolation of grid samples, truncated to cutoff N.

    Inverse of :func:`evaluate_grid` on cutoff-N series whenever M >= 2N+1.
    """
    if g.M < 2 * N + 1:
        warnings.warn(
            f"fitting cutoff {N} from {g.M} samples aliases modes (need M >= {2 * N + 1})",
            AliasingWarning,
            stacklevel=2,
        )
    spec = np.fft.fft(g.values.transpose(1, 2, 0), axis=-1) / g.M
    out = np.zeros((g.d, g.d, 2 * N + 1), dtype=complex)
    n = np.arange(-N, N + 1)
    keep = (n >= -(g.M // 2)) & (n <= (g.M - 1) // 2)  # canonical alias window of the M-point DFT
    out[..., keep] = spec[..., n[keep] % g.M]
    return FourierSeries(g.d, N, out.transpose(2, 0, 1))


def shift_backward_matrix(d: int, N: int) -> np.ndarray:
    """S* on stacked coordinates (mode-major, then row-major matrix entries)."""
    return np.eye((N + 1) * d * d, k=d * d)


def reproduce_check(f: HardyElement, z: complex) -> np.ndarray:
    """Evaluate F(z) through the resolvent identity F(z) = M((I - z S*)^{-1} F).

    Solves the linear system on the truncated space rather than summing the
    Taylor series, so agreement with :meth:`HardyElement.eval_at` is a real
    check of the reproducing formula.  Rejects |z| >= 1.
    """
    if abs(z) >= 1.0:
        raise ValueError(f"reproduce_check needs |z| < 1, got |z| = {abs(z)}")
    vec = f.coeffs.reshape(-1)
    A = np.eye(vec.size) - z * shift_backward_matrix(f.d, f.N)
    x = np.linalg.solve(A, vec)
    return x.reshape(f.N + 1, f.d, f.d)[0]
