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
    "fit_series",
    "shift_backward_matrix",
    "reproduce_check",
]


class AliasingWarning(UserWarning):
    """Grid too coarse for the represented bandwidth."""


def _as_coeff_array(coeffs, count: int, d: int) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=complex)
    if arr.shape != (count, d, d):
        raise ValueError(f"expected coefficient array of shape {(count, d, d)}, got {arr.shape}")
    arr = arr.copy()
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
    """Values of a matrix-valued function at theta_j = 2*pi*j/M."""

    d: int
    M: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_coeff_array(self.values, self.M, self.d))

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.M) / self.M


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


def half_norm_sq(f: FourierSeries) -> float:
    """Homogeneous half-order seminorm squared: sum_n |n| |F_n|_E^2."""
    n = np.abs(np.arange(-f.N, f.N + 1))
    return float(np.sum(n * np.sum(np.abs(f.coeffs) ** 2, axis=(1, 2))))


def sobolev_energy(f: FourierSeries) -> float:
    """Half the homogeneous half-order seminorm squared (the flow's energy)."""
    return 0.5 * half_norm_sq(f)


def sobolev_norm(f: FourierSeries, s: float = 0.5) -> float:
    """Inhomogeneous H^s norm: (sum (1+|n|^{2s}) |F_n|_E^2)^{1/2}."""
    n = np.abs(np.arange(-f.N, f.N + 1)).astype(float)
    w = 1.0 + n ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.sum(np.abs(f.coeffs) ** 2, axis=(1, 2)))))


def l2_norm(f) -> float:
    """L^2 norm under the normalized measure (Parseval on coefficients)."""
    if isinstance(f, (FourierSeries, HardyElement)):
        return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))
    raise TypeError(f"l2_norm expects a FourierSeries or HardyElement, got {type(f)!r}")


def evaluate_grid(f: FourierSeries, M: int) -> GridSamples:
    """Sample F(theta_j) at M equispaced points via FFT.

    Warns when M < 2N+1: represented modes then alias onto each other.
    """
    if M < 2 * f.N + 1:
        warnings.warn(
            f"grid of {M} points aliases a cutoff-{f.N} series (need M >= {2 * f.N + 1})",
            AliasingWarning,
            stacklevel=2,
        )
    spec = np.zeros((M, f.d, f.d), dtype=complex)
    # np.add.at is unbuffered and runs in mode order, so modes that alias onto
    # one grid frequency accumulate in a fixed order
    np.add.at(spec, np.arange(-f.N, f.N + 1) % M, f.coeffs)
    values = np.fft.ifft(spec, axis=0) * M
    return GridSamples(f.d, M, values)


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
    spec = np.fft.fft(g.values, axis=0) / g.M
    out = np.zeros((2 * N + 1, g.d, g.d), dtype=complex)
    n = np.arange(-N, N + 1)
    keep = (n >= -(g.M // 2)) & (n <= (g.M - 1) // 2)  # canonical alias window of the M-point DFT
    out[keep] = spec[n[keep] % g.M]
    return FourierSeries(g.d, N, out)


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
