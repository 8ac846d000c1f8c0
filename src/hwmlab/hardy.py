"""Truncated matrix-valued Fourier and Hardy-space arithmetic on the torus.

Everything in this module follows one fixed convention: inner products and
norms use the normalized measure dtheta/(2*pi), so ``<F|G> = (1/2pi) int
Tr(F G*) dtheta`` and Parseval reads ``||F||^2 = sum_n |F_n|_E^2`` with
``|.|_E`` the Frobenius norm on d x d matrices.  The half-order energy of a
degree-m Blaschke loop is then exactly m (one global constant relative to
the unnormalized-integral convention).

Grid work runs through one transform pair on zero-padded entry-major spectra
``(d, d, ..., M)`` in FFT order, which :func:`pad_spectrum` makes of
coefficients ``(..., 2N+1, d, d)`` and :func:`spectrum_coeffs` turns back:
:func:`sample_padded` gives the values at M points and :func:`fit_padded` the
cutoff-N spectrum of such values.  They are the package's only FFT calls,
and each scales by M inside the transform (``norm="forward"``) on every grid.
Both write into a caller's buffer when given one.
:func:`evaluate_grid` wraps them to sample coefficients as entry-major values
``(..., M, d, d)``, and :func:`fit_series` to fit such values back;
:func:`grid_product` multiplies the samples in between,
:func:`product_block` two entry blocks (a row block included) and
:func:`block_commutator` a stacked pair of them.
An analytic element F(z) = sum_{n=0}^N F_n z^n is its ``(N+1, d, d)``
coefficient array; :func:`project_plus` gives one, and the shifts and
:func:`reproduce_check` take them.
Every helper that knows both M and N rejects a grid of M < 2N+1 points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierSeries",
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
    "pad_spectrum",
    "spectrum_coeffs",
    "sample_padded",
    "fit_padded",
    "evaluate_grid",
    "product_block",
    "grid_product",
    "block_commutator",
    "fit_series",
    "shift_backward_matrix",
    "reproduce_check",
]


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
        arr = np.array(self.coeffs, dtype=complex, order="C")
        shape = (2 * self.N + 1, self.d, self.d)
        if arr.shape != shape:
            raise ValueError(f"expected coefficient array of shape {shape}, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

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

    def is_hermitian_symbol(self) -> bool:
        """True when (U_n)* = U_{-n} for all modes to 1e-12, i.e. U(theta) is Hermitian."""
        flipped = np.conj(np.transpose(self.coeffs[::-1], (0, 2, 1)))
        return bool(np.max(np.abs(self.coeffs - flipped)) <= 1e-12)


def series_stack(f) -> tuple[int, np.ndarray]:
    """Cutoff and coefficients of one series, or of a ``(..., 2N+1, d, d)``
    coefficient array, whose leading axes are the stack."""
    if isinstance(f, np.ndarray):
        if f.ndim < 3 or f.shape[-3] % 2 == 0 or f.shape[-2] != f.shape[-1]:
            raise ValueError(f"expected coefficients of shape (..., 2N+1, d, d), got {f.shape}")
        return (f.shape[-3] - 1) // 2, f
    if isinstance(f, FourierSeries):
        return f.N, f.coeffs
    raise TypeError(f"expected a FourierSeries or a coefficient array, got {type(f).__name__}")


def project_plus(f: FourierSeries) -> np.ndarray:
    """Analytic projection: the ``(N+1, d, d)`` coefficients of modes n >= 0, a
    read-only view of ``f.coeffs``."""
    return f.coeffs[f.N :]


def project_minus(f: FourierSeries) -> FourierSeries:
    """Anti-analytic part: keep modes n < 0 (as a two-sided series)."""
    out = f.coeffs.copy()
    out[f.N :] = 0.0
    return FourierSeries(f.d, f.N, out)


def shift_forward(f: np.ndarray) -> np.ndarray:
    """Multiply the analytic element f by z.  The top mode is dropped."""
    out = np.zeros_like(f)
    out[1:] = f[:-1]
    return out


def _shift_up(x: np.ndarray, rows: int) -> np.ndarray:
    """The backward shift on a mode-major array: every row moves up by ``rows``
    (one mode), and the top mode's rows become 0."""
    out = np.zeros_like(x)
    out[:-rows] = x[rows:]
    return out


def shift_backward(f: np.ndarray) -> np.ndarray:
    """(F(z) - F(0)) / z, the backward shift of the analytic element f."""
    return _shift_up(f, 1)


def mean(f: FourierSeries) -> np.ndarray:
    """Zeroth Fourier coefficient (projection onto constants)."""
    if isinstance(f, FourierSeries):
        return f.coeffs[f.N].copy()
    raise TypeError(f"mean expects a FourierSeries, got {type(f)!r}")


def fractional_derivative(f: FourierSeries) -> FourierSeries:
    """Modewise derivative |D|: multiplies mode n by |n|."""
    w = np.abs(np.arange(-f.N, f.N + 1))
    return FourierSeries(f.d, f.N, f.coeffs * w[:, None, None])


def half_norm_sq(f):
    """Homogeneous half-order seminorm squared: sum_n |n| |F_n|_E^2.

    A stack of series (see :func:`series_stack`) gives an array with one value
    per series, each equal bit for bit to the call on that series alone.
    """
    N, coeffs = series_stack(f)
    n = np.abs(np.arange(-N, N + 1))
    out = np.sum(n * np.sum(np.abs(coeffs) ** 2, axis=(-2, -1)), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


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
    return float(out) if np.ndim(out) == 0 else out


def _entry_blocks(a: np.ndarray, b: np.ndarray):
    """The ``(rows, cols, ...)`` entry views of samples a and b, their leading stack axes
    broadcast as in ``np.matmul``."""
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"cannot multiply samples of shapes {a.shape} and {b.shape}")
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a, b = (np.broadcast_to(x, stack + x.shape[-2:]) for x in (a, b))
    return (x.transpose(x.ndim - 2, x.ndim - 1, *range(x.ndim - 2)) for x in (a, b))


def product_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry block of ``a @ b`` from entry blocks a ``(n, m, ...)`` and b ``(m, p, ...)`` with
    equal trailing axes: m multiply-adds of whole blocks ``a[i, j] * b[j, k]`` over every
    (i, k), summed over j = 0..m-1 in order.  A row block ``a[i:i+1]`` gives row i alone."""
    out = np.empty(a.shape[:1] + b.shape[1:], np.result_type(a, b))
    acc = np.multiply(a[:, 0, None], b[None, 0], out=out)
    for j in range(1, a.shape[1]):
        acc += a[:, j, None] * b[None, j]
    return acc


def grid_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise matrix product of grid samples, ``a @ b`` broadcast as in ``np.matmul``.

    Taken as the :func:`product_block` of their entry blocks, summed over
    j in order, and returned entry major like :func:`evaluate_grid`.
    """
    out = product_block(*_entry_blocks(a, b))
    return out.transpose(*range(2, out.ndim), 0, 1)


def block_commutator(pair: np.ndarray) -> np.ndarray:
    """Pointwise ``a @ b - b @ a`` of a stacked pair ``[a, b]`` of entry blocks, C-contiguous: both
    products in one pass of d multiply-adds against the reversed pair, as :func:`grid_product` sums."""
    acc = np.multiply(pair[:, :, 0, None], pair[::-1, None, 0], out=np.empty(pair.shape, pair.dtype))
    for j in range(1, pair.shape[2]):
        acc += pair[:, :, j, None] * pair[::-1, None, j]
    acc[0] -= acc[1]
    return acc[0]


def _check_grid(M: int, N: int) -> None:
    """Raise ``ValueError`` when M < 2N+1, where a grid of M points aliases the
    modes of a cutoff-N series onto each other."""
    if M < 2 * N + 1:
        raise ValueError(f"grid of {M} points aliases a cutoff-{N} series (need M >= {2 * N + 1})")


def pad_spectrum(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Coefficients ``(..., 2N+1, d, d)`` as zero-padded entry-major spectra
    ``(d, d, ..., M)`` in FFT order, mode n in slot n mod M, copied as they are
    (the sign of a zero included).  Raises ``ValueError`` when M < 2N+1."""
    N = (coeffs.shape[-3] - 1) // 2
    _check_grid(M, N)
    nd = coeffs.ndim
    by_entry = coeffs.transpose(nd - 2, nd - 1, *range(nd - 3), nd - 3)
    spec = np.zeros(by_entry.shape[:-1] + (M,), dtype=complex)
    spec[..., : N + 1] = by_entry[..., N:]
    spec[..., M - N :] = by_entry[..., :N]
    return spec


def spectrum_coeffs(spec: np.ndarray, N: int) -> np.ndarray:
    """Cutoff-N coefficients ``(..., 2N+1, d, d)`` of entry-major spectra
    ``(d, d, ..., M)``, the inverse of :func:`pad_spectrum`.  Raises ``ValueError``
    when M < 2N+1."""
    _check_grid(spec.shape[-1], N)
    out = spec[..., np.arange(-N, N + 1) % spec.shape[-1]]
    return out.transpose(*range(2, out.ndim), 0, 1)


def sample_padded(spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Values at the M points theta_j = 2*pi*j/M of each zero-padded spectrum line
    ``(..., M)``: an inverse FFT along the last axis, scaled by M inside the
    transform, written into ``out`` if given."""
    return np.fft.ifft(spec, axis=-1, norm="forward", out=out)


def fit_padded(values: np.ndarray, N: int, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-padded cutoff-N spectrum ``(..., M)`` of the values on each line
    ``(..., M)``: an FFT along the last axis divided by M inside the transform,
    the slots of modes beyond N zeroed, written into ``out`` if given.  Raises
    ``ValueError`` when M < 2N+1."""
    M = values.shape[-1]
    _check_grid(M, N)
    spec = np.fft.fft(values, axis=-1, norm="forward", out=out)
    spec[..., N + 1 : M - N] = 0.0
    return spec


def evaluate_grid(f, M: int) -> np.ndarray:
    """Values at M equispaced points theta_j = 2*pi*j/M, via FFT.

    ``f`` is anything :func:`series_stack` takes, and the values come back as
    ``(..., M, d, d)``, entry major: a transposed view of a C-contiguous
    ``(d, d, ..., M)`` block, the entry block :func:`grid_product` multiplies.
    Each transform runs along its own entry line, so each series in a stack
    gets the values it gets alone, bit for bit.  Raises ``ValueError`` when
    M < 2N+1, where represented modes would alias onto each other.
    """
    _, coeffs = series_stack(f)
    spec = pad_spectrum(coeffs, M)
    # so a -0.0 coefficient samples as 0 + x = +0.0
    spec += 0.0
    return sample_padded(spec).transpose(*range(2, coeffs.ndim), 0, 1)


def fit_series(values: np.ndarray, N: int) -> np.ndarray:
    """Cutoff-N coefficients ``(..., 2N+1, d, d)`` of ``(..., M, d, d)`` grid samples.

    Trigonometric interpolation, transformed along the entry lines: the
    inverse of :func:`evaluate_grid` on cutoff-N series.  Raises ``ValueError``
    when M < 2N+1, where the fit would alias modes.
    """
    nd = values.ndim
    return spectrum_coeffs(fit_padded(values.transpose(nd - 2, nd - 1, *range(nd - 2)), N), N)


def shift_backward_matrix(d: int, N: int) -> np.ndarray:
    """S* on stacked coordinates (mode-major, then row-major matrix entries)."""
    return np.eye((N + 1) * d * d, k=d * d)


def reproduce_check(f: np.ndarray, z: complex) -> np.ndarray:
    """Evaluate F(z) through the resolvent identity F(z) = M((I - z S*)^{-1} F).

    Solves the linear system on the truncated space rather than summing the
    Taylor series, so agreement with a Horner evaluation of the polynomial is
    a real check of the reproducing formula.  F, an ``(N+1, d, d)`` analytic
    element, runs as its d columns on the vector section, where S* moves rows
    up by d and M keeps the first d rows.
    Rejects |z| >= 1.
    """
    if abs(z) >= 1.0:
        raise ValueError(f"reproduce_check needs |z| < 1, got |z| = {abs(z)}")
    d, n = f.shape[-1], f.shape[0] * f.shape[-1]
    A = np.eye(n) - z * _shift_up(np.eye(n), d)
    return np.linalg.solve(A, f.reshape(n, d))[:d]
