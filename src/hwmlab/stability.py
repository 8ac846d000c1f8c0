"""Strong-stability experiments for resolvent-formula propagators.

The object under study is the contraction built from an isometry
``Sigma = S exp(itL)`` on a truncated Hardy space: its adjoint powers emit
one output coefficient per step through the mean projection, and the total
emitted norm tells whether the propagator is unitary (strong stability of
``Sigma*``) or loses norm.  The flow models take ``L`` = the Toeplitz
operator of the initial datum; the scalar zero-dispersion model is the
counterexample where norm loss appears after the first breaking time.

The same contraction drives the exact flow: ``evolution`` builds its
per-time step with :func:`contraction_matrix` and reads the output modes
with :func:`emit`, the one loop that iterates any contraction here.

On the truncated space the backward shift and mean projection satisfy their
defining identities exactly, so the telescoping norm balance holds to
rounding: residuals up to 1.1e-14 on the zero-dispersion curves at N = 256
and 512 and 4.3e-14 for a random unit vector over 200 steps, bounded by
1e-10 in the tests.  Truncation enters only through the finite section of
``L`` inside the exponential.  Verdicts about the infinite model therefore
demand agreement across several cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import FourierSeries, HardyElement, project_plus
from .grassmann import GrassmannLoop
from .operators import build_toeplitz

__all__ = [
    "contraction_matrix",
    "emit",
    "standard_mean_map",
    "IsometryModel",
    "StabilityReport",
    "isometry_model",
    "hwm_model",
    "zd_bo_model",
    "breaking_time",
    "model_at_time",
    "apply_u_sigma",
    "parseval_defect",
    "strong_stability_test",
    "zd_bo_norm_curve",
    "wold_decomposition_estimate",
]


def contraction_matrix(
    lam: np.ndarray, vecs: np.ndarray, phase: float, e: int, sstar: np.ndarray | None = None
) -> np.ndarray:
    """``exp(-i phase L) S*`` from the eigenpairs ``lam``, ``vecs`` of ``L``.

    ``sstar`` is a dense (compressed) backward shift.  Without it ``S*`` is
    the standard backward shift on stacked coordinates with ``e`` entries per
    mode, applied by shifting columns: column block n of the product is
    column block n - 1 of the exponential.
    """
    expo = (vecs * np.exp(-1j * phase * lam)) @ vecs.conj().T
    if sstar is not None:
        return expo @ sstar
    out = np.zeros_like(expo)
    out[:, e:] = expo[:, :-e]
    return out


def emit(A: np.ndarray, mean_map: np.ndarray, v: np.ndarray, n_max: int, stop_tol: float | None = None):
    """Means ``mean_map @ A^n v`` and norms ``||A^n v||`` for n = 0..n_max, stacked.

    With ``stop_tol`` the iteration ends after the first step whose norm is at
    most ``stop_tol``; without it there are always ``n_max + 1`` of each.
    """
    means = [mean_map @ v]
    norms = [float(np.linalg.norm(v))]
    for _ in range(n_max):
        v = A @ v
        means.append(mean_map @ v)
        norms.append(float(np.linalg.norm(v)))
        if stop_tol is not None and norms[-1] <= stop_tol:
            break
    return np.array(means), np.array(norms)


def standard_mean_map(d: int, dim: int) -> np.ndarray:
    """Zeroth coefficient of stacked mode-major coordinates, shape ``(d, d, dim)``."""
    return np.eye(d * d, dim, dtype=complex).reshape(d, d, dim)


@dataclass(frozen=True)
class IsometryModel:
    """Truncated Hardy-space contraction ``Sigma* = exp(-i t_scale t L) S*``.

    ``d`` is the coefficient matrix dimension (1 for scalar models); the
    space dimension is ``(N+1) d^2``.  ``lam``/``vecs`` hold the
    eigendecomposition of the Hermitian generator, so the model can be
    re-timed without refactorizing.  ``time_scale`` converts model time into
    generator phase (the zero-dispersion model transports at twice the
    profile, so it carries 2).
    """

    d: int
    N: int
    t: float
    lam: np.ndarray
    vecs: np.ndarray
    sigma_star: np.ndarray
    time_scale: float = 1.0
    label: str = ""

    @property
    def e_dim(self) -> int:
        return self.d * self.d

    @property
    def dim(self) -> int:
        return (self.N + 1) * self.e_dim

    @property
    def mean_map(self) -> np.ndarray:
        """P_Sigma, the defect projection onto the zeroth coefficient."""
        return standard_mean_map(self.d, self.dim)


def isometry_model(L: np.ndarray, t: float, d: int, N: int, label: str = "") -> IsometryModel:
    """Model from an explicit Hermitian generator on the truncated space."""
    dim = (N + 1) * d * d
    if L.shape != (dim, dim):
        raise ValueError(f"generator must be {dim}x{dim}, got {L.shape}")
    if np.max(np.abs(L - L.conj().T)) > 1e-10:
        raise ValueError("generator must be Hermitian")
    lam, vecs = np.linalg.eigh(L)
    return _with_time(d, N, t, lam, vecs, 1.0, label)


def _with_time(d, N, t, lam, vecs, time_scale, label) -> IsometryModel:
    sigma_star = contraction_matrix(lam, vecs, time_scale * t, d * d)
    return IsometryModel(
        d=d, N=N, t=t, lam=lam, vecs=vecs, sigma_star=sigma_star,
        time_scale=time_scale, label=label,
    )


def model_at_time(model: IsometryModel, t: float) -> IsometryModel:
    """Same generator, new time; reuses the cached eigendecomposition."""
    return _with_time(model.d, model.N, t, model.lam, model.vecs, model.time_scale, model.label)


def hwm_model(u0: GrassmannLoop, t: float, N: int) -> IsometryModel:
    """Flow model: L is the block Toeplitz section of the initial loop."""
    T = build_toeplitz(u0.series, N)
    lam, vecs = np.linalg.eigh(T.matrix)
    return _with_time(u0.d, N, t, lam, vecs, 1.0, f"hwm d={u0.d} N={N}")


def zd_bo_model(N: int, u0: FourierSeries, t: float = 0.0) -> IsometryModel:
    """Scalar model with L the Toeplitz section of a real trig polynomial.

    For ``u0 = -cos`` the generator is tridiagonal with -1/2 off the
    diagonal.  The inviscid transport underlying this model moves at twice
    the profile (u_t + 2 u u_x), so the contraction phase carries ``2t``;
    with that scaling the measured onset of norm loss for ``u0 = -cos``
    sits at the first breaking time 1/2, and it sits at 1 without it.
    """
    if u0.d != 1:
        raise ValueError("zero-dispersion model expects a scalar symbol (d = 1)")
    vals = u0.coeffs[:, 0, 0]
    if np.max(np.abs(vals - np.conj(vals[::-1]))) > 1e-12:
        raise ValueError("symbol must be real-valued on the circle")
    T = build_toeplitz(u0, N)
    lam, vecs = np.linalg.eigh(T.matrix)
    return _with_time(1, N, t, lam, vecs, 2.0, f"zd-bo N={N}")


def breaking_time(u0: FourierSeries, grid: int = 4096) -> float:
    """-1 / (2 min u0') for a real scalar symbol, sampled on a fine grid."""
    theta = 2.0 * np.pi * np.arange(grid) / grid
    n = np.arange(-u0.N, u0.N + 1)
    vals = u0.coeffs[:, 0, 0]
    du = np.real(np.sum(1j * n[:, None] * vals[:, None] * np.exp(1j * np.outer(n, theta)), axis=0))
    m = float(np.min(du))
    if m >= 0.0:
        return np.inf
    return -1.0 / (2.0 * m)


@dataclass(frozen=True)
class StabilityReport:
    """Defect curve and the bookkeeping around it.

    ``norms[n]`` is the norm of the n-th adjoint power applied to the input;
    the curve is nonincreasing.  ``emitted_sq[n]`` is the squared output
    coefficient at step n, and the telescoping residual checks that partial
    emission accounts, to rounding, for the norm drop at every step.
    """

    norms: np.ndarray
    emitted_sq: np.ndarray
    telescope_residual: float
    limit_estimate: float
    tail_slope_per_octave: float
    n_steps: int


def _as_vector(model: IsometryModel, f) -> np.ndarray:
    if isinstance(f, HardyElement):
        if f.d != model.d:
            raise ValueError("element dimension does not match the model")
        coeffs = np.zeros((model.N + 1, model.d, model.d), dtype=complex)
        m = min(model.N, f.N)
        coeffs[: m + 1] = f.coeffs[: m + 1]
        return coeffs.reshape(-1)
    vec = np.asarray(f, dtype=complex).reshape(-1)
    if vec.size != model.dim:
        raise ValueError(f"expected a vector of length {model.dim}, got {vec.size}")
    return vec


def apply_u_sigma(model: IsometryModel, f, n_max: int) -> HardyElement:
    """Output element with coefficients P_Sigma (Sigma*)^n F, n = 0..n_max.

    A contraction of the input by the telescoping norm balance.
    """
    out, _ = emit(model.sigma_star, model.mean_map, _as_vector(model, f), n_max)
    return HardyElement(model.d, n_max, out, truncated=True)


def parseval_defect(model: IsometryModel, f, n_max: int, stop_tol: float = 0.0) -> StabilityReport:
    """Defect curve of the adjoint powers with the telescoping check."""
    means, norms = emit(model.sigma_star, model.mean_map, _as_vector(model, f), n_max, stop_tol)
    emitted = np.linalg.norm(means, axis=(1, 2)) ** 2
    partial = np.cumsum(emitted[:-1]) if emitted.size > 1 else np.zeros(0)
    balance = norms[0] ** 2 - norms[1:] ** 2
    residual = float(np.max(np.abs(partial - balance))) if partial.size else 0.0
    n_steps = norms.size - 1
    half = max(1, n_steps // 2)
    if norms[half] > 0.0 and norms[-1] > 0.0 and n_steps > half:
        octaves = np.log2(n_steps / half)
        slope = float((np.log2(norms[-1]) - np.log2(norms[half])) / max(octaves, 1e-12))
    else:
        slope = -np.inf
    return StabilityReport(
        norms=norms,
        emitted_sq=emitted,
        telescope_residual=residual,
        limit_estimate=float(norms[-1]),
        tail_slope_per_octave=slope,
        n_steps=n_steps,
    )


def strong_stability_test(
    model: IsometryModel,
    vectors,
    n_max: int,
    tol: float = 1e-6,
    plateau_slope: float = 1e-3,
) -> dict:
    """Classify the model as stable, unstable, or inconclusive.

    Stable: every sampled defect curve falls below tol within the budget.
    Unstable: some curve stays above tol with a flat log-tail (slope per
    doubling below ``plateau_slope``).  Anything else, including slow but
    still-decaying curves, is inconclusive rather than guessed.
    """
    verdicts = []
    reports = []
    for f in vectors:
        rep = parseval_defect(model, f, n_max, stop_tol=tol * 0.5)
        reports.append(rep)
        if rep.limit_estimate <= tol:
            verdicts.append("stable")
        elif abs(rep.tail_slope_per_octave) < plateau_slope:
            verdicts.append("unstable")
        else:
            verdicts.append("inconclusive")
    if all(v == "stable" for v in verdicts):
        verdict = "stable"
    elif any(v == "unstable" for v in verdicts):
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return {"verdict": verdict, "per_vector": verdicts, "reports": reports}


def zd_bo_norm_curve(
    u0: FourierSeries,
    times,
    Ns=(256, 512, 1024),
    checkpoint: int = 1024,
    detection_threshold: float = 1e-4,
) -> dict:
    """Output norm of the scalar formula applied to the analytic part of u0.

    The unresolved norm after ``checkpoint`` adjoint powers estimates the
    defect limit: past the breaking time the curve hangs at an N-independent
    plateau there, while the eventual decay at any fixed cutoff is pure
    finite-section leakage (every finite section is ultimately stable).  The
    checkpoint must sit inside that plateau window, after the transient but
    before leakage; 1024 steps does this for cutoffs >= 256 and times <= 1.
    Reports ``norm = ||output||`` and ``deficit = ||Pi u0|| - norm`` per (t, N),
    and the first threshold crossing per cutoff as the measured onset.
    """
    rows = []
    onsets = {}
    for N in Ns:
        base = zd_bo_model(N, u0)
        pu = project_plus(u0.with_cutoff(N)).coeffs.reshape(-1)
        norm0 = float(np.linalg.norm(pu))
        onset = None
        for t in times:
            model = model_at_time(base, float(t))
            rep = parseval_defect(model, pu, checkpoint, stop_tol=1e-9)
            tail = rep.limit_estimate
            out_norm = float(np.sqrt(max(0.0, norm0**2 - tail**2)))
            deficit = norm0 - out_norm
            if onset is None and deficit > detection_threshold:
                onset = float(t)
            rows.append(
                {
                    "t": float(t),
                    "N": int(N),
                    "norm": out_norm,
                    "deficit": deficit,
                    "tail_norm": tail,
                    "tail_slope": rep.tail_slope_per_octave,
                    "n_steps": rep.n_steps,
                }
            )
        onsets[int(N)] = onset
    return {"rows": rows, "onsets": onsets, "norm0": norm0, "threshold": detection_threshold}


def wold_decomposition_estimate(model: IsometryModel, budget: int, tol: float = 1e-6) -> dict:
    """Numerical split into norm-preserving and shift-like subspace dimensions.

    Stacks the emission rows ``P_Sigma (Sigma*)^j`` for j < budget; a unit
    vector's squared image under this map is exactly the norm it loses
    within the budget, so singular values below tol flag directions that
    keep essentially all their norm (the unitary part at this resolution).
    """
    e = model.e_dim
    W = np.zeros((budget * e, model.dim), dtype=complex)
    block = model.mean_map.reshape(e, model.dim)
    for j in range(budget):
        W[j * e : (j + 1) * e] = block
        if j < budget - 1:
            block = block @ model.sigma_star
    sv = np.linalg.svd(W, compute_uv=False)
    sv = np.concatenate([sv, np.zeros(max(0, model.dim - sv.size))])
    dim_u = int(np.count_nonzero(sv < tol))
    return {
        "dim_unitary": dim_u,
        "dim_stable": model.dim - dim_u,
        "singular_values": sv,
        "budget": budget,
        "tol": tol,
    }
