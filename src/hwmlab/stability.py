"""Strong-stability experiments for resolvent-formula propagators.

The object under study is the contraction built from an isometry
``Sigma = S exp(itL)`` on a truncated Hardy space: its adjoint powers emit
one output coefficient per step through the mean projection, and the total
emitted norm tells whether the propagator is unitary (strong stability of
``Sigma*``) or loses norm.  The flow models take ``L`` = the Toeplitz
operator of the initial datum, factored on its vector section: the symbol
acts by left multiplication, so a matrix-valued input is its d columns,
stepped side by side as one curve.  The scalar zero-dispersion model is the
counterexample where norm loss appears after the first breaking time.

Every defect curve here and every output mode of the exact flow runs on
one path: :meth:`IsometryModel.iterate` steps its start vectors in the
generator's eigenbasis, where a step at time t is
:attr:`IsometryModel.eigen_shift` with its rows phased by ``exp(-itL)``, as
one block through :func:`emit`, the one loop that iterates any contraction
here; each column is cut at its own stop (:func:`first_stops`).  A real
generator (``-cos``) keeps every step real.  The dense
:meth:`IsometryModel.step` is the reference form.

On the truncated space the backward shift and mean projection satisfy their
defining identities exactly, so the telescoping norm balance holds to
rounding: residuals up to 1.1e-14 on the zero-dispersion curves at N = 256
and 512 and 4.3e-14 for a random unit vector over 200 steps, bounded by
1e-10 in the tests.  Truncation enters only through the finite section of
``L`` inside the exponential.  Verdicts about the infinite model therefore
demand agreement across several cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .hardy import FourierSeries, HardyElement, project_plus
from .grassmann import GrassmannLoop
from .operators import toeplitz_vector_section

__all__ = [
    "emit",
    "first_stops",
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


def _curve_norms(v: np.ndarray) -> np.ndarray:
    re, im = v.real, v.imag
    sq = (re * re + im * im).sum(axis=0)
    return np.sqrt(sq.reshape(-1, v.shape[-1]).sum(axis=0))


def emit(
    A: np.ndarray,
    mean_map: np.ndarray,
    v: np.ndarray,
    n_max: int,
    stop_tol: float | None = None,
    phase: np.ndarray | None = None,
):
    """Means ``mean_map @ A^n v`` and curve norms ``||A^n v||`` for n = 0..n_max, stacked.

    ``v`` holds T curves iterated side by side, ``(dim, T)`` or ``(dim, g, T)``
    for curves of g columns each, whose norm is the root-sum-square of theirs.
    ``phase`` (broadcast against ``v``) multiplies every step entrywise, so
    curve j follows ``(diag(phase[..., j]) A)^n``.  Means have shape
    ``(n+1,) + (mean_map @ v.reshape(dim, -1)).shape`` and norms ``(n+1, T)``.
    With ``stop_tol`` the iteration ends once every curve has had a step with
    norm at most ``stop_tol`` (each curve's own stop is :func:`first_stops`);
    without it there are always ``n_max + 1`` steps.  A real ``A`` steps a
    complex ``v`` as one real product on its stacked real and imaginary parts.
    """
    done = np.zeros(v.shape[-1], dtype=bool)
    real_step = not np.iscomplexobj(A) and np.iscomplexobj(v)
    if real_step:
        v = np.ascontiguousarray(v, dtype=complex)
    dim, shape = len(v), v.shape
    means = [mean_map @ v.reshape(dim, -1)]
    norms = [_curve_norms(v)]
    for _ in range(n_max):
        w = A @ (v.view(float) if real_step else v).reshape(dim, -1)
        v = (w.view(complex) if real_step else w).reshape(shape)
        if phase is not None:
            v *= phase
        means.append(mean_map @ v.reshape(dim, -1))
        norms.append(_curve_norms(v))
        if stop_tol is not None:
            done |= norms[-1] <= stop_tol
            if done.all():
                break
    return np.array(means), np.array(norms)


def first_stops(norms: np.ndarray, tol: float) -> np.ndarray:
    """Per column of ``(n+1, T)`` norms, the first step whose norm is at most ``tol``, else the last step."""
    steps = norms.shape[0] - 1
    if steps == 0:
        return np.zeros(norms.shape[1], dtype=int)
    below = norms[1:] <= tol
    return np.where(below.any(axis=0), below.argmax(axis=0) + 1, steps)


@dataclass(frozen=True)
class IsometryModel:
    """Truncated Hardy-space contraction ``Sigma* = exp(-i t_scale t L) S*``.

    ``d`` is the coefficient matrix dimension (1 for scalar models) and
    ``N`` the Hardy-space cutoff.  ``lam``/``vecs`` hold the
    eigendecomposition of the Hermitian generator, so the model can be
    re-timed without refactorizing.  The generator acts on the matrix
    section (``(N+1) d^2`` wide), on the vector section (``(N+1) d`` wide,
    the flow models: a matrix input runs as its d columns) or on an exact
    flow's invariant subspace.  ``mean_map`` is P_Sigma, the defect
    projection onto the zeroth coefficient, one row per coordinate of a mode
    (``(d, d)`` on a frame).  ``sstar`` is a dense compressed backward shift
    (an invariant subspace); ``None`` means the standard backward shift.
    ``time_scale`` converts model time into generator phase (the
    zero-dispersion model transports at twice the profile, so it carries 2).
    """

    d: int
    N: int
    lam: np.ndarray
    vecs: np.ndarray
    mean_map: np.ndarray
    sstar: np.ndarray | None = None
    t: float = 0.0
    time_scale: float = 1.0
    label: str = ""

    @property
    def _mode_width(self) -> int:
        return self.mean_map.size // self.lam.size

    @property
    def columns(self) -> int:
        """Columns per input: ``d^2`` over the rows of ``mean_map``, so d on the vector section, else 1."""
        return self.d * self.d // self._mode_width

    @property
    def dim(self) -> int:
        """Length of an input vector: the generator's size times :attr:`columns`."""
        return self.lam.size * self.columns

    def step(self, t: float) -> np.ndarray:
        """``exp(-i time_scale t L) S*`` as a dense matrix on the generator's coordinates.

        The standard backward shift is applied by shifting columns: column
        block n of the product is column block n - 1 of the exponential.
        """
        expo = (self.vecs * np.exp(-1j * (self.time_scale * t) * self.lam)) @ self.vecs.conj().T
        if self.sstar is not None:
            return expo @ self.sstar
        e = self._mode_width
        out = np.zeros_like(expo)
        out[:, e:] = expo[:, :-e]
        return out

    @cached_property
    def eigen_shift(self) -> np.ndarray:
        """``V* S* V``, the shift in the generator's eigenbasis ``V``.

        ``step(t)`` is ``V diag(phases(t)) eigen_shift V*``, so in eigenbasis
        coordinates a step at any time is this matrix with its rows phased.
        """
        vh = self.vecs.conj().T
        if self.sstar is not None:
            return vh @ self.sstar @ self.vecs
        e = self._mode_width
        return vh[:, :-e] @ self.vecs[e:]

    @cached_property
    def eigen_mean_map(self) -> np.ndarray:
        """``mean_map @ V``: the mean read off eigenbasis coordinates."""
        return self.mean_map @ self.vecs

    def phases(self, times) -> np.ndarray:
        """``exp(-i time_scale t lam)``, one row per eigenvalue and one column per time."""
        return np.exp(-1j * self.time_scale * np.outer(self.lam, times))

    def iterate(self, x: np.ndarray, times, n_max: int, stop_tol: float | None = None):
        """Means ``(n+1, d, d, T)`` and norms ``(n+1, T)`` of ``step(t_j)^n x_j``.

        ``x`` holds start vectors of length :attr:`dim`, ``(dim,)`` for one
        start at every time or ``(dim, T)`` for one start per time.  On the
        vector section a start is a stacked matrix element; its d columns
        form one curve, whose norm is the root-sum-square of theirs.  The
        iteration runs on eigenbasis coordinates ``V* x`` as one :func:`emit`
        block; ``V`` is unitary, so norms and means are those of the dense
        steps.  ``stop_tol`` is :func:`emit`'s and acts on the curve norms.
        """
        phase = self.phases(times)
        n, g = self.lam.size, self.columns
        w = (self.vecs.conj().T @ x.reshape(n, -1)).reshape(n, g, -1)
        if x.ndim == 1:
            w = np.repeat(w, phase.shape[1], axis=2)
        mean_map = self.eigen_mean_map.reshape(-1, n)
        means, norms = emit(self.eigen_shift, mean_map, w, n_max, stop_tol, phase[:, None])
        return means.reshape(means.shape[0], self.d, self.d, -1), norms


def _standard_model(L: np.ndarray, d: int, N: int, t: float, time_scale: float, label: str) -> IsometryModel:
    """Model with the standard shift and mean map, from a Hermitian generator (real if L is)."""
    lam, vecs = np.linalg.eigh(L if L.imag.any() else L.real)
    mean_map = np.eye(lam.size // (N + 1), lam.size, dtype=complex)
    return IsometryModel(d, N, lam, vecs, mean_map, t=t, time_scale=time_scale, label=label)


def isometry_model(L: np.ndarray, t: float, d: int, N: int, label: str = "") -> IsometryModel:
    """Model from an explicit Hermitian generator on the matrix section's coordinates."""
    dim = (N + 1) * d * d
    if L.shape != (dim, dim):
        raise ValueError(f"generator must be {dim}x{dim}, got {L.shape}")
    if np.max(np.abs(L - L.conj().T)) > 1e-10:
        raise ValueError("generator must be Hermitian")
    return _standard_model(L, d, N, t, 1.0, label)


def model_at_time(model: IsometryModel, t: float) -> IsometryModel:
    """Same generator, new time; reuses the cached eigendecomposition."""
    return replace(model, t=t)


def hwm_model(u0: GrassmannLoop, t: float, N: int) -> IsometryModel:
    """Flow model: L is the Toeplitz vector section of the initial loop.

    Its lift is the matrix section, so a matrix input runs as its d columns.
    """
    return _standard_model(toeplitz_vector_section(u0, N), u0.d, N, t, 1.0, f"hwm d={u0.d} N={N}")


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
    if not u0.is_hermitian_symbol(1e-12):
        raise ValueError("symbol must be real-valued on the circle")
    return _standard_model(toeplitz_vector_section(u0, N), 1, N, t, 2.0, f"zd-bo N={N}")


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
        f = f.with_cutoff(model.N).coeffs
    vec = np.asarray(f, dtype=complex).reshape(-1)
    if vec.size != model.dim:
        raise ValueError(f"expected a vector of length {model.dim}, got {vec.size}")
    return vec


def apply_u_sigma(model: IsometryModel, f, n_max: int) -> HardyElement:
    """Output element with coefficients P_Sigma (Sigma*)^n F, n = 0..n_max.

    A contraction of the input by the telescoping norm balance.
    """
    means, _ = model.iterate(_as_vector(model, f), [model.t], n_max)
    return HardyElement(model.d, n_max, means[..., 0], truncated=True)


def _reports(means: np.ndarray, norms: np.ndarray, stop_tol: float) -> list[StabilityReport]:
    """One report per column of an iterated block, each cut at its own first stop."""
    stops = first_stops(norms, stop_tol).tolist()
    return [_report(means[: n + 1, ..., j], norms[: n + 1, j]) for j, n in enumerate(stops)]


def _report(means: np.ndarray, norms: np.ndarray) -> StabilityReport:
    """The report of one emitted curve: ``means`` ``(n+1, d, d)`` and ``norms`` ``(n+1,)``."""
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


def parseval_defect(model: IsometryModel, f, n_max: int, stop_tol: float = 0.0) -> StabilityReport:
    """Defect curve of the adjoint powers with the telescoping check."""
    return _reports(*model.iterate(_as_vector(model, f), [model.t], n_max, stop_tol), stop_tol)[0]


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
    still-decaying curves, is inconclusive rather than guessed.  All vectors
    run as one block, each curve cut at its own stop.
    """
    starts = [_as_vector(model, f) for f in vectors]
    if not starts:
        raise ValueError("strong_stability_test needs at least one vector")
    x = np.stack(starts, axis=1)
    reports = _reports(*model.iterate(x, np.full(x.shape[1], model.t), n_max, tol * 0.5), tol * 0.5)
    verdicts = []
    for rep in reports:
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
    All times of one cutoff run as one :meth:`IsometryModel.iterate` block, in
    real arithmetic when the generator is real; each time stops at its own norm <= 1e-9.
    """
    rows = []
    onsets = {}
    for N in Ns:
        base = zd_bo_model(N, u0)
        pu = project_plus(u0.with_cutoff(N)).coeffs.reshape(-1)
        norm0 = float(np.linalg.norm(pu))
        onset = None
        for t, rep in zip(times, _reports(*base.iterate(pu, times, checkpoint, 1e-9), 1e-9)):
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
                    "telescope_residual": rep.telescope_residual,
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
    The rows are formed in the eigenbasis ``V`` (step ``diag(phase) eigen_shift``);
    the unitary ``V*`` leaves the singular values unchanged.  Dimensions are
    those of the matrix-valued space: on the vector section each singular
    value counts once per column, as :func:`~hwmlab.operators.kronecker_rank`
    counts them.
    """
    n, e = model.lam.size, model._mode_width
    W = np.zeros((budget * e, n), dtype=complex)
    block = model.eigen_mean_map.reshape(e, n)
    step = model.phases([model.t]) * model.eigen_shift
    for j in range(budget):
        W[j * e : (j + 1) * e] = block
        if j < budget - 1:
            block = block @ step
    sv = np.linalg.svd(W, compute_uv=False)
    sv = np.repeat(np.concatenate([sv, np.zeros(max(0, n - sv.size))]), model.columns)
    dim_u = int(np.count_nonzero(sv < tol))
    return {
        "dim_unitary": dim_u,
        "dim_stable": model.dim - dim_u,
        "singular_values": sv,
        "budget": budget,
        "tol": tol,
    }
