"""Strong-stability experiments for resolvent-formula propagators.

The object under study is the contraction built from an isometry
``Sigma = S exp(itL)`` on a truncated Hardy space: its adjoint powers emit
one output coefficient per step through the mean projection, and the total
emitted norm tells whether the propagator is unitary (strong stability of
``Sigma*``) or loses norm.  The flow models take ``L`` = the Toeplitz
operator of the initial datum, factored on its vector section: the symbol
acts by left multiplication, so a matrix-valued input is its d columns,
stepped side by side as one curve.  Every model, an exact flow's included,
holds its eigenvectors on the vector section, so the backward shift (rows
up by d) and the mean projection (the first d rows) are read off them by
slicing.  The scalar zero-dispersion model is the counterexample where norm
loss appears after the first breaking time.

Every defect curve here and every output mode of the exact flow runs on
one path: :meth:`IsometryModel.iterate` steps its start vectors in the
generator's eigenbasis, where a step at time t is
:attr:`IsometryModel.eigen_shift` with its rows phased by ``exp(-itL)``, as
one block through :func:`emit`, the one loop that iterates any contraction
here.  It steps the block in chunks and reads the means, norms and stops
once per chunk.  It alone decides where a curve stops (its docstring
states the rule) and returns each stop: a column's entries after its stop
are 0, so callers cut each column at the returned stop, and the block
narrows to the live columns at the end of the chunk where the stop falls.
A real generator (``-cos``) keeps every step real.  The dense
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

from .hardy import FourierSeries, evaluate_grid, project_plus
from .grassmann import GrassmannLoop
from .operators import hermitian_eigh, toeplitz_vector_section

__all__ = [
    "emit",
    "IsometryModel",
    "StabilityReport",
    "isometry_model",
    "hwm_model",
    "zd_bo_model",
    "breaking_time",
    "model_at_time",
    "apply_u_sigma",
    "parseval_defect",
    "curve_verdict",
    "strong_stability_test",
    "zd_bo_norm_curve",
    "wold_decomposition_estimate",
]

# deficit above which zd_bo_norm_curve reports norm loss at a cutoff
ONSET_THRESHOLD = 1e-4
# a curve that has not settled is unstable when its log-tail slope per doubling is below this
PLATEAU_SLOPE = 1e-3
# emit reads means, norms and stops once per chunk of this many steps ...
CHUNK_STEPS = 32
# ... or of fewer (one at least) past this: the most entries any stacked array of a solve holds
BLOCK_ENTRIES = 1 << 18


def _curve_norms(v: np.ndarray) -> np.ndarray:
    """Root-sum-square over all but the first and last axes of a C-contiguous complex
    chunk ``(K, dim, ..., T)``, as ``(K, T)``, in one pass."""
    f = v.view(float).reshape(len(v), -1, 2 * v.shape[-1])
    sq = np.einsum("kij,kij->kj", f, f)
    return np.sqrt(sq[:, 0::2] + sq[:, 1::2])


def emit(
    A: np.ndarray,
    mean_map: np.ndarray,
    v: np.ndarray,
    n_max: int,
    stop_tol: float | None = None,
    phase: np.ndarray | None = None,
):
    """Means ``mean_map @ A^n v``, curve norms ``||A^n v||`` for n = 0..n_max, and stops.

    ``v`` holds T curves iterated side by side, ``(dim, T)`` or ``(dim, g, T)``
    for curves of g columns each, whose norm is the root-sum-square of theirs.
    ``phase`` (broadcast against ``v``, with one entry per curve on its last
    axis) multiplies every step entrywise, so curve j follows
    ``(diag(phase[..., j]) A)^n``.  Means have shape ``(n+1,) + (mean_map @
    v.reshape(dim, -1)).shape``, norms ``(n+1, T)`` and stops ``(T,)``.
    The block steps in chunks of ``CHUNK_STEPS`` steps (fewer where a chunk
    would pass ``BLOCK_ENTRIES`` entries), and each chunk's means and norms
    are one batched product each.  The package's one stop rule: with
    ``stop_tol`` a curve stops at the first step from step 1 on whose norm is
    at most ``stop_tol``, else at ``n_max``: that step is recorded, every later
    entry is 0, the block narrows to the live curves at the end of the chunk,
    and the iteration ends once no curve is live.  Without it every curve
    stops at ``n_max``.  A real ``A`` steps the complex block as one real
    product on its stacked real and imaginary parts.  Raises ValueError for
    ``n_max < 0`` or an empty block.
    """
    if n_max < 0:
        raise ValueError(f"step count must be >= 0, got {n_max}")
    v = np.asarray(v)
    if not v.size:
        raise ValueError("emit needs a nonempty block")
    real_step = not np.iscomplexobj(A)
    dim, lead = len(v), mean_map.shape[:-1]
    rows = mean_map.reshape(-1, dim)
    K = max(1, min(CHUNK_STEPS, BLOCK_ENTRIES // v.size))
    # slot 0 holds the step before the chunk, slots 1..k the chunk's k steps
    buf = np.empty((K + 1,) + v.shape, dtype=complex)
    buf[1] = v
    live = np.arange(v.shape[-1])
    stops = np.full(v.shape[-1], n_max)
    chunks = []  # (first step, live curves, means (k, rows * g, live), norms (k, live))
    lo, steps = 0, n_max + 1
    while lo < steps:
        k = min(K, steps - lo)
        flat = buf.reshape(K + 1, dim, -1)
        if real_step:
            flat = flat.view(float)
        for j in range(2 if lo == 0 else 1, k + 1):
            np.matmul(A, flat[j - 1], out=flat[j])
            if phase is not None:
                buf[j] *= phase
        block = buf[1 : k + 1]
        means = (rows @ block.reshape(k, dim, -1)).reshape(k, -1, live.size)
        norms = _curve_norms(block)
        chunks.append((lo, live, means, norms))
        carry = buf[k]
        if stop_tol is not None:
            below = norms <= stop_tol
            below[0] &= lo > 0  # step 0 stops no curve
            stopped = below.any(axis=0)
            if stopped.any():
                stop = np.where(stopped, below.argmax(axis=0), k)
                stops[live[stopped]] = lo + stop[stopped]
                after, cols = np.nonzero(np.arange(k)[:, None] > stop)
                means[after, :, cols] = 0.0
                norms[after, cols] = 0.0
                if stopped.all():
                    steps = lo + int(stop.max()) + 1
                live, carry = live[~stopped], np.compress(~stopped, carry, axis=-1)
                if phase is not None:
                    phase = np.compress(~stopped, phase, axis=-1)
                buf = np.empty((K + 1,) + carry.shape, dtype=complex)
        buf[0] = carry
        lo += k
    out_means = np.zeros((steps, means.shape[1], v.shape[-1]), dtype=complex)
    out_norms = np.zeros((steps, v.shape[-1]))
    for lo, cols, m, n in chunks:
        out_means[lo : lo + len(m), :, cols] = m[: steps - lo]
        out_norms[lo : lo + len(n), cols] = n[: steps - lo]
    return out_means.reshape((steps,) + lead + (-1,)), out_norms, stops


@dataclass(frozen=True)
class IsometryModel:
    """Truncated Hardy-space contraction ``Sigma* = exp(-i t L) S*``.

    ``d`` is the coefficient matrix dimension (1 for scalar models) and
    ``N`` the Hardy-space cutoff.  The generator acts on column vectors of
    the vector section, ``(N+1) d`` long and mode-major, and a matrix input
    runs as its d columns.  ``lam``/``vecs`` hold its eigendecomposition on
    section coordinates, so :func:`model_at_time` re-times a model without
    refactorizing: ``vecs`` has orthonormal columns, square for a generator
    on the whole section and ``frame @ V`` for an exact flow's invariant
    subspace, whose starts must lie in its span.  The backward shift S* moves
    rows up by d and the mean projection P_Sigma keeps the first d rows, so
    both are read off ``vecs`` by slicing.
    """

    d: int
    N: int
    lam: np.ndarray
    vecs: np.ndarray
    t: float = 0.0

    @property
    def dim(self) -> int:
        """Length of an input vector: the section's size times its d columns."""
        return len(self.vecs) * self.d

    def step(self, t: float) -> np.ndarray:
        """``exp(-i t L) S*`` as a dense matrix on section coordinates.

        The backward shift is applied by shifting columns: column block n of
        the product is column block n - 1 of the exponential.
        """
        expo = (self.vecs * self.phases([t])[:, 0]) @ self.vecs.conj().T
        out = np.zeros_like(expo)
        out[:, self.d :] = expo[:, : -self.d]
        return out

    @cached_property
    def eigen_shift(self) -> np.ndarray:
        """``V* S* V``, the shift in the generator's eigenbasis ``V``.

        ``step(t) V`` is ``V diag(phases(t)) eigen_shift``, so in eigenbasis
        coordinates a step at any time is this matrix with its rows phased.
        """
        vh = self.vecs.conj().T
        return vh[:, : -self.d] @ self.vecs[self.d :]

    @cached_property
    def eigen_mean_map(self) -> np.ndarray:
        """``P_Sigma V``: the mean read off eigenbasis coordinates."""
        # complex even for a real generator: a mixed product costs twice a complex one per step
        return self.vecs[: self.d].astype(complex)

    def phases(self, times) -> np.ndarray:
        """``exp(-i t lam)``, one row per eigenvalue and one column per time;
        raises ValueError naming the first time that is not finite."""
        times = np.asarray(times, dtype=float)
        bad = np.flatnonzero(~np.isfinite(times))
        if bad.size:
            raise ValueError(f"time must be finite, got t = {times.flat[bad[0]]}")
        return np.exp(-1j * np.outer(self.lam, times))

    def iterate(self, x: np.ndarray, times, n_max: int, stop_tol: float | None = None):
        """Means ``(n+1, d, d, T)``, norms ``(n+1, T)`` and stops ``(T,)`` of ``step(t_j)^n x_j``.

        ``x`` holds start vectors of length :attr:`dim`, ``(dim,)`` for one
        start at every time or ``(dim, T)`` for one start per time.  A start
        is a stacked matrix element, ``((N+1) d, d)`` in row-major order;
        its d columns form one curve, whose norm is the root-sum-square of
        theirs.  The iteration runs on eigenbasis coordinates ``V* x`` as one
        :func:`emit` block; ``V`` is an isometry onto a space that holds the
        starts and is invariant under the steps, so norms and means are those
        of the dense steps.  ``stop_tol`` and the stops are :func:`emit`'s, and
        ``stop_tol`` acts on the curve norms.
        """
        phase = self.phases(times)
        n = self.lam.size
        w = (self.vecs.conj().T @ x.reshape(len(self.vecs), -1)).reshape(n, self.d, -1)
        if x.ndim == 1:
            w = np.repeat(w, phase.shape[1], axis=2)
        means, norms, stops = emit(self.eigen_shift, self.eigen_mean_map, w, n_max, stop_tol, phase[:, None])
        return means.reshape(means.shape[0], self.d, self.d, -1), norms, stops


def _standard_model(L: np.ndarray, d: int, N: int) -> IsometryModel:
    """Model at t = 0 from a vector-section generator (real if L is), which ``hermitian_eigh`` checks."""
    lam, vecs = hermitian_eigh(L if L.imag.any() else L.real)
    return IsometryModel(d, N, lam, vecs)


def isometry_model(L: np.ndarray, d: int, N: int) -> IsometryModel:
    """Model at t = 0 from an explicit Hermitian generator on the vector section's coordinates."""
    dim = (N + 1) * d
    if L.shape != (dim, dim):
        raise ValueError(f"generator must be {dim}x{dim}, got {L.shape}")
    return _standard_model(L, d, N)


def model_at_time(model: IsometryModel, t: float) -> IsometryModel:
    """Same generator, new time (the one re-timing path); shares eigenpairs, eigen_shift and eigen_mean_map."""
    out = replace(model, t=t)
    out.__dict__.update(eigen_shift=model.eigen_shift, eigen_mean_map=model.eigen_mean_map)
    return out


def hwm_model(u0: GrassmannLoop, N: int) -> IsometryModel:
    """Flow model at t = 0: L is the Toeplitz vector section of the initial loop.

    Its lift is the matrix section, so a matrix input runs as its d columns.
    """
    return _standard_model(toeplitz_vector_section(u0, N), u0.d, N)


def zd_bo_model(N: int, u0: FourierSeries) -> IsometryModel:
    """Scalar model at t = 0 with L twice the Toeplitz section of a real trig polynomial.

    The inviscid transport underlying this model moves at twice the profile
    (u_t + 2 u u_x), so the generator carries the 2 and model time is flow
    time; for ``u0 = -cos`` it is tridiagonal with -1 off the diagonal.  With
    that factor the measured onset of norm loss for ``u0 = -cos`` sits at the
    first breaking time 1/2, and it sits at 1 without it.
    """
    if u0.d != 1:
        raise ValueError("zero-dispersion model expects a scalar symbol (d = 1)")
    if not u0.is_hermitian_symbol():
        raise ValueError("symbol must be real-valued on the circle")
    return _standard_model(2.0 * toeplitz_vector_section(u0, N), 1, N)


def breaking_time(u0: FourierSeries) -> float:
    """-1 / (2 min u0') for a real scalar symbol, sampled on 4096 points."""
    n = np.arange(-u0.N, u0.N + 1)
    du = evaluate_grid(1j * n[:, None, None] * u0.coeffs, 4096)[:, 0, 0].real
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
    vec = np.asarray(f, dtype=complex).reshape(-1)
    if vec.size != model.dim:
        raise ValueError(f"expected a vector of length {model.dim}, got {vec.size}")
    cols = vec.reshape(len(model.vecs), model.d)
    residual = np.linalg.norm(cols - model.vecs @ (model.vecs.conj().T @ cols))
    if not residual <= 1e-10 * np.linalg.norm(vec):
        raise ValueError(f"start lies off the model's subspace (residual {residual:.2e})")
    return vec


def apply_u_sigma(model: IsometryModel, f, n_max: int) -> np.ndarray:
    """Output element, the ``(n_max+1, d, d)`` coefficients P_Sigma (Sigma*)^n F, n = 0..n_max.

    A contraction of the input by the telescoping norm balance.
    """
    means = model.iterate(_as_vector(model, f), [model.t], n_max)[0]
    return means[..., 0]


def _reports(means: np.ndarray, norms: np.ndarray, stops: np.ndarray) -> list[StabilityReport]:
    """One report per column of an iterated block, each cut at its own stop."""
    return [_report(means[: n + 1, ..., j], norms[: n + 1, j]) for j, n in enumerate(stops.tolist())]


def _report(means: np.ndarray, norms: np.ndarray) -> StabilityReport:
    """The report of one emitted curve: ``means`` ``(n+1, d, d)`` and ``norms`` ``(n+1,)``."""
    emitted = np.linalg.norm(means, axis=(1, 2)) ** 2
    partial = np.cumsum(emitted[:-1]) if emitted.size > 1 else np.zeros(0)
    balance = norms[0] ** 2 - norms[1:] ** 2
    residual = float(np.max(np.abs(partial - balance))) if partial.size else 0.0
    n_steps = norms.size - 1
    half = max(1, n_steps // 2)
    if n_steps > half and norms[half] > 0.0 and norms[-1] > 0.0:
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


def parseval_defect(model: IsometryModel, f, n_max: int) -> StabilityReport:
    """Defect curve of the adjoint powers with the telescoping check, to ``n_max``
    steps or to the first step whose norm is exactly 0."""
    return _reports(*model.iterate(_as_vector(model, f), [model.t], n_max, 0.0))[0]


def curve_verdict(settled: bool, slope: float) -> str:
    """Verdict on one defect curve: "stable" if it settled, else "unstable" on a
    flat log-tail (``|slope| < PLATEAU_SLOPE``), else "inconclusive"."""
    if settled:
        return "stable"
    return "unstable" if abs(slope) < PLATEAU_SLOPE else "inconclusive"


def strong_stability_test(model: IsometryModel, vectors, n_max: int, tol: float = 1e-6) -> dict:
    """Classify the model as stable, unstable, or inconclusive.

    Stable: every sampled defect curve falls below tol within the budget.
    Unstable: some curve stays above tol with a flat log-tail (see
    :func:`curve_verdict`).  Anything else, including slow but still-decaying
    curves, is inconclusive rather than guessed.  All vectors run as one
    block, each curve cut at its own stop.
    """
    starts = [_as_vector(model, f) for f in vectors]
    if not starts:
        raise ValueError("strong_stability_test needs at least one vector")
    x = np.stack(starts, axis=1)
    reports = _reports(*model.iterate(x, np.full(x.shape[1], model.t), n_max, tol * 0.5))
    verdicts = [curve_verdict(rep.limit_estimate <= tol, rep.tail_slope_per_octave) for rep in reports]
    if all(v == "stable" for v in verdicts):
        verdict = "stable"
    elif any(v == "unstable" for v in verdicts):
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return {"verdict": verdict, "per_vector": verdicts, "reports": reports}


def zd_bo_norm_curve(u0: FourierSeries, times, Ns=(256, 512, 1024), checkpoint: int = 1024) -> dict:
    """Output norm of the scalar formula applied to the analytic part of u0.

    The unresolved norm after ``checkpoint`` adjoint powers estimates the
    defect limit: past the breaking time the curve hangs at an N-independent
    plateau there, while the eventual decay at any fixed cutoff is pure
    finite-section leakage (every finite section is ultimately stable).  The
    checkpoint must sit inside that plateau window, after the transient but
    before leakage; 1024 steps does this for cutoffs >= 256 and times <= 1.
    Reports ``norm = ||output||`` and ``deficit = ||Pi u0|| - norm`` per (t, N),
    and per cutoff the smallest time whose deficit exceeds the threshold 1e-4,
    in whatever order the times come, as the measured onset.
    All times of one cutoff run as one :meth:`IsometryModel.iterate` block, in
    real arithmetic when the generator is real; each time stops at its own norm <= 1e-9.
    """
    if not Ns:
        raise ValueError("zd_bo_norm_curve needs at least one cutoff")
    if not np.size(times):
        raise ValueError(f"zd_bo_norm_curve needs at least one time, got times = {times!r}")
    rows = []
    onsets = {}
    for N in Ns:
        base = zd_bo_model(N, u0)
        pu = project_plus(u0.with_cutoff(N)).reshape(-1)
        norm0 = float(np.linalg.norm(pu))
        for t, rep in zip(times, _reports(*base.iterate(pu, times, checkpoint, 1e-9))):
            tail = rep.limit_estimate
            out_norm = float(np.sqrt(max(0.0, norm0**2 - tail**2)))
            deficit = norm0 - out_norm
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
        crossed = (row["t"] for row in rows[-np.size(times) :] if row["deficit"] > ONSET_THRESHOLD)
        onsets[int(N)] = min(crossed, default=None)
    return {"rows": rows, "onsets": onsets, "threshold": ONSET_THRESHOLD}


def wold_decomposition_estimate(model: IsometryModel, budget: int) -> dict:
    """Numerical split into norm-preserving and shift-like subspace dimensions.

    Stacks the emission rows ``P_Sigma (Sigma*)^j`` for j < budget; a unit
    vector's squared image under this map is exactly the norm it loses
    within the budget, so singular values below 1e-6 flag directions that
    keep essentially all their norm (the unitary part at this resolution;
    count ``singular_values`` against another level for another one).
    The rows are the means :func:`emit` reads off the identity's columns in
    the eigenbasis ``V`` (step ``diag(phase) eigen_shift``); the unitary
    ``V*`` leaves the singular values unchanged.  Dimensions are
    those of the matrix-valued space: each singular value counts once per
    column, as :func:`~hwmlab.operators.kronecker_rank` counts them.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n, d = model.lam.size, model.d
    phase = model.phases([model.t])
    rows = emit(model.eigen_shift, model.eigen_mean_map, np.eye(n), budget - 1, phase=phase)[0]
    sv = np.linalg.svd(rows.reshape(budget * d, n), compute_uv=False)
    sv = np.repeat(np.concatenate([sv, np.zeros(max(0, n - sv.size))]), d)
    dim_u = int(np.count_nonzero(sv < 1e-6))
    return {"dim_unitary": dim_u, "dim_stable": n * d - dim_u, "singular_values": sv}
