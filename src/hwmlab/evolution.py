"""Time evolution of Grassmannian loops through the restricted resolvent formula.

A plan diagonalizes the Toeplitz operator of a rational initial loop once,
on its finite-dimensional invariant subspace.  Each output Fourier mode is
one application of ``exp(-i t T) S*`` followed by extraction of the zeroth
coefficient; the evolved loop is ``analytic part + adjoint - zeroth mode``.

In the eigenbasis ``V`` of the restricted operator the time enters only as
the diagonal phase ``exp(-i t lam)``: the step is ``diag(phase) V* S* V``.
So :func:`solve_many` advances every sample time at once, one block of
eigenbasis columns per output mode, with no step-size error; one stacked
eigensolve guards the spectral radii and the grid checks run once per group
of times that use the same number of modes.  :func:`solve_at_time` is its
one-time case.  The plan's eigen-data is an
:class:`~hwmlab.stability.IsometryModel`, and its
:meth:`~hwmlab.stability.IsometryModel.iterate` is the contraction path
shared with the stability experiments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hardy import FourierSeries, project_plus, sobolev_energy, sobolev_norm
from .grassmann import GrassmannLoop, constraint_residuals
from .operators import (
    SubspaceFrame,
    bandwidth,
    build_b_operator,
    build_toeplitz,
    interior_indices,
    invariant_subspace,
    kronecker_rank,
    schatten_norm,
    toeplitz_vector_section,
)
from .stability import IsometryModel, emit, first_stops

__all__ = [
    "EvolutionPlan",
    "TrajectorySample",
    "SpectralRadiusError",
    "SlowDecayWarning",
    "DegenerateEigenvalueWarning",
    "make_plan",
    "fourier_coefficient",
    "solve_many",
    "solve_at_time",
    "contraction_spectrum",
    "lax_isospectrality_check",
    "conservation_report",
    "intertwining_check",
    "lax_residual",
    "recurrence_search",
]

HARD_MODE_CAP = 4096
# entries of the stacked (times, dim, dim) step matrices one solve block may hold
SOLVE_BLOCK_ENTRIES = 1 << 18


class SpectralRadiusError(RuntimeError):
    """Restricted contraction has spectrum on or outside the unit circle."""


class SlowDecayWarning(UserWarning):
    """Contraction spectral radius close to one; mode tail decays slowly."""


class DegenerateEigenvalueWarning(UserWarning):
    """No longer raised: ``V diag(exp(-it lam)) V*`` is exact under repeated
    frequencies, which every d >= 2 plan has by construction."""


@dataclass(frozen=True)
class EvolutionPlan:
    """Frozen eigen-data driving the flow of one initial loop.

    ``model`` is the contraction ``exp(-itT) S*`` on the invariant
    subspace ``frame``, built from the frame's compressions.  ``c0`` holds
    the frame coordinates of the initial analytic part.
    """

    d: int
    k: int
    N_op: int
    source: FourierSeries
    frame: SubspaceFrame
    model: IsometryModel
    c0: np.ndarray
    mean0: np.ndarray
    N_out: int
    tail_tol: float

    @property
    def dim(self) -> int:
        return self.model.dim


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    loop: GrassmannLoop
    diagnostics: dict


def make_plan(
    u0: GrassmannLoop,
    N_out: int = HARD_MODE_CAP,
    N_op: int | None = None,
    rank_tol: float = 1e-8,
    tail_tol: float = 1e-12,
) -> EvolutionPlan:
    """Build the eigen-data for evolving ``u0``.

    Restricts to the invariant subspace found from the Hankel singular
    values at cutoff ``N_op`` and propagates NotRationalError if there is
    none.
    """
    sym = u0.series
    if N_op is None:
        N_op = max(2 * bandwidth(sym) + 2, 8)
    d = u0.d

    frame = invariant_subspace(u0, N_op, rank_tol=rank_tol)
    t_small = frame.t_restricted
    c0 = frame.coordinates(project_plus(sym.with_cutoff(N_op)).coeffs.reshape(-1))

    lam, vecs = np.linalg.eigh(0.5 * (t_small + t_small.conj().T))
    recon = float(np.linalg.norm((vecs * lam) @ vecs.conj().T - t_small, ord=2))
    if recon > 1e-10:
        raise RuntimeError(f"restricted operator reconstruction residual {recon:.2e} exceeds 1e-10")
    if np.max(np.abs(lam)) > 1.0 + 1e-8:
        raise RuntimeError(f"restricted spectrum leaves [-1, 1]: max |lambda| = {np.max(np.abs(lam))}")

    return EvolutionPlan(
        d=d,
        k=u0.k,
        N_op=N_op,
        source=sym,
        frame=frame,
        model=IsometryModel(d, N_op, lam, vecs, frame.mean_map, frame.sstar_restricted),
        c0=c0,
        mean0=sym.coeff(0).copy(),
        N_out=N_out,
        tail_tol=tail_tol,
    )


def _modes(plan: EvolutionPlan, times, n_max: int, stop_tol: float | None = None):
    """Modes ``(n+1, T, d, d)`` and norms ``(n+1, T)`` of the analytic part at each time.

    Mode 0 is ``mean_map @ c0`` on the plan's own space, so the zeroth mode
    stays frozen bit for bit.
    """
    means, norms = plan.model.iterate(plan.c0, times, n_max, stop_tol)
    means = means.transpose(0, 3, 1, 2)
    means[0] = plan.model.mean_map @ plan.c0
    return means, norms


def fourier_coefficient(plan: EvolutionPlan, t: float, n: int) -> np.ndarray:
    """The n-th analytic Fourier coefficient of the evolved loop."""
    if n < 0:
        raise ValueError("fourier_coefficient is defined for modes n >= 0")
    return _modes(plan, [t], n)[0][n, 0]


def _spectra(plan: EvolutionPlan, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``(T, dim)`` and spectral radii of the contraction at each time.

    One stacked eigensolve of ``diag(phase_t) V* S* V``, which is similar to
    the step matrix; a radius >= 1 raises, naming the first such time.
    """
    mu = np.linalg.eigvals(plan.model.phases(times).T[:, :, None] * plan.model.eigen_shift)
    r = np.max(np.abs(mu), axis=-1, initial=0.0)
    bad = np.flatnonzero(r >= 1.0)
    if bad.size:
        raise SpectralRadiusError(f"contraction spectral radius {r[bad[0]]} >= 1 at t = {times[bad[0]]}")
    return mu, r


def contraction_spectrum(plan: EvolutionPlan, t: float) -> np.ndarray:
    """Eigenvalues of exp(-i t T) S* on the plan's space; all must stay inside
    the unit circle, else the rank/truncation data is unusable."""
    return _spectra(plan, np.array([float(t)]))[0][0]


def _time_blocks(plan: EvolutionPlan, times) -> list[np.ndarray]:
    """``times`` as floats, cut so that no block stacks more than
    ``SOLVE_BLOCK_ENTRIES`` step-matrix entries."""
    times = np.asarray(times, dtype=float).reshape(-1)
    size = max(1, SOLVE_BLOCK_ENTRIES // plan.dim**2)
    return [times[lo : lo + size] for lo in range(0, times.size, size)]


def _solve_block(plan: EvolutionPlan, times: np.ndarray) -> list[TrajectorySample]:
    _, radii = _spectra(plan, times)
    for i in np.flatnonzero(radii > 1.0 - 1e-3).tolist():
        warnings.warn(
            f"contraction spectral radius {radii[i]:.6f} at t = {times[i]}; mode tail decays slowly",
            SlowDecayWarning,
            stacklevel=3,
        )
    means, norms = _modes(plan, times, plan.N_out, plan.tail_tol)
    n_used = first_stops(norms, plan.tail_tol)
    tails = norms[n_used, np.arange(times.size)]
    for i in np.flatnonzero((tails > plan.tail_tol) & (n_used >= plan.N_out)).tolist():
        warnings.warn(
            f"mode cap {plan.N_out} reached with tail {tails[i]:.2e} > {plan.tail_tol:.1e} at t = {times[i]}",
            SlowDecayWarning,
            stacklevel=3,
        )

    d, k = plan.d, plan.k
    zero_mode = means[0, 0] + means[0, 0].conj().T - plan.mean0
    samples = [None] * times.size
    # one grid check per group of times that share a mode count
    for n in np.unique(n_used).tolist():
        cols = np.flatnonzero(n_used == n)
        coeffs = means[: n + 1, cols]
        stack = np.empty((cols.size, 2 * n + 1, d, d), dtype=complex)
        stack[:, n] = zero_mode
        stack[:, n + 1 :] = coeffs[1:].transpose(1, 0, 2, 3)
        stack[:, :n] = coeffs[:0:-1].conj().transpose(1, 0, 3, 2)
        group = [FourierSeries(d, n, c) for c in stack]
        checks = constraint_residuals(d, k, group)
        energies = sobolev_energy(group).tolist()
        for j, series, check, energy in zip(cols.tolist(), group, checks, energies):
            samples[j] = TrajectorySample(
                t=float(times[j]),
                loop=GrassmannLoop(d, k, series, check),
                diagnostics={
                    "energy": energy,
                    "mean": series.coeff(0),
                    "constraint_residual": max(check["involution"], check["hermitian"], check["trace"]),
                    "spectral_radius": float(radii[j]),
                    "tail_estimate": float(tails[j]),
                    "n_modes_used": n,
                },
            )
    return samples


def solve_many(plan: EvolutionPlan, times) -> list[TrajectorySample]:
    """Evolved loops at every time in ``times``, in order, with their diagnostics.

    All times step together in the generator's eigenbasis, ``W <- phase * (C W)``
    with ``C = V* S* V``, and each time stops at its own first mode whose
    remaining norm is at most the plan's ``tail_tol``.  Raises
    SpectralRadiusError for the first time whose contraction has radius >= 1
    and warns (SlowDecayWarning) for each time whose radius is near 1 or
    that reaches the mode cap.
    """
    samples = []
    for block in _time_blocks(plan, times):
        samples += _solve_block(plan, block)
    return samples


def solve_at_time(plan: EvolutionPlan, t: float) -> TrajectorySample:
    """Evolved loop at time t with recomputed diagnostics (:func:`solve_many` at one time)."""
    return solve_many(plan, [t])[0]


def lax_isospectrality_check(
    plan: EvolutionPlan,
    times,
    N: int | None = None,
    delta: float = 0.05,
) -> dict:
    """Compare interior Toeplitz eigenvalues of evolved loops against t = 0.

    Interior means mu strictly inside (-1 + delta, 1 - delta), where finite
    sections of involution-valued symbols carry the persistent spectrum.  The
    eigenvalues come from the vector section; counts and ``interior_base``
    are the matrix section's, each eigenvalue repeated d times.
    """
    N = plan.N_op if N is None else N

    def interior(series: FourierSeries) -> np.ndarray:
        lam = np.linalg.eigvalsh(toeplitz_vector_section(series.with_cutoff(N), N))
        return lam[(lam > -1.0 + delta) & (lam < 1.0 - delta)]

    base = interior(plan.source)
    rows = []
    worst = 0.0
    for sample in solve_many(plan, times):
        lam = interior(sample.loop.series)
        m = min(base.size, lam.size)
        gap = float(np.max(np.abs(np.sort(base)[:m] - np.sort(lam)[:m]))) if m else 0.0
        worst = max(worst, gap)
        rows.append(
            {"t": sample.t, "count": plan.d * lam.size, "count_base": plan.d * base.size, "max_gap": gap}
        )
    return {"rows": rows, "max_gap": worst, "interior_base": np.repeat(np.sort(base), plan.d)}


def conservation_report(
    plan: EvolutionPlan,
    times,
    N_rank: int | None = None,
    rank_tol: float = 1e-8,
    schatten_ps=(1.0, 2.0),
) -> list[dict]:
    """Energy, mean, Schatten sums of the Hankel section, and Kronecker rank
    of the evolved loop at each requested time."""
    N_rank = plan.N_op if N_rank is None else N_rank
    out = []
    for sample in solve_many(plan, times):
        loop = sample.loop
        sym = loop.series.with_cutoff(max(N_rank, loop.series.N))
        rank, _ = kronecker_rank(sym, N_rank, rank_tol=rank_tol)
        row = {
            "t": sample.t,
            "energy": sample.diagnostics["energy"],
            "mean": sample.diagnostics["mean"],
            "constraint_residual": sample.diagnostics["constraint_residual"],
            "spectral_radius": sample.diagnostics["spectral_radius"],
            "n_modes_used": sample.diagnostics["n_modes_used"],
            "hankel_rank": rank,
        }
        for p in schatten_ps:
            row[f"I{p:g}"] = schatten_norm(sym, N_rank, p)
        out.append(row)
    return out


def plan_coordinates_of_constant(plan: EvolutionPlan, matrix: np.ndarray) -> np.ndarray:
    """Plan-space coordinates of the constant element with the given value."""
    vec = np.zeros((plan.N_op + 1, plan.d, plan.d), dtype=complex)
    vec[0] = matrix
    return plan.frame.coordinates(vec.reshape(-1))


def intertwining_check(plan: EvolutionPlan, t: float, vectors=None, n_modes: int = 32) -> float:
    """Residual of (backward shift) o U(t) = U(t) o (exp(-itT) S*) on coordinates.

    Both sides are expanded through the coefficient iteration; vectors default
    to the initial analytic part and the constant identity.
    """
    if vectors is None:
        vectors = [plan.c0, plan_coordinates_of_constant(plan, np.eye(plan.d))]

    worst = 0.0
    A = plan.model.step(t)
    for c in vectors:
        c = np.asarray(c, dtype=complex)[:, None]
        shifted = emit(A, plan.model.mean_map, c, n_modes)[0][1:]
        coeffs_g = emit(A, plan.model.mean_map, A @ c, n_modes - 1)[0]
        gap = float(np.sqrt(np.sum(np.abs(shifted - coeffs_g) ** 2)))
        worst = max(worst, gap)
    return worst


def lax_residual(
    u0: GrassmannLoop,
    t: float,
    h: float,
    sign: int = +1,
    N: int | None = None,
    plan: EvolutionPlan | None = None,
) -> float:
    """Central-difference defect of the Toeplitz evolution equation.

    Compares (T(t+h) - T(t-h)) / 2h with the commutator of the skew generator
    and T(t) on the interior block; decays like h^2 for the generator's
    default sign and stays O(1) for the opposite one.
    """
    if plan is None:
        plan = make_plan(u0)
    loops = {dt: solve_at_time(plan, t + dt).loop for dt in (-h, 0.0, h)}
    # an effective bandwidth at coarse tolerance keeps a usable interior block;
    # what falls outside it only pollutes at the 1e-8 scale, far below O(h^2)
    band = max(bandwidth(lp.series, tol=1e-8) for lp in loops.values())
    if N is None:
        N = max(plan.N_op, 2 * band + 10)
    margin = 2 * band + 2
    if N - margin < 1:
        raise ValueError(f"cutoff {N} leaves no interior block for bandwidth {band}")
    secs = {dt: build_toeplitz(lp.series.with_cutoff(N), N).matrix for dt, lp in loops.items()}
    fd = (secs[h] - secs[-h]) / (2.0 * h)
    mid = loops[0.0].series.with_cutoff(N)
    B = build_b_operator(mid, N, sign=sign)
    comm = B @ secs[0.0] - secs[0.0] @ B
    idx = interior_indices(u0.d, N, margin)
    return float(np.linalg.norm((fd - comm)[np.ix_(idx, idx)], ord=2))


def recurrence_search(
    plan: EvolutionPlan,
    horizon: float,
    eps: float | None = None,
    coarse_dt: float = 0.05,
    t_min: float = 0.0,
) -> dict:
    """Scan for the first return of the loop to its initial state.

    Distance is the inhomogeneous half-order Sobolev norm of the difference.
    A coarse scan locates candidate local minima after the trajectory has
    clearly left the initial state; candidates are refined in time order and
    the first one dipping below eps is reported.  Also reports the frequency
    vector (restricted Toeplitz eigenvalues) and the supremum of the Sobolev
    norm seen during the scan.
    """
    u0 = plan.source
    norm0 = sobolev_norm(u0, 0.5)
    if eps is None:
        eps = 1e-3 * norm0

    def measure(samples) -> tuple[np.ndarray, np.ndarray]:
        """Distances to the initial loop and norms of the sampled loops."""
        N = max(u0.N, *(s.loop.N for s in samples))
        loops = [s.loop.series.with_cutoff(N) for s in samples]
        base = u0.with_cutoff(N).coeffs
        diffs = [FourierSeries(u0.d, N, f.coeffs - base) for f in loops]
        return sobolev_norm(diffs, 0.5), sobolev_norm(loops, 0.5)

    ts = np.arange(t_min, horizon + coarse_dt, coarse_dt)
    # block by block, so a long scan never holds more than one block of loops
    scanned = [measure(_solve_block(plan, block)) for block in _time_blocks(plan, ts)]
    dists = np.concatenate([d for d, _ in scanned])
    sup_norm = float(max(np.max(norms) for _, norms in scanned))

    arm_level = max(4.0 * eps, 0.05 * norm0)
    result = {
        "t_star": None,
        "distance": None,
        "eps": eps,
        "frequencies": plan.model.lam.copy(),
        "sup_h_half": sup_norm,
        "samples_scanned": int(ts.size),
    }
    if float(np.max(dists)) <= arm_level:
        # trajectory never leaves the initial ball: trivially recurrent
        result["t_star"], result["distance"] = float(ts[0]), float(dists[0])
        return result

    # scipy.optimize alone costs most of the package import time
    from scipy.optimize import minimize_scalar

    armed_from = int(np.argmax(dists > arm_level))
    refine_level = max(10.0 * eps, 1.5 * float(np.min(dists[armed_from:])))
    for i in range(max(armed_from, 1), ts.size - 1):
        if dists[i] <= refine_level and dists[i] <= dists[i - 1] and dists[i] <= dists[i + 1]:
            res = minimize_scalar(
                lambda t: float(measure([solve_at_time(plan, float(t))])[0][0]),
                bounds=(float(ts[i - 1]), float(ts[i + 1])),
                method="bounded",
                options={"xatol": 1e-10},
            )
            if float(res.fun) <= eps:
                result["t_star"], result["distance"] = float(res.x), float(res.fun)
                return result
    return result
