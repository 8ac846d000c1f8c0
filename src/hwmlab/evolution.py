"""Time evolution of Grassmannian loops through the restricted resolvent formula.

A plan diagonalizes the Toeplitz operator of the initial loop once, on its
finite-dimensional invariant subspace for rational data (or on the whole
truncated Hardy space otherwise).  Each output Fourier mode is one
application of ``exp(-i t T) S*`` followed by extraction of the zeroth
coefficient; the evolved loop is ``analytic part + adjoint - zeroth mode``.
Per-time work is one step matrix from the cached eigenpairs, then one
matrix-vector product per mode, with no step-size error.  The step matrix
and the mode loop are the contraction kernel of :mod:`hwmlab.stability`.
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
    eig_hermitian,
    interior_indices,
    invariant_subspace,
    kronecker_rank,
    schatten_norm,
)
from .stability import contraction_matrix, emit, standard_mean_map

__all__ = [
    "EvolutionPlan",
    "TrajectorySample",
    "SpectralRadiusError",
    "SlowDecayWarning",
    "DegenerateEigenvalueWarning",
    "make_plan",
    "fourier_coefficient",
    "solve_at_time",
    "contraction_spectrum",
    "lax_isospectrality_check",
    "conservation_report",
    "intertwining_check",
    "lax_residual",
    "recurrence_search",
]

HARD_MODE_CAP = 4096


class SpectralRadiusError(RuntimeError):
    """Restricted contraction has spectrum on or outside the unit circle."""


class SlowDecayWarning(UserWarning):
    """Contraction spectral radius close to one; mode tail decays slowly."""


class DegenerateEigenvalueWarning(UserWarning):
    """Nearly coincident frequencies; eigenprojectors are effectively merged."""


@dataclass(frozen=True)
class EvolutionPlan:
    """Frozen eigen-data driving the flow of one initial loop.

    ``sstar`` is the compressed backward shift of a rational plan; truncated
    plans leave it ``None`` and use the standard backward shift.
    """

    d: int
    k: int
    mode: str
    N_op: int
    source: FourierSeries
    frame: SubspaceFrame | None
    lam: np.ndarray
    vecs: np.ndarray
    sstar: np.ndarray | None
    c0: np.ndarray
    mean_map: np.ndarray
    mean0: np.ndarray
    N_out: int
    tail_tol: float

    @property
    def dim(self) -> int:
        return self.lam.size


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    loop: GrassmannLoop
    diagnostics: dict


def make_plan(
    u0: GrassmannLoop,
    mode: str = "rational",
    N_out: int = HARD_MODE_CAP,
    N_op: int | None = None,
    rank_tol: float = 1e-8,
    tail_tol: float = 1e-12,
) -> EvolutionPlan:
    """Build the eigen-data for evolving ``u0``.

    ``mode="rational"`` restricts to the invariant subspace found from the
    Hankel singular values and propagates NotRationalError if there is none;
    ``mode="truncated"`` uses the full truncated Hardy space (a diagnostic
    device for non-rational data, with no exactness claim).
    """
    if mode not in ("rational", "truncated"):
        raise ValueError(f'mode must be "rational" or "truncated", got {mode!r}')
    sym = u0.series
    band = bandwidth(sym)
    if N_op is None:
        N_op = max(2 * band + 2, 8) if mode == "rational" else max(sym.N, 8)
    d = u0.d

    pu_vec = project_plus(sym.with_cutoff(N_op)).coeffs.reshape(-1)

    if mode == "rational":
        frame = invariant_subspace(u0, N_op, rank_tol=rank_tol)
        t_small = frame.t_restricted
        sstar = frame.sstar_restricted
        c0 = frame.coordinates(pu_vec)
        mean_map = frame.mean_map
    else:
        frame = None
        t_small = build_toeplitz(sym, N_op).matrix
        sstar = None
        c0 = pu_vec
        mean_map = standard_mean_map(d, pu_vec.size)

    lam, vecs = np.linalg.eigh(0.5 * (t_small + t_small.conj().T))
    recon = float(np.linalg.norm((vecs * lam) @ vecs.conj().T - t_small, ord=2))
    if recon > 1e-10:
        raise RuntimeError(f"restricted operator reconstruction residual {recon:.2e} exceeds 1e-10")
    if np.max(np.abs(lam)) > 1.0 + 1e-8:
        raise RuntimeError(f"restricted spectrum leaves [-1, 1]: max |lambda| = {np.max(np.abs(lam))}")
    if lam.size > 1 and np.min(np.diff(np.sort(lam))) < 1e-12:
        warnings.warn(
            "nearly degenerate frequencies; projectors merged", DegenerateEigenvalueWarning,
            stacklevel=2,
        )

    return EvolutionPlan(
        d=d,
        k=u0.k,
        mode=mode,
        N_op=N_op,
        source=sym,
        frame=frame,
        lam=lam,
        vecs=vecs,
        sstar=sstar,
        c0=c0,
        mean_map=mean_map,
        mean0=sym.coeff(0).copy(),
        N_out=N_out,
        tail_tol=tail_tol,
    )


def _step_matrix(plan: EvolutionPlan, t: float) -> np.ndarray:
    return contraction_matrix(plan.lam, plan.vecs, t, plan.d * plan.d, plan.sstar)


def fourier_coefficient(plan: EvolutionPlan, t: float, n: int) -> np.ndarray:
    """The n-th analytic Fourier coefficient of the evolved loop."""
    if n < 0:
        raise ValueError("fourier_coefficient is defined for modes n >= 0")
    coeffs, _ = emit(_step_matrix(plan, t), plan.mean_map, plan.c0, n)
    return coeffs[n]


def _checked_spectrum(A: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    mu = np.linalg.eigvals(A)
    r = float(np.max(np.abs(mu))) if mu.size else 0.0
    if r >= 1.0:
        raise SpectralRadiusError(f"contraction spectral radius {r} >= 1 at t = {t}")
    return mu, r


def contraction_spectrum(plan: EvolutionPlan, t: float) -> np.ndarray:
    """Eigenvalues of exp(-i t T) S* on the plan's space; all must stay inside
    the unit circle, else the rank/truncation data is unusable."""
    return _checked_spectrum(_step_matrix(plan, t), t)[0]


def solve_at_time(plan: EvolutionPlan, t: float) -> TrajectorySample:
    """Evolved loop at time t with recomputed diagnostics."""
    A = _step_matrix(plan, t)
    _, r = _checked_spectrum(A, t)
    if r > 1.0 - 1e-3:
        warnings.warn(
            f"contraction spectral radius {r:.6f} at t = {t}; mode tail decays slowly",
            SlowDecayWarning,
            stacklevel=2,
        )
    coeffs, norms = emit(A, plan.mean_map, plan.c0, plan.N_out, plan.tail_tol)
    n_used = coeffs.shape[0] - 1
    tail = norms[-1]
    if tail > plan.tail_tol and n_used >= plan.N_out:
        warnings.warn(
            f"mode cap {plan.N_out} reached with tail {tail:.2e} > {plan.tail_tol:.1e} at t = {t}",
            SlowDecayWarning,
            stacklevel=2,
        )

    d = plan.d
    series_coeffs = np.zeros((2 * n_used + 1, d, d), dtype=complex)
    series_coeffs[n_used] = coeffs[0] + coeffs[0].conj().T - plan.mean0
    series_coeffs[n_used + 1 :] = coeffs[1:]
    series_coeffs[:n_used] = coeffs[:0:-1].conj().transpose(0, 2, 1)
    series = FourierSeries(d, n_used, series_coeffs)
    check = constraint_residuals(d, plan.k, series)
    loop = GrassmannLoop(d, plan.k, series, check)
    diagnostics = {
        "energy": sobolev_energy(series),
        "mean": series.coeff(0),
        "constraint_residual": max(check["involution"], check["hermitian"], check["trace"]),
        "spectral_radius": r,
        "tail_estimate": tail,
        "n_modes_used": n_used,
    }
    return TrajectorySample(t=float(t), loop=loop, diagnostics=diagnostics)


def lax_isospectrality_check(
    plan: EvolutionPlan,
    times,
    N: int | None = None,
    delta: float = 0.05,
    pair_tol: float = 1e-6,
) -> dict:
    """Compare interior Toeplitz eigenvalues of evolved loops against t = 0.

    Interior means mu strictly inside (-1 + delta, 1 - delta), where finite
    sections of involution-valued symbols carry the persistent spectrum.
    """
    N = plan.N_op if N is None else N
    base = eig_hermitian(build_toeplitz(plan.source.with_cutoff(N), N)).interior(delta)
    rows = []
    worst = 0.0
    for t in times:
        sample = solve_at_time(plan, t)
        sec = build_toeplitz(sample.loop.series.with_cutoff(N), N)
        lam = eig_hermitian(sec).interior(delta)
        m = min(base.size, lam.size)
        gap = float(np.max(np.abs(np.sort(base)[:m] - np.sort(lam)[:m]))) if m else 0.0
        worst = max(worst, gap)
        rows.append(
            {"t": float(t), "count": int(lam.size), "count_base": int(base.size), "max_gap": gap}
        )
    return {"rows": rows, "max_gap": worst, "interior_base": np.sort(base)}


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
    for t in times:
        sample = solve_at_time(plan, t)
        loop = sample.loop
        sym = loop.series.with_cutoff(max(N_rank, loop.series.N))
        rank, _ = kronecker_rank(sym, N_rank, rank_tol=rank_tol)
        row = {
            "t": float(t),
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
    flat = vec.reshape(-1)
    if plan.frame is not None:
        return plan.frame.coordinates(flat)
    return flat


def intertwining_check(plan: EvolutionPlan, t: float, vectors=None, n_modes: int = 32) -> float:
    """Residual of (backward shift) o U(t) = U(t) o (exp(-itT) S*) on coordinates.

    Both sides are expanded through the coefficient iteration; vectors default
    to the initial analytic part and the constant identity.
    """
    if vectors is None:
        vectors = [plan.c0, plan_coordinates_of_constant(plan, np.eye(plan.d))]

    worst = 0.0
    A = _step_matrix(plan, t)
    for c in vectors:
        c = np.asarray(c, dtype=complex)
        shifted = emit(A, plan.mean_map, c, n_modes)[0][1:]
        coeffs_g = emit(A, plan.mean_map, A @ c, n_modes - 1)[0]
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
        plan = make_plan(u0, mode="rational")
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

    def sample(t: float) -> tuple[float, FourierSeries]:
        series = solve_at_time(plan, float(t)).loop.series
        N = max(series.N, u0.N)
        diff = series.with_cutoff(N).coeffs - u0.with_cutoff(N).coeffs
        return sobolev_norm(FourierSeries(u0.d, N, diff), 0.5), series

    ts = np.arange(t_min, horizon + coarse_dt, coarse_dt)
    dists = np.empty(ts.size)
    sup_norm = 0.0
    for i, t in enumerate(ts):
        dists[i], series = sample(t)
        sup_norm = max(sup_norm, sobolev_norm(series, 0.5))

    arm_level = max(4.0 * eps, 0.05 * norm0)
    result = {
        "t_star": None,
        "distance": None,
        "eps": eps,
        "frequencies": plan.lam.copy(),
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
                lambda t: sample(t)[0],
                bounds=(float(ts[i - 1]), float(ts[i + 1])),
                method="bounded",
                options={"xatol": 1e-10},
            )
            if float(res.fun) <= eps:
                result["t_star"], result["distance"] = float(res.x), float(res.fun)
                return result
    return result
