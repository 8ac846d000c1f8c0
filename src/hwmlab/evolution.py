"""Time evolution of Grassmannian loops through the restricted resolvent formula.

A plan diagonalizes the Toeplitz operator of a rational initial loop once,
on its finite-dimensional invariant subspace.  Each output Fourier mode is
one application of ``exp(-i t T) S*`` followed by extraction of the zeroth
coefficient; the evolved loop is ``analytic part + adjoint - zeroth mode``.

The plan's eigenvectors ``frame @ V`` live on the vector section, like every
other model's, so its inputs are section columns and S* and the mean are
read off them by slicing.  In that eigenbasis the time enters only as the
diagonal phase ``exp(-i t lam)``: the step is ``diag(phase) V* S* V``.
So :func:`solve_many` advances every sample time at once, one block of
eigenbasis columns per output mode, with no step-size error; one stacked
eigensolve, with the d constant directions that S* annihilates deflated
(the deflation is made once per plan), guards the spectral radii, which
also predict where the block's modes stop, so the block steps only about
that far, and again to the mode cap only if a time has not stopped there,
each time to the stop :func:`~hwmlab.stability.emit` returns; the grid
checks run per octave of mode counts in a block of times, in chunks under
``BLOCK_ENTRIES``.  A time's record holds read-only views of its block and
builds its ``GrassmannLoop`` only when read.  :func:`solve_at_time` is its
one-time case.  The plan's eigen-data is an
:class:`~hwmlab.stability.IsometryModel`, and its
:meth:`~hwmlab.stability.IsometryModel.iterate` is the contraction path
shared with the stability experiments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .hardy import FourierSeries, project_plus, sobolev_energy, sobolev_norm
from .grassmann import GrassmannLoop, constraint_residuals
from .operators import (
    b_vector_section,
    bandwidth,
    hermitian_eigh,
    invariant_subspace,
    kronecker_rank,
    toeplitz_vector_section,
)
from .stability import BLOCK_ENTRIES, IsometryModel, _as_vector

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
    "conservation_report",
    "intertwining_check",
    "lax_residual",
    "recurrence_search",
]

HARD_MODE_CAP = 4096
# a block first steps this many steps past its predicted stop
STOP_SLACK = 2


class SpectralRadiusError(RuntimeError):
    """Restricted contraction has spectrum on or outside the unit circle."""


class SlowDecayWarning(UserWarning):
    """Contraction spectral radius close to one; mode tail decays slowly."""


class DegenerateEigenvalueWarning(UserWarning):
    """No longer raised: ``V diag(exp(-it lam)) V*`` is exact under repeated frequencies."""


@dataclass(frozen=True)
class EvolutionPlan:
    """Frozen eigen-data driving the flow of one initial loop.

    ``model`` is the contraction ``exp(-itT) S*`` on the invariant
    subspace of :func:`~hwmlab.operators.invariant_subspace`: its
    eigenvectors are ``frame @ V`` for the eigenvectors ``V`` of the frame's
    Toeplitz compression, so the frame's width is ``model.lam.size``, and
    ``invariance_residual`` is the frame's.  ``pu0`` holds
    the initial analytic part's d columns on the vector section,
    ``((N_op + 1) d, d)``, and ``mean0`` the datum's zeroth mode.
    """

    d: int
    k: int
    N_op: int
    source: FourierSeries
    invariance_residual: float
    model: IsometryModel
    pu0: np.ndarray
    mean0: np.ndarray
    N_out: int
    tail_tol: float

    @cached_property
    def deflated_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """``(Q*, eigen_shift Q)`` for an orthonormal basis ``Q`` of the model's eigenbasis
        coordinates orthogonal to the constants' ``V[:d]*``, which S* annihilates.

        ``(Q* diag(phases(t))) (eigen_shift Q)`` is then the compression of a step
        at time t that carries its spectrum but for the constants' d zeros.
        """
        q = np.linalg.qr(self.model.eigen_mean_map.conj().T, mode="complete")[0][:, self.d :]
        return q.conj().T, self.model.eigen_shift @ q


@dataclass(frozen=True)
class TrajectorySample:
    """One solved time.  ``coeffs`` is a read-only ``(2n+1, d, d)`` view of the
    coefficients in its solve block, and :attr:`loop` is built from it and
    ``grid_check`` when first read."""

    t: float
    diagnostics: dict
    k: int
    coeffs: np.ndarray
    grid_check: dict

    @cached_property
    def loop(self) -> GrassmannLoop:
        d = self.coeffs.shape[-1]
        return GrassmannLoop(d, self.k, FourierSeries(d, len(self.coeffs) // 2, self.coeffs), self.grid_check)


def make_plan(
    u0: GrassmannLoop,
    N_out: int = HARD_MODE_CAP,
    rank_tol: float = 1e-8,
    tail_tol: float = 1e-12,
) -> EvolutionPlan:
    """Build the eigen-data for evolving ``u0``.

    Restricts to the invariant subspace found from the Hankel singular
    values at cutoff ``N_op = max(2 bandwidth + 2, 8)`` and propagates
    NotRationalError if there is none.  ``rank_tol`` must be in (0, 1): at 1 or
    more the frame keeps no Hankel co-range, at 0 or less every direction.  A
    NaN or infinite coefficient raises ValueError before the Hankel SVD.
    """
    if N_out < 1:
        raise ValueError(f"N_out must be at least 1, got {N_out}")
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must be in (0, 1), got {rank_tol}")
    if not 0.0 < tail_tol < np.inf:
        raise ValueError(f"tail_tol must be positive and finite, got {tail_tol}")
    sym = u0.series
    if not np.isfinite(sym.coeffs).all():
        raise ValueError("u0 has a coefficient that is not finite")
    N_op = max(2 * bandwidth(sym) + 2, 8)
    d = u0.d

    frame, t_small, invariance_residual = invariant_subspace(u0, N_op, rank_tol=rank_tol)
    pu0 = project_plus(sym.with_cutoff(N_op)).reshape(-1, d)

    lam, vecs = hermitian_eigh(0.5 * (t_small + t_small.conj().T))
    recon = float(np.linalg.norm((vecs * lam) @ vecs.conj().T - t_small, ord=2))
    if recon > 1e-10:
        raise RuntimeError(f"restricted operator reconstruction residual {recon:.2e} exceeds 1e-10")
    if np.max(np.abs(lam)) > 1.0 + 1e-8:
        raise RuntimeError(f"restricted spectrum leaves [-1, 1]: max |lambda| = {np.max(np.abs(lam))}")
    model = IsometryModel(d, N_op, lam, frame @ vecs)
    _as_vector(model, pu0)  # raises unless the analytic part lies in the model's subspace

    return EvolutionPlan(
        d=d,
        k=u0.k,
        N_op=N_op,
        source=sym,
        invariance_residual=invariance_residual,
        model=model,
        pu0=pu0,
        mean0=sym.coeff(0).copy(),
        N_out=N_out,
        tail_tol=tail_tol,
    )


def fourier_coefficient(plan: EvolutionPlan, t: float, n: int) -> np.ndarray:
    """The n-th analytic Fourier coefficient of the evolved loop (mode 0: a copy of ``mean0``)."""
    if n < 0:
        raise ValueError("fourier_coefficient is defined for modes n >= 0")
    means = plan.model.iterate(plan.pu0.reshape(-1), [t], n)[0]
    return plan.mean0.copy() if n == 0 else means[n, ..., 0]


def _spectra(plan: EvolutionPlan, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``(T, dim)`` and spectral radii of the contraction at each time.

    S* annihilates the constants, at eigenbasis coordinates ``V[:d]*``, so in a basis
    ``[V[:d]*, Q]`` the step ``diag(phase_t) V* S* V`` is block upper triangular: its
    spectrum is d exact zeros, appended last, and that of its compression to ``Q``,
    from one stacked eigensolve.  ``Q*`` and ``eigen_shift Q`` do not depend on the
    time; the plan makes them once (:attr:`EvolutionPlan.deflated_shift`).
    A radius >= 1 raises, naming the first such time.
    """
    qh, shift_q = plan.deflated_shift
    compressed = (qh * plan.model.phases(times).T[:, None, :]) @ shift_q
    mu = np.concatenate([np.linalg.eigvals(compressed), np.zeros((times.size, plan.d))], axis=-1)
    r = np.max(np.abs(mu), axis=-1)
    bad = np.flatnonzero(r >= 1.0)
    if bad.size:
        raise SpectralRadiusError(f"contraction spectral radius {r[bad[0]]} >= 1 at t = {times[bad[0]]}")
    return mu, r


def contraction_spectrum(plan: EvolutionPlan, t: float) -> np.ndarray:
    """Eigenvalues of exp(-i t T) S* on the plan's space, the constants' d zeros last;
    all must stay inside the unit circle, else the rank/truncation data is unusable."""
    return _spectra(plan, np.array([float(t)]))[0][0]


def _time_blocks(plan: EvolutionPlan, times) -> list[np.ndarray]:
    """``times`` as floats, cut so that no block stacks more than
    ``BLOCK_ENTRIES`` step-matrix entries."""
    times = np.asarray(times, dtype=float).reshape(-1)
    size = max(1, BLOCK_ENTRIES // plan.model.lam.size**2)
    return [times[lo : lo + size] for lo in range(0, times.size, size)]


def _block_loops(plan: EvolutionPlan, times: np.ndarray):
    """Loops ``(T, 2w+1, d, d)`` at ``times``, zero-padded to the largest mode count ``w``
    (:func:`emit` writes 0 past a stop), with mode counts, radii and tails.

    The d columns of ``pu0`` step as one curve up to the stop :func:`emit` returns, and mode 0
    is the conserved ``mean0`` bit for bit.  Mode n of a time falls like its radius r**n, so the
    block's stop is predicted as the largest ``ceil(log(tail_tol / |pu0|) / log r)``, or the
    model's dimension where r = 0 (a nilpotent step).  The block steps ``STOP_SLACK`` past it,
    and again to the cap only if some time has not stopped there.  The first run's chunks end
    where the cap's would, and a miss is the cap's run, so every result is that of the cap's run.
    """
    _, radii = _spectra(plan, times)
    for i in np.flatnonzero(radii > 1.0 - 1e-3).tolist():
        warnings.warn(
            f"contraction spectral radius {radii[i]:.6f} at t = {times[i]}; mode tail decays slowly",
            SlowDecayWarning,
            stacklevel=3,
        )
    drop = math.log(plan.tail_tol / np.linalg.norm(plan.pu0))
    with np.errstate(divide="ignore"):
        reach = max(0, math.ceil(np.where(radii > 0.0, drop / np.log(radii), plan.model.lam.size).max()))
    # one step past the cap, so that a capped time's tail is the norm the cap drops
    pu, cap = plan.pu0.reshape(-1), plan.N_out + 1
    # the predicted horizon first, and the cap only if some time has not stopped there
    for n_max in sorted({min(reach + STOP_SLACK, cap), cap}):
        means, norms, stops = plan.model.iterate(pu, times, n_max, plan.tail_tol)
        tails = norms[stops, np.arange(times.size)]
        if (tails <= plan.tail_tol).all():
            break
    n_used = np.minimum(stops, plan.N_out)
    for i in np.flatnonzero(tails > plan.tail_tol).tolist():
        warnings.warn(
            f"mode cap {plan.N_out} reached with tail {tails[i]:.2e} > {plan.tail_tol:.1e} at t = {times[i]}",
            SlowDecayWarning,
            stacklevel=3,
        )

    w = int(n_used.max())
    loops = np.empty((times.size, 2 * w + 1, plan.d, plan.d), dtype=complex)
    loops[:, w] = plan.mean0
    loops[:, w + 1 :] = means[1 : w + 1].transpose(3, 0, 1, 2)
    np.conjugate(means[w:0:-1].transpose(3, 0, 2, 1), out=loops[:, :w])
    return loops, n_used, radii, tails


def _check_block(plan: EvolutionPlan, loops: np.ndarray, n_used: np.ndarray):
    """Residual dicts and energies of :func:`_block_loops`' loops.  The times whose mode counts
    share an octave (all counts below 64 share one) are checked together, each loop
    zero-padded to their widest cutoff n, on 4n+1 points, in chunks of T times (one at least)
    whose ``(T, 4n+1, d, d)`` samples hold at most ``BLOCK_ENTRIES`` entries."""
    w = loops.shape[1] // 2
    checks, energies, octave = {}, np.empty(n_used.size), np.frexp(np.maximum(n_used, 32))[1]
    for e in np.unique(octave).tolist():
        cols = np.flatnonzero(octave == e)
        n = int(n_used[cols].max())
        size = max(1, BLOCK_ENTRIES // ((4 * n + 1) * plan.d**2))
        for chunk in (cols[lo : lo + size] for lo in range(0, cols.size, size)):
            group = loops[chunk, w - n : w + n + 1]
            checks.update(zip(chunk.tolist(), constraint_residuals(plan.d, plan.k, group)))
            energies[chunk] = sobolev_energy(group)
    return checks, energies


def solve_many(plan: EvolutionPlan, times) -> list[TrajectorySample]:
    """Evolved loops at every time in ``times``, in order, with their diagnostics.

    All times step together in the generator's eigenbasis, ``W <- phase * (C W)``
    with ``C = V* S* V``, and each time stops at its own first mode whose
    remaining norm is at most the plan's ``tail_tol``.  Raises
    SpectralRadiusError for the first time whose contraction has radius >= 1
    and warns (SlowDecayWarning) for each time whose radius is near 1 or
    that reaches the mode cap.  Each block of times is solved as one
    zero-padded array, made read-only; a time's record holds views of it (its
    coefficients, and its mean as ``diagnostics["mean"]``), and its ``loop`` is
    built only when read.  A time's modes, stepped in products over the block's
    times, depend by rounding on its block; its ``grid_check`` and energy are its loop's,
    zero-padded to the widest count of its octave in the block (see :func:`_check_block`).
    """
    samples = []
    for block in _time_blocks(plan, times):
        loops, n_used, radii, tails = _block_loops(plan, block)
        checks, energies = _check_block(plan, loops, n_used)
        loops.flags.writeable = False
        w = loops.shape[1] // 2
        columns = (block, n_used, energies, radii, tails)
        for j, (t, n, energy, radius, tail) in enumerate(zip(*(c.tolist() for c in columns))):
            check = checks[j]
            diagnostics = {
                "energy": energy,
                "mean": loops[j, w],
                "constraint_residual": max(check.values()),
                "spectral_radius": radius,
                "tail_estimate": tail,
                "n_modes_used": n,
            }
            samples.append(TrajectorySample(t, diagnostics, plan.k, loops[j, w - n : w + n + 1], check))
    return samples


def solve_at_time(plan: EvolutionPlan, t: float) -> TrajectorySample:
    """Evolved loop at time t with recomputed diagnostics (:func:`solve_many` at one time,
    so stepped and checked on its own, and its modes, residuals and energy may differ by
    rounding from those the same time gets in a longer time array)."""
    return solve_many(plan, [t])[0]


def conservation_report(plan: EvolutionPlan, times) -> list[dict]:
    """The Lax pair's invariants of the evolved loop at each requested time: each row
    extends the sample's diagnostics (energy, mean, ...) with the Schatten sums of the
    Hankel section, Kronecker rank and interior Toeplitz spectrum.

    Each section is taken at cutoff ``max(N_op, loop.N)``, so it holds the whole evolved
    symbol.  Interior means mu strictly inside (-0.95, 0.95), where finite sections of
    involution-valued symbols carry the persistent spectrum; ``interior_gap`` is the
    largest drift of the sample's interior eigenvalues, paired in ascending order, from
    the datum's on the same cutoff, which is computed once per cutoff.  Counts are the
    matrix section's, each eigenvalue repeated d times.
    """

    def interior(series: FourierSeries, N: int) -> np.ndarray:
        lam = np.linalg.eigvalsh(toeplitz_vector_section(series, N))  # ascending
        return lam[(lam > -0.95) & (lam < 0.95)]

    datum_interior = cache(lambda N: interior(plan.source, N))
    out = []
    for sample in solve_many(plan, times):
        loop = sample.loop
        N = max(plan.N_op, loop.N)
        rank, sv = kronecker_rank(loop, N)
        base, lam = datum_interior(N), interior(loop.series, N)
        m = min(base.size, lam.size)
        row = {
            "t": sample.t,
            **sample.diagnostics,
            "hankel_rank": rank,
            "interior_gap": float(np.max(np.abs(base[:m] - lam[:m]))) if m else 0.0,
            "interior_count": plan.d * lam.size,
            "interior_count_base": plan.d * base.size,
        }
        # the Schatten sums of the same section: kronecker_rank repeats each singular value d times
        for p in (1.0, 2.0):
            row[f"I{p:g}"] = float(np.sum(sv[:: loop.d] ** p))
        out.append(row)
    return out


def intertwining_check(plan: EvolutionPlan, t: float) -> float:
    """Residual of (backward shift) o U(t) = U(t) o (exp(-itT) S*) on coordinates.

    Both sides are expanded through the coefficient iteration, the right one
    after one dense :meth:`~hwmlab.stability.IsometryModel.step`.  Each vector
    is a ``((N_op + 1) d, d)`` block of vector-section columns in the plan's
    subspace, one column per column of a matrix element: the initial analytic
    part and the constant identity, each expanded to 32 modes.
    """
    worst = 0.0
    A = plan.model.step(t)
    for c in (plan.pu0, np.eye(len(plan.pu0), plan.d, dtype=complex)):
        shifted = plan.model.iterate(c.reshape(-1), [t], 32)[0][1:]
        coeffs_g = plan.model.iterate((A @ c).reshape(-1), [t], 31)[0]
        gap = float(np.sqrt(np.sum(np.abs(shifted - coeffs_g) ** 2)))
        worst = max(worst, gap)
    return worst


def lax_residual(plan: EvolutionPlan, t: float, h: float, sign: int = +1) -> float:
    """Central-difference defect of the Toeplitz evolution equation.

    Compares (T(t+h) - T(t-h)) / 2h with the commutator of the skew generator
    and T(t) on the interior block; decays like h^2 for the generator's
    default sign and stays O(1) for the opposite one.  Both run on vector
    sections, whose lifts have the same 2-norm.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    loops = {dt: solve_at_time(plan, t + dt).loop for dt in (-h, 0.0, h)}
    # an effective bandwidth at coarse tolerance keeps a usable interior block;
    # what falls outside it only pollutes at the 1e-8 scale, far below O(h^2)
    band = max(bandwidth(lp.series, tol=1e-8) for lp in loops.values())
    N = max(plan.N_op, 2 * band + 10)
    margin = 2 * band + 2
    secs = {dt: toeplitz_vector_section(lp, N) for dt, lp in loops.items()}
    fd = (secs[h] - secs[-h]) / (2.0 * h)
    B = b_vector_section(loops[0.0], N, sign=sign)
    comm = B @ secs[0.0] - secs[0.0] @ B
    keep = (N - margin + 1) * plan.d
    return float(np.linalg.norm((fd - comm)[:keep, :keep], ord=2))


def recurrence_search(plan: EvolutionPlan, horizon: float, coarse_dt: float = 0.05) -> dict:
    """Scan for the first return of the loop to its initial state.

    Distance is the inhomogeneous half-order Sobolev norm of the difference.
    A coarse scan at the multiples of ``coarse_dt`` up to the horizon locates
    candidate local minima after the trajectory has clearly left the initial
    state, the last sample bracketed by the horizon; candidates are refined in
    time order and the first one dipping below eps, 1e-3 times the initial
    norm, is reported.  A scan that stays within eps returns at t = 0; one
    that leaves eps but not the arming level finds no return.
    Also reports the supremum of the Sobolev norm seen during the scan.
    """
    if not 0.0 <= horizon < np.inf:
        raise ValueError(f"horizon must be nonnegative and finite, got {horizon}")
    if not 0.0 < coarse_dt < np.inf:
        raise ValueError(f"coarse_dt must be positive and finite, got {coarse_dt}")
    u0 = plan.source
    norm0 = sobolev_norm(u0, 0.5)
    eps = 1e-3 * norm0

    def measure(loops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances to the initial loop and norms of a block of zero-padded loops."""
        N = max(u0.N, loops.shape[1] // 2)
        loops = np.pad(loops, ((0, 0), (N - loops.shape[1] // 2,) * 2, (0, 0), (0, 0)))
        return sobolev_norm(loops - u0.with_cutoff(N).coeffs, 0.5), sobolev_norm(loops, 0.5)

    # the whole steps inside the horizon; the relative slack counts 0.3 / 0.1 as 3 steps
    ts = coarse_dt * np.arange(math.floor(horizon / coarse_dt * (1.0 + 1e-9)) + 1)
    # block by block, so a long scan never holds more than one block of loops
    scanned = [measure(_block_loops(plan, block)[0]) for block in _time_blocks(plan, ts)]
    dists = np.concatenate([d for d, _ in scanned])
    sup_norm = float(max(np.max(norms) for _, norms in scanned))

    arm_level = max(4.0 * eps, 0.05 * norm0)
    result = {
        "t_star": None,
        "distance": None,
        "eps": eps,
        "sup_h_half": sup_norm,
        "samples_scanned": int(ts.size),
    }
    farthest = float(np.max(dists))
    if farthest <= eps:
        # trajectory never leaves the eps ball: trivially recurrent
        result["t_star"], result["distance"] = float(ts[0]), float(dists[0])
    if farthest <= arm_level:
        # it never clearly leaves, so no return follows a departure
        return result

    # scipy.optimize alone costs most of the package import time
    from scipy.optimize import minimize_scalar

    armed_from = int(np.argmax(dists > arm_level))
    refine_level = max(10.0 * eps, 1.5 * float(np.min(dists[armed_from:])))
    # the last sample is a candidate too: the horizon brackets it, or the sample itself
    # where the horizon falls on the grid, and nothing ahead of it is nearer
    edges = np.append(ts, max(horizon, ts[-1]))
    ahead = np.append(dists[1:], np.inf)
    for i in range(max(armed_from, 1), ts.size):
        if dists[i] <= refine_level and dists[i] <= dists[i - 1] and dists[i] <= ahead[i]:
            res = minimize_scalar(
                lambda t: float(measure(_block_loops(plan, np.array([t], dtype=float))[0])[0][0]),
                bounds=(float(edges[i - 1]), float(edges[i + 1])),
                method="bounded",
                options={"xatol": 1e-10},
            )
            if float(res.fun) <= eps:
                result["t_star"], result["distance"] = float(res.x), float(res.fun)
                return result
    return result
