"""Pseudo-spectral method-of-lines integrator for the commutator flow.

This is the independent cross-check against the resolvent-formula evolution:
a classical RK4 step on the Fourier coefficients, with the quadratic
commutator evaluated pointwise on a three-fold padded grid (the product of
two cutoff-N series has bandwidth 2N; the padding keeps the retained modes
alias-free).  Deliberately structure-agnostic: it knows nothing about the
conserved operator data, which is exactly what makes the agreement test
meaningful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hardy import FourierSeries, grid_commutator, grid_values, sobolev_energy
from .grassmann import GrassmannLoop, _residuals_from_samples, project_to_grassmann

__all__ = [
    "IntegratorState",
    "BlowUpError",
    "rhs",
    "step_rk4",
    "integrate",
    "cross_validate",
]


class BlowUpError(RuntimeError):
    """State left the neighborhood of the target manifold."""


@dataclass(frozen=True)
class IntegratorState:
    loop: GrassmannLoop
    t: float
    dt: float
    stats: dict


def _flow_rate(coeffs: np.ndarray) -> np.ndarray:
    """-(i/2) [U, |D| U] on raw ``(2N+1, d, d)`` coefficients, via dealiased grid products.

    U and |D| U go through one stacked transform and one commutator pass,
    and one forward transform along the entry lines fits modes -N..N back.
    """
    N = (coeffs.shape[0] - 1) // 2
    M = 3 * (2 * N + 1)
    n = np.arange(-N, N + 1)
    stack = np.empty((2,) + coeffs.shape, dtype=complex)
    stack[0] = coeffs
    np.multiply(coeffs, np.abs(n)[:, None, None], out=stack[1])
    comm = grid_commutator(*grid_values(stack, M)).transpose(1, 2, 0)
    comm *= -0.5j
    return (np.fft.fft(comm, axis=-1)[..., n % M] / M).transpose(2, 0, 1)


def rhs(u: GrassmannLoop | FourierSeries) -> FourierSeries:
    """Right-hand side of the flow on the coefficient vector."""
    series = u.series if isinstance(u, GrassmannLoop) else u
    return FourierSeries(series.d, series.N, _flow_rate(series.coeffs))


def step_rk4(state: IntegratorState, dt: float | None = None) -> IntegratorState:
    """One classical fourth-order step; optional per-step dt override."""
    dt = state.dt if dt is None else dt
    y = state.loop.series
    d, k = state.loop.d, state.loop.k

    c = y.coeffs
    k1 = _flow_rate(c)
    k2 = _flow_rate(c + 0.5 * dt * k1)
    k3 = _flow_rate(c + 0.5 * dt * k2)
    k4 = _flow_rate(c + dt * k3)
    new = FourierSeries(d, y.N, c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))

    # one grid transform, on constraint_residuals' 4N+1 points, serves the guard and the checks
    vals = grid_values(new.coeffs, 4 * y.N + 1)
    # Frobenius bound: |U|_op <= |U|_E <= sqrt(d) |U|_op, a cheap blow-up proxy
    sup = float(np.max(np.sqrt(np.sum(np.abs(vals) ** 2, axis=(-2, -1)))))
    if sup > 2.0 * np.sqrt(d):
        raise BlowUpError(f"sup |U|_E = {sup:.3f} exceeds 2 sqrt(d) at t = {state.t + dt}")

    check = _residuals_from_samples(d, k, new.coeffs, vals)
    loop = GrassmannLoop(d, k, new, check)
    stats = dict(state.stats)
    stats["steps"] = stats.get("steps", 0) + 1
    stats["constraint_drift"] = max(check["involution"], check["hermitian"])
    stats["energy_drift"] = abs(sobolev_energy(new) - stats["energy0"])
    return IntegratorState(loop=loop, t=state.t + dt, dt=dt, stats=stats)


def _initial_state(u0: GrassmannLoop, dt: float) -> IntegratorState:
    """State at t = 0 with zero drifts, measured against the datum's energy."""
    stats = {"steps": 0, "energy0": sobolev_energy(u0.series), "constraint_drift": 0.0, "energy_drift": 0.0}
    return IntegratorState(loop=u0, t=0.0, dt=dt, stats=stats)


def integrate(
    u0: GrassmannLoop,
    t_end: float,
    dt: float,
    renormalize: bool = False,
    sample_every: int = 0,
) -> list[IntegratorState]:
    """March to t_end; returns the visited states (at least first and last).

    ``renormalize`` projects back onto the target manifold after every step;
    off by default so constraint drift stays measurable.  ``sample_every``
    keeps one state per that many steps (0 keeps only endpoints).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt * u0.series.N > 1.0:
        warnings.warn(
            f"dt*N = {dt * u0.series.N:.2f} > 1 strains the advective stability heuristic",
            stacklevel=2,
        )
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-12 * max(1.0, abs(t_end)):
        n_steps = int(np.ceil(t_end / dt))
    state = _initial_state(u0, dt)
    out = [state]
    for j in range(n_steps):
        step_dt = min(dt, t_end - state.t)
        state = step_rk4(state, step_dt)
        if renormalize:
            projected = project_to_grassmann(
                state.loop.series, u0.d, u0.k, sq_tol=np.inf, herm_tol=np.inf
            )
            state = IntegratorState(loop=projected, t=state.t, dt=state.dt, stats=state.stats)
        if sample_every and (j + 1) % sample_every == 0:
            out.append(state)
    if out[-1] is not state:
        out.append(state)
    return out


def cross_validate(
    u0: GrassmannLoop, t_end: float, dt: float, plan=None, n_checks: int = 8, N: int | None = None
) -> dict:
    """Max L^2 gap between the direct integrator and the resolvent evolution.

    Marches once with RK4 at spatial cutoff ``N`` (defaults to the datum's),
    comparing against the per-time exact solve at ``n_checks`` evenly spaced
    times.  The cutoff must resolve the modes the flow populates, else the
    gap saturates at the truncation tail instead of shrinking like dt^4; a
    cutoff below the datum's raises ValueError.
    """
    from .evolution import make_plan, solve_at_time

    if N is not None and N < u0.series.N:
        raise ValueError(f"cutoff N = {N} is below the datum's cutoff {u0.series.N}")
    if plan is None:
        plan = make_plan(u0)
    if N is not None and N > u0.series.N:
        u0 = GrassmannLoop(u0.d, u0.k, u0.series.with_cutoff(N), u0.grid_check)
    check_ts = np.linspace(0.0, t_end, n_checks + 1)[1:]
    state = _initial_state(u0, dt)
    worst = 0.0
    curve = []
    for tc in check_ts:
        while state.t < tc - 1e-12:
            state = step_rk4(state, min(dt, tc - state.t))
        exact = solve_at_time(plan, state.t).loop.series
        n_cmp = max(exact.N, state.loop.series.N)
        diff = exact.with_cutoff(n_cmp).coeffs - state.loop.series.with_cutoff(n_cmp).coeffs
        gap = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
        curve.append({"t": float(state.t), "l2_gap": gap})
        worst = max(worst, gap)
    return {
        "max_gap": worst,
        "curve": curve,
        "energy_drift": state.stats["energy_drift"],
        "constraint_drift": state.stats["constraint_drift"],
    }
