"""Pseudo-spectral method-of-lines integrator for the commutator flow.

This is the independent cross-check against the resolvent-formula evolution:
a classical RK4 step on the Fourier coefficients, with the quadratic commutator
evaluated pointwise on the smallest power of two >= 3N+1 points (the product of
two cutoff-N series has bandwidth 2N, so on M >= 3N+1 points it aliases only
beyond the retained modes -N..N).  A stage samples, multiplies and fits
through the grid pair :func:`~hwmlab.hardy.evaluate_grid` and
:func:`~hwmlab.hardy.fit_series`.  :func:`integrate` and :func:`cross_validate`
share one march: raw arrays step by dt, the last step cut short to land on the
target time, and a checked state is built only where the march stops.
Deliberately structure-agnostic: it knows nothing about the conserved operator
data, which makes the agreement meaningful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hardy import FourierSeries, evaluate_grid, fit_series, grid_commutator, sobolev_energy
from .grassmann import GrassmannLoop, constraint_residuals

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


def _grid_size(N: int) -> int:
    """Smallest power of two >= 3N+1, on which a product of cutoff-N series fits modes -N..N alias-free."""
    return 1 << (3 * N).bit_length()


def _flow_rate(coeffs: np.ndarray) -> np.ndarray:
    """-(i/2) [U, |D| U] on raw ``(2N+1, d, d)`` coefficients, via dealiased grid products.

    U and |D| U go through one stacked transform and one commutator pass,
    and one fit brings modes -N..N back.
    """
    N = (coeffs.shape[0] - 1) // 2
    M = _grid_size(N)
    n = np.arange(-N, N + 1)
    stack = np.empty((2,) + coeffs.shape, dtype=complex)
    stack[0] = coeffs
    np.multiply(coeffs, np.abs(n)[:, None, None], out=stack[1])
    comm = grid_commutator(*evaluate_grid(stack, M))
    # scale through the C-contiguous (d, d, M) block grid_commutator fills; in
    # place, that runs faster than through the entry-major view
    lines = comm.transpose(1, 2, 0)
    lines *= -0.5j
    return fit_series(comm, N)


def rhs(u: GrassmannLoop | FourierSeries) -> FourierSeries:
    """Right-hand side of the flow on the coefficient vector."""
    series = u.series if isinstance(u, GrassmannLoop) else u
    return FourierSeries(series.d, series.N, _flow_rate(series.coeffs))


def _raw_step(c: np.ndarray, dt: float, t: float) -> tuple[np.ndarray, float]:
    """One classical fourth-order step of raw coefficients from time ``t``: the new
    coefficients, whose samples on 4N+1 points the blow-up guard reads, and t + dt."""
    k1 = _flow_rate(c)
    k2 = _flow_rate(c + 0.5 * dt * k1)
    k3 = _flow_rate(c + 0.5 * dt * k2)
    k4 = _flow_rate(c + dt * k3)
    new = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    vals = evaluate_grid(new, 2 * new.shape[0] - 1)
    # Frobenius bound: |U|_op <= |U|_E <= sqrt(d) |U|_op, a cheap blow-up proxy
    sup = float(np.max(np.sqrt(np.sum(np.abs(vals) ** 2, axis=(-2, -1)))))
    # negated, so a NaN sup trips the guard too
    if not sup <= 2.0 * np.sqrt(c.shape[-1]):
        raise BlowUpError(f"sup |U|_E = {sup:.3f} is not within 2 sqrt(d) at t = {t + dt}")
    return new, t + dt


def _wrap_step(start: IntegratorState, c, t: float, dt: float, steps: int) -> IntegratorState:
    """The checked state ``steps`` raw steps after ``start`` (the last of length dt), as a
    chain of :func:`step_rk4` builds it: coefficients ``c`` with their constraint residuals."""
    d, k = start.loop.d, start.loop.k
    series = FourierSeries(d, start.loop.N, c)
    check = constraint_residuals(d, k, c)
    stats = dict(start.stats)
    stats["steps"] = stats.get("steps", 0) + steps
    stats["constraint_drift"] = max(check["involution"], check["hermitian"])
    stats["energy_drift"] = abs(sobolev_energy(series) - stats["energy0"])
    return IntegratorState(loop=GrassmannLoop(d, k, series, check), t=t, dt=dt, stats=stats)


def step_rk4(state: IntegratorState, dt: float | None = None) -> IntegratorState:
    """One classical fourth-order step; optional per-step dt override."""
    dt = state.dt if dt is None else dt
    c, t = _raw_step(state.loop.series.coeffs, dt, state.t)
    return _wrap_step(state, c, t, dt, 1)


def _initial_state(u0: GrassmannLoop, dt: float) -> IntegratorState:
    """State at t = 0 with zero drifts, measured against the datum's energy."""
    stats = {"steps": 0, "energy0": sobolev_energy(u0.series), "constraint_drift": 0.0, "energy_drift": 0.0}
    return IntegratorState(loop=u0, t=0.0, dt=dt, stats=stats)


def _march(state: IntegratorState, t_stop: float, dt: float) -> IntegratorState:
    """Raw steps of ``dt`` from ``state`` to ``t_stop``, the last one cut short to land
    on it; only the state reached is checked (``state`` itself if no step was due)."""
    c, t, steps = state.loop.series.coeffs, state.t, 0
    while t < t_stop - 1e-12:
        step_dt = min(dt, t_stop - t)
        c, t = _raw_step(c, step_dt, t)
        steps += 1
    return _wrap_step(state, c, t, step_dt, steps) if steps else state


def _check_times(t_end: float, dt: float) -> None:
    """Reject a march that cannot end: dt not positive and finite, t_end not finite and nonnegative."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")


def integrate(u0: GrassmannLoop, t_end: float, dt: float) -> IntegratorState:
    """The state at ``t_end`` after steps of ``dt``, the last one cut short to land on it."""
    _check_times(t_end, dt)
    if dt * u0.series.N > 1.0:
        warnings.warn(
            f"dt*N = {dt * u0.series.N:.2f} > 1 strains the advective stability heuristic",
            stacklevel=2,
        )
    return _march(_initial_state(u0, dt), t_end, dt)


def cross_validate(
    u0: GrassmannLoop, t_end: float, dt: float, plan=None, n_checks: int = 8, N: int | None = None
) -> dict:
    """Max L^2 gap between the direct integrator and the resolvent evolution.

    Marches once with RK4 at spatial cutoff ``N`` (defaults to the datum's),
    comparing against the per-time exact solve at ``n_checks`` evenly spaced
    times.  The cutoff must resolve the modes the flow populates, else the
    gap saturates at the truncation tail instead of shrinking like dt^4; a
    cutoff below the datum's, or fewer than one check, raises ValueError.
    """
    from .evolution import make_plan, solve_at_time

    if N is not None and N < u0.series.N:
        raise ValueError(f"cutoff N = {N} is below the datum's cutoff {u0.series.N}")
    _check_times(t_end, dt)
    if n_checks < 1:
        raise ValueError(f"n_checks must be at least 1, got {n_checks}")
    if plan is None:
        plan = make_plan(u0)
    if N is not None and N > u0.series.N:
        u0 = GrassmannLoop(u0.d, u0.k, u0.series.with_cutoff(N), u0.grid_check)
    state = _initial_state(u0, dt)
    worst = 0.0
    curve = []
    for tc in np.linspace(0.0, t_end, n_checks + 1)[1:]:
        state = _march(state, tc, dt)
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
