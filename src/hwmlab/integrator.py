"""Pseudo-spectral method-of-lines integrator for the commutator flow.

This is the independent cross-check against the resolvent-formula evolution:
a classical RK4 step on the Fourier coefficients, with the quadratic commutator
evaluated pointwise on the smallest power of two M >= 3N+1 points (the product
of two cutoff-N series has bandwidth 2N, so on M >= 3N+1 points it aliases only
beyond the retained modes -N..N).  A march keeps its state as a zero-padded
entry-major spectrum ``(d, d, M)`` in FFT order, so a stage is one inverse
transform of ``[U, |D| U]``, one commutator pass and one forward transform
through the grid pair :func:`~hwmlab.hardy.sample_padded` and
:func:`~hwmlab.hardy.fit_padded`, and a whole step runs in place on buffers the
march owns.  :func:`step_rk4`, :func:`integrate` and
:func:`cross_validate` share that march: steps of dt, the last one cut short to
land on the target time, and a checked state built only where the march stops.
The blow-up guard checks every state a march reaches, except the one it starts
from: max over the M grid points of ``|U|_E <= 2 sqrt(d)``.
Deliberately structure-agnostic: it knows nothing about the conserved operator
data, which makes the agreement meaningful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hardy import (
    FourierSeries,
    block_commutator,
    fit_padded,
    pad_spectrum,
    sample_padded,
    sobolev_energy,
    spectrum_coeffs,
)
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


def _guard(samples: np.ndarray, t: float) -> None:
    """Raise BlowUpError unless max over the grid points of |U|_E <= 2 sqrt(d), for
    the entry-major samples ``(d, d, M)`` of the state at time t."""
    # Frobenius bound: |U|_op <= |U|_E <= sqrt(d) |U|_op, a cheap blow-up proxy
    sup = float(np.sqrt(np.max(np.sum(np.abs(samples) ** 2, axis=(0, 1)))))
    # negated, so a NaN sup trips the guard too
    if not sup <= 2.0 * np.sqrt(samples.shape[0]):
        raise BlowUpError(f"sup |U|_E = {sup:.3f} is not within 2 sqrt(d) at t = {t}")


class _Stages:
    """The flow rate and whole RK4 steps on zero-padded entry-major spectra ``(d, d, M)``
    of cutoff N, M = ``_grid_size(N)``, with the |n| weights and every buffer built once:
    the transform input, the samples and the four stage rates."""

    def __init__(self, N: int, d: int):
        self.N, self.M = N, _grid_size(N)
        self.weights = pad_spectrum(np.abs(np.arange(-N, N + 1))[:, None, None], self.M)[0, 0]
        self.buf = np.empty((2, d, d, self.M), dtype=complex)
        self.values = np.empty_like(self.buf)
        self.k = np.empty((4, d, d, self.M), dtype=complex)

    def rate(self, out: np.ndarray | None = None, t: float | None = None) -> np.ndarray:
        """-(i/2) [U, |D| U] of the spectrum U in ``buf[0]``, via dealiased grid products,
        written into ``out`` if given.

        U and |D| U go through one stacked inverse transform and one commutator
        pass, and one forward transform brings modes -N..N back.  With a time
        t, the blow-up guard first reads U's samples as the state at t.
        """
        buf = self.buf
        np.multiply(buf[0], self.weights, out=buf[1])
        # a -0.0 lands as 0 + x = +0.0, as evaluate_grid samples it
        buf += 0.0
        values = sample_padded(buf, out=self.values)
        if t is not None:
            _guard(values[0], t)
        comm = block_commutator(values)
        comm *= -0.5j
        return fit_padded(comm, self.N, out=out)

    def step(self, s: np.ndarray, h: float, t: float | None = None) -> None:
        """One classical fourth-order step of length h on the spectrum s, in place: each
        stage input ``s + (c h) k`` goes straight into ``buf[0]``, and the rates are summed
        as ``s + (h/6) (((k1 + 2 k2) + 2 k3) + k4)`` in k2's buffer.  With a time t, the
        first stage guards s as the state at t."""
        stage, k = self.buf[0], self.k
        np.copyto(stage, s)
        self.rate(k[0], t)
        for j, c in enumerate((0.5 * h, 0.5 * h, h)):
            np.multiply(k[j], c, out=stage)
            stage += s
            self.rate(k[j + 1])
        k[1:3] *= 2.0
        for j in (0, 2, 3):
            k[1] += k[j]
        k[1] *= h / 6.0
        s += k[1]


def _flow_rate(coeffs: np.ndarray) -> np.ndarray:
    """-(i/2) [U, |D| U] on raw ``(2N+1, d, d)`` coefficients."""
    stages = _Stages((coeffs.shape[0] - 1) // 2, coeffs.shape[-1])
    stages.buf[0] = pad_spectrum(coeffs, stages.M)
    return spectrum_coeffs(stages.rate(), stages.N)


def rhs(u: GrassmannLoop | FourierSeries) -> FourierSeries:
    """Right-hand side of the flow on the coefficient vector."""
    series = u.series if isinstance(u, GrassmannLoop) else u
    return FourierSeries(series.d, series.N, _flow_rate(series.coeffs))


def _steps(state: IntegratorState, n: int, dt: float, t_stop: float) -> IntegratorState:
    """The checked state that n classical fourth-order steps of ``dt`` reach from ``state``
    (``state`` itself if n is 0): step i reaches ``state.t + i dt`` and the last ``t_stop``,
    a whole step if within 1e-10 dt of one (the rest is rounding in t), else cut short.

    The steps run in place on the zero-padded spectrum.  Each state they reach is guarded
    (see :func:`_guard`): on the samples the next step's first stage takes, and
    the last state on a transform of its own.  ``state`` itself is not guarded.
    """
    if n == 0:
        return state
    last = t_stop - (state.t + (n - 1) * dt)
    last = dt if abs(last - dt) <= 1e-10 * dt else last
    stages = _Stages(state.loop.N, state.loop.d)
    s = pad_spectrum(state.loop.series.coeffs, stages.M)
    for i in range(n):
        stages.step(s, last if i == n - 1 else dt, state.t + i * dt if i else None)
    _guard(sample_padded(s), t_stop)
    return _wrap_step(state, spectrum_coeffs(s, stages.N), t_stop, last, n)


def _wrap_step(start: IntegratorState, c, t: float, dt: float, steps: int) -> IntegratorState:
    """The checked state ``steps`` steps after ``start`` (the last of length dt), as a
    chain of :func:`step_rk4` builds it: coefficients ``c`` with their constraint residuals."""
    d, k = start.loop.d, start.loop.k
    series = FourierSeries(d, start.loop.N, c)
    check = constraint_residuals(d, k, c)
    stats = dict(start.stats)
    stats["steps"] = stats.get("steps", 0) + steps
    stats["constraint_drift"] = max(check.values())
    stats["energy_drift"] = abs(sobolev_energy(series) - stats["energy0"])
    return IntegratorState(loop=GrassmannLoop(d, k, series, check), t=t, dt=dt, stats=stats)


def step_rk4(state: IntegratorState) -> IntegratorState:
    """One classical fourth-order step of the state's ``dt``."""
    return _steps(state, 1, state.dt, state.t + state.dt)


def _initial_state(u0: GrassmannLoop, dt: float) -> IntegratorState:
    """State at t = 0 with zero drifts, measured against the datum's energy."""
    stats = {"steps": 0, "energy0": sobolev_energy(u0.series), "constraint_drift": 0.0, "energy_drift": 0.0}
    return IntegratorState(loop=u0, t=0.0, dt=dt, stats=stats)


def _march(state: IntegratorState, t_stop: float, dt: float) -> IntegratorState:
    """Steps of ``dt`` from ``state`` counted to land on ``t_stop`` (see :func:`_steps`; a running sum
    of t would end short or take a sliver step); only the state reached is checked."""
    # a remainder below 1e-10 dt is rounding, not a step still due
    return _steps(state, max(int(np.ceil((t_stop - state.t) / dt - 1e-10)), 0), dt, t_stop)


def _check_times(t_end: float, dt: float) -> None:
    """Reject a march from t = 0 that cannot end: dt not positive and finite, t_end not finite
    and nonnegative, or more than 2**53 steps, past which ``i dt`` names no distinct step end."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    # t_end / dt overflows to inf for a tiny dt
    if not t_end / dt <= 2.0**53:
        raise ValueError(f"t_end = {t_end} and dt = {dt} ask for {t_end / dt:.3g} steps, more than 2**53")


def integrate(u0: GrassmannLoop, t_end: float, dt: float) -> IntegratorState:
    """The state at ``t_end`` after steps of ``dt``, the last one cut short to land on it."""
    _check_times(t_end, dt)
    if dt * u0.series.N > 1.0:
        warnings.warn(
            f"dt*N = {dt * u0.series.N:.2f} > 1 strains the advective stability heuristic",
            stacklevel=2,
        )
    return _march(_initial_state(u0, dt), t_end, dt)


def cross_validate(u0: GrassmannLoop, t_end: float, dt: float, plan, n_checks: int, N: int | None = None) -> dict:
    """Max L^2 gap between the direct integrator and the resolvent evolution.

    Marches once with RK4 at spatial cutoff ``N`` (defaults to the datum's)
    through ``n_checks`` evenly spaced times, then compares the states there
    with the exact loops of one :func:`~hwmlab.evolution.solve_many` call on
    ``plan``, the datum's :func:`~hwmlab.evolution.make_plan`.
    The cutoff must resolve the modes the flow populates, else the gap
    saturates at the truncation tail instead of shrinking like dt^4; a cutoff
    below the datum's, or fewer than one check, raises ValueError.
    """
    from .evolution import solve_many

    if N is not None and N < u0.series.N:
        raise ValueError(f"cutoff N = {N} is below the datum's cutoff {u0.series.N}")
    _check_times(t_end, dt)
    if n_checks < 1:
        raise ValueError(f"n_checks must be at least 1, got {n_checks}")
    if N is not None and N > u0.series.N:
        u0 = GrassmannLoop(u0.d, u0.k, u0.series.with_cutoff(N), u0.grid_check)
    states = [_initial_state(u0, dt)]
    for tc in np.linspace(0.0, t_end, n_checks + 1)[1:]:
        states.append(_march(states[-1], tc, dt))
    curve = []
    for state, sample in zip(states[1:], solve_many(plan, [s.t for s in states[1:]])):
        exact = sample.loop.series
        n_cmp = max(exact.N, state.loop.N)
        diff = exact.with_cutoff(n_cmp).coeffs - state.loop.series.with_cutoff(n_cmp).coeffs
        curve.append({"t": float(state.t), "l2_gap": float(np.sqrt(np.sum(np.abs(diff) ** 2)))})
    return {
        "max_gap": max(point["l2_gap"] for point in curve),
        "curve": curve,
        "energy_drift": states[-1].stats["energy_drift"],
        "constraint_drift": states[-1].stats["constraint_drift"],
    }
