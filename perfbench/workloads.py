"""The benchmark's workloads: inputs from the seed, set-up, one op and its check.

Each workload is a closed loop driven by one caller: the next op starts when
the previous one has returned.  Ops call hwmlab through module attributes
(``experiments.trajectory_rows``, not a captured name) so that the traced run
can rebind them.

Why these three:

* ``flow`` does the exact evolution: 200 exact solves per op, each with the
  per-sample grid check.  Operator assembly and the Hankel SVD run only in
  set-up, so they move ``flow`` set-up time but not its op metrics.
* ``zdbo`` does operator assembly, a dense eigensolve and the stability
  contraction, and no evolution or grid transforms.
* ``crosscheck`` does RK4 steps, whose work is the same grid transforms the
  flow's per-sample check uses, at about ten times the call count.  A
  grid-transform change that helps one of flow and crosscheck and costs the
  other shows on both.

The seed draws only the flow data.  It moves each flow loop by a constant
unitary conjugation and a rotation of the circle, both exact symmetries of
the flow, so the bits differ per seed while the work per op (modes used,
subspace dimensions) stays the same.  zdbo and crosscheck use the fixed data
of acceptance criteria 9 and 7.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hwmlab import evolution, experiments, grassmann, integrator, stability
from hwmlab.config import ExperimentConfig
from hwmlab.hardy import FourierSeries

FLOW_TIMES = np.linspace(0.0, 10.0, 50)
ZDBO_TIMES = ExperimentConfig().zdbo_times
ZDBO_CUTOFF = 256
ZDBO_CHECKPOINT = 1024
# the generic datum of acceptance criteria 4, 8 and 9
GENERIC_KEY = 424246


def _soliton() -> grassmann.GrassmannLoop:
    return grassmann.traveling_profile(grassmann.BlaschkeProduct(0.0, (0.0,)), 0.5, N=16)


def _moved(loop: grassmann.GrassmannLoop, rng: np.random.Generator) -> grassmann.GrassmannLoop:
    """Conjugate by a random constant unitary and rotate theta by a random angle."""
    v = grassmann.random_unitary(rng, loop.d)
    angle = 2.0 * np.pi * rng.random()
    n = np.arange(-loop.N, loop.N + 1)
    coeffs = np.einsum("ij,mjk,lk->mil", v, loop.series.coeffs, v.conj())
    coeffs = coeffs * np.exp(1j * n * angle)[:, None, None]
    return grassmann.validate_loop(loop.d, loop.k, FourierSeries(loop.d, loop.N, coeffs))


# ---- flow -----------------------------------------------------------------

def flow_inputs(seed: int) -> list:
    rng = np.random.Generator(np.random.Philox(key=seed))
    generic = grassmann.random_rational_loop(
        np.random.Generator(np.random.Philox(key=GENERIC_KEY)), 2, 1, twists=2
    )
    embedded = grassmann.embed_block(
        grassmann.traveling_profile(grassmann.BlaschkeProduct(0.0, (0.2,)), 0.4, N=32), 4, 2
    )
    harmonic = grassmann.half_harmonic_map(
        grassmann.BlaschkeProduct(0.0, (0.5, -0.3 + 0.3j, 0.2j)), N=64
    )
    return [_moved(loop, rng) for loop in (_soliton(), generic, embedded, harmonic)]


def flow_prepare(loops: list) -> list:
    return [evolution.make_plan(loop) for loop in loops]


def flow_op(plans: list) -> list:
    return [experiments.trajectory_rows(plan, FLOW_TIMES) for plan in plans]


def flow_check(result: list) -> list[str]:
    problems = []
    for j, rows in enumerate(result):
        energies = np.array([row["energy"] for row, _ in rows])
        drift = float(np.max(np.abs(energies - energies[0])))
        residual = max(row["constraint_residual"] for row, _ in rows)
        mean0 = rows[0][1].diagnostics["mean"]
        if not drift < 1e-7:
            problems.append(f"loop {j}: energy drift {drift:.2e}")
        if not residual < 1e-7:
            problems.append(f"loop {j}: constraint residual {residual:.2e}")
        if not all(np.array_equal(s.diagnostics["mean"], mean0) for _, s in rows):
            problems.append(f"loop {j}: zeroth mode moved")
    return problems


# ---- zdbo -----------------------------------------------------------------

def zdbo_inputs(seed: int) -> FourierSeries:
    coeffs = np.zeros((3, 1, 1), dtype=complex)
    coeffs[0, 0, 0] = -0.5
    coeffs[2, 0, 0] = -0.5
    return FourierSeries(1, 1, coeffs)


def zdbo_prepare(u0: FourierSeries) -> FourierSeries:
    return u0


def zdbo_op(u0: FourierSeries) -> dict:
    return stability.zd_bo_norm_curve(
        u0, ZDBO_TIMES, Ns=(ZDBO_CUTOFF,), checkpoint=ZDBO_CHECKPOINT
    )


def zdbo_check(result: dict) -> list[str]:
    problems = []
    onset = result["onsets"].get(ZDBO_CUTOFF)
    if onset is None or not 0.45 < onset < 0.55:
        problems.append(f"onset {onset} outside (0.45, 0.55)")
    for row in result["rows"]:
        if row["t"] <= 0.45 and not row["deficit"] < 1e-4:
            problems.append(f"deficit {row['deficit']:.2e} at t={row['t']} before breaking")
        if row["t"] >= 0.55 and not row["deficit"] > 1e-4:
            problems.append(f"deficit {row['deficit']:.2e} at t={row['t']} after breaking")
    return problems


# ---- crosscheck -----------------------------------------------------------

def crosscheck_inputs(seed: int) -> grassmann.GrassmannLoop:
    return _soliton()


def crosscheck_prepare(loop: grassmann.GrassmannLoop) -> tuple:
    return loop, evolution.make_plan(loop)


def crosscheck_op(state: tuple) -> dict:
    loop, plan = state
    return integrator.cross_validate(loop, t_end=1.0, dt=1e-2, plan=plan, n_checks=4, N=32)


def crosscheck_check(result: dict) -> list[str]:
    gap = result["max_gap"]
    return [] if gap < 1e-6 else [f"max gap {gap:.2e} >= 1e-6"]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable
    prepare: Callable
    op: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flow", flow_inputs, flow_prepare, flow_op, flow_check),
        Workload("zdbo", zdbo_inputs, zdbo_prepare, zdbo_op, zdbo_check),
        Workload("crosscheck", crosscheck_inputs, crosscheck_prepare, crosscheck_op, crosscheck_check),
    )
}


def digest(obj) -> str:
    """SHA-256 over every number an op returned, bit for bit."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, (bool, int, str, np.integer, np.bool_)) or obj is None:
        h.update(repr(obj.item() if isinstance(obj, np.generic) else obj).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(struct.pack("<d", float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        h.update(struct.pack("<dd", obj.real, obj.imag))
    else:
        raise TypeError(f"cannot digest {type(obj)!r}")
