"""Invariant checks behind the validate command, on the configured datum.

The datum and its plan are built exactly as ``evolve`` builds them, and each
check reads a residual the library already measures: the loop's pointwise
constraints, the key identity T^2 + H*H = I and its trace, the invariance
residual of the plan's frame, conservation of the energy, the Schatten sums,
the mean and the Hankel rank between the ends ``t0`` and ``t1`` of the
configured window, the contraction's spectral radius, isospectrality of the
Toeplitz section, and the bit-exact JSON round trip.  A loop file that fails
validation yields the single failed check ``loop_file_constraints``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .grassmann import ValidationError, loop_from_json, loop_to_json
from .operators import key_identity_check
from .evolution import conservation_report, lax_isospectrality_check, make_plan
from .experiments import build_datum

__all__ = ["CheckResult", "run_invariant_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _below(name: str, residual: float, tol: float) -> CheckResult:
    return CheckResult(name, residual < tol, f"residual {residual:.3e} vs {tol:.1e}")


def run_invariant_suite(cfg: ExperimentConfig) -> list[CheckResult]:
    try:
        loop = build_datum(cfg)
    except ValidationError as exc:
        if cfg.datum != "file":
            raise
        return [CheckResult("loop_file_constraints", False, str(exc))]
    plan = make_plan(loop, N_out=cfg.N_out, rank_tol=cfg.rank_tol, tail_tol=cfg.tail_tol)
    key = key_identity_check(loop, plan.N_op)
    start, end = conservation_report(plan, (cfg.t0, cfg.t1))
    mean_frozen = bool(np.array_equal(start["mean"], end["mean"]))
    radius = max(start["spectral_radius"], end["spectral_radius"])
    exact = bool(np.array_equal(loop_from_json(loop_to_json(loop)).series.coeffs, loop.series.coeffs))
    return [
        _below("loop_constraints", max(loop.grid_check.values()), 1e-10),
        _below("key_identity_interior", key["interior_residual"], 1e-9),
        _below("key_identity_trace", key["trace_gap"], 1e-9),
        _below("invariant_subspace_residual", plan.frame.invariance_residual, 1e-8),
        _below("flow_energy_conserved", abs(end["energy"] - start["energy"]), 1e-9),
        _below("flow_I1_conserved", abs(end["I1"] - start["I1"]), 1e-9),
        _below("flow_I2_conserved", abs(end["I2"] - start["I2"]), 1e-9),
        CheckResult("flow_mean_frozen", mean_frozen, "bit-exact" if mean_frozen else "zeroth mode moved"),
        CheckResult(
            "hankel_rank_conserved",
            start["hankel_rank"] == end["hankel_rank"],
            f"rank {start['hankel_rank']} at t0, {end['hankel_rank']} at t1",
        ),
        CheckResult("contraction_spectral_radius", radius < 1.0, f"max radius {radius:.6f} vs 1"),
        _below("lax_isospectrality", lax_isospectrality_check(plan, (cfg.t1,))["max_gap"], 1e-6),
        CheckResult("loop_serialization_roundtrip", exact, "bit-exact" if exact else "coefficients differ"),
    ]
